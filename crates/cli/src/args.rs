//! Tiny dependency-free argument parsing for the `bgpq` binary.
//!
//! The workspace ships without external crates, so instead of `clap` each
//! subcommand declares its flag names and gets positional arguments,
//! `--flag value` / `--flag=value` pairs and boolean `--switch`es back, with
//! unknown flags rejected up front.

use std::collections::{HashMap, HashSet};
use std::str::FromStr;

/// Parsed arguments of one subcommand invocation.
#[derive(Debug, Default)]
pub struct Args {
    positionals: Vec<String>,
    flags: HashMap<String, String>,
    switches: HashSet<String>,
}

impl Args {
    /// Parses `tokens` against the declared `value_flags` (take a value) and
    /// `switches` (boolean). Flag names are spelled without the `--` prefix.
    pub fn parse(
        tokens: &[String],
        value_flags: &[&str],
        switches: &[&str],
    ) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = tokens.iter();
        while let Some(token) = iter.next() {
            let Some(flag) = token.strip_prefix("--") else {
                args.positionals.push(token.clone());
                continue;
            };
            let (name, inline_value) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (flag, None),
            };
            if switches.contains(&name) {
                if let Some(value) = inline_value {
                    return Err(format!("--{name} takes no value (got {value:?})"));
                }
                args.switches.insert(name.to_string());
            } else if value_flags.contains(&name) {
                let value = match inline_value {
                    Some(value) => value,
                    None => iter
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?
                        .clone(),
                };
                args.flags.insert(name.to_string(), value);
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(args)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// The `i`-th positional argument, required.
    pub fn require_positional(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positional(i)
            .ok_or_else(|| format!("missing required argument <{what}>"))
    }

    /// Number of positional arguments.
    pub fn positional_count(&self) -> usize {
        self.positionals.len()
    }

    /// The raw value of `--name`, when given.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// The value of `--name` parsed as `T`, or `default` when absent.
    pub fn flag_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// The value of `--name` parsed, or `None` when the flag was not given.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |raw: &str| {
            raw.parse()
                .map_err(|_| format!("invalid value {raw:?} for --{name}"))
        };
        self.flag(name).map(parse).transpose()
    }

    /// True when `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn positionals_flags_and_switches() {
        let args = Args::parse(
            &tokens(&["data.tsv", "--scale", "50", "--explain", "--seed=7"]),
            &["scale", "seed"],
            &["explain"],
        )
        .unwrap();
        assert_eq!(args.positional(0), Some("data.tsv"));
        assert_eq!(args.positional_count(), 1);
        assert_eq!(args.flag("scale"), Some("50"));
        assert_eq!(args.flag_or("seed", 0u64).unwrap(), 7);
        assert_eq!(args.flag_or("missing", 3usize).unwrap(), 3);
        assert!(args.switch("explain"));
        assert!(!args.switch("quiet"));
    }

    #[test]
    fn errors_are_reported() {
        let err = Args::parse(&tokens(&["--bogus"]), &["scale"], &[]).unwrap_err();
        assert!(err.contains("unknown flag"));
        let err = Args::parse(&tokens(&["--scale"]), &["scale"], &[]).unwrap_err();
        assert!(err.contains("needs a value"));
        let err = Args::parse(&tokens(&["--explain=yes"]), &[], &["explain"]).unwrap_err();
        assert!(err.contains("takes no value"));
        let args = Args::parse(&tokens(&["--scale", "abc"]), &["scale"], &[]).unwrap();
        assert!(args.flag_or("scale", 0usize).is_err());
        assert!(args.require_positional(0, "dataset").is_err());
    }
}
