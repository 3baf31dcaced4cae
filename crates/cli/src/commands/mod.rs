//! Subcommand implementations.

pub mod client;
pub mod compile;
pub mod discover;
pub mod gen;
pub mod index;
pub mod load;
pub mod query;
pub mod serve;
pub mod serve_demo;
pub mod workload;

use crate::args::Args;
use crate::scenario::{Scenario, ScenarioConfig};
use bgpq_engine::DiscoveryConfig;
use std::error::Error;
use std::str::FromStr;

/// Renders a nanosecond count with a readable unit.
pub(crate) fn fmt_nanos(nanos: u64) -> String {
    match nanos {
        n if n < 1_000 => format!("{n} ns"),
        n if n < 1_000_000 => format!("{:.1} µs", n as f64 / 1_000.0),
        n if n < 1_000_000_000 => format!("{:.1} ms", n as f64 / 1_000_000.0),
        n => format!("{:.2} s", n as f64 / 1_000_000_000.0),
    }
}

/// Where the average commit went, phase by phase, and what it copied — one
/// line for `serve`'s drain report and `serve-demo`'s summary.
pub(crate) fn commit_phases(stats: &bgpq_serve::ServerStats) -> String {
    let avg = |nanos: u64| fmt_nanos(nanos / stats.commits.max(1));
    format!(
        "commit phases (avg of {}): clone {}, replay {}, maintain {}, publish {}, \
         retire {} of {}; copied {} graph pages, {} index pages, {} chunks, {} row ids",
        stats.commits,
        avg(stats.clone_nanos),
        avg(stats.replay_nanos),
        avg(stats.delta_apply_nanos),
        avg(stats.publish_nanos),
        avg(stats.retire_nanos),
        avg(stats.commit_nanos),
        stats.pages_copied,
        stats.shards_copied,
        stats.chunks_copied,
        stats.row_ids_copied
    )
}

/// The discovery flags shared by `discover`, `index`, `query` and
/// `serve-demo` (all of which may need to derive a schema on the fly).
pub(crate) const DISCOVERY_FLAGS: [&str; 4] =
    ["max-global", "max-unary", "max-pair", "max-constraints"];

/// The `--simple` switch name (type 1+2 discovery only).
pub(crate) const SIMPLE_SWITCH: &str = "simple";

/// The `--snapshot FILE` flag accepted by every dataset-reading subcommand.
pub(crate) const SNAPSHOT_FLAG: &str = "snapshot";

/// The scenario-generator flags shared by `gen`, `compile --gen` and
/// `workload --gen`: scale/seed plus the skew knobs.
pub(crate) const SCENARIO_FLAGS: [&str; 5] = ["scale", "seed", "zipf", "hot-fraction", "domain"];

/// Parses `--name` as `T` when given, `None` when absent.
pub(crate) fn optional_flag<T: FromStr>(args: &Args, name: &str) -> Result<Option<T>, String> {
    match args.flag(name) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value {raw:?} for --{name}")),
    }
}

/// Resolves a scenario name against the built-in generators.
pub(crate) fn resolve_scenario(name: &str) -> Result<Scenario, String> {
    Scenario::from_name(name).ok_or_else(|| {
        format!(
            "unknown scenario {name:?} (expected {})",
            Scenario::ALL.map(Scenario::name).join(", ")
        )
    })
}

/// Builds a [`ScenarioConfig`] from the shared scenario flags.
pub(crate) fn scenario_config(args: &Args) -> Result<ScenarioConfig, Box<dyn Error>> {
    let defaults = ScenarioConfig::default();
    let mut config = ScenarioConfig::new(
        args.flag_or("scale", defaults.scale)?,
        args.flag_or("seed", defaults.seed)?,
    );
    config.zipf = optional_flag(args, "zipf")?;
    config.hot_fraction = optional_flag(args, "hot-fraction")?;
    config.domain = optional_flag(args, "domain")?;
    if config.zipf.is_some_and(|z| !z.is_finite() || z <= 0.0) {
        return Err("--zipf expects a positive exponent".into());
    }
    if config
        .hot_fraction
        .is_some_and(|h| !(0.0..=1.0).contains(&h))
    {
        return Err("--hot-fraction expects a value in [0, 1]".into());
    }
    if config.domain == Some(0) {
        return Err("--domain expects a positive cardinality".into());
    }
    Ok(config)
}

/// Renders the active skew knobs for summary lines (empty when none are
/// set, matching the plain `scale/seed` wording of older releases).
pub(crate) fn knob_summary(config: &ScenarioConfig) -> String {
    let mut s = String::new();
    if let Some(z) = config.zipf {
        s.push_str(&format!(", zipf {z}"));
    }
    if let Some(h) = config.hot_fraction {
        s.push_str(&format!(", hot {h}"));
    }
    if let Some(d) = config.domain {
        s.push_str(&format!(", domain {d}"));
    }
    s
}

/// Builds a [`DiscoveryConfig`] from the shared discovery flags.
pub(crate) fn discovery_config(args: &Args) -> Result<DiscoveryConfig, String> {
    let defaults = if args.switch(SIMPLE_SWITCH) {
        DiscoveryConfig::simple()
    } else {
        DiscoveryConfig::default()
    };
    Ok(DiscoveryConfig {
        max_global_bound: args.flag_or("max-global", defaults.max_global_bound)?,
        max_unary_bound: args.flag_or("max-unary", defaults.max_unary_bound)?,
        max_pair_bound: args.flag_or("max-pair", defaults.max_pair_bound)?,
        max_constraints: args.flag_or("max-constraints", defaults.max_constraints)?,
        ..defaults
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_pick_sensible_units() {
        assert_eq!(fmt_nanos(999), "999 ns");
        assert_eq!(fmt_nanos(25_000), "25.0 µs");
        assert_eq!(fmt_nanos(4_879_500), "4.9 ms");
        assert_eq!(fmt_nanos(25_000_000_000), "25.00 s");
    }

    #[test]
    fn discovery_config_reads_flags() {
        let args = Args::parse(
            &["--max-global=9".into(), "--simple".into()],
            &DISCOVERY_FLAGS,
            &[SIMPLE_SWITCH],
        )
        .unwrap();
        let config = discovery_config(&args).unwrap();
        assert_eq!(config.max_global_bound, 9);
        assert!(!config.discover_pairs, "--simple disables pair discovery");
    }
}
