//! End-to-end network parity: `bgpq serve` + `bgpq client` against
//! `bgpq query`.
//!
//! For every checked-in scenario dataset and pattern, under both
//! semantics, the answer printed by `bgpq client` (pattern text → TCP →
//! admission gate → engine, on the session thread → streamed frames →
//! shared renderer) must be byte-identical to `bgpq query` evaluating the
//! same compiled snapshot locally — the `strategy:`/`answer:`/`bound:`
//! block and the explain lines, everything except the timing line. Plus
//! the operational paths: a zero-capacity server rejects with
//! `overloaded`, and `--drain-after-ms` exits with the drain report.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

fn repo_root() -> PathBuf {
    // crates/cli -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

fn bgpq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgpq"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("binary runs")
}

fn stdout_of(args: &[&str]) -> String {
    let output = bgpq(args);
    assert!(
        output.status.success(),
        "bgpq {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bgpq_net_cli");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A `bgpq serve` child process, killed on drop. The bound address comes
/// from its `listening on` line (`--port 0` picks a free port).
struct ServeChild {
    child: Child,
    addr: String,
}

impl ServeChild {
    fn spawn(extra: &[&str]) -> ServeChild {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bgpq"))
            .arg("serve")
            .args(extra)
            .args(["--port", "0"])
            .current_dir(repo_root())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve spawns");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut addr = None;
        for line in BufReader::new(stdout).lines() {
            let line = line.expect("serve stdout");
            if let Some(rest) = line.strip_prefix("listening on ") {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
        }
        ServeChild {
            child,
            addr: addr.expect("serve printed its address"),
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The deterministic slice of a query report: everything from the
/// `strategy:` line on, minus the timing (`stats:`) line and, for the
/// client, its connection banner.
fn parity_block(report: &str) -> String {
    report
        .lines()
        .skip_while(|l| !l.starts_with("strategy:"))
        .filter(|l| !l.starts_with("stats:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn client_answers_are_byte_identical_to_local_queries() {
    let scenarios = [
        ("data/social.tsv", "data/queries/social.pat", "social"),
        (
            "data/citation.jsonl",
            "data/queries/citation.pat",
            "citation",
        ),
        (
            "data/products.jsonl",
            "data/queries/products.pat",
            "products",
        ),
    ];
    for (dataset, pattern, name) in scenarios {
        // One compiled snapshot feeds both sides, so schema discovery
        // cannot diverge between the server and the local run.
        let snap = temp_path(&format!("{name}.bgpq"));
        let snap = snap.to_str().unwrap();
        stdout_of(&["compile", dataset, "--out", snap]);
        let serve = ServeChild::spawn(&["--snapshot", snap]);

        for semantics in ["iso", "sim"] {
            let local = stdout_of(&[
                "query",
                "--snapshot",
                snap,
                "--pattern",
                pattern,
                "--semantics",
                semantics,
                "--explain",
            ]);
            let remote = stdout_of(&[
                "client",
                "--addr",
                &serve.addr,
                "--pattern",
                pattern,
                "--semantics",
                semantics,
                "--explain",
            ]);
            let (local_block, remote_block) = (parity_block(&local), parity_block(&remote));
            assert!(
                local_block.contains("answer:"),
                "{name}/{semantics}: no answer in {local}"
            );
            assert_eq!(
                remote_block, local_block,
                "{name}/{semantics}: TCP answer diverged from local query"
            );
        }
    }
}

#[test]
fn forced_strategies_and_show_limits_also_match() {
    let snap = temp_path("strategies.bgpq");
    let snap = snap.to_str().unwrap();
    stdout_of(&["compile", "data/social.tsv", "--out", snap]);
    let serve = ServeChild::spawn(&["--snapshot", snap]);

    for strategy in ["bounded", "seeded", "baseline"] {
        let local = stdout_of(&[
            "query",
            "--snapshot",
            snap,
            "--pattern",
            "data/queries/social.pat",
            "--strategy",
            strategy,
            "--show",
            "3",
        ]);
        let remote = stdout_of(&[
            "client",
            "--addr",
            &serve.addr,
            "--pattern",
            "data/queries/social.pat",
            "--strategy",
            strategy,
            "--show",
            "3",
        ]);
        assert_eq!(
            parity_block(&remote),
            parity_block(&local),
            "strategy {strategy} diverged over TCP"
        );
    }
}

#[test]
fn zero_capacity_server_rejects_with_overloaded() {
    let serve = ServeChild::spawn(&[
        "data/social.tsv",
        "--schema",
        "data/social.schema",
        "--max-in-flight",
        "0",
    ]);
    let output = bgpq(&[
        "client",
        "--addr",
        &serve.addr,
        "--pattern",
        "data/queries/social.pat",
    ]);
    assert!(
        !output.status.success(),
        "a rejected query must fail the client"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("overloaded") && stderr.contains("retry after"),
        "expected a typed overloaded rejection, got: {stderr}"
    );

    // The session survives rejections: a ping on the same server works.
    let ping = stdout_of(&["client", "--addr", &serve.addr, "--ping"]);
    assert!(ping.contains("pong: epoch 0"), "{ping}");
}

#[test]
fn drain_after_ms_exits_with_a_drain_report() {
    let output = bgpq(&[
        "serve",
        "data/social.tsv",
        "--schema",
        "data/social.schema",
        "--port",
        "0",
        "--drain-after-ms",
        "300",
    ]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("listening on "), "{stdout}");
    assert!(stdout.contains("drained cleanly: admitted 0"), "{stdout}");
}
