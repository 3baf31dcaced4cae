//! End-to-end tests of the `bgpq` binary over the checked-in sample
//! datasets under `data/` — the same commands CI's smoke step runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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
    let dir = std::env::temp_dir().join("bgpq_cli_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// `load → discover → index → query`, the quick-start pipeline, for every
/// checked-in scenario dataset.
#[test]
fn quick_start_pipeline_works_for_all_scenarios() {
    let datasets = [
        ("data/social.tsv", "data/queries/social.pat"),
        ("data/citation.jsonl", "data/queries/citation.pat"),
        ("data/products.jsonl", "data/queries/products.pat"),
    ];
    for (dataset, pattern) in datasets {
        let load = stdout_of(&["load", dataset]);
        assert!(load.contains("nodes:"), "{dataset}: {load}");

        let discover = stdout_of(&["discover", dataset]);
        assert!(discover.contains("discovered"), "{dataset}: {discover}");
        assert!(discover.contains("->"), "{dataset}: {discover}");

        let index = stdout_of(&["index", dataset]);
        assert!(index.contains("total |index|"), "{dataset}: {index}");
        assert!(!index.contains("OVER BOUND"), "{dataset}: {index}");

        let query = stdout_of(&["query", dataset, "--pattern", pattern]);
        assert!(
            query.contains("strategy: bounded"),
            "{dataset} should be served by the bounded tier: {query}"
        );
        assert!(query.contains("answer:"), "{dataset}: {query}");
    }
}

/// Every checked-in query has matches, and forcing the three tiers returns
/// the same answer count.
#[test]
fn strategies_agree_on_the_samples() {
    let count_of = |out: &str| -> usize {
        let line = out
            .lines()
            .find(|l| l.starts_with("answer:"))
            .expect("answer line");
        line.split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .expect("numeric answer count")
    };
    for (dataset, pattern) in [
        ("data/social.tsv", "data/queries/social.pat"),
        ("data/citation.jsonl", "data/queries/citation.pat"),
        ("data/products.jsonl", "data/queries/products.pat"),
    ] {
        let counts: Vec<usize> = ["bounded", "seeded", "baseline"]
            .iter()
            .map(|strategy| {
                count_of(&stdout_of(&[
                    "query",
                    dataset,
                    "--pattern",
                    pattern,
                    "--strategy",
                    strategy,
                ]))
            })
            .collect();
        assert!(counts[0] > 0, "{dataset}: sample query has no matches");
        assert_eq!(counts[0], counts[1], "{dataset}: bounded != seeded");
        assert_eq!(counts[0], counts[2], "{dataset}: bounded != baseline");
    }
}

/// A discovered schema round-trips through `--out` and `--schema`, and the
/// explain path prints a plan.
#[test]
fn schema_serialization_feeds_back_into_query() {
    let schema_path = temp_path("social.schema");
    let schema_arg = schema_path.to_str().unwrap();
    let discover = stdout_of(&["discover", "data/social.tsv", "--out", schema_arg]);
    assert!(discover.contains("wrote"), "{discover}");

    let query = stdout_of(&[
        "query",
        "data/social.tsv",
        "--pattern",
        "data/queries/social.pat",
        "--schema",
        schema_arg,
        "--explain",
    ]);
    assert!(query.contains("strategy: bounded"), "{query}");
    assert!(query.contains("plan ("), "{query}");
    assert!(query.contains("fetch "), "{query}");
}

/// `gen --out` writes a dataset the loader accepts, in both formats.
#[test]
fn gen_output_is_loadable() {
    for (name, flag) in [("e2e.tsv", "text"), ("e2e.jsonl", "jsonl")] {
        let path = temp_path(name);
        let path_arg = path.to_str().unwrap();
        let gen = stdout_of(&[
            "gen", "citation", "--scale", "30", "--seed", "7", "--format", flag, "--out", path_arg,
        ]);
        assert!(gen.contains("generated citation dataset"), "{gen}");
        let load = stdout_of(&["load", path_arg]);
        assert!(load.contains("paper"), "{load}");
        std::fs::remove_file(path).ok();
    }
}

/// Simulation semantics run end to end too.
#[test]
fn simulation_queries_work() {
    let out = stdout_of(&[
        "query",
        "data/citation.jsonl",
        "--pattern",
        "data/queries/citation.pat",
        "--semantics",
        "sim",
    ]);
    assert!(out.contains("maximum simulation relation"), "{out}");
}

/// The serve-demo drives commits and reads over a sample dataset.
#[test]
fn serve_demo_runs_a_mixed_workload() {
    let out = stdout_of(&[
        "serve-demo",
        "data/products.jsonl",
        "--commits",
        "3",
        "--batch",
        "6",
        "--queries",
        "10",
    ]);
    assert!(out.contains("commit 3 -> v3"), "{out}");
    assert!(out.contains("queries/sec"), "{out}");
    assert!(out.contains("plan cache @ v3"), "{out}");
}

/// Malformed datasets fail with the offending line number on stderr.
#[test]
fn malformed_input_reports_line_numbers() {
    let path = temp_path("broken.tsv");
    std::fs::write(&path, "n\t1\tuser\nx\t2\t3\n").unwrap();
    let output = bgpq(&["load", path.to_str().unwrap()]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("line 2"), "stderr was: {stderr}");
    std::fs::remove_file(path).ok();
}

/// Unknown flags and missing arguments produce actionable errors.
#[test]
fn bad_invocations_fail_cleanly() {
    let output = bgpq(&["query", "data/social.tssv"]);
    assert!(!output.status.success());
    let output = bgpq(&["load"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("dataset"));
    let output = bgpq(&["gen", "fantasy"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown scenario"));
    let output = bgpq(&["frobnicate"]);
    assert!(!output.status.success());
    let help = stdout_of(&["help"]);
    assert!(help.contains("USAGE"));

    // Flags of the removed partitioned and batched execution paths, and of
    // the worker pool `serve` no longer has, are refused by name, never
    // silently ignored.
    let removed: [(&[&str], &str); 11] = [
        (&["query", "data/social.tsv"], "--partitions"),
        (&["query", "data/social.tsv"], "--threads"),
        (&["query", "data/social.tsv"], "--scheme"),
        (&["compile", "data/social.tsv"], "--partitions"),
        (&["compile", "data/social.tsv"], "--threads"),
        (&["compile", "data/social.tsv"], "--scheme"),
        (&["serve", "data/social.tsv"], "--partitions"),
        (&["serve", "data/social.tsv"], "--threads"),
        (&["serve", "data/social.tsv"], "--scheme"),
        (&["serve", "data/social.tsv"], "--workers"),
        (&["client", "--addr", "127.0.0.1:1"], "--batch"),
    ];
    for (command, flag) in removed {
        let output = bgpq(&[command, &[flag, "2"]].concat());
        assert!(!output.status.success(), "{command:?} accepted {flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{command:?} {flag}: stderr was: {stderr}"
        );
    }
}

/// `compile → query --snapshot` answers exactly like querying the text
/// dataset, with no schema discovery or index build at query time.
#[test]
fn compile_then_query_snapshot_matches_text_path() {
    let datasets = [
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
    let answer_line = |out: &str| -> String {
        out.lines()
            .find(|l| l.starts_with("answer:"))
            .expect("answer line")
            .to_string()
    };
    for (dataset, pattern, name) in datasets {
        let snap = temp_path(&format!("{name}.bgpq"));
        let compiled = stdout_of(&["compile", dataset, "--out", snap.to_str().unwrap()]);
        assert!(compiled.contains("compiled"), "{dataset}: {compiled}");

        let from_text = stdout_of(&["query", dataset, "--pattern", pattern]);
        let from_snap = stdout_of(&[
            "query",
            "--snapshot",
            snap.to_str().unwrap(),
            "--pattern",
            pattern,
        ]);
        assert_eq!(
            answer_line(&from_text),
            answer_line(&from_snap),
            "{dataset}: answers diverged"
        );
        assert!(
            from_snap.contains("embedded in snapshot"),
            "{dataset}: snapshot path must reuse embedded schema: {from_snap}"
        );
        assert!(
            from_snap.contains("strategy: bounded"),
            "{dataset}: {from_snap}"
        );

        // `index --snapshot` reports the persisted indices without a rebuild.
        let index = stdout_of(&["index", "--snapshot", snap.to_str().unwrap()]);
        assert!(index.contains("no rebuild"), "{dataset}: {index}");
        std::fs::remove_file(snap).ok();
    }
}

/// A `.bgpq` compiled with `--partitions` by an earlier build carries the
/// retired section id 9. It still opens — checksum-verified, then skipped —
/// through the library loader and through `bgpq query --snapshot`.
#[test]
fn snapshot_with_retired_section_9_still_opens() {
    use bgpq_graph::io::snapshot::{Section, SnapshotArchive, SnapshotWriter};

    let plain = temp_path("retired9.plain.bgpq");
    let old = temp_path("retired9.bgpq");
    stdout_of(&[
        "compile",
        "data/social.tsv",
        "--out",
        plain.to_str().unwrap(),
    ]);
    let archive = SnapshotArchive::open(&plain).unwrap();
    let mut writer = SnapshotWriter::new();
    for (section, _) in archive.sections() {
        writer.add_section(section, archive.require(section).unwrap().into_owned());
    }
    writer.add_section(
        Section::from_id(9),
        b"per-shard index blobs of an older build".to_vec(),
    );
    writer
        .write_to(std::fs::File::create(&old).unwrap())
        .unwrap();

    let reopened = SnapshotArchive::open(&old).unwrap();
    assert!(reopened.contains(Section::Unknown(9)));
    let (with, without) = (
        bgpq_access::load_snapshot(&old).unwrap(),
        bgpq_access::load_snapshot(&plain).unwrap(),
    );
    assert_eq!(with.schema, without.schema);
    assert_eq!(with.graph.node_count(), without.graph.node_count());
    assert_eq!(with.indices.total_size(), without.indices.total_size());

    let query = |snap: &Path| {
        let out = stdout_of(&[
            "query",
            "--snapshot",
            snap.to_str().unwrap(),
            "--pattern",
            "data/queries/social.pat",
        ]);
        // Everything but the path-bearing first line and the timing line.
        out.lines()
            .skip(1)
            .filter(|l| !l.starts_with("stats:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let answer = query(&old);
    assert!(answer.contains("strategy: bounded"), "{answer}");
    assert_eq!(answer, query(&plain));
    std::fs::remove_file(plain).ok();
    std::fs::remove_file(old).ok();
}

/// Snapshots are recognized by magic bytes: a renamed or extensionless
/// snapshot file still loads through the binary path.
#[test]
fn snapshot_autodetection_ignores_the_extension() {
    let snap = temp_path("sniff.bgpq");
    stdout_of(&[
        "compile",
        "data/social.tsv",
        "--out",
        snap.to_str().unwrap(),
    ]);

    for name in ["renamed.tsv", "extensionless"] {
        let copy = temp_path(name);
        std::fs::copy(&snap, &copy).unwrap();
        let load = stdout_of(&["load", copy.to_str().unwrap()]);
        assert!(load.contains("(snapshot)"), "{name}: {load}");
        assert!(load.contains("constraints embedded"), "{name}: {load}");
        std::fs::remove_file(copy).ok();
    }
    std::fs::remove_file(snap).ok();
}

/// A snapshot of a newer format version is refused with a clear message
/// naming both versions, not mis-parsed.
#[test]
fn version_mismatched_snapshot_is_refused_clearly() {
    let snap = temp_path("future.bgpq");
    stdout_of(&[
        "compile",
        "data/social.tsv",
        "--out",
        snap.to_str().unwrap(),
    ]);
    let supported = bgpq_graph::io::snapshot::FORMAT_VERSION;
    let mut bytes = std::fs::read(&snap).unwrap();
    // A later format, and format 1, which stored derived data.
    for found in [99, 1] {
        bytes[8] = found; // the version field follows the 8-byte magic
        std::fs::write(&snap, &bytes).unwrap();

        let output = bgpq(&["load", snap.to_str().unwrap()]);
        assert!(!output.status.success());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("version {found} ")),
            "stderr was: {stderr}"
        );
        assert!(
            stderr.contains(&format!("version {supported})")),
            "stderr was: {stderr}"
        );
        assert!(stderr.contains("bgpq compile"), "stderr was: {stderr}");
    }
    std::fs::remove_file(snap).ok();
}

/// `--schema` contradicts a snapshot's embedded schema and is refused.
#[test]
fn schema_flag_conflicts_with_embedded_snapshot_schema() {
    let snap = temp_path("conflict.bgpq");
    let schema = temp_path("conflict.schema");
    stdout_of(&[
        "compile",
        "data/social.tsv",
        "--out",
        snap.to_str().unwrap(),
    ]);
    stdout_of(&[
        "discover",
        "data/social.tsv",
        "--out",
        schema.to_str().unwrap(),
    ]);
    let output = bgpq(&[
        "query",
        "--snapshot",
        snap.to_str().unwrap(),
        "--pattern",
        "data/queries/social.pat",
        "--schema",
        schema.to_str().unwrap(),
    ]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("conflicts"), "stderr was: {stderr}");
    std::fs::remove_file(snap).ok();
    std::fs::remove_file(schema).ok();
}

/// The front door's refusals, one wording each: every command that takes
/// `--schema` refuses it beside a snapshot that embeds a schema, and
/// `compile` and `workload` refuse `--gen` beside a dataset path or
/// `--snapshot`.
#[test]
fn input_conflicts_are_refused_in_one_wording() {
    let snap = temp_path("front_door.bgpq");
    let schema = temp_path("front_door.schema");
    let out = temp_path("front_door.out.bgpq");
    let (snap, schema, out) = (
        snap.to_str().unwrap(),
        schema.to_str().unwrap(),
        out.to_str().unwrap(),
    );
    stdout_of(&["compile", "data/social.tsv", "--out", snap]);
    stdout_of(&["discover", "data/social.tsv", "--out", schema]);
    let refused = |args: &[&str], message: &str| {
        let output = bgpq(args);
        assert!(!output.status.success(), "{args:?} was accepted");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(stderr, format!("error: {message}\n"), "{args:?}");
        assert!(!Path::new(out).exists(), "{args:?} wrote {out}");
    };

    let schema_conflict = format!(
        "--schema conflicts with the schema embedded in {snap}; \
         use the original dataset to apply a different schema"
    );
    let takes_schema: [&[&str]; 6] = [
        &["compile", "--out", out],
        &["index"],
        &["query", "--pattern", "data/queries/social.pat"],
        &["serve", "--port", "0", "--drain-after-ms", "1"],
        &["serve-demo"],
        &["workload"],
    ];
    for command in takes_schema {
        let args = [command, &["--snapshot", snap, "--schema", schema]].concat();
        refused(&args, &schema_conflict);
    }

    let takes_gen: [&[&str]; 2] = [&["compile", "--out", out], &["workload"]];
    let sources: [&[&str]; 2] = [&["data/social.tsv"], &["--snapshot", snap]];
    for command in takes_gen {
        for source in sources {
            let args = [command, &["--gen", "social"], source].concat();
            refused(&args, "--gen conflicts with a dataset path or --snapshot");
        }
    }
    std::fs::remove_file(snap).ok();
    std::fs::remove_file(schema).ok();
}
