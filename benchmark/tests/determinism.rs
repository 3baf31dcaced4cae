//! The benchmark's own checks: same seed → same op script and same counts,
//! `BENCHMARK.json` mirrors the metric tables, and every workload prints
//! every metric with its unit.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`; a
//! debug build skips the 600k-node workload, whose set-up alone would take
//! most of a minute unoptimised.

use bgpq_benchmark::metrics::{END_TO_END, PER_LAYER};
use bgpq_benchmark::recipe::{render_script, Rig, WorkloadSpec, WORKLOADS};
use bgpq_benchmark::report::DEFAULT_SECONDS;
use bgpq_graph::io::json::{parse_json, Json};
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
}

fn text<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {}", json.render()))
}

#[test]
fn same_seed_same_script_other_seed_other_script() {
    let spec = WorkloadSpec::by_name("engine_small").unwrap();
    let rig = Rig::setup(spec, false).unwrap();
    let script = render_script(&rig.script(7, 3));
    assert_eq!(script, render_script(&rig.script(7, 3)));
    assert_ne!(script, render_script(&rig.script(8, 3)));
    // 3 cycles of: a cycle header, one commit, one cold and H hot rounds.
    assert_eq!(script.lines().count(), 3 * (3 + spec.hot_rounds));

    // The dataset is pinned: a second set-up gives the same Q.
    let again = Rig::setup(spec, false).unwrap();
    let texts = |rig: &Rig| -> Vec<String> { rig.queries.iter().map(|q| q.text.clone()).collect() };
    assert_eq!(texts(&rig), texts(&again));
}

#[test]
fn benchmark_json_mirrors_the_tables() {
    let file = repo_root().join("BENCHMARK.json");
    let json = parse_json(&std::fs::read_to_string(&file).unwrap()).unwrap();
    let list = |key: &str| json.get(key).and_then(Json::as_arr).unwrap().to_vec();

    let declared: Vec<(String, String, String, Option<f64>)> = list("end_to_end")
        .iter()
        .chain(&list("per_layer"))
        .map(|m| {
            (
                text(m, "name").to_string(),
                text(m, "unit").to_string(),
                text(m, "better").to_string(),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect();
    let tables: Vec<(String, String, String, Option<f64>)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, Some(m.bound)))
        .chain(PER_LAYER.iter().map(|&(n, u, b)| (n, u, b, None)))
        .map(|(n, u, b, bound)| (n.to_string(), u.to_string(), b.to_string(), bound))
        .collect();
    assert_eq!(declared, tables);

    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (text(w, "name").to_string(), text(w, "why").to_string()))
        .collect();
    let specs: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, specs);
    assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));

    assert_eq!(
        json.get("run_seconds").and_then(Json::as_u64),
        Some(DEFAULT_SECONDS)
    );
    assert_eq!(list("paths"), [Json::str("benchmark")]);
    assert!(list("command").contains(&Json::str("benchmark/Cargo.toml")));
}

/// Runs one workload in smoke mode from the repository root and returns its
/// result object.
fn smoke(workload: &str, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_bgpq-benchmark"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "11", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{workload} exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let result = parse_json(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    result
}

fn metric<'a>(result: &'a Json, name: &str) -> &'a Json {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("{name} is missing from {}", result.render()))
}

#[test]
fn every_workload_prints_every_metric_and_counts_repeat() {
    for spec in &WORKLOADS {
        if cfg!(debug_assertions) && spec.scale > 10_000 {
            continue;
        }
        let untraced = smoke(spec.name, false);
        for m in &END_TO_END {
            assert_eq!(text(metric(&untraced, m.name), "unit"), m.unit);
            let value = metric(&untraced, m.name)
                .get("value")
                .and_then(Json::as_f64)
                .unwrap();
            assert!(value > 0.0, "{}/{} = {value}", spec.name, m.name);
        }

        let (first, second) = (smoke(spec.name, true), smoke(spec.name, true));
        for &(name, unit, _) in &PER_LAYER {
            assert_eq!(text(metric(&first, name), "unit"), unit);
            if unit == "count" {
                assert_eq!(
                    metric(&first, name).get("value"),
                    metric(&second, name).get("value"),
                    "{}/{name} differs between two same-seed runs",
                    spec.name
                );
            }
        }
        // Every hot round hit, every cold round missed: H/(H+1) exactly.
        let expected = spec.hot_rounds as f64 / (spec.hot_rounds + 1) as f64;
        for name in [
            "engine.plan_cache_hit_ratio",
            "engine.fragment_cache_hit_ratio",
        ] {
            let ratio = metric(&first, name)
                .get("value")
                .and_then(Json::as_f64)
                .unwrap();
            assert!(
                (ratio - expected).abs() < 1e-9,
                "{}/{name} = {ratio}",
                spec.name
            );
        }

        let trace = repo_root().join(format!("benchmark/out/trace_{}.jsonl", spec.name));
        let spans = std::fs::read_to_string(&trace).unwrap();
        assert!(spans.lines().count() > 100);
        for line in spans.lines().take(50) {
            let span = parse_json(line).unwrap();
            for key in ["id", "parent", "op", "start_ns", "end_ns"] {
                assert!(span.get(key).and_then(Json::as_u64).is_some(), "{line}");
            }
            assert!(!text(&span, "name").is_empty());
        }
    }
}
