//! Property suite for the schema-aware workload generator, driven across
//! many seeds and through the same manifest text `bgpq workload` emits:
//! every pattern must parse back, every boundedness flag must agree with
//! the planner, the distribution knobs must hit their targets in
//! aggregate, and the whole artifact must be byte-deterministic in the
//! seed — end-to-end through the binary included.

use bgpq_engine::{discover_schema, parse_pattern, plan_query, DiscoveryConfig};
use bgpq_workload::{
    generate_workload, parse_manifest, stream_graph, Scenario, ScenarioConfig, Workload,
    WorkloadConfig,
};
use std::path::{Path, PathBuf};
use std::process::Command;

const SEEDS: u64 = 50;

/// One skewed social graph shared by every seed: small enough for debug
/// builds, with the curated hub tier (`domain`) that makes bounded chains
/// exist and enough bulk that unbounded labels exist too.
fn fixture() -> (bgpq_engine::Graph, bgpq_engine::AccessSchema) {
    let config = ScenarioConfig {
        domain: Some(8),
        ..ScenarioConfig::new(2_000, 11)
    };
    let graph = stream_graph(Scenario::Social, &config);
    let schema = discover_schema(&graph, &DiscoveryConfig::simple());
    (graph, schema)
}

fn config_for(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        queries: 8,
        seed,
        bounded_fraction: 0.5,
        shape_weights: [2, 1, 0, 1],
        ..WorkloadConfig::default()
    }
}

fn workload_for(
    graph: &bgpq_engine::Graph,
    schema: &bgpq_engine::AccessSchema,
    seed: u64,
) -> Workload {
    generate_workload(graph, schema, &config_for(seed)).expect("fixture generates every seed")
}

/// The core contract, re-verified externally through the manifest text:
/// every emitted pattern parses back, and the planner agrees with the
/// `bounded` flag — `Ok` for bounded, `Err` for unbounded — for 50 seeds.
#[test]
fn every_manifest_query_parses_and_plans_as_flagged_across_seeds() {
    let (graph, schema) = fixture();
    for seed in 0..SEEDS {
        let workload = workload_for(&graph, &schema, seed);
        let parsed = parse_manifest(&workload.to_manifest()).expect("manifest round-trips");
        assert_eq!(parsed.len(), 8, "seed {seed}");
        for q in &parsed {
            let pattern = parse_pattern(&q.pattern, graph.interner().clone())
                .unwrap_or_else(|e| panic!("seed {seed} q{}: {e}: {}", q.index, q.pattern));
            let plan = plan_query(&pattern, &schema, q.semantics);
            assert_eq!(
                plan.is_ok(),
                q.bounded,
                "seed {seed} q{}: planner disagrees with flag for {}",
                q.index,
                q.pattern
            );
        }
    }
}

/// Distribution targets hold: the bounded split is exact per workload, and
/// in aggregate over 400 draws the shape mix tracks the 2:1:0:1 weights,
/// sizes stay inside [min, max], and achieved selectivity centers on the
/// 0.5 target.
#[test]
fn distribution_knobs_hit_their_targets_in_aggregate() {
    let (graph, schema) = fixture();
    let mut shapes = [0usize; 4];
    let mut achieved = Vec::new();
    for seed in 0..SEEDS {
        let workload = workload_for(&graph, &schema, seed);
        // bounded_fraction 0.5 of 8 queries: exactly 4, every seed.
        assert_eq!(workload.bounded_count(), 4, "seed {seed}");
        let counts = workload.shape_counts();
        for (total, n) in shapes.iter_mut().zip(counts) {
            *total += n;
        }
        for q in &workload.queries {
            let config = config_for(seed);
            assert!(
                (2..=config.max_nodes).contains(&q.pattern.node_count()),
                "seed {seed} q{}: {} nodes outside [2, {}]",
                q.index,
                q.pattern.node_count(),
                config.max_nodes
            );
            achieved.extend(q.selectivity_achieved);
        }
    }
    let [chains, stars, cycles, trees] = shapes;
    let total = chains + stars + cycles + trees;
    assert_eq!(total, (SEEDS as usize) * 8);
    assert_eq!(cycles, 0, "zero-weight shape must never be drawn");
    // Expectations: chain 200, star 100, tree 100 over 400 draws. A ±50%
    // band is loose enough for 400 Bernoulli draws, tight enough to catch
    // an ignored or inverted weight.
    assert!((100..=300).contains(&chains), "chains {chains} of {total}");
    assert!((50..=150).contains(&stars), "stars {stars} of {total}");
    assert!((50..=150).contains(&trees), "trees {trees} of {total}");
    assert!(!achieved.is_empty(), "predicated roots exist");
    let mean = achieved.iter().sum::<f64>() / achieved.len() as f64;
    assert!(
        (0.3..=0.7).contains(&mean),
        "achieved selectivity mean {mean:.3} drifted from the 0.5 target"
    );
}

/// Identical seeds produce byte-identical manifests; distinct seeds
/// produce distinct ones (the knob actually reaches the RNG).
#[test]
fn manifests_are_byte_deterministic_in_the_seed() {
    let (graph, schema) = fixture();
    let mut manifests = Vec::new();
    for seed in 0..SEEDS {
        let a = workload_for(&graph, &schema, seed).to_manifest();
        let b = workload_for(&graph, &schema, seed).to_manifest();
        assert_eq!(a, b, "seed {seed}: same seed must be byte-identical");
        manifests.push(a);
    }
    manifests.sort();
    manifests.dedup();
    assert!(
        manifests.len() > 1,
        "50 distinct seeds collapsed to one manifest"
    );
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

fn bgpq(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bgpq"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("binary runs")
}

/// The same determinism holds end-to-end through the binary: two
/// `bgpq workload` runs with one seed write byte-identical manifest files,
/// and `bgpq query --workload` consumes the result against a snapshot
/// compiled from the same generated graph.
#[test]
fn workload_command_is_deterministic_and_feeds_query() {
    let dir = std::env::temp_dir().join("bgpq_workload_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    // One seed pins the generated graph for workload and compile alike, so
    // the manifest's boundedness flags hold on the compiled snapshot.
    let gen_args = [
        "--gen", "social", "--scale", "500", "--domain", "8", "--seed", "42", "--simple",
    ];
    let manifest = |name: &str| {
        let path = dir.join(name);
        let mut args = vec!["workload"];
        args.extend_from_slice(&gen_args);
        let path_str = path.to_str().unwrap().to_string();
        let out = bgpq(
            &args
                .iter()
                .copied()
                .chain(["--queries", "6", "--out", &path_str])
                .collect::<Vec<_>>(),
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        path
    };
    let a = std::fs::read(manifest("a.jsonl")).unwrap();
    let b = std::fs::read(manifest("b.jsonl")).unwrap();
    assert_eq!(a, b, "same-seed workload runs must write identical bytes");

    let snap = dir.join("fixture.bgpq");
    let snap_str = snap.to_str().unwrap().to_string();
    let mut compile = vec!["compile"];
    compile.extend_from_slice(&gen_args);
    compile.extend_from_slice(&["--out", &snap_str]);
    let out = bgpq(&compile);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // q3 and q4 of this manifest have millions of answers; the cap keeps
    // the run to the answers it reports.
    let manifest_path = dir.join("a.jsonl");
    let out = bgpq(&[
        "query",
        "--snapshot",
        &snap_str,
        "--workload",
        manifest_path.to_str().unwrap(),
        "--max-matches",
        "1000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("workload"), "{stdout}");
    assert!(stdout.contains("6 queries"), "{stdout}");
    assert!(stdout.contains("latency: p50"), "{stdout}");
    for q in ["q3 ", "q4 "] {
        let line = stdout.lines().find(|l| l.trim_start().starts_with(q));
        let line = line.unwrap_or_else(|| panic!("no {q}line: {stdout}"));
        assert!(line.contains(", 1000 answers,"), "{q}is capped: {line}");
    }
}
