//! Metric names, units and bounds, and the exact statistics computed over
//! raw nanosecond samples.
//!
//! The two tables here are the single source `BENCHMARK.json` mirrors; the
//! package's tests fail when the two drift apart.

/// One end-to-end metric: what a user of the server sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression. At least three times the
    /// widest run-to-run spread (interquartile range over median, ten runs)
    /// seen on the shared 2-vCPU reference box; timings sit at the driver's
    /// cap of 0.25, because the machine that accepts the benchmark was seen
    /// to be several times noisier than the reference box.
    pub bound: f64,
}

/// Every workload reports every one of these from its untraced run.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_cold_p50_us", "us", "lower", 0.25),
    e2e("query_cold_p90_us", "us", "lower", 0.25),
    e2e("query_hot_p50_us", "us", "lower", 0.25),
    e2e("query_hot_p90_us", "us", "lower", 0.25),
    e2e("commit_p50_us", "us", "lower", 0.25),
    e2e("queries_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// One per-layer metric `(name, unit, better)`: a single layer's time,
/// work count or ratio, taken from the traced run. Layers are the crates.
pub type Layer = (&'static str, &'static str, &'static str);

/// Every workload reports every one of these from its traced run.
pub const PER_LAYER: [Layer; 48] = [
    ("workload.stream_build_s", "s", "lower"),
    ("access.discover_s", "s", "lower"),
    ("access.index_build_s", "s", "lower"),
    ("access.index_entries", "count", "lower"),
    ("pattern.parse_us", "us", "lower"),
    ("pattern.fingerprint_us", "us", "lower"),
    ("core.plan_us", "us", "lower"),
    ("core.fetch_us", "us", "lower"),
    ("core.fragment_nodes", "count", "lower"),
    ("core.fetch_utilization", "ratio", "higher"),
    ("access.index_lookups_per_query", "count", "lower"),
    ("core.predicate_filtered_per_query", "count", "lower"),
    ("graph.view_build_us", "us", "lower"),
    ("matching.match_us", "us", "lower"),
    ("matching.steps_per_query", "count", "lower"),
    ("matching.answers_per_query", "count", "lower"),
    ("engine.execute_cold_us", "us", "lower"),
    ("engine.execute_hot_us", "us", "lower"),
    ("engine.overhead_us", "us", "lower"),
    ("engine.cold_overhead_us", "us", "lower"),
    ("engine.plan_cache_hit_ratio", "ratio", "higher"),
    ("engine.fragment_cache_hit_ratio", "ratio", "higher"),
    ("engine.invalidations_per_commit", "count", "lower"),
    ("serve.commit_us", "us", "lower"),
    ("graph.clone_us", "us", "lower"),
    ("access.index_clone_us", "us", "lower"),
    ("access.apply_deltas_us", "us", "lower"),
    ("access.refreshed_per_commit", "count", "lower"),
    ("access.nodes_touched_per_commit", "count", "lower"),
    ("serve.commit_clone_share", "ratio", "lower"),
    ("serve.pool_roundtrip_us", "us", "lower"),
    ("net.ping_rtt_us", "us", "lower"),
    ("net.request_encode_us", "us", "lower"),
    ("net.frame_write_us", "us", "lower"),
    ("net.frame_read_us", "us", "lower"),
    ("net.response_decode_us", "us", "lower"),
    ("net.wire_overhead_us", "us", "lower"),
    ("net.bytes_out_per_query", "B", "lower"),
    ("net.bytes_in_per_query", "B", "lower"),
    ("net.frames_per_answer", "count", "lower"),
    ("net.rows_per_answer", "count", "lower"),
    ("net.query_hot_p90_us", "us", "lower"),
    ("net.query_hot_p99_us", "us", "lower"),
    ("net.rejected", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.cold_coverage_pct", "%", "higher"),
    ("trace.hot_coverage_pct", "%", "higher"),
    ("trace.commit_coverage_pct", "%", "higher"),
];

/// Exact nearest-rank percentile (`0 < p <= 1`) of raw samples; sorts them
/// in place. Never a histogram bucket: a 1% shift in the data is a 1% shift
/// in the result.
pub fn percentile(samples: &mut [u64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

/// Median of a handful of values (repeated set-ups, per-op samples).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The three quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default "exclusive" method), which is what the driver
/// that accepts the benchmark computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    [1, 2, 3].map(|i| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// driver holds against each metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.9), 90.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [7], 0.5), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3.0, 1.0, 4.0, 1.5, 9.0], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.5, 9.0]), [1.25, 3.0, 6.5]);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let layers = PER_LAYER.iter().map(|&(n, u, b)| (n, u, b));
        for (name, unit, better) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(layers)
        {
            assert!(ok(name, "_.-", 64), "bad name {name}");
            assert!(ok(unit, "_/%.-", 16), "bad unit {unit}");
            assert!(better == "lower" || better == "higher");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", "lower")
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
