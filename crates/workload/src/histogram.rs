//! A log-bucketed latency histogram for cheap streaming percentiles.
//!
//! Open-loop benches and the serving front end report p50/p95/p99 without
//! storing samples: values land in geometric buckets (four sub-buckets per
//! power of two, so quantiles carry at most ~19% relative error — plenty
//! for "is p99 one millisecond or one hundred"), recording is two array
//! index computations and an increment, and the whole histogram is a few
//! hundred `u64`s. The same structure feeds the `retry_after_ms` hint on
//! `overloaded` rejections in the net layer: half a typical request's
//! latency is a sensible back-off.
//!
//! This module lives in `bgpq-workload` (it started out in `bgpq-net`) so
//! measuring code can use it without depending on the network stack.

/// Sub-bucket resolution: values within one power of two split into
/// `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 2;
const SUBS: usize = 1 << SUB_BITS;
/// Octaves 0..=63 for `u64` values, `SUBS` buckets each.
const BUCKETS: usize = 64 * SUBS;

/// A fixed-size log-bucketed histogram of `u64` samples (see module docs).
/// Units are the caller's choice; the net server and the benches record
/// microseconds.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUBS as u64 {
        // Values below the first full octave get exact buckets.
        return value as usize;
    }
    let octave = 63 - value.leading_zeros();
    let sub = ((value >> (octave - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    octave as usize * SUBS + sub
}

/// The largest value that lands in `bucket` — what [`quantile`] reports for
/// any sample inside it.
///
/// [`quantile`]: LatencyHistogram::quantile
fn upper_bound(bucket: usize) -> u64 {
    if bucket < SUBS {
        return bucket as u64;
    }
    let octave = (bucket / SUBS) as u32;
    if octave < SUB_BITS {
        // Octaves below the first subdivided one hold values the exact
        // region already covers; these buckets are never populated.
        return SUBS as u64 - 1;
    }
    let sub = (bucket % SUBS) as u64;
    let base = 1u64 << octave;
    let width = base >> SUB_BITS;
    // Last bucket of the top octave would overflow; saturate.
    base.saturating_add(width * (sub + 1)).saturating_sub(1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.total).unwrap_or(0)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound of the bucket
    /// holding the `ceil(q·count)`-th smallest sample (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return upper_bound(bucket).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self` bucket for bucket — the merge step when
    /// per-lane histograms from an open-loop run combine into one report.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.25), 0);
        assert_eq!(h.quantile(1.0), 3);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn quantiles_carry_bounded_relative_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            assert!(
                got >= exact && got <= exact * 1.30,
                "q={q}: got {got}, exact {exact}"
            );
        }
        assert_eq!(h.mean(), 5_000);
    }

    #[test]
    fn quantile_never_exceeds_the_observed_max() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_003);
        assert_eq!(h.quantile(0.99), 1_000_003);
        assert_eq!(h.quantile(0.0), 1_000_003);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn buckets_are_monotone() {
        let mut last = 0;
        for b in 0..BUCKETS - 1 {
            let ub = upper_bound(b);
            assert!(ub >= last, "bucket {b}");
            last = ub;
        }
        // Every value maps into a bucket whose bound is >= the value.
        for v in [5u64, 17, 100, 1_000, 123_456, u64::MAX / 2] {
            assert!(upper_bound(bucket_of(v)) >= v, "value {v}");
        }
    }

    #[test]
    fn merge_is_exact_on_buckets() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in 1..=1_000u64 {
            if v % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            };
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.mean(), all.mean());
        assert_eq!(a.max(), all.max());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }
}
