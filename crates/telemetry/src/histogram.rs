//! Log-linear latency histograms.
//!
//! A [`Histogram`] is a fixed-size array of buckets: each power of two is
//! cut into [`SUB_BUCKETS`] linear sub-buckets, so a bucket is never wider
//! than 1/8 of its lowest value, and the values below 8 ns have a bucket
//! each. An estimate is its bucket's upper bound, so it is never below the
//! true value and overstates it by at most 12.5 %. Recording is a handful
//! of relaxed atomic adds — no locks, no allocation — so handles can sit
//! on hot paths gated only by [`Histogram::is_live`].
//!
//! Histograms are *mergeable*: bucket counts add elementwise, which is exactly
//! what the shard coordinator needs to fold per-worker latency distributions
//! (shipped back through the worker's `--stats-json` snapshot) into one
//! whole-run distribution, and what lets a hot loop record into a private
//! [`HistogramSample`] ([`HistogramSample::record_nanos`], no atomics) and
//! publish it once ([`Histogram::merge_sample`]). Quantiles are estimated
//! from the bucket counts and clamped to the tracked exact maximum, so
//! `p50 <= p90 <= p99 <= max` holds by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Linear sub-buckets per power of two.
const SUB_BUCKETS: usize = 8;

/// Number of buckets: one per value below [`SUB_BUCKETS`], then
/// [`SUB_BUCKETS`] for each bit width from 4 to 64.
pub(crate) const BUCKET_COUNT: usize = SUB_BUCKETS + (64 - 3) * SUB_BUCKETS;

/// Bucket index for a nanosecond value. A value below 8 is its own index;
/// a value of bit width `w >= 4` lands in sub-bucket `s`, the three bits
/// below its leading one, of width `w`: index `8 + 8·(w − 4) + s`.
fn bucket_index(nanos: u64) -> usize {
    let width = (u64::BITS - nanos.leading_zeros()) as usize;
    if width <= 3 {
        return nanos as usize;
    }
    let sub = (nanos >> (width - 4)) as usize & (SUB_BUCKETS - 1);
    SUB_BUCKETS + (width - 4) * SUB_BUCKETS + sub
}

/// Inclusive upper bound of a bucket, used as the quantile estimate:
/// `(9 + s)·2^(w−4) − 1` for sub-bucket `s` of bit width `w`.
fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let shift = (index - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u128;
    let top = ((SUB_BUCKETS as u128 + sub + 1) << shift) - 1;
    u64::try_from(top).unwrap_or(u64::MAX)
}

/// Shared histogram storage; lives in the registry, updated with relaxed
/// atomics only.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl HistogramCell {
    fn record_nanos(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    pub(crate) fn sample(&self, name: &str) -> HistogramSample {
        HistogramSample {
            name: name.to_string(),
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    fn absorb(&self, sample: &HistogramSample) {
        for (bucket, &n) in self.buckets.iter().zip(sample.buckets.iter()) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(sample.count, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(sample.sum_nanos, Ordering::Relaxed);
        self.max_nanos
            .fetch_max(sample.max_nanos, Ordering::Relaxed);
    }
}

/// Handle onto a named histogram. Cloning is cheap; a handle from a disabled
/// registry is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    pub(crate) fn live(cell: Arc<HistogramCell>) -> Self {
        Self { cell: Some(cell) }
    }

    /// True when records actually land somewhere. Callers use this to skip
    /// clock reads when telemetry is disabled.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.cell.is_some()
    }

    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        self.record_nanos(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one observation given directly in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        if let Some(cell) = &self.cell {
            cell.record_nanos(nanos);
        }
    }

    /// Folds a previously captured sample (e.g. parsed from a shard worker's
    /// stats snapshot) into this histogram. Bucket counts add elementwise, so
    /// the merged distribution equals recording the union of observations.
    pub fn merge_sample(&self, sample: &HistogramSample) {
        if let Some(cell) = &self.cell {
            cell.absorb(sample);
        }
    }
}

/// Point-in-time copy of one histogram, carried by
/// [`Snapshot`](crate::Snapshot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Histogram name, e.g. `grid.series_eval`.
    pub name: String,
    /// Total number of recorded observations.
    pub count: u64,
    /// Sum of all observations in nanoseconds.
    pub sum_nanos: u64,
    /// Largest observation in nanoseconds (exact, not bucketed).
    pub max_nanos: u64,
    /// Per-bucket observation counts (`BUCKET_COUNT` entries; see the
    /// module docs for the log-linear layout).
    pub buckets: Vec<u64>,
}

impl HistogramSample {
    /// An empty sample with the given name (all buckets zero).
    #[must_use]
    pub fn empty(name: &str) -> Self {
        Self {
            name: name.to_string(),
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
            buckets: vec![0; BUCKET_COUNT],
        }
    }

    /// Estimated quantile in nanoseconds: the upper bound of the bucket that
    /// holds the rank-`ceil(q * count)` observation, clamped to the tracked
    /// exact maximum. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let scaled = (q.clamp(0.0, 1.0) * self.count as f64).ceil();
        let rank = (scaled as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                return bucket_upper_bound(index).min(self.max_nanos);
            }
        }
        self.max_nanos
    }

    /// Median estimate in nanoseconds.
    #[must_use]
    pub fn p50_nanos(&self) -> u64 {
        self.quantile_nanos(0.50)
    }

    /// 90th-percentile estimate in nanoseconds.
    #[must_use]
    pub fn p90_nanos(&self) -> u64 {
        self.quantile_nanos(0.90)
    }

    /// 99th-percentile estimate in nanoseconds.
    #[must_use]
    pub fn p99_nanos(&self) -> u64 {
        self.quantile_nanos(0.99)
    }

    /// Median estimate in seconds.
    #[must_use]
    pub fn p50_seconds(&self) -> f64 {
        self.p50_nanos() as f64 / 1e9
    }

    /// 90th-percentile estimate in seconds.
    #[must_use]
    pub fn p90_seconds(&self) -> f64 {
        self.p90_nanos() as f64 / 1e9
    }

    /// 99th-percentile estimate in seconds.
    #[must_use]
    pub fn p99_seconds(&self) -> f64 {
        self.p99_nanos() as f64 / 1e9
    }

    /// Exact maximum in seconds.
    #[must_use]
    pub fn max_seconds(&self) -> f64 {
        self.max_nanos as f64 / 1e9
    }

    /// Records one observation given in nanoseconds into this sample — the
    /// single-owner counterpart of [`Histogram::record_nanos`], with no
    /// atomics: a hot loop records into its own sample and publishes it
    /// once through [`Histogram::merge_sample`].
    pub fn record_nanos(&mut self, nanos: u64) {
        if self.buckets.len() < BUCKET_COUNT {
            self.buckets.resize(BUCKET_COUNT, 0);
        }
        let bucket = &mut self.buckets[bucket_index(nanos)];
        *bucket = bucket.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Adds another sample into this one (bucket counts add elementwise).
    pub fn merge(&mut self, other: &HistogramSample) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (bucket, &n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *bucket = bucket.saturating_add(n);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;
    use proptest::prelude::*;

    fn recorded(values: &[u64]) -> HistogramSample {
        let metrics = Metrics::enabled();
        let h = metrics.histogram("h");
        for &v in values {
            h.record_nanos(v);
        }
        metrics
            .snapshot()
            .histogram("h")
            .expect("histogram registered")
            .clone()
    }

    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        let s = recorded(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_nanos(), 0);
        assert_eq!(s.p99_nanos(), 0);
        assert_eq!(s.max_nanos, 0);
    }

    #[test]
    fn single_value_histogram_reports_the_exact_value_at_every_quantile() {
        for v in [0u64, 1, 2, 3, 1023, 1024, 1025, 999_983, u64::MAX] {
            let s = recorded(&[v]);
            assert_eq!(s.p50_nanos(), v, "p50 of single value {v}");
            assert_eq!(s.p90_nanos(), v, "p90 of single value {v}");
            assert_eq!(s.p99_nanos(), v, "p99 of single value {v}");
            assert_eq!(s.max_nanos, v);
        }
    }

    #[test]
    fn buckets_tile_the_values_and_bound_the_estimate_error_at_an_eighth() {
        // Each value lies in the bucket whose bounds enclose it, and its
        // bucket's upper bound overstates it by at most 12.5 %.
        let mut values: Vec<u64> = (0..5_000).collect();
        values.extend((3..64).flat_map(|k| {
            let p = 1u64 << k;
            [p - 1, p, p + 1, p + p / 16, p + p / 8 - 1, p + p / 8]
        }));
        values.push(u64::MAX);
        for v in values {
            let index = bucket_index(v);
            assert!(index < BUCKET_COUNT, "{v}");
            let upper = bucket_upper_bound(index);
            assert!(v <= upper, "{v} above its bucket's bound {upper}");
            assert!(index == 0 || bucket_upper_bound(index - 1) < v, "{v}");
            assert!(
                (upper - v) as f64 <= v as f64 / 8.0,
                "{v} estimated as {upper}"
            );
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn quantiles_of_known_values_are_within_an_eighth() {
        // Fifteen series times spread over ±20 % of 1.2 ms, as a grid
        // run's `grid.series_eval` reads, and two wider spreads: each
        // quantile estimate is at or above the exact order statistic and
        // at most 12.5 % over it, so p50 and max come apart.
        let spreads: [Vec<u64>; 3] = [
            (0..15).map(|i| 1_000_000 + i * 28_571).collect(),
            (1..=1_000).map(|i| i * 997).collect(),
            (0..40).map(|i| 1u64 << (i % 40)).collect(),
        ];
        for values in spreads {
            let s = recorded(&values);
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.9, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let estimate = s.quantile_nanos(q);
                assert!(estimate >= exact, "q{q}: {estimate} < {exact}");
                assert!(
                    estimate as f64 <= exact as f64 * 1.125,
                    "q{q}: {estimate} over {exact} by more than 12.5 %"
                );
            }
        }
        let series = recorded(&(0..15).map(|i| 1_000_000 + i * 28_571).collect::<Vec<_>>());
        assert!(series.p50_nanos() < series.max_nanos);
    }

    #[test]
    fn disabled_handle_is_a_no_op() {
        let h = Metrics::disabled().histogram("h");
        assert!(!h.is_live());
        h.record_nanos(42);
        h.merge_sample(&HistogramSample::empty("h"));
        assert!(Metrics::disabled().snapshot().histograms.is_empty());
    }

    proptest! {
        #[test]
        fn percentiles_are_monotone_and_bounded_by_max(
            values in prop::collection::vec(0u64..2_000_000_000, 0..80)
        ) {
            let s = recorded(&values);
            prop_assert!(s.p50_nanos() <= s.p90_nanos());
            prop_assert!(s.p90_nanos() <= s.p99_nanos());
            prop_assert!(s.p99_nanos() <= s.max_nanos);
            prop_assert_eq!(s.max_nanos, values.iter().copied().max().unwrap_or(0));
        }

        #[test]
        fn merge_equals_recording_the_union(
            a in prop::collection::vec(0u64..2_000_000_000, 0..40),
            b in prop::collection::vec(0u64..2_000_000_000, 0..40)
        ) {
            let mut merged = recorded(&a);
            merged.merge(&recorded(&b));
            let mut union = a.clone();
            union.extend_from_slice(&b);
            prop_assert_eq!(merged, recorded(&union));
        }

        #[test]
        fn merge_sample_on_a_live_handle_matches_union_recording(
            a in prop::collection::vec(0u64..2_000_000_000, 0..40),
            b in prop::collection::vec(0u64..2_000_000_000, 0..40)
        ) {
            let metrics = Metrics::enabled();
            let h = metrics.histogram("h");
            for &v in &a {
                h.record_nanos(v);
            }
            h.merge_sample(&recorded(&b));
            let folded = metrics.snapshot().histogram("h").expect("registered").clone();
            let mut union = a.clone();
            union.extend_from_slice(&b);
            prop_assert_eq!(folded, recorded(&union));
        }

        #[test]
        fn a_sample_recorded_offline_then_merged_equals_recording_live(
            live in prop::collection::vec(0u64..2_000_000_000, 0..40),
            shifted in prop::collection::vec((0u64..u64::MAX, 6u32..64), 0..40)
        ) {
            // A hot loop records into its own sample and publishes it
            // once; the registry must end up bucket for bucket where
            // recording every value live would have left it. Shifting
            // spreads the values over every bucket below 2^58, so forty
            // of them cannot overflow the sum.
            let offline: Vec<u64> = shifted.iter().map(|&(v, shift)| v >> shift).collect();
            let metrics = Metrics::enabled();
            let h = metrics.histogram("h");
            for &v in &live {
                h.record_nanos(v);
            }
            let mut sample = HistogramSample::empty("h");
            for &v in &offline {
                sample.record_nanos(v);
            }
            h.merge_sample(&sample);
            let folded = metrics.snapshot().histogram("h").expect("registered").clone();
            let mut union = live.clone();
            union.extend_from_slice(&offline);
            prop_assert_eq!(folded, recorded(&union));
        }

        #[test]
        fn bucket_boundary_values_round_trip_exactly(k in 1u32..64) {
            // 2^k - 1 is the top of a bucket, and 2^k the bottom of the next.
            // As single observations both must be reported exactly (the
            // estimator clamps to the tracked max).
            let top = (1u64 << k) - 1;
            let bottom = 1u64 << k;
            prop_assert_eq!(recorded(&[top]).p99_nanos(), top);
            prop_assert_eq!(recorded(&[bottom]).p99_nanos(), bottom);
            // Together, the median lands in the lower bucket and stays exact.
            let s = recorded(&[top, bottom]);
            prop_assert_eq!(s.p50_nanos(), top);
            prop_assert_eq!(s.max_nanos, bottom);
        }
    }
}
