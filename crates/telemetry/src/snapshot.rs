//! Point-in-time registry snapshots and their renderings.

use std::fmt::Write as _;

use crate::histogram::{HistogramSample, BUCKET_COUNT};
use crate::json::{Json, JsonError, JsonObject};

/// The snapshot JSON schema version, bumped on any incompatible change
/// (see `docs/OBSERVABILITY.md` for the evolution rules). v2 added the
/// `histograms` section; v3 redefined the frontier counters; v4 made a
/// grid series a `(device, workload)` block; v5 cut each power of two of
/// a histogram into 8 linear sub-buckets.
pub const SNAPSHOT_SCHEMA: &str = "memstream-telemetry v5";

/// One counter's sampled value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Registered name (dot-separated catalogue key).
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One span accumulator's sampled state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSample {
    /// Registered name.
    pub name: String,
    /// How many times the span was entered.
    pub entries: u64,
    /// Total wall-clock nanoseconds accumulated inside the span.
    pub nanos: u64,
}

impl SpanSample {
    /// Total accumulated seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// A consistent copy of a [`crate::Metrics`] registry, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Every counter, sorted by name.
    pub counters: Vec<CounterSample>,
    /// Every span accumulator, sorted by name.
    pub spans: Vec<SpanSample>,
    /// Every histogram, sorted by name.
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// The value of the counter named `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The total seconds of the span named `name`, if registered.
    #[must_use]
    pub fn span_seconds(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(SpanSample::seconds)
    }

    /// The histogram named `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// A throughput helper: counter `counter` divided by the non-zero
    /// seconds of span `span`. `None` when either is unregistered.
    /// Elapsed time is clamped to one nanosecond, so a registered pair
    /// always yields a finite, positive rate.
    #[must_use]
    pub fn rate_per_second(&self, counter: &str, span: &str) -> Option<f64> {
        let count = self.counter(counter)? as f64;
        let seconds = self.span_seconds(span)?.max(1e-9);
        Some(count / seconds)
    }

    /// The fixed-width table the harness prints to **stderr** under
    /// `--stats`: counters first, then spans with entry counts and
    /// accumulated seconds, then histograms with their percentile
    /// estimates (all times in seconds).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "telemetry:");
        if self.counters.is_empty() && self.spans.is_empty() && self.histograms.is_empty() {
            let _ = writeln!(out, "  (no metrics recorded)");
            return out;
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  {:<38} {:>14}", "counter", "value");
            for c in &self.counters {
                let _ = writeln!(out, "  {:<38} {:>14}", c.name, c.value);
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "  {:<38} {:>7} {:>12}", "span", "entries", "seconds");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<38} {:>7} {:>12.6}",
                    s.name,
                    s.entries,
                    s.seconds()
                );
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "  {:<38} {:>7} {:>11} {:>11} {:>11} {:>11}",
                "histogram", "count", "p50[s]", "p90[s]", "p99[s]", "max[s]"
            );
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<38} {:>7} {:>11.6} {:>11.6} {:>11.6} {:>11.6}",
                    h.name,
                    h.count,
                    h.p50_seconds(),
                    h.p90_seconds(),
                    h.p99_seconds(),
                    h.max_seconds()
                );
            }
        }
        out
    }

    /// The snapshot as a versioned JSON document:
    ///
    /// ```json
    /// {"schema": "memstream-telemetry v5",
    ///  "counters": {"cache.hits": 600},
    ///  "spans": {"grid.eval": {"entries": 1, "seconds": 0.0123}},
    ///  "histograms": {"grid.series_eval": {"count": 30, "sum_nanos": 91230,
    ///    "max_nanos": 8123, "p50_seconds": 0.000002, "p90_seconds": 0.000004,
    ///    "p99_seconds": 0.000008, "max_seconds": 0.000008,
    ///    "buckets": [0,0,0,1]}}}
    /// ```
    ///
    /// Histogram entries carry their raw bucket counts (trailing zero
    /// buckets trimmed) alongside the derived percentiles, so another
    /// process — the shard coordinator folding worker snapshots — can
    /// reconstruct and merge the exact distribution via
    /// [`parse_histograms`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut counters = JsonObject::new();
        for c in &self.counters {
            counters = counters.field_u64(&c.name, c.value);
        }
        let mut spans = JsonObject::new();
        for s in &self.spans {
            spans = spans.field_object(
                &s.name,
                JsonObject::new()
                    .field_u64("entries", s.entries)
                    .field_f64("seconds", s.seconds()),
            );
        }
        let mut histograms = JsonObject::new();
        for h in &self.histograms {
            let occupied = h
                .buckets
                .iter()
                .rposition(|&n| n > 0)
                .map_or(0, |last| last + 1);
            histograms = histograms.field_object(
                &h.name,
                JsonObject::new()
                    .field_u64("count", h.count)
                    .field_u64("sum_nanos", h.sum_nanos)
                    .field_u64("max_nanos", h.max_nanos)
                    .field_f64("p50_seconds", h.p50_seconds())
                    .field_f64("p90_seconds", h.p90_seconds())
                    .field_f64("p99_seconds", h.p99_seconds())
                    .field_f64("max_seconds", h.max_seconds())
                    .field_array_u64("buckets", &h.buckets[..occupied]),
            );
        }
        JsonObject::new()
            .field_str("schema", SNAPSHOT_SCHEMA)
            .field_object("counters", counters)
            .field_object("spans", spans)
            .field_object("histograms", histograms)
            .render_pretty()
    }
}

/// Extracts the histogram samples from a snapshot JSON document (any
/// schema version, its buckets read in this version's layout; documents
/// without a `histograms` section yield an empty vector). The shard coordinator uses this to fold each worker's
/// latency distributions into its own registry.
pub fn parse_histograms(text: &str) -> Result<Vec<HistogramSample>, JsonError> {
    let doc = crate::json::parse(text)?;
    let mut samples = Vec::new();
    if let Some(Json::Object(entries)) = doc.get("histograms") {
        for (name, body) in entries {
            let mut sample = HistogramSample::empty(name);
            sample.count = body.get("count").and_then(Json::as_u64).unwrap_or(0);
            sample.sum_nanos = body.get("sum_nanos").and_then(Json::as_u64).unwrap_or(0);
            sample.max_nanos = body.get("max_nanos").and_then(Json::as_u64).unwrap_or(0);
            if let Some(Json::Array(buckets)) = body.get("buckets") {
                for (i, b) in buckets.iter().take(BUCKET_COUNT).enumerate() {
                    sample.buckets[i] = b.as_u64().unwrap_or(0);
                }
            }
            samples.push(sample);
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::Metrics;

    fn snapshot() -> Snapshot {
        let metrics = Metrics::enabled();
        metrics.counter("cache.hits").add(600);
        metrics.counter("grid.cells_evaluated").add(42);
        metrics
            .span("grid.eval")
            .record(std::time::Duration::from_millis(250));
        let latency = metrics.histogram("cache.lookup");
        for micros in [2u64, 3, 5, 90] {
            latency.record(std::time::Duration::from_micros(micros));
        }
        metrics.snapshot()
    }

    #[test]
    fn accessors_find_registered_names_only() {
        let s = snapshot();
        assert_eq!(s.counter("cache.hits"), Some(600));
        assert_eq!(s.counter("nope"), None);
        assert!((s.span_seconds("grid.eval").unwrap() - 0.25).abs() < 1e-9);
        assert_eq!(s.span_seconds("nope"), None);
    }

    #[test]
    fn rates_are_finite_and_positive_even_for_zero_time_spans() {
        let metrics = Metrics::enabled();
        metrics.counter("c").add(10);
        metrics.span("s").record(std::time::Duration::ZERO);
        let rate = metrics.snapshot().rate_per_second("c", "s").unwrap();
        assert!(rate.is_finite() && rate > 0.0);
        let s = snapshot();
        let rate = s
            .rate_per_second("grid.cells_evaluated", "grid.eval")
            .unwrap();
        assert!((rate - 42.0 / 0.25).abs() < 1e-6);
        assert_eq!(s.rate_per_second("nope", "grid.eval"), None);
    }

    #[test]
    fn table_lists_every_metric_once() {
        let table = snapshot().render_table();
        assert!(table.starts_with("telemetry:"));
        for name in [
            "cache.hits",
            "grid.cells_evaluated",
            "grid.eval",
            "cache.lookup",
        ] {
            assert_eq!(table.matches(name).count(), 1, "{name} in:\n{table}");
        }
        assert!(Snapshot::default().render_table().contains("no metrics"));
    }

    #[test]
    fn rate_is_finite_at_the_one_nanosecond_clamp_edge_and_for_empty_spans() {
        // A counter paired with a span that accumulated exactly the clamp
        // floor (1ns) must divide by 1e-9, not by zero.
        let metrics = Metrics::enabled();
        metrics.counter("c").add(7);
        metrics.span("s").record(std::time::Duration::from_nanos(1));
        let rate = metrics.snapshot().rate_per_second("c", "s").unwrap();
        assert!(rate.is_finite());
        assert!(
            (rate - 7e9).abs() < 1.0,
            "expected exactly 7 / 1e-9: {rate}"
        );

        // A span registered but never entered (zero entries, zero nanos)
        // still yields a finite rate, even with a zero-valued counter.
        let metrics = Metrics::enabled();
        let _ = metrics.counter("c");
        let _ = metrics.span("s");
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.spans[0].entries, 0);
        let rate = snapshot.rate_per_second("c", "s").unwrap();
        assert!(rate.is_finite() && rate == 0.0);

        // Neither degenerate shape may leak inf/NaN into the JSON document.
        let text = snapshot.to_json();
        assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
        parse(&text).expect("degenerate snapshot still parses");
    }

    #[test]
    fn histograms_round_trip_through_json_and_merge_exactly() {
        let s = snapshot();
        let parsed = parse_histograms(&s.to_json()).expect("snapshot JSON parses");
        assert_eq!(parsed.len(), 1);
        let original = s.histogram("cache.lookup").unwrap();
        assert_eq!(&parsed[0], original);

        // A second process folding the parsed sample doubles every bucket.
        let metrics = Metrics::enabled();
        let h = metrics.histogram("cache.lookup");
        h.merge_sample(&parsed[0]);
        h.merge_sample(&parsed[0]);
        let folded = metrics.snapshot();
        let folded = folded.histogram("cache.lookup").unwrap();
        assert_eq!(folded.count, original.count * 2);
        assert_eq!(folded.max_nanos, original.max_nanos);
        assert_eq!(folded.p99_nanos(), original.p99_nanos());
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let text = snapshot().to_json();
        let doc = parse(&text).expect("snapshot JSON parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(SNAPSHOT_SCHEMA)
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("cache.hits"))
                .and_then(Json::as_u64),
            Some(600)
        );
        let eval = doc.get("spans").and_then(|s| s.get("grid.eval")).unwrap();
        assert_eq!(eval.get("entries").and_then(Json::as_u64), Some(1));
        assert!((eval.get("seconds").and_then(Json::as_f64).unwrap() - 0.25).abs() < 1e-9);
    }
}
