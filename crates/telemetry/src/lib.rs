//! `memstream_telemetry` — zero-dependency, thread-safe instrumentation
//! for the memstream workspace.
//!
//! Every hot-path mechanism (series batching, the binary cache format,
//! the sharded fan-out) needs a number to be accountable to. This crate
//! is that number's substrate: a [`Metrics`] registry of named atomic
//! **counters**, monotonic-timer **span accumulators** and log-bucketed
//! **histograms** ([`Histogram`], p50/p90/p99/max), plus a [`Snapshot`]
//! that serializes the registry to a human-readable table or JSON
//! (hand-rolled writer — the workspace has no registry access, so no
//! serde), and a [`Tracer`] collecting begin/end/instant events into a
//! Chrome/Perfetto-loadable timeline. The metric name catalogue, the
//! trace event schema and the span semantics live in
//! `docs/OBSERVABILITY.md` at the repository root.
//!
//! Design constraints, in order:
//!
//! 1. **Near-free when disabled.** A disabled registry
//!    ([`Metrics::disabled`], the default) hands out no-op handles: a
//!    counter increment is a branch on a `None`, a span guard never calls
//!    the clock. Library defaults stay disabled; only the harness (or a
//!    test) opts in.
//! 2. **No allocation on the hot path.** Handles ([`Counter`],
//!    [`SpanHandle`]) are resolved *once* — a mutex-guarded map lookup —
//!    and then increment lock-free with relaxed atomics. Workers batch
//!    per-cell counts locally and publish once.
//! 3. **Never on stdout.** The workspace's determinism contract is that
//!    `grid`/`refine`/`shard` stdout is byte-identical whatever the
//!    thread count, shard count or cache temperature. Telemetry therefore
//!    renders to strings the caller sends to **stderr or files**, never
//!    to stdout.
//!
//! # Quick start
//!
//! ```
//! use memstream_telemetry::{span, Metrics};
//!
//! let metrics = Metrics::enabled();
//! let cells = metrics.counter("grid.cells_evaluated");
//! {
//!     span!(metrics, "grid.eval"); // RAII: records on scope exit
//!     for _ in 0..600 {
//!         // ... evaluate a cell ...
//!     }
//!     cells.add(600);
//! }
//! let snapshot = metrics.snapshot();
//! assert_eq!(snapshot.counter("grid.cells_evaluated"), Some(600));
//! assert!(snapshot.span_seconds("grid.eval").unwrap() >= 0.0);
//! eprint!("{}", snapshot.render_table()); // stderr, never stdout
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
pub mod json;
mod metrics;
mod snapshot;
mod trace;

pub use histogram::{Histogram, HistogramSample};
pub use metrics::{Counter, Metrics, SpanGuard, SpanHandle};
pub use snapshot::{parse_histograms, CounterSample, Snapshot, SpanSample, SNAPSHOT_SCHEMA};
pub use trace::{TraceEvent, TracePhase, TraceSnapshot, Tracer};

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn public_types_are_send_sync() {
        assert_send_sync::<Metrics>();
        assert_send_sync::<Counter>();
        assert_send_sync::<SpanHandle>();
        assert_send_sync::<Snapshot>();
        assert_send_sync::<Histogram>();
        assert_send_sync::<HistogramSample>();
        assert_send_sync::<Tracer>();
        assert_send_sync::<TraceSnapshot>();
    }
}
