//! `memstream_grid` — a deterministic, multi-threaded design-space
//! exploration engine over the analytic models of `memstream_core`.
//!
//! The paper (Khatib & Abelmann, DATE 2011) explores one device, one
//! workload and one goal at a time; Fig. 2 and Fig. 3 are slices of a much
//! larger design space. This crate explores the full **cartesian product**
//!
//! ```text
//! device registry (MEMS, disk, flash, ...) × workload mixes × rates × goals
//! ```
//!
//! The device axis is an open registry of boxed
//! [`memstream_device::StorageDevice`]s: evaluation dispatches on the
//! capabilities each device exposes (full pipeline, energy-only, ...), so
//! adding a device touches no grid code. Exploration runs in parallel,
//! with three guarantees the rest of the workspace builds on:
//!
//! 1. **Determinism** — cells have a fixed canonical order (device
//!    outermost, goal innermost), evaluation is pure and results are kept
//!    in series order, so an `N`-thread run produces *byte-identical*
//!    output to the serial run.
//! 2. **Distinct cells** — every cell is its own scenario, evaluated
//!    once: an axis that repeats an entry (the same device parameters,
//!    workload shape, rate or goal under another name) is rejected with
//!    [`GridError::DuplicateAxisEntry`] instead of being shared.
//! 3. **Aggregation** — outcomes fold into a Pareto frontier over
//!    (energy saving, capacity utilisation, device lifetime), the
//!    three non-functional properties of the paper. Each worker sweeps
//!    the series it ran, cache hits included, to that series' frontier
//!    ([`non_dominated`]), and one final sweep over those fronts gives
//!    the grid's frontier.
//!
//! An optional sim-backed validation mode replays chosen cells through
//! `memstream_sim` and reports model-vs-simulation deltas.
//!
//! # Quick start
//!
//! ```
//! use memstream_grid::{GridExecutor, ScenarioGrid};
//!
//! # fn main() -> Result<(), memstream_grid::GridError> {
//! let grid = ScenarioGrid::paper_baseline(12);
//! let serial = GridExecutor::serial().explore(&grid)?;
//! let parallel = GridExecutor::parallel(4).explore(&grid)?;
//! assert_eq!(
//!     memstream_grid::report::frontier_csv(&serial),
//!     memstream_grid::report::frontier_csv(&parallel),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod eval;
mod exec;
mod key;
pub mod report;
mod series;
mod spec;
mod store;
mod validate;
mod view;

pub use cache::{
    decode_frame, encode_frame, CacheConflict, CacheFileError, CacheFormat, MergeStats,
    RecordBatch, ResultCache,
};
pub use view::CacheView;
// The instrumentation layer, re-exported so downstream crates (refine,
// shard, the harness) can thread one `Metrics` registry through an
// executor without naming the telemetry crate themselves.
pub use eval::{CellOutcome, EnergyOnlyPoint, OutcomeCounts, PlannedPoint};
pub use exec::{GridExecutor, GridResults};
pub use key::KeyInterner;
pub use memstream_telemetry as telemetry;
pub use memstream_telemetry::Metrics;
pub use spec::{DeviceEntry, GridCell, GridError, ScenarioGrid, WorkloadProfile};
pub use store::{non_dominated, ParetoPoint};
pub use validate::{
    validate_frontier, FrontierValidation, SkipReason, ValidationRow, ValidationSkip,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn public_types_are_send_sync() {
        assert_send_sync::<ScenarioGrid>();
        assert_send_sync::<GridCell>();
        assert_send_sync::<CellOutcome>();
        assert_send_sync::<GridResults>();
        assert_send_sync::<GridError>();
        assert_send_sync::<ParetoPoint>();
    }
}
