//! `memstream_refine` — adaptive frontier-knee refinement over the
//! scenario grid.
//!
//! The paper's central artifact is the set of **design-region
//! transitions** along the bit-rate axis: the Fig. 3 knees where the
//! binding constraint flips (`C→E` at the capacity/energy crossover,
//! `Lsp→X` at the probes cliff, flash's `E→Lpe`, ...). A uniform
//! log-spaced rate axis either misses a knee entirely or wastes cells
//! bracketing it to its grid spacing. This crate turns the grid into a
//! control loop that *localises* every detected knee:
//!
//! 1. **Explore** the grid ([`memstream_grid::GridExecutor::explore`];
//!    with a [`memstream_grid::ResultCache`],
//!    [`memstream_grid::GridExecutor::explore_cached`], which makes every
//!    round after the first evaluate only its appended rates);
//! 2. **Scan** each (device, workload, goal) series for region-label
//!    changes between adjacent rate samples
//!    ([`memstream_grid::CellOutcome::region`]);
//! 3. **Bisect** each flipped interval at its log-rate midpoint by
//!    appending rates to the grid
//!    ([`memstream_grid::ScenarioGrid::with_rate_axis`] preserves dedup
//!    keys, so with a cache the old cells are pure hits);
//! 4. **Loop** until every transition is bracketed by an interval no
//!    wider than the configured relative width, or a round/cell budget
//!    runs out.
//!
//! Everything inherits the grid's determinism contract: for a fixed
//! input grid and configuration the refinement trajectory — and every
//! report byte rendered from it — is identical for any thread count,
//! and identical again when re-run against a warm [`memstream_grid::ResultCache`]
//! (the warm run evaluating **nothing**).
//!
//! # Quick start
//!
//! ```
//! use memstream_grid::{GridExecutor, ScenarioGrid};
//! use memstream_refine::{RefineConfig, RefinementEngine};
//!
//! # fn main() -> Result<(), memstream_grid::GridError> {
//! let grid = ScenarioGrid::paper_baseline(8);
//! let engine = RefinementEngine::new(
//!     GridExecutor::parallel(4),
//!     RefineConfig::default().with_width_bound(0.05),
//! );
//! let outcome = engine.refine(&grid, None)?;
//! assert!(outcome.report.fully_localized());
//! for knee in &outcome.report.knees {
//!     println!(
//!         "{} / {} / {}: {} -> {} in [{:.1}, {:.1}] kbps",
//!         knee.device_name, knee.workload_name, knee.goal_label,
//!         knee.from, knee.to,
//!         knee.lower.kilobits_per_second(), knee.upper.kilobits_per_second(),
//!     );
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
pub mod report;
mod scan;

pub use config::RefineConfig;
pub use engine::{
    Knee, RefinementEngine, RefinementOutcome, RefinementReport, RoundExploration, RoundExplorer,
    RoundRecord,
};
pub use scan::{scan_transitions, Transition};

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn public_types_are_send_sync() {
        assert_send_sync::<RefineConfig>();
        assert_send_sync::<RefinementEngine>();
        assert_send_sync::<RefinementOutcome>();
        assert_send_sync::<RefinementReport>();
        assert_send_sync::<RoundRecord>();
        assert_send_sync::<Knee>();
        assert_send_sync::<Transition>();
    }
}
