//! Sim-backed validation: replay chosen cells through `memstream_sim` and
//! report model-vs-simulation deltas.
//!
//! Every frontier cell whose device is [`SimBacked`]-capable is simulated
//! — MEMS and flash alike. Cells that cannot be simulated are not
//! silently dropped: each one appears in the validation's skip ledger
//! with an explicit [`SkipReason`], so a missing row is always a visible,
//! attributed gap.

use std::fmt;

use memstream_core::CapabilityModel;
use memstream_sim::{SimConfig, StreamingSimulation};
use memstream_units::Duration;

use crate::exec::GridSummary;
use crate::spec::GridCell;
use crate::store::ParetoPoint;

/// One model-vs-simulation comparison at a planned operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRow {
    /// The validated cell.
    pub cell: GridCell,
    /// Stream rate in kbps.
    pub rate_kbps: f64,
    /// Planned buffer in KiB.
    pub buffer_kib: f64,
    /// Analytic `Em(B)` (device only, no DRAM term) in nJ/b.
    pub model_nj: f64,
    /// Simulated energy per buffered bit in nJ/b.
    pub sim_nj: f64,
    /// Relative error `|sim - model| / model`.
    pub rel_err: f64,
}

/// Why a frontier cell produced no validation row.
#[derive(Debug, Clone, PartialEq)]
pub enum SkipReason {
    /// The device does not expose the `sim` capability at all.
    NotSimBacked {
        /// The device family tag (`"disk"`, ...).
        kind: &'static str,
    },
    /// The analytic side could not price the planned point (no refill
    /// cycle exists there).
    NoAnalyticPoint,
    /// The simulator rejected the configuration.
    SimRejected {
        /// The simulator's error message.
        detail: String,
    },
    /// The simulation ran but completed no refill cycle, so per-buffered-
    /// bit energy is undefined.
    NoCycles,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::NotSimBacked { kind } => {
                write!(f, "device kind `{kind}` is not sim-backed")
            }
            SkipReason::NoAnalyticPoint => {
                write!(f, "no analytic refill cycle at the planned buffer")
            }
            SkipReason::SimRejected { detail } => write!(f, "simulator rejected: {detail}"),
            SkipReason::NoCycles => write!(f, "simulation completed no refill cycle"),
        }
    }
}

/// A frontier cell the validation could not simulate, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationSkip {
    /// The skipped cell.
    pub cell: GridCell,
    /// The registry display name of the cell's device.
    pub device: String,
    /// Why no row was produced.
    pub reason: SkipReason,
}

/// The outcome of validating a frontier: the comparison rows plus an
/// explicit ledger of the cells that could not be simulated, so a missing
/// row is a visible, attributed skip rather than a silent gap.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierValidation {
    /// One row per successfully simulated frontier cell.
    pub rows: Vec<ValidationRow>,
    /// Total frontier cells considered (rows + skips).
    pub frontier_cells: usize,
    /// Cells that produced no row, with their reasons, in canonical cell
    /// order.
    pub skips: Vec<ValidationSkip>,
}

impl FrontierValidation {
    /// Skips whose reason is a missing `sim` capability (as opposed to a
    /// simulator failure).
    #[must_use]
    pub fn capability_skips(&self) -> usize {
        self.skips
            .iter()
            .filter(|s| matches!(s.reason, SkipReason::NotSimBacked { .. }))
            .count()
    }
}

/// Replays every sim-capable cell of the Pareto frontier through the
/// discrete-event simulator for at least `seconds` of simulated playback
/// (extended so that ≥ 50 refill cycles complete) and compares the
/// simulated per-bit energy with the analytic Eq. (1). Cells that cannot
/// be simulated are recorded in [`FrontierValidation::skips`] with their
/// reason.
///
/// The analytic side drops the DRAM term to match what the simulator
/// meters, mirroring the V1 cross-check experiment.
#[must_use]
pub fn validate_frontier(results: &GridSummary, seconds: f64) -> FrontierValidation {
    let grid = results.grid();
    let mut rows = Vec::new();
    let mut skips = Vec::new();
    let mut frontier_cells = 0usize;
    for point in results.pareto_frontier() {
        frontier_cells += 1;
        let entry = &grid.devices()[point.cell.device];
        match validate_point(results, point, seconds) {
            Ok(row) => rows.push(row),
            Err(reason) => skips.push(ValidationSkip {
                cell: point.cell,
                device: entry.name().to_owned(),
                reason,
            }),
        }
    }
    FrontierValidation {
        rows,
        frontier_cells,
        skips,
    }
}

fn validate_point(
    results: &GridSummary,
    point: &ParetoPoint,
    seconds: f64,
) -> Result<ValidationRow, SkipReason> {
    let grid = results.grid();
    let cell = point.cell;
    let device = grid.devices()[cell.device].device();
    let Some(sim_device) = device.sim() else {
        return Err(SkipReason::NotSimBacked {
            kind: device.kind(),
        });
    };
    let rate = grid.rates()[cell.rate];
    let workload = grid.workloads()[cell.workload].workload().with_rate(rate);
    let buffer = point.point.buffer;

    // Device-only analytic energy (no DRAM), via the same capability path
    // the evaluation used.
    let model = CapabilityModel::new(device, workload, None, grid.best_effort_policy())
        .expect("frontier cells ran the full pipeline");
    let model_nj = model
        .per_bit_energy(buffer)
        .map_err(|_| SkipReason::NoAnalyticPoint)?
        .nanojoules_per_bit();

    // Guard malformed third-party SimBacked impls: SimConfig::cbr panics
    // on a zero stripe width, and a panic here would abort the whole run
    // instead of filling one ledger entry.
    if sim_device.stripe_width() == 0 {
        return Err(SkipReason::SimRejected {
            detail: "device reports a zero stripe width".to_owned(),
        });
    }

    let period_s = buffer.bits() / rate.bits_per_second();
    let horizon = Duration::from_seconds(seconds.max(50.0 * period_s));
    let report = StreamingSimulation::new(SimConfig::cbr(sim_device.clone_sim(), workload, buffer))
        .map_err(|e| SkipReason::SimRejected {
            detail: e.to_string(),
        })?
        .run(horizon);
    let sim_nj = report
        .per_buffered_bit_nanojoules(buffer)
        .ok_or(SkipReason::NoCycles)?;

    Ok(ValidationRow {
        cell,
        rate_kbps: rate.kilobits_per_second(),
        buffer_kib: buffer.kibibytes(),
        model_nj,
        sim_nj,
        rel_err: (sim_nj - model_nj).abs() / model_nj,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::GridExecutor;
    use crate::spec::ScenarioGrid;

    #[test]
    fn frontier_validation_accounts_for_every_cell() {
        let results = GridExecutor::parallel(2)
            .explore(&ScenarioGrid::paper_baseline(6))
            .unwrap();
        let validation = validate_frontier(&results, 30.0);
        assert!(
            !validation.rows.is_empty(),
            "frontier has sim-backed cells to validate"
        );
        assert_eq!(
            validation.rows.len() + validation.skips.len(),
            validation.frontier_cells,
            "every frontier cell is accounted for"
        );
        for row in &validation.rows {
            assert!(
                row.rel_err < 0.2,
                "cell {} diverges: model {} nJ/b vs sim {} nJ/b",
                row.cell.index,
                row.model_nj,
                row.sim_nj
            );
        }
    }

    #[test]
    fn flash_frontier_cells_are_simulated_not_skipped() {
        let results = GridExecutor::parallel(2)
            .explore(&ScenarioGrid::paper_baseline(6))
            .unwrap();
        let grid = results.grid();
        let flash_on_frontier: Vec<_> = results
            .pareto_frontier()
            .iter()
            .filter(|p| grid.devices()[p.cell.device].device().kind() == "flash")
            .collect();
        assert!(
            !flash_on_frontier.is_empty(),
            "flash appears on the default grid's frontier"
        );
        let validation = validate_frontier(&results, 30.0);
        for p in flash_on_frontier {
            let validated = validation.rows.iter().any(|r| r.cell == p.cell);
            let skipped = validation
                .skips
                .iter()
                .any(|s| s.cell == p.cell && !matches!(s.reason, SkipReason::NotSimBacked { .. }));
            assert!(
                validated || skipped,
                "flash cell {} neither validated nor sim-skipped",
                p.cell.index
            );
        }
    }

    #[test]
    fn skip_reasons_render_for_reports() {
        assert_eq!(
            SkipReason::NotSimBacked { kind: "disk" }.to_string(),
            "device kind `disk` is not sim-backed"
        );
        assert!(SkipReason::NoCycles.to_string().contains("no refill cycle"));
    }
}
