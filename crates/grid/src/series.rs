//! Series-batched evaluation: the executor's hot path.
//!
//! [`crate::eval::evaluate`] rebuilds the capability model — device
//! validation, DRAM model, capability discovery — for every cell, even
//! though only the *rate* axis varies within a `(device, workload, goal)`
//! group. [`plan_series`] groups the cells to evaluate by those three
//! axes; [`evaluate_series`] then constructs the model **once per series**
//! and sweeps the rates against the reused device intermediates, building
//! a single [`BufferDimensioner`](memstream_core::BufferDimensioner) per
//! rate instead of one model stack per metric. The goal's capacity solve
//! depends on no rate, so it runs once per series
//! ([`BufferDimensioner::capacity_minimum`](memstream_core::BufferDimensioner::capacity_minimum))
//! and every rate plans against its result.
//!
//! Every device takes the same path, whatever its concrete type: the
//! series model reads the device's energy numbers once
//! ([`EnergyProfile`](memstream_core::EnergyProfile)), so the per-rate
//! arithmetic makes no call into the device. The executor's
//! `parallel_matches_serial_exactly` plus this module's equivalence tests
//! pin the outputs to [`crate::eval::evaluate`] bit for bit.

use memstream_core::{CapabilityModel, DesignGoal, EnergyModel, ModelError};
use memstream_device::{DramModel, EnergyModelled, StorageDevice};
use memstream_units::BitRate;
use memstream_workload::Workload;

use crate::eval::{CellOutcome, EnergyOnlyPoint, PlannedPoint};
use crate::spec::{GridCell, ScenarioGrid};

/// One rate-axis series: every cell to evaluate that shares a
/// `(device, workload, goal)` axis triple, in arrival order.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    device: usize,
    workload: usize,
    goal: usize,
    /// `(canonical cell index, rate axis index)` of each member.
    cells: Vec<(usize, usize)>,
}

impl Series {
    /// Number of cells this series evaluates.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }
}

/// Groups `cells` (any cells of one grid, in canonical order) into
/// rate-axis series, one per `(device, workload, goal)` triple.
pub(crate) fn plan_series(cells: impl IntoIterator<Item = GridCell>) -> Vec<Series> {
    let mut series: Vec<Series> = Vec::new();
    let mut last: Option<usize> = None;
    for cell in cells {
        // Cells arrive sorted by (device, workload, rate, goal); a series
        // keyed on (device, workload, goal) is contiguous only when the
        // goal axis has one entry, so fall back to a linear probe over
        // the (short) tail of open series.
        let matches = |s: &Series| {
            s.device == cell.device && s.workload == cell.workload && s.goal == cell.goal
        };
        let slot = match last {
            Some(i) if matches(&series[i]) => Some(i),
            _ => series.iter().rposition(matches),
        };
        let slot = match slot {
            Some(i) => i,
            None => {
                series.push(Series {
                    device: cell.device,
                    workload: cell.workload,
                    goal: cell.goal,
                    cells: Vec::new(),
                });
                series.len() - 1
            }
        };
        series[slot].cells.push((cell.index, cell.rate));
        last = Some(slot);
    }
    series
}

/// The per-series model, built once and swept over rates.
enum SeriesModel<'a> {
    /// The device exposes every capability the full pipeline needs.
    Full(CapabilityModel<'a>),
    /// The device only exposes energy (the classic 1.8″ disk mask).
    EnergyOnly(&'a dyn EnergyModelled),
    /// No usable capability; the (rate-independent) error.
    Unmodelled(ModelError),
}

/// Builds the series model for `device`. The capability checks and errors
/// are those of [`crate::eval::evaluate`], so the fallback classification
/// matches it exactly.
fn build_model<'a>(
    grid: &'a ScenarioGrid,
    device: &'a dyn StorageDevice,
    workload: Workload,
    dram: Option<DramModel>,
) -> SeriesModel<'a> {
    match CapabilityModel::new(device, workload, dram, grid.best_effort_policy()) {
        Ok(model) => SeriesModel::Full(model),
        Err(err) => degraded(device, &err),
    }
}

/// The fallback classification of [`crate::eval::evaluate`]: genuinely
/// missing capabilities demote to the energy-only path when the device
/// speaks energy at all; anything else (including malformed capability
/// payloads) stays visible as unmodelled.
fn degraded<'a>(device: &'a dyn StorageDevice, err: &ModelError) -> SeriesModel<'a> {
    match err {
        ModelError::MissingCapability { .. } => match device.energy() {
            Some(energy_device) => SeriesModel::EnergyOnly(energy_device),
            None => SeriesModel::Unmodelled(err.clone()),
        },
        invalid => SeriesModel::Unmodelled(invalid.clone()),
    }
}

/// Every full-pipeline cell of a series: the goal's capacity minimum is
/// solved once, then one dimensioner per rate plans against it and serves
/// every metric of the planned point.
fn eval_full(
    model: &CapabilityModel<'_>,
    goal: &DesignGoal,
    rates: impl Iterator<Item = BitRate>,
) -> Vec<CellOutcome> {
    let capacity = model.dimensioner().capacity_minimum(goal);
    rates
        .map(|rate| {
            let at_rate = model.with_rate(rate);
            let dim = at_rate.dimensioner();
            match dim.plan(goal, &capacity) {
                Ok(plan) => {
                    let b = plan.buffer();
                    CellOutcome::Feasible(PlannedPoint {
                        buffer: b,
                        dominant: plan.dominant().label(),
                        saving: dim.energy().saving(b).ok(),
                        utilization: dim.capacity().utilization(b),
                        lifetime: dim.lifetime().device_lifetime(b),
                        energy_per_bit: dim.energy().per_bit_energy(b).ok(),
                    })
                }
                Err(err) => CellOutcome::Infeasible(err),
            }
        })
        .collect()
}

/// Evaluates every cell of `series`, returning `(cell index, outcome)`
/// pairs in member order. Bit-identical to calling
/// [`crate::eval::evaluate`] on each member.
pub(crate) fn evaluate_series(grid: &ScenarioGrid, series: &Series) -> Vec<(usize, CellOutcome)> {
    let device = grid.devices()[series.device].device();
    let goal = &grid.goals()[series.goal];
    let base = grid.workloads()[series.workload].workload();
    let rates = grid.rates();
    let dram = grid.dram_enabled().then(DramModel::micron_ddr_mobile);

    // The model validates against the first member's rate — capability
    // discovery and validation are rate-independent, so any member works;
    // sweeping then re-rates the shared model per cell.
    let first_rate = rates[series.cells[0].1];
    let model = build_model(grid, device, base.with_rate(first_rate), dram);
    let member_rates = series.cells.iter().map(|&(_, rate_idx)| rates[rate_idx]);

    let outcomes = match &model {
        SeriesModel::Full(m) => eval_full(m, goal, member_rates),
        SeriesModel::EnergyOnly(energy_device) => member_rates
            .map(|rate| {
                let energy = EnergyModel::new(
                    *energy_device,
                    base.with_rate(rate),
                    grid.best_effort_policy(),
                    None,
                );
                let buffer_for_saving = goal
                    .energy_saving_target()
                    .and_then(|e| energy.min_buffer_for_saving(e).ok());
                CellOutcome::EnergyOnly(EnergyOnlyPoint {
                    break_even: energy.break_even_buffer().ok(),
                    buffer_for_saving,
                    saving: buffer_for_saving.and_then(|b| energy.saving(b).ok()),
                })
            })
            .collect(),
        SeriesModel::Unmodelled(err) => member_rates
            .map(|_| CellOutcome::Unmodelled(err.clone()))
            .collect(),
    };
    series
        .cells
        .iter()
        .map(|&(index, _)| index)
        .zip(outcomes)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::spec::{DeviceEntry, ScenarioGrid, WorkloadProfile};
    use memstream_device::{EnergyOnly, MemsDevice};

    /// Runs the series path over a grid's cells and asserts every
    /// outcome equals the reference per-cell evaluator, bitwise.
    fn assert_series_matches_reference(grid: &ScenarioGrid) {
        let series = plan_series(grid.cells());
        let members: usize = series.iter().map(Series::len).sum();
        assert_eq!(members, grid.len(), "series partition the cells");
        let mut seen = vec![false; grid.len()];
        for s in &series {
            for (index, outcome) in evaluate_series(grid, s) {
                assert!(!seen[index], "cell {index} evaluated twice");
                seen[index] = true;
                let cell = grid.cell(index);
                assert_eq!(
                    outcome,
                    evaluate(grid, &cell),
                    "series outcome diverges at cell {index} ({cell:?})"
                );
            }
        }
        assert!(seen.iter().all(|&s| s), "series cover the cells");
    }

    #[test]
    fn baseline_series_match_per_cell_evaluation() {
        assert_series_matches_reference(&ScenarioGrid::paper_baseline(9));
    }

    #[test]
    fn classic_series_match_per_cell_evaluation() {
        // Exercises the energy-only (masked disk) series path.
        assert_series_matches_reference(&ScenarioGrid::paper_classic(7));
    }

    #[test]
    fn dramless_series_match_per_cell_evaluation() {
        assert_series_matches_reference(&ScenarioGrid::paper_baseline(6).without_dram());
    }

    #[test]
    fn masked_devices_take_the_energy_only_path() {
        // An `EnergyOnly`-wrapped MEMS device lacks the wear and
        // utilisation capabilities; it must land on the energy-only
        // series exactly as the per-cell evaluator classifies it.
        let grid = ScenarioGrid::new()
            .device(DeviceEntry::new(
                "masked",
                EnergyOnly::new(MemsDevice::table1()),
            ))
            .workload(WorkloadProfile::paper())
            .rate_span(64.0, 2048.0, 6)
            .goal(memstream_core::DesignGoal::fig3b());
        assert_series_matches_reference(&grid);
    }

    #[test]
    fn sawtooth_bump_matches_a_re_solving_reference() {
        // The bump walks on from a buffer that already covers its
        // target's minimum instead of solving that target again. A
        // reference that re-solves the target, max(C, probes-implied u),
        // and walks from the plan's own requirements and cycle floor must
        // land on the same buffer for every feasible MEMS cell. The
        // 4000-rate axis adds the default grid's one cell whose buffer
        // only the probes-implied target sets (table1, paper, 2895 kbps,
        // fig. 3b).
        use memstream_media::{
            min_user_bits_for_utilization, min_user_bits_for_utilization_at_least,
        };
        use memstream_units::DataSize;

        let (mut checked, mut bumped, mut probes_target, mut set_by_probes) = (0, 0, 0, 0);
        for grid in [400, 4000].map(ScenarioGrid::paper_baseline) {
            let dram = grid.dram_enabled().then(DramModel::micron_ddr_mobile);
            for cell in grid.cells() {
                let device = grid.devices()[cell.device].device();
                if device.kind() != "mems" {
                    continue;
                }
                let goal = &grid.goals()[cell.goal];
                let workload = grid.workloads()[cell.workload]
                    .workload()
                    .with_rate(grid.rates()[cell.rate]);
                let policy = grid.best_effort_policy();
                let model = CapabilityModel::new(device, workload, dram.clone(), policy).unwrap();
                let dim = model.dimensioner();
                let Ok(plan) = dim.dimension(goal) else {
                    continue;
                };
                let format = dim.capacity().format().expect("MEMS capacity has a format");
                let capacity = goal.capacity_target().expect("paper goals set C");
                let probes = goal
                    .lifetime_target()
                    .and_then(|l| dim.lifetime().required_utilization_for_probes(l).unwrap());
                let target = probes.map_or(capacity, |u| capacity.max(u));
                let start = plan
                    .requirements()
                    .iter()
                    .fold(plan.cycle_floor(), |b, &(_, r)| b.max(r));
                let start_bits = start.bits().ceil() as u64;
                let walk = |target| {
                    let minimum = min_user_bits_for_utilization(format, target).unwrap();
                    min_user_bits_for_utilization_at_least(format, target, minimum.max(start_bits))
                        .unwrap()
                };
                let reference = walk(target);
                assert_eq!(
                    plan.buffer(),
                    DataSize::from_bit_count(reference),
                    "cell {} of {} rates",
                    cell.index,
                    grid.rates().len()
                );
                checked += 1;
                bumped += usize::from(reference != start_bits);
                if target > capacity {
                    probes_target += 1;
                    set_by_probes += usize::from(walk(capacity) != reference);
                }
            }
        }
        assert!(checked > 60_000, "{checked} feasible MEMS cells");
        // Skipping the bump, or bumping to C alone, fails on these.
        assert!(
            bumped > 0 && set_by_probes > 0,
            "{bumped} bumped, {set_by_probes}"
        );
        assert!(probes_target > set_by_probes);
    }

    #[test]
    fn series_grouping_reuses_models_across_rates() {
        // paper_baseline: 5 devices × 3 workloads × R rates × 2 goals.
        // Series count must not scale with the rate axis.
        let grid = ScenarioGrid::paper_baseline(11);
        let series = plan_series(grid.cells());
        assert!(
            series.len() * 4 <= grid.len(),
            "expected ≥4 cells per series on average: {} series / {} cells",
            series.len(),
            grid.len()
        );
        for s in &series {
            assert!(s.len() > 1, "rate axis collapsed to a singleton series");
        }
    }
}
