//! Series evaluation: the executor's unit of work.
//!
//! [`crate::eval::evaluate`] rebuilds the capability model — device
//! validation, DRAM model, capability discovery — for every cell, even
//! though only the rate and goal axes vary within a `(device, workload)`
//! *block*: the `rates × goals` cells that share one capability model.
//! In canonical order a block is contiguous, so [`plan`] cuts any
//! canonical cell range into *series*, one run of one block each, with
//! arithmetic alone.
//!
//! [`evaluate_series`] runs one series on a worker thread, one rate row
//! at a time. It looks each cell up in the cache, if there is one, and
//! evaluates the misses, encoding each miss's cache record into the
//! series' own batch, which it puts in key order before it returns. The
//! lookups go through the series' own cursor:
//! each index search starts just after the series' last hit, and the hits,
//! misses, probes, decodes and sampled lookup latencies are tallied in
//! the cursor, which the run hands back for the executor to publish —
//! the worker writes no shared telemetry per lookup. The series model is
//! built at the first miss and serves every later one. Validation and
//! each goal's capacity solve depend on no rate, so they run once per
//! series
//! ([`BufferDimensioner::capacity_minimum`](memstream_core::BufferDimensioner::capacity_minimum)).
//! Each rate row is planned once: one
//! [`BufferDimensioner`](memstream_core::BufferDimensioner) per rate
//! measures the [`WearDemands`] of each distinct lifetime target among
//! the goals once, in storage the series reuses from row to row, and
//! plans every goal missed at that rate on them with
//! [`plan_buffer`](memstream_core::BufferDimensioner::plan_buffer),
//! which collects nothing: the series allocates nothing per cell. A goal
//! that plans the same buffer as the row's last planned goal takes that
//! goal's energy, saving, utilisation and lifetime. The series counts its
//! outcomes by kind and sweeps them to its own Pareto front, whose
//! members carry their planned points; it keeps the outcomes themselves,
//! in canonical order, only for an exploration that returns every cell's
//! outcome. A feasible outcome that the series' last kept candidate
//! dominates never enters that front's sweep.
//!
//! Every device takes the same path, whatever its concrete type: the
//! series model reads the device once (its energy profile, wear channels
//! and utilisation law) and builds each rate's dimensioner from those
//! parts
//! ([`CapabilityModel::dimensioner_at`](memstream_core::CapabilityModel::dimensioner_at)),
//! so the per-rate arithmetic makes no call into the device. The executor's
//! `parallel_matches_serial_exactly` plus this module's equivalence tests
//! pin the outputs to [`crate::eval::evaluate`] bit for bit.

use std::ops::Range;

use memstream_core::{CapabilityModel, DesignGoal, EnergyModel, ModelError, WearDemands};
use memstream_device::{DramModel, EnergyModelled, StorageDevice};
use memstream_units::{BitRate, DataSize};
use memstream_workload::Workload;

use crate::cache::{LookupCursor, RecordBatch, ResultCache};
use crate::eval::{CellOutcome, EnergyOnlyPoint, OutcomeCounts, PlannedPoint};
use crate::key::{BlockKeyOrder, KeyInterner};
use crate::spec::{GridCell, ScenarioGrid};
use crate::store::{front, strictly_dominates, Candidate};

/// Cuts the canonical cell range `cells` of `grid` into series, in
/// canonical order: a series ends where `cells` or its
/// `(device, workload)` block does.
pub(crate) fn plan(grid: &ScenarioGrid, cells: Range<usize>) -> Vec<Range<usize>> {
    cut(cells, grid.rates().len() * grid.goals().len()).collect()
}

/// Cuts `cells` at every multiple of `unit` inside it.
fn cut(cells: Range<usize>, unit: usize) -> impl Iterator<Item = Range<usize>> {
    let mut start = cells.start;
    std::iter::from_fn(move || {
        (start < cells.end).then(|| {
            let run = start..cells.end.min((start / unit + 1) * unit);
            start = run.end;
            run
        })
    })
}

/// What one series produced.
pub(crate) struct SeriesRun {
    /// One outcome per cell of the series, in canonical order, when the
    /// run kept them; empty otherwise.
    pub(crate) outcomes: Vec<CellOutcome>,
    /// How many outcomes of each kind the series produced.
    pub(crate) counts: OutcomeCounts,
    /// The series' own Pareto front: its non-dominated feasible outcomes,
    /// cache hits included, each measurable on the energy axis.
    pub(crate) front: Vec<Candidate>,
    /// The records of the cells the cache missed, encoded on the worker
    /// and sorted by key; empty without a cache.
    pub(crate) records: RecordBatch,
    /// Cells evaluated: the misses, or every cell without a cache. The
    /// series built its model exactly when this is not zero.
    pub(crate) evaluated: usize,
    /// The series' lookups, unpublished; untouched without a cache.
    pub(crate) lookups: LookupCursor,
}

/// The per-series model, built once and swept over rates.
enum SeriesModel<'a> {
    /// The device exposes every capability the full pipeline needs.
    Full(Box<FullSeries>),
    /// The device only exposes energy (the classic 1.8″ disk mask).
    EnergyOnly(&'a dyn EnergyModelled),
    /// No usable capability; the (rate-independent) error.
    Unmodelled(ModelError),
}

/// A full-pipeline series: the model, and what each goal of the grid
/// keeps from one rate to the next.
struct FullSeries {
    model: CapabilityModel,
    /// Each goal's capacity minimum, which depends on no rate.
    capacities: Vec<Result<Option<DataSize>, ModelError>>,
    /// For each goal with a lifetime target, the index of that target's
    /// entry in `wear`.
    targets: Vec<Option<usize>>,
    /// One entry per distinct lifetime target among the goals, measured
    /// again at every rate row.
    wear: Vec<WearDemands>,
}

/// Builds the series model for `device`, solving every goal's capacity
/// minimum once. The capability checks and errors are those of
/// [`crate::eval::evaluate`], so the fallback classification matches it
/// exactly.
fn build_model<'a>(
    grid: &'a ScenarioGrid,
    device: &'a dyn StorageDevice,
    workload: Workload,
) -> SeriesModel<'a> {
    let dram = grid.dram_enabled().then(DramModel::micron_ddr_mobile);
    match CapabilityModel::new(device, workload, dram, grid.best_effort_policy()) {
        Ok(model) => {
            let dim = model.dimensioner();
            let mut wear: Vec<WearDemands> = Vec::new();
            let targets = grid
                .goals()
                .iter()
                .map(|goal| {
                    let target = goal.lifetime_target()?;
                    let same =
                        |d: &WearDemands| d.target().get().to_bits() == target.get().to_bits();
                    Some(wear.iter().position(same).unwrap_or_else(|| {
                        wear.push(dim.lifetime().demands(target));
                        wear.len() - 1
                    }))
                })
                .collect();
            let capacities = grid
                .goals()
                .iter()
                .map(|goal| dim.capacity_minimum(goal))
                .collect();
            SeriesModel::Full(Box::new(FullSeries {
                capacities,
                targets,
                wear,
                model,
            }))
        }
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

impl SeriesModel<'_> {
    /// Evaluates the empty slots of `row`, the cells at `rate` whose goals
    /// start at `grid.goals()[first_goal]`: one dimensioner (or energy
    /// model) serves them all. A full-pipeline row measures each lifetime
    /// target's wear demands once, for every goal with that target, and a
    /// goal that plans the buffer of the row's last planned goal takes
    /// that goal's metrics.
    fn fill_row(
        &mut self,
        grid: &ScenarioGrid,
        workload: &Workload,
        rate: BitRate,
        first_goal: usize,
        row: &mut [Option<CellOutcome>],
    ) {
        let goals = &grid.goals()[first_goal..];
        match self {
            SeriesModel::Full(series) => {
                let dim = series.model.dimensioner_at(rate);
                for demands in &mut series.wear {
                    dim.lifetime().measure(demands);
                }
                let mut last: Option<PlannedPoint> = None;
                fill(row, |k| {
                    let goal = first_goal + k;
                    let wear = series.targets[goal].map(|t| &series.wear[t]);
                    match dim.plan_buffer(&goals[k], &series.capacities[goal], wear) {
                        Ok((b, dominant)) => {
                            let point = match last.take() {
                                Some(point)
                                    if point.buffer.bits().to_bits() == b.bits().to_bits() =>
                                {
                                    PlannedPoint {
                                        dominant: dominant.label(),
                                        ..point
                                    }
                                }
                                _ => {
                                    let energy_per_bit = dim.energy().per_bit_energy(b).ok();
                                    PlannedPoint {
                                        buffer: b,
                                        dominant: dominant.label(),
                                        saving: energy_per_bit.map(|e| dim.energy().saving_of(e)),
                                        utilization: dim.capacity().utilization(b),
                                        lifetime: dim.lifetime().device_lifetime(b),
                                        energy_per_bit,
                                    }
                                }
                            };
                            last = Some(point.clone());
                            CellOutcome::Feasible(point)
                        }
                        Err(err) => CellOutcome::Infeasible(err),
                    }
                });
            }
            SeriesModel::EnergyOnly(device) => {
                let energy = EnergyModel::new(
                    *device,
                    workload.with_rate(rate),
                    grid.best_effort_policy(),
                    None,
                );
                fill(row, |k| energy_only(&energy, &goals[k]));
            }
            SeriesModel::Unmodelled(err) => fill(row, |_| CellOutcome::Unmodelled(err.clone())),
        }
    }
}

/// Fills each empty slot of `row` with `eval` of its offset.
fn fill(row: &mut [Option<CellOutcome>], mut eval: impl FnMut(usize) -> CellOutcome) {
    for (k, slot) in row.iter_mut().enumerate() {
        if slot.is_none() {
            *slot = Some(eval(k));
        }
    }
}

/// The energy-only outcome of `goal` under `energy`.
fn energy_only(energy: &EnergyModel<'_>, goal: &DesignGoal) -> CellOutcome {
    let buffer_for_saving = goal
        .energy_saving_target()
        .and_then(|e| energy.min_buffer_for_saving(e).ok());
    CellOutcome::EnergyOnly(EnergyOnlyPoint {
        break_even: energy.break_even_buffer().ok(),
        buffer_for_saving,
        saving: buffer_for_saving.and_then(|b| energy.saving(b).ok()),
    })
}

/// Runs `series`, one canonical run of one block of `grid` (see
/// [`plan`]): looks each cell up in `cache` under its `interner` key,
/// through the series' own [`LookupCursor`], evaluates the misses, counts
/// the outcomes by kind, and sweeps them to the series' front, skipping
/// each candidate the last kept one strictly dominates. Each outcome is
/// bit-identical to [`crate::eval::evaluate`] of its cell (or to the
/// cached one), and the run keeps them only when `table` asks for them.
/// With a cache, each miss's record is encoded into the series' own
/// [`RecordBatch`], which `order` puts in key order before the run
/// returns; the lookups' tallies come back unpublished in the run.
pub(crate) fn evaluate_series(
    grid: &ScenarioGrid,
    cached: Option<(&ResultCache, &KeyInterner, &BlockKeyOrder)>,
    series: Range<usize>,
    table: bool,
) -> SeriesRun {
    let goals = grid.goals().len();
    let mut run = SeriesRun {
        outcomes: Vec::with_capacity(if table { series.len() } else { 0 }),
        counts: OutcomeCounts::default(),
        front: Vec::new(),
        records: RecordBatch::new(),
        evaluated: 0,
        lookups: LookupCursor::default(),
    };
    let mut model = None;
    let mut candidates = Vec::new();
    // One rate row at a time: its hits, and `None` for each miss until
    // the row's one dimensioner evaluates it; with a cache, each cell's
    // key and whether it missed.
    let mut row: Vec<Option<CellOutcome>> = Vec::with_capacity(goals);
    let mut keys = vec![String::new(); goals];
    let mut missed: Vec<bool> = Vec::with_capacity(goals);
    // With a cache: the batch index of each cell's record, if it missed.
    let mut pushed = vec![usize::MAX; if cached.is_some() { series.len() } else { 0 }];
    for cells in cut(series.clone(), goals) {
        let first = grid.cell(cells.start);
        for ((index, goal), key) in cells.clone().zip(first.goal..).zip(keys.iter_mut()) {
            let cell = GridCell {
                index,
                goal,
                ..first
            };
            let hit = cached.and_then(|(cache, interner, _)| {
                interner.resolve_into(&cell, key);
                cache.lookup(key, &mut run.lookups)
            });
            if hit.is_none() {
                if run.evaluated == 0 && cached.is_some() {
                    run.records.reserve(series.end - index, key.len());
                }
                run.evaluated += 1;
            }
            missed.push(hit.is_none());
            row.push(hit);
        }
        if row.iter().any(Option::is_none) {
            let rate = grid.rates()[first.rate];
            let workload = grid.workloads()[first.workload].workload();
            let device = grid.devices()[first.device].device();
            model
                .get_or_insert_with(|| build_model(grid, device, workload.with_rate(rate)))
                .fill_row(grid, workload, rate, first.goal, &mut row);
        }
        for (k, (index, outcome)) in cells.zip(row.drain(..)).enumerate() {
            let outcome = outcome.expect("every miss of the row was evaluated");
            if missed[k] && cached.is_some() {
                pushed[index - series.start] = run.records.len();
                run.records.push(&keys[k], &outcome);
            }
            // A point the last kept candidate dominates is never on the
            // front, since dominance is transitive: it is not kept.
            if let Some(candidate) = Candidate::of(index, &outcome) {
                if !candidates.last().is_some_and(|kept: &Candidate| {
                    strictly_dominates(&kept.objectives, &candidate.objectives)
                }) {
                    candidates.push(candidate);
                }
            }
            run.counts.tally(&outcome);
            if table {
                run.outcomes.push(outcome);
            }
        }
        missed.clear();
    }
    if let Some((_, _, order)) = cached {
        // A block's cells sit rate-major, and its keys sort by rate, then
        // goal (`BlockKeyOrder`).
        let block = series.start - series.start % (grid.rates().len() * goals);
        let in_key_order = order.rates.iter().flat_map(|&rate| {
            order
                .goals
                .iter()
                .map(move |&goal| block + rate * goals + goal)
        });
        let records = in_key_order
            .filter(|index| series.contains(index))
            .map(|index| pushed[index - series.start])
            .filter(|&record| record != usize::MAX);
        run.records.reorder(records);
    }
    run.front = front(&candidates);
    run
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
        let series = plan(grid, 0..grid.len());
        let members: usize = series.iter().map(ExactSizeIterator::len).sum();
        assert_eq!(members, grid.len(), "series partition the cells");
        let mut seen = vec![false; grid.len()];
        for s in series {
            let run = evaluate_series(grid, None, s.clone(), true);
            assert_eq!(run.outcomes.len(), s.len());
            for (index, outcome) in s.zip(run.outcomes) {
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
    fn rows_whose_goals_switch_targets_match_per_cell_evaluation() {
        // A row shares wear demands between goals with one lifetime target
        // and metrics between goals that plan one buffer. Here neighbouring
        // goals change targets (7, 4, 7, none, 10 years, and an empty
        // goal), over every device family, with and without DRAM.
        use memstream_device::{DiskDevice, FlashDevice};
        use memstream_units::{Ratio, Years};

        let grid = ScenarioGrid::new()
            .device(DeviceEntry::new("mems", MemsDevice::table1()))
            .device(DeviceEntry::new("flash", FlashDevice::mobile_mlc()))
            .device(DeviceEntry::new("disk", DiskDevice::calibrated_1p8_inch()))
            .device(DeviceEntry::new(
                "masked",
                EnergyOnly::new(MemsDevice::table1()),
            ))
            .workload(WorkloadProfile::paper())
            .workload(ScenarioGrid::paper_baseline(2).workloads()[2].clone())
            .rate_span(32.0, 4096.0, 48)
            .goal(DesignGoal::fig3a())
            .goal(DesignGoal::new().lifetime(Years::new(4.0)))
            .goal(DesignGoal::fig3b())
            .goal(DesignGoal::new().capacity_utilization(Ratio::from_percent(80.0)))
            .goal(
                DesignGoal::new()
                    .energy_saving(Ratio::from_percent(70.0))
                    .lifetime(Years::new(10.0)),
            )
            .goal(DesignGoal::new());
        assert_series_matches_reference(&grid);
        assert_series_matches_reference(&grid.without_dram());
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
    fn series_fronts_equal_the_sweep_of_every_feasible_point() {
        // A series keeps only the candidates its last kept one does not
        // dominate; its front is still the sweep of all its feasible
        // points. A run that keeps no outcomes sweeps the same front.
        let grid = ScenarioGrid::paper_baseline(400);
        for series in plan(&grid, 0..grid.len()) {
            let run = evaluate_series(&grid, None, series.clone(), true);
            let every: Vec<Candidate> = series
                .clone()
                .zip(&run.outcomes)
                .filter_map(|(index, outcome)| Candidate::of(index, outcome))
                .collect();
            assert_eq!(run.front, front(&every));
            let bare = evaluate_series(&grid, None, series, false);
            assert!(bare.outcomes.is_empty());
            assert_eq!((bare.front, bare.counts), (run.front, run.counts));
        }
    }

    #[test]
    fn series_grouping_reuses_models_across_rates() {
        // paper_baseline: 5 devices × 3 workloads × R rates × 2 goals.
        // Series count must not scale with the rate axis.
        let grid = ScenarioGrid::paper_baseline(11);
        let series = plan(&grid, 0..grid.len());
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
