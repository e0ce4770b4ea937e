//! The deterministic executor: serial or fan-out over `std::thread`.
//!
//! Every cell of a grid is its own job. One pass serves both
//! explorations: without a cache every cell streams into the series
//! planner, with one only the misses do, and each outcome lands in its
//! cell's slot of the results as it arrives. The worker that evaluates a
//! series also sweeps it to its own Pareto frontier, so assembly only
//! sweeps the union of those fronts and the feasible hits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use memstream_telemetry::{Counter, Histogram, Metrics, SpanHandle, Tracer};

use crate::cache::ResultCache;
use crate::eval::{CellOutcome, PlannedPoint};
use crate::key::KeyInterner;
use crate::series::{evaluate_series, plan_series, Series};
use crate::spec::{GridCell, GridError, ScenarioGrid};
use crate::store::{resolve_frontier, series_front, ParetoPoint};

/// Explores a [`ScenarioGrid`] on a fixed number of worker threads.
///
/// Workers pull rate-axis *series* from a shared atomic cursor (cheap
/// work stealing: an idle worker immediately claims the next unevaluated
/// series, so uneven costs cannot idle a core). Each series builds its
/// capability model once and sweeps the rates against it
/// (the crate's private `series` module); results carry their cell
/// indices, land in canonical order on collection, and evaluation is
/// pure — so the transcript of any run is byte-identical to
/// [`GridExecutor::serial`].
///
/// A fan-out spawns at most one worker per series: a worker claims whole
/// series, so more would have nothing to do.
///
/// An executor carries a [`Metrics`] handle (disabled by default, see
/// [`GridExecutor::with_metrics`]) and records the `grid.*` catalogue of
/// `docs/OBSERVABILITY.md`: cell/series counts, per-worker evaluation
/// tallies and the explore/eval/assemble wall-clock breakdown. Counter
/// and span handles are resolved **once per executor**, except each
/// spawned worker's tally, which takes the registry lock once as the
/// worker retires — never once per cell. Telemetry never touches the
/// results, so instrumented and bare runs stay byte-identical.
#[derive(Debug, Clone)]
pub struct GridExecutor {
    threads: usize,
    metrics: Metrics,
    telemetry: ExecTelemetry,
}

/// The executor's pre-resolved telemetry handles. The default (for a
/// disabled registry) is all no-ops.
#[derive(Debug, Clone, Default)]
struct ExecTelemetry {
    explore_span: SpanHandle,
    eval_span: SpanHandle,
    assemble_span: SpanHandle,
    cells_total: Counter,
    cells_unique: Counter,
    cells_evaluated: Counter,
    series_built: Counter,
    models_reused: Counter,
    interner_keys: Counter,
    /// Candidates that entered the final frontier sweep (every series'
    /// front plus the feasible cache hits), and those it dropped.
    frontier_inserts: Counter,
    frontier_evictions: Counter,
    /// Per-series evaluation latency distribution (`grid.series_eval`),
    /// the series' own frontier sweep included.
    series_latency: Histogram,
    /// Emits one `grid.series` begin/end pair per evaluated series when
    /// tracing is on, so worker-thread parallelism is visible in the
    /// timeline.
    tracer: Tracer,
}

impl ExecTelemetry {
    /// Resolves every handle the executor will ever use, apart from the
    /// per-worker tallies ([`tally_worker`]).
    fn resolve(metrics: &Metrics) -> Self {
        if !metrics.is_enabled() {
            return ExecTelemetry::default();
        }
        ExecTelemetry {
            explore_span: metrics.span("grid.explore"),
            eval_span: metrics.span("grid.eval"),
            assemble_span: metrics.span("grid.assemble"),
            cells_total: metrics.counter("grid.cells_total"),
            cells_unique: metrics.counter("grid.cells_unique"),
            cells_evaluated: metrics.counter("grid.cells_evaluated"),
            series_built: metrics.counter("grid.series_built"),
            models_reused: metrics.counter("grid.models_reused"),
            interner_keys: metrics.counter("grid.interner.keys"),
            frontier_inserts: metrics.counter("frontier.inserts"),
            frontier_evictions: metrics.counter("frontier.evictions"),
            series_latency: metrics.histogram("grid.series_eval"),
            tracer: metrics.tracer(),
        }
    }

    /// Evaluates one series and sweeps it to its frontier, timing both
    /// into the latency histogram and bracketing them with trace events
    /// when either sink is live.
    fn timed_series(&self, grid: &ScenarioGrid, s: &Series) -> SeriesBatch {
        self.tracer.begin("grid.series");
        let started = self.series_latency.is_live().then(std::time::Instant::now);
        let outcomes = evaluate_series(grid, s);
        let front = series_front(&outcomes);
        if let Some(started) = started {
            self.series_latency.record(started.elapsed());
        }
        self.tracer.end("grid.series");
        (outcomes, front)
    }
}

/// One evaluated series: every `(cell index, outcome)`, and the
/// `(cell index, objectives)` of its own Pareto frontier.
type SeriesBatch = (Vec<(usize, CellOutcome)>, Vec<(usize, [f64; 3])>);

/// Adds `cells` to `grid.worker.{worker}.cells`, registering the counter
/// on first use, so a snapshot lists only workers that were spawned.
fn tally_worker(metrics: &Metrics, worker: usize, cells: u64) {
    if metrics.is_enabled() {
        metrics
            .counter(&format!("grid.worker.{worker}.cells"))
            .add(cells);
    }
}

impl GridExecutor {
    /// A single-threaded executor (the determinism reference).
    #[must_use]
    pub fn serial() -> Self {
        GridExecutor {
            threads: 1,
            metrics: Metrics::disabled(),
            telemetry: ExecTelemetry::default(),
        }
    }

    /// An executor over `threads` workers. `0` selects the machine's
    /// available parallelism.
    #[must_use]
    pub fn parallel(threads: usize) -> Self {
        let threads = if threads == 0 {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        GridExecutor {
            threads,
            metrics: Metrics::disabled(),
            telemetry: ExecTelemetry::default(),
        }
    }

    /// The same executor reporting into `metrics` (a cheap shared
    /// handle; clones of this executor keep reporting into the same
    /// registry). Telemetry handles resolve here, once — not per
    /// exploration.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.metrics = metrics.clone();
        self.telemetry = ExecTelemetry::resolve(metrics);
        self
    }

    /// The metrics handle this executor reports into.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The worker count this executor will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates every cell of `grid` and returns the collected results:
    /// [`GridExecutor::explore_cached`] without a cache.
    ///
    /// # Errors
    ///
    /// [`GridError::EmptyAxis`] if any axis of the grid is empty, and
    /// [`GridError::DuplicateAxisEntry`] if an axis repeats an entry.
    pub fn explore(&self, grid: &ScenarioGrid) -> Result<GridResults, GridError> {
        self.explore_with(grid, None)
    }

    /// Like [`GridExecutor::explore`], but resolves every cell against
    /// `cache` first and evaluates only the misses (in parallel), feeding
    /// them back into the cache. Because cached outcomes round-trip
    /// exactly, the results — and every report rendered from them — are
    /// byte-identical to an uncached exploration.
    ///
    /// Cache keys are joined from the [`KeyInterner`]'s fragments into
    /// one reused string buffer; the canonical bytes match
    /// [`ScenarioGrid::dedup_key`] exactly.
    ///
    /// # Errors
    ///
    /// As [`GridExecutor::explore`]; `cache` is untouched on error.
    pub fn explore_cached(
        &self,
        grid: &ScenarioGrid,
        cache: &mut ResultCache,
    ) -> Result<GridResults, GridError> {
        self.explore_with(grid, Some(cache))
    }

    /// The one exploration pass. The cells stream into the series
    /// planner; with a cache, each hit fills its slot on the way and only
    /// misses go on. Evaluated outcomes fill their slots (and the cache)
    /// as they arrive. The feasible hits and every series' front are the
    /// frontier candidates, swept once more at assembly.
    fn explore_with(
        &self,
        grid: &ScenarioGrid,
        mut cache: Option<&mut ResultCache>,
    ) -> Result<GridResults, GridError> {
        let _explore = self.telemetry.explore_span.start();
        grid.check_axes()?;
        let interner = KeyInterner::new(grid)?;
        self.telemetry.cells_total.add(grid.len() as u64);
        // The interner rejects repeated axis entries, so every cell is a
        // distinct scenario: the unique count equals the total.
        self.telemetry.cells_unique.add(grid.len() as u64);
        self.telemetry
            .interner_keys
            .add(interner.interned_strings() as u64);

        let mut candidates: Vec<(usize, [f64; 3])> = Vec::new();
        let mut outcomes: Vec<Option<CellOutcome>> = vec![None; grid.len()];
        let mut key = String::new();
        let misses = grid.cells().filter(|cell| {
            let Some(cache) = cache.as_deref_mut() else {
                return true;
            };
            interner.resolve_into(cell, &mut key);
            let Some(outcome) = cache.lookup(&key) else {
                return true;
            };
            if let Some(objectives) = outcome.planned().and_then(PlannedPoint::objectives) {
                candidates.push((cell.index, objectives));
            }
            outcomes[cell.index] = Some(outcome);
            false
        });
        let series = plan_series(misses);
        let fronts = self.evaluate(grid, &series, |index, outcome| {
            if let Some(cache) = cache.as_deref_mut() {
                cache.insert(interner.resolve(&grid.cell(index)), outcome.clone());
            }
            outcomes[index] = Some(outcome);
        });
        candidates.extend(fronts);

        let _assemble = self.telemetry.assemble_span.start();
        let outcomes: Vec<CellOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every cell is cached or evaluated"))
            .collect();
        let frontier = resolve_frontier(grid, &outcomes, &candidates);
        self.telemetry.frontier_inserts.add(candidates.len() as u64);
        self.telemetry
            .frontier_evictions
            .add((candidates.len() - frontier.len()) as u64);
        Ok(GridResults {
            grid: grid.clone(),
            outcomes,
            frontier,
        })
    }

    /// Resolves an explicit list of cells against `cache`: cached cells
    /// count as hits, the rest are evaluated (fanned out on this
    /// executor's threads) and inserted. No results are assembled and the
    /// series fronts are dropped — this is the shard-worker primitive,
    /// which only needs the cache filled for the cells of its slice (see
    /// [`ScenarioGrid::unique_cells`](crate::ScenarioGrid::unique_cells)
    /// for the canonical slicing domain).
    ///
    /// # Errors
    ///
    /// [`GridError::DuplicateAxisEntry`] if an axis of `grid` repeats an
    /// entry; `cache` is untouched then.
    pub fn resolve_cells(
        &self,
        grid: &ScenarioGrid,
        cells: &[GridCell],
        cache: &mut ResultCache,
    ) -> Result<(), GridError> {
        let _explore = self.telemetry.explore_span.start();
        let interner = KeyInterner::new(grid)?;
        self.telemetry.cells_total.add(cells.len() as u64);
        self.telemetry
            .interner_keys
            .add(interner.interned_strings() as u64);
        let mut key = String::new();
        let misses = cells.iter().copied().filter(|cell| {
            interner.resolve_into(cell, &mut key);
            cache.lookup(&key).is_none()
        });
        let series = plan_series(misses);
        self.evaluate(grid, &series, |index, outcome| {
            cache.insert(interner.resolve(&grid.cell(index)), outcome);
        });
        Ok(())
    }

    /// Evaluates `series` — one capability model per rate-axis series —
    /// on at most one thread per series, and returns the series' fronts
    /// concatenated in arrival order.
    ///
    /// `deliver` receives every `(cell index, outcome)` pair **as results
    /// stream in** (on the calling thread, in arrival order) — the hook
    /// the outcome slots and the cache ride.
    fn evaluate(
        &self,
        grid: &ScenarioGrid,
        series: &[Series],
        mut deliver: impl FnMut(usize, CellOutcome),
    ) -> Vec<(usize, [f64; 3])> {
        let mut fronts = Vec::new();
        if series.is_empty() {
            return fronts;
        }
        let _eval = self.telemetry.eval_span.start();
        let cells: usize = series.iter().map(Series::len).sum();
        self.telemetry.cells_evaluated.add(cells as u64);
        self.telemetry.series_built.add(series.len() as u64);
        self.telemetry
            .models_reused
            .add((cells - series.len()) as u64);
        let workers = self.threads.min(series.len());
        let mut collect = |(outcomes, front): SeriesBatch| {
            for (index, outcome) in outcomes {
                deliver(index, outcome);
            }
            fronts.extend(front);
        };
        if workers == 1 {
            tally_worker(&self.metrics, 0, cells as u64);
            for s in series {
                collect(self.telemetry.timed_series(grid, s));
            }
        } else {
            fan_out(
                grid,
                series,
                workers,
                &self.telemetry,
                &self.metrics,
                collect,
            );
        }
        fronts
    }
}

/// Evaluates the planned `series` on `workers` threads, handing each
/// series' batch to `collect`.
///
/// Workers claim whole series from the cursor and send one batch (the
/// outcomes and the series' front) per series; each worker tallies its
/// evaluated cells in a thread-local count and publishes once on exit into
/// `grid.worker.{i}.cells` ([`tally_worker`]) — the hot loop performs no
/// shared-memory telemetry traffic and one channel send per *series*,
/// not per cell.
///
/// `collect` runs on the collecting (calling) thread only, in batch
/// arrival order — workers never touch it, so it needs no
/// synchronisation and may borrow freely from the caller's stack.
fn fan_out(
    grid: &ScenarioGrid,
    series: &[Series],
    workers: usize,
    telemetry: &ExecTelemetry,
    metrics: &Metrics,
    collect: impl FnMut(SeriesBatch),
) {
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<SeriesBatch>();
    thread::scope(|scope| {
        for worker in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            scope.spawn(move || {
                let mut evaluated: u64 = 0;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(s) = series.get(i) else { break };
                    let batch = telemetry.timed_series(grid, s);
                    evaluated += batch.0.len() as u64;
                    if tx.send(batch).is_err() {
                        break;
                    }
                }
                tally_worker(metrics, worker, evaluated);
            });
        }
        drop(tx);
        rx.into_iter().for_each(collect);
    });
}

/// The outcome of one exploration: the grid, one outcome per cell in
/// canonical order, and the Pareto frontier over them.
#[derive(Debug, Clone, PartialEq)]
pub struct GridResults {
    grid: ScenarioGrid,
    outcomes: Vec<CellOutcome>,
    frontier: Vec<ParetoPoint>,
}

impl GridResults {
    /// The explored grid.
    #[must_use]
    pub fn grid(&self) -> &ScenarioGrid {
        &self.grid
    }

    /// Total cells in the grid, each with its own outcome.
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.outcomes.len()
    }

    /// The outcome of the cell at canonical index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.total_cells()`.
    #[must_use]
    pub fn outcome(&self, index: usize) -> &CellOutcome {
        &self.outcomes[index]
    }

    /// Iterates every `(cell, outcome)` in canonical order.
    pub fn records(&self) -> impl Iterator<Item = (GridCell, &CellOutcome)> + '_ {
        self.grid.cells().zip(&self.outcomes)
    }

    /// The Pareto frontier over (energy saving, capacity utilisation,
    /// lifetime) of the feasible, fully modelled scenarios, in canonical
    /// cell order. Computed once at exploration time.
    #[must_use]
    pub fn pareto_frontier(&self) -> &[ParetoPoint] {
        &self.frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grid_is_an_error() {
        let err = GridExecutor::serial()
            .explore(&ScenarioGrid::new())
            .unwrap_err();
        assert_eq!(err, GridError::EmptyAxis { axis: "devices" });
    }

    #[test]
    fn parallel_zero_resolves_to_machine_width() {
        assert!(GridExecutor::parallel(0).threads() >= 1);
        assert_eq!(GridExecutor::parallel(3).threads(), 3);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let grid = ScenarioGrid::paper_baseline(7);
        let serial = GridExecutor::serial().explore(&grid).unwrap();
        let parallel = GridExecutor::parallel(4).explore(&grid).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn duplicate_axis_entries_are_rejected() {
        // Each case repeats one axis entry under another guise; none is
        // shared, every entry point names the axis and both indices.
        use crate::spec::{DeviceEntry, WorkloadProfile};
        use memstream_core::DesignGoal;
        use memstream_device::MemsDevice;
        use memstream_units::BitRate;
        use memstream_workload::Workload;

        let profile = |name: &str, kbps: f64| {
            WorkloadProfile::new(name, Workload::paper_default(BitRate::from_kbps(kbps)))
        };
        let base = || {
            ScenarioGrid::new()
                .device(DeviceEntry::new("table1", MemsDevice::table1()))
                .workload(profile("paper", 1024.0))
                .with_rates([BitRate::from_kbps(64.0), BitRate::from_kbps(512.0)])
                .goal(DesignGoal::fig3a())
        };
        let cases = [
            (
                "devices",
                base().device(DeviceEntry::new("alias", MemsDevice::table1())),
                (0, 1),
            ),
            (
                "workloads",
                base().workload(profile("other-rate", 4096.0)),
                (0, 1),
            ),
            (
                "rates",
                base().with_rates([BitRate::from_kbps(64.0)]),
                (0, 2),
            ),
            (
                "goals",
                base().goal(DesignGoal::fig3b()).goal(DesignGoal::fig3a()),
                (0, 2),
            ),
        ];
        for (axis, grid, (first, second)) in cases {
            let expected = GridError::DuplicateAxisEntry {
                axis,
                first,
                second,
            };
            assert_eq!(GridExecutor::serial().explore(&grid), Err(expected.clone()));
            let mut cache = ResultCache::new();
            assert_eq!(
                GridExecutor::parallel(2).explore_cached(&grid, &mut cache),
                Err(expected.clone())
            );
            assert_eq!(
                GridExecutor::serial().resolve_cells(&grid, &grid.unique_cells(), &mut cache),
                Err(expected.clone())
            );
            assert!(cache.is_empty(), "{axis}: the cache was touched");
            let message = expected.to_string();
            assert!(message.contains(&format!("`{axis}`")), "{message}");
        }
        let distinct = GridExecutor::serial().explore(&base()).unwrap();
        assert_eq!(distinct.total_cells(), 2);
    }

    #[test]
    fn telemetry_counts_series_and_reused_models() {
        let metrics = Metrics::enabled();
        let grid = ScenarioGrid::paper_baseline(8);
        let results = GridExecutor::parallel(3)
            .with_metrics(&metrics)
            .explore(&grid)
            .unwrap();
        let snapshot = metrics.snapshot();
        let series = snapshot.counter("grid.series_built").unwrap();
        let reused = snapshot.counter("grid.models_reused").unwrap();
        assert!(series > 0, "series planner ran");
        assert_eq!(
            series + reused,
            results.total_cells() as u64,
            "every cell is either a series representative or a model reuse"
        );
        assert_eq!(
            snapshot.counter("grid.cells_unique"),
            snapshot.counter("grid.cells_total")
        );
        assert!(snapshot.counter("grid.interner.keys").unwrap() > 0);
        // One latency observation per evaluated series.
        let latency = snapshot.histogram("grid.series_eval").unwrap();
        assert_eq!(latency.count, series);
        assert!(latency.p50_nanos() <= latency.p99_nanos());
        // Per-worker tallies must sum to the evaluated cells.
        let workers: u64 = (0..3)
            .map(|i| {
                snapshot
                    .counter(&format!("grid.worker.{i}.cells"))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(workers, results.total_cells() as u64);
        // The frontier sweeps see the same candidates on any thread count.
        let serial_metrics = Metrics::enabled();
        GridExecutor::serial()
            .with_metrics(&serial_metrics)
            .explore(&grid)
            .unwrap();
        let serial_snapshot = serial_metrics.snapshot();
        for name in ["frontier.inserts", "frontier.evictions"] {
            assert_eq!(
                snapshot.counter(name),
                serial_snapshot.counter(name),
                "{name}"
            );
        }
        let inserts = snapshot.counter("frontier.inserts").unwrap();
        let evictions = snapshot.counter("frontier.evictions").unwrap();
        assert_eq!(inserts - evictions, results.pareto_frontier().len() as u64);
    }

    #[test]
    fn fan_out_spawns_no_more_workers_than_series() {
        let grid = ScenarioGrid::paper_baseline(4);
        let metrics = Metrics::enabled();
        let serial = GridExecutor::serial().explore(&grid).unwrap();
        let wide = GridExecutor::parallel(1000)
            .with_metrics(&metrics)
            .explore(&grid)
            .unwrap();
        assert_eq!(serial, wide);
        let snapshot = metrics.snapshot();
        let series = snapshot.counter("grid.series_built").unwrap();
        let workers = snapshot
            .counters
            .iter()
            .filter(|c| c.name.starts_with("grid.worker."))
            .count() as u64;
        assert!(
            (1..=series).contains(&workers),
            "{workers} worker counters for {series} series"
        );
    }

    #[test]
    fn frontier_is_mutually_non_dominated() {
        let results = GridExecutor::parallel(2)
            .explore(&ScenarioGrid::paper_baseline(12))
            .unwrap();
        let frontier = results.pareto_frontier();
        assert!(!frontier.is_empty());
        for a in frontier {
            for b in frontier {
                let (oa, ob) = (a.objectives(), b.objectives());
                let dominates = oa.iter().zip(&ob).all(|(x, y)| x >= y)
                    && oa.iter().zip(&ob).any(|(x, y)| x > y);
                assert!(!dominates, "{oa:?} dominates {ob:?}");
            }
        }
    }
}
