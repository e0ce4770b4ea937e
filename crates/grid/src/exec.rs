//! The deterministic executor: serial or fan-out over `std::thread`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use memstream_telemetry::{Counter, Histogram, Metrics, SpanHandle, Tracer};

use crate::cache::ResultCache;
use crate::eval::CellOutcome;
use crate::key::KeyInterner;
use crate::series::{evaluate_series, plan_series, Series};
use crate::spec::{GridCell, GridError, ScenarioGrid};
use crate::store::{resolve_frontier, FrontierBuilder, ParetoPoint, ResultStore};

/// Explores a [`ScenarioGrid`] on a fixed number of worker threads.
///
/// Workers pull rate-axis *series* from a shared atomic cursor (cheap
/// work stealing: an idle worker immediately claims the next unevaluated
/// series, so uneven costs cannot idle a core). Each series builds its
/// capability model once and sweeps the rates against it
/// (the crate's private `series` module); results carry their job
/// indices, are re-ordered
/// on collection, and evaluation is pure — so the transcript of any run
/// is byte-identical to [`GridExecutor::serial`].
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
    /// Offers that joined the incremental Pareto frontier (including
    /// later-evicted ones), incumbents evicted by dominating offers, and
    /// the dominance tests the builder made — the frontier's work, done on
    /// the collecting thread as hits are looked up and as evaluated
    /// results stream in (inside `grid.eval`).
    frontier_inserts: Counter,
    frontier_evictions: Counter,
    frontier_dominance_checks: Counter,
    /// Per-series evaluation latency distribution (`grid.series_eval`).
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
            frontier_dominance_checks: metrics.counter("frontier.dominance_checks"),
            series_latency: metrics.histogram("grid.series_eval"),
            tracer: metrics.tracer(),
        }
    }

    /// Evaluates one series, timing it into the latency histogram and
    /// bracketing it with trace events when either sink is live.
    fn timed_series(&self, grid: &ScenarioGrid, s: &Series) -> Vec<(usize, CellOutcome)> {
        self.tracer.begin("grid.series");
        let started = self.series_latency.is_live().then(std::time::Instant::now);
        let batch = evaluate_series(grid, s);
        if let Some(started) = started {
            self.series_latency.record(started.elapsed());
        }
        self.tracer.end("grid.series");
        batch
    }
}

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

    /// Evaluates every unique cell of `grid` and returns the collected
    /// results.
    ///
    /// # Errors
    ///
    /// [`GridError::EmptyAxis`] if any axis of the grid is empty.
    pub fn explore(&self, grid: &ScenarioGrid) -> Result<GridResults, GridError> {
        let _explore = self.telemetry.explore_span.start();
        grid.check_axes()?;
        let interner = KeyInterner::new(grid);
        let (job_cells, cell_to_job) = ResultStore::plan_with(grid, &interner);
        self.telemetry.cells_total.add(cell_to_job.len() as u64);
        self.telemetry.cells_unique.add(job_cells.len() as u64);
        self.telemetry
            .interner_keys
            .add(interner.interned_strings() as u64);
        let mut frontier = FrontierBuilder::new();
        let outcomes = self.evaluate_jobs(grid, &job_cells, |job, outcome| {
            frontier.insert_outcome(job, outcome);
        });
        Ok(self.assemble(grid, cell_to_job, job_cells, outcomes, frontier))
    }

    /// Like [`GridExecutor::explore`], but resolves every job against
    /// `cache` first and evaluates only the misses (in parallel), feeding
    /// them back into the cache. Because cached outcomes round-trip
    /// exactly, the results — and every report rendered from them — are
    /// byte-identical to an uncached exploration.
    ///
    /// Cache keys are interned [`crate::CellKey`]s resolved into one
    /// reused string buffer; the canonical bytes match
    /// [`ScenarioGrid::dedup_key`] exactly.
    ///
    /// # Errors
    ///
    /// [`GridError::EmptyAxis`] if any axis of the grid is empty.
    pub fn explore_cached(
        &self,
        grid: &ScenarioGrid,
        cache: &mut ResultCache,
    ) -> Result<GridResults, GridError> {
        let _explore = self.telemetry.explore_span.start();
        grid.check_axes()?;
        let interner = KeyInterner::new(grid);
        let (job_cells, cell_to_job) = ResultStore::plan_with(grid, &interner);
        self.telemetry.cells_total.add(cell_to_job.len() as u64);
        self.telemetry.cells_unique.add(job_cells.len() as u64);
        self.telemetry
            .interner_keys
            .add(interner.interned_strings() as u64);

        let mut frontier = FrontierBuilder::new();
        let mut outcomes: Vec<Option<CellOutcome>> = Vec::with_capacity(job_cells.len());
        let mut miss_slots: Vec<usize> = Vec::new();
        let mut miss_cells: Vec<GridCell> = Vec::new();
        let mut key_buf = String::new();
        for (slot, cell) in job_cells.iter().enumerate() {
            interner.resolve_into(interner.key(cell), &mut key_buf);
            match cache.lookup(&key_buf) {
                Some(outcome) => {
                    frontier.insert_outcome(slot, &outcome);
                    outcomes.push(Some(outcome));
                }
                None => {
                    outcomes.push(None);
                    miss_slots.push(slot);
                    miss_cells.push(*cell);
                }
            }
        }

        let fresh = {
            let miss_slots = &miss_slots;
            let frontier = &mut frontier;
            // `evaluate_jobs` indexes into its own job list; map back to
            // the global job slot before offering to the frontier.
            self.evaluate_jobs(grid, &miss_cells, |local, outcome| {
                frontier.insert_outcome(miss_slots[local], outcome);
            })
        };
        for ((slot, cell), outcome) in miss_slots.into_iter().zip(&miss_cells).zip(fresh) {
            cache.insert(interner.resolve(interner.key(cell)), outcome.clone());
            outcomes[slot] = Some(outcome);
        }

        let outcomes: Vec<CellOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every job is cached or evaluated"))
            .collect();
        Ok(self.assemble(grid, cell_to_job, job_cells, outcomes, frontier))
    }

    /// Resolves an explicit list of cells against `cache`: cached cells
    /// count as hits, the rest are evaluated (fanned out on this
    /// executor's threads) and inserted. No results are assembled — this
    /// is the shard-worker primitive, which only needs the cache filled
    /// for the cells of its slice (see
    /// [`ScenarioGrid::unique_cells`](crate::ScenarioGrid::unique_cells)
    /// for the canonical slicing domain).
    pub fn resolve_cells(&self, grid: &ScenarioGrid, cells: &[GridCell], cache: &mut ResultCache) {
        let _explore = self.telemetry.explore_span.start();
        self.telemetry.cells_total.add(cells.len() as u64);
        let interner = KeyInterner::new(grid);
        self.telemetry
            .interner_keys
            .add(interner.interned_strings() as u64);
        let mut miss_cells: Vec<GridCell> = Vec::new();
        let mut key_buf = String::new();
        for cell in cells {
            interner.resolve_into(interner.key(cell), &mut key_buf);
            if cache.lookup(&key_buf).is_none() {
                miss_cells.push(*cell);
            }
        }
        let fresh = self.evaluate_jobs(grid, &miss_cells, |_, _| {});
        for (cell, outcome) in miss_cells.iter().zip(fresh) {
            cache.insert(interner.resolve(interner.key(cell)), outcome);
        }
    }

    /// Evaluates `jobs` through the series planner — one capability model
    /// per rate-axis series — on at most one thread per series.
    ///
    /// `observe` sees every `(job index, outcome)` pair **as results
    /// stream in** (on the calling thread, in arrival order) — the hook
    /// the incremental frontier rides, so aggregation overlaps
    /// evaluation instead of re-scanning the finished job list.
    fn evaluate_jobs(
        &self,
        grid: &ScenarioGrid,
        jobs: &[GridCell],
        mut observe: impl FnMut(usize, &CellOutcome),
    ) -> Vec<CellOutcome> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let _eval = self.telemetry.eval_span.start();
        self.telemetry.cells_evaluated.add(jobs.len() as u64);
        let series = plan_series(jobs);
        self.telemetry.series_built.add(series.len() as u64);
        self.telemetry
            .models_reused
            .add((jobs.len() - series.len()) as u64);
        let workers = self.threads.min(series.len());
        if workers == 1 {
            tally_worker(&self.metrics, 0, jobs.len() as u64);
            let mut slots: Vec<Option<CellOutcome>> = vec![None; jobs.len()];
            for s in &series {
                for (job, outcome) in self.telemetry.timed_series(grid, s) {
                    observe(job, &outcome);
                    slots[job] = Some(outcome);
                }
            }
            slots
                .into_iter()
                .map(|o| o.expect("series cover the job list"))
                .collect()
        } else {
            let (telemetry, metrics) = (&self.telemetry, &self.metrics);
            fan_out(
                grid,
                jobs.len(),
                &series,
                workers,
                telemetry,
                metrics,
                observe,
            )
        }
    }

    /// Folds evaluated job outcomes into the final results record. The
    /// frontier arrives pre-built (streamed during evaluation); assemble
    /// only restores the canonical order and resolves the survivors.
    fn assemble(
        &self,
        grid: &ScenarioGrid,
        cell_to_job: Vec<usize>,
        job_cells: Vec<GridCell>,
        outcomes: Vec<CellOutcome>,
        frontier: FrontierBuilder,
    ) -> GridResults {
        let _assemble = self.telemetry.assemble_span.start();
        self.telemetry.frontier_inserts.add(frontier.inserts());
        self.telemetry.frontier_evictions.add(frontier.evictions());
        self.telemetry
            .frontier_dominance_checks
            .add(frontier.dominance_checks());
        let store = ResultStore::new(cell_to_job, job_cells, outcomes);
        let frontier = resolve_frontier(&store, frontier);
        GridResults {
            grid: grid.clone(),
            store,
            frontier,
        }
    }
}

/// Evaluates the planned `series` on `workers` threads, returning
/// outcomes in job order (`n_jobs` slots).
///
/// Workers claim whole series from the cursor and send one batched
/// result vector per series; each worker tallies its evaluated cells in
/// a thread-local count and publishes once on exit into
/// `grid.worker.{i}.cells` ([`tally_worker`]) — the hot loop performs no
/// shared-memory telemetry traffic and one channel send per *series*,
/// not per cell.
///
/// `observe` runs on the collecting (calling) thread only, in batch
/// arrival order — workers never touch it, so it needs no
/// synchronisation and may borrow freely from the caller's stack.
fn fan_out(
    grid: &ScenarioGrid,
    n_jobs: usize,
    series: &[Series],
    workers: usize,
    telemetry: &ExecTelemetry,
    metrics: &Metrics,
    mut observe: impl FnMut(usize, &CellOutcome),
) -> Vec<CellOutcome> {
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Vec<(usize, CellOutcome)>>();
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
                    evaluated += batch.len() as u64;
                    if tx.send(batch).is_err() {
                        break;
                    }
                }
                tally_worker(metrics, worker, evaluated);
            });
        }
        drop(tx);
        let mut slots: Vec<Option<CellOutcome>> = vec![None; n_jobs];
        for batch in rx {
            for (job, outcome) in batch {
                observe(job, &outcome);
                slots[job] = Some(outcome);
            }
        }
        slots
            .into_iter()
            .map(|o| o.expect("every job produced an outcome"))
            .collect()
    })
}

/// The outcome of one exploration: the grid, the deduplicated store and
/// the aggregations over it.
#[derive(Debug, Clone, PartialEq)]
pub struct GridResults {
    grid: ScenarioGrid,
    store: ResultStore,
    frontier: Vec<ParetoPoint>,
}

impl GridResults {
    /// The explored grid.
    #[must_use]
    pub fn grid(&self) -> &ScenarioGrid {
        &self.grid
    }

    /// The deduplicated result store.
    #[must_use]
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Total cells in the grid.
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.store.total_cells()
    }

    /// Distinct evaluations performed after deduplication.
    #[must_use]
    pub fn unique_evaluations(&self) -> usize {
        self.store.unique_evaluations()
    }

    /// The outcome of the cell at canonical index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.total_cells()`.
    #[must_use]
    pub fn outcome(&self, index: usize) -> &CellOutcome {
        self.store.outcome(index)
    }

    /// Iterates every `(cell, outcome)` in canonical order.
    pub fn records(&self) -> impl Iterator<Item = (GridCell, &CellOutcome)> + '_ {
        (0..self.total_cells()).map(|i| (self.grid.cell(i), self.outcome(i)))
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
        assert_eq!(serial.store(), parallel.store());
        assert_eq!(serial.pareto_frontier(), parallel.pareto_frontier());
    }

    #[test]
    fn dedup_shares_identical_cells() {
        // Two identically parameterised devices under different names must
        // halve the evaluation count for their share of the grid.
        use crate::spec::DeviceEntry;
        use memstream_core::DesignGoal;
        use memstream_device::MemsDevice;

        let grid = ScenarioGrid::new()
            .device(DeviceEntry::new("a", MemsDevice::table1()))
            .device(DeviceEntry::new("b", MemsDevice::table1()))
            .workload(crate::spec::WorkloadProfile::paper())
            .rate_span(32.0, 4096.0, 10)
            .goal(DesignGoal::fig3b());
        let results = GridExecutor::serial().explore(&grid).unwrap();
        assert_eq!(results.total_cells(), 20);
        assert_eq!(results.unique_evaluations(), 10);
        // Both name-aliases resolve to the same outcome object.
        for i in 0..10 {
            assert_eq!(results.outcome(i), results.outcome(10 + i));
        }
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
            results.unique_evaluations() as u64,
            "every unique cell is either a series representative or a model reuse"
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
        assert_eq!(workers, results.unique_evaluations() as u64);
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
        assert_eq!(serial.store(), wide.store());
        assert_eq!(serial.pareto_frontier(), wide.pareto_frontier());
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
