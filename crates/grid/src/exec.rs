//! The deterministic executor: serial or fan-out over `std::thread`.
//!
//! The unit of work is a *series*: a run of one `(device, workload)`
//! block, the `rates × goals` cells that share one capability model.
//! One fan-out serves every entry point. The worker that claims a series
//! does all of its work: it looks each cell up in the cache, if there is
//! one, evaluates the misses, encodes their cache records, and sweeps the
//! series to its own Pareto front. It comes back with its outcomes' counts
//! by kind, its front, its lookup cursor and its records, sorted by key,
//! and — only for an exploration that returns every cell's outcome — its
//! outcomes as one vector in canonical order, which the results keep as
//! is. The calling thread only publishes the cursors, hands each series'
//! records to the cache as one batch, sums the counts and sweeps the
//! union of the series' fronts.

use std::io;
use std::ops::{Deref, Range};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use memstream_telemetry::{Counter, Histogram, Metrics, SpanHandle, Tracer};

use crate::cache::ResultCache;
use crate::eval::{CellOutcome, OutcomeCounts};
use crate::key::{BlockKeyOrder, KeyInterner};
use crate::series::{evaluate_series, plan, SeriesRun};
use crate::spec::{GridCell, GridError, ScenarioGrid};
use crate::store::{resolve_frontier, Candidate, ParetoPoint};

/// Explores a [`ScenarioGrid`] on a fixed number of worker threads.
///
/// Workers pull *series* — runs of one `(device, workload)` block — from
/// a shared atomic cursor (cheap work stealing: an idle worker
/// immediately claims the next unrun series, so uneven costs cannot idle
/// a core). Each series builds its capability model once and sweeps the
/// rates and goals against it (the crate's private `series` module);
/// the series' outcomes are kept in series order, and evaluation is pure
/// — so the transcript of any run is byte-identical to
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
/// worker retires, and `grid.interner.keys`, which only a cached
/// exploration registers — never once per cell. Telemetry never touches
/// the results, so instrumented and bare runs stay byte-identical.
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
    /// Candidates that entered the final frontier sweep (the union of
    /// the series' fronts), and those it dropped.
    frontier_inserts: Counter,
    frontier_evictions: Counter,
    /// Per-series latency distribution (`grid.series_eval`): lookups,
    /// evaluation, the misses' records and the series' own frontier
    /// sweep.
    series_latency: Histogram,
    /// Emits one `grid.series` begin/end pair per series run when
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
            frontier_inserts: metrics.counter("frontier.inserts"),
            frontier_evictions: metrics.counter("frontier.evictions"),
            series_latency: metrics.histogram("grid.series_eval"),
            tracer: metrics.tracer(),
        }
    }

    /// Runs one series, timing it into the latency histogram and
    /// bracketing it with trace events when either sink is live.
    fn timed_series(
        &self,
        grid: &ScenarioGrid,
        cached: Option<(&ResultCache, &KeyInterner, &BlockKeyOrder)>,
        series: &Range<usize>,
        table: bool,
    ) -> SeriesRun {
        self.tracer.begin("grid.series");
        let started = self.series_latency.is_live().then(std::time::Instant::now);
        let run = evaluate_series(grid, cached, series.clone(), table);
        if let Some(started) = started {
            self.series_latency.record(started.elapsed());
        }
        self.tracer.end("grid.series");
        run
    }
}

/// The number of threads the machine runs at once (1 if unknown).
fn machine_width() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
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
            machine_width()
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

    /// Opens the cache file at `path` like [`ResultCache::open`], reporting
    /// into this executor's metrics, but reads and checks its records in
    /// one run per worker thread — no more runs than the machine runs
    /// threads at once, nor than the file holds records. The cache, the
    /// lenient reading of a damaged file and the counters are the
    /// one-thread open's.
    ///
    /// # Errors
    ///
    /// As [`ResultCache::open`].
    pub fn open_cache(&self, path: impl AsRef<Path>) -> io::Result<ResultCache> {
        let parts = if self.threads > 1 {
            self.threads.min(machine_width())
        } else {
            1
        };
        ResultCache::open_in_parts(path.as_ref(), &self.metrics, parts)
    }

    /// Evaluates every cell of `grid` and returns the collected results:
    /// [`GridExecutor::explore_cached`] without a cache.
    ///
    /// # Errors
    ///
    /// [`GridError::EmptyAxis`] if any axis of the grid is empty, and
    /// [`GridError::DuplicateAxisEntry`] if an axis repeats an entry.
    pub fn explore(&self, grid: &ScenarioGrid) -> Result<GridResults, GridError> {
        self.explore_with(grid, None, true)
    }

    /// Like [`GridExecutor::explore`], but looks every cell up in `cache`
    /// and evaluates only the misses, feeding them back into the cache.
    /// The lookups run on the worker threads, inside the series that
    /// holds each cell, and so does the encoding of each miss's record;
    /// each series tallies its lookups, and this thread adds them to
    /// [`ResultCache::hits`], [`ResultCache::misses`] and the `cache.*`
    /// telemetry once the series are done, then absorbs the series'
    /// records. Because cached outcomes round-trip exactly, the results
    /// — and every report rendered from them — are byte-identical to an
    /// uncached exploration.
    ///
    /// Cache keys are joined from the [`KeyInterner`]'s fragments into
    /// one reused string buffer per series; the canonical bytes match
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
        self.explore_with(grid, Some(cache), true)
    }

    /// Explores `grid` like [`GridExecutor::explore`], or like
    /// [`GridExecutor::explore_cached`] over `cache`, but keeps only what
    /// the default report reads: the summed outcome counts and the
    /// frontier. No series keeps its outcomes, so no per-cell table is
    /// ever allocated. The summary, the cache afterwards and every
    /// counter equal those of the full exploration.
    ///
    /// # Errors
    ///
    /// As [`GridExecutor::explore`]; `cache` is untouched on error.
    pub fn explore_summary(
        &self,
        grid: &ScenarioGrid,
        cache: Option<&mut ResultCache>,
    ) -> Result<GridSummary, GridError> {
        Ok(self.explore_with(grid, cache, false)?.summary)
    }

    /// The one exploration pass: runs every series of the grid, sums
    /// their counts and sweeps the union of their fronts to the grid's
    /// frontier. Each series' outcomes become the results' block as they
    /// are: with `table`, one outcome per cell; without, no outcome at
    /// all, and the results are only good for their summary.
    fn explore_with(
        &self,
        grid: &ScenarioGrid,
        cache: Option<&mut ResultCache>,
        table: bool,
    ) -> Result<GridResults, GridError> {
        let _explore = self.telemetry.explore_span.start();
        grid.check_axes()?;
        self.telemetry.cells_total.add(grid.len() as u64);
        // The check rejects repeated axis entries, so every cell is a
        // distinct scenario: the unique count equals the total.
        self.telemetry.cells_unique.add(grid.len() as u64);

        let runs = self.run(grid, cache, 0..grid.len(), table);

        let _assemble = self.telemetry.assemble_span.start();
        let mut counts = OutcomeCounts::default();
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut blocks = Vec::with_capacity(runs.len());
        for run in runs {
            counts += run.counts;
            candidates.extend(run.front);
            blocks.push(run.outcomes);
        }
        let frontier = resolve_frontier(grid, &candidates);
        self.telemetry.frontier_inserts.add(candidates.len() as u64);
        self.telemetry
            .frontier_evictions
            .add((candidates.len() - frontier.len()) as u64);
        Ok(GridResults {
            summary: GridSummary {
                grid: grid.clone(),
                counts,
                frontier,
            },
            blocks,
            block_len: grid.rates().len() * grid.goals().len(),
        })
    }

    /// Resolves the canonical cell range `cells` of `grid` against
    /// `cache`: cached cells count as hits, the rest are evaluated
    /// (fanned out on this executor's threads) and added. No results
    /// are assembled and the series fronts are dropped — this is the
    /// shard-worker primitive, which only needs the cache filled for the
    /// cells of its slice (see
    /// [`ScenarioGrid::unique_cells`](crate::ScenarioGrid::unique_cells)
    /// for the canonical slicing domain). The range may start and end
    /// anywhere, mid-row and mid-block included.
    ///
    /// # Errors
    ///
    /// [`GridError::DuplicateAxisEntry`] if an axis of `grid` repeats an
    /// entry; `cache` is untouched then.
    ///
    /// # Panics
    ///
    /// Panics if `cells` ends beyond the grid's last cell.
    pub fn resolve_cells(
        &self,
        grid: &ScenarioGrid,
        cells: Range<usize>,
        cache: &mut ResultCache,
    ) -> Result<(), GridError> {
        assert!(
            cells.end <= grid.len(),
            "cell range {cells:?} overruns the {}-cell grid",
            grid.len()
        );
        let _explore = self.telemetry.explore_span.start();
        grid.check_distinct()?;
        self.telemetry.cells_total.add(cells.len() as u64);
        self.run(grid, Some(cache), cells, false);
        Ok(())
    }

    /// The one fan-out: plans `cells` into series and runs them on at
    /// most one thread per series. With a cache, it first builds the
    /// grid's [`KeyInterner`] (counted into `grid.interner.keys`): each
    /// series looks every cell up under its key, then encodes its misses'
    /// records and puts them in key order by the grid's
    /// [`BlockKeyOrder`]. Then, on the calling thread, publishes each
    /// series' lookup cursor into `cache` (its hit/miss totals and
    /// `cache.*` telemetry) and hands it the series' records
    /// ([`ResultCache::absorb`]), without re-resolving a key or copying a
    /// record. Each series keeps its outcomes when `table` asks for them.
    /// Returns the runs in series order.
    fn run(
        &self,
        grid: &ScenarioGrid,
        cache: Option<&mut ResultCache>,
        cells: Range<usize>,
        table: bool,
    ) -> Vec<SeriesRun> {
        let interner = cache.is_some().then(|| {
            let interner = KeyInterner::of(grid);
            if self.metrics.is_enabled() {
                self.metrics
                    .counter("grid.interner.keys")
                    .add(interner.interned_strings() as u64);
            }
            interner
        });
        let series = plan(grid, cells);
        if series.is_empty() {
            return Vec::new();
        }
        let _eval = self.telemetry.eval_span.start();
        let workers = self.threads.min(series.len());
        let order = interner.as_ref().map(KeyInterner::block_order);
        let shared = cache
            .as_deref()
            .zip(interner.as_ref())
            .zip(order.as_ref())
            .map(|((cache, interner), order)| (cache, interner, order));
        let timed = |s: &Range<usize>| self.telemetry.timed_series(grid, shared, s, table);
        let mut runs: Vec<SeriesRun> = if workers == 1 {
            series.iter().map(timed).collect()
        } else {
            fan_out(&series, workers, &self.metrics, timed)
        };
        let cells_evaluated: u64 = runs.iter().map(|run| run.evaluated as u64).sum();
        if workers == 1 {
            tally_worker(&self.metrics, 0, cells_evaluated);
        }

        let built = runs.iter().filter(|run| run.evaluated > 0).count() as u64;
        self.telemetry.cells_evaluated.add(cells_evaluated);
        self.telemetry.series_built.add(built);
        self.telemetry.models_reused.add(cells_evaluated - built);
        if let Some(cache) = cache {
            for run in &mut runs {
                cache.publish(&run.lookups);
                cache.absorb(std::mem::take(&mut run.records));
            }
        }
        runs
    }
}

/// Runs `series` on `workers` scoped threads and returns the runs in
/// series order.
///
/// Workers claim series from an atomic cursor; each keeps its runs, and
/// a local tally of the cells it evaluated, which it publishes once on
/// exit into `grid.worker.{i}.cells` ([`tally_worker`]). Each run carries
/// its series' unpublished lookup cursor back to the caller, so neither
/// evaluation nor cache lookups write shared telemetry per cell; the
/// claim cursor and one `grid.series_eval` record per series are the
/// workers' only shared writes. A worker's panic resumes on the calling
/// thread.
fn fan_out(
    series: &[Range<usize>],
    workers: usize,
    metrics: &Metrics,
    run: impl Fn(&Range<usize>) -> SeriesRun + Sync,
) -> Vec<SeriesRun> {
    let cursor = AtomicUsize::new(0);
    let mut runs: Vec<(usize, SeriesRun)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (cursor, run) = (&cursor, &run);
                scope.spawn(move || {
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(s) = series.get(i) else { break };
                        claimed.push((i, run(s)));
                    }
                    let cells = claimed.iter().map(|(_, run)| run.evaluated as u64).sum();
                    tally_worker(metrics, worker, cells);
                    claimed
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    runs.sort_unstable_by_key(|&(i, _)| i);
    runs.into_iter().map(|(_, run)| run).collect()
}

/// What the default report reads of an exploration: the grid, how many
/// outcomes of each kind it produced, and the Pareto frontier over them
/// ([`GridExecutor::explore_summary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GridSummary {
    grid: ScenarioGrid,
    /// The series' outcome counts, summed.
    counts: OutcomeCounts,
    frontier: Vec<ParetoPoint>,
}

impl GridSummary {
    /// The explored grid.
    #[must_use]
    pub fn grid(&self) -> &ScenarioGrid {
        &self.grid
    }

    /// Total cells in the grid, each with its own outcome.
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.grid.len()
    }

    /// How many outcomes of each kind the grid holds, as the series
    /// counted them while writing them.
    #[must_use]
    pub fn outcome_counts(&self) -> OutcomeCounts {
        self.counts
    }

    /// The Pareto frontier over (energy saving, capacity utilisation,
    /// lifetime) of the feasible, fully modelled scenarios, in canonical
    /// cell order. Computed once at exploration time.
    #[must_use]
    pub fn pareto_frontier(&self) -> &[ParetoPoint] {
        &self.frontier
    }
}

/// The outcome of one exploration: its [`GridSummary`] plus one outcome
/// per cell in canonical order, the table that only the all-cells CSV and
/// refinement's scan read. It dereferences to its summary, so every
/// summary reader takes it too.
#[derive(Debug, Clone, PartialEq)]
pub struct GridResults {
    summary: GridSummary,
    /// One vector per `(device, workload)` block, in canonical order:
    /// each series' outcomes, kept as the worker wrote them.
    blocks: Vec<Vec<CellOutcome>>,
    /// Cells per block: rates × goals.
    block_len: usize,
}

impl Deref for GridResults {
    type Target = GridSummary;

    fn deref(&self) -> &GridSummary {
        &self.summary
    }
}

impl GridResults {
    /// The outcome of the cell at canonical index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.total_cells()`.
    #[must_use]
    pub fn outcome(&self, index: usize) -> &CellOutcome {
        &self.blocks[index / self.block_len][index % self.block_len]
    }

    /// Iterates every outcome in canonical order.
    pub fn outcomes(&self) -> impl Iterator<Item = &CellOutcome> + '_ {
        self.blocks.iter().flatten()
    }

    /// Iterates every `(cell, outcome)` in canonical order.
    pub fn records(&self) -> impl Iterator<Item = (GridCell, &CellOutcome)> + '_ {
        self.grid().cells().zip(self.outcomes())
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
                GridExecutor::serial().resolve_cells(&grid, 0..grid.len(), &mut cache),
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
        // Only a cached exploration looks keys up, so only it interns
        // them.
        assert_eq!(snapshot.counter("grid.interner.keys"), None);
        let cached_metrics = Metrics::enabled();
        GridExecutor::parallel(3)
            .with_metrics(&cached_metrics)
            .explore_cached(&grid, &mut ResultCache::new())
            .unwrap();
        let interned = cached_metrics.snapshot().counter("grid.interner.keys");
        assert!(interned.is_some_and(|keys| keys > 0));
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
    fn resolve_cells_fills_exactly_its_range_mid_row() {
        // paper_baseline(5) has blocks of 10 cells (5 rates × 2 goals) and
        // rows of 2: each range starts and ends mid-row, and 3..27 crosses
        // two block boundaries.
        use crate::eval::evaluate;

        let grid = ScenarioGrid::paper_baseline(5);
        let interner = KeyInterner::new(&grid).unwrap();
        for range in [3..27, 1..2, 9..11, 27..grid.len()] {
            for threads in [1, 3] {
                let executor = GridExecutor::parallel(threads);
                let mut cache = ResultCache::new();
                executor
                    .resolve_cells(&grid, range.clone(), &mut cache)
                    .unwrap();
                assert_eq!((cache.hits(), cache.misses()), (0, range.len()));
                assert_eq!(cache.len(), range.len());
                for cell in grid.cells() {
                    let cached = cache.get(&interner.resolve(&cell));
                    if range.contains(&cell.index) {
                        assert_eq!(cached, Some(evaluate(&grid, &cell)), "{range:?}: {cell:?}");
                    } else {
                        assert_eq!(cached, None, "{range:?}: {cell:?} is outside");
                    }
                }
                // The whole grid over that cache: the range hits, the
                // rest is evaluated.
                executor
                    .resolve_cells(&grid, 0..grid.len(), &mut cache)
                    .unwrap();
                assert_eq!(cache.hits(), range.len());
                assert_eq!(cache.misses(), grid.len());
                for cell in grid.cells() {
                    let cached = cache.get(&interner.resolve(&cell));
                    assert_eq!(cached, Some(evaluate(&grid, &cell)), "{cell:?}");
                }
            }
        }
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
