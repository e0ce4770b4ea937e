//! The determinism contract: an N-thread exploration of a full-size grid
//! produces byte-identical reports to the single-threaded run.

use memstream_grid::{
    report, CellOutcome, GridExecutor, GridResults, GridSummary, OutcomeCounts, ScenarioGrid,
};

/// ≥ 3 devices × ≥ 20 rates × ≥ 2 goals, as the engine's acceptance
/// criteria demand (the baseline adds a 4th device and 3 workloads).
fn acceptance_grid() -> ScenarioGrid {
    ScenarioGrid::paper_baseline(24)
}

/// The outcome counts of `results`, recounted over every outcome.
fn recount(results: &GridResults) -> OutcomeCounts {
    let mut counts = OutcomeCounts::default();
    for outcome in results.outcomes() {
        match outcome {
            CellOutcome::Feasible(_) => counts.feasible += 1,
            CellOutcome::Infeasible(_) => counts.infeasible += 1,
            CellOutcome::EnergyOnly(_) => counts.energy_only += 1,
            CellOutcome::Unmodelled(_) => counts.unmodelled += 1,
        }
    }
    counts
}

/// A device that exposes no capability: each of its cells is unmodelled.
#[derive(Debug, Clone)]
struct Bare;

impl memstream_device::StorageDevice for Bare {
    fn kind(&self) -> &'static str {
        "bare"
    }
    fn dedup_token(&self) -> String {
        "bare".to_owned()
    }
    fn capacity(&self) -> memstream_units::DataSize {
        memstream_units::DataSize::from_gigabytes(1.0)
    }
    fn clone_box(&self) -> Box<dyn memstream_device::StorageDevice> {
        Box::new(self.clone())
    }
}

#[test]
fn series_outcome_counts_equal_a_recount() {
    // The baseline has feasible and infeasible cells, the classic grid
    // adds the energy-only disk arm, a grid without DRAM moves the
    // feasibility edges, and a bare device adds unmodelled cells.
    use memstream_grid::DeviceEntry;

    for (grid, energy_only, unmodelled) in [
        (ScenarioGrid::paper_baseline(24), false, false),
        (ScenarioGrid::paper_classic(24), true, false),
        (
            ScenarioGrid::paper_baseline(24).without_dram(),
            false,
            false,
        ),
        (
            ScenarioGrid::paper_baseline(24).device(DeviceEntry::new("bare", Bare)),
            false,
            true,
        ),
    ] {
        let serial = GridExecutor::serial().explore(&grid).expect("run");
        let counts = serial.outcome_counts();
        assert_eq!(counts.energy_only > 0, energy_only);
        assert_eq!(counts.unmodelled > 0, unmodelled);
        assert!(counts.feasible > 0 && counts.infeasible > 0);
        for threads in [1, 2, 8] {
            let results = GridExecutor::parallel(threads).explore(&grid).expect("run");
            assert_eq!(
                results.outcome_counts(),
                recount(&results),
                "{threads} threads"
            );
            assert_eq!(results.outcome_counts(), counts, "{threads} threads");
        }
    }
}

#[test]
fn frontier_counters_at_the_benchmark_size_do_not_depend_on_threads() {
    // At 4 000 rates each series drops the most candidates that its last
    // kept point dominates; its front, and so the final sweep's input and
    // output, stay what a sweep over every feasible point gives.
    use memstream_grid::Metrics;

    let grid = ScenarioGrid::paper_baseline(4000);
    for threads in [1, 2, 8] {
        let metrics = Metrics::enabled();
        let results = GridExecutor::parallel(threads)
            .with_metrics(&metrics)
            .explore(&grid)
            .expect("run");
        let snapshot = metrics.snapshot();
        assert_eq!(
            (
                snapshot.counter("frontier.inserts"),
                snapshot.counter("frontier.evictions")
            ),
            (Some(3505), Some(1074)),
            "{threads} threads"
        );
        assert_eq!(results.pareto_frontier().len(), 3505 - 1074);
    }
}

#[test]
fn parallel_reports_are_byte_identical_to_serial() {
    let grid = acceptance_grid();
    assert!(grid.devices().len() >= 3);
    assert!(grid.rates().len() >= 20);
    assert!(grid.goals().len() >= 2);

    let serial = GridExecutor::serial().explore(&grid).expect("serial run");
    for threads in [2, 4, 8] {
        let parallel = GridExecutor::parallel(threads)
            .explore(&grid)
            .expect("parallel run");
        assert_eq!(
            report::cells_csv(&serial),
            report::cells_csv(&parallel),
            "full CSV diverged at {threads} threads"
        );
        assert_eq!(
            report::frontier_csv(&serial),
            report::frontier_csv(&parallel),
            "frontier CSV diverged at {threads} threads"
        );
        assert_eq!(
            report::frontier_chart(&serial),
            report::frontier_chart(&parallel),
            "ASCII chart diverged at {threads} threads"
        );
        assert_eq!(
            report::summary(&serial),
            report::summary(&parallel),
            "summary diverged at {threads} threads"
        );
    }
}

#[test]
fn oversubscribed_executor_still_matches() {
    // More workers than series: the cursor runs dry and the excess
    // workers exit, but the transcript must not change.
    let grid = ScenarioGrid::paper_baseline(3);
    let serial = GridExecutor::serial().explore(&grid).expect("serial run");
    let wide = GridExecutor::parallel(64).explore(&grid).expect("wide run");
    assert_eq!(report::cells_csv(&serial), report::cells_csv(&wide));
}

#[test]
fn aliased_devices_are_rejected_not_shared() {
    // A device under two names is one scenario twice over: exploration
    // rejects it at every thread count instead of sharing its cells, and
    // the grid without the alias reports every cell.
    use memstream_core::DesignGoal;
    use memstream_device::MemsDevice;
    use memstream_grid::{DeviceEntry, GridError, WorkloadProfile};

    let grid = |alias: bool| {
        let mut grid =
            ScenarioGrid::new().device(DeviceEntry::new("alias-a", MemsDevice::table1()));
        if alias {
            grid = grid.device(DeviceEntry::new("alias-b", MemsDevice::table1()));
        }
        grid.device(DeviceEntry::new(
            "hardened",
            MemsDevice::table1().with_spring_duty_cycles(1e12),
        ))
        .workload(WorkloadProfile::paper())
        .rate_span(32.0, 4096.0, 21)
        .goal(DesignGoal::fig3a())
        .goal(DesignGoal::fig3b())
    };
    for threads in [1, 4] {
        assert_eq!(
            GridExecutor::parallel(threads)
                .explore(&grid(true))
                .unwrap_err(),
            GridError::DuplicateAxisEntry {
                axis: "devices",
                first: 0,
                second: 1,
            }
        );
    }
    let results = GridExecutor::parallel(4)
        .explore(&grid(false))
        .expect("run");
    assert_eq!(results.total_cells(), 2 * 21 * 2);
    let csv = report::cells_csv(&results);
    assert_eq!(csv.lines().count(), 1 + results.total_cells());
}

#[test]
fn partially_warm_caches_match_the_uncached_run() {
    // A cache warmed from a sub-grid: every other rate, and only the
    // second goal. Keys are content-based, so exactly those cells hit:
    // every other rate row mixes a hit and a miss, and the rows between
    // miss both goals.
    use memstream_grid::{CacheFormat, Metrics, ResultCache};

    let grid = acceptance_grid();
    let mut warmed = ScenarioGrid::new();
    for device in grid.devices() {
        warmed = warmed.device(device.clone());
    }
    for workload in grid.workloads() {
        warmed = warmed.workload(workload.clone());
    }
    let warmed = warmed
        .with_rates(grid.rates().iter().step_by(2).copied())
        .goal(grid.goals()[1]);
    let mut seed = ResultCache::new();
    GridExecutor::serial()
        .explore_cached(&warmed, &mut seed)
        .expect("warming run");

    let reference = GridExecutor::serial().explore(&grid).expect("serial run");
    let seed_path = std::env::temp_dir().join(format!(
        "memstream-partially-warm-{}-seed.cache",
        std::process::id()
    ));
    seed.save_as(&seed_path, CacheFormat::default())
        .expect("seed cache saves");
    let mut saved: Option<Vec<u8>> = None;
    for threads in [1, 2, 8] {
        let mut cache = seed.clone();
        let (hits, misses) = (cache.hits(), cache.misses());
        let metrics = Metrics::enabled();
        let results = GridExecutor::parallel(threads)
            .with_metrics(&metrics)
            .explore_cached(&grid, &mut cache)
            .expect("partially warm run");
        assert_eq!(report::cells_csv(&reference), report::cells_csv(&results));
        assert_eq!(
            report::frontier_csv(&reference),
            report::frontier_csv(&results)
        );
        assert_eq!(report::summary(&reference), report::summary(&results));
        // Each series counts its hits' outcomes as it writes them too.
        assert_eq!(results.outcome_counts(), recount(&results));
        assert_eq!(results.outcome_counts(), reference.outcome_counts());
        let (hits, misses) = (cache.hits() - hits, cache.misses() - misses);
        assert_eq!(hits, warmed.len(), "{threads} threads");
        assert_eq!(misses, grid.len() - warmed.len(), "{threads} threads");
        assert_eq!(
            metrics.snapshot().counter("grid.cells_evaluated"),
            Some(misses as u64),
            "{threads} threads"
        );

        let saved_bytes = |cache: &ResultCache, opened: bool| {
            let path = std::env::temp_dir().join(format!(
                "memstream-partially-warm-{}-{threads}-{opened}.cache",
                std::process::id()
            ));
            cache
                .save_as(&path, CacheFormat::default())
                .expect("cache saves");
            let bytes = std::fs::read(&path).expect("saved cache reads");
            std::fs::remove_file(&path).expect("temp file removed");
            bytes
        };
        let bytes = saved_bytes(&cache, false);
        match &saved {
            Some(first) => assert!(*first == bytes, "cache file differs at {threads} threads"),
            None => saved = Some(bytes),
        }

        // The same run over the seed file, opened lazily with telemetry
        // on the executor's threads: each series tallies its lookups in
        // its own cursor and the calling thread publishes them, so every
        // counter reads the same at any thread count: one lookup per
        // cell, one decode per hit, and one index search per lookup. The
        // misses' records enter the cache without a second search: the
        // lookup already made it. Each series times its 2nd, 66th, …
        // lookup, so `cache.lookup` counts ⌈(48 − 1) / 64⌉ = 1 sample for
        // each of the 15 blocks of 24 rates × 2 goals.
        let metrics = Metrics::enabled();
        let executor = GridExecutor::parallel(threads).with_metrics(&metrics);
        let mut lazy = executor.open_cache(&seed_path).expect("seed opens");
        let results = executor
            .explore_cached(&grid, &mut lazy)
            .expect("partially warm lazy run");
        assert_eq!(report::cells_csv(&reference), report::cells_csv(&results));
        let snapshot = metrics.snapshot();
        let counters: Vec<u64> = [
            "cache.hits",
            "cache.misses",
            "cache.records_decoded",
            "cache.index_lookups",
        ]
        .iter()
        .map(|name| snapshot.counter(name).expect("cache counter registered"))
        .chain([snapshot
            .histogram("cache.lookup")
            .expect("lookup histogram registered")
            .count])
        .collect();
        let (hits, misses) = (warmed.len() as u64, (grid.len() - warmed.len()) as u64);
        assert_eq!(
            counters,
            [hits, misses, hits, hits + misses, 15],
            "{threads} threads"
        );
        assert_eq!(
            (lazy.hits(), lazy.misses()),
            (warmed.len(), grid.len() - warmed.len())
        );
        assert!(
            saved.as_ref() == Some(&saved_bytes(&lazy, true)),
            "the opened cache saves other bytes at {threads} threads"
        );
    }
    std::fs::remove_file(&seed_path).expect("seed file removed");
}

/// What a summary reader sees of one exploration.
struct Seen {
    summary: GridSummary,
    /// The default stdout (`harness grid` without `--full-csv`).
    stdout: String,
    /// Every counter but the run-to-run per-worker split, then every
    /// histogram's count and every span's entries.
    counters: Vec<(String, u64)>,
    /// The bytes the cache saves afterwards, if there is one.
    saved: Option<Vec<u8>>,
}

/// Explores `grid` on `threads` workers, over a cache opened from `seed`
/// when there is one (a missing file for a cold run), keeping every
/// cell's outcome when `table` asks for it.
fn explore_seen(
    grid: &ScenarioGrid,
    threads: usize,
    seed: Option<&std::path::Path>,
    table: bool,
) -> Seen {
    use memstream_grid::{CacheFormat, Metrics, ResultCache};

    let metrics = Metrics::enabled();
    let executor = GridExecutor::parallel(threads).with_metrics(&metrics);
    let mut cache = seed.map(|path| ResultCache::open(path, &metrics).expect("seed opens"));
    let (summary, stdout) = if table {
        let results = match cache.as_mut() {
            Some(cache) => executor.explore_cached(grid, cache),
            None => executor.explore(grid),
        }
        .expect("full run");
        let stdout = report::grid_stdout(&results, false);
        (GridSummary::clone(&results), stdout)
    } else {
        let summary = executor
            .explore_summary(grid, cache.as_mut())
            .expect("summary run");
        let stdout = report::summary_stdout(&summary);
        (summary, stdout)
    };
    let saved = cache.map(|cache| {
        let path = std::env::temp_dir().join(format!(
            "memstream-summary-{}-{threads}-{table}.cache",
            std::process::id()
        ));
        cache
            .save_as(&path, CacheFormat::default())
            .expect("cache saves");
        let bytes = std::fs::read(&path).expect("saved cache reads");
        std::fs::remove_file(&path).expect("temp file removed");
        bytes
    });
    let snapshot = metrics.snapshot();
    let counters = snapshot
        .counters
        .iter()
        .filter(|c| !c.name.starts_with("grid.worker."))
        .map(|c| (c.name.clone(), c.value))
        .chain(
            snapshot
                .histograms
                .iter()
                .map(|h| (h.name.clone(), h.count)),
        )
        .chain(snapshot.spans.iter().map(|s| (s.name.clone(), s.entries)))
        .collect();
    Seen {
        summary,
        stdout,
        counters,
        saved,
    }
}

#[test]
fn summary_explorations_equal_the_full_explorations_summary() {
    // The summary exploration keeps no per-cell outcome table. What it
    // keeps — outcome counts, frontier, the `frontier.*` and every other
    // counter, and the default stdout — must equal what the full
    // exploration gives, uncached and over a cold, a partially warm and
    // a warm cache, whose saved files must not differ either. The grids
    // cover the feasible/infeasible edges, the energy-only disk, a grid
    // without DRAM and a device with no capability at all.
    use memstream_grid::{CacheFormat, DeviceEntry, ResultCache};

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let grids = [
        ScenarioGrid::paper_baseline(400),
        ScenarioGrid::paper_classic(60),
        ScenarioGrid::paper_baseline(60).without_dram(),
        ScenarioGrid::paper_baseline(24).device(DeviceEntry::new("bare", Bare)),
    ];
    for (g, grid) in grids.iter().enumerate() {
        // A partially warm seed: every other rate, second goal only.
        let mut warmed = ScenarioGrid::new();
        for device in grid.devices() {
            warmed = warmed.device(device.clone());
        }
        for workload in grid.workloads() {
            warmed = warmed.workload(workload.clone());
        }
        if !grid.dram_enabled() {
            warmed = warmed.without_dram();
        }
        let warmed = warmed
            .with_rates(grid.rates().iter().step_by(2).copied())
            .goal(grid.goals()[1]);
        let seeds = [(&warmed, "partial"), (grid, "warm")].map(|(seed_grid, name)| {
            let mut seed = ResultCache::new();
            GridExecutor::parallel(2)
                .explore_cached(seed_grid, &mut seed)
                .expect("seeding run");
            let path = dir.join(format!("memstream-summary-{pid}-{g}-{name}.cache"));
            seed.save_as(&path, CacheFormat::default())
                .expect("seed saves");
            path
        });
        let cold = dir.join(format!("memstream-summary-{pid}-{g}-cold.cache"));
        for seed in [None, Some(&cold), Some(&seeds[0]), Some(&seeds[1])] {
            let seed = seed.map(std::path::PathBuf::as_path);
            let reference = explore_seen(grid, 1, seed, true);
            assert!(!reference.summary.pareto_frontier().is_empty());
            for threads in [1, 2, 8] {
                let seen = explore_seen(grid, threads, seed, false);
                let case = format!("grid {g}, {threads} threads, {seed:?}");
                assert_eq!(seen.summary, reference.summary, "{case}");
                assert!(seen.stdout == reference.stdout, "{case}");
                assert_eq!(seen.counters, reference.counters, "{case}");
                assert!(seen.saved == reference.saved, "{case}");
            }
        }
        for path in seeds {
            std::fs::remove_file(path).expect("seed removed");
        }
    }
}
