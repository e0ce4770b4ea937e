//! Acceptance tests for the refinement loop: knee localisation, thread
//! determinism, cache-backed incrementality, and uncached rounds that
//! touch no cache.

use memstream_grid::{GridExecutor, Metrics, ResultCache, ScenarioGrid};
use memstream_refine::{report, RefineConfig, RefinementEngine};

fn engine(threads: usize, bound: f64) -> RefinementEngine {
    let executor = if threads == 1 {
        GridExecutor::serial()
    } else {
        GridExecutor::parallel(threads)
    };
    RefinementEngine::new(executor, RefineConfig::default().with_width_bound(bound))
}

#[test]
fn every_transition_is_localized_to_the_width_bound() {
    let grid = ScenarioGrid::paper_baseline(10);
    let outcome = engine(4, 0.02).refine(&grid, None).expect("refine");
    let rep = &outcome.report;
    assert!(!rep.knees.is_empty(), "the reference grid has knees");
    assert!(rep.fully_localized(), "a knee exceeded the width bound");
    for knee in &rep.knees {
        assert!(
            knee.relative_width() <= 0.02,
            "{}..{} kbps is {:.3}% wide",
            knee.lower.kilobits_per_second(),
            knee.upper.kilobits_per_second(),
            knee.relative_width() * 100.0,
        );
        assert_ne!(knee.from, knee.to);
        assert!(knee.lower < knee.upper);
    }
    // Refinement actually appended rates: the 10-sample axis spans a
    // factor 128 in rate, so its raw gaps are ~71% wide.
    assert!(rep.final_rates > rep.initial_rates);
    assert!(rep.rounds.len() > 1);
}

#[test]
fn knees_survive_in_every_coarse_interval_they_started_in() {
    // Refinement only narrows brackets: every knee of the refined grid
    // must sit inside some adjacent pair of the original coarse axis
    // whose labels differed — no transition is invented or lost.
    let grid = ScenarioGrid::paper_baseline(12);
    let coarse = engine(2, 1e9).refine(&grid, None).expect("coarse");
    let refined = engine(2, 0.02).refine(&grid, None).expect("refined");
    // A huge width bound means zero refinement rounds: the coarse run's
    // knees are exactly the unrefined flip intervals.
    assert_eq!(coarse.report.rounds.len(), 1);
    for knee in &refined.report.knees {
        let host = coarse.report.knees.iter().find(|c| {
            (c.device, c.workload, c.goal) == (knee.device, knee.workload, knee.goal)
                && c.lower <= knee.lower
                && knee.upper <= c.upper
        });
        assert!(
            host.is_some(),
            "refined knee at {:.1} kbps has no coarse host interval",
            knee.lower.kilobits_per_second()
        );
    }
    // Bisection can only *reveal* transitions (a midpoint may expose a
    // narrow region the coarse axis stepped over, e.g. C->E resolving
    // into C->Lsp->E), never drop one: every coarse flip interval still
    // hosts at least one refined knee.
    assert!(refined.report.knees.len() >= coarse.report.knees.len());
    for c in &coarse.report.knees {
        assert!(
            refined.report.knees.iter().any(|r| {
                (r.device, r.workload, r.goal) == (c.device, c.workload, c.goal)
                    && c.lower <= r.lower
                    && r.upper <= c.upper
            }),
            "coarse knee at {:.1} kbps lost during refinement",
            c.lower.kilobits_per_second()
        );
    }
}

#[test]
fn report_bytes_are_identical_across_thread_counts() {
    let grid = ScenarioGrid::paper_baseline(8);
    let serial = engine(1, 0.05).refine(&grid, None).expect("serial");
    let wide = engine(8, 0.05).refine(&grid, None).expect("parallel");
    assert_eq!(serial.report, wide.report);
    assert_eq!(
        report::refine_stdout(&serial),
        report::refine_stdout(&wide),
        "refine stdout must not depend on the thread count"
    );
}

#[test]
fn warm_rounds_only_evaluate_appended_rates() {
    let grid = ScenarioGrid::paper_baseline(8);
    let mut cache = ResultCache::new();
    let outcome = engine(4, 0.05)
        .refine(&grid, Some(&mut cache))
        .expect("refine");
    let rounds = &outcome.report.rounds;
    assert!(rounds.len() > 1, "refinement must iterate");
    // Round 1 is all misses against an empty cache.
    assert_eq!(rounds[0].hits, 0);
    assert_eq!(rounds[0].misses, rounds[0].cells);
    // Every later round re-reads all previously evaluated cells from the
    // cache and evaluates exactly the appended rates' worth of new ones.
    for pair in rounds.windows(2) {
        let (prev, cur) = (&pair[0], &pair[1]);
        assert_eq!(cur.hits, prev.cells, "round {}", cur.round);
        assert_eq!(
            cur.misses,
            cur.cells - prev.cells,
            "round {} re-evaluated old cells",
            cur.round
        );
        assert!(!cur.appended.is_empty());
    }
}

#[test]
fn a_warm_cache_rerun_evaluates_nothing_and_reproduces_the_bytes() {
    let grid = ScenarioGrid::paper_baseline(8);
    let mut cache = ResultCache::new();
    let cold = engine(2, 0.05)
        .refine(&grid, Some(&mut cache))
        .expect("cold");
    assert!(cold.report.total_misses() > 0);

    // Same cache, different thread count: the trajectory replays from
    // cache alone.
    let warm = engine(8, 0.05)
        .refine(&grid, Some(&mut cache))
        .expect("warm");
    assert_eq!(warm.report.total_misses(), 0, "warm run evaluated cells");
    assert_eq!(
        report::refine_stdout(&cold),
        report::refine_stdout(&warm),
        "cold and warm stdout must match byte-for-byte"
    );
    assert_eq!(cold.report.knees, warm.report.knees);

    // No cache at all: every round evaluates its whole grid, touches no
    // cache, and prints the same bytes.
    let metrics = Metrics::enabled();
    let uncached = RefinementEngine::new(
        GridExecutor::parallel(4).with_metrics(&metrics),
        RefineConfig::default().with_width_bound(0.05),
    )
    .refine(&grid, None)
    .expect("uncached");
    assert_eq!(
        report::refine_stdout(&cold),
        report::refine_stdout(&uncached),
        "uncached stdout must match the cached runs' byte-for-byte"
    );
    assert_eq!(cold.report.knees, uncached.report.knees);
    assert_eq!(cold.report.rounds.len(), uncached.report.rounds.len());
    for (c, u) in cold.report.rounds.iter().zip(&uncached.report.rounds) {
        assert_eq!(
            (c.round, c.rates, &c.appended, c.transitions, c.cells),
            (u.round, u.rates, &u.appended, u.transitions, u.cells),
        );
        assert_eq!(u.hits, 0, "round {} hit a cache", u.round);
        assert_eq!(u.misses, u.cells, "round {} skipped cells", u.round);
    }
    let cells: u64 = uncached.report.rounds.iter().map(|r| r.cells as u64).sum();
    let snapshot = metrics.snapshot();
    assert_eq!(snapshot.counter("refine.hits"), Some(0));
    assert_eq!(snapshot.counter("refine.misses"), Some(cells));
    assert_eq!(snapshot.counter("grid.cells_evaluated"), Some(cells));
    assert_eq!(
        snapshot.counter("grid.interner.keys"),
        None,
        "only a cached exploration builds a key interner"
    );
}

#[test]
fn round_and_cell_budgets_truncate_gracefully() {
    let grid = ScenarioGrid::paper_baseline(8);
    let tight_rounds = RefinementEngine::new(
        GridExecutor::serial(),
        RefineConfig::default()
            .with_width_bound(0.001)
            .with_max_rounds(2),
    )
    .refine(&grid, None)
    .expect("refine");
    assert_eq!(tight_rounds.report.rounds.len(), 2);
    assert!(!tight_rounds.report.fully_localized());
    assert!(tight_rounds.report.unresolved().count() > 0);

    // A cell budget at the initial grid size blocks every bisection.
    let initial_cells = ScenarioGrid::paper_baseline(8).len();
    let tight_cells = RefinementEngine::new(
        GridExecutor::serial(),
        RefineConfig::default()
            .with_width_bound(0.001)
            .with_max_cells(initial_cells),
    )
    .refine(&grid, None)
    .expect("refine");
    assert_eq!(tight_cells.report.rounds.len(), 1);
    assert_eq!(tight_cells.report.final_rates, 8);
}

#[test]
fn unsorted_and_duplicated_rate_axes_are_canonicalized() {
    use memstream_units::BitRate;
    let sorted = ScenarioGrid::paper_baseline(6);
    let mut shuffled_rates: Vec<BitRate> = sorted.rates().to_vec();
    shuffled_rates.reverse();
    shuffled_rates.push(sorted.rates()[2]); // duplicate
    let shuffled = sorted.with_rate_axis(shuffled_rates);

    let a = engine(2, 0.05).refine(&sorted, None).expect("sorted");
    let b = engine(2, 0.05).refine(&shuffled, None).expect("shuffled");
    assert_eq!(a.report, b.report);
    assert_eq!(report::refine_stdout(&a), report::refine_stdout(&b));
}
