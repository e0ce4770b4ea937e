//! The determinism contract: an N-thread exploration of a full-size grid
//! produces byte-identical reports to the single-threaded run.

use memstream_grid::{report, GridExecutor, ScenarioGrid};

/// ≥ 3 devices × ≥ 20 rates × ≥ 2 goals, as the engine's acceptance
/// criteria demand (the baseline adds a 4th device and 3 workloads).
fn acceptance_grid() -> ScenarioGrid {
    ScenarioGrid::paper_baseline(24)
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
