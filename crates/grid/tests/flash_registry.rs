//! Acceptance tests for the open device registry: the flash backend rides
//! the default grid end to end — evaluation, frontier, reports, sim
//! validation — with zero flash-specific code anywhere in the grid crate,
//! and a device type defined outside the workspace runs the same path as
//! the registered types.

use memstream_core::DesignGoal;
use memstream_device::{
    DeviceError, EnergyModelled, FlashDevice, MemsDevice, StorageDevice, UtilizationSpec,
    WearModelled,
};
use memstream_grid::{
    report, validate_frontier, CellOutcome, DeviceEntry, GridExecutor, ScenarioGrid, SkipReason,
    WorkloadProfile,
};
use memstream_units::DataSize;

#[test]
fn flash_appears_on_the_default_frontier() {
    let grid = ScenarioGrid::paper_baseline(12);
    let results = GridExecutor::parallel(4).explore(&grid).expect("explore");
    let frontier = results.pareto_frontier();
    let flash_points: Vec<_> = frontier
        .iter()
        .filter(|p| grid.devices()[p.cell.device].device().kind() == "flash")
        .collect();
    assert!(
        !flash_points.is_empty(),
        "flash must appear on the default grid's Pareto frontier"
    );
    // Flash's fixed 93% utilisation beats the MEMS format supremum (8/9),
    // which is exactly why it cannot be dominated by any MEMS cell.
    for p in &flash_points {
        assert!(p.point.utilization.fraction() > 0.92);
    }
    // And the frontier still carries MEMS points (flash does not sweep the
    // board: MEMS wins the high-saving corner).
    assert!(frontier
        .iter()
        .any(|p| grid.devices()[p.cell.device].device().kind() == "mems"));
}

#[test]
fn flash_cells_report_erase_wear_regions() {
    let grid = ScenarioGrid::paper_baseline(8);
    let results = GridExecutor::serial().explore(&grid).expect("explore");
    let flash_idx = grid
        .devices()
        .iter()
        .position(|d| d.device().kind() == "flash")
        .expect("flash registered");
    let mut lpe = 0;
    for (cell, outcome) in results.records() {
        if cell.device != flash_idx {
            continue;
        }
        match outcome {
            CellOutcome::Feasible(p) => {
                if p.dominant == "Lpe" {
                    lpe += 1;
                }
            }
            CellOutcome::Infeasible { .. } => {}
            other => panic!("flash cell not fully modelled: {other:?}"),
        }
    }
    assert!(lpe > 0, "erase-block wear dictates some flash buffers");
}

#[test]
fn flash_grid_is_deterministic_across_thread_counts() {
    let grid = ScenarioGrid::paper_baseline(10);
    let serial = GridExecutor::serial().explore(&grid).expect("serial");
    for threads in [2, 5, 16] {
        let parallel = GridExecutor::parallel(threads)
            .explore(&grid)
            .expect("parallel");
        assert_eq!(
            report::grid_stdout(&serial, true),
            report::grid_stdout(&parallel, true),
            "flash grid diverged at {threads} threads"
        );
    }
}

#[test]
fn validation_ledger_attributes_every_skip() {
    let results = GridExecutor::parallel(2)
        .explore(&ScenarioGrid::paper_baseline(6))
        .expect("explore");
    let validation = validate_frontier(&results, 20.0);
    assert_eq!(
        validation.rows.len() + validation.skips.len(),
        validation.frontier_cells
    );
    // Any capability skip must name a non-sim-backed device family; the
    // frontier only holds full-pipeline cells, so no skip may be
    // anonymous.
    for skip in &validation.skips {
        assert!(!skip.device.is_empty());
        if let SkipReason::NotSimBacked { kind } = &skip.reason {
            assert_ne!(*kind, "mems");
            assert_ne!(*kind, "flash");
        }
    }
}

#[test]
fn a_derated_flash_part_slots_into_the_registry() {
    // The refactor's point: adding or modifying a device is pure registry
    // work. A low-endurance part plans larger buffers (or fails) where
    // the stock part succeeds.
    fn weak_flash() -> Result<FlashDevice, DeviceError> {
        FlashDevice::builder()
            .name("weak flash")
            .pe_cycles(40.0)
            .build()
    }
    let weak = weak_flash().expect("valid derated part");
    let stock = FlashDevice::mobile_mlc();
    assert_ne!(weak.dedup_token(), stock.dedup_token());

    let grid = ScenarioGrid::new()
        .device(DeviceEntry::new("stock", stock))
        .device(DeviceEntry::new("weak", weak))
        .workload(WorkloadProfile::paper())
        .rate_span(256.0, 2048.0, 6)
        .goal(DesignGoal::fig3b());
    let results = GridExecutor::serial().explore(&grid).expect("explore");
    let mut stock_buffers = Vec::new();
    let mut weak_buffers = Vec::new();
    for (cell, outcome) in results.records() {
        if let CellOutcome::Feasible(p) = outcome {
            if cell.device == 0 {
                stock_buffers.push(p.buffer.kibibytes());
            } else {
                weak_buffers.push(p.buffer.kibibytes());
            }
        }
    }
    assert!(!stock_buffers.is_empty());
    // Wherever the weak part is feasible at all, its erase budget demands
    // a strictly larger buffer than the stock part's.
    for (w, s) in weak_buffers.iter().zip(&stock_buffers) {
        assert!(w > s, "weak part planned {w} KiB <= stock {s} KiB");
    }
}

/// A device type the workspace has never seen: it hands every capability
/// of a registered device through under a kind of its own.
#[derive(Debug, Clone)]
struct Forwarding<D>(D);

impl<D: StorageDevice + Clone + 'static> StorageDevice for Forwarding<D> {
    fn kind(&self) -> &'static str {
        "forwarding"
    }
    fn dedup_token(&self) -> String {
        format!("forwarding:{}", self.0.dedup_token())
    }
    fn capacity(&self) -> DataSize {
        self.0.capacity()
    }
    fn energy(&self) -> Option<&dyn EnergyModelled> {
        self.0.energy()
    }
    fn wear(&self) -> Option<&dyn WearModelled> {
        self.0.wear()
    }
    fn utilization(&self) -> Option<UtilizationSpec> {
        self.0.utilization()
    }
    fn clone_box(&self) -> Box<dyn StorageDevice> {
        Box::new(self.clone())
    }
}

#[test]
fn an_outside_device_type_evaluates_like_the_device_it_forwards() {
    let mut grid = ScenarioGrid::new()
        .device(DeviceEntry::new("table1", MemsDevice::table1()))
        .device(DeviceEntry::new(
            "fwd-table1",
            Forwarding(MemsDevice::table1()),
        ))
        .device(DeviceEntry::new("flash-mlc", FlashDevice::mobile_mlc()))
        .device(DeviceEntry::new(
            "fwd-flash",
            Forwarding(FlashDevice::mobile_mlc()),
        ));
    for profile in ScenarioGrid::paper_baseline(2).workloads() {
        grid = grid.workload(profile.clone());
    }
    let grid = grid
        .rate_span(32.0, 4096.0, 40)
        .goal(DesignGoal::fig3a())
        .goal(DesignGoal::fig3b());

    for executor in [GridExecutor::serial(), GridExecutor::parallel(3)] {
        let results = executor.explore(&grid).expect("explore");
        // Device is the outermost axis, so each device's cells form one
        // block, in the same (workload, rate, goal) order.
        let mut blocks = vec![Vec::new(); grid.devices().len()];
        for (cell, outcome) in results.records() {
            blocks[cell.device].push(format!("{outcome:?}"));
        }
        for (device, twin) in [(0, 1), (2, 3)] {
            assert_eq!(blocks[device], blocks[twin], "device {twin} diverged");
        }
        let feasible = results
            .records()
            .filter(|(cell, outcome)| {
                cell.device % 2 == 1 && matches!(outcome, CellOutcome::Feasible(_))
            })
            .count();
        assert!(feasible > 0, "the forwarding devices planned no buffer");
    }
}
