//! Cross-crate integration tests: plans satisfy the models that produced
//! them, sweeps are internally consistent, and the public API composes.

use memstream_core::{log_spaced_rates, DesignGoal, Requirement, SweepBuilder, SystemModel};
use memstream_device::MemsDevice;
use memstream_units::{BitRate, DataSize, Ratio, Years};

fn system(kbps: f64) -> SystemModel {
    SystemModel::paper_default(BitRate::from_kbps(kbps))
}

#[test]
fn every_feasible_plan_satisfies_its_goal() {
    let goal = DesignGoal::fig3b();
    for rate in log_spaced_rates(32.0, 2000.0, 15) {
        let m = system(rate.kilobits_per_second());
        let Ok(plan) = m.dimension(&goal) else {
            continue;
        };
        let b = plan.buffer();
        assert!(
            m.utilization(b).percent() >= 88.0 - 1e-9,
            "capacity violated at {rate}"
        );
        assert!(
            m.saving(b).unwrap() >= 0.70 - 1e-9,
            "saving violated at {rate}"
        );
        assert!(
            m.device_lifetime(b).get() >= 7.0 - 1e-6,
            "lifetime violated at {rate}"
        );
    }
}

#[test]
fn required_buffer_is_minimal_among_requirements() {
    // Shrinking the planned buffer by 2% must violate the dominant
    // requirement.
    let goal = DesignGoal::fig3b();
    let m = system(1024.0);
    let plan = m.dimension(&goal).unwrap();
    let smaller = plan.buffer() * 0.98;
    let violated = match plan.dominant() {
        Requirement::Capacity => m.utilization(smaller).percent() < 88.0,
        Requirement::Energy => m.saving(smaller).unwrap() < 0.70,
        Requirement::SpringsLifetime => m.springs_lifetime(smaller).get() < 7.0,
        Requirement::ProbesLifetime => m.probes_lifetime(smaller).get() < 7.0,
        // The MEMS system model has no erase-block channel.
        Requirement::EraseLifetime => unreachable!("MEMS plans are never erase-dominated"),
    };
    assert!(
        violated,
        "shrunken buffer still satisfies {}",
        plan.dominant()
    );
}

#[test]
fn region_sequence_over_the_full_range_fig3a() {
    // Fig. 3a reads C ... E ... X left to right.
    let m = system(1024.0);
    let sweep = SweepBuilder::new(&m);
    let points = sweep.rate_sweep(&DesignGoal::fig3a(), log_spaced_rates(32.0, 4096.0, 40));
    let labels: Vec<&str> = points.iter().map(|p| p.region_label()).collect();
    // Deduplicate consecutive labels to get the region sequence.
    let mut seq: Vec<&str> = Vec::new();
    for l in labels {
        if seq.last() != Some(&l) {
            seq.push(l);
        }
    }
    assert_eq!(seq, vec!["C", "E", "X"], "region sequence {seq:?}");
}

#[test]
fn region_sequence_over_the_feasible_range_fig3b() {
    // Fig. 3b reads C ... Lsp (then the probes wall).
    let m = system(1024.0);
    let sweep = SweepBuilder::new(&m);
    let points = sweep.rate_sweep(&DesignGoal::fig3b(), log_spaced_rates(32.0, 2500.0, 30));
    let mut seq: Vec<&str> = Vec::new();
    for p in &points {
        let l = p.region_label();
        if seq.last() != Some(&l) {
            seq.push(l);
        }
    }
    assert_eq!(seq.first(), Some(&"C"));
    assert!(seq.contains(&"Lsp"), "sequence {seq:?}");
}

#[test]
fn required_buffer_grows_with_rate_in_the_springs_region() {
    // Lsp-dictated buffer is linear in rs.
    let goal = DesignGoal::fig3b();
    let b1 = system(800.0).dimension(&goal).unwrap().buffer();
    let b2 = system(1600.0).dimension(&goal).unwrap().buffer();
    let ratio = b2 / b1;
    assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
}

#[test]
fn energy_buffer_separates_from_required_buffer() {
    // Fig. 3b: "a difference of 1 to 2 orders of magnitude between the
    // required buffer and the energy-efficiency buffer."
    let m = system(512.0);
    let plan = m.dimension(&DesignGoal::fig3b()).unwrap();
    let energy_b = m
        .energy_model()
        .min_buffer_for_saving(Ratio::from_percent(70.0))
        .unwrap();
    let orders = (plan.buffer() / energy_b).log10();
    assert!((0.5..2.5).contains(&orders), "{orders} orders");
}

#[test]
fn sweep_points_agree_with_direct_queries() {
    let m = system(1024.0);
    let sweep = SweepBuilder::new(&m);
    let buffers = vec![
        DataSize::from_kibibytes(5.0),
        DataSize::from_kibibytes(20.0),
        DataSize::from_kibibytes(45.0),
    ];
    let points = sweep.buffer_sweep(buffers.clone());
    for (p, b) in points.iter().zip(&buffers) {
        assert_eq!(p.buffer, *b);
        assert_eq!(p.utilization, m.utilization(*b));
        assert_eq!(p.springs_lifetime, m.springs_lifetime(*b));
        assert_eq!(p.probes_lifetime, m.probes_lifetime(*b));
        assert_eq!(p.energy_per_bit.unwrap(), m.per_bit_energy(*b).unwrap());
    }
}

#[test]
fn upgraded_ratings_never_shrink_the_feasible_set() {
    // Fig. 3b -> Fig. 3c: better hardware can only help.
    let goal = DesignGoal::fig3b();
    let upgraded = MemsDevice::table1()
        .with_probe_write_cycles(200.0)
        .with_spring_duty_cycles(1e12);
    for rate in log_spaced_rates(32.0, 4096.0, 20) {
        let base = system(rate.kilobits_per_second());
        let better = base.with_device(upgraded.clone());
        if base.dimension(&goal).is_ok() {
            assert!(
                better.dimension(&goal).is_ok(),
                "upgrade broke feasibility at {rate}"
            );
        }
        if let (Ok(pb), Ok(pu)) = (base.dimension(&goal), better.dimension(&goal)) {
            assert!(pu.buffer() <= pb.buffer() + DataSize::from_bits(1.0));
        }
    }
}

#[test]
fn relaxing_any_target_never_grows_the_buffer() {
    let m = system(1024.0);
    let strict = m.dimension(&DesignGoal::fig3b()).unwrap();

    let relaxed_c = DesignGoal::new()
        .energy_saving(Ratio::from_percent(70.0))
        .capacity_utilization(Ratio::from_percent(85.0))
        .lifetime(Years::new(7.0));
    let relaxed_l = DesignGoal::new()
        .energy_saving(Ratio::from_percent(70.0))
        .capacity_utilization(Ratio::from_percent(88.0))
        .lifetime(Years::new(4.0));
    let relaxed_e = DesignGoal::new()
        .energy_saving(Ratio::from_percent(50.0))
        .capacity_utilization(Ratio::from_percent(88.0))
        .lifetime(Years::new(7.0));

    for relaxed in [relaxed_c, relaxed_l, relaxed_e] {
        let plan = m.dimension(&relaxed).unwrap();
        assert!(
            plan.buffer() <= strict.buffer(),
            "relaxed goal {relaxed} needs more buffer than the strict one"
        );
    }
}

#[test]
fn infeasibility_reports_are_specific() {
    // Each infeasible goal names the right requirement.
    let high_rate = system(4096.0);

    let err = high_rate.dimension(&DesignGoal::fig3a()).unwrap_err();
    assert!(err.to_string().contains("energy"), "{err}");

    let err = high_rate
        .dimension(&DesignGoal::new().capacity_utilization(Ratio::from_percent(95.0)))
        .unwrap_err();
    assert!(err.to_string().contains("capacity"), "{err}");

    let err = high_rate
        .dimension(&DesignGoal::new().lifetime(Years::new(7.0)))
        .unwrap_err();
    assert!(err.to_string().contains("probes"), "{err}");
}

#[test]
fn x_axis_helpers_cover_the_paper_range() {
    let rates = log_spaced_rates(32.0, 4096.0, 50);
    assert_eq!(rates.len(), 50);
    assert!(rates.iter().all(|r| {
        let k = r.kilobits_per_second();
        (31.9..=4096.1).contains(&k)
    }));
}

#[test]
fn the_paper_system_plans_every_mems_grid_cell_as_the_grid_does() {
    // `harness custom` answers through `SystemModel`, the grid through
    // its per-series capability model. On every cell `custom` can name
    // (a concrete MEMS device, any reference workload, rate and goal),
    // the two must agree to the last bit, infeasibility errors included.
    use memstream_core::BestEffortPolicy;
    use memstream_device::DramModel;
    use memstream_grid::{CellOutcome, DeviceEntry, GridExecutor, ScenarioGrid};

    let devices = [
        ("table1", MemsDevice::table1()),
        (
            "wear-hardened",
            MemsDevice::table1()
                .with_probe_write_cycles(200.0)
                .with_spring_duty_cycles(1e12),
        ),
        (
            "prototype",
            MemsDevice::table1()
                .with_probe_write_cycles(50.0)
                .with_spring_duty_cycles(1e7),
        ),
    ];
    let baseline = ScenarioGrid::paper_baseline(64);
    let mut grid = ScenarioGrid::new().with_rates(baseline.rates().iter().copied());
    for (name, device) in &devices {
        grid = grid.device(DeviceEntry::new(*name, device.clone()));
    }
    for profile in baseline.workloads() {
        grid = grid.workload(profile.clone());
    }
    for goal in baseline.goals() {
        grid = grid.goal(*goal);
    }
    assert_eq!(grid.len(), 1152);

    let results = GridExecutor::serial().explore(&grid).expect("explore");
    let (mut feasible, mut infeasible) = (0, 0);
    for cell in grid.cells() {
        let device = devices[cell.device].1.clone();
        let workload = grid.workloads()[cell.workload]
            .workload()
            .with_rate(grid.rates()[cell.rate]);
        let model = SystemModel::new(
            device,
            workload,
            Some(DramModel::micron_ddr_mobile()),
            BestEffortPolicy::AtReadWrite,
        );
        let at = format!("cell {} ({cell:?})", cell.index);
        match (
            model.dimension(&grid.goals()[cell.goal]),
            results.outcome(cell.index),
        ) {
            (Ok(plan), CellOutcome::Feasible(point)) => {
                let b = plan.buffer();
                assert_eq!(b.bits(), point.buffer.bits(), "{at}");
                assert_eq!(plan.dominant().label(), point.dominant, "{at}");
                assert_eq!(model.saving(b).ok(), point.saving, "{at}");
                assert_eq!(model.utilization(b), point.utilization, "{at}");
                assert_eq!(
                    model.device_lifetime(b).get().to_bits(),
                    point.lifetime.get().to_bits(),
                    "{at}"
                );
                feasible += 1;
            }
            (Err(err), CellOutcome::Infeasible(grid_err)) => {
                assert_eq!(&err, grid_err, "{at}");
                infeasible += 1;
            }
            (ours, theirs) => panic!("{at}: SystemModel says {ours:?}, the grid {theirs:?}"),
        }
    }
    assert!(feasible > 0 && infeasible > 0, "{feasible} / {infeasible}");
}
