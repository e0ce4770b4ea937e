//! Integration tests for the extensions beyond the paper (DESIGN.md §6):
//! stream mixes, wear imbalance, duty-cycle comparison, format exploration
//! and parameter sensitivity — exercised across crate boundaries.

use memstream_core::{
    buffer_sensitivity, duty_cycle_lifetime, min_buffer_for_duty_cycles, DesignGoal, SystemModel,
};
use memstream_device::{DiskDevice, MemsDevice};
use memstream_media::{stripe_width_sweep, EccPolicy};
use memstream_sim::{SimConfig, StreamingSimulation};
use memstream_units::{BitRate, DataSize, Duration, Ratio, Years};
use memstream_workload::{PlaybackCalendar, StreamMix, StreamSpec, Workload};

#[test]
fn stream_mix_feeds_the_dimensioner() {
    // Play one program while recording another; the aggregate stream runs
    // through the unchanged single-stream machinery.
    let mix = StreamMix::new(vec![
        StreamSpec::read_only(BitRate::from_kbps(800.0)).unwrap(),
        StreamSpec::new(BitRate::from_kbps(224.0), Ratio::ONE).unwrap(),
    ])
    .unwrap();
    let agg = mix.aggregate();
    let workload = Workload::new(
        agg,
        PlaybackCalendar::paper_default(),
        Ratio::from_percent(5.0),
    )
    .unwrap();
    let model = SystemModel::new(MemsDevice::table1(), workload, None, Default::default());
    let plan = model.dimension(&DesignGoal::fig3b()).unwrap();
    assert!(plan.buffer() > DataSize::ZERO);
    // The mix writes 224/1024 of the traffic; probes wear slower than the
    // paper's 40%-write default at the same total rate.
    let default_model = SystemModel::paper_default(BitRate::from_kbps(1024.0)).without_dram();
    let b = DataSize::from_kibibytes(20.0);
    assert!(model.probes_lifetime(b).get() > default_model.probes_lifetime(b).get());
}

#[test]
fn sim_with_mix_matches_model_with_mix() {
    let mix = StreamMix::new(vec![
        StreamSpec::read_only(BitRate::from_kbps(614.4)).unwrap(),
        StreamSpec::new(BitRate::from_kbps(409.6), Ratio::ONE).unwrap(),
    ])
    .unwrap();
    let workload = Workload::new(
        mix.aggregate(),
        PlaybackCalendar::paper_default(),
        Ratio::from_percent(5.0),
    )
    .unwrap();
    // The aggregate equals the paper's 1024 kbps / 40% workload, so the
    // cross-validated closed forms apply verbatim.
    let report = StreamingSimulation::new(SimConfig::cbr(
        MemsDevice::table1(),
        workload,
        DataSize::from_kibibytes(20.0),
    ))
    .unwrap()
    .run(Duration::from_seconds(300.0));
    let model = SystemModel::paper_default(BitRate::from_kbps(1024.0)).without_dram();
    let sim = report.total_energy().joules()
        / (DataSize::from_kibibytes(20.0).bits() * report.cycles as f64);
    let ana = model
        .per_bit_energy(DataSize::from_kibibytes(20.0))
        .unwrap()
        .joules_per_bit();
    assert!((sim - ana).abs() / ana < 0.01);
}

#[test]
fn wear_skew_degrades_lifetime_but_not_energy() {
    let run = |skew: f64| {
        StreamingSimulation::new(
            SimConfig::cbr(
                MemsDevice::table1(),
                Workload::paper_default(BitRate::from_kbps(1024.0)),
                DataSize::from_kibibytes(20.0),
            )
            .with_probe_skew(skew),
        )
        .unwrap()
        .run(Duration::from_seconds(120.0))
    };
    let balanced = run(0.0);
    let skewed = run(2.0);
    // Energy identical (wear distribution is orthogonal to power):
    assert_eq!(
        balanced.total_energy().joules(),
        skewed.total_energy().joules()
    );
    // Worst-probe lifetime halves at skew 2 (hottest probe gets 2x mean):
    let t = 10_512_000.0;
    let ratio =
        skewed.projected_probes_lifetime(t).get() / skewed.projected_probes_lifetime_worst(t).get();
    assert!((ratio - 2.0).abs() < 1e-6, "ratio {ratio}");
}

#[test]
fn duty_cycle_comparison_reproduces_the_rating_argument() {
    // §III-C.1: the MEMS springs need 10^8 cycles to match the disk's
    // lifetime because the MEMS buffer is ~1000x smaller.
    let disk = DiskDevice::calibrated_1p8_inch();
    let mems = MemsDevice::table1();
    let w = Workload::paper_default(BitRate::from_kbps(1024.0));

    // Size each device's buffer for a 7-year cycle-rated lifetime...
    let disk_buffer = min_buffer_for_duty_cycles(disk.start_stop_cycles(), Years::new(7.0), &w);
    let mems_buffer = min_buffer_for_duty_cycles(mems.spring_duty_cycles(), Years::new(7.0), &w);
    // ...the buffers differ by exactly the rating ratio:
    let ratio = disk_buffer / mems_buffer;
    assert!((ratio - 1000.0).abs() < 1e-6, "buffer ratio {ratio}");
    // ...and verify the forward direction round-trips.
    assert!((duty_cycle_lifetime(1e5, disk_buffer, &w).get() - 7.0).abs() < 1e-9);
    assert!((duty_cycle_lifetime(1e8, mems_buffer, &w).get() - 7.0).abs() < 1e-9);
}

#[test]
fn format_exploration_is_consistent_with_the_capacity_model() {
    // The K = 1024 row of the stripe sweep must agree with the paper
    // format used by the capacity model.
    let sweep = stripe_width_sweep(
        [1024],
        DataSize::from_kibibytes(8.0),
        EccPolicy::MEMS,
        3,
        Ratio::from_percent(88.0),
    )
    .unwrap();
    let model = SystemModel::paper_default(BitRate::from_kbps(1024.0));
    assert_eq!(
        sweep[0].utilization,
        model.utilization(DataSize::from_kibibytes(8.0))
    );
    let via_sweep = sweep[0].min_user_for_target.unwrap();
    let via_model = model
        .capacity_model()
        .min_buffer_for_utilization(Ratio::from_percent(88.0))
        .unwrap();
    assert_eq!(via_sweep.bits(), via_model.bits());
}

#[test]
fn sensitivity_identifies_the_dominant_requirement() {
    // The parameter with |elasticity| ~ 1 changes with the dominating
    // region, mirroring the Fig. 3 region bar.
    let springs_point = SystemModel::paper_default(BitRate::from_kbps(1024.0));
    let rows = buffer_sensitivity(&springs_point, &DesignGoal::fig3b(), 0.05);
    let dsp = rows
        .iter()
        .find(|r| r.parameter == "spring duty cycles")
        .and_then(|r| r.elasticity)
        .unwrap();
    assert!((dsp + 1.0).abs() < 0.02);

    // After the silicon-spring upgrade the same operating point is
    // capacity-dominated and Dsp is slack.
    let upgraded = springs_point.with_device(
        MemsDevice::table1()
            .with_probe_write_cycles(200.0)
            .with_spring_duty_cycles(1e12),
    );
    let rows = buffer_sensitivity(&upgraded, &DesignGoal::fig3b(), 0.05);
    let dsp = rows
        .iter()
        .find(|r| r.parameter == "spring duty cycles")
        .and_then(|r| r.elasticity)
        .unwrap();
    assert!(dsp.abs() < 0.02);
}

#[test]
fn session_runs_project_the_same_lifetimes_as_continuous_runs() {
    let continuous = StreamingSimulation::new(SimConfig::cbr(
        MemsDevice::table1(),
        Workload::paper_default(BitRate::from_kbps(1024.0)),
        DataSize::from_kibibytes(20.0),
    ))
    .unwrap()
    .run(Duration::from_seconds(400.0));
    let sessions = StreamingSimulation::new(SimConfig::cbr(
        MemsDevice::table1(),
        Workload::paper_default(BitRate::from_kbps(1024.0)),
        DataSize::from_kibibytes(20.0),
    ))
    .unwrap()
    .run_sessions(8, Duration::from_seconds(50.0));
    let t = 10_512_000.0;
    let a = continuous.projected_springs_lifetime(t).get();
    let b = sessions.projected_springs_lifetime(t).get();
    assert!((a - b).abs() / a < 0.01, "continuous {a} vs sessions {b}");
}
