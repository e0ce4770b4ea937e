//! Experiment V1: the discrete-event simulator agrees with the analytic
//! closed forms (Eqs. (1), (5), (6)) term by term.
//!
//! The paper's equations assume an idealised steady state; the simulator
//! executes the actual state machine. Agreement within ~1-2 % (edge effects
//! of the first and last partial cycle) is the workspace's evidence that
//! the transcribed equations are the ones the architecture obeys.

use memstream_core::{BestEffortPolicy, EnergyModel, EnergyProfile, SystemModel};
use memstream_device::{DramModel, MemsDevice, PowerState};
use memstream_sim::{BestEffortMode, SimConfig, StreamingSimulation};
use memstream_units::{BitRate, DataSize, Duration};
use memstream_workload::Workload;

fn simulate(kbps: f64, buffer_kib: f64, seconds: f64) -> memstream_sim::SimReport {
    let config = SimConfig::cbr(
        MemsDevice::table1(),
        Workload::paper_default(BitRate::from_kbps(kbps)),
        DataSize::from_kibibytes(buffer_kib),
    );
    StreamingSimulation::new(config)
        .unwrap()
        .run(Duration::from_seconds(seconds))
}

fn analytic(kbps: f64) -> SystemModel {
    SystemModel::paper_default(BitRate::from_kbps(kbps)).without_dram()
}

/// Eq. (1) normalises by the *buffered* bits per cycle (`B`), whereas the
/// stream consumes `Tm*rs = B*rm/(rm-rs)` per cycle (~1% more at 1024
/// kbps). Normalise the simulator's energy the same way for comparison.
fn sim_energy_per_buffered_bit(report: &memstream_sim::SimReport, buffer: DataSize) -> f64 {
    report.total_energy().joules() / (buffer.bits() * report.cycles as f64)
}

#[test]
fn per_bit_energy_matches_equation_one_within_one_percent() {
    for (kbps, kib) in [(1024.0, 20.0), (512.0, 10.0), (2048.0, 40.0), (128.0, 4.0)] {
        let report = simulate(kbps, kib, 600.0);
        let model = analytic(kbps)
            .per_bit_energy(DataSize::from_kibibytes(kib))
            .unwrap();
        let sim = sim_energy_per_buffered_bit(&report, DataSize::from_kibibytes(kib));
        let rel = (sim - model.joules_per_bit()).abs() / model.joules_per_bit();
        assert!(
            rel < 0.01,
            "{kbps} kbps / {kib} KiB: sim {sim} vs model {model} ({rel:.4} rel)"
        );
    }
}

#[test]
fn state_time_fractions_match_the_cycle_decomposition() {
    let kbps = 1024.0;
    let kib = 20.0;
    let report = simulate(kbps, kib, 600.0);
    let model = analytic(kbps);
    let cycle = memstream_core::RefillCycle::compute(
        &EnergyProfile::of(model.device()),
        model.workload(),
        DataSize::from_kibibytes(kib),
        BestEffortPolicy::AtReadWrite,
    )
    .unwrap();

    let tm = cycle.period().seconds();
    // Read/write share = (tRW + t_be) / Tm (sim charges both at RW power).
    let expected_rw = (cycle.read_write_time().seconds() + cycle.best_effort_time().seconds()) / tm;
    let got_rw = report.time_fraction(PowerState::ReadWrite);
    assert!(
        (got_rw - expected_rw).abs() < 0.005,
        "rw {got_rw} vs {expected_rw}"
    );

    let expected_sb = cycle.standby_time().seconds() / tm;
    let got_sb = report.time_fraction(PowerState::Standby);
    assert!(
        (got_sb - expected_sb).abs() < 0.01,
        "standby {got_sb} vs {expected_sb}"
    );
}

#[test]
fn cycle_count_matches_tm() {
    let report = simulate(1024.0, 20.0, 600.0);
    let model = analytic(1024.0);
    let cycle = memstream_core::RefillCycle::compute(
        &EnergyProfile::of(model.device()),
        model.workload(),
        DataSize::from_kibibytes(20.0),
        BestEffortPolicy::AtReadWrite,
    )
    .unwrap();
    let expected = 600.0 / cycle.period().seconds();
    let got = report.cycles as f64;
    assert!(
        (got - expected).abs() / expected < 0.01,
        "{got} vs {expected}"
    );
}

#[test]
fn projected_springs_lifetime_matches_equation_five() {
    let kib = 20.0;
    let report = simulate(1024.0, kib, 600.0);
    let model = analytic(1024.0);
    let t_year = model.workload().playback_seconds_per_year();
    let sim_years = report.projected_springs_lifetime(t_year);
    let eq5 = model.springs_lifetime(DataSize::from_kibibytes(kib));
    let rel = (sim_years.get() - eq5.get()).abs() / eq5.get();
    assert!(rel < 0.02, "sim {sim_years} vs Eq.(5) {eq5}");
}

#[test]
fn projected_probes_lifetime_matches_equation_six() {
    let kib = 20.0;
    let report = simulate(1024.0, kib, 600.0);
    let model = analytic(1024.0);
    let t_year = model.workload().playback_seconds_per_year();
    let sim_years = report.projected_probes_lifetime(t_year);
    let eq6 = model.probes_lifetime(DataSize::from_kibibytes(kib));
    let rel = (sim_years.get() - eq6.get()).abs() / eq6.get();
    assert!(rel < 0.02, "sim {sim_years} vs Eq.(6) {eq6}");
}

#[test]
fn measured_saving_matches_the_model() {
    let kib = 20.0;
    let report = simulate(1024.0, kib, 600.0);
    let model = analytic(1024.0);
    let baseline = model.energy_model().always_on_per_bit().joules_per_bit();
    let sim_saving =
        1.0 - sim_energy_per_buffered_bit(&report, DataSize::from_kibibytes(kib)) / baseline;
    let model_saving = model.saving(DataSize::from_kibibytes(kib)).unwrap();
    assert!(
        (sim_saving - model_saving).abs() < 0.01,
        "sim {sim_saving} vs model {model_saving}"
    );
}

#[test]
fn dram_share_matches_the_model_term() {
    let kib = 20.0;
    let kbps = 1024.0;
    let config = SimConfig::cbr(
        MemsDevice::table1(),
        Workload::paper_default(BitRate::from_kbps(kbps)),
        DataSize::from_kibibytes(kib),
    )
    .with_dram(DramModel::micron_ddr_mobile());
    let report = StreamingSimulation::new(config)
        .unwrap()
        .run(Duration::from_seconds(600.0));

    let with = SystemModel::paper_default(BitRate::from_kbps(kbps));
    let model_dram = with
        .per_bit_energy(DataSize::from_kibibytes(kib))
        .unwrap()
        .joules_per_bit()
        - with
            .without_dram()
            .per_bit_energy(DataSize::from_kibibytes(kib))
            .unwrap()
            .joules_per_bit();
    let sim_dram = report.meter.dram_energy().joules()
        / (DataSize::from_kibibytes(kib).bits() * report.cycles as f64);
    let rel = (sim_dram - model_dram).abs() / model_dram;
    assert!(
        rel < 0.05,
        "sim dram {sim_dram} vs model {model_dram} ({rel:.3})"
    );
}

#[test]
fn poisson_best_effort_converges_to_the_reservation() {
    // The Poisson realisation should consume roughly the reserved 5% of
    // device time in the long run (loose tolerance: it is stochastic).
    let config = SimConfig::cbr(
        MemsDevice::table1(),
        Workload::paper_default(BitRate::from_kbps(1024.0)),
        DataSize::from_kibibytes(64.0),
    )
    .with_best_effort(BestEffortMode::Poisson { seed: 42 });
    let report = StreamingSimulation::new(config)
        .unwrap()
        .run(Duration::from_seconds(1200.0));
    // Compare total energy against the Reserved-mode run: the stochastic
    // service should land in the same ballpark.
    let reserved = simulate(1024.0, 64.0, 1200.0);
    let rel = (report.total_energy().joules() - reserved.total_energy().joules()).abs()
        / reserved.total_energy().joules();
    assert!(rel < 0.25, "poisson vs reserved energy differ by {rel:.3}");
    assert_eq!(report.underruns, 0);
}

#[test]
fn disk_model_also_matches_equation_one() {
    // The same energy equation drives the disk comparison; check the sim
    // against the analytic model for the generic device path using the
    // MEMS device at a second operating point as a stand-in (the sim is
    // MEMS-typed; the analytic model is generic).
    let report = simulate(256.0, 8.0, 600.0);
    let d = MemsDevice::table1();
    let w = Workload::paper_default(BitRate::from_kbps(256.0));
    let model = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None);
    let expected = model.per_bit_energy(DataSize::from_kibibytes(8.0)).unwrap();
    let got = sim_energy_per_buffered_bit(&report, DataSize::from_kibibytes(8.0));
    let rel = (got - expected.joules_per_bit()).abs() / expected.joules_per_bit();
    assert!(rel < 0.01, "sim {got} vs model {expected}");
}

#[test]
fn flash_sim_wear_matches_the_analytic_erase_channel() {
    // The sim's erase-block sink charges the same write amplification
    // waf(B) = waf_floor + block/B as the analytic EraseBudget channel,
    // so the projected lifetime must agree with the closed form.
    use memstream_core::{CapabilityModel, LifetimeModel};
    use memstream_device::FlashDevice;

    let flash = FlashDevice::mobile_mlc();
    let workload = Workload::paper_default(BitRate::from_kbps(1024.0));
    let buffer = DataSize::from_kibibytes(16.0);
    let report = StreamingSimulation::new(SimConfig::cbr(flash.clone(), workload, buffer))
        .unwrap()
        .run(Duration::from_seconds(600.0));

    let model =
        CapabilityModel::new(&flash, workload, None, BestEffortPolicy::AtReadWrite).unwrap();
    let analytic = model.device_lifetime(buffer);
    let t_year = workload.playback_seconds_per_year();
    let sim_years = report.projected_device_lifetime(t_year);
    let rel = (sim_years.get() - analytic.get()).abs() / analytic.get();
    assert!(
        rel < 0.03,
        "flash sim lifetime {sim_years} vs analytic erase channel {analytic} (rel {rel:.4})"
    );
    // And the analytic side agrees with a by-hand Eq.(erase) transcription.
    let lifetime = LifetimeModel::new(
        &flash,
        workload,
        memstream_core::CapacityModel::constant(
            memstream_units::Ratio::from_fraction(flash.fixed_utilization()),
            flash.capacity(),
        ),
    );
    let waf = flash.write_amplification(buffer);
    let by_hand = flash.write_budget_bits()
        / (workload.write_fraction().fraction() * workload.bits_per_year() * waf);
    assert!((lifetime.device_lifetime(buffer).get() - by_hand).abs() < by_hand * 1e-12);
}
