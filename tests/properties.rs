//! Cross-crate property-based tests: invariants of the full model stack
//! under randomly drawn operating points and goals.

use proptest::prelude::*;

use memstream_core::{BestEffortPolicy, DesignGoal, EnergyProfile, RefillCycle, SystemModel};
use memstream_units::{BitRate, DataSize, Ratio, Years};

fn system(kbps: f64) -> SystemModel {
    SystemModel::paper_default(BitRate::from_kbps(kbps))
}

proptest! {
    // Every feasible plan satisfies all three requirements it was built
    // from — over random rates and random (feasible-leaning) goals.
    #[test]
    fn plans_satisfy_their_goals(
        kbps in 32.0..1400.0f64,
        saving_pct in 10.0..70.0f64,
        capacity_pct in 10.0..88.0f64,
        years in 0.5..7.0f64,
    ) {
        let m = system(kbps);
        let goal = DesignGoal::new()
            .energy_saving(Ratio::from_percent(saving_pct))
            .capacity_utilization(Ratio::from_percent(capacity_pct))
            .lifetime(Years::new(years));
        if let Ok(plan) = m.dimension(&goal) {
            let b = plan.buffer();
            prop_assert!(m.utilization(b).percent() >= capacity_pct - 1e-9);
            prop_assert!(m.saving(b).unwrap() * 100.0 >= saving_pct - 1e-6);
            prop_assert!(m.device_lifetime(b).get() >= years - 1e-6);
        }
    }

    // The break-even buffer grows monotonically with the stream rate
    // (SIII-A.1's table is monotone).
    #[test]
    fn break_even_monotone_in_rate(kbps in 32.0..4000.0f64) {
        let low = system(kbps).break_even_buffer().unwrap();
        let high = system(kbps * 1.02).break_even_buffer().unwrap();
        prop_assert!(high >= low);
    }

    // Tightening any single goal component never shrinks the buffer.
    #[test]
    fn stricter_goals_need_no_less_buffer(
        kbps in 64.0..1200.0f64,
        saving_pct in 20.0..65.0f64,
        years in 1.0..6.0f64,
    ) {
        let m = system(kbps);
        let base = DesignGoal::new()
            .energy_saving(Ratio::from_percent(saving_pct))
            .lifetime(Years::new(years));
        let stricter_e = DesignGoal::new()
            .energy_saving(Ratio::from_percent(saving_pct + 5.0))
            .lifetime(Years::new(years));
        let stricter_l = DesignGoal::new()
            .energy_saving(Ratio::from_percent(saving_pct))
            .lifetime(Years::new(years + 1.0));
        let b = m.dimension(&base).unwrap().buffer();
        if let Ok(pe) = m.dimension(&stricter_e) {
            prop_assert!(pe.buffer() >= b);
        }
        if let Ok(pl) = m.dimension(&stricter_l) {
            prop_assert!(pl.buffer() >= b);
        }
    }

    // The cycle decomposition balances for every workable operating point,
    // and standby time strictly grows with the buffer.
    #[test]
    fn cycle_invariants(kbps in 32.0..4000.0f64, kib in 1.0..500.0f64) {
        let m = system(kbps);
        let b = DataSize::from_kibibytes(kib);
        if let Ok(cycle) = RefillCycle::compute(
            &EnergyProfile::of(m.device()), m.workload(), b, BestEffortPolicy::AtReadWrite,
        ) {
            let parts = cycle.read_write_time()
                + cycle.overhead_time()
                + cycle.best_effort_time()
                + cycle.standby_time();
            prop_assert!((parts.seconds() - cycle.period().seconds()).abs() < 1e-9);
            let bigger = RefillCycle::compute(
                &EnergyProfile::of(m.device()), m.workload(), b * 2.0, BestEffortPolicy::AtReadWrite,
            ).unwrap();
            prop_assert!(bigger.standby_time() > cycle.standby_time());
        }
    }

    // Device lifetime is always the componentwise minimum, and the probes
    // ceiling bounds the probes lifetime everywhere.
    #[test]
    fn lifetime_invariants(kbps in 32.0..4000.0f64, kib in 0.5..2000.0f64) {
        let m = system(kbps);
        let b = DataSize::from_kibibytes(kib);
        let springs = m.springs_lifetime(b);
        let probes = m.probes_lifetime(b);
        prop_assert_eq!(m.device_lifetime(b), springs.min(probes));
        prop_assert!(
            probes.get() <= m.lifetime_model().probes_lifetime_ceiling().get() + 1e-9
        );
    }

    // The always-on baseline never beats a well-buffered shutdown cycle:
    // at 20x break-even the saving is strictly positive for any rate.
    #[test]
    fn buffering_always_pays_off_at_twenty_x_break_even(kbps in 32.0..4000.0f64) {
        let m = system(kbps);
        let be = m.break_even_buffer().unwrap();
        prop_assert!(m.saving(be * 20.0).unwrap() > 0.0);
    }

    // Per-bit energy is bounded below by the transfer + standby floor and
    // above by the always-on baseline plus the cycle overhead share.
    #[test]
    fn energy_is_physically_bounded(kbps in 64.0..2048.0f64, kib in 5.0..200.0f64) {
        let m = system(kbps).without_dram();
        let b = DataSize::from_kibibytes(kib);
        if let Ok(e) = m.per_bit_energy(b) {
            prop_assert!(e.joules_per_bit() > 0.0);
            // Never cheaper than the saving supremum allows:
            let floor = m.energy_model().always_on_per_bit().joules_per_bit()
                * (1.0 - m.energy_model().max_saving());
            prop_assert!(e.joules_per_bit() >= floor - 1e-15);
        }
    }
}
