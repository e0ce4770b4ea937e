//! The per-bit energy model: Eq. (1), the break-even buffer of §III-A.1,
//! and the inverse function "saving goal → minimum buffer".

use std::fmt;

use memstream_device::{DramModel, EnergyModelled};
use memstream_units::{DataSize, Energy, EnergyPerBit, Power, Ratio};
use memstream_workload::Workload;

use crate::cycle::{
    effective_best_effort, per_bit_period, per_bit_read_write, BestEffortPolicy, EnergyProfile,
    RefillCycle,
};
use crate::error::{InfeasibleReason, ModelError};
use crate::goal::Requirement;

const BITS_PER_MIB: f64 = 8.0 * 1024.0 * 1024.0;

/// Energy account of one refill cycle, split by activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleEnergy {
    /// Seek + shutdown overhead energy `Eoh`.
    pub overhead: Energy,
    /// Refill transfer energy (`tRW · P_RW`).
    pub read_write: Energy,
    /// Best-effort service energy.
    pub best_effort: Energy,
    /// Standby energy over the sleep remainder.
    pub standby: Energy,
    /// DRAM buffer energy (retention + access), if a DRAM model is attached.
    pub dram: Energy,
    /// The buffer the cycle delivered.
    pub buffer: DataSize,
}

impl CycleEnergy {
    /// Total energy of the cycle.
    #[must_use]
    pub fn total(&self) -> Energy {
        self.overhead + self.read_write + self.best_effort + self.standby + self.dram
    }

    /// The paper's `Em(B)`: total cycle energy per streamed bit.
    #[must_use]
    pub fn per_bit(&self) -> EnergyPerBit {
        self.total() / self.buffer
    }

    /// The MEMS-only share (excluding DRAM), for negligibility checks.
    #[must_use]
    pub fn device_only(&self) -> Energy {
        self.overhead + self.read_write + self.best_effort + self.standby
    }
}

impl fmt::Display for CycleEnergy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle energy: overhead {}, rw {}, best-effort {}, standby {}, dram {} => {} ({})",
            self.overhead,
            self.read_write,
            self.best_effort,
            self.standby,
            self.dram,
            self.total(),
            self.per_bit()
        )
    }
}

/// The energy model of §III-A for any [`EnergyModelled`] device.
///
/// The paper's per-bit energy (Eq. (1)) decomposes, per buffered bit, into
/// an overhead term that shrinks as `1/B` and constant transfer/standby
/// terms; attaching a [`DramModel`] adds a term that *grows* with `B`
/// (retention), which is what ultimately bounds the achievable saving.
///
/// A model is built for one stream rate. It computes the coefficients of
/// `Em(B) = α/B + β + δ·B`, the always-on baseline `γ` and the cycle floor
/// once, when it is built, and its methods read them.
///
/// ```
/// use memstream_core::{BestEffortPolicy, EnergyModel};
/// use memstream_device::MemsDevice;
/// use memstream_units::{BitRate, DataSize};
/// use memstream_workload::Workload;
///
/// # fn main() -> Result<(), memstream_core::ModelError> {
/// let device = MemsDevice::table1();
/// let workload = Workload::paper_default(BitRate::from_kbps(1024.0));
/// let model = EnergyModel::new(&device, workload, BestEffortPolicy::AtReadWrite, None);
///
/// let break_even = model.break_even_buffer()?;
/// assert!(break_even.kibibytes() > 1.0 && break_even.kibibytes() < 4.0);
/// // Buffering beyond break-even saves energy:
/// assert!(model.saving(break_even * 10.0)? > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EnergyModel<'a> {
    profile: EnergyProfile,
    workload: Workload,
    policy: BestEffortPolicy,
    dram: Option<&'a DramModel>,
    /// `γ`: per-bit energy of the always-on baseline (reads at `P_RW`,
    /// idles otherwise; never seeks or sleeps), joules per bit.
    gamma: f64,
    /// `α`: the buffer-amortised overhead energy, `Eoh − toh·Psb` joules.
    alpha: f64,
    /// `β`: the per-bit energy floor of the MEMS side (transfer +
    /// best-effort + standby) plus the constant DRAM access energy (two
    /// transfers per bit: device→DRAM and DRAM→decoder), joules per bit.
    beta: f64,
    /// `δ`: per-bit DRAM retention energy slope, joules per bit per
    /// buffered bit. The only term of `Em` that *grows* with `B`.
    delta: f64,
    /// [`RefillCycle::min_buffer`] of the model.
    cycle_floor: Result<DataSize, ModelError>,
}

impl<'a> EnergyModel<'a> {
    /// Creates an energy model for `device`'s [`EnergyProfile`] under `workload`.
    ///
    /// Pass a [`DramModel`] to include buffer retention/access energy as the
    /// paper does (it then verifies the "negligible" claim numerically).
    pub fn new(
        device: &dyn EnergyModelled,
        workload: Workload,
        policy: BestEffortPolicy,
        dram: Option<&'a DramModel>,
    ) -> Self {
        Self::from_profile(EnergyProfile::of(device), workload, policy, dram)
    }

    /// Creates an energy model from a profile already read.
    pub(crate) fn from_profile(
        profile: EnergyProfile,
        workload: Workload,
        policy: BestEffortPolicy,
        dram: Option<&'a DramModel>,
    ) -> Self {
        let tau = per_bit_period(&profile, &workload);
        let rho = per_bit_read_write(&profile, &workload);
        let be = effective_best_effort(&workload, policy).fraction();
        let p_rw = profile.read_write_power().watts();
        let p_sb = profile.standby_power().watts();
        let p_idle = profile.idle_power().watts();
        let p_be = best_effort_power(&profile, policy).watts();
        let dram_access = dram
            .map(|d| 2.0 * d.access_energy(DataSize::from_bits(1.0)).joules())
            .unwrap_or(0.0);
        let delta = dram
            .map(|d| {
                let density_w_per_bit =
                    d.retention_power(DataSize::from_mebibytes(1.0)).watts() / BITS_PER_MIB;
                density_w_per_bit * tau
            })
            .unwrap_or(0.0);
        EnergyModel {
            gamma: rho * p_rw + (tau - rho) * p_idle,
            alpha: profile.overhead_energy().joules() - profile.overhead_time().seconds() * p_sb,
            beta: rho * (p_rw - p_sb) + be * tau * (p_be - p_sb) + tau * p_sb + dram_access,
            delta,
            cycle_floor: RefillCycle::min_buffer(&profile, &workload, policy),
            profile,
            workload,
            policy,
            dram,
        }
    }

    /// The device numbers under model.
    #[must_use]
    pub fn profile(&self) -> &EnergyProfile {
        &self.profile
    }

    /// The workload under model.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The best-effort accounting policy.
    #[must_use]
    pub fn policy(&self) -> BestEffortPolicy {
        self.policy
    }

    /// The smallest buffer for which a full refill cycle fits
    /// ([`RefillCycle::min_buffer`]), computed when the model was built.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::RateExceedsBandwidth`] if no buffer works at
    /// this stream rate.
    pub(crate) fn cycle_floor(&self) -> Result<DataSize, ModelError> {
        self.cycle_floor.clone()
    }

    /// Per-bit energy of the always-on baseline device.
    #[must_use]
    pub fn always_on_per_bit(&self) -> EnergyPerBit {
        EnergyPerBit::from_joules_per_bit(self.gamma)
    }

    /// Full energy account of one cycle with buffer `buffer`.
    ///
    /// # Errors
    ///
    /// Propagates cycle-construction errors (rate too high, buffer too
    /// small); see [`RefillCycle::compute`].
    pub fn cycle_energy(&self, buffer: DataSize) -> Result<CycleEnergy, ModelError> {
        let cycle = RefillCycle::compute(&self.profile, &self.workload, buffer, self.policy)?;
        let dram = self
            .dram
            .map(|d| d.cycle_energy(buffer, cycle.period(), buffer * 2.0).total())
            .unwrap_or(Energy::ZERO);
        Ok(CycleEnergy {
            overhead: self.profile.overhead_energy(),
            read_write: self.profile.read_write_power() * cycle.read_write_time(),
            best_effort: best_effort_power(&self.profile, self.policy) * cycle.best_effort_time(),
            standby: self.profile.standby_power() * cycle.standby_time(),
            dram,
            buffer,
        })
    }

    /// The paper's `Em(B)` (Eq. (1), plus the DRAM term when attached).
    ///
    /// # Errors
    ///
    /// Propagates cycle-construction errors; see [`RefillCycle::compute`].
    pub fn per_bit_energy(&self, buffer: DataSize) -> Result<EnergyPerBit, ModelError> {
        Ok(self.cycle_energy(buffer)?.per_bit())
    }

    /// Energy saving relative to the always-on baseline:
    /// `1 − Em(B)/Eon`. Negative for buffers below break-even.
    ///
    /// # Errors
    ///
    /// Propagates cycle-construction errors; see [`RefillCycle::compute`].
    pub fn saving(&self, buffer: DataSize) -> Result<f64, ModelError> {
        Ok(self.saving_of(self.per_bit_energy(buffer)?))
    }

    /// The saving of a cycle whose per-bit energy is `per_bit`:
    /// `1 − per_bit/Eon`, what [`EnergyModel::saving`] reports for a buffer
    /// whose [`EnergyModel::per_bit_energy`] is `per_bit`.
    #[must_use]
    pub fn saving_of(&self, per_bit: EnergyPerBit) -> f64 {
        1.0 - per_bit.joules_per_bit() / self.gamma
    }

    /// The supremum of the achievable saving over all buffer sizes.
    ///
    /// Without a DRAM model this is the `B → ∞` asymptote
    /// `1 − β/γ`; with DRAM the retention slope turns it into a maximum at
    /// a finite optimum buffer.
    #[must_use]
    pub fn max_saving(&self) -> f64 {
        let floor = self.beta + 2.0 * (self.alpha * self.delta).sqrt();
        1.0 - floor / self.gamma
    }

    /// The buffer at which per-bit energy is minimal (finite only when a
    /// DRAM model makes large buffers costly).
    #[must_use]
    pub fn optimal_buffer(&self) -> Option<DataSize> {
        (self.delta > 0.0).then(|| DataSize::from_bits((self.alpha / self.delta).sqrt()))
    }

    /// The break-even buffer of §III-A.1: the size at which cycling the
    /// device (seek, refill, shutdown, standby) costs exactly as much as
    /// leaving it always-on for the same period, with best-effort service
    /// charged identically on both sides (so it cancels).
    ///
    /// For the Table I device this is 0.07 kB at 32 kbps and ~9 kB at
    /// 4096 kbps; the calibrated 1.8-inch disk lands three orders of
    /// magnitude higher.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::RateExceedsBandwidth`] if the stream rate
    /// leaves no refill bandwidth, and [`ModelError::InfeasibleGoal`] if
    /// standby cannot undercut idling (shutdown never pays off).
    pub fn break_even_buffer(&self) -> Result<DataSize, ModelError> {
        let p_idle = self.profile.idle_power().watts();
        let p_sb = self.profile.standby_power().watts();
        let toh = self.profile.overhead_time().seconds();
        let eoh = self.profile.overhead_energy().joules();
        if p_idle <= p_sb {
            return Err(ModelError::InfeasibleGoal {
                requirement: Requirement::Energy,
                reason: InfeasibleReason::StandbyNotBelowIdle,
            });
        }
        // tsb* = (Eoh − toh·Pidle) / (Pidle − Psb); B* = (tsb* + toh) / ((1−be)τ − ρ).
        let tsb_star = ((eoh - toh * p_idle) / (p_idle - p_sb)).max(0.0);
        let tau = per_bit_period(&self.profile, &self.workload);
        let rho = per_bit_read_write(&self.profile, &self.workload);
        let be = effective_best_effort(&self.workload, self.policy).fraction();
        let denom = (1.0 - be) * tau - rho;
        if denom <= 0.0 {
            return Err(ModelError::RateExceedsBandwidth {
                stream_bps: self.workload.rate().bits_per_second(),
                available_bps: (self.profile.media_rate() * (1.0 - be)).bits_per_second(),
            });
        }
        Ok(DataSize::from_bits((tsb_star + toh) / denom))
    }

    /// The inverse function of Eq. (1): the smallest buffer achieving an
    /// energy saving of at least `target` — the "energy-efficiency buffer"
    /// curve of Fig. 3.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InfeasibleGoal`] when no buffer size reaches
    /// the target (the vertical "X" boundary of Fig. 3a), and
    /// [`ModelError::RateExceedsBandwidth`] when the rate itself is
    /// unsustainable.
    pub fn min_buffer_for_saving(&self, target: Ratio) -> Result<DataSize, ModelError> {
        let target_per_bit = (1.0 - target.fraction()) * self.gamma;
        let (alpha, beta, delta) = (self.alpha, self.beta, self.delta);
        let floor = self.cycle_floor()?;

        let headroom = target_per_bit - beta;
        let solution_bits = if delta > 0.0 {
            // δB² − headroom·B + α = 0; smallest positive root.
            let discriminant = headroom * headroom - 4.0 * delta * alpha;
            if headroom <= 0.0 || discriminant < 0.0 {
                return Err(self.infeasible_saving(target));
            }
            (headroom - discriminant.sqrt()) / (2.0 * delta)
        } else {
            if headroom <= 0.0 {
                return Err(self.infeasible_saving(target));
            }
            alpha / headroom
        };
        Ok(DataSize::from_bits(solution_bits).max(floor))
    }

    fn infeasible_saving(&self, target: Ratio) -> ModelError {
        ModelError::InfeasibleGoal {
            requirement: Requirement::Energy,
            reason: InfeasibleReason::SavingUnreachable {
                target,
                rate: self.workload.rate(),
                max_saving: self.max_saving(),
            },
        }
    }
}

/// Power charged to best-effort time under `policy`.
fn best_effort_power(profile: &EnergyProfile, policy: BestEffortPolicy) -> Power {
    match policy {
        BestEffortPolicy::AtReadWrite | BestEffortPolicy::Excluded => profile.read_write_power(),
        BestEffortPolicy::AtIdle => profile.idle_power(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memstream_device::{DiskDevice, MemsDevice};
    use memstream_units::BitRate;
    use proptest::prelude::*;

    fn model_at(kbps: f64) -> (MemsDevice, Workload) {
        (
            MemsDevice::table1(),
            Workload::paper_default(BitRate::from_kbps(kbps)),
        )
    }

    #[test]
    fn always_on_per_bit_matches_figure_2a_ceiling() {
        // Fig. 2a's y-axis tops out around 120 nJ/b at 1024 kbps.
        let (d, w) = model_at(1024.0);
        let m = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None);
        let nj = m.always_on_per_bit().nanojoules_per_bit();
        assert!((nj - 120.0).abs() < 5.0, "got {nj} nJ/b");
    }

    #[test]
    fn equation_one_term_by_term() {
        // Cross-check per_bit_energy against a literal transcription of
        // Eq. (1) (best-effort excluded, as the equation is written).
        let (d, w) = model_at(1024.0);
        let m = EnergyModel::new(&d, w, BestEffortPolicy::Excluded, None);
        let b = DataSize::from_kibibytes(20.0);

        let bits = b.bits();
        let rm = 102.4e6;
        let rs = 1.024e6;
        let tm = bits / (rm - rs) * (rm / rs);
        let t_rw = bits / (rm - rs);
        let toh = 0.003;
        let (poh, psb, prw) = (0.672, 0.005, 0.316);
        let eq1 = toh / bits * (poh - psb) + t_rw / bits * (prw - psb) + tm / bits * psb;

        let got = m.per_bit_energy(b).unwrap().joules_per_bit();
        assert!((got - eq1).abs() < 1e-15, "got {got}, eq1 {eq1}");
    }

    #[test]
    fn break_even_matches_paper_range() {
        // §III-A.1: 0.07 kB at 32 kbps up to ~9 kB at 4096 kbps.
        let d = MemsDevice::table1();
        let at = |kbps: f64| {
            let w = Workload::paper_default(BitRate::from_kbps(kbps));
            EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None)
                .break_even_buffer()
                .unwrap()
                .kibibytes()
        };
        let low = at(32.0);
        let high = at(4096.0);
        assert!((0.06..0.08).contains(&low), "32 kbps break-even {low} kB");
        assert!(
            (8.0..10.0).contains(&high),
            "4096 kbps break-even {high} kB"
        );
    }

    #[test]
    fn disk_break_even_is_three_orders_of_magnitude_larger() {
        let mems = MemsDevice::table1();
        let disk = DiskDevice::calibrated_1p8_inch();
        let w = Workload::paper_default(BitRate::from_kbps(1024.0));
        let bem = EnergyModel::new(&mems, w, BestEffortPolicy::AtReadWrite, None)
            .break_even_buffer()
            .unwrap();
        let bed = EnergyModel::new(&disk, w, BestEffortPolicy::AtReadWrite, None)
            .break_even_buffer()
            .unwrap();
        let ratio = bed / bem;
        assert!((300.0..3000.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn saving_is_zero_at_break_even() {
        let (d, w) = model_at(1024.0);
        let m = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None);
        let be = m.break_even_buffer().unwrap();
        // At break-even the shutdown cycle ties the *with-best-effort*
        // baseline; against the plain baseline used by `saving` the result
        // is near zero (the BE term is the small residual).
        let saving = m.saving(be).unwrap();
        assert!(saving.abs() < 0.20, "saving at break-even: {saving}");
        // Well above break-even the saving is decisively positive.
        assert!(m.saving(be * 20.0).unwrap() > 0.5);
    }

    #[test]
    fn eighty_percent_saving_feasible_at_1024_but_not_2048() {
        // The Fig. 3a boundary: E = 80% is feasible up to slightly above
        // 1000 kbps and infeasible beyond.
        let d = MemsDevice::table1();
        let at = |kbps: f64| {
            let w = Workload::paper_default(BitRate::from_kbps(kbps));
            EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None)
                .min_buffer_for_saving(Ratio::from_percent(80.0))
        };
        assert!(at(1024.0).is_ok(), "80% should be feasible at 1024 kbps");
        assert!(at(2048.0).is_err(), "80% should be infeasible at 2048 kbps");
    }

    #[test]
    fn seventy_percent_saving_feasible_across_the_whole_range() {
        // Fig. 3c: with E = 70% the energy goal is satisfiable at 4096 kbps.
        let d = MemsDevice::table1();
        let w = Workload::paper_default(BitRate::from_kbps(4096.0));
        let m = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None);
        assert!(m.min_buffer_for_saving(Ratio::from_percent(70.0)).is_ok());
    }

    #[test]
    fn min_buffer_for_saving_is_tight() {
        let (d, w) = model_at(512.0);
        let m = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None);
        let target = Ratio::from_percent(75.0);
        let b = m.min_buffer_for_saving(target).unwrap();
        assert!(m.saving(b).unwrap() >= target.fraction() - 1e-9);
        assert!(m.saving(b * 0.95).unwrap() < target.fraction());
    }

    #[test]
    fn dram_term_is_negligible_at_paper_scales() {
        // The paper's claim: DRAM energy present but negligible.
        let (d, w) = model_at(1024.0);
        let dram = DramModel::micron_ddr_mobile();
        let with = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, Some(&dram));
        let without = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None);
        let b = DataSize::from_kibibytes(20.0);
        let e_with = with.per_bit_energy(b).unwrap().joules_per_bit();
        let e_without = without.per_bit_energy(b).unwrap().joules_per_bit();
        assert!(e_with > e_without);
        assert!((e_with - e_without) / e_without < 0.02, "DRAM adds <2%");
    }

    #[test]
    fn dram_makes_the_optimum_finite() {
        let (d, w) = model_at(1024.0);
        let dram = DramModel::micron_ddr_mobile();
        let with = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, Some(&dram));
        let without = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None);
        assert!(with.optimal_buffer().is_some());
        assert!(without.optimal_buffer().is_none());
        assert!(with.max_saving() < without.max_saving());
    }

    #[test]
    fn cycle_energy_breakdown_sums() {
        let (d, w) = model_at(1024.0);
        let m = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None);
        let ce = m.cycle_energy(DataSize::from_kibibytes(20.0)).unwrap();
        let sum = ce.overhead + ce.read_write + ce.best_effort + ce.standby + ce.dram;
        assert!((sum.joules() - ce.total().joules()).abs() < 1e-15);
        assert_eq!(ce.dram, Energy::ZERO);
    }

    proptest! {
        #[test]
        fn per_bit_energy_decreases_with_buffer_without_dram(kib in 3.0..500.0f64) {
            let (d, w) = model_at(1024.0);
            let m = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None);
            let small = m.per_bit_energy(DataSize::from_kibibytes(kib)).unwrap();
            let big = m.per_bit_energy(DataSize::from_kibibytes(kib * 2.0)).unwrap();
            prop_assert!(big < small);
        }

        #[test]
        fn saving_monotone_in_buffer_without_dram(kib in 3.0..500.0f64, kbps in 64.0..4096.0f64) {
            let (d, w) = model_at(kbps);
            let m = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None);
            let b1 = DataSize::from_kibibytes(kib);
            let b2 = DataSize::from_kibibytes(kib * 1.5);
            if let (Ok(s1), Ok(s2)) = (m.saving(b1), m.saving(b2)) {
                prop_assert!(s2 >= s1 - 1e-12);
            }
        }

        #[test]
        fn max_saving_bounds_all_savings(kib in 3.0..2000.0f64) {
            let (d, w) = model_at(1024.0);
            let dram = DramModel::micron_ddr_mobile();
            let m = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, Some(&dram));
            if let Ok(s) = m.saving(DataSize::from_kibibytes(kib)) {
                prop_assert!(s <= m.max_saving() + 1e-9);
            }
        }

        #[test]
        fn inverse_saving_roundtrips(pct in 10.0..78.0f64) {
            let (d, w) = model_at(1024.0);
            let m = EnergyModel::new(&d, w, BestEffortPolicy::AtReadWrite, None);
            let target = Ratio::from_percent(pct);
            let b = m.min_buffer_for_saving(target).unwrap();
            prop_assert!(m.saving(b).unwrap() >= target.fraction() - 1e-9);
        }
    }
}
