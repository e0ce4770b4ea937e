//! The refill cycle of Fig. 1b: timing decomposition of one period `Tm`.

use std::fmt;

use memstream_device::{EnergyModelled, PowerState};
use memstream_units::{BitRate, DataSize, Duration, Energy, Power, Ratio};
use memstream_workload::Workload;

use crate::error::ModelError;

/// How the 5 % best-effort reservation of §IV-A is charged to the energy
/// account. See `DESIGN.md` §4.2 for the calibration rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BestEffortPolicy {
    /// Best-effort time is served at read/write power (the device is
    /// transferring on behalf of the OS). This reproduces the paper's
    /// Fig. 3a finding that an 80 % saving becomes infeasible slightly
    /// above 1000 kbps. **Default.**
    #[default]
    AtReadWrite,
    /// Best-effort time is spent at idle power.
    AtIdle,
    /// Ignore best-effort in both the time and the energy account
    /// (the pre-refinement model of Khatib's thesis).
    Excluded,
}

impl fmt::Display for BestEffortPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BestEffortPolicy::AtReadWrite => "best-effort at read/write power",
            BestEffortPolicy::AtIdle => "best-effort at idle power",
            BestEffortPolicy::Excluded => "best-effort excluded",
        };
        f.write_str(name)
    }
}

/// The six device numbers Eq. (1) reads — the media rate `rm`, the
/// per-cycle overhead time `toh` and energy `Eoh`, and the standby,
/// read/write and idle power — exactly as the device's [`EnergyModelled`]
/// methods return them. A model built on a profile makes no device call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyProfile {
    media_rate: BitRate,
    overhead_time: Duration,
    overhead_energy: Energy,
    standby_power: Power,
    read_write_power: Power,
    idle_power: Power,
}

impl EnergyProfile {
    /// Reads the profile of `device`.
    #[must_use]
    pub fn of(device: &dyn EnergyModelled) -> Self {
        EnergyProfile {
            media_rate: device.media_rate(),
            overhead_time: device.overhead_time(),
            overhead_energy: device.overhead_energy(),
            standby_power: device.power(PowerState::Standby),
            read_write_power: device.power(PowerState::ReadWrite),
            idle_power: device.power(PowerState::Idle),
        }
    }

    /// Sustained media transfer rate `rm`.
    #[must_use]
    pub fn media_rate(&self) -> BitRate {
        self.media_rate
    }

    /// Per-cycle overhead time `toh = tsk + tsd`.
    #[must_use]
    pub fn overhead_time(&self) -> Duration {
        self.overhead_time
    }

    /// Per-cycle overhead energy `Eoh = Esk + Esd`.
    #[must_use]
    pub fn overhead_energy(&self) -> Energy {
        self.overhead_energy
    }

    /// Power in [`PowerState::Standby`].
    #[must_use]
    pub fn standby_power(&self) -> Power {
        self.standby_power
    }

    /// Power in [`PowerState::ReadWrite`].
    #[must_use]
    pub fn read_write_power(&self) -> Power {
        self.read_write_power
    }

    /// Power in [`PowerState::Idle`].
    #[must_use]
    pub fn idle_power(&self) -> Power {
        self.idle_power
    }
}

/// Timing decomposition of one refill cycle (Fig. 1b).
///
/// Every cycle, the buffer `B` drains at `rs` while the device:
/// seeks (`tsk`), refills the buffer at net rate `rm − rs` (`tRW`), serves
/// best-effort requests, shuts down (`tsd`) and sleeps in standby for the
/// remainder. The cycle period is `Tm = B/(rm − rs) · rm/rs` (Eq. (1)).
///
/// ```
/// use memstream_core::{BestEffortPolicy, EnergyProfile, RefillCycle};
/// use memstream_device::MemsDevice;
/// use memstream_units::{BitRate, DataSize};
/// use memstream_workload::Workload;
///
/// # fn main() -> Result<(), memstream_core::ModelError> {
/// let device = MemsDevice::table1();
/// let workload = Workload::paper_default(BitRate::from_kbps(1024.0));
/// let cycle = RefillCycle::compute(
///     &EnergyProfile::of(&device),
///     &workload,
///     DataSize::from_kibibytes(20.0),
///     BestEffortPolicy::AtReadWrite,
/// )?;
/// assert!(cycle.standby_time() > cycle.overhead_time());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefillCycle {
    buffer: DataSize,
    period: Duration,
    read_write_time: Duration,
    overhead_time: Duration,
    best_effort_time: Duration,
    standby_time: Duration,
    policy: BestEffortPolicy,
}

impl RefillCycle {
    /// Computes the cycle decomposition for a buffer of size `buffer`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::RateExceedsBandwidth`] if the stream rate (plus the
    ///   best-effort reservation) exceeds the media rate.
    /// * [`ModelError::BufferBelowCycleMinimum`] if the buffer cannot cover
    ///   the seek + shutdown + best-effort time of a single cycle.
    pub fn compute(
        profile: &EnergyProfile,
        workload: &Workload,
        buffer: DataSize,
        policy: BestEffortPolicy,
    ) -> Result<Self, ModelError> {
        let rs = workload.rate();
        let rm = profile.media_rate();
        let be = effective_best_effort(workload, policy);

        // The refill must outrun the drain even after the reservation.
        let available = rm * (1.0 - be.fraction());
        if rs >= available {
            return Err(ModelError::RateExceedsBandwidth {
                stream_bps: rs.bits_per_second(),
                available_bps: available.bits_per_second(),
            });
        }

        // Tm = B/(rm - rs) * rm/rs ; tRW = B/(rm - rs).
        let t_rw = buffer / (rm - rs);
        let period = t_rw * (rm / rs);
        let t_oh = profile.overhead_time();
        let t_be = period * be;

        let active = t_rw + t_oh + t_be;
        if active > period {
            let minimum = Self::min_buffer(profile, workload, policy)?;
            return Err(ModelError::BufferBelowCycleMinimum {
                buffer_bits: buffer.bits(),
                minimum_bits: minimum.bits(),
            });
        }

        Ok(RefillCycle {
            buffer,
            period,
            read_write_time: t_rw,
            overhead_time: t_oh,
            best_effort_time: t_be,
            standby_time: period - active,
            policy,
        })
    }

    /// The smallest buffer for which a full cycle (seek + refill +
    /// best-effort + shutdown) fits into the period: the absolute floor on
    /// any buffer the model will accept.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::RateExceedsBandwidth`] if no buffer works at
    /// this stream rate.
    pub fn min_buffer(
        profile: &EnergyProfile,
        workload: &Workload,
        policy: BestEffortPolicy,
    ) -> Result<DataSize, ModelError> {
        let rs = workload.rate();
        let rm = profile.media_rate();
        let be = effective_best_effort(workload, policy).fraction();
        // (1 - be) * Tm >= tRW + toh, with Tm = B*tau, tRW = B*rho:
        // B >= toh / ((1 - be) * tau - rho).
        let tau = per_bit_period(profile, workload);
        let rho = 1.0 / (rm - rs).bits_per_second();
        let denom = (1.0 - be) * tau - rho;
        if denom <= 0.0 {
            return Err(ModelError::RateExceedsBandwidth {
                stream_bps: rs.bits_per_second(),
                available_bps: (rm * (1.0 - be)).bits_per_second(),
            });
        }
        Ok(DataSize::from_bits(
            profile.overhead_time().seconds() / denom,
        ))
    }

    /// The buffer size `B`.
    #[must_use]
    pub fn buffer(&self) -> DataSize {
        self.buffer
    }

    /// The cycle period `Tm`.
    #[must_use]
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Refill (read/write) time `tRW`.
    #[must_use]
    pub fn read_write_time(&self) -> Duration {
        self.read_write_time
    }

    /// Seek + shutdown overhead time `toh`.
    #[must_use]
    pub fn overhead_time(&self) -> Duration {
        self.overhead_time
    }

    /// Time serving best-effort requests this cycle.
    #[must_use]
    pub fn best_effort_time(&self) -> Duration {
        self.best_effort_time
    }

    /// Standby (deep sleep) time `tsb`.
    #[must_use]
    pub fn standby_time(&self) -> Duration {
        self.standby_time
    }

    /// The policy the cycle was computed under.
    #[must_use]
    pub fn policy(&self) -> BestEffortPolicy {
        self.policy
    }

    /// Refills per year of playback: `T · rs / B` (Eqs. (5)–(6)).
    #[must_use]
    pub fn refills_per_year(&self, workload: &Workload) -> f64 {
        workload.bits_per_year() / self.buffer.bits()
    }

    /// The duty fraction the device spends outside standby.
    #[must_use]
    pub fn active_fraction(&self) -> Ratio {
        Ratio::from_fraction(((self.period - self.standby_time) / self.period).clamp(0.0, 1.0))
    }
}

impl fmt::Display for RefillCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: rw {}, overhead {}, best-effort {}, standby {}",
            self.period,
            self.read_write_time,
            self.overhead_time,
            self.best_effort_time,
            self.standby_time
        )
    }
}

/// `τ = Tm / B = rm / (rs · (rm − rs))` seconds per buffered bit.
pub(crate) fn per_bit_period(profile: &EnergyProfile, workload: &Workload) -> f64 {
    let rm = profile.media_rate().bits_per_second();
    let rs = workload.rate().bits_per_second();
    rm / (rs * (rm - rs))
}

/// `ρ = tRW / B = 1 / (rm − rs)` seconds per buffered bit.
pub(crate) fn per_bit_read_write(profile: &EnergyProfile, workload: &Workload) -> f64 {
    let rm = profile.media_rate().bits_per_second();
    let rs = workload.rate().bits_per_second();
    1.0 / (rm - rs)
}

/// The best-effort fraction actually charged under `policy`.
pub(crate) fn effective_best_effort(workload: &Workload, policy: BestEffortPolicy) -> Ratio {
    match policy {
        BestEffortPolicy::Excluded => Ratio::ZERO,
        BestEffortPolicy::AtIdle | BestEffortPolicy::AtReadWrite => workload.best_effort_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memstream_device::MemsDevice;
    use memstream_units::BitRate;
    use proptest::prelude::*;

    fn setup(kbps: f64) -> (MemsDevice, Workload) {
        (
            MemsDevice::table1(),
            Workload::paper_default(BitRate::from_kbps(kbps)),
        )
    }

    #[test]
    fn period_matches_equation_one() {
        let (d, w) = setup(1024.0);
        let b = DataSize::from_kibibytes(20.0);
        let c = RefillCycle::compute(&EnergyProfile::of(&d), &w, b, BestEffortPolicy::AtReadWrite)
            .unwrap();
        // Tm = B * rm / (rs * (rm - rs)).
        let expected = b.bits() * 102.4e6 / (1.024e6 * (102.4e6 - 1.024e6));
        assert!((c.period().seconds() - expected).abs() < 1e-12);
        // tRW = B / (rm - rs).
        let expected_rw = b.bits() / (102.4e6 - 1.024e6);
        assert!((c.read_write_time().seconds() - expected_rw).abs() < 1e-12);
    }

    #[test]
    fn decomposition_sums_to_period() {
        let (d, w) = setup(512.0);
        let c = RefillCycle::compute(
            &EnergyProfile::of(&d),
            &w,
            DataSize::from_kibibytes(10.0),
            BestEffortPolicy::AtReadWrite,
        )
        .unwrap();
        let total =
            c.read_write_time() + c.overhead_time() + c.best_effort_time() + c.standby_time();
        assert!((total.seconds() - c.period().seconds()).abs() < 1e-12);
    }

    #[test]
    fn best_effort_is_five_percent_of_period() {
        let (d, w) = setup(1024.0);
        let c = RefillCycle::compute(
            &EnergyProfile::of(&d),
            &w,
            DataSize::from_kibibytes(20.0),
            BestEffortPolicy::AtReadWrite,
        )
        .unwrap();
        assert!((c.best_effort_time().seconds() / c.period().seconds() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn excluded_policy_has_no_best_effort_time() {
        let (d, w) = setup(1024.0);
        let c = RefillCycle::compute(
            &EnergyProfile::of(&d),
            &w,
            DataSize::from_kibibytes(20.0),
            BestEffortPolicy::Excluded,
        )
        .unwrap();
        assert_eq!(c.best_effort_time(), Duration::ZERO);
    }

    #[test]
    fn tiny_buffer_is_rejected_with_minimum() {
        let (d, w) = setup(1024.0);
        let err = RefillCycle::compute(
            &EnergyProfile::of(&d),
            &w,
            DataSize::from_bits(10.0),
            BestEffortPolicy::AtReadWrite,
        )
        .unwrap_err();
        match err {
            ModelError::BufferBelowCycleMinimum { minimum_bits, .. } => {
                assert!(minimum_bits > 10.0);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn min_buffer_is_exactly_workable() {
        let (d, w) = setup(1024.0);
        let p = EnergyProfile::of(&d);
        let min = RefillCycle::min_buffer(&p, &w, BestEffortPolicy::AtReadWrite).unwrap();
        let c = RefillCycle::compute(&p, &w, min, BestEffortPolicy::AtReadWrite).unwrap();
        assert!(c.standby_time().seconds() < 1e-9, "standby ~0 at the floor");
        assert!(RefillCycle::compute(&p, &w, min * 0.99, BestEffortPolicy::AtReadWrite).is_err());
    }

    #[test]
    fn overcommitted_rate_is_rejected() {
        let d = MemsDevice::table1();
        // 102.4 Mbps media rate; ask for 101 Mbps with a 5% reservation.
        let w = Workload::paper_default(BitRate::from_mbps(101.0));
        let err = RefillCycle::compute(
            &EnergyProfile::of(&d),
            &w,
            DataSize::from_mebibytes(1.0),
            BestEffortPolicy::AtReadWrite,
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::RateExceedsBandwidth { .. }));
    }

    #[test]
    fn refills_per_year_matches_equation_five_term() {
        let (d, w) = setup(1024.0);
        let b = DataSize::from_kibibytes(92.0);
        let c = RefillCycle::compute(&EnergyProfile::of(&d), &w, b, BestEffortPolicy::AtReadWrite)
            .unwrap();
        let expected = 10_512_000.0 * 1_024_000.0 / b.bits();
        assert!((c.refills_per_year(&w) - expected).abs() < 1.0);
    }

    proptest! {
        #[test]
        fn standby_grows_with_buffer(kib in 3.0..1000.0f64) {
            let (d, w) = setup(1024.0);
            let small = RefillCycle::compute(&EnergyProfile::of(&d), &w,
                DataSize::from_kibibytes(kib), BestEffortPolicy::AtReadWrite).unwrap();
            let big = RefillCycle::compute(&EnergyProfile::of(&d), &w,
                DataSize::from_kibibytes(kib * 2.0), BestEffortPolicy::AtReadWrite).unwrap();
            prop_assert!(big.standby_time() > small.standby_time());
            // ...and the active *fraction* shrinks.
            prop_assert!(big.active_fraction() <= small.active_fraction());
        }

        #[test]
        fn decomposition_always_balances(kib in 3.0..500.0f64, kbps in 32.0..4096.0f64) {
            let (d, w) = setup(kbps);
            if let Ok(c) = RefillCycle::compute(&EnergyProfile::of(&d), &w,
                DataSize::from_kibibytes(kib), BestEffortPolicy::AtReadWrite) {
                let total = c.read_write_time() + c.overhead_time()
                    + c.best_effort_time() + c.standby_time();
                prop_assert!((total.seconds() - c.period().seconds()).abs() < 1e-9);
            }
        }
    }
}
