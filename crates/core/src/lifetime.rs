//! Lifetime as a function of buffer size: Eqs. (5) and (6) of §III-C,
//! generalised to any [`WearModelled`] device.
//!
//! The paper derives two wear laws for the MEMS store — spring duty
//! cycles (Eq. (5)) and probe write budgets (Eq. (6)). Both are instances
//! of a *wear channel*: a budget consumed at a buffer-dependent rate. The
//! model here folds any set of [`WearChannel`]s into years, which is how
//! the flash backend's erase-block budget reuses the machinery unchanged.

use std::borrow::Cow;
use std::fmt;

use memstream_device::{WearChannel, WearModelled};
use memstream_units::{DataSize, Ratio, Years};
use memstream_workload::Workload;

use crate::capacity::CapacityModel;
use crate::error::{InfeasibleReason, ModelError};
use crate::goal::Requirement;

/// Eq. (5) in its device-agnostic form: the lifetime of any component
/// rated for `rating` start/stop (duty) cycles, when the system performs
/// `T·rs/B` refills per year.
///
/// For the MEMS springs this is `Lsp`; for a disk drive the same formula
/// governs the head load/unload (start-stop) rating, which is how §III-C
/// concludes MEMS springs need a rating three orders of magnitude above
/// the disk's 10⁵ — their buffer is three orders of magnitude smaller.
///
/// # Panics
///
/// Panics if `rating` is not strictly positive or `buffer` is zero.
///
/// # Examples
///
/// ```
/// use memstream_core::duty_cycle_lifetime;
/// use memstream_units::{BitRate, DataSize};
/// use memstream_workload::Workload;
///
/// let w = Workload::paper_default(BitRate::from_kbps(1024.0));
/// // A disk with a 1e5 start-stop rating and a 1000x larger buffer lives
/// // exactly as long as a MEMS store with 1e8 springs:
/// let disk = duty_cycle_lifetime(1e5, DataSize::from_kibibytes(9000.0), &w);
/// let mems = duty_cycle_lifetime(1e8, DataSize::from_kibibytes(9.0), &w);
/// assert!((disk.get() / mems.get() - 1.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn duty_cycle_lifetime(rating: f64, buffer: DataSize, workload: &Workload) -> Years {
    assert!(rating > 0.0, "duty-cycle rating must be positive");
    assert!(!buffer.is_zero(), "buffer must be positive");
    Years::new(rating * buffer.bits() / workload.bits_per_year())
}

/// Inverse of [`duty_cycle_lifetime`]: the smallest buffer for which a
/// component rated at `rating` cycles survives `target` years.
///
/// # Panics
///
/// Panics if `rating` is not strictly positive.
#[must_use]
pub fn min_buffer_for_duty_cycles(rating: f64, target: Years, workload: &Workload) -> DataSize {
    assert!(rating > 0.0, "duty-cycle rating must be positive");
    DataSize::from_bits(target.get() * workload.bits_per_year() / rating)
}

/// The wear model: every [`WearChannel`] of a [`WearModelled`] device
/// folded into years as a function of the buffer size.
///
/// For the MEMS device the channels are exactly §III-C's springs
/// (duty cycles, Eq. (5)) and probes (utilisation-scaled write budget,
/// Eq. (6)), and the legacy accessors ([`LifetimeModel::springs_lifetime`],
/// [`LifetimeModel::probes_lifetime`]) read them by kind. A flash device
/// contributes a single erase-budget channel instead.
///
/// ```
/// use memstream_core::LifetimeModel;
/// use memstream_device::MemsDevice;
/// use memstream_units::{BitRate, DataSize};
/// use memstream_workload::Workload;
///
/// let device = MemsDevice::table1();
/// let workload = Workload::paper_default(BitRate::from_kbps(1024.0));
/// let model = LifetimeModel::new(&device, workload, Default::default());
///
/// // Fig. 2b: ~90 kB of buffer buys 7 years of springs at the 1e8 rating.
/// let years = model.springs_lifetime(DataSize::from_kibibytes(92.0));
/// assert!((years.get() - 7.0).abs() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct LifetimeModel<'a> {
    workload: Workload,
    capacity: CapacityModel,
    channels: Cow<'a, [WearChannel]>,
}

impl LifetimeModel<'static> {
    /// Creates a lifetime model from the device's wear channels, read once.
    /// The capacity model supplies `u(B)` (and Eq. (6)'s sector size `S`).
    pub fn new(device: &dyn WearModelled, workload: Workload, capacity: CapacityModel) -> Self {
        LifetimeModel {
            workload,
            capacity,
            channels: Cow::Owned(device.wear_channels()),
        }
    }
}

impl<'a> LifetimeModel<'a> {
    /// Creates a lifetime model over wear channels already read, borrowed
    /// from their owner: building or cloning it copies no channel.
    pub(crate) fn from_channels(
        channels: &'a [WearChannel],
        workload: Workload,
        capacity: CapacityModel,
    ) -> Self {
        LifetimeModel {
            workload,
            capacity,
            channels: Cow::Borrowed(channels),
        }
    }

    /// The workload under model.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The device's wear channels, in device order.
    #[must_use]
    pub fn channels(&self) -> &[WearChannel] {
        &self.channels
    }

    /// Refill (seek + shutdown) cycles per year: `T · rs / B`.
    #[must_use]
    pub fn refills_per_year(&self, buffer: DataSize) -> f64 {
        self.workload.bits_per_year() / buffer.bits()
    }

    /// Lifetime of one channel at buffer `buffer`.
    #[must_use]
    pub fn channel_lifetime(&self, channel: &WearChannel, buffer: DataSize) -> Years {
        let w = self.workload.write_fraction().fraction();
        match *channel {
            WearChannel::DutyCycle { rating } => Years::new(rating / self.refills_per_year(buffer)),
            WearChannel::WriteBudget { budget_bits, .. } => {
                if w == 0.0 {
                    return Years::unbounded();
                }
                let u = self.capacity.utilization(buffer).fraction();
                Years::new(budget_bits * u / (w * self.workload.bits_per_year()))
            }
            WearChannel::EraseBudget {
                budget_bits,
                block_bits,
                waf_floor,
            } => {
                if w == 0.0 {
                    return Years::unbounded();
                }
                let waf = waf_floor + block_bits / buffer.bits();
                Years::new(budget_bits / (w * self.workload.bits_per_year() * waf))
            }
        }
    }

    /// The best lifetime any buffer can buy on one channel: duty cycles
    /// and erase budgets improve without bound as `B` grows — only the
    /// write-amplification floor caps the erase channel — while the
    /// write-budget channel saturates at the utilisation supremum.
    #[must_use]
    pub fn channel_lifetime_ceiling(&self, channel: &WearChannel) -> Years {
        let w = self.workload.write_fraction().fraction();
        match *channel {
            WearChannel::DutyCycle { .. } => Years::unbounded(),
            WearChannel::WriteBudget { budget_bits, .. } => {
                if w == 0.0 {
                    return Years::unbounded();
                }
                let u = self.capacity.utilization_supremum().fraction();
                Years::new(budget_bits * u / (w * self.workload.bits_per_year()))
            }
            WearChannel::EraseBudget {
                budget_bits,
                waf_floor,
                ..
            } => {
                if w == 0.0 {
                    return Years::unbounded();
                }
                Years::new(budget_bits / (w * self.workload.bits_per_year() * waf_floor))
            }
        }
    }

    /// The smallest buffer giving one channel at least `target` years, or
    /// `None` when the channel never binds under this workload (e.g. a
    /// write budget under a read-only stream).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InfeasibleGoal`] when no buffer reaches
    /// `target` on this channel (naming the channel's requirement).
    pub fn min_buffer_for_channel(
        &self,
        channel: &WearChannel,
        target: Years,
    ) -> Result<Option<DataSize>, ModelError> {
        let w = self.workload.write_fraction().fraction();
        match *channel {
            WearChannel::DutyCycle { rating } => Ok(Some(DataSize::from_bits(
                target.get() * self.workload.bits_per_year() / rating,
            ))),
            WearChannel::WriteBudget { .. } => self.min_buffer_for_write_budget(channel, target),
            WearChannel::EraseBudget {
                budget_bits,
                block_bits,
                waf_floor,
            } => {
                if w == 0.0 || target == Years::ZERO {
                    return Ok(None);
                }
                let headroom =
                    budget_bits / (target.get() * w * self.workload.bits_per_year()) - waf_floor;
                if headroom <= 0.0 {
                    return Err(ModelError::InfeasibleGoal {
                        requirement: Requirement::EraseLifetime,
                        reason: InfeasibleReason::EraseBlocksWornOut {
                            ceiling: self.channel_lifetime_ceiling(channel),
                            rate: self.workload.rate(),
                            waf_floor,
                        },
                    });
                }
                Ok(Some(DataSize::from_bits(block_bits / headroom)))
            }
        }
    }

    /// Device lifetime `L = min` over every wear channel (§III-C's
    /// `min(Lsp, Lpb)` for the MEMS pair).
    #[must_use]
    pub fn device_lifetime(&self, buffer: DataSize) -> Years {
        self.channels
            .iter()
            .map(|c| self.channel_lifetime(c, buffer))
            .fold(Years::unbounded(), Years::min)
    }

    fn duty_channel(&self) -> Option<&WearChannel> {
        self.channels
            .iter()
            .find(|c| matches!(c, WearChannel::DutyCycle { .. }))
    }

    fn write_budget_channel(&self) -> Option<&WearChannel> {
        self.channels
            .iter()
            .find(|c| matches!(c, WearChannel::WriteBudget { .. }))
    }

    /// Eq. (5): springs lifetime in years, `Lsp(B) = Dsp · B / (T · rs)` —
    /// the device's duty-cycle channel. Unbounded if the device has none.
    #[must_use]
    pub fn springs_lifetime(&self, buffer: DataSize) -> Years {
        self.duty_channel()
            .map_or_else(Years::unbounded, |c| self.channel_lifetime(c, buffer))
    }

    /// Eq. (6): probes lifetime in years,
    /// `Lpb(B) = C · Dpb · B / (w · S · T · rs)` — the device's
    /// write-budget channel. Unbounded if the device has none.
    ///
    /// With `Su = B` this equals `C · Dpb · u(B) / (w · T · rs)`: probes
    /// lifetime follows the capacity-utilisation trend (the paper's
    /// observation under Fig. 2b). A read-only workload (`w = 0`) never
    /// wears the probes: the lifetime is unbounded.
    #[must_use]
    pub fn probes_lifetime(&self, buffer: DataSize) -> Years {
        self.write_budget_channel()
            .map_or_else(Years::unbounded, |c| self.channel_lifetime(c, buffer))
    }

    /// The probes-lifetime ceiling: the best lifetime any buffer can buy,
    /// reached as `u(B)` approaches its supremum. The vertical dashed line
    /// of Fig. 3b sits where this drops below the goal.
    #[must_use]
    pub fn probes_lifetime_ceiling(&self) -> Years {
        self.write_budget_channel()
            .map_or_else(Years::unbounded, |c| self.channel_lifetime_ceiling(c))
    }

    /// Inverse of Eq. (5): the smallest buffer giving the springs at least
    /// `target` years — `B ≥ L · T · rs / Dsp`. Zero if the device has no
    /// duty-cycle channel.
    #[must_use]
    pub fn min_buffer_for_springs(&self, target: Years) -> DataSize {
        match self.duty_channel() {
            Some(WearChannel::DutyCycle { rating }) => {
                DataSize::from_bits(target.get() * self.workload.bits_per_year() / rating)
            }
            _ => DataSize::ZERO,
        }
    }

    /// Inverse of Eq. (6): the smallest buffer giving the probes at least
    /// `target` years. Since `Lpb ∝ u(B)`, this reduces to the capacity
    /// inverse at the required utilisation. `None` when the probes never
    /// wear (read-only workload, or no write-budget channel).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InfeasibleGoal`] when even the utilisation
    /// supremum cannot buy `target` years — the hard rate limit the paper
    /// marks with a vertical dashed line in Fig. 3b.
    pub fn min_buffer_for_probes(&self, target: Years) -> Result<Option<DataSize>, ModelError> {
        match self.write_budget_channel() {
            Some(channel) => self.min_buffer_for_write_budget(channel, target),
            None => Ok(None),
        }
    }

    fn min_buffer_for_write_budget(
        &self,
        channel: &WearChannel,
        target: Years,
    ) -> Result<Option<DataSize>, ModelError> {
        let Some(required) = self.required_utilization_for_channel(channel, target)? else {
            return Ok(None);
        };
        self.capacity
            .min_buffer_for_utilization(required)
            .map(Some)
            .map_err(|e| match e {
                // Re-attribute: the capacity solver failed on behalf of the
                // probes requirement.
                ModelError::InfeasibleGoal { reason, .. } => ModelError::InfeasibleGoal {
                    requirement: Requirement::ProbesLifetime,
                    reason,
                },
                other => other,
            })
    }

    /// The requirement a channel dictates under (the Fig. 3 region label).
    #[must_use]
    pub fn channel_requirement(channel: &WearChannel) -> Requirement {
        match channel {
            WearChannel::DutyCycle { .. } => Requirement::SpringsLifetime,
            WearChannel::WriteBudget { .. } => Requirement::ProbesLifetime,
            WearChannel::EraseBudget { .. } => Requirement::EraseLifetime,
        }
    }

    /// The utilisation the format must reach for the probes to survive
    /// `target` years (from `Lpb = C·Dpb·u/(w·T·rs)`), or `None` if the
    /// probes never wear under this workload.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InfeasibleGoal`] when even the utilisation
    /// supremum cannot buy `target` years.
    pub fn required_utilization_for_probes(
        &self,
        target: Years,
    ) -> Result<Option<Ratio>, ModelError> {
        match self.write_budget_channel() {
            Some(channel) => self.required_utilization_for_channel(channel, target),
            None => Ok(None),
        }
    }

    /// What the wear channels demand of the buffer for `target` years:
    /// the part of a plan that every goal with this lifetime target shares
    /// at this model's stream rate.
    #[must_use]
    pub fn demands(&self, target: Years) -> WearDemands {
        let mut demands = WearDemands {
            target,
            buffers: Vec::new(),
            failure: None,
            probes: Ok(None),
        };
        self.measure(&mut demands);
        demands
    }

    /// Measures `demands` again under this model, for the same target,
    /// reusing its storage: what [`LifetimeModel::demands`] returns.
    pub fn measure(&self, demands: &mut WearDemands) {
        let target = demands.target;
        demands.buffers.clear();
        demands.failure = None;
        for channel in self.channels.iter() {
            match self.min_buffer_for_channel(channel, target) {
                Ok(Some(buffer)) => demands
                    .buffers
                    .push((Self::channel_requirement(channel), buffer)),
                Ok(None) => {}
                Err(err) => {
                    demands.failure = Some(err);
                    break;
                }
            }
        }
        demands.probes = match demands.failure {
            None => self.required_utilization_for_probes(target),
            Some(_) => Ok(None),
        };
    }

    fn required_utilization_for_channel(
        &self,
        channel: &WearChannel,
        target: Years,
    ) -> Result<Option<Ratio>, ModelError> {
        let WearChannel::WriteBudget {
            rating,
            budget_bits,
        } = *channel
        else {
            return Ok(None);
        };
        let w = self.workload.write_fraction().fraction();
        if w == 0.0 || target == Years::ZERO {
            return Ok(None); // read-only streams never wear probes out
        }
        let required_u = target.get() * w * self.workload.bits_per_year() / budget_bits;
        if required_u >= self.capacity.utilization_supremum().fraction() {
            return Err(ModelError::InfeasibleGoal {
                requirement: Requirement::ProbesLifetime,
                reason: InfeasibleReason::ProbesWornOut {
                    ceiling: self.channel_lifetime_ceiling(channel),
                    rate: self.workload.rate(),
                    rating,
                },
            });
        }
        if required_u <= 0.0 {
            return Ok(None);
        }
        Ok(Some(Ratio::from_fraction(required_u)))
    }
}

/// What a device's wear channels demand of the buffer for one lifetime
/// target at one stream rate ([`LifetimeModel::demands`]): each binding
/// channel's minimum buffer, in device order, and the utilisation the
/// probes need, which the sawtooth bump of a plan walks to. The first
/// channel that cannot reach the target ends the list, as it ends a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct WearDemands {
    target: Years,
    /// Each binding channel's minimum buffer, under the requirement it
    /// dictates, in device order; up to the first failing channel.
    pub(crate) buffers: Vec<(Requirement, DataSize)>,
    /// The first channel's failure to reach the target, if one failed.
    pub(crate) failure: Option<ModelError>,
    /// [`LifetimeModel::required_utilization_for_probes`] of the target,
    /// when no channel failed (`Ok(None)` otherwise).
    pub(crate) probes: Result<Option<Ratio>, ModelError>,
}

impl WearDemands {
    /// The lifetime target the demands were measured for.
    #[must_use]
    pub fn target(&self) -> Years {
        self.target
    }
}

impl fmt::Display for LifetimeModel<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lifetime model: {} wear channel(s), {}",
            self.channels.len(),
            self.workload
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memstream_device::{FlashDevice, MemsDevice};
    use memstream_units::BitRate;
    use proptest::prelude::*;

    fn model(device: &MemsDevice, kbps: f64) -> LifetimeModel<'static> {
        LifetimeModel::new(
            device,
            Workload::paper_default(BitRate::from_kbps(kbps)),
            CapacityModel::paper_default(),
        )
    }

    fn flash_model(device: &FlashDevice, kbps: f64) -> LifetimeModel<'static> {
        LifetimeModel::new(
            device,
            Workload::paper_default(BitRate::from_kbps(kbps)),
            CapacityModel::constant(
                Ratio::from_fraction(device.fixed_utilization()),
                device.capacity(),
            ),
        )
    }

    #[test]
    fn fig2b_springs_limit_about_4_years_in_plot_range() {
        // Fig. 2b: within the 0-45 kB plot the 1e8 springs cap the device
        // at ~4 years.
        let d = MemsDevice::table1();
        let m = model(&d, 1024.0);
        let years = m.springs_lifetime(DataSize::from_kibibytes(45.0));
        assert!((3.0..4.5).contains(&years.get()), "got {years}");
    }

    #[test]
    fn fig2b_seven_years_needs_about_90_kib() {
        // §IV-B: "about 90 kB is required to attain a 7-year lifetime".
        let d = MemsDevice::table1();
        let m = model(&d, 1024.0);
        let b = m.min_buffer_for_springs(Years::new(7.0));
        assert!(
            (85.0..100.0).contains(&b.kibibytes()),
            "got {} KiB",
            b.kibibytes()
        );
        assert!((m.springs_lifetime(b).get() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn fig2b_probes_lifetime_about_20_years() {
        // Fig. 2b: the probes curve saturates near ~20 years at Dpb = 100.
        let d = MemsDevice::table1();
        let m = model(&d, 1024.0);
        let years = m.probes_lifetime(DataSize::from_kibibytes(45.0));
        assert!((17.0..22.0).contains(&years.get()), "got {years}");
    }

    #[test]
    fn probes_lifetime_follows_capacity_trend() {
        // §IV-B: "probes lifetime follows the capacity trend".
        let d = MemsDevice::table1();
        let m = model(&d, 1024.0);
        let cap = CapacityModel::paper_default();
        let b1 = DataSize::from_kibibytes(2.0);
        let b2 = DataSize::from_kibibytes(20.0);
        let ratio_life = m.probes_lifetime(b2).get() / m.probes_lifetime(b1).get();
        let ratio_u = cap.utilization(b2).fraction() / cap.utilization(b1).fraction();
        assert!((ratio_life - ratio_u).abs() < 1e-9);
    }

    #[test]
    fn silicon_springs_remove_the_constraint() {
        // Fig. 3c: at Dsp = 1e12 the springs need only ~9 bytes for 7 years
        // at 1024 kbps — they vanish from the design space.
        let d = MemsDevice::table1().with_spring_duty_cycles(1e12);
        let m = model(&d, 1024.0);
        let b = m.min_buffer_for_springs(Years::new(7.0));
        assert!(b.kibibytes() < 0.1, "got {} KiB", b.kibibytes());
    }

    #[test]
    fn doubling_probe_rating_doubles_the_ceiling() {
        let d100 = MemsDevice::table1();
        let d200 = MemsDevice::table1().with_probe_write_cycles(200.0);
        let m100 = model(&d100, 1024.0);
        let m200 = model(&d200, 1024.0);
        let ratio = m200.probes_lifetime_ceiling().get() / m100.probes_lifetime_ceiling().get();
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn probes_goal_infeasible_at_high_rate_with_low_rating() {
        // The Fig. 3b vertical line: at a high enough rate, 7 years is
        // beyond the probes no matter the buffer.
        let d = MemsDevice::table1();
        let m = model(&d, 4096.0);
        let err = m.min_buffer_for_probes(Years::new(7.0)).unwrap_err();
        match err {
            ModelError::InfeasibleGoal { requirement, .. } => {
                assert_eq!(requirement, Requirement::ProbesLifetime);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn probes_goal_feasible_after_rating_doubles() {
        // Fig. 3c: doubling Dpb to 200 admits the whole 32-4096 kbps range.
        let d = MemsDevice::table1().with_probe_write_cycles(200.0);
        let m = model(&d, 4096.0);
        assert!(m.min_buffer_for_probes(Years::new(7.0)).is_ok());
    }

    #[test]
    fn read_only_workload_never_wears_probes() {
        let d = MemsDevice::table1();
        let w = Workload::new(
            memstream_workload::StreamSpec::read_only(BitRate::from_kbps(1024.0)).unwrap(),
            memstream_workload::PlaybackCalendar::paper_default(),
            Ratio::from_percent(5.0),
        )
        .unwrap();
        let m = LifetimeModel::new(&d, w, CapacityModel::paper_default());
        assert!(m
            .probes_lifetime(DataSize::from_kibibytes(10.0))
            .is_unbounded());
        assert_eq!(m.min_buffer_for_probes(Years::new(7.0)).unwrap(), None);
    }

    #[test]
    fn device_lifetime_is_componentwise_minimum() {
        let d = MemsDevice::table1();
        let m = model(&d, 1024.0);
        let b = DataSize::from_kibibytes(20.0);
        let l = m.device_lifetime(b);
        assert_eq!(l, m.springs_lifetime(b).min(m.probes_lifetime(b)));
    }

    #[test]
    fn duty_cycle_functions_roundtrip() {
        let w = Workload::paper_default(BitRate::from_kbps(1024.0));
        let b = min_buffer_for_duty_cycles(1e5, Years::new(7.0), &w);
        // A disk-class 1e5 rating needs an MB-scale buffer for 7 years.
        assert!(
            (85.0..95.0).contains(&b.mebibytes()),
            "{} MiB",
            b.mebibytes()
        );
        let back = duty_cycle_lifetime(1e5, b, &w);
        assert!((back.get() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn springs_lifetime_agrees_with_generic_form() {
        let d = MemsDevice::table1();
        let m = model(&d, 1024.0);
        let w = Workload::paper_default(BitRate::from_kbps(1024.0));
        let b = DataSize::from_kibibytes(45.0);
        assert!(
            (m.springs_lifetime(b).get() - duty_cycle_lifetime(1e8, b, &w).get()).abs() < 1e-12
        );
    }

    #[test]
    fn three_orders_rating_compensates_three_orders_buffer() {
        // SIII-C.1: "the springs must have a duty-cycle rating that is
        // three orders of magnitude larger than that of the disk drive."
        let w = Workload::paper_default(BitRate::from_kbps(1024.0));
        let disk = duty_cycle_lifetime(1e5, DataSize::from_mebibytes(2.5), &w);
        let mems = duty_cycle_lifetime(1e8, DataSize::from_kibibytes(2.56), &w);
        assert!((disk.get() / mems.get() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn erase_channel_lifetime_grows_with_buffer() {
        // Write amplification shrinks as the buffer grows, so erase-block
        // lifetime is monotone increasing in B.
        let d = FlashDevice::mobile_mlc();
        let m = flash_model(&d, 1024.0);
        let small = m.device_lifetime(DataSize::from_kibibytes(8.0));
        let large = m.device_lifetime(DataSize::from_kibibytes(128.0));
        assert!(large.get() > small.get(), "{small} !< {large}");
        // And it is capped by the write-amplification floor.
        let ceiling = m.channel_lifetime_ceiling(&m.channels()[0]);
        assert!(m.device_lifetime(DataSize::from_mebibytes(64.0)).get() <= ceiling.get() + 1e-9);
    }

    #[test]
    fn erase_channel_inversion_meets_the_target() {
        let d = FlashDevice::mobile_mlc();
        let m = flash_model(&d, 1024.0);
        let channel = m.channels()[0];
        let b = m
            .min_buffer_for_channel(&channel, Years::new(7.0))
            .unwrap()
            .expect("writes wear flash");
        assert!(m.channel_lifetime(&channel, b).get() >= 7.0 - 1e-9);
        // Slightly below the answer the target is missed.
        assert!(m.channel_lifetime(&channel, b * 0.95).get() < 7.0);
    }

    #[test]
    fn erase_channel_infeasible_target_names_erase_lifetime() {
        let d = FlashDevice::mobile_mlc();
        let m = flash_model(&d, 4096.0);
        let channel = m.channels()[0];
        let ceiling = m.channel_lifetime_ceiling(&channel);
        let err = m
            .min_buffer_for_channel(&channel, Years::new(ceiling.get() * 2.0))
            .unwrap_err();
        match err {
            ModelError::InfeasibleGoal { requirement, .. } => {
                assert_eq!(requirement, Requirement::EraseLifetime);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    proptest! {
        #[test]
        fn springs_lifetime_linear_in_buffer(kib in 0.1..1000.0f64) {
            let d = MemsDevice::table1();
            let m = model(&d, 1024.0);
            let l1 = m.springs_lifetime(DataSize::from_kibibytes(kib)).get();
            let l2 = m.springs_lifetime(DataSize::from_kibibytes(kib * 3.0)).get();
            prop_assert!((l2 / l1 - 3.0).abs() < 1e-9);
        }

        #[test]
        fn springs_inverse_roundtrips(years in 0.1..50.0f64, kbps in 32.0..4096.0f64) {
            let d = MemsDevice::table1();
            let m = model(&d, kbps);
            let b = m.min_buffer_for_springs(Years::new(years));
            prop_assert!((m.springs_lifetime(b).get() - years).abs() < years * 1e-9);
        }

        #[test]
        fn probes_inverse_meets_target_when_feasible(years in 0.5..15.0f64) {
            let d = MemsDevice::table1();
            let m = model(&d, 1024.0);
            if let Ok(Some(b)) = m.min_buffer_for_probes(Years::new(years)) {
                prop_assert!(m.probes_lifetime(b).get() >= years - 1e-9);
            }
        }

        #[test]
        fn lifetime_ceiling_bounds_all_buffers(kib in 0.1..10_000.0f64) {
            let d = MemsDevice::table1();
            let m = model(&d, 1024.0);
            let l = m.probes_lifetime(DataSize::from_kibibytes(kib));
            prop_assert!(l.get() <= m.probes_lifetime_ceiling().get() + 1e-9);
        }

        #[test]
        fn erase_lifetime_monotone_in_buffer(kib in 1.0..5000.0f64) {
            let d = FlashDevice::mobile_mlc();
            let m = flash_model(&d, 1024.0);
            let l1 = m.device_lifetime(DataSize::from_kibibytes(kib));
            let l2 = m.device_lifetime(DataSize::from_kibibytes(kib * 1.5));
            prop_assert!(l2.get() >= l1.get());
        }
    }
}
