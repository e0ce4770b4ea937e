//! A 1.8-inch disk drive model, the paper's comparison device.
//!
//! §III-A.1 contrasts the MEMS break-even buffer (0.07–8.87 kB over
//! 32–4096 kbps) with that of a 1.8-inch drive (0.08–9.29 MB) — three orders
//! of magnitude. The paper does not tabulate the drive's parameters (they
//! come from Khatib's 2009 thesis), so this model is *calibrated*: the
//! defaults below land the break-even range on the published values. See
//! `DESIGN.md` §4.5 for the substitution note.

use std::fmt;

use memstream_units::{BitRate, DataSize, Duration, Power};

use crate::capability::{
    parameter_token, StorageDevice, UtilizationSpec, WearChannel, WearModelled,
};
use crate::error::DeviceError;
use crate::power::{EnergyModelled, MechanicalDevice, PowerState};

/// A small-form-factor disk drive with spin-up/down overheads.
///
/// ```
/// use memstream_device::{DiskDevice, EnergyModelled};
///
/// let disk = DiskDevice::calibrated_1p8_inch();
/// // Disk overhead is seconds, MEMS overhead is milliseconds: the three
/// // orders of magnitude in the break-even buffer come from right here.
/// assert!(disk.overhead_time().seconds() > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiskDevice {
    name: String,
    capacity: DataSize,
    media_rate: BitRate,
    spin_up_time: Duration,
    spin_down_time: Duration,
    spin_up_power: Power,
    spin_down_power: Power,
    read_write_power: Power,
    idle_power: Power,
    standby_power: Power,
    /// Start/stop (load/unload) cycle rating; the paper quotes ~10⁵ for the
    /// 1.8-inch class.
    start_stop_cycles: f64,
    /// Fixed fraction of the raw capacity left after the LBA sector format
    /// (sync marks, servo wedges, ECC) — set at manufacture time, so it is
    /// buffer-independent, unlike the MEMS sawtooth.
    format_utilization: f64,
}

impl DiskDevice {
    /// A representative 1.8-inch drive calibrated so that its break-even
    /// buffer over 32–4096 kbps spans ~0.08–~10 MB, reproducing the
    /// three-orders-of-magnitude contrast of §III-A.1.
    ///
    /// Calibration (see `DESIGN.md` §4.5): spin-up 2.5 s at 2.2 W, spin-down
    /// 1.0 s at 0.8 W, idle 400 mW, standby 100 mW, media rate 100 Mbps,
    /// start/stop rating 10⁵ cycles.
    #[must_use]
    pub fn calibrated_1p8_inch() -> Self {
        DiskDevice::builder()
            .build()
            .expect("calibrated 1.8-inch parameters are valid")
    }

    /// Starts building a custom drive from the calibrated 1.8-inch defaults.
    #[must_use]
    pub fn builder() -> DiskDeviceBuilder {
        DiskDeviceBuilder::new()
    }

    /// Raw drive capacity.
    #[must_use]
    pub fn capacity(&self) -> DataSize {
        self.capacity
    }

    /// Start/stop cycle rating (the disk analogue of the springs'
    /// duty-cycle rating; ~10⁵ for this drive class per §III-C.1).
    #[must_use]
    pub fn start_stop_cycles(&self) -> f64 {
        self.start_stop_cycles
    }

    /// The fixed utilisation left after the drive's LBA sector format.
    #[must_use]
    pub fn format_utilization(&self) -> f64 {
        self.format_utilization
    }
}

impl WearModelled for DiskDevice {
    /// The drive's one wear mechanism: every refill round trip spends one
    /// head load/unload (start-stop) cycle — the same Eq. (5) duty-cycle
    /// law as the MEMS springs, at the 1.8-inch class's ~10⁵ rating
    /// (§III-C.1's "three orders of magnitude" argument lives in this
    /// rating gap).
    fn wear_channels(&self) -> Vec<WearChannel> {
        vec![WearChannel::DutyCycle {
            rating: self.start_stop_cycles,
        }]
    }
}

impl EnergyModelled for DiskDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn media_rate(&self) -> BitRate {
        self.media_rate
    }

    fn power(&self, state: PowerState) -> Power {
        match state {
            PowerState::Standby => self.standby_power,
            PowerState::Seek => self.spin_up_power,
            PowerState::ReadWrite => self.read_write_power,
            PowerState::Idle => self.idle_power,
            PowerState::Shutdown => self.spin_down_power,
        }
    }

    /// For a disk the pre-transfer overhead is the spin-up.
    fn seek_time(&self) -> Duration {
        self.spin_up_time
    }

    /// For a disk the post-transfer overhead is the spin-down.
    fn shutdown_time(&self) -> Duration {
        self.spin_down_time
    }
}

impl MechanicalDevice for DiskDevice {}

impl StorageDevice for DiskDevice {
    fn kind(&self) -> &'static str {
        "disk"
    }

    /// `disk:` and every physical parameter in builder order: capacity
    /// (bits), media rate (bit/s), spin-up and spin-down times (s),
    /// spin-up, spin-down, read/write, idle and standby powers (W),
    /// start/stop cycles, format utilisation. The name is left out.
    fn dedup_token(&self) -> String {
        parameter_token(
            "disk",
            &[
                self.capacity.bits(),
                self.media_rate.bits_per_second(),
                self.spin_up_time.seconds(),
                self.spin_down_time.seconds(),
                self.spin_up_power.watts(),
                self.spin_down_power.watts(),
                self.read_write_power.watts(),
                self.idle_power.watts(),
                self.standby_power.watts(),
                self.start_stop_cycles,
                self.format_utilization,
            ],
        )
    }

    fn capacity(&self) -> DataSize {
        self.capacity
    }

    fn energy(&self) -> Option<&dyn EnergyModelled> {
        Some(self)
    }

    /// Start-stop wear rides the generic duty-cycle channel, so disk
    /// cells plan full (energy, capacity, lifetime) trade-offs instead of
    /// dropping to energy-only evaluation. To reproduce the paper-era
    /// break-even-comparison role (§III-A.1), register the drive behind
    /// [`crate::EnergyOnly`].
    fn wear(&self) -> Option<&dyn WearModelled> {
        Some(self)
    }

    fn utilization(&self) -> Option<UtilizationSpec> {
        Some(UtilizationSpec::Constant {
            fraction: self.format_utilization,
        })
    }

    fn clone_box(&self) -> Box<dyn StorageDevice> {
        Box::new(self.clone())
    }
}

impl Default for DiskDevice {
    fn default() -> Self {
        DiskDevice::calibrated_1p8_inch()
    }
}

impl fmt::Display for DiskDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} capacity, {} media rate)",
            self.name, self.capacity, self.media_rate
        )
    }
}

/// Builder for [`DiskDevice`], pre-populated with the calibrated 1.8-inch
/// defaults.
#[derive(Debug, Clone)]
pub struct DiskDeviceBuilder {
    device: DiskDevice,
}

impl DiskDeviceBuilder {
    /// Creates a builder holding the calibrated 1.8-inch defaults.
    #[must_use]
    pub fn new() -> Self {
        DiskDeviceBuilder {
            device: DiskDevice {
                name: "calibrated 1.8-inch disk drive".to_owned(),
                capacity: DataSize::from_gigabytes(80.0),
                media_rate: BitRate::from_mbps(100.0),
                spin_up_time: Duration::from_seconds(2.5),
                spin_down_time: Duration::from_seconds(1.0),
                spin_up_power: Power::from_watts(2.2),
                spin_down_power: Power::from_watts(0.8),
                read_write_power: Power::from_watts(1.4),
                idle_power: Power::from_milliwatts(400.0),
                standby_power: Power::from_milliwatts(100.0),
                start_stop_cycles: 1e5,
                format_utilization: 0.95,
            },
        }
    }

    /// Sets the drive name used in reports.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.device.name = name.into();
        self
    }

    /// Sets the raw capacity.
    #[must_use]
    pub fn capacity(mut self, capacity: DataSize) -> Self {
        self.device.capacity = capacity;
        self
    }

    /// Sets the sustained media rate.
    #[must_use]
    pub fn media_rate(mut self, rate: BitRate) -> Self {
        self.device.media_rate = rate;
        self
    }

    /// Sets the spin-up time.
    #[must_use]
    pub fn spin_up_time(mut self, t: Duration) -> Self {
        self.device.spin_up_time = t;
        self
    }

    /// Sets the spin-down time.
    #[must_use]
    pub fn spin_down_time(mut self, t: Duration) -> Self {
        self.device.spin_down_time = t;
        self
    }

    /// Sets the spin-up power.
    #[must_use]
    pub fn spin_up_power(mut self, p: Power) -> Self {
        self.device.spin_up_power = p;
        self
    }

    /// Sets the spin-down power.
    #[must_use]
    pub fn spin_down_power(mut self, p: Power) -> Self {
        self.device.spin_down_power = p;
        self
    }

    /// Sets the read/write power.
    #[must_use]
    pub fn read_write_power(mut self, p: Power) -> Self {
        self.device.read_write_power = p;
        self
    }

    /// Sets the idle power.
    #[must_use]
    pub fn idle_power(mut self, p: Power) -> Self {
        self.device.idle_power = p;
        self
    }

    /// Sets the standby power.
    #[must_use]
    pub fn standby_power(mut self, p: Power) -> Self {
        self.device.standby_power = p;
        self
    }

    /// Sets the start/stop cycle rating.
    #[must_use]
    pub fn start_stop_cycles(mut self, cycles: f64) -> Self {
        self.device.start_stop_cycles = cycles;
        self
    }

    /// Sets the fixed utilisation left after the LBA sector format.
    #[must_use]
    pub fn format_utilization(mut self, fraction: f64) -> Self {
        self.device.format_utilization = fraction;
        self
    }

    /// Validates and produces the drive.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if a strictly-positive parameter is zero or
    /// standby is not the lowest power state.
    pub fn build(self) -> Result<DiskDevice, DeviceError> {
        let d = self.device;
        if d.capacity.is_zero() {
            return Err(DeviceError::ZeroParameter {
                parameter: "capacity",
            });
        }
        if d.media_rate.is_zero() {
            return Err(DeviceError::ZeroParameter {
                parameter: "media_rate",
            });
        }
        if d.spin_up_time.is_zero() && d.spin_down_time.is_zero() {
            return Err(DeviceError::ZeroParameter {
                parameter: "spin_up_time + spin_down_time",
            });
        }
        if d.start_stop_cycles <= 0.0 || d.start_stop_cycles.is_nan() {
            return Err(DeviceError::ZeroParameter {
                parameter: "start_stop_cycles",
            });
        }
        if d.format_utilization <= 0.0 || d.format_utilization.is_nan() {
            return Err(DeviceError::ZeroParameter {
                parameter: "format_utilization",
            });
        }
        if d.format_utilization > 1.0 {
            return Err(DeviceError::FractionOutOfRange {
                parameter: "format_utilization",
                value: d.format_utilization,
            });
        }
        for (name, p) in [
            ("idle", d.idle_power),
            ("read/write", d.read_write_power),
            ("spin-up", d.spin_up_power),
            ("spin-down", d.spin_down_power),
        ] {
            if p < d.standby_power {
                return Err(DeviceError::StandbyNotLowest {
                    standby_watts: d.standby_power.watts(),
                    undercut_by: name,
                    other_watts: p.watts(),
                });
            }
        }
        Ok(d)
    }
}

impl Default for DiskDeviceBuilder {
    fn default() -> Self {
        DiskDeviceBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_seconds_not_milliseconds() {
        let disk = DiskDevice::calibrated_1p8_inch();
        assert!((disk.overhead_time().seconds() - 3.5).abs() < 1e-12);
        // Eoh = 2.5*2.2 + 1.0*0.8 = 6.3 J.
        assert!((disk.overhead_energy().joules() - 6.3).abs() < 1e-12);
    }

    #[test]
    fn overhead_ratio_vs_mems_is_three_orders_of_magnitude() {
        use crate::mems::MemsDevice;
        let disk = DiskDevice::calibrated_1p8_inch();
        let mems = MemsDevice::table1();
        let ratio = disk.overhead_energy() / mems.overhead_energy();
        assert!(
            (1e2..1e5).contains(&ratio),
            "expected ~3 orders of magnitude, got {ratio}"
        );
    }

    #[test]
    fn builder_rejects_standby_above_idle() {
        let err = DiskDevice::builder()
            .standby_power(Power::from_watts(0.5))
            .build()
            .unwrap_err();
        assert!(matches!(err, DeviceError::StandbyNotLowest { .. }));
    }

    #[test]
    fn builder_rejects_zero_media_rate() {
        let err = DiskDevice::builder()
            .media_rate(BitRate::ZERO)
            .build()
            .unwrap_err();
        assert!(matches!(err, DeviceError::ZeroParameter { .. }));
    }

    #[test]
    fn start_stop_rating_is_1e5_class() {
        // §III-C.1: "the 10^5 rating of the 1.8-inch disk drive".
        assert_eq!(DiskDevice::calibrated_1p8_inch().start_stop_cycles(), 1e5);
    }

    #[test]
    fn disk_exposes_the_full_pipeline_capabilities() {
        let disk = DiskDevice::calibrated_1p8_inch();
        assert!(disk.energy().is_some());
        assert!(disk.wear().is_some());
        match disk.utilization() {
            Some(UtilizationSpec::Constant { fraction }) => assert_eq!(fraction, 0.95),
            other => panic!("expected a constant utilisation spec, got {other:?}"),
        }
        // Start-stop wear is the drive's single duty-cycle channel.
        let channels = disk.wear_channels();
        assert_eq!(
            channels,
            vec![WearChannel::DutyCycle { rating: 1e5 }],
            "start-stop cycles ride the generic duty-cycle channel"
        );
        // Still no sim backing: the simulator only replays MEMS and flash.
        assert!(disk.sim().is_none());
    }

    #[test]
    fn builder_rejects_out_of_range_format_utilization() {
        // Non-positive (or NaN) values violate strict positivity ...
        for bad in [0.0, -0.1, f64::NAN] {
            let err = DiskDevice::builder()
                .format_utilization(bad)
                .build()
                .unwrap_err();
            assert!(matches!(err, DeviceError::ZeroParameter { .. }), "{bad}");
        }
        // ... while a positive value above 1 is a range error, diagnosed
        // as such (telling the user "must be strictly positive" about 1.5
        // would point them the wrong way).
        let err = DiskDevice::builder()
            .format_utilization(1.5)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            DeviceError::FractionOutOfRange {
                parameter: "format_utilization",
                ..
            }
        ));
    }
}
