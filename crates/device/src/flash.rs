//! A managed NAND flash device model — the first device to enter the
//! workspace through the capability seam instead of the paper's closed
//! MEMS/disk pair.
//!
//! Flash has no moving medium, but it fits the same refill-cycle energy
//! model: the "seek" is the exit from deep power-down, the "shutdown" is
//! the re-entry, and the payoff state is deep power-down instead of a
//! halted medium. What it does *not* share is the wear physics: instead of
//! spring fatigue and probe write cycles, flash wears by **erase-block
//! program/erase (P/E) cycles**, inflated by a **write-amplification
//! factor** that shrinks as the streaming buffer grows (large aligned
//! bursts avoid partial-block programs and copy-back traffic).
//!
//! The parameters of [`FlashDevice::mobile_mlc`] are calibrated to a
//! 2011-class managed eMMC part; like the 1.8-inch disk they are
//! representative, not tabulated in the paper.

use std::fmt;

use memstream_units::{BitRate, DataSize, Duration, Power};

use crate::capability::{
    parameter_token, SimBacked, StorageDevice, UtilizationSpec, WearChannel, WearModelled, WearSpec,
};
use crate::error::DeviceError;
use crate::power::{EnergyModelled, PowerState};

/// A managed NAND flash storage device with erase-block wear.
///
/// ```
/// use memstream_device::{EnergyModelled, FlashDevice};
///
/// let flash = FlashDevice::mobile_mlc();
/// // Sub-millisecond overhead: three orders of magnitude below the disk's
/// // spin-up, the same contrast the paper draws for MEMS.
/// assert!(flash.overhead_time().millis() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlashDevice {
    name: String,
    capacity: DataSize,
    media_rate: BitRate,
    resume_time: Duration,
    power_down_time: Duration,
    io_overhead_time: Duration,
    transition_power: Power,
    read_write_power: Power,
    idle_power: Power,
    deep_power_down: Power,
    erase_block: DataSize,
    pe_cycles: f64,
    waf_floor: f64,
    fixed_utilization: f64,
}

impl FlashDevice {
    /// A 2011-class mobile MLC part: 64 GB, 160 Mbps sustained, 0.5 ms
    /// resume / 0.3 ms power-down at 60 mW, 240 mW program/read, 80 mW
    /// idle, 0.1 mW deep power-down, 512 KiB erase blocks rated for 3000
    /// P/E cycles, write-amplification floor 1.1, 7 % over-provisioning
    /// (fixed utilisation 93 %).
    #[must_use]
    pub fn mobile_mlc() -> Self {
        FlashDevice::builder()
            .build()
            .expect("mobile MLC parameters are valid")
    }

    /// Starts building a custom part from the [`FlashDevice::mobile_mlc`]
    /// defaults.
    #[must_use]
    pub fn builder() -> FlashDeviceBuilder {
        FlashDeviceBuilder::new()
    }

    /// Raw media capacity.
    #[must_use]
    pub fn capacity(&self) -> DataSize {
        self.capacity
    }

    /// Size of one erase block.
    #[must_use]
    pub fn erase_block(&self) -> DataSize {
        self.erase_block
    }

    /// Number of erase blocks on the medium.
    #[must_use]
    pub fn erase_blocks(&self) -> u32 {
        let blocks = (self.capacity.bits() / self.erase_block.bits()).floor();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            blocks.max(1.0).min(f64::from(u32::MAX)) as u32
        }
    }

    /// Program/erase cycle rating per block.
    #[must_use]
    pub fn pe_cycles(&self) -> f64 {
        self.pe_cycles
    }

    /// The write-amplification asymptote for large aligned writes.
    #[must_use]
    pub fn waf_floor(&self) -> f64 {
        self.waf_floor
    }

    /// Write amplification at buffer size `buffer`:
    /// `waf(B) = waf_floor + block_bits / B`.
    ///
    /// # Panics
    ///
    /// Panics if `buffer` is zero.
    #[must_use]
    pub fn write_amplification(&self, buffer: DataSize) -> f64 {
        assert!(!buffer.is_zero(), "write amplification needs a buffer");
        self.waf_floor + self.erase_block.bits() / buffer.bits()
    }

    /// The fixed utilisation left after over-provisioning.
    #[must_use]
    pub fn fixed_utilization(&self) -> f64 {
        self.fixed_utilization
    }

    /// Total write budget in bit-writes (`C · pe_cycles`).
    #[must_use]
    pub fn write_budget_bits(&self) -> f64 {
        self.capacity.bits() * self.pe_cycles
    }

    /// Returns a copy with a different P/E-cycle rating.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is not strictly positive.
    #[must_use]
    pub fn with_pe_cycles(&self, cycles: f64) -> Self {
        assert!(cycles > 0.0, "P/E cycles must be positive");
        let mut copy = self.clone();
        copy.pe_cycles = cycles;
        copy
    }
}

impl EnergyModelled for FlashDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn media_rate(&self) -> BitRate {
        self.media_rate
    }

    fn power(&self, state: PowerState) -> Power {
        match state {
            PowerState::Standby => self.deep_power_down,
            PowerState::Seek | PowerState::Shutdown => self.transition_power,
            PowerState::ReadWrite => self.read_write_power,
            PowerState::Idle => self.idle_power,
        }
    }

    /// The pre-transfer overhead is the deep power-down exit.
    fn seek_time(&self) -> Duration {
        self.resume_time
    }

    /// The post-transfer overhead is the deep power-down entry.
    fn shutdown_time(&self) -> Duration {
        self.power_down_time
    }
}

impl WearModelled for FlashDevice {
    fn wear_channels(&self) -> Vec<WearChannel> {
        vec![WearChannel::EraseBudget {
            budget_bits: self.write_budget_bits(),
            block_bits: self.erase_block.bits(),
            waf_floor: self.waf_floor,
        }]
    }
}

impl SimBacked for FlashDevice {
    fn io_overhead_time(&self) -> Duration {
        self.io_overhead_time
    }

    /// Flash pays no striping sync overhead; the format is a single
    /// logical lane.
    fn stripe_width(&self) -> u32 {
        1
    }

    fn wear_spec(&self) -> WearSpec {
        WearSpec::EraseBlocks {
            blocks: self.erase_blocks(),
            block_bits: self.erase_block.bits(),
            pe_cycles: self.pe_cycles,
            waf_floor: self.waf_floor,
        }
    }

    fn clone_sim(&self) -> Box<dyn SimBacked> {
        Box::new(self.clone())
    }
}

impl StorageDevice for FlashDevice {
    fn kind(&self) -> &'static str {
        "flash"
    }

    /// `flash:` and every physical parameter in builder order: capacity
    /// (bits), media rate (bit/s), resume, power-down and I/O overhead
    /// times (s), transition, read/write, idle and deep power-down powers
    /// (W), erase block (bits), P/E cycles, write-amplification floor,
    /// fixed utilisation. The name is left out.
    fn dedup_token(&self) -> String {
        parameter_token(
            "flash",
            &[
                self.capacity.bits(),
                self.media_rate.bits_per_second(),
                self.resume_time.seconds(),
                self.power_down_time.seconds(),
                self.io_overhead_time.seconds(),
                self.transition_power.watts(),
                self.read_write_power.watts(),
                self.idle_power.watts(),
                self.deep_power_down.watts(),
                self.erase_block.bits(),
                self.pe_cycles,
                self.waf_floor,
                self.fixed_utilization,
            ],
        )
    }

    fn capacity(&self) -> DataSize {
        self.capacity
    }

    fn energy(&self) -> Option<&dyn EnergyModelled> {
        Some(self)
    }

    fn wear(&self) -> Option<&dyn WearModelled> {
        Some(self)
    }

    fn sim(&self) -> Option<&dyn SimBacked> {
        Some(self)
    }

    fn utilization(&self) -> Option<UtilizationSpec> {
        Some(UtilizationSpec::Constant {
            fraction: self.fixed_utilization,
        })
    }

    fn clone_box(&self) -> Box<dyn StorageDevice> {
        Box::new(self.clone())
    }
}

impl Default for FlashDevice {
    fn default() -> Self {
        FlashDevice::mobile_mlc()
    }
}

impl fmt::Display for FlashDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} capacity, {} media rate, {} erase blocks)",
            self.name,
            self.capacity,
            self.media_rate,
            self.erase_blocks()
        )
    }
}

/// Builder for [`FlashDevice`], pre-populated with the mobile-MLC
/// defaults.
#[derive(Debug, Clone)]
pub struct FlashDeviceBuilder {
    device: FlashDevice,
}

impl FlashDeviceBuilder {
    /// Creates a builder holding the mobile-MLC defaults.
    #[must_use]
    pub fn new() -> Self {
        FlashDeviceBuilder {
            device: FlashDevice {
                name: "mobile MLC flash (2011 class)".to_owned(),
                capacity: DataSize::from_gigabytes(64.0),
                media_rate: BitRate::from_mbps(160.0),
                resume_time: Duration::from_millis(0.5),
                power_down_time: Duration::from_millis(0.3),
                io_overhead_time: Duration::from_millis(0.5),
                transition_power: Power::from_milliwatts(60.0),
                read_write_power: Power::from_milliwatts(240.0),
                idle_power: Power::from_milliwatts(80.0),
                deep_power_down: Power::from_milliwatts(0.1),
                erase_block: DataSize::from_kibibytes(512.0),
                pe_cycles: 3000.0,
                waf_floor: 1.1,
                fixed_utilization: 0.93,
            },
        }
    }

    /// Sets the device name used in reports.
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

    /// Sets the deep power-down exit time (the "seek").
    #[must_use]
    pub fn resume_time(mut self, t: Duration) -> Self {
        self.device.resume_time = t;
        self
    }

    /// Sets the deep power-down entry time (the "shutdown").
    #[must_use]
    pub fn power_down_time(mut self, t: Duration) -> Self {
        self.device.power_down_time = t;
        self
    }

    /// Sets the per-access I/O overhead time.
    #[must_use]
    pub fn io_overhead_time(mut self, t: Duration) -> Self {
        self.device.io_overhead_time = t;
        self
    }

    /// Sets the power drawn during resume and power-down transitions.
    #[must_use]
    pub fn transition_power(mut self, p: Power) -> Self {
        self.device.transition_power = p;
        self
    }

    /// Sets the program/read power.
    #[must_use]
    pub fn read_write_power(mut self, p: Power) -> Self {
        self.device.read_write_power = p;
        self
    }

    /// Sets the idle (ready, clocked) power.
    #[must_use]
    pub fn idle_power(mut self, p: Power) -> Self {
        self.device.idle_power = p;
        self
    }

    /// Sets the deep power-down power.
    #[must_use]
    pub fn deep_power_down(mut self, p: Power) -> Self {
        self.device.deep_power_down = p;
        self
    }

    /// Sets the erase-block size.
    #[must_use]
    pub fn erase_block(mut self, size: DataSize) -> Self {
        self.device.erase_block = size;
        self
    }

    /// Sets the P/E-cycle rating per block.
    #[must_use]
    pub fn pe_cycles(mut self, cycles: f64) -> Self {
        self.device.pe_cycles = cycles;
        self
    }

    /// Sets the write-amplification floor (≥ 1).
    #[must_use]
    pub fn waf_floor(mut self, waf: f64) -> Self {
        self.device.waf_floor = waf;
        self
    }

    /// Sets the fixed utilisation left after over-provisioning.
    #[must_use]
    pub fn fixed_utilization(mut self, fraction: f64) -> Self {
        self.device.fixed_utilization = fraction;
        self
    }

    /// Validates and produces the device.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if any strictly-positive parameter is zero
    /// or NaN, if the write-amplification floor is below 1, if the fixed
    /// utilisation leaves `(0, 1]`, or if deep power-down is not the
    /// lowest power state.
    pub fn build(self) -> Result<FlashDevice, DeviceError> {
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
        if d.resume_time.is_zero() && d.power_down_time.is_zero() {
            return Err(DeviceError::ZeroParameter {
                parameter: "resume_time + power_down_time",
            });
        }
        if d.erase_block.is_zero() || d.erase_block > d.capacity {
            return Err(DeviceError::ZeroParameter {
                parameter: "erase_block",
            });
        }
        if d.pe_cycles <= 0.0 || d.pe_cycles.is_nan() {
            return Err(DeviceError::ZeroParameter {
                parameter: "pe_cycles",
            });
        }
        if d.waf_floor < 1.0 || d.waf_floor.is_nan() {
            return Err(DeviceError::ZeroParameter {
                parameter: "waf_floor",
            });
        }
        if d.fixed_utilization <= 0.0 || d.fixed_utilization.is_nan() {
            return Err(DeviceError::ZeroParameter {
                parameter: "fixed_utilization",
            });
        }
        if d.fixed_utilization > 1.0 {
            return Err(DeviceError::FractionOutOfRange {
                parameter: "fixed_utilization",
                value: d.fixed_utilization,
            });
        }
        for (name, p) in [
            ("idle", d.idle_power),
            ("read/write", d.read_write_power),
            ("transition", d.transition_power),
        ] {
            if p < d.deep_power_down {
                return Err(DeviceError::StandbyNotLowest {
                    standby_watts: d.deep_power_down.watts(),
                    undercut_by: name,
                    other_watts: p.watts(),
                });
            }
        }
        Ok(d)
    }
}

impl Default for FlashDeviceBuilder {
    fn default() -> Self {
        FlashDeviceBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mobile_mlc_overheads_are_sub_millisecond() {
        let f = FlashDevice::mobile_mlc();
        assert!((f.overhead_time().millis() - 0.8).abs() < 1e-12);
        assert!(f.overhead_energy().joules() > 0.0);
    }

    #[test]
    fn erase_block_count_covers_the_capacity() {
        let f = FlashDevice::mobile_mlc();
        let expected = (f.capacity().bits() / f.erase_block().bits()).floor();
        assert_eq!(f.erase_blocks(), expected as u32);
        assert!(f.erase_blocks() > 100_000);
    }

    #[test]
    fn write_amplification_decreases_with_buffer() {
        let f = FlashDevice::mobile_mlc();
        let small = f.write_amplification(DataSize::from_kibibytes(8.0));
        let large = f.write_amplification(DataSize::from_kibibytes(512.0));
        assert!(small > large);
        assert!((large - (f.waf_floor() + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_sub_unity_waf() {
        let err = FlashDevice::builder().waf_floor(0.9).build().unwrap_err();
        assert!(matches!(err, DeviceError::ZeroParameter { .. }));
    }

    #[test]
    fn builder_rejects_deep_power_down_above_idle() {
        let err = FlashDevice::builder()
            .deep_power_down(Power::from_milliwatts(100.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, DeviceError::StandbyNotLowest { .. }));
    }

    #[test]
    fn builder_rejects_block_larger_than_capacity() {
        let err = FlashDevice::builder()
            .capacity(DataSize::from_kibibytes(256.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, DeviceError::ZeroParameter { .. }));
    }

    proptest! {
        #[test]
        fn waf_is_monotone_decreasing_in_buffer(kib in 1.0..10_000.0f64) {
            let f = FlashDevice::mobile_mlc();
            let b1 = DataSize::from_kibibytes(kib);
            let b2 = DataSize::from_kibibytes(kib * 2.0);
            prop_assert!(f.write_amplification(b2) < f.write_amplification(b1));
            prop_assert!(f.write_amplification(b1) >= f.waf_floor());
        }

        #[test]
        fn pe_rating_scales_the_budget(pe in 100.0..100_000.0f64) {
            let f = FlashDevice::mobile_mlc().with_pe_cycles(pe);
            prop_assert_eq!(f.write_budget_bits(), f.capacity().bits() * pe);
        }
    }
}
