//! The probe-based MEMS storage device model (Table I of the paper).

use std::fmt;

use memstream_units::{BitRate, DataSize, Duration, Power};

use crate::capability::{
    parameter_token, SimBacked, StorageDevice, UtilizationSpec, WearChannel, WearModelled, WearSpec,
};
use crate::error::DeviceError;
use crate::power::{EnergyModelled, MechanicalDevice, PowerState};

/// Geometry of the probe array.
///
/// Table I: a `64 × 64` array of which 1024 probes are simultaneously
/// active, each sweeping a `100 × 100 µm²` field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeArray {
    rows: u32,
    cols: u32,
    active: u32,
    field_side_um: f64,
}

impl ProbeArray {
    /// Creates a probe array description.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if any dimension is zero or if more probes
    /// are active than exist.
    pub fn new(rows: u32, cols: u32, active: u32, field_side_um: f64) -> Result<Self, DeviceError> {
        if rows == 0 {
            return Err(DeviceError::ZeroParameter { parameter: "rows" });
        }
        if cols == 0 {
            return Err(DeviceError::ZeroParameter { parameter: "cols" });
        }
        if active == 0 {
            return Err(DeviceError::ZeroParameter {
                parameter: "active",
            });
        }
        if field_side_um <= 0.0 || field_side_um.is_nan() {
            return Err(DeviceError::ZeroParameter {
                parameter: "field_side_um",
            });
        }
        let total = rows * cols;
        if active > total {
            return Err(DeviceError::ActiveProbesExceedArray { active, total });
        }
        Ok(ProbeArray {
            rows,
            cols,
            active,
            field_side_um,
        })
    }

    /// The Table I array: `64 × 64`, 1024 active, `100 × 100 µm²` fields.
    #[must_use]
    pub fn table1() -> Self {
        ProbeArray::new(64, 64, 1024, 100.0).expect("table 1 array is valid")
    }

    /// Total number of probes in the array.
    #[must_use]
    pub fn total_probes(&self) -> u32 {
        self.rows * self.cols
    }

    /// Number of simultaneously active probes (the striping width `K`).
    #[must_use]
    pub fn active_probes(&self) -> u32 {
        self.active
    }

    /// Side length of one probe field in micrometres.
    #[must_use]
    pub fn field_side_um(&self) -> f64 {
        self.field_side_um
    }

    /// Area of one probe field in square micrometres.
    #[must_use]
    pub fn field_area_um2(&self) -> f64 {
        self.field_side_um * self.field_side_um
    }

    /// Total scanned media area in square millimetres.
    ///
    /// For Table I this is `4096 × 0.01 mm² ≈ 41 mm²`, the footprint the
    /// paper's introduction quotes.
    #[must_use]
    pub fn total_area_mm2(&self) -> f64 {
        f64::from(self.total_probes()) * self.field_area_um2() * 1e-6
    }
}

impl fmt::Display for ProbeArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} probes ({} active), {:.0}x{:.0} um^2 fields",
            self.rows, self.cols, self.active, self.field_side_um, self.field_side_um
        )
    }
}

/// The modelled probe-based MEMS storage device.
///
/// Construct via [`MemsDevice::table1`] for the paper's reference
/// configuration, or [`MemsDevice::builder`] to explore alternatives.
///
/// ```
/// use memstream_device::{EnergyModelled, MemsDevice};
///
/// let mems = MemsDevice::table1();
/// // rm = 1024 active probes x 100 kbps
/// assert_eq!(mems.media_rate().megabits_per_second(), 102.4);
/// // Eoh = 2 ms x 672 mW + 1 ms x 672 mW
/// assert!((mems.overhead_energy().millijoules() - 2.016).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemsDevice {
    name: String,
    array: ProbeArray,
    capacity: DataSize,
    per_probe_rate: BitRate,
    seek_time: Duration,
    shutdown_time: Duration,
    io_overhead_time: Duration,
    read_write_power: Power,
    seek_power: Power,
    standby_power: Power,
    idle_power: Power,
    shutdown_power: Power,
    probe_write_cycles: f64,
    spring_duty_cycles: f64,
}

impl MemsDevice {
    /// The device of Table I (IBM prototype, Lantz et al. 2007).
    ///
    /// | Parameter | Value |
    /// |---|---|
    /// | Probe array | 64 × 64, 1024 active |
    /// | Capacity | 120 GB |
    /// | Per-probe rate | 100 kbps |
    /// | Seek / shutdown time | 2 ms / 1 ms |
    /// | R/W, seek, standby, idle, shutdown power | 316, 672, 5, 120, 672 mW |
    /// | Probe write cycles | 100 (low-end) |
    /// | Spring duty cycles | 10⁸ (electroplated nickel) |
    #[must_use]
    pub fn table1() -> Self {
        MemsDevice::builder()
            .build()
            .expect("table 1 parameters are valid")
    }

    /// Starts building a custom device from the Table I defaults.
    #[must_use]
    pub fn builder() -> MemsDeviceBuilder {
        MemsDeviceBuilder::new()
    }

    /// The probe array geometry.
    #[must_use]
    pub fn array(&self) -> &ProbeArray {
        &self.array
    }

    /// Raw device capacity (Table I: 120 GB).
    #[must_use]
    pub fn capacity(&self) -> DataSize {
        self.capacity
    }

    /// Data rate of a single probe (Table I: 100 kbps).
    #[must_use]
    pub fn per_probe_rate(&self) -> BitRate {
        self.per_probe_rate
    }

    /// Per-access I/O overhead time (Table I: 2 ms), charged to best-effort
    /// requests in the simulator.
    #[must_use]
    pub fn io_overhead_time(&self) -> Duration {
        self.io_overhead_time
    }

    /// Probe write-cycle rating `Dpb` (Table I: 100 or 200).
    ///
    /// The number of times the probes can overwrite the full device before
    /// becoming unreliable.
    #[must_use]
    pub fn probe_write_cycles(&self) -> f64 {
        self.probe_write_cycles
    }

    /// Spring duty-cycle rating `Dsp` (Table I: 10⁸ nickel, 10¹² silicon).
    #[must_use]
    pub fn spring_duty_cycles(&self) -> f64 {
        self.spring_duty_cycles
    }

    /// Returns a copy with a different probe write-cycle rating, the knob
    /// turned between Fig. 3b (`Dpb = 100`) and Fig. 3c (`Dpb = 200`).
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is not strictly positive.
    #[must_use]
    pub fn with_probe_write_cycles(&self, cycles: f64) -> Self {
        assert!(cycles > 0.0, "probe write cycles must be positive");
        let mut copy = self.clone();
        copy.probe_write_cycles = cycles;
        copy
    }

    /// Returns a copy with a different spring duty-cycle rating, the knob
    /// turned between Fig. 3b (`10⁸`, nickel) and Fig. 3c (`10¹²`, silicon).
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is not strictly positive.
    #[must_use]
    pub fn with_spring_duty_cycles(&self, cycles: f64) -> Self {
        assert!(cycles > 0.0, "spring duty cycles must be positive");
        let mut copy = self.clone();
        copy.spring_duty_cycles = cycles;
        copy
    }

    /// Number of bits stored per probe field (capacity / total probes).
    #[must_use]
    pub fn bits_per_probe_field(&self) -> f64 {
        self.capacity.bits() / f64::from(self.array.total_probes())
    }

    /// Areal density in terabits per square inch implied by the capacity
    /// and the scanned area; the introduction quotes `> 1 Tb/in²`.
    #[must_use]
    pub fn areal_density_tb_per_in2(&self) -> f64 {
        // 1 in² = 645.16 mm².
        let bits_per_mm2 = self.capacity.bits() / self.array.total_area_mm2();
        bits_per_mm2 * 645.16 / 1e12
    }
}

impl EnergyModelled for MemsDevice {
    fn name(&self) -> &str {
        &self.name
    }

    /// `rm` = active probes × per-probe rate (Table I: 102.4 Mbps).
    fn media_rate(&self) -> BitRate {
        self.per_probe_rate * f64::from(self.array.active_probes())
    }

    fn power(&self, state: PowerState) -> Power {
        match state {
            PowerState::Standby => self.standby_power,
            PowerState::Seek => self.seek_power,
            PowerState::ReadWrite => self.read_write_power,
            PowerState::Idle => self.idle_power,
            PowerState::Shutdown => self.shutdown_power,
        }
    }

    fn seek_time(&self) -> Duration {
        self.seek_time
    }

    fn shutdown_time(&self) -> Duration {
        self.shutdown_time
    }
}

impl MechanicalDevice for MemsDevice {}

impl WearModelled for MemsDevice {
    /// Springs first (the Eq. (5) duty-cycle channel), probes second (the
    /// Eq. (6) utilisation-scaled write budget).
    fn wear_channels(&self) -> Vec<WearChannel> {
        vec![
            WearChannel::DutyCycle {
                rating: self.spring_duty_cycles,
            },
            WearChannel::WriteBudget {
                rating: self.probe_write_cycles,
                budget_bits: self.capacity.bits() * self.probe_write_cycles,
            },
        ]
    }
}

impl SimBacked for MemsDevice {
    fn io_overhead_time(&self) -> Duration {
        self.io_overhead_time
    }

    fn stripe_width(&self) -> u32 {
        self.array.active_probes()
    }

    fn wear_spec(&self) -> WearSpec {
        WearSpec::ProbeFatigue {
            active_probes: self.array.active_probes(),
            spring_rating: self.spring_duty_cycles,
            probe_budget_bits: self.capacity.bits() * self.probe_write_cycles,
        }
    }

    fn clone_sim(&self) -> Box<dyn SimBacked> {
        Box::new(self.clone())
    }
}

impl StorageDevice for MemsDevice {
    fn kind(&self) -> &'static str {
        "mems"
    }

    /// `mems:` and every physical parameter in builder order: rows,
    /// columns, active probes, field side (µm), capacity (bits),
    /// per-probe rate (bit/s), seek, shutdown and I/O overhead times (s),
    /// read/write, seek, standby, idle and shutdown powers (W), probe
    /// write cycles, spring duty cycles. The name is a report label no
    /// model reads, so it is left out.
    fn dedup_token(&self) -> String {
        parameter_token(
            "mems",
            &[
                f64::from(self.array.rows),
                f64::from(self.array.cols),
                f64::from(self.array.active),
                self.array.field_side_um,
                self.capacity.bits(),
                self.per_probe_rate.bits_per_second(),
                self.seek_time.seconds(),
                self.shutdown_time.seconds(),
                self.io_overhead_time.seconds(),
                self.read_write_power.watts(),
                self.seek_power.watts(),
                self.standby_power.watts(),
                self.idle_power.watts(),
                self.shutdown_power.watts(),
                self.probe_write_cycles,
                self.spring_duty_cycles,
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
        Some(UtilizationSpec::SectorFormat {
            stripe_width: self.array.active_probes(),
        })
    }

    fn clone_box(&self) -> Box<dyn StorageDevice> {
        Box::new(self.clone())
    }
}

impl Default for MemsDevice {
    fn default() -> Self {
        MemsDevice::table1()
    }
}

impl fmt::Display for MemsDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} capacity, {} media rate)",
            self.name,
            self.array,
            self.capacity,
            self.media_rate()
        )
    }
}

/// Builder for [`MemsDevice`], pre-populated with the Table I defaults.
///
/// ```
/// use memstream_device::MemsDevice;
/// use memstream_units::BitRate;
///
/// # fn main() -> Result<(), memstream_device::DeviceError> {
/// let fast = MemsDevice::builder()
///     .per_probe_rate(BitRate::from_kbps(200.0))
///     .name("hypothetical 2x-rate device")
///     .build()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemsDeviceBuilder {
    device: MemsDevice,
}

impl MemsDeviceBuilder {
    /// Creates a builder holding the Table I defaults.
    #[must_use]
    pub fn new() -> Self {
        MemsDeviceBuilder {
            device: MemsDevice {
                name: "IBM-prototype MEMS store (Table I)".to_owned(),
                array: ProbeArray::table1(),
                capacity: DataSize::from_gigabytes(120.0),
                per_probe_rate: BitRate::from_kbps(100.0),
                seek_time: Duration::from_millis(2.0),
                shutdown_time: Duration::from_millis(1.0),
                io_overhead_time: Duration::from_millis(2.0),
                read_write_power: Power::from_milliwatts(316.0),
                seek_power: Power::from_milliwatts(672.0),
                standby_power: Power::from_milliwatts(5.0),
                idle_power: Power::from_milliwatts(120.0),
                shutdown_power: Power::from_milliwatts(672.0),
                probe_write_cycles: 100.0,
                spring_duty_cycles: 1e8,
            },
        }
    }

    /// Sets the device name used in reports.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.device.name = name.into();
        self
    }

    /// Sets the probe array geometry.
    #[must_use]
    pub fn array(mut self, array: ProbeArray) -> Self {
        self.device.array = array;
        self
    }

    /// Sets the raw capacity.
    #[must_use]
    pub fn capacity(mut self, capacity: DataSize) -> Self {
        self.device.capacity = capacity;
        self
    }

    /// Sets the per-probe data rate.
    #[must_use]
    pub fn per_probe_rate(mut self, rate: BitRate) -> Self {
        self.device.per_probe_rate = rate;
        self
    }

    /// Sets the seek time `tsk`.
    #[must_use]
    pub fn seek_time(mut self, t: Duration) -> Self {
        self.device.seek_time = t;
        self
    }

    /// Sets the shutdown time `tsd`.
    #[must_use]
    pub fn shutdown_time(mut self, t: Duration) -> Self {
        self.device.shutdown_time = t;
        self
    }

    /// Sets the per-access I/O overhead time.
    #[must_use]
    pub fn io_overhead_time(mut self, t: Duration) -> Self {
        self.device.io_overhead_time = t;
        self
    }

    /// Sets the read/write power.
    #[must_use]
    pub fn read_write_power(mut self, p: Power) -> Self {
        self.device.read_write_power = p;
        self
    }

    /// Sets the seek power.
    #[must_use]
    pub fn seek_power(mut self, p: Power) -> Self {
        self.device.seek_power = p;
        self
    }

    /// Sets the standby power.
    #[must_use]
    pub fn standby_power(mut self, p: Power) -> Self {
        self.device.standby_power = p;
        self
    }

    /// Sets the idle power.
    #[must_use]
    pub fn idle_power(mut self, p: Power) -> Self {
        self.device.idle_power = p;
        self
    }

    /// Sets the power drawn during the shutdown transition.
    #[must_use]
    pub fn shutdown_power(mut self, p: Power) -> Self {
        self.device.shutdown_power = p;
        self
    }

    /// Sets the probe write-cycle rating `Dpb`.
    #[must_use]
    pub fn probe_write_cycles(mut self, cycles: f64) -> Self {
        self.device.probe_write_cycles = cycles;
        self
    }

    /// Sets the spring duty-cycle rating `Dsp`.
    #[must_use]
    pub fn spring_duty_cycles(mut self, cycles: f64) -> Self {
        self.device.spring_duty_cycles = cycles;
        self
    }

    /// Validates and produces the device.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if any strictly-positive parameter is zero,
    /// if standby is not the lowest power state, or if the wear ratings are
    /// non-positive.
    pub fn build(self) -> Result<MemsDevice, DeviceError> {
        let d = self.device;
        if d.capacity.is_zero() {
            return Err(DeviceError::ZeroParameter {
                parameter: "capacity",
            });
        }
        if d.per_probe_rate.is_zero() {
            return Err(DeviceError::ZeroParameter {
                parameter: "per_probe_rate",
            });
        }
        if d.seek_time.is_zero() && d.shutdown_time.is_zero() {
            return Err(DeviceError::ZeroParameter {
                parameter: "seek_time + shutdown_time",
            });
        }
        if d.probe_write_cycles <= 0.0 || d.probe_write_cycles.is_nan() {
            return Err(DeviceError::ZeroParameter {
                parameter: "probe_write_cycles",
            });
        }
        if d.spring_duty_cycles <= 0.0 || d.spring_duty_cycles.is_nan() {
            return Err(DeviceError::ZeroParameter {
                parameter: "spring_duty_cycles",
            });
        }
        for (name, p) in [
            ("idle", d.idle_power),
            ("read/write", d.read_write_power),
            ("seek", d.seek_power),
            ("shutdown", d.shutdown_power),
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

impl Default for MemsDeviceBuilder {
    fn default() -> Self {
        MemsDeviceBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table1_media_rate_is_102_4_mbps() {
        let d = MemsDevice::table1();
        assert_eq!(d.media_rate().bits_per_second(), 102_400_000.0);
    }

    #[test]
    fn table1_overheads() {
        let d = MemsDevice::table1();
        assert!((d.overhead_time().millis() - 3.0).abs() < 1e-12);
        assert!((d.overhead_energy().millijoules() - 2.016).abs() < 1e-12);
        assert!((d.overhead_power().milliwatts() - 672.0).abs() < 1e-9);
    }

    #[test]
    fn table1_footprint_is_about_41_mm2() {
        // The paper's introduction: "a small footprint (41 mm^2)".
        let area = MemsDevice::table1().array().total_area_mm2();
        assert!((area - 40.96).abs() < 1e-9, "got {area}");
    }

    #[test]
    fn table1_areal_density_near_1_tb_per_in2() {
        // 120 GB over ~41 mm^2 is ~15 Tb/in^2 of *user* capacity across the
        // full array; per the introduction the technology is >1 Tb/in^2.
        let density = MemsDevice::table1().areal_density_tb_per_in2();
        assert!(density > 1.0, "got {density}");
    }

    #[test]
    fn rating_knobs_produce_modified_copies() {
        let base = MemsDevice::table1();
        let hi = base
            .with_probe_write_cycles(200.0)
            .with_spring_duty_cycles(1e12);
        assert_eq!(hi.probe_write_cycles(), 200.0);
        assert_eq!(hi.spring_duty_cycles(), 1e12);
        // Original untouched.
        assert_eq!(base.probe_write_cycles(), 100.0);
        assert_eq!(base.spring_duty_cycles(), 1e8);
    }

    #[test]
    fn builder_rejects_zero_rate() {
        let err = MemsDevice::builder()
            .per_probe_rate(memstream_units::BitRate::ZERO)
            .build()
            .unwrap_err();
        assert!(matches!(err, DeviceError::ZeroParameter { .. }));
    }

    #[test]
    fn builder_rejects_standby_above_idle() {
        let err = MemsDevice::builder()
            .standby_power(Power::from_milliwatts(200.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, DeviceError::StandbyNotLowest { .. }));
    }

    #[test]
    fn probe_array_rejects_overcommitted_active_count() {
        let err = ProbeArray::new(8, 8, 65, 100.0).unwrap_err();
        assert!(matches!(err, DeviceError::ActiveProbesExceedArray { .. }));
    }

    #[test]
    fn probe_array_total_and_active() {
        let a = ProbeArray::table1();
        assert_eq!(a.total_probes(), 4096);
        assert_eq!(a.active_probes(), 1024);
        assert_eq!(a.field_area_um2(), 10_000.0);
    }

    #[test]
    fn display_mentions_capacity() {
        let text = MemsDevice::table1().to_string();
        assert!(text.contains("GiB") || text.contains("GB"), "{text}");
    }

    proptest! {
        #[test]
        fn media_rate_scales_with_active_probes(active in 1u32..=4096) {
            let d = MemsDevice::builder()
                .array(ProbeArray::new(64, 64, active, 100.0).unwrap())
                .build()
                .unwrap();
            let expected = 100_000.0 * f64::from(active);
            prop_assert!((d.media_rate().bits_per_second() - expected).abs() < 1e-6);
        }

        #[test]
        fn builder_roundtrips_wear_ratings(dpb in 1.0..1e4f64, dsp in 1.0..1e14f64) {
            let d = MemsDevice::builder()
                .probe_write_cycles(dpb)
                .spring_duty_cycles(dsp)
                .build()
                .unwrap();
            prop_assert_eq!(d.probe_write_cycles(), dpb);
            prop_assert_eq!(d.spring_duty_cycles(), dsp);
        }
    }
}
