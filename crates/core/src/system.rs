//! The [`SystemModel`] facade: one owned object wiring device, workload,
//! format, DRAM and policy together.

use std::fmt;

use memstream_device::{DramModel, MemsDevice};
use memstream_media::SectorFormat;
use memstream_units::{BitRate, DataSize, EnergyPerBit, Ratio, Years};
use memstream_workload::Workload;

use crate::capacity::CapacityModel;
use crate::cycle::BestEffortPolicy;
use crate::dimension::{BufferDimensioner, BufferPlan};
use crate::energy::EnergyModel;
use crate::error::ModelError;
use crate::goal::DesignGoal;
use crate::lifetime::LifetimeModel;

/// The full modelled system of Fig. 1a: a MEMS device, its DRAM buffer, a
/// sector format and a streaming workload.
///
/// This is the intended entry point of the crate; the component models
/// ([`EnergyModel`], [`CapacityModel`], [`LifetimeModel`]) are borrowed
/// views into it.
///
/// ```
/// use memstream_core::SystemModel;
/// use memstream_units::{BitRate, DataSize};
///
/// # fn main() -> Result<(), memstream_core::ModelError> {
/// let model = SystemModel::paper_default(BitRate::from_kbps(1024.0));
/// let b = DataSize::from_kibibytes(20.0);
/// println!(
///     "Em({b}) = {}, u = {}, L = {}",
///     model.per_bit_energy(b)?,
///     model.utilization(b),
///     model.device_lifetime(b),
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystemModel {
    device: MemsDevice,
    workload: Workload,
    format: SectorFormat,
    dram: Option<DramModel>,
    policy: BestEffortPolicy,
}

impl SystemModel {
    /// The paper's system: Table I device, §IV-A workload at `rate`, the
    /// default sector format, a Micron-style DRAM buffer and best-effort
    /// charged at read/write power.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    #[must_use]
    pub fn paper_default(rate: BitRate) -> Self {
        let device = MemsDevice::table1();
        let format = SectorFormat::for_device(&device);
        SystemModel {
            device,
            workload: Workload::paper_default(rate),
            format,
            dram: Some(DramModel::micron_ddr_mobile()),
            policy: BestEffortPolicy::AtReadWrite,
        }
    }

    /// Creates a system model from explicit parts.
    #[must_use]
    pub fn new(
        device: MemsDevice,
        workload: Workload,
        format: SectorFormat,
        dram: Option<DramModel>,
        policy: BestEffortPolicy,
    ) -> Self {
        SystemModel {
            device,
            workload,
            format,
            dram,
            policy,
        }
    }

    /// Returns a copy at a different stream rate (the sweep variable of
    /// every figure).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    #[must_use]
    pub fn with_rate(&self, rate: BitRate) -> Self {
        let mut copy = self.clone();
        copy.workload = self.workload.with_rate(rate);
        copy
    }

    /// Returns a copy with a different device (e.g. different wear
    /// ratings for Fig. 3c).
    #[must_use]
    pub fn with_device(&self, device: MemsDevice) -> Self {
        let mut copy = self.clone();
        copy.format = SectorFormat::for_device(&device);
        copy.device = device;
        copy
    }

    /// Returns a copy with a different best-effort accounting policy.
    #[must_use]
    pub fn with_policy(&self, policy: BestEffortPolicy) -> Self {
        let mut copy = self.clone();
        copy.policy = policy;
        copy
    }

    /// Returns a copy with the DRAM term removed (device-only energy).
    #[must_use]
    pub fn without_dram(&self) -> Self {
        let mut copy = self.clone();
        copy.dram = None;
        copy
    }

    /// The modelled device.
    #[must_use]
    pub fn device(&self) -> &MemsDevice {
        &self.device
    }

    /// The workload.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The sector format.
    #[must_use]
    pub fn format(&self) -> &SectorFormat {
        &self.format
    }

    /// The DRAM buffer model, if attached.
    #[must_use]
    pub fn dram(&self) -> Option<&DramModel> {
        self.dram.as_ref()
    }

    /// The best-effort accounting policy.
    #[must_use]
    pub fn policy(&self) -> BestEffortPolicy {
        self.policy
    }

    /// The energy component model (§III-A).
    #[must_use]
    pub fn energy_model(&self) -> EnergyModel<'_> {
        EnergyModel::new(&self.device, self.workload, self.policy, self.dram.as_ref())
    }

    /// The capacity component model (§III-B).
    #[must_use]
    pub fn capacity_model(&self) -> CapacityModel {
        CapacityModel::new(self.format, self.device.capacity())
    }

    /// The lifetime component model (§III-C).
    #[must_use]
    pub fn lifetime_model(&self) -> LifetimeModel {
        LifetimeModel::new(&self.device, self.workload, self.capacity_model())
    }

    /// The combined dimensioner (§IV-C).
    #[must_use]
    pub fn dimensioner(&self) -> BufferDimensioner<'_> {
        BufferDimensioner::new(
            self.energy_model(),
            self.capacity_model(),
            self.lifetime_model(),
        )
    }

    /// Answers the §IV-C design question at this system's stream rate.
    ///
    /// # Errors
    ///
    /// See [`BufferDimensioner::dimension`].
    pub fn dimension(&self, goal: &DesignGoal) -> Result<BufferPlan, ModelError> {
        self.dimensioner().dimension(goal)
    }

    /// `Em(B)` — per-bit energy at buffer `buffer` (Eq. (1) + DRAM).
    ///
    /// # Errors
    ///
    /// See [`EnergyModel::per_bit_energy`].
    pub fn per_bit_energy(&self, buffer: DataSize) -> Result<EnergyPerBit, ModelError> {
        self.energy_model().per_bit_energy(buffer)
    }

    /// Energy saving versus always-on at buffer `buffer`.
    ///
    /// # Errors
    ///
    /// See [`EnergyModel::saving`].
    pub fn saving(&self, buffer: DataSize) -> Result<f64, ModelError> {
        self.energy_model().saving(buffer)
    }

    /// The break-even buffer of §III-A.1.
    ///
    /// # Errors
    ///
    /// See [`EnergyModel::break_even_buffer`].
    pub fn break_even_buffer(&self) -> Result<DataSize, ModelError> {
        self.energy_model().break_even_buffer()
    }

    /// Capacity utilisation `u(B)` with `Su = B`.
    #[must_use]
    pub fn utilization(&self, buffer: DataSize) -> Ratio {
        self.capacity_model().utilization(buffer)
    }

    /// Springs lifetime `Lsp(B)` (Eq. (5)).
    #[must_use]
    pub fn springs_lifetime(&self, buffer: DataSize) -> Years {
        self.lifetime_model().springs_lifetime(buffer)
    }

    /// Probes lifetime `Lpb(B)` (Eq. (6)).
    #[must_use]
    pub fn probes_lifetime(&self, buffer: DataSize) -> Years {
        self.lifetime_model().probes_lifetime(buffer)
    }

    /// Device lifetime `min(Lsp, Lpb)`.
    #[must_use]
    pub fn device_lifetime(&self, buffer: DataSize) -> Years {
        self.lifetime_model().device_lifetime(buffer)
    }
}

impl fmt::Display for SystemModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} under {} ({})",
            self.device, self.workload, self.policy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_agrees_with_component_models() {
        let m = SystemModel::paper_default(BitRate::from_kbps(1024.0));
        let b = DataSize::from_kibibytes(20.0);
        assert_eq!(
            m.per_bit_energy(b).unwrap(),
            m.energy_model().per_bit_energy(b).unwrap()
        );
        assert_eq!(m.utilization(b), m.capacity_model().utilization(b));
        assert_eq!(
            m.springs_lifetime(b),
            m.lifetime_model().springs_lifetime(b)
        );
    }

    #[test]
    fn with_rate_changes_only_the_workload() {
        let m = SystemModel::paper_default(BitRate::from_kbps(32.0));
        let m2 = m.with_rate(BitRate::from_kbps(4096.0));
        assert_eq!(m2.workload().rate(), BitRate::from_kbps(4096.0));
        assert_eq!(m2.device(), m.device());
        assert_eq!(m2.policy(), m.policy());
    }

    #[test]
    fn without_dram_lowers_per_bit_energy() {
        let m = SystemModel::paper_default(BitRate::from_kbps(1024.0));
        let b = DataSize::from_kibibytes(20.0);
        let with = m.per_bit_energy(b).unwrap();
        let without = m.without_dram().per_bit_energy(b).unwrap();
        assert!(without < with);
    }

    #[test]
    fn with_device_rebuilds_format() {
        let m = SystemModel::paper_default(BitRate::from_kbps(1024.0));
        let hi = m.with_device(
            MemsDevice::table1()
                .with_probe_write_cycles(200.0)
                .with_spring_duty_cycles(1e12),
        );
        assert_eq!(hi.device().probe_write_cycles(), 200.0);
        assert_eq!(hi.format().stripe_width(), 1024);
    }
}
