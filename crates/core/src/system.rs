//! The [`SystemModel`] facade: the paper's MEMS device and the analytic
//! model of it.

use std::fmt;
use std::ops::Deref;

use memstream_device::{DramModel, MemsDevice};
use memstream_media::SectorFormat;
use memstream_units::BitRate;
use memstream_workload::Workload;

use crate::cycle::BestEffortPolicy;
use crate::device_model::CapabilityModel;

/// The full modelled system of Fig. 1a: a MEMS device, its DRAM buffer, a
/// sector format and a streaming workload.
///
/// This is the intended entry point of the crate. It is the
/// [`CapabilityModel`] of a concrete [`MemsDevice`], the model the
/// scenario grid builds for the same device, and it dereferences to that
/// model for every evaluator and component model.
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
    model: CapabilityModel,
}

impl SystemModel {
    /// The paper's system: Table I device, §IV-A workload at `rate`, the
    /// sector format striped across its active probes, a Micron-style DRAM
    /// buffer and best-effort charged at read/write power.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    #[must_use]
    pub fn paper_default(rate: BitRate) -> Self {
        SystemModel::new(
            MemsDevice::table1(),
            Workload::paper_default(rate),
            Some(DramModel::micron_ddr_mobile()),
            BestEffortPolicy::AtReadWrite,
        )
    }

    /// Creates a system model from explicit parts. The sector format is
    /// the device's own: the paper's, striped across its active probes.
    #[must_use]
    pub fn new(
        device: MemsDevice,
        workload: Workload,
        dram: Option<DramModel>,
        policy: BestEffortPolicy,
    ) -> Self {
        let model = CapabilityModel::new(&device, workload, dram, policy)
            .expect("a MEMS device exposes every capability the model reads");
        SystemModel { device, model }
    }

    /// Returns a copy at a different stream rate (the sweep variable of
    /// every figure).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    #[must_use]
    pub fn with_rate(&self, rate: BitRate) -> Self {
        let workload = self.workload().with_rate(rate);
        self.rebuilt(self.device.clone(), workload, self.dram())
    }

    /// Returns a copy with a different device (e.g. different wear
    /// ratings for Fig. 3c).
    #[must_use]
    pub fn with_device(&self, device: MemsDevice) -> Self {
        self.rebuilt(device, *self.workload(), self.dram())
    }

    /// Returns a copy with the DRAM term removed (device-only energy).
    #[must_use]
    pub fn without_dram(&self) -> Self {
        self.rebuilt(self.device.clone(), *self.workload(), None)
    }

    fn rebuilt(&self, device: MemsDevice, workload: Workload, dram: Option<&DramModel>) -> Self {
        SystemModel::new(device, workload, dram.cloned(), self.policy())
    }

    /// The modelled device.
    #[must_use]
    pub fn device(&self) -> &MemsDevice {
        &self.device
    }

    /// The sector format.
    #[must_use]
    pub fn format(&self) -> &SectorFormat {
        self.capacity_model()
            .format()
            .expect("a MEMS device's utilisation follows its sector format")
    }
}

impl Deref for SystemModel {
    type Target = CapabilityModel;

    fn deref(&self) -> &CapabilityModel {
        &self.model
    }
}

impl fmt::Display for SystemModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} under {} ({})",
            self.device,
            self.workload(),
            self.policy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memstream_units::DataSize;

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
