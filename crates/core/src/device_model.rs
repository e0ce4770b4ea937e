//! The analytic model of one device, assembled from capability traits.
//!
//! [`CapabilityModel`] builds the component models ([`EnergyModel`],
//! [`CapacityModel`], [`LifetimeModel`], [`BufferDimensioner`]) for *any*
//! [`StorageDevice`] that exposes the energy, wear and utilisation
//! capabilities. It reads the device once, when it is built: the
//! [`EnergyProfile`], the wear channels and the capacity model of the
//! device's utilisation law. Each rate's dimensioner
//! ([`CapabilityModel::dimensioner_at`]) is built from those parts and
//! makes no call into the device. The scenario grid takes this path for
//! every registered device, whatever its type, and
//! [`SystemModel`](crate::SystemModel) is this model of a
//! [`memstream_device::MemsDevice`].

use memstream_device::{DramModel, StorageDevice, UtilizationSpec, WearChannel};
use memstream_media::SectorFormat;
use memstream_units::{BitRate, DataSize, EnergyPerBit, Ratio, Years};
use memstream_workload::Workload;

use crate::capacity::CapacityModel;
use crate::cycle::{BestEffortPolicy, EnergyProfile};
use crate::dimension::{BufferDimensioner, BufferPlan};
use crate::energy::EnergyModel;
use crate::error::ModelError;
use crate::goal::DesignGoal;
use crate::lifetime::LifetimeModel;

/// A fully capable device model assembled from the capability seam.
///
/// ```
/// use memstream_core::{BestEffortPolicy, CapabilityModel, DesignGoal};
/// use memstream_device::FlashDevice;
/// use memstream_units::BitRate;
/// use memstream_workload::Workload;
///
/// # fn main() -> Result<(), memstream_core::ModelError> {
/// let flash = FlashDevice::mobile_mlc();
/// let model = CapabilityModel::new(
///     &flash,
///     Workload::paper_default(BitRate::from_kbps(1024.0)),
///     None,
///     BestEffortPolicy::AtReadWrite,
/// )?;
/// let plan = model.dimension(&DesignGoal::fig3b())?;
/// assert!(plan.buffer().kibibytes() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CapabilityModel {
    energy: EnergyProfile,
    wear: Box<[WearChannel]>,
    capacity: CapacityModel,
    workload: Workload,
    dram: Option<DramModel>,
    policy: BestEffortPolicy,
}

/// The capacity model of a device's utilisation law and raw `capacity`,
/// once the law is checked to be in range.
fn capacity_model(
    utilization: UtilizationSpec,
    capacity: DataSize,
) -> Result<CapacityModel, ModelError> {
    match utilization {
        UtilizationSpec::Constant { fraction } if fraction > 0.0 && fraction <= 1.0 => Ok(
            CapacityModel::constant(Ratio::from_fraction(fraction), capacity),
        ),
        UtilizationSpec::Constant { fraction } => Err(ModelError::InvalidCapability {
            capability: "utilization",
            reason: format!("constant fraction {fraction} is outside (0, 1]"),
        }),
        UtilizationSpec::SectorFormat { stripe_width: 0 } => Err(ModelError::InvalidCapability {
            capability: "utilization",
            reason: "sector-format stripe width is zero".to_owned(),
        }),
        UtilizationSpec::SectorFormat { stripe_width } => Ok(CapacityModel::new(
            SectorFormat::for_stripe_width(stripe_width),
            capacity,
        )),
    }
}

impl CapabilityModel {
    /// Assembles the model, checking that the device exposes every
    /// capability the full pipeline needs; reads its [`EnergyProfile`],
    /// wear channels and utilisation law once.
    ///
    /// # Errors
    ///
    /// [`ModelError::MissingCapability`] naming the first missing
    /// capability (`"energy"`, `"wear"` or `"utilization"`), or
    /// [`ModelError::InvalidCapability`] when a registered device reports
    /// an out-of-range utilisation payload — registry devices are
    /// third-party code, so malformed specs surface here as errors rather
    /// than panicking a grid worker mid-exploration.
    pub fn new(
        device: &dyn StorageDevice,
        workload: Workload,
        dram: Option<DramModel>,
        policy: BestEffortPolicy,
    ) -> Result<Self, ModelError> {
        let energy = device.energy().ok_or(ModelError::MissingCapability {
            capability: "energy",
        })?;
        let wear = device
            .wear()
            .ok_or(ModelError::MissingCapability { capability: "wear" })?;
        let utilization = device.utilization().ok_or(ModelError::MissingCapability {
            capability: "utilization",
        })?;
        Ok(CapabilityModel {
            capacity: capacity_model(utilization, device.capacity())?,
            energy: EnergyProfile::of(energy),
            wear: wear.wear_channels().into(),
            workload,
            dram,
            policy,
        })
    }

    /// The workload.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
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
        EnergyModel::from_profile(self.energy, self.workload, self.policy, self.dram.as_ref())
    }

    /// The capacity component model (§III-B).
    #[must_use]
    pub fn capacity_model(&self) -> &CapacityModel {
        &self.capacity
    }

    /// The lifetime component model (§III-C).
    #[must_use]
    pub fn lifetime_model(&self) -> LifetimeModel<'_> {
        LifetimeModel::from_channels(&self.wear, self.workload, self.capacity)
    }

    /// The combined dimensioner (§IV-C) at this model's stream rate.
    #[must_use]
    pub fn dimensioner(&self) -> BufferDimensioner<'_> {
        self.dimensioner_at(self.workload.rate())
    }

    /// The combined dimensioner (§IV-C) at stream rate `rate`, built from
    /// the parts [`CapabilityModel::new`] read: no call into the device.
    /// It borrows the model's wear channels, so building it copies none.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    #[must_use]
    pub fn dimensioner_at(&self, rate: BitRate) -> BufferDimensioner<'_> {
        let workload = self.workload.with_rate(rate);
        BufferDimensioner::new(
            EnergyModel::from_profile(self.energy, workload, self.policy, self.dram.as_ref()),
            self.capacity,
            LifetimeModel::from_channels(&self.wear, workload, self.capacity),
        )
    }

    /// Answers the §IV-C design question at this model's stream rate.
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
        self.capacity.utilization(buffer)
    }

    /// Springs lifetime `Lsp(B)` (Eq. (5)): the duty-cycle channel.
    #[must_use]
    pub fn springs_lifetime(&self, buffer: DataSize) -> Years {
        self.lifetime_model().springs_lifetime(buffer)
    }

    /// Probes lifetime `Lpb(B)` (Eq. (6)): the write-budget channel.
    #[must_use]
    pub fn probes_lifetime(&self, buffer: DataSize) -> Years {
        self.lifetime_model().probes_lifetime(buffer)
    }

    /// Device lifetime: the minimum over every wear channel.
    #[must_use]
    pub fn device_lifetime(&self, buffer: DataSize) -> Years {
        self.lifetime_model().device_lifetime(buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memstream_device::{DiskDevice, EnergyModelled, FlashDevice, WearModelled};

    fn workload(kbps: f64) -> Workload {
        Workload::paper_default(BitRate::from_kbps(kbps))
    }

    #[test]
    fn missing_capabilities_are_named() {
        // The full disk now carries wear + utilisation; masking it back to
        // its paper-era energy-only role exercises the missing-capability
        // path the grid's energy-only fallback dispatches on.
        use memstream_device::EnergyOnly;
        let masked = EnergyOnly::new(DiskDevice::calibrated_1p8_inch());
        let err = CapabilityModel::new(
            &masked,
            workload(1024.0),
            None,
            BestEffortPolicy::AtReadWrite,
        )
        .unwrap_err();
        assert_eq!(err, ModelError::MissingCapability { capability: "wear" });

        // The unmasked disk assembles the full pipeline.
        let disk = DiskDevice::calibrated_1p8_inch();
        assert!(
            CapabilityModel::new(&disk, workload(1024.0), None, BestEffortPolicy::AtReadWrite)
                .is_ok()
        );
    }

    #[test]
    fn malformed_utilization_specs_error_instead_of_panicking() {
        // A third-party registry device with an out-of-range constant
        // utilisation must be rejected at assembly, not panic a grid
        // worker when the capacity model is built.
        #[derive(Debug)]
        struct BadFlash(FlashDevice);
        impl StorageDevice for BadFlash {
            fn kind(&self) -> &'static str {
                "bad-flash"
            }
            fn dedup_token(&self) -> String {
                "bad-flash".to_owned()
            }
            fn capacity(&self) -> memstream_units::DataSize {
                self.0.capacity()
            }
            fn energy(&self) -> Option<&dyn EnergyModelled> {
                Some(&self.0)
            }
            fn wear(&self) -> Option<&dyn WearModelled> {
                Some(&self.0)
            }
            fn utilization(&self) -> Option<UtilizationSpec> {
                Some(UtilizationSpec::Constant { fraction: 0.0 })
            }
            fn clone_box(&self) -> Box<dyn StorageDevice> {
                Box::new(BadFlash(self.0.clone()))
            }
        }
        let bad = BadFlash(FlashDevice::mobile_mlc());
        let err = CapabilityModel::new(&bad, workload(1024.0), None, BestEffortPolicy::AtReadWrite)
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::InvalidCapability {
                capability: "utilization",
                ..
            }
        ));
        assert!(err.to_string().contains("outside (0, 1]"));
    }

    #[test]
    fn flash_plans_are_erase_or_energy_dominated() {
        let flash = FlashDevice::mobile_mlc();
        let model = CapabilityModel::new(
            &flash,
            workload(1024.0),
            Some(DramModel::micron_ddr_mobile()),
            BestEffortPolicy::AtReadWrite,
        )
        .unwrap();
        let plan = model.dimension(&DesignGoal::fig3b()).unwrap();
        // Capacity is constant for flash, so only energy or erase wear can
        // dictate; at the paper's default workload the erase budget does.
        assert_eq!(plan.dominant().label(), "Lpe");
        assert!(model.device_lifetime(plan.buffer()).get() >= 7.0 - 1e-9);
        assert!(model.saving(plan.buffer()).unwrap() >= 0.70);
    }
}
