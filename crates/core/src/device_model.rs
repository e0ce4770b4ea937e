//! The open-world counterpart of [`SystemModel`](crate::SystemModel):
//! a full analytic model assembled from capability traits.
//!
//! [`crate::SystemModel`] is the paper's facade — it owns a concrete
//! [`memstream_device::MemsDevice`]. [`CapabilityModel`] assembles the
//! same component models ([`EnergyModel`], [`CapacityModel`],
//! [`LifetimeModel`], [`BufferDimensioner`]) from *any*
//! [`StorageDevice`] that exposes the energy, wear and utilisation
//! capabilities — the one path the scenario grid takes for every such
//! device, whatever its type; its energy arithmetic reads the device's
//! [`EnergyProfile`] once. For a MEMS device the two paths produce
//! bit-identical numbers; for a flash device this is the only path.

use memstream_device::{DramModel, StorageDevice, UtilizationSpec, WearModelled};
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
pub struct CapabilityModel<'a> {
    capacity: DataSize,
    energy: EnergyProfile,
    wear: &'a dyn WearModelled,
    utilization: UtilizationSpec,
    workload: Workload,
    dram: Option<DramModel>,
    policy: BestEffortPolicy,
}

/// The utilisation sanity check of [`CapabilityModel::new`].
fn validate_utilization(utilization: UtilizationSpec) -> Result<(), ModelError> {
    match utilization {
        UtilizationSpec::Constant { fraction } if !(fraction > 0.0 && fraction <= 1.0) => {
            Err(ModelError::InvalidCapability {
                capability: "utilization",
                reason: format!("constant fraction {fraction} is outside (0, 1]"),
            })
        }
        UtilizationSpec::SectorFormat { stripe_width: 0 } => Err(ModelError::InvalidCapability {
            capability: "utilization",
            reason: "sector-format stripe width is zero".to_owned(),
        }),
        _ => Ok(()),
    }
}

impl<'a> CapabilityModel<'a> {
    /// Assembles the model, checking that the device exposes every
    /// capability the full pipeline needs; reads its [`EnergyProfile`] once.
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
        device: &'a dyn StorageDevice,
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
        validate_utilization(utilization)?;
        Ok(CapabilityModel {
            capacity: device.capacity(),
            energy: EnergyProfile::of(energy),
            wear,
            utilization,
            workload,
            dram,
            policy,
        })
    }

    /// The modelled device's media capacity.
    #[must_use]
    pub fn capacity(&self) -> DataSize {
        self.capacity
    }

    /// The workload.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The best-effort accounting policy.
    #[must_use]
    pub fn policy(&self) -> BestEffortPolicy {
        self.policy
    }

    /// A copy of the model at a different stream rate.
    #[must_use]
    pub fn with_rate(&self, rate: BitRate) -> Self {
        let mut copy = self.clone();
        copy.workload = self.workload.with_rate(rate);
        copy
    }

    /// The energy component model (§III-A).
    #[must_use]
    pub fn energy_model(&self) -> EnergyModel<'_> {
        EnergyModel::from_profile(self.energy, self.workload, self.policy, self.dram.as_ref())
    }

    /// The capacity component model (§III-B).
    #[must_use]
    pub fn capacity_model(&self) -> CapacityModel {
        match self.utilization {
            UtilizationSpec::SectorFormat { stripe_width } => {
                CapacityModel::new(SectorFormat::for_stripe_width(stripe_width), self.capacity)
            }
            UtilizationSpec::Constant { fraction } => {
                CapacityModel::constant(Ratio::from_fraction(fraction), self.capacity)
            }
        }
    }

    /// The lifetime component model (§III-C).
    #[must_use]
    pub fn lifetime_model(&self) -> LifetimeModel {
        LifetimeModel::new(self.wear, self.workload, self.capacity_model())
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

    /// Answers the §IV-C design question at this model's stream rate.
    ///
    /// # Errors
    ///
    /// See [`BufferDimensioner::dimension`].
    pub fn dimension(&self, goal: &DesignGoal) -> Result<BufferPlan, ModelError> {
        self.dimensioner().dimension(goal)
    }

    /// Energy saving versus always-on at buffer `buffer`.
    ///
    /// # Errors
    ///
    /// See [`EnergyModel::saving`].
    pub fn saving(&self, buffer: DataSize) -> Result<f64, ModelError> {
        self.energy_model().saving(buffer)
    }

    /// Capacity utilisation `u(B)`.
    #[must_use]
    pub fn utilization(&self, buffer: DataSize) -> Ratio {
        self.capacity_model().utilization(buffer)
    }

    /// Device lifetime: the minimum over every wear channel.
    #[must_use]
    pub fn device_lifetime(&self, buffer: DataSize) -> Years {
        self.lifetime_model().device_lifetime(buffer)
    }

    /// `Em(B)` — per-bit energy at buffer `buffer`.
    ///
    /// # Errors
    ///
    /// See [`EnergyModel::per_bit_energy`].
    pub fn per_bit_energy(&self, buffer: DataSize) -> Result<EnergyPerBit, ModelError> {
        self.energy_model().per_bit_energy(buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemModel;
    use memstream_device::{DiskDevice, EnergyModelled, FlashDevice, MemsDevice};
    use memstream_units::BitRate;

    fn workload(kbps: f64) -> Workload {
        Workload::paper_default(BitRate::from_kbps(kbps))
    }

    #[test]
    fn capability_path_is_bit_identical_to_system_model_for_mems() {
        // The acceptance bar of the registry refactor: for the paper's
        // device, the open capability path and the concrete facade must
        // agree to the last bit — plans, metrics and error strings.
        let device = MemsDevice::table1();
        for kbps in [64.0, 300.0, 1024.0, 2048.0, 4096.0] {
            let facade = SystemModel::paper_default(BitRate::from_kbps(kbps));
            let open = CapabilityModel::new(
                &device,
                workload(kbps),
                Some(DramModel::micron_ddr_mobile()),
                BestEffortPolicy::AtReadWrite,
            )
            .unwrap();
            for goal in [DesignGoal::fig3a(), DesignGoal::fig3b()] {
                match (facade.dimension(&goal), open.dimension(&goal)) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.buffer().bits(), b.buffer().bits());
                        assert_eq!(a.dominant(), b.dominant());
                        let buf = a.buffer();
                        assert_eq!(facade.saving(buf).ok(), open.saving(buf).ok());
                        assert_eq!(facade.utilization(buf), open.utilization(buf));
                        assert_eq!(
                            facade.device_lifetime(buf).get(),
                            open.device_lifetime(buf).get()
                        );
                    }
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => panic!("paths diverge at {kbps} kbps: {a:?} vs {b:?}"),
                }
            }
        }
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
