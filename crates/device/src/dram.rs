//! DRAM buffer energy model, patterned after the Micron TN-46-03
//! "Calculating Memory System Power for DDR" technical note.
//!
//! The paper sizes a DRAM buffer in front of the MEMS device and *includes*
//! the DRAM's retention and access energy in the per-bit figure, concluding
//! it is "negligible due to its tiny size". This module makes that claim
//! checkable: [`DramModel::cycle_energy`] computes the DRAM energy of one
//! refill cycle so `memstream-core` can add it to Eq. (1) and the test suite
//! can assert the negligibility.
//!
//! TN-46-03 decomposes DDR power into background (self-refresh/standby),
//! activate, and read/write burst terms. At the granularity this study
//! needs, two calibrated coefficients capture it:
//!
//! * a **retention power density** (self-refresh power per MiB held), and
//! * an **access energy per bit** moved in or out of the device.

use std::fmt;
use std::sync::Arc;

use memstream_units::{DataSize, Duration, Energy, Power};

use crate::error::DeviceError;

/// Energy drawn by the DRAM buffer during one refill cycle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DramEnergyBreakdown {
    /// Self-refresh/background energy: retention power × cycle time.
    pub retention: Energy,
    /// Burst energy for data moved into and out of the buffer.
    pub access: Energy,
}

impl DramEnergyBreakdown {
    /// Total DRAM energy for the cycle.
    #[must_use]
    pub fn total(&self) -> Energy {
        self.retention + self.access
    }
}

impl fmt::Display for DramEnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dram energy: retention {}, access {}, total {}",
            self.retention,
            self.access,
            self.total()
        )
    }
}

/// A DDR-class DRAM buffer energy model (Micron TN-46-03 style).
///
/// ```
/// use memstream_device::DramModel;
/// use memstream_units::{DataSize, Duration};
///
/// let dram = DramModel::micron_ddr_mobile();
/// let cycle = dram.cycle_energy(
///     DataSize::from_kibibytes(20.0),   // buffer held
///     Duration::from_seconds(0.16),     // refill cycle Tm
///     DataSize::from_kibibytes(40.0),   // bits moved (in + out)
/// );
/// assert!(cycle.total().joules() < 1e-3); // "negligible"
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramModel {
    // Shared, not owned: models are cloned with every re-rated analytic
    // model, once per grid cell, and a clone must not allocate.
    name: Arc<str>,
    retention_power_per_mib: Power,
    access_energy_per_bit: Energy,
}

impl DramModel {
    /// A mobile DDR part in self-refresh, calibrated from the TN-46-03
    /// methodology: ~70 µW/MiB retention density and ~60 pJ/bit moved.
    #[must_use]
    pub fn micron_ddr_mobile() -> Self {
        DramModel {
            name: "mobile DDR (TN-46-03 calibration)".into(),
            retention_power_per_mib: Power::from_watts(70e-6),
            access_energy_per_bit: Energy::from_joules(60e-12),
        }
    }

    /// Creates a custom DRAM model.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ZeroParameter`] if either coefficient is zero.
    pub fn new(
        name: impl Into<String>,
        retention_power_per_mib: Power,
        access_energy_per_bit: Energy,
    ) -> Result<Self, DeviceError> {
        if retention_power_per_mib == Power::ZERO {
            return Err(DeviceError::ZeroParameter {
                parameter: "retention_power_per_mib",
            });
        }
        if access_energy_per_bit == Energy::ZERO {
            return Err(DeviceError::ZeroParameter {
                parameter: "access_energy_per_bit",
            });
        }
        Ok(DramModel {
            name: name.into().into(),
            retention_power_per_mib,
            access_energy_per_bit,
        })
    }

    /// The model's name for reports.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Retention (self-refresh) power for a buffer of the given size.
    #[must_use]
    pub fn retention_power(&self, buffer: DataSize) -> Power {
        self.retention_power_per_mib * buffer.mebibytes()
    }

    /// Burst energy for moving the given amount of data in or out.
    #[must_use]
    pub fn access_energy(&self, moved: DataSize) -> Energy {
        self.access_energy_per_bit * moved.bits()
    }

    /// DRAM energy of one refill cycle.
    ///
    /// * `buffer` — capacity held (retention is charged for the whole
    ///   cycle; the buffer is allocated whether full or draining).
    /// * `cycle` — the refill cycle duration `Tm`.
    /// * `moved` — total data transferred across the DRAM interface during
    ///   the cycle. For a stream at `rs`, a full cycle moves `B` in from
    ///   the device and `B` out to the decoder, i.e. `2B`.
    #[must_use]
    pub fn cycle_energy(
        &self,
        buffer: DataSize,
        cycle: Duration,
        moved: DataSize,
    ) -> DramEnergyBreakdown {
        DramEnergyBreakdown {
            retention: self.retention_power(buffer) * cycle,
            access: self.access_energy(moved),
        }
    }
}

impl Default for DramModel {
    fn default() -> Self {
        DramModel::micron_ddr_mobile()
    }
}

impl fmt::Display for DramModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}/MiB retention, {} per bit moved)",
            self.name, self.retention_power_per_mib, self.access_energy_per_bit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_scales_with_buffer_size() {
        let dram = DramModel::micron_ddr_mobile();
        let one = dram.retention_power(DataSize::from_mebibytes(1.0));
        let ten = dram.retention_power(DataSize::from_mebibytes(10.0));
        assert!((ten.watts() - 10.0 * one.watts()).abs() < 1e-15);
    }

    #[test]
    fn access_scales_with_data_moved() {
        let dram = DramModel::micron_ddr_mobile();
        let e = dram.access_energy(DataSize::from_bits(1e9));
        assert!((e.joules() - 60e-12 * 1e9).abs() < 1e-12);
    }

    #[test]
    fn kilobyte_buffers_are_negligible_versus_mems_cycle_energy() {
        // The paper's claim: for a ~20 kB buffer the DRAM term is invisible
        // next to the ~2 mJ MEMS overhead energy per cycle.
        let dram = DramModel::micron_ddr_mobile();
        let buffer = DataSize::from_kibibytes(20.0);
        let cycle = dram.cycle_energy(buffer, Duration::from_seconds(0.17), buffer * 2.0);
        let mems_overhead = Energy::from_millijoules(2.016);
        assert!(cycle.total().joules() < 0.02 * mems_overhead.joules());
    }

    #[test]
    fn megabyte_buffers_are_not_negligible_versus_their_cycles() {
        // Sanity check in the other direction: a disk-scale (MB) buffer held
        // for a long cycle draws measurable retention energy, so the model
        // is not trivially zero.
        let dram = DramModel::micron_ddr_mobile();
        let buffer = DataSize::from_mebibytes(10.0);
        let cycle = dram.cycle_energy(buffer, Duration::from_seconds(100.0), buffer * 2.0);
        assert!(cycle.total().millijoules() > 10.0);
    }

    #[test]
    fn custom_model_rejects_zero_coefficients() {
        assert!(DramModel::new("x", Power::ZERO, Energy::from_joules(1e-12)).is_err());
        assert!(DramModel::new("x", Power::from_watts(1e-6), Energy::ZERO).is_err());
    }

    #[test]
    fn breakdown_total_is_sum() {
        let b = DramEnergyBreakdown {
            retention: Energy::from_joules(1.0),
            access: Energy::from_joules(2.0),
        };
        assert_eq!(b.total().joules(), 3.0);
    }
}
