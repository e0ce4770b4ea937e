//! Capacity as a function of buffer size: §III-B with the `B ≥ Su` coupling.

use std::fmt;

use memstream_media::{min_user_bits_for_utilization, FormatError, SectorFormat};
use memstream_units::{DataSize, Ratio};

use crate::error::{InfeasibleReason, ModelError};
use crate::goal::Requirement;

/// How utilisation depends on the buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum UtilizationLaw {
    /// The sector-format sawtooth of §III-B (`Su = B`).
    Format(SectorFormat),
    /// A buffer-independent constant (fixed over-provisioning, e.g. flash).
    Constant(Ratio),
}

/// The capacity leg of the trade-off: with the buffer flushed one sector at
/// a time (`Su = B`, §IV-C), the buffer size *is* the formatted sector's
/// user payload, so utilisation becomes a function of `B`.
///
/// Devices without a sector format (e.g. flash, whose translation-layer
/// reserve is fixed at manufacture time) use the constant-utilisation law
/// of [`CapacityModel::constant`] instead.
///
/// ```
/// use memstream_core::CapacityModel;
/// use memstream_units::{DataSize, Ratio};
///
/// # fn main() -> Result<(), memstream_core::ModelError> {
/// let model = CapacityModel::paper_default();
/// // A 20 KiB buffer already formats at > 87%:
/// let u = model.utilization(DataSize::from_kibibytes(20.0));
/// assert!(u.percent() > 87.0);
/// // ...but 88% needs more:
/// let b = model.min_buffer_for_utilization(Ratio::from_percent(88.0))?;
/// assert!(b > DataSize::from_kibibytes(20.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityModel {
    law: UtilizationLaw,
    raw_capacity: DataSize,
}

impl CapacityModel {
    /// The paper's format on the Table I device (120 GB raw).
    #[must_use]
    pub fn paper_default() -> Self {
        CapacityModel::new(
            SectorFormat::paper_default(),
            DataSize::from_gigabytes(120.0),
        )
    }

    /// Creates a capacity model from a format and the device's raw capacity.
    #[must_use]
    pub fn new(format: SectorFormat, raw_capacity: DataSize) -> Self {
        CapacityModel {
            law: UtilizationLaw::Format(format),
            raw_capacity,
        }
    }

    /// Creates a constant-utilisation model: `u(B) = utilization` for every
    /// buffer size.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is not in `(0, 1]`.
    #[must_use]
    pub fn constant(utilization: Ratio, raw_capacity: DataSize) -> Self {
        let f = utilization.fraction();
        assert!(
            f > 0.0 && f <= 1.0,
            "constant utilisation must be in (0, 1]"
        );
        CapacityModel {
            law: UtilizationLaw::Constant(utilization),
            raw_capacity,
        }
    }

    /// The sector format in force, when utilisation follows one.
    #[must_use]
    pub fn format(&self) -> Option<&SectorFormat> {
        match &self.law {
            UtilizationLaw::Format(format) => Some(format),
            UtilizationLaw::Constant(_) => None,
        }
    }

    /// The device's raw capacity.
    #[must_use]
    pub fn raw_capacity(&self) -> DataSize {
        self.raw_capacity
    }

    /// Utilisation `u(B)` with the buffer-sized sector (`Su = B`, Eq. (4)),
    /// or the fixed constant.
    #[must_use]
    pub fn utilization(&self, buffer: DataSize) -> Ratio {
        match &self.law {
            UtilizationLaw::Format(format) => format.utilization(buffer),
            UtilizationLaw::Constant(u) => *u,
        }
    }

    /// The formatted sector size `S` for a buffer-sized sector (Eq. (3)).
    /// Under the constant law the medium carries no per-sector overhead,
    /// so `S = Su = B`.
    #[must_use]
    pub fn sector_size(&self, buffer: DataSize) -> DataSize {
        match &self.law {
            UtilizationLaw::Format(format) => format.layout(buffer).sector_size(),
            UtilizationLaw::Constant(_) => buffer,
        }
    }

    /// Effective user capacity `C · u(B)`.
    #[must_use]
    pub fn effective_capacity(&self, buffer: DataSize) -> DataSize {
        match &self.law {
            UtilizationLaw::Format(format) => format
                .layout(buffer)
                .effective_user_capacity(self.raw_capacity),
            UtilizationLaw::Constant(u) => self.raw_capacity * u.fraction(),
        }
    }

    /// The utilisation supremum (8/9 for the paper's format; the constant
    /// itself under the constant law).
    #[must_use]
    pub fn utilization_supremum(&self) -> Ratio {
        match &self.law {
            UtilizationLaw::Format(format) => format.utilization_supremum(),
            UtilizationLaw::Constant(u) => *u,
        }
    }

    /// The inverse of Eq. (4): the smallest buffer reaching utilisation
    /// `target` — the "C" curve of Fig. 3. Under the constant law the
    /// answer is zero when the constant reaches the target (no buffer can
    /// change utilisation).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InfeasibleGoal`] if `target` is at or above
    /// the utilisation supremum (format law) or above the constant.
    pub fn min_buffer_for_utilization(&self, target: Ratio) -> Result<DataSize, ModelError> {
        match &self.law {
            UtilizationLaw::Format(format) => min_user_bits_for_utilization(format, target)
                .map(DataSize::from_bit_count)
                .map_err(Self::as_model_error),
            UtilizationLaw::Constant(u) => {
                self.check_constant_reaches(*u, target)?;
                Ok(DataSize::ZERO)
            }
        }
    }

    /// Like [`CapacityModel::min_buffer_for_utilization`], but never below
    /// `at_least`. Because `u(B)` is a sawtooth, a buffer another
    /// requirement enlarged can dip back below the target; this finds the
    /// next valid size at or above it. The constant law has no sawtooth,
    /// so the answer is `at_least` itself.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InfeasibleGoal`] if `target` is at or above
    /// the utilisation supremum (format law) or above the constant.
    pub fn min_buffer_for_utilization_at_least(
        &self,
        target: Ratio,
        at_least: DataSize,
    ) -> Result<DataSize, ModelError> {
        match &self.law {
            UtilizationLaw::Format(format) => {
                memstream_media::min_user_bits_for_utilization_at_least(
                    format,
                    target,
                    at_least.bits().ceil() as u64,
                )
                .map(DataSize::from_bit_count)
                .map_err(Self::as_model_error)
            }
            UtilizationLaw::Constant(u) => {
                self.check_constant_reaches(*u, target)?;
                Ok(at_least)
            }
        }
    }

    fn check_constant_reaches(&self, constant: Ratio, target: Ratio) -> Result<(), ModelError> {
        if target.fraction() > constant.fraction() {
            return Err(ModelError::InfeasibleGoal {
                requirement: Requirement::Capacity,
                reason: InfeasibleReason::AboveFixedUtilization {
                    requested: target,
                    fixed: constant,
                },
            });
        }
        Ok(())
    }

    fn as_model_error(err: FormatError) -> ModelError {
        let reason = match err {
            FormatError::UtilizationUnreachable {
                requested,
                supremum,
            } => InfeasibleReason::AboveFormatSupremum {
                requested,
                supremum,
            },
            other => InfeasibleReason::Format(other),
        };
        ModelError::InfeasibleGoal {
            requirement: Requirement::Capacity,
            reason,
        }
    }
}

impl Default for CapacityModel {
    fn default() -> Self {
        CapacityModel::paper_default()
    }
}

impl fmt::Display for CapacityModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.law {
            UtilizationLaw::Format(format) => {
                write!(f, "capacity model: {} on {} raw", format, self.raw_capacity)
            }
            UtilizationLaw::Constant(u) => {
                write!(
                    f,
                    "capacity model: fixed {} on {} raw",
                    u, self.raw_capacity
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_effective_capacity_tops_near_106_gb() {
        let m = CapacityModel::paper_default();
        let eff = m.effective_capacity(DataSize::from_kibibytes(512.0));
        assert!(
            (105.0..107.0).contains(&eff.gigabytes()),
            "got {} GB",
            eff.gigabytes()
        );
    }

    #[test]
    fn inverse_is_consistent_with_forward() {
        let m = CapacityModel::paper_default();
        for pct in [50.0, 70.0, 85.0, 88.0] {
            let t = Ratio::from_percent(pct);
            let b = m.min_buffer_for_utilization(t).unwrap();
            assert!(m.utilization(b) >= t);
        }
    }

    #[test]
    fn supremum_target_is_infeasible_with_named_requirement() {
        let m = CapacityModel::paper_default();
        let err = m
            .min_buffer_for_utilization(Ratio::from_percent(89.0))
            .unwrap_err();
        match err {
            ModelError::InfeasibleGoal { requirement, .. } => {
                assert_eq!(requirement, Requirement::Capacity);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn sector_size_exceeds_buffer() {
        // S > Su always: ECC + sync + padding.
        let m = CapacityModel::paper_default();
        let b = DataSize::from_kibibytes(8.0);
        assert!(m.sector_size(b) > b);
    }

    #[test]
    fn constant_law_is_buffer_independent() {
        let m = CapacityModel::constant(Ratio::from_percent(93.0), DataSize::from_gigabytes(64.0));
        let u1 = m.utilization(DataSize::from_kibibytes(1.0));
        let u2 = m.utilization(DataSize::from_mebibytes(10.0));
        assert_eq!(u1, u2);
        assert_eq!(m.utilization_supremum(), u1);
        assert!(m.format().is_none());
        // Reaching 88% costs nothing; exceeding 93% is infeasible.
        assert_eq!(
            m.min_buffer_for_utilization(Ratio::from_percent(88.0))
                .unwrap(),
            DataSize::ZERO
        );
        let floor = DataSize::from_kibibytes(12.0);
        assert_eq!(
            m.min_buffer_for_utilization_at_least(Ratio::from_percent(88.0), floor)
                .unwrap(),
            floor
        );
        let err = m
            .min_buffer_for_utilization(Ratio::from_percent(95.0))
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::InfeasibleGoal {
                requirement: Requirement::Capacity,
                ..
            }
        ));
    }

    proptest! {
        #[test]
        fn effective_capacity_below_raw(kib in 0.1..1000.0f64) {
            let m = CapacityModel::paper_default();
            let eff = m.effective_capacity(DataSize::from_kibibytes(kib));
            prop_assert!(eff < m.raw_capacity());
        }
    }
}
