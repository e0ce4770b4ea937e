//! Energy and per-bit energy.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::error::{check_non_negative, QuantityError};
use crate::{DataSize, Duration, Power, Ratio};

/// An amount of energy in joules.
///
/// Cycle-level energies in the model are milli-joules; the per-bit energies
/// plotted in Fig. 2a are nano-joules per bit ([`EnergyPerBit`]).
///
/// ```
/// use memstream_units::{DataSize, Energy};
///
/// let e = Energy::from_millijoules(2.016);
/// let per_bit = e / DataSize::from_kibibytes(20.0);
/// assert!(per_bit.nanojoules_per_bit() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy {
    joules: f64,
}

impl Energy {
    /// Zero joules.
    pub const ZERO: Energy = Energy { joules: 0.0 };

    /// Creates an energy from joules.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite; use
    /// [`Energy::try_from_joules`] for fallible construction.
    #[must_use]
    pub fn from_joules(joules: f64) -> Self {
        Self::try_from_joules(joules).expect("energy")
    }

    /// Fallible variant of [`Energy::from_joules`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantityError`] if `joules` is negative, NaN or infinite.
    pub fn try_from_joules(joules: f64) -> Result<Self, QuantityError> {
        check_non_negative("energy", joules).map(|joules| Self { joules })
    }

    /// Creates an energy from millijoules.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    #[must_use]
    pub fn from_millijoules(mj: f64) -> Self {
        Self::from_joules(mj * 1e-3)
    }

    /// The energy in joules.
    #[must_use]
    pub fn joules(self) -> f64 {
        self.joules
    }

    /// The energy in millijoules.
    #[must_use]
    pub fn millijoules(self) -> f64 {
        self.joules * 1e3
    }

    /// Returns `true` for zero energy.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.joules == 0.0
    }

    /// Saturating subtraction: clamps at zero.
    #[must_use]
    pub fn saturating_sub(self, other: Energy) -> Energy {
        Energy {
            joules: (self.joules - other.joules).max(0.0),
        }
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.joules >= 1.0 {
            write!(f, "{:.3} J", self.joules)
        } else if self.joules >= 1e-3 {
            write!(f, "{:.3} mJ", self.millijoules())
        } else if self.joules >= 1e-6 {
            write!(f, "{:.3} µJ", self.joules * 1e6)
        } else {
            write!(f, "{:.3} nJ", self.joules * 1e9)
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy {
            joules: self.joules + rhs.joules,
        }
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.joules += rhs.joules;
    }
}

impl Sub for Energy {
    type Output = Energy;
    /// # Panics
    ///
    /// Panics in debug builds on underflow; use
    /// [`Energy::saturating_sub`] when the difference may be negative.
    fn sub(self, rhs: Energy) -> Energy {
        debug_assert!(
            self.joules >= rhs.joules,
            "energy subtraction underflow: {} - {}",
            self.joules,
            rhs.joules
        );
        Energy {
            joules: (self.joules - rhs.joules).max(0.0),
        }
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy::from_joules(self.joules * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    fn mul(self, rhs: Energy) -> Energy {
        rhs * self
    }
}

impl Mul<Ratio> for Energy {
    type Output = Energy;
    fn mul(self, rhs: Ratio) -> Energy {
        self * rhs.fraction()
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy::from_joules(self.joules / rhs)
    }
}

/// Dimensionless ratio of two energies (basis of the saving metric).
impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.joules / rhs.joules
    }
}

/// `J / bits = J/bit`.
impl Div<DataSize> for Energy {
    type Output = EnergyPerBit;
    fn div(self, rhs: DataSize) -> EnergyPerBit {
        EnergyPerBit::from_joules_per_bit(self.joules / rhs.bits())
    }
}

/// `J / s = W` (average power over an interval).
impl Div<Duration> for Energy {
    type Output = Power;
    fn div(self, rhs: Duration) -> Power {
        Power::from_watts(self.joules / rhs.seconds())
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

/// Energy normalised per stored/streamed bit — the y-axis of Fig. 2a.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct EnergyPerBit {
    joules_per_bit: f64,
}

impl EnergyPerBit {
    /// Zero joules per bit.
    pub const ZERO: EnergyPerBit = EnergyPerBit {
        joules_per_bit: 0.0,
    };

    /// Creates a per-bit energy from joules per bit.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite; use
    /// [`EnergyPerBit::try_from_joules_per_bit`] for fallible
    /// construction.
    #[must_use]
    pub fn from_joules_per_bit(j_per_bit: f64) -> Self {
        Self::try_from_joules_per_bit(j_per_bit).expect("per-bit energy")
    }

    /// Fallible variant of [`EnergyPerBit::from_joules_per_bit`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantityError`] if the value is negative, NaN or
    /// infinite.
    pub fn try_from_joules_per_bit(j_per_bit: f64) -> Result<Self, QuantityError> {
        check_non_negative("per-bit energy", j_per_bit)
            .map(|joules_per_bit| Self { joules_per_bit })
    }

    /// Creates a per-bit energy from nanojoules per bit (Fig. 2a's unit).
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    #[must_use]
    pub fn from_nanojoules_per_bit(nj_per_bit: f64) -> Self {
        Self::from_joules_per_bit(nj_per_bit * 1e-9)
    }

    /// The per-bit energy in joules per bit.
    #[must_use]
    pub fn joules_per_bit(self) -> f64 {
        self.joules_per_bit
    }

    /// The per-bit energy in nanojoules per bit.
    #[must_use]
    pub fn nanojoules_per_bit(self) -> f64 {
        self.joules_per_bit * 1e9
    }

    /// Component-wise minimum.
    #[must_use]
    pub fn min(self, other: EnergyPerBit) -> EnergyPerBit {
        EnergyPerBit {
            joules_per_bit: self.joules_per_bit.min(other.joules_per_bit),
        }
    }

    /// Component-wise maximum.
    #[must_use]
    pub fn max(self, other: EnergyPerBit) -> EnergyPerBit {
        EnergyPerBit {
            joules_per_bit: self.joules_per_bit.max(other.joules_per_bit),
        }
    }
}

impl fmt::Display for EnergyPerBit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} nJ/b", self.nanojoules_per_bit())
    }
}

impl Add for EnergyPerBit {
    type Output = EnergyPerBit;
    fn add(self, rhs: EnergyPerBit) -> EnergyPerBit {
        EnergyPerBit {
            joules_per_bit: self.joules_per_bit + rhs.joules_per_bit,
        }
    }
}

impl Mul<f64> for EnergyPerBit {
    type Output = EnergyPerBit;
    fn mul(self, rhs: f64) -> EnergyPerBit {
        EnergyPerBit::from_joules_per_bit(self.joules_per_bit * rhs)
    }
}

/// Dimensionless ratio of two per-bit energies.
impl Div<EnergyPerBit> for EnergyPerBit {
    type Output = f64;
    fn div(self, rhs: EnergyPerBit) -> f64 {
        self.joules_per_bit / rhs.joules_per_bit
    }
}

/// `(J/bit) * bits = J`.
impl Mul<DataSize> for EnergyPerBit {
    type Output = Energy;
    fn mul(self, rhs: DataSize) -> Energy {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn energy_over_size_is_per_bit() {
        let per_bit = Energy::from_joules(1.0) / DataSize::from_bits(1e9);
        assert!((per_bit.nanojoules_per_bit() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_bit_times_size_roundtrips() {
        let per_bit = EnergyPerBit::from_nanojoules_per_bit(120.0);
        let e = per_bit * DataSize::from_bits(1e9);
        assert!((e.joules() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn energy_over_duration_is_power() {
        let p = Energy::from_joules(6.0) / Duration::from_seconds(3.0);
        assert_eq!(p.watts(), 2.0);
    }

    #[test]
    fn display_scales() {
        assert_eq!(Energy::from_millijoules(2.016).to_string(), "2.016 mJ");
        assert_eq!(Energy::from_joules(6.3).to_string(), "6.300 J");
        assert_eq!(
            EnergyPerBit::from_nanojoules_per_bit(120.4).to_string(),
            "120.40 nJ/b"
        );
    }

    #[test]
    fn sum_accumulates() {
        let total: Energy = vec![
            Energy::from_joules(1.0),
            Energy::from_joules(2.0),
            Energy::from_joules(3.0),
        ]
        .into_iter()
        .sum();
        assert_eq!(total.joules(), 6.0);
    }

    proptest! {
        #[test]
        fn per_bit_roundtrip(j in 0.0..1e3f64, bits in 1.0..1e12f64) {
            let e = Energy::from_joules(j);
            let size = DataSize::from_bits(bits);
            let back = (e / size) * size;
            prop_assert!((back.joules() - j).abs() <= 1e-9 + j * 1e-12);
        }
    }
}
