//! Durations and device lifetimes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::error::{check_non_negative, QuantityError};
use crate::{BitRate, DataSize, Energy, Power, Ratio};

/// Seconds in a Julian-ish year as used by the paper's workload
/// ("eight hours every day all year round"): `365 * 24 * 3600`.
pub const SECONDS_PER_YEAR: f64 = 365.0 * 24.0 * 3600.0;

/// A span of wall-clock time in seconds.
///
/// Used for everything from millisecond seek times to year-long playback
/// totals. A separate [`Years`] type represents device *lifetime* results so
/// the two cannot be confused.
///
/// ```
/// use memstream_units::Duration;
///
/// let seek = Duration::from_millis(2.0);
/// let shutdown = Duration::from_millis(1.0);
/// assert_eq!((seek + shutdown).seconds(), 0.003);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Duration {
    seconds: f64,
}

impl Duration {
    /// Zero seconds.
    pub const ZERO: Duration = Duration { seconds: 0.0 };

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or not finite; use
    /// [`Duration::try_from_seconds`] for fallible construction.
    #[must_use]
    pub fn from_seconds(seconds: f64) -> Self {
        Self::try_from_seconds(seconds).expect("duration")
    }

    /// Fallible variant of [`Duration::from_seconds`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantityError`] if `seconds` is negative, NaN or infinite.
    pub fn try_from_seconds(seconds: f64) -> Result<Self, QuantityError> {
        check_non_negative("duration", seconds).map(|seconds| Self { seconds })
    }

    /// Creates a duration from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_seconds(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Self::from_seconds(us * 1e-6)
    }

    /// Creates a duration from hours.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    #[must_use]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_seconds(hours * 3600.0)
    }

    /// The duration in seconds.
    #[must_use]
    pub fn seconds(self) -> f64 {
        self.seconds
    }

    /// The duration in milliseconds.
    #[must_use]
    pub fn millis(self) -> f64 {
        self.seconds * 1e3
    }

    /// The duration in hours.
    #[must_use]
    pub fn hours(self) -> f64 {
        self.seconds / 3600.0
    }

    /// Returns `true` for the zero duration.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.seconds == 0.0
    }

    /// Component-wise minimum.
    #[must_use]
    pub fn min(self, other: Duration) -> Duration {
        Duration {
            seconds: self.seconds.min(other.seconds),
        }
    }

    /// Component-wise maximum.
    #[must_use]
    pub fn max(self, other: Duration) -> Duration {
        Duration {
            seconds: self.seconds.max(other.seconds),
        }
    }

    /// Saturating subtraction: never goes below zero.
    #[must_use]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration {
            seconds: (self.seconds - other.seconds).max(0.0),
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.seconds >= 3600.0 {
            write!(f, "{:.2} h", self.hours())
        } else if self.seconds >= 1.0 {
            write!(f, "{:.3} s", self.seconds)
        } else if self.seconds >= 1e-3 {
            write!(f, "{:.3} ms", self.millis())
        } else {
            write!(f, "{:.3} µs", self.seconds * 1e6)
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration {
            seconds: self.seconds + rhs.seconds,
        }
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.seconds += rhs.seconds;
    }
}

impl Sub for Duration {
    type Output = Duration;
    /// # Panics
    ///
    /// Panics in debug builds on underflow; use
    /// [`Duration::saturating_sub`] when underflow is expected.
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(
            self.seconds >= rhs.seconds,
            "duration subtraction underflow: {} - {}",
            self.seconds,
            rhs.seconds
        );
        Duration {
            seconds: (self.seconds - rhs.seconds).max(0.0),
        }
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: f64) -> Duration {
        Duration::from_seconds(self.seconds * rhs)
    }
}

impl Mul<Duration> for f64 {
    type Output = Duration;
    fn mul(self, rhs: Duration) -> Duration {
        rhs * self
    }
}

impl Mul<Ratio> for Duration {
    type Output = Duration;
    fn mul(self, rhs: Ratio) -> Duration {
        self * rhs.fraction()
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    fn div(self, rhs: f64) -> Duration {
        Duration::from_seconds(self.seconds / rhs)
    }
}

/// Dimensionless ratio of two durations.
impl Div<Duration> for Duration {
    type Output = f64;
    fn div(self, rhs: Duration) -> f64 {
        self.seconds / rhs.seconds
    }
}

/// `s * (bits/s) = bits`.
impl Mul<BitRate> for Duration {
    type Output = DataSize;
    fn mul(self, rhs: BitRate) -> DataSize {
        rhs * self
    }
}

/// `s * W = J`.
impl Mul<Power> for Duration {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

/// A device lifetime expressed in years, the output unit of the paper's
/// Eqs. (5) and (6).
///
/// ```
/// use memstream_units::Years;
///
/// let springs = Years::new(4.2);
/// let probes = Years::new(19.6);
/// assert_eq!(springs.min(probes), springs); // device lifetime = min of parts
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Years {
    years: f64,
}

impl Years {
    /// Zero years.
    pub const ZERO: Years = Years { years: 0.0 };

    /// Creates a lifetime from a year count.
    ///
    /// # Panics
    ///
    /// Panics if `years` is negative or NaN. Positive infinity is allowed:
    /// a component that never wears (e.g. probes under a read-only
    /// workload) has unbounded lifetime. Use [`Years::try_new`] for
    /// fallible construction.
    #[must_use]
    pub fn new(years: f64) -> Self {
        Self::try_new(years).unwrap_or_else(|_| panic!("lifetime must be >= 0, got {years}"))
    }

    /// Fallible variant of [`Years::new`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantityError`] if `years` is negative or NaN.
    pub fn try_new(years: f64) -> Result<Self, QuantityError> {
        let (quantity, value) = ("lifetime", years);
        if years.is_nan() {
            Err(QuantityError::NotFinite { quantity, value })
        } else if years < 0.0 {
            Err(QuantityError::Negative { quantity, value })
        } else {
            Ok(Years { years })
        }
    }

    /// Unbounded lifetime (component never wears out).
    #[must_use]
    pub fn unbounded() -> Self {
        Years {
            years: f64::INFINITY,
        }
    }

    /// The lifetime in years.
    #[must_use]
    pub fn get(self) -> f64 {
        self.years
    }

    /// Returns `true` if the lifetime is unbounded.
    #[must_use]
    pub fn is_unbounded(self) -> bool {
        self.years.is_infinite()
    }

    /// Component-wise minimum; the paper's `L = min(Lsp, Lpb)`.
    #[must_use]
    pub fn min(self, other: Years) -> Years {
        Years {
            years: self.years.min(other.years),
        }
    }

    /// Component-wise maximum.
    #[must_use]
    pub fn max(self, other: Years) -> Years {
        Years {
            years: self.years.max(other.years),
        }
    }
}

impl fmt::Display for Years {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.years.is_infinite() {
            write!(f, "unbounded")
        } else {
            write!(f, "{:.2} years", self.years)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_playback_seconds_per_year() {
        // Table I: 8 hours per day, every day.
        let t = Duration::from_hours(8.0).seconds() * 365.0;
        assert_eq!(t, 10_512_000.0);
        assert_eq!(SECONDS_PER_YEAR, 31_536_000.0);
    }

    #[test]
    fn overhead_time_is_seek_plus_shutdown() {
        let toh = Duration::from_millis(2.0) + Duration::from_millis(1.0);
        assert!((toh.seconds() - 0.003).abs() < 1e-15);
    }

    #[test]
    fn display_scales() {
        assert_eq!(Duration::from_millis(2.0).to_string(), "2.000 ms");
        assert_eq!(Duration::from_micros(30.0).to_string(), "30.000 µs");
        assert_eq!(Duration::from_hours(8.0).to_string(), "8.00 h");
        assert_eq!(Duration::from_seconds(1.5).to_string(), "1.500 s");
    }

    #[test]
    fn lifetime_min_matches_paper_rule() {
        let l = Years::new(4.0).min(Years::new(19.6));
        assert_eq!(l.get(), 4.0);
        assert_eq!(Years::unbounded().min(Years::new(7.0)), Years::new(7.0));
    }

    #[test]
    fn unbounded_lifetime_display() {
        assert_eq!(Years::unbounded().to_string(), "unbounded");
        assert_eq!(Years::new(7.0).to_string(), "7.00 years");
    }

    #[test]
    #[should_panic(expected = "lifetime must be >= 0")]
    fn negative_lifetime_panics() {
        let _ = Years::new(-1.0);
    }

    proptest! {
        #[test]
        fn saturating_sub_never_negative(a in 0.0..1e6f64, b in 0.0..1e6f64) {
            let d = Duration::from_seconds(a).saturating_sub(Duration::from_seconds(b));
            prop_assert!(d.seconds() >= 0.0);
        }

        #[test]
        fn hours_roundtrip(h in 0.0..1e4f64) {
            prop_assert!((Duration::from_hours(h).hours() - h).abs() <= h * 1e-12);
        }
    }
}
