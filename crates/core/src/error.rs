//! Model errors, including the "infeasible design point" answer of §IV-C.

use std::error::Error;
use std::fmt;

use memstream_media::FormatError;
use memstream_units::{BitRate, Ratio, Years};

use crate::goal::Requirement;

/// Error returned by the buffering model and its inverse functions.
///
/// §IV-C: "The answer could either be a quantitative result of the buffer
/// size, or a statement of infeasible design point." The
/// [`ModelError::InfeasibleGoal`] variant is that statement, carrying which
/// requirement cannot be met and why.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The stream (plus best-effort reservation) exceeds the device's
    /// sustainable media bandwidth: no refill cycle can keep up.
    RateExceedsBandwidth {
        /// Requested stream rate in bits per second.
        stream_bps: f64,
        /// Bandwidth available for refills after the best-effort
        /// reservation, in bits per second.
        available_bps: f64,
    },
    /// The buffer is too small for the device to complete a single
    /// seek + refill + shutdown cycle without the decoder underrunning.
    BufferBelowCycleMinimum {
        /// Requested buffer in bits.
        buffer_bits: f64,
        /// The smallest workable buffer in bits.
        minimum_bits: f64,
    },
    /// A requirement of the design goal cannot be met by any buffer size.
    InfeasibleGoal {
        /// Which requirement failed.
        requirement: Requirement,
        /// Why, with the limiting values.
        reason: InfeasibleReason,
    },
    /// The goal named no requirement at all.
    EmptyGoal,
    /// A device lacks a capability an analysis needs (e.g. asking the full
    /// model pipeline to plan a device with no wear model).
    MissingCapability {
        /// The missing capability (`"energy"`, `"wear"`, `"utilization"`,
        /// `"sim"`).
        capability: &'static str,
    },
    /// A device exposes a capability with an out-of-range payload (e.g. a
    /// constant utilisation of 0 or above 1). Registry devices are
    /// third-party code; malformed payloads surface as errors rather than
    /// panics inside evaluation workers.
    InvalidCapability {
        /// The offending capability.
        capability: &'static str,
        /// What was wrong with it.
        reason: String,
    },
}

/// Why a requirement of a design goal is out of reach: the limiting
/// values the explanation quotes, kept as data. `Display` renders the
/// explanation, so text is made only where it is printed.
#[derive(Debug, Clone, PartialEq)]
pub enum InfeasibleReason {
    /// No buffer reaches the energy-saving target at this stream rate.
    SavingUnreachable {
        /// The requested saving.
        target: Ratio,
        /// The stream rate.
        rate: BitRate,
        /// The best saving any buffer achieves, as a fraction.
        max_saving: f64,
    },
    /// Standby power does not undercut idle power, so shutting the device
    /// down never pays off.
    StandbyNotBelowIdle,
    /// The requested utilisation exceeds the fixed (buffer-independent)
    /// media utilisation.
    AboveFixedUtilization {
        /// The requested utilisation.
        requested: Ratio,
        /// The media's fixed utilisation.
        fixed: Ratio,
    },
    /// The requested utilisation is at or above the sector format's
    /// supremum, which no finite sector reaches.
    AboveFormatSupremum {
        /// The requested utilisation as a fraction.
        requested: f64,
        /// The format's supremum as a fraction.
        supremum: f64,
    },
    /// The capacity solver rejected the request for another reason.
    Format(FormatError),
    /// The probes wear out before the lifetime target even at the
    /// utilisation supremum.
    ProbesWornOut {
        /// The longest probes lifetime any buffer buys.
        ceiling: Years,
        /// The stream rate.
        rate: BitRate,
        /// The probes' write-cycle rating.
        rating: f64,
    },
    /// The erase blocks wear out before the lifetime target even at the
    /// write-amplification floor.
    EraseBlocksWornOut {
        /// The longest erase-block lifetime any buffer buys.
        ceiling: Years,
        /// The stream rate.
        rate: BitRate,
        /// The write-amplification floor.
        waf_floor: f64,
    },
}

impl fmt::Display for InfeasibleReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InfeasibleReason::SavingUnreachable {
                target,
                rate,
                max_saving,
            } => write!(
                f,
                "no buffer reaches a {target} saving at {rate}; the achievable maximum is {:.1}%",
                max_saving * 100.0
            ),
            InfeasibleReason::StandbyNotBelowIdle => {
                write!(f, "standby power does not undercut idle power")
            }
            InfeasibleReason::AboveFixedUtilization { requested, fixed } => write!(
                f,
                "requested utilisation {:.2}% exceeds the fixed media utilisation {:.2}%",
                requested.fraction() * 100.0,
                fixed.fraction() * 100.0
            ),
            InfeasibleReason::AboveFormatSupremum {
                requested,
                supremum,
            } => write!(
                f,
                "requested utilisation {:.2}% exceeds the format supremum {:.2}%",
                requested * 100.0,
                supremum * 100.0
            ),
            InfeasibleReason::Format(err) => write!(f, "{err}"),
            InfeasibleReason::ProbesWornOut {
                ceiling,
                rate,
                rating,
            } => write!(
                f,
                "probes last at most {ceiling} at {rate} even at full utilisation \
                 (rating {rating} write cycles)"
            ),
            InfeasibleReason::EraseBlocksWornOut {
                ceiling,
                rate,
                waf_floor,
            } => write!(
                f,
                "erase blocks last at most {ceiling} at {rate} even at the \
                 write-amplification floor {waf_floor}"
            ),
        }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::RateExceedsBandwidth {
                stream_bps,
                available_bps,
            } => write!(
                f,
                "stream rate {:.0} b/s exceeds the {:.0} b/s available for refills",
                stream_bps, available_bps
            ),
            ModelError::BufferBelowCycleMinimum {
                buffer_bits,
                minimum_bits,
            } => write!(
                f,
                "buffer of {:.0} bits is below the {:.0}-bit minimum for a full refill cycle",
                buffer_bits, minimum_bits
            ),
            ModelError::InfeasibleGoal {
                requirement,
                reason,
            } => write!(f, "design goal infeasible: {requirement} — {reason}"),
            ModelError::EmptyGoal => write!(f, "design goal names no requirement"),
            ModelError::MissingCapability { capability } => {
                write!(f, "device does not expose the `{capability}` capability")
            }
            ModelError::InvalidCapability { capability, reason } => {
                write!(f, "device `{capability}` capability is invalid: {reason}")
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infeasible_goal_names_requirement() {
        let e = ModelError::InfeasibleGoal {
            requirement: Requirement::Energy,
            reason: InfeasibleReason::SavingUnreachable {
                target: Ratio::from_percent(80.0),
                rate: BitRate::from_kbps(2048.0),
                max_saving: 0.742,
            },
        };
        let text = e.to_string();
        assert!(text.contains("energy"));
        assert!(text.contains("74.2%"));
    }

    #[test]
    fn every_reason_renders_its_text_exactly() {
        // One error per reason with its full text. The reference grids
        // print only two of these reasons, so their goldens cannot catch
        // drift in the other five.
        let cases = [
            (
                Requirement::Energy,
                InfeasibleReason::SavingUnreachable {
                    target: Ratio::from_percent(80.0),
                    rate: BitRate::from_kbps(2048.0),
                    max_saving: 0.7421,
                },
                "design goal infeasible: energy saving — no buffer reaches a 80.0% saving \
                 at 2.05 Mbps; the achievable maximum is 74.2%",
            ),
            (
                Requirement::Energy,
                InfeasibleReason::StandbyNotBelowIdle,
                "design goal infeasible: energy saving — standby power does not undercut \
                 idle power",
            ),
            (
                Requirement::Capacity,
                InfeasibleReason::AboveFixedUtilization {
                    requested: Ratio::from_percent(95.0),
                    fixed: Ratio::from_percent(93.0),
                },
                "design goal infeasible: capacity utilisation — requested utilisation \
                 95.00% exceeds the fixed media utilisation 93.00%",
            ),
            (
                Requirement::Capacity,
                InfeasibleReason::AboveFormatSupremum {
                    requested: 0.89,
                    supremum: 8.0 / 9.0,
                },
                "design goal infeasible: capacity utilisation — requested utilisation \
                 89.00% exceeds the format supremum 88.89%",
            ),
            (
                Requirement::Capacity,
                InfeasibleReason::Format(FormatError::ZeroStripeWidth),
                "design goal infeasible: capacity utilisation — stripe width (active \
                 probes) must be positive",
            ),
            (
                Requirement::ProbesLifetime,
                InfeasibleReason::ProbesWornOut {
                    ceiling: Years::new(6.5),
                    rate: BitRate::from_kbps(2905.0),
                    rating: 100.0,
                },
                "design goal infeasible: probes lifetime — probes last at most 6.50 years \
                 at 2.90 Mbps even at full utilisation (rating 100 write cycles)",
            ),
            (
                Requirement::EraseLifetime,
                InfeasibleReason::EraseBlocksWornOut {
                    ceiling: Years::new(3.25),
                    rate: BitRate::from_kbps(512.0),
                    waf_floor: 1.1,
                },
                "design goal infeasible: erase-block lifetime — erase blocks last at most \
                 3.25 years at 512.0 kbps even at the write-amplification floor 1.1",
            ),
        ];
        for (requirement, reason, text) in cases {
            let error = ModelError::InfeasibleGoal {
                requirement,
                reason,
            };
            assert_eq!(error.to_string(), text);
        }
    }

    #[test]
    fn bandwidth_error_reports_both_rates() {
        let e = ModelError::RateExceedsBandwidth {
            stream_bps: 2e8,
            available_bps: 9.7e7,
        };
        assert!(e.to_string().contains("200000000"));
    }
}
