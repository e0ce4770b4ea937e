//! The deterministic fault-injection seam the shard test suites drive.
//!
//! A [`FaultPlan`] tells one worker process how to misbehave at an exact,
//! reproducible point of its lease loop. Plans travel two ways: the
//! coordinator threads them through [`crate::WorkerSpec::fault`] (the
//! hidden `--fault-plan` flag of the `shard-worker` subcommand), and the
//! [`FAULT_PLAN_ENV`] environment variable reaches workers spawned by a
//! coordinator that knows nothing about faults — with an optional
//! `shard=K:` selector so one worker of a fan-out can be targeted.
//!
//! Plans only ever make a worker *worse* (die, stall, tear or damage its
//! own record frames); the coordinator's recovery machinery is what
//! turns an injected fault into a byte-identical run, and the
//! fault-injection suite asserts exactly that.

use std::fmt;
use std::str::FromStr;

/// The environment variable carrying a fault plan to `shard-worker`
/// processes: either a bare plan (`die-after-cells=3`) applied to every
/// worker, or `shard=K:PLAN` applied only to shard index `K`.
pub const FAULT_PLAN_ENV: &str = "MEMSTREAM_FAULT_PLAN";

/// One deterministic worker misbehaviour (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Exit abruptly — no frame for the batch, no `lease-done` — once
    /// the worker has evaluated at least this many cells (checked at
    /// batch granularity). `0` dies on the first batch.
    DieAfterCells(usize),
    /// Stop responding (no heartbeats, no protocol lines, the current
    /// lease held forever) once the worker has evaluated at least this
    /// many cells. The coordinator's lease deadline must reclaim it.
    StallAfterCells(usize),
    /// Tear the first record frame: send half the batch as a frame,
    /// then a `lease-records` header whose bytes never arrive, then die.
    TruncateFlush,
    /// Damage the first record frame: send a complete frame holding an
    /// undecodable record instead of the batch, then carry on as if
    /// nothing happened (including sending `lease-done` for undelivered
    /// work).
    CorruptFlush,
}

impl FaultPlan {
    /// The plan [`FAULT_PLAN_ENV`] selects for shard index `shard`, if
    /// any. Unparseable values are ignored (a fault seam must never turn
    /// into a production failure mode).
    #[must_use]
    pub fn from_env(shard: usize) -> Option<FaultPlan> {
        let raw = std::env::var(FAULT_PLAN_ENV).ok()?;
        let plan = match raw.strip_prefix("shard=") {
            Some(rest) => {
                let (index, plan) = rest.split_once(':')?;
                if index.parse::<usize>().ok()? != shard {
                    return None;
                }
                plan
            }
            None => raw.as_str(),
        };
        plan.parse().ok()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlan::DieAfterCells(k) => write!(f, "die-after-cells={k}"),
            FaultPlan::StallAfterCells(k) => write!(f, "stall-after-cells={k}"),
            FaultPlan::TruncateFlush => f.write_str("truncate-flush"),
            FaultPlan::CorruptFlush => f.write_str("corrupt-flush"),
        }
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let cells = |raw: &str| {
            raw.parse::<usize>()
                .map_err(|e| format!("bad fault-plan cell count `{raw}`: {e}"))
        };
        if let Some(raw) = s.strip_prefix("die-after-cells=") {
            return Ok(FaultPlan::DieAfterCells(cells(raw)?));
        }
        if let Some(raw) = s.strip_prefix("stall-after-cells=") {
            return Ok(FaultPlan::StallAfterCells(cells(raw)?));
        }
        match s {
            "truncate-flush" => Ok(FaultPlan::TruncateFlush),
            "corrupt-flush" => Ok(FaultPlan::CorruptFlush),
            other => Err(format!(
                "unknown fault plan `{other}`; expected die-after-cells=K, \
                 stall-after-cells=K, truncate-flush or corrupt-flush"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_round_trip_through_their_display_form() {
        for plan in [
            FaultPlan::DieAfterCells(0),
            FaultPlan::DieAfterCells(17),
            FaultPlan::StallAfterCells(3),
            FaultPlan::TruncateFlush,
            FaultPlan::CorruptFlush,
        ] {
            assert_eq!(plan.to_string().parse::<FaultPlan>(), Ok(plan));
        }
    }

    #[test]
    fn malformed_plans_are_rejected_with_a_reason() {
        for bad in ["", "die", "die-after-cells=", "die-after-cells=x", "stall"] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?}");
        }
    }
}
