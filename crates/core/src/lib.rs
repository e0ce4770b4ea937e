//! Buffering model for streaming MEMS storage.
//!
//! This crate is the primary contribution of the reproduction of
//! **Khatib & Abelmann, "Buffering Implications for the Design Space of
//! Streaming MEMS Storage" (DATE 2011)**. It models a MEMS storage device
//! fronted by a DRAM streaming buffer (Fig. 1 of the paper) and expresses
//! three non-functional properties as functions of the buffer size `B`:
//!
//! * **energy** — per-bit energy of the shutdown cycle, Eq. (1)
//!   ([`EnergyModel`]), including the break-even buffer of §III-A.1;
//! * **capacity** — formatted utilisation under the `B ≥ Su` coupling,
//!   Eqs. (2)–(4) ([`CapacityModel`]);
//! * **lifetime** — springs (Eq. (5)) and probes (Eq. (6)) wear
//!   ([`LifetimeModel`]).
//!
//! On top sit the paper's *inverse functions* ([`BufferDimensioner`]):
//! given a design goal `(E, C, L)`, find the minimal buffer (or prove the
//! goal infeasible) and report which requirement *dictates* the buffer —
//! the machinery behind Fig. 3.
//!
//! # Quick start
//!
//! ```
//! use memstream_core::{DesignGoal, SystemModel};
//! use memstream_units::{BitRate, Ratio, Years};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = SystemModel::paper_default(BitRate::from_kbps(1024.0));
//! let goal = DesignGoal::new()
//!     .energy_saving(Ratio::from_percent(70.0))
//!     .capacity_utilization(Ratio::from_percent(88.0))
//!     .lifetime(Years::new(7.0));
//! let plan = model.dimension(&goal)?;
//! println!("buffer: {} (dictated by {})", plan.buffer(), plan.dominant());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacity;
mod cycle;
mod device_model;
mod dimension;
mod energy;
mod error;
mod explore;
mod goal;
mod lifetime;
mod plot;
mod report;
mod sensitivity;
mod system;
mod tradeoff;

pub use capacity::CapacityModel;
pub use cycle::{BestEffortPolicy, EnergyProfile, RefillCycle};
pub use device_model::CapabilityModel;
pub use dimension::{BufferDimensioner, BufferPlan};
pub use energy::{CycleEnergy, EnergyModel};
pub use error::{InfeasibleReason, ModelError};
pub use explore::{
    feasibility_map, log_spaced_rates, BufferSweepPoint, FeasibilityMap, RateSweepPoint,
    SweepBuilder,
};
pub use goal::{DesignGoal, Requirement};
pub use lifetime::{duty_cycle_lifetime, min_buffer_for_duty_cycles, LifetimeModel, WearDemands};
pub use plot::{csv_field, render_ascii_chart, to_csv, write_fixed, AsciiChart, Axis, Series};
pub use report::{BufferPointReport, DesignReport};
pub use sensitivity::{buffer_sensitivity, SensitivityRow, SENSITIVITY_PARAMETERS};
pub use system::SystemModel;
pub use tradeoff::{saving_frontier, FrontierPoint, SavingFrontier};

#[cfg(test)]
mod tests {
    use super::*;
    use memstream_units::BitRate;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn public_types_are_send_sync() {
        assert_send_sync::<SystemModel>();
        assert_send_sync::<DesignGoal>();
        assert_send_sync::<BufferPlan>();
        assert_send_sync::<ModelError>();
        assert_send_sync::<Requirement>();
    }

    #[test]
    fn paper_default_model_constructs() {
        let m = SystemModel::paper_default(BitRate::from_kbps(1024.0));
        assert_eq!(m.workload().rate(), BitRate::from_kbps(1024.0));
    }
}
