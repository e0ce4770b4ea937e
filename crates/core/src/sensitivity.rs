//! Parameter sensitivity of the required buffer.
//!
//! The paper's conclusion — "enhancement in probes lifetime is essentially
//! needed" — is a sensitivity claim: of all the device parameters, `Dpb`
//! is the one whose improvement moves the design space most. This module
//! makes such claims quantitative: for a system and goal it estimates the
//! **elasticity** `ε = ∂ln B_req / ∂ln p` of the required buffer with
//! respect to each parameter `p` by central differences, so `ε = −1` means
//! "doubling the parameter halves the buffer" and `ε = 0` means the
//! parameter is not binding at this operating point.

use memstream_device::{MemsDevice, MemsDeviceBuilder, PowerState};
use memstream_units::Ratio;
use memstream_workload::{StreamSpec, Workload};

use crate::goal::DesignGoal;
use crate::system::SystemModel;

/// Elasticity of the required buffer with respect to one parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// Which parameter was perturbed.
    pub parameter: &'static str,
    /// `∂ln B_req / ∂ln p`, or `None` if a perturbed configuration made
    /// the goal infeasible (the elasticity is effectively a cliff there).
    pub elasticity: Option<f64>,
}

/// Rebuilds a builder seeded with every observable parameter of `d`.
fn builder_from(d: &MemsDevice) -> MemsDeviceBuilder {
    use memstream_device::EnergyModelled as _;
    MemsDevice::builder()
        .array(*d.array())
        .capacity(d.capacity())
        .per_probe_rate(d.per_probe_rate())
        .seek_time(d.seek_time())
        .shutdown_time(d.shutdown_time())
        .io_overhead_time(d.io_overhead_time())
        .read_write_power(d.power(PowerState::ReadWrite))
        .seek_power(d.power(PowerState::Seek))
        .standby_power(d.power(PowerState::Standby))
        .idle_power(d.power(PowerState::Idle))
        .shutdown_power(d.power(PowerState::Shutdown))
        .probe_write_cycles(d.probe_write_cycles())
        .spring_duty_cycles(d.spring_duty_cycles())
}

/// Applies a multiplicative perturbation of one named parameter.
fn perturbed(model: &SystemModel, parameter: &str, factor: f64) -> Option<SystemModel> {
    use memstream_device::EnergyModelled as _;
    let d = model.device();
    let device = match parameter {
        "spring duty cycles" => Some(d.with_spring_duty_cycles(d.spring_duty_cycles() * factor)),
        "probe write cycles" => Some(d.with_probe_write_cycles(d.probe_write_cycles() * factor)),
        "idle power" => builder_from(d)
            .idle_power(d.power(PowerState::Idle) * factor)
            .build()
            .ok(),
        "standby power" => builder_from(d)
            .standby_power(d.power(PowerState::Standby) * factor)
            .build()
            .ok(),
        "overhead power" => builder_from(d)
            .seek_power(d.power(PowerState::Seek) * factor)
            .shutdown_power(d.power(PowerState::Shutdown) * factor)
            .build()
            .ok(),
        "media rate" => builder_from(d)
            .per_probe_rate(d.per_probe_rate() * factor)
            .build()
            .ok(),
        _ => None,
    };
    if let Some(device) = device {
        return Some(model.with_device(device));
    }
    // Workload-side parameters.
    let w = model.workload();
    match parameter {
        "write fraction" => {
            let scaled = (w.write_fraction().fraction() * factor).min(1.0);
            let stream = StreamSpec::new(w.rate(), Ratio::from_fraction(scaled)).ok()?;
            let workload = Workload::new(stream, w.calendar(), w.best_effort_fraction()).ok()?;
            Some(SystemModel::new(
                model.device().clone(),
                workload,
                model.dram().cloned(),
                model.policy(),
            ))
        }
        "best-effort fraction" => {
            let scaled = (w.best_effort_fraction().fraction() * factor).min(0.99);
            let workload =
                Workload::new(w.stream(), w.calendar(), Ratio::from_fraction(scaled)).ok()?;
            Some(SystemModel::new(
                model.device().clone(),
                workload,
                model.dram().cloned(),
                model.policy(),
            ))
        }
        _ => None,
    }
}

/// The parameters [`buffer_sensitivity`] perturbs.
pub const SENSITIVITY_PARAMETERS: [&str; 8] = [
    "spring duty cycles",
    "probe write cycles",
    "idle power",
    "standby power",
    "overhead power",
    "media rate",
    "write fraction",
    "best-effort fraction",
];

/// Estimates `∂ln B_req / ∂ln p` for every parameter in
/// [`SENSITIVITY_PARAMETERS`] by a central difference of relative step
/// `rel_step` (e.g. `0.05` for ±5 %).
///
/// # Panics
///
/// Panics if `rel_step` is not in `(0, 0.5)`.
#[must_use]
pub fn buffer_sensitivity(
    model: &SystemModel,
    goal: &DesignGoal,
    rel_step: f64,
) -> Vec<SensitivityRow> {
    assert!(
        rel_step > 0.0 && rel_step < 0.5,
        "relative step must lie in (0, 0.5), got {rel_step}"
    );
    SENSITIVITY_PARAMETERS
        .iter()
        .map(|&parameter| {
            let elasticity = (|| {
                let up = perturbed(model, parameter, 1.0 + rel_step)?
                    .dimension(goal)
                    .ok()?
                    .buffer();
                let down = perturbed(model, parameter, 1.0 - rel_step)?
                    .dimension(goal)
                    .ok()?
                    .buffer();
                let dln_b = (up.bits() / down.bits()).ln();
                let dln_p = ((1.0 + rel_step) / (1.0 - rel_step)).ln();
                Some(dln_b / dln_p)
            })();
            SensitivityRow {
                parameter,
                elasticity,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memstream_units::BitRate;

    fn elasticity_of(rows: &[SensitivityRow], name: &str) -> f64 {
        rows.iter()
            .find(|r| r.parameter == name)
            .and_then(|r| r.elasticity)
            .unwrap_or_else(|| panic!("no elasticity for {name}"))
    }

    #[test]
    fn springs_dominated_point_has_unit_elasticity_in_dsp() {
        // At 1024 kbps under the Fig. 3b goal the springs dictate:
        // B = L*T*rs/Dsp, so d(ln B)/d(ln Dsp) = -1 exactly.
        let model = SystemModel::paper_default(BitRate::from_kbps(1024.0));
        let rows = buffer_sensitivity(&model, &DesignGoal::fig3b(), 0.05);
        let e = elasticity_of(&rows, "spring duty cycles");
        assert!((e + 1.0).abs() < 0.02, "elasticity {e}");
        // ...and the idle power is not binding.
        let e_idle = elasticity_of(&rows, "idle power");
        assert!(e_idle.abs() < 0.05, "idle elasticity {e_idle}");
    }

    #[test]
    fn energy_dominated_point_responds_to_power_not_springs() {
        // Fig. 3a at ~700 kbps: energy dictates. More idle power makes the
        // always-on baseline worse, making the saving goal easier: the
        // buffer shrinks (negative elasticity). The springs are slack.
        let model = SystemModel::paper_default(BitRate::from_kbps(700.0));
        let rows = buffer_sensitivity(&model, &DesignGoal::fig3a(), 0.05);
        assert!(elasticity_of(&rows, "idle power") < -0.3);
        assert!(elasticity_of(&rows, "spring duty cycles").abs() < 0.05);
    }

    #[test]
    fn capacity_dominated_point_is_insensitive_to_everything_swept() {
        // At 64 kbps under Fig. 3b the capacity (a pure format property)
        // dictates; none of the swept device/workload parameters moves it.
        let model = SystemModel::paper_default(BitRate::from_kbps(64.0));
        let rows = buffer_sensitivity(&model, &DesignGoal::fig3b(), 0.05);
        for row in &rows {
            if let Some(e) = row.elasticity {
                assert!(e.abs() < 0.05, "{}: elasticity {e}", row.parameter);
            }
        }
    }

    #[test]
    fn infeasible_perturbations_are_reported_as_none() {
        // Right at the E = 80% edge, nudging the media rate down makes the
        // goal infeasible; the elasticity collapses to None (a cliff).
        let model = SystemModel::paper_default(BitRate::from_kbps(1120.0));
        let rows = buffer_sensitivity(&model, &DesignGoal::fig3a(), 0.10);
        let rate_row = rows.iter().find(|r| r.parameter == "media rate").unwrap();
        assert!(rate_row.elasticity.is_none(), "{rate_row:?}");
    }

    #[test]
    #[should_panic(expected = "relative step")]
    fn excessive_step_panics() {
        let model = SystemModel::paper_default(BitRate::from_kbps(1024.0));
        let _ = buffer_sensitivity(&model, &DesignGoal::fig3b(), 0.9);
    }
}
