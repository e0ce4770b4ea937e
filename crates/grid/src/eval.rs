//! Pure per-cell evaluation: one scenario in, one outcome out.
//!
//! Everything here is deterministic and side-effect free; that purity is
//! what lets the executor fan cells out across threads and still promise
//! byte-identical results.

use memstream_core::{CapabilityModel, EnergyModel, ModelError};
use memstream_device::DramModel;
use memstream_units::{DataSize, EnergyPerBit, Ratio, Years};

use crate::spec::{GridCell, ScenarioGrid};

/// The metrics of a feasible, fully modelled (MEMS) cell at its planned
/// buffer size.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedPoint {
    /// The minimal buffer satisfying the goal.
    pub buffer: DataSize,
    /// The Fig. 3 region label of the dictating requirement.
    pub dominant: &'static str,
    /// Energy saving versus always-on at the planned buffer, when the
    /// refill cycle (and therefore the energy model) exists there.
    pub saving: Option<f64>,
    /// Capacity utilisation at the planned buffer.
    pub utilization: Ratio,
    /// Device lifetime (min of springs and probes) at the planned buffer.
    pub lifetime: Years,
    /// `Em(B)` at the planned buffer, when the cycle exists.
    pub energy_per_bit: Option<EnergyPerBit>,
}

impl PlannedPoint {
    /// The maximised objective vector `(energy saving, capacity
    /// utilisation, lifetime years)`, or `None` when the saving is not
    /// measurable at the planned buffer (no refill cycle) — such points
    /// have no coordinate on the energy axis and stay off the frontier.
    #[must_use]
    pub fn objectives(&self) -> Option<[f64; 3]> {
        self.saving
            .map(|s| [s, self.utilization.fraction(), self.lifetime.get()])
    }
}

/// The metrics of a disk cell, which only the energy model covers.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyOnlyPoint {
    /// The break-even buffer of §III-A.1, if the rate is sustainable.
    pub break_even: Option<DataSize>,
    /// The minimal buffer for the goal's energy-saving target, if that
    /// target is set and reachable.
    pub buffer_for_saving: Option<DataSize>,
    /// Saving at `buffer_for_saving`.
    pub saving: Option<f64>,
}

/// What evaluating one cell produced.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// A feasible full-model plan.
    Feasible(PlannedPoint),
    /// The goal is infeasible at this cell's rate: the model error names
    /// the failing requirement and the values that rule it out.
    Infeasible(ModelError),
    /// An energy-only cell: the device exposes no wear/utilisation
    /// capabilities (the 1.8″ disk), so only the energy model speaks.
    EnergyOnly(EnergyOnlyPoint),
    /// The device exposes no capability the grid can evaluate at all: the
    /// error names the missing or malformed capability.
    Unmodelled(ModelError),
}

impl CellOutcome {
    /// The planned point, when the cell is feasible and fully modelled.
    #[must_use]
    pub fn planned(&self) -> Option<&PlannedPoint> {
        match self {
            CellOutcome::Feasible(p) => Some(p),
            _ => None,
        }
    }

    /// The region label reported in tables: the dominant requirement,
    /// `"X"` for infeasible cells, `"disk"` for energy-only cells (the
    /// historical label of the only energy-only device family), or `"-"`
    /// for unmodelled cells.
    #[must_use]
    pub fn region(&self) -> &'static str {
        match self {
            CellOutcome::Feasible(p) => p.dominant,
            CellOutcome::Infeasible(_) => "X",
            CellOutcome::EnergyOnly(_) => "disk",
            CellOutcome::Unmodelled(_) => "-",
        }
    }
}

/// How many outcomes of each kind an exploration produced. Each series
/// counts the outcomes it writes, cache hits included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// [`CellOutcome::Feasible`] cells.
    pub feasible: usize,
    /// [`CellOutcome::Infeasible`] cells.
    pub infeasible: usize,
    /// [`CellOutcome::EnergyOnly`] cells.
    pub energy_only: usize,
    /// [`CellOutcome::Unmodelled`] cells.
    pub unmodelled: usize,
}

impl OutcomeCounts {
    /// Counts `outcome` under its kind.
    pub(crate) fn tally(&mut self, outcome: &CellOutcome) {
        *match outcome {
            CellOutcome::Feasible(_) => &mut self.feasible,
            CellOutcome::Infeasible(_) => &mut self.infeasible,
            CellOutcome::EnergyOnly(_) => &mut self.energy_only,
            CellOutcome::Unmodelled(_) => &mut self.unmodelled,
        } += 1;
    }
}

impl std::ops::AddAssign for OutcomeCounts {
    fn add_assign(&mut self, other: Self) {
        self.feasible += other.feasible;
        self.infeasible += other.infeasible;
        self.energy_only += other.energy_only;
        self.unmodelled += other.unmodelled;
    }
}

/// Evaluates one cell of `grid`, dispatching on the capabilities the
/// cell's device exposes. Pure: equal inputs give equal outputs.
///
/// This is the *reference* evaluator: the executor's hot path runs the
/// series-batched [`crate::series::evaluate_series`], whose equivalence
/// tests pin it to this function bit for bit. The model stack here (and
/// the DRAM model) is rebuilt per cell — correct, simple, slow.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn evaluate(grid: &ScenarioGrid, cell: &GridCell) -> CellOutcome {
    let rate = grid.rates()[cell.rate];
    let goal = &grid.goals()[cell.goal];
    let workload = grid.workloads()[cell.workload].workload().with_rate(rate);
    let device = grid.devices()[cell.device].device();

    // Full pipeline when the device carries energy + wear + utilisation.
    let dram = grid.dram_enabled().then(DramModel::micron_ddr_mobile);
    match CapabilityModel::new(device, workload, dram, grid.best_effort_policy()) {
        Ok(model) => match model.dimension(goal) {
            Ok(plan) => {
                let b = plan.buffer();
                CellOutcome::Feasible(PlannedPoint {
                    buffer: b,
                    dominant: plan.dominant().label(),
                    saving: model.saving(b).ok(),
                    utilization: model.utilization(b),
                    lifetime: model.device_lifetime(b),
                    energy_per_bit: model.per_bit_energy(b).ok(),
                })
            }
            Err(err) => CellOutcome::Infeasible(err),
        },
        // Devices that genuinely lack full-pipeline capabilities fall back
        // to the energy-only path; a device that *claims* the capabilities
        // but reports a malformed payload is a misconfiguration and must
        // stay visible, not masquerade as an intentional energy-only disk.
        Err(err @ ModelError::MissingCapability { .. }) => match device.energy() {
            Some(energy_device) => {
                let energy =
                    EnergyModel::new(energy_device, workload, grid.best_effort_policy(), None);
                let buffer_for_saving = goal
                    .energy_saving_target()
                    .and_then(|e| energy.min_buffer_for_saving(e).ok());
                CellOutcome::EnergyOnly(EnergyOnlyPoint {
                    break_even: energy.break_even_buffer().ok(),
                    buffer_for_saving,
                    saving: buffer_for_saving.and_then(|b| energy.saving(b).ok()),
                })
            }
            None => CellOutcome::Unmodelled(err),
        },
        Err(invalid) => CellOutcome::Unmodelled(invalid),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioGrid;

    #[test]
    fn evaluation_is_reproducible() {
        let grid = ScenarioGrid::paper_baseline(6);
        for cell in grid.cells() {
            assert_eq!(evaluate(&grid, &cell), evaluate(&grid, &cell));
        }
    }

    #[test]
    fn invalid_capability_payloads_surface_as_unmodelled() {
        // A device that *claims* the full pipeline but reports a malformed
        // utilisation spec must not be silently demoted to the energy-only
        // path (it would be indistinguishable from an intentional disk).
        use crate::spec::DeviceEntry;
        use memstream_core::DesignGoal;
        use memstream_device::{
            EnergyModelled, FlashDevice, StorageDevice, UtilizationSpec, WearModelled,
        };

        #[derive(Debug, Clone)]
        struct BrokenFlash(FlashDevice);
        impl StorageDevice for BrokenFlash {
            fn kind(&self) -> &'static str {
                "broken-flash"
            }
            fn dedup_token(&self) -> String {
                "broken-flash".to_owned()
            }
            fn capacity(&self) -> memstream_units::DataSize {
                StorageDevice::capacity(&self.0)
            }
            fn energy(&self) -> Option<&dyn EnergyModelled> {
                Some(&self.0)
            }
            fn wear(&self) -> Option<&dyn WearModelled> {
                Some(&self.0)
            }
            fn utilization(&self) -> Option<UtilizationSpec> {
                Some(UtilizationSpec::Constant { fraction: 2.0 })
            }
            fn clone_box(&self) -> Box<dyn StorageDevice> {
                Box::new(self.clone())
            }
        }

        let grid = ScenarioGrid::new()
            .device(DeviceEntry::new(
                "broken",
                BrokenFlash(FlashDevice::mobile_mlc()),
            ))
            .workload(crate::spec::WorkloadProfile::paper())
            .rate_span(256.0, 1024.0, 2)
            .goal(DesignGoal::fig3b());
        for cell in grid.cells() {
            match evaluate(&grid, &cell) {
                CellOutcome::Unmodelled(err) => {
                    assert!(
                        matches!(
                            err,
                            ModelError::InvalidCapability {
                                capability: "utilization",
                                ..
                            }
                        ),
                        "error: {err}"
                    );
                }
                other => panic!("misconfigured device was not surfaced: {other:?}"),
            }
        }
    }

    #[test]
    fn classic_disk_cells_are_energy_only() {
        // The paper-era grid keeps the disk in its §III-A.1 break-even
        // role behind the `EnergyOnly` mask.
        let grid = ScenarioGrid::paper_classic(4);
        let disk_idx = grid
            .devices()
            .iter()
            .position(|d| d.device().kind() == "disk")
            .expect("classic grid has a disk");
        let cell = grid
            .cells()
            .find(|c| c.device == disk_idx)
            .expect("disk cell exists");
        assert!(matches!(evaluate(&grid, &cell), CellOutcome::EnergyOnly(_)));
    }

    #[test]
    fn baseline_disk_cells_run_the_full_pipeline() {
        // With the start-stop duty-cycle channel and the fixed LBA-format
        // utilisation, default-grid disk cells evaluate the full (E, C, L)
        // pipeline instead of dropping to energy-only evaluation. Under
        // the paper's 70-80% saving goals the verdict is an *attributed
        // infeasibility* — the drive's standby/idle ratio caps its saving
        // near 50% — not a capability gap.
        let grid = ScenarioGrid::paper_baseline(6);
        let disk_idx = grid
            .devices()
            .iter()
            .position(|d| d.device().kind() == "disk")
            .expect("baseline has a disk");
        for cell in grid.cells().filter(|c| c.device == disk_idx) {
            match evaluate(&grid, &cell) {
                CellOutcome::Infeasible(err) => {
                    assert!(err.to_string().contains("energy saving"), "error: {err}");
                }
                other => panic!("disk cell fell off the full pipeline: {other:?}"),
            }
        }
    }

    #[test]
    fn disk_cells_plan_start_stop_dominated_buffers_under_reachable_goals() {
        use crate::spec::DeviceEntry;
        use memstream_core::DesignGoal;
        use memstream_device::DiskDevice;
        use memstream_units::{Ratio, Years};

        // At a saving target the drive can reach, the planned buffer is
        // dictated by the 1e5 start-stop rating: the same Eq. (5) law as
        // the MEMS springs, three orders of magnitude up in buffer size.
        let goal = DesignGoal::new()
            .energy_saving(Ratio::from_percent(40.0))
            .capacity_utilization(Ratio::from_percent(88.0))
            .lifetime(Years::new(7.0));
        let grid = ScenarioGrid::new()
            .device(DeviceEntry::new("disk", DiskDevice::calibrated_1p8_inch()))
            .workload(crate::spec::WorkloadProfile::paper())
            .rate_span(128.0, 2048.0, 4)
            .goal(goal);
        let mut feasible = 0;
        for cell in grid.cells() {
            match evaluate(&grid, &cell) {
                CellOutcome::Feasible(p) => {
                    feasible += 1;
                    assert_eq!(p.dominant, "Lsp", "start-stop wear dictates");
                    assert_eq!(p.utilization.fraction(), 0.95);
                    assert!(p.lifetime.get() >= 7.0 - 1e-6);
                    // MiB-scale buffers, not the MEMS KiB scale.
                    assert!(p.buffer.kibibytes() > 1024.0);
                }
                other => panic!("disk cell not planned: {other:?}"),
            }
        }
        assert_eq!(feasible, 4);
    }

    #[test]
    fn flash_cells_run_the_full_pipeline() {
        let grid = ScenarioGrid::paper_baseline(4);
        let flash_idx = grid
            .devices()
            .iter()
            .position(|d| d.device().kind() == "flash")
            .expect("baseline has flash");
        let mut feasible = 0;
        for cell in grid.cells().filter(|c| c.device == flash_idx) {
            match evaluate(&grid, &cell) {
                CellOutcome::Feasible(p) => {
                    feasible += 1;
                    assert!(p.saving.is_some(), "flash plans have measurable savings");
                }
                CellOutcome::Infeasible(_) => {}
                other => panic!("flash cell fell off the full pipeline: {other:?}"),
            }
        }
        assert!(feasible > 0, "some flash cells are feasible");
    }

    #[test]
    fn feasible_cells_meet_their_goal() {
        let grid = ScenarioGrid::paper_baseline(8);
        let mut feasible = 0;
        for cell in grid.cells() {
            if let CellOutcome::Feasible(p) = evaluate(&grid, &cell) {
                let goal = &grid.goals()[cell.goal];
                if let Some(e) = goal.energy_saving_target() {
                    assert!(p.saving.expect("energy goal implies a cycle") + 1e-9 >= e.fraction());
                }
                if let Some(c) = goal.capacity_target() {
                    assert!(p.utilization.fraction() + 1e-9 >= c.fraction());
                }
                if let Some(l) = goal.lifetime_target() {
                    assert!(p.lifetime.get() + 1e-6 >= l.get());
                }
                feasible += 1;
            }
        }
        assert!(feasible > 0, "baseline grid has feasible cells");
    }
}
