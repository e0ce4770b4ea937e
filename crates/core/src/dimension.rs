//! The buffer-dimensioning question of §IV-C: goal in, buffer out.

use std::fmt;

use memstream_units::DataSize;

use crate::capacity::CapacityModel;
use crate::energy::EnergyModel;
use crate::error::ModelError;
use crate::goal::{DesignGoal, Requirement};
use crate::lifetime::{LifetimeModel, WearDemands};

/// The answer to "what buffer does this design goal need?": the minimal
/// buffer, the per-requirement minimums behind it, and which requirement
/// *dictates* (the region labels of Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct BufferPlan {
    goal: DesignGoal,
    buffer: DataSize,
    dominant: Requirement,
    requirements: Vec<(Requirement, DataSize)>,
    cycle_floor: DataSize,
}

impl BufferPlan {
    /// The minimal buffer satisfying every requirement of the goal.
    #[must_use]
    pub fn buffer(&self) -> DataSize {
        self.buffer
    }

    /// The requirement that dictated the buffer (the largest minimum).
    #[must_use]
    pub fn dominant(&self) -> Requirement {
        self.dominant
    }

    /// The goal this plan answers.
    #[must_use]
    pub fn goal(&self) -> &DesignGoal {
        &self.goal
    }

    /// The per-requirement minimal buffers that were combined.
    #[must_use]
    pub fn requirements(&self) -> &[(Requirement, DataSize)] {
        &self.requirements
    }

    /// The minimal buffer a single requirement demands, if it was part of
    /// the goal.
    #[must_use]
    pub fn requirement_buffer(&self, requirement: Requirement) -> Option<DataSize> {
        self.requirements
            .iter()
            .find(|(r, _)| *r == requirement)
            .map(|(_, b)| *b)
    }

    /// The structural floor below which no refill cycle completes at all
    /// (seek + shutdown + best-effort must fit in the period). The planned
    /// buffer is never below this.
    #[must_use]
    pub fn cycle_floor(&self) -> DataSize {
        self.cycle_floor
    }
}

impl fmt::Display for BufferPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "goal {} needs {} (dictated by {})",
            self.goal, self.buffer, self.dominant
        )
    }
}

/// Combines the three models and answers design questions — the paper's
/// "inverse functions ... to map from design requirements to a design
/// decision: buffer size".
///
/// ```
/// use memstream_core::{DesignGoal, SystemModel};
/// use memstream_units::BitRate;
///
/// # fn main() -> Result<(), memstream_core::ModelError> {
/// let model = SystemModel::paper_default(BitRate::from_kbps(256.0));
/// let plan = model.dimension(&DesignGoal::fig3b())?;
/// // At low rates capacity dictates (the "C" region of Fig. 3b).
/// assert_eq!(plan.dominant(), memstream_core::Requirement::Capacity);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BufferDimensioner<'a> {
    energy: EnergyModel<'a>,
    capacity: CapacityModel,
    lifetime: LifetimeModel<'a>,
}

impl<'a> BufferDimensioner<'a> {
    /// Creates a dimensioner from the three component models.
    pub fn new(
        energy: EnergyModel<'a>,
        capacity: CapacityModel,
        lifetime: LifetimeModel<'a>,
    ) -> Self {
        BufferDimensioner {
            energy,
            capacity,
            lifetime,
        }
    }

    /// The energy component.
    #[must_use]
    pub fn energy(&self) -> &EnergyModel<'a> {
        &self.energy
    }

    /// The capacity component.
    #[must_use]
    pub fn capacity(&self) -> &CapacityModel {
        &self.capacity
    }

    /// The lifetime component.
    #[must_use]
    pub fn lifetime(&self) -> &LifetimeModel<'a> {
        &self.lifetime
    }

    /// Answers the design question for `goal`: the minimal buffer and the
    /// dictating requirement, or a statement of infeasibility.
    ///
    /// This is [`BufferDimensioner::capacity_minimum`] followed by
    /// [`BufferDimensioner::plan`].
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyGoal`] if the goal constrains nothing.
    /// * [`ModelError::InfeasibleGoal`] if any requirement is unreachable
    ///   at this stream rate (the error names the requirement).
    /// * [`ModelError::RateExceedsBandwidth`] if the stream rate itself is
    ///   unsustainable.
    pub fn dimension(&self, goal: &DesignGoal) -> Result<BufferPlan, ModelError> {
        self.plan(goal, &self.capacity_minimum(goal))
    }

    /// The rate-independent half of [`BufferDimensioner::dimension`]: the
    /// smallest buffer reaching the goal's capacity target, or `None` when
    /// the goal sets none. Only the capacity model enters it, so a sweep
    /// over stream rates can solve it once and hand the result to
    /// [`BufferDimensioner::plan`] at every rate.
    ///
    /// # Errors
    ///
    /// [`ModelError::InfeasibleGoal`] if no buffer reaches the target.
    pub fn capacity_minimum(&self, goal: &DesignGoal) -> Result<Option<DataSize>, ModelError> {
        goal.capacity_target()
            .map(|c| self.capacity.min_buffer_for_utilization(c))
            .transpose()
    }

    /// The per-rate half of [`BufferDimensioner::dimension`]: plans `goal`
    /// given `capacity`, which must be [`BufferDimensioner::capacity_minimum`]
    /// of the same goal on a dimensioner with the same capacity model. The
    /// result is reused as is, so a capacity error surfaces exactly where
    /// `dimension` reports it: after the empty-goal check, before the
    /// energy, wear and cycle-floor checks.
    ///
    /// # Errors
    ///
    /// As for [`BufferDimensioner::dimension`].
    pub fn plan(
        &self,
        goal: &DesignGoal,
        capacity: &Result<Option<DataSize>, ModelError>,
    ) -> Result<BufferPlan, ModelError> {
        let mut requirements = Vec::new();
        let (buffer, dominant, cycle_floor) =
            self.walk(goal, capacity, None, |requirement, buffer| {
                requirements.push((requirement, buffer));
            })?;
        Ok(BufferPlan {
            goal: *goal,
            buffer,
            dominant,
            requirements,
            cycle_floor,
        })
    }

    /// [`BufferDimensioner::plan`]'s buffer and dominant requirement, with
    /// no [`BufferPlan`] and so no heap allocation. A goal with a lifetime
    /// target plans on `wear`, that target's
    /// [`LifetimeModel::demands`] at this dimensioner's rate, which every
    /// goal with the same target can share; with `None` they are measured
    /// here, as `plan` does.
    ///
    /// # Errors
    ///
    /// As for [`BufferDimensioner::plan`].
    ///
    /// # Panics
    ///
    /// Panics if `wear` was measured for another lifetime target than the
    /// goal's.
    pub fn plan_buffer(
        &self,
        goal: &DesignGoal,
        capacity: &Result<Option<DataSize>, ModelError>,
        wear: Option<&WearDemands>,
    ) -> Result<(DataSize, Requirement), ModelError> {
        self.walk(goal, capacity, wear, |_, _| {})
            .map(|(buffer, dominant, _)| (buffer, dominant))
    }

    /// The one plan behind [`BufferDimensioner::plan`] and
    /// [`BufferDimensioner::plan_buffer`]. It checks the goal's
    /// requirements in order (capacity, energy, then each binding wear
    /// channel in device order), hands each minimum to `visit` and keeps
    /// the largest as it goes, a later one winning a tie as
    /// [`Iterator::max_by`] does. Then it raises the buffer to the cycle
    /// floor and walks it up the utilisation sawtooth. Returns the buffer,
    /// the dominant requirement and the cycle floor.
    fn walk(
        &self,
        goal: &DesignGoal,
        capacity: &Result<Option<DataSize>, ModelError>,
        wear: Option<&WearDemands>,
        mut visit: impl FnMut(Requirement, DataSize),
    ) -> Result<(DataSize, Requirement, DataSize), ModelError> {
        if goal.is_empty() {
            return Err(ModelError::EmptyGoal);
        }

        let mut largest: Option<(Requirement, DataSize)> = None;
        let mut take = |requirement: Requirement, buffer: DataSize| {
            visit(requirement, buffer);
            largest = match largest {
                Some(kept) if kept.1.partial_cmp(&buffer).expect("finite buffers").is_gt() => {
                    Some(kept)
                }
                _ => Some((requirement, buffer)),
            };
        };

        if let Some(b) = capacity.clone()? {
            take(Requirement::Capacity, b);
        }
        if let Some(e) = goal.energy_saving_target() {
            take(Requirement::Energy, self.energy.min_buffer_for_saving(e)?);
        }
        // One entry per wear channel that binds: springs then probes for
        // the MEMS pair, a single erase budget for flash.
        let measured;
        let wear = match (goal.lifetime_target(), wear) {
            (None, _) => None,
            (Some(l), Some(wear)) => {
                assert!(
                    wear.target().get().to_bits() == l.get().to_bits(),
                    "wear demands of {} planning a goal of {l}",
                    wear.target()
                );
                Some(wear)
            }
            (Some(l), None) => {
                measured = self.lifetime.demands(l);
                Some(&measured)
            }
        };
        if let Some(wear) = wear {
            for &(requirement, buffer) in &wear.buffers {
                take(requirement, buffer);
            }
            if let Some(err) = &wear.failure {
                return Err(err.clone());
            }
        }

        let (dominant, largest) = largest.unwrap_or_else(|| {
            // The goal constrains only wear channels that never bind under
            // this workload (e.g. a lifetime goal over a read-only stream
            // on a write-wear device): any cycle-capable buffer satisfies
            // it, and no requirement meaningfully dictates. Label with the
            // device's own first wear channel so reports never claim a
            // mechanism the device does not have (a springless flash part
            // must not read "Lsp").
            let requirement = self
                .lifetime
                .channels()
                .first()
                .map_or(Requirement::SpringsLifetime, |c| {
                    LifetimeModel::channel_requirement(c)
                });
            (requirement, DataSize::ZERO)
        });

        let cycle_floor = self.energy.cycle_floor()?;
        let mut buffer = largest.max(cycle_floor);

        // Utilisation is a sawtooth of the buffer size: a buffer enlarged
        // by the springs or energy requirement can dip back below a
        // utilisation target (capacity goal or probes-implied). Bump to the
        // next sawtooth-valid size. The target's own minimum is one of the
        // requirements above, so the buffer already covers it and the bump
        // walks on from there without solving it again.
        let mut required_u = goal.capacity_target();
        if let Some(wear) = wear {
            if let Some(u) = wear.probes.clone()? {
                required_u = Some(required_u.map_or(u, |c| c.max(u)));
            }
        }
        if let Some(u) = required_u {
            buffer = self
                .capacity
                .min_buffer_for_utilization_at_least(u, buffer)?;
        }

        Ok((buffer, dominant, cycle_floor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::BestEffortPolicy;
    use memstream_device::MemsDevice;
    use memstream_units::{BitRate, Ratio, Years};
    use memstream_workload::Workload;

    fn dimensioner(device: &MemsDevice, kbps: f64) -> BufferDimensioner<'_> {
        let workload = Workload::paper_default(BitRate::from_kbps(kbps));
        BufferDimensioner::new(
            EnergyModel::new(device, workload, BestEffortPolicy::AtReadWrite, None),
            CapacityModel::paper_default(),
            LifetimeModel::new(device, workload, CapacityModel::paper_default()),
        )
    }

    #[test]
    fn empty_goal_is_an_error() {
        let d = MemsDevice::table1();
        let dim = dimensioner(&d, 1024.0);
        assert_eq!(
            dim.dimension(&DesignGoal::new()).unwrap_err(),
            ModelError::EmptyGoal
        );
    }

    #[test]
    fn plan_meets_every_requirement() {
        let d = MemsDevice::table1();
        let dim = dimensioner(&d, 1024.0);
        let goal = DesignGoal::fig3b();
        let plan = dim.dimension(&goal).unwrap();
        let b = plan.buffer();
        assert!(dim.capacity().utilization(b) >= Ratio::from_percent(88.0));
        assert!(dim.energy().saving(b).unwrap() >= 0.70);
        assert!(dim.lifetime().device_lifetime(b).get() >= 7.0 - 1e-9);
    }

    #[test]
    fn dominant_is_the_largest_requirement() {
        let d = MemsDevice::table1();
        let dim = dimensioner(&d, 1024.0);
        let plan = dim.dimension(&DesignGoal::fig3b()).unwrap();
        for (_, b) in plan.requirements() {
            assert!(*b <= plan.buffer());
        }
        assert_eq!(
            plan.requirement_buffer(plan.dominant()).unwrap().bits(),
            plan.requirements()
                .iter()
                .map(|(_, b)| b.bits())
                .fold(0.0, f64::max)
        );
    }

    #[test]
    fn fig3a_goal_infeasible_at_high_rate() {
        // (E = 80%, ...) fails above ~1.3 Mbps: the "X" region of Fig. 3a.
        let d = MemsDevice::table1();
        let dim = dimensioner(&d, 2048.0);
        let err = dim.dimension(&DesignGoal::fig3a()).unwrap_err();
        match err {
            ModelError::InfeasibleGoal { requirement, .. } => {
                assert_eq!(requirement, Requirement::Energy);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn fig3b_goal_feasible_where_fig3a_is_not() {
        // Dropping E from 80% to 70% extends the feasible range — the
        // paper's "trading off 10% of the optimal energy saving".
        let d = MemsDevice::table1();
        let dim = dimensioner(&d, 2048.0);
        assert!(dim.dimension(&DesignGoal::fig3b()).is_ok());
    }

    #[test]
    fn springs_dominate_mid_range_under_fig3b() {
        // Fig. 3b: capacity, then springs lifetime dominate. At 1024 kbps
        // with Dsp = 1e8 the springs demand ~92 KiB > capacity's ~30 KiB.
        let d = MemsDevice::table1();
        let dim = dimensioner(&d, 1024.0);
        let plan = dim.dimension(&DesignGoal::fig3b()).unwrap();
        assert_eq!(plan.dominant(), Requirement::SpringsLifetime);
    }

    #[test]
    fn capacity_dominates_at_low_rate() {
        // Fig. 3a/3b: "the capacity dominates for up to 300 kbps".
        let d = MemsDevice::table1();
        let dim = dimensioner(&d, 64.0);
        let plan = dim.dimension(&DesignGoal::fig3b()).unwrap();
        assert_eq!(plan.dominant(), Requirement::Capacity);
    }

    #[test]
    fn lifetime_only_goal_has_no_capacity_entry() {
        let d = MemsDevice::table1();
        let dim = dimensioner(&d, 1024.0);
        let plan = dim
            .dimension(&DesignGoal::new().lifetime(Years::new(4.0)))
            .unwrap();
        assert!(plan.requirement_buffer(Requirement::Capacity).is_none());
        assert!(plan
            .requirement_buffer(Requirement::SpringsLifetime)
            .is_some());
    }

    #[test]
    fn cycle_floor_is_enforced() {
        // A trivially small capacity goal would permit a sub-cycle buffer;
        // the plan clamps to the structural floor.
        let d = MemsDevice::table1();
        let dim = dimensioner(&d, 1024.0);
        let plan = dim
            .dimension(&DesignGoal::new().capacity_utilization(Ratio::from_percent(1.0)))
            .unwrap();
        assert!(plan.buffer() >= plan.cycle_floor());
    }

    #[test]
    fn plan_display_names_goal_and_dominant() {
        let d = MemsDevice::table1();
        let dim = dimensioner(&d, 1024.0);
        let plan = dim.dimension(&DesignGoal::fig3b()).unwrap();
        let text = plan.to_string();
        assert!(text.contains("dictated by"));
        assert!(text.contains("70.0%"));
    }
}
