//! Design-space exploration sweeps: the data behind Fig. 2 and Fig. 3.

use memstream_units::{BitRate, DataSize, EnergyPerBit, Ratio, Years};

use crate::dimension::BufferPlan;
use crate::error::ModelError;
use crate::goal::DesignGoal;
use crate::system::SystemModel;

/// One sample of the buffer sweep (Fig. 2): every modelled property at a
/// fixed stream rate and buffer size.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferSweepPoint {
    /// The buffer size sampled.
    pub buffer: DataSize,
    /// `Em(B)`, if the buffer sustains a cycle at all.
    pub energy_per_bit: Option<EnergyPerBit>,
    /// Energy saving versus always-on, if the cycle exists.
    pub saving: Option<f64>,
    /// Capacity utilisation `u(B)`.
    pub utilization: Ratio,
    /// Effective user capacity at this utilisation.
    pub effective_capacity: DataSize,
    /// Springs lifetime (Eq. (5)).
    pub springs_lifetime: Years,
    /// Probes lifetime (Eq. (6)).
    pub probes_lifetime: Years,
}

/// One sample of the rate sweep (Fig. 3): the dimensioning answer at one
/// stream rate.
#[derive(Debug, Clone)]
pub struct RateSweepPoint {
    /// The stream rate sampled.
    pub rate: BitRate,
    /// The minimal-required-buffer answer (or the infeasibility statement —
    /// the "X" region of Fig. 3a).
    pub plan: Result<BufferPlan, ModelError>,
    /// The energy-efficiency buffer alone (the dashed curve of Fig. 3),
    /// when an energy goal is present and feasible.
    pub energy_buffer: Option<DataSize>,
}

impl RateSweepPoint {
    /// The dominant-requirement label for the region bar of Fig. 3
    /// (`"X"` when infeasible).
    #[must_use]
    pub fn region_label(&self) -> &'static str {
        match &self.plan {
            Ok(plan) => plan.dominant().label(),
            Err(_) => "X",
        }
    }
}

/// Sweep construction on top of a [`SystemModel`], the paper's MEMS
/// system.
///
/// ```
/// use memstream_core::{DesignGoal, SweepBuilder, SystemModel};
/// use memstream_units::BitRate;
///
/// let model = SystemModel::paper_default(BitRate::from_kbps(1024.0));
/// let sweep = SweepBuilder::new(&model);
/// let fig3b = sweep.rate_sweep(
///     &DesignGoal::fig3b(),
///     memstream_core::log_spaced_rates(32.0, 4096.0, 25),
/// );
/// assert_eq!(fig3b.len(), 25);
/// ```
#[derive(Debug, Clone)]
pub struct SweepBuilder<'a> {
    model: &'a SystemModel,
}

impl<'a> SweepBuilder<'a> {
    /// Creates a sweep builder over `model`.
    #[must_use]
    pub fn new(model: &'a SystemModel) -> Self {
        SweepBuilder { model }
    }

    /// Samples every modelled property over the given buffer sizes at the
    /// model's stream rate — the Fig. 2 data.
    #[must_use]
    pub fn buffer_sweep(
        &self,
        buffers: impl IntoIterator<Item = DataSize>,
    ) -> Vec<BufferSweepPoint> {
        let energy = self.model.energy_model();
        let capacity = self.model.capacity_model();
        let lifetime = self.model.lifetime_model();
        buffers
            .into_iter()
            .map(|buffer| {
                let energy_per_bit = energy.per_bit_energy(buffer).ok();
                BufferSweepPoint {
                    buffer,
                    energy_per_bit,
                    saving: energy_per_bit.map(|e| energy.saving_of(e)),
                    utilization: capacity.utilization(buffer),
                    effective_capacity: capacity.effective_capacity(buffer),
                    springs_lifetime: lifetime.springs_lifetime(buffer),
                    probes_lifetime: lifetime.probes_lifetime(buffer),
                }
            })
            .collect()
    }

    /// The Fig. 2 x-axis: 1–20× the break-even buffer, `n` points.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the break-even computation.
    pub fn break_even_multiples(&self, n: usize) -> Result<Vec<DataSize>, ModelError> {
        let be = self.model.break_even_buffer()?;
        Ok((0..n)
            .map(|i| {
                let factor = 1.0 + 19.0 * (i as f64) / ((n - 1).max(1) as f64);
                be * factor
            })
            .collect())
    }

    /// Dimensions the goal at every rate — the Fig. 3 data.
    #[must_use]
    pub fn rate_sweep(
        &self,
        goal: &DesignGoal,
        rates: impl IntoIterator<Item = BitRate>,
    ) -> Vec<RateSweepPoint> {
        rates
            .into_iter()
            .map(|rate| {
                let at_rate = self.model.with_rate(rate);
                let plan = at_rate.dimension(goal);
                let energy_buffer = goal
                    .energy_saving_target()
                    .and_then(|e| at_rate.energy_model().min_buffer_for_saving(e).ok());
                RateSweepPoint {
                    rate,
                    plan,
                    energy_buffer,
                }
            })
            .collect()
    }
}

/// A cell of the feasibility map: which requirement dictates (or fails)
/// at one (rate, saving-goal) point. Encoded as the Fig. 3 region label.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityMap {
    /// Stream rates along the x axis.
    pub rates: Vec<BitRate>,
    /// Saving targets along the y axis.
    pub savings: Vec<Ratio>,
    /// `cells[y][x]`: the dominant-requirement label at `(rates[x],
    /// savings[y])`, `"X"` if infeasible.
    pub cells: Vec<Vec<&'static str>>,
}

impl FeasibilityMap {
    /// Renders the map as rows of single-character region codes
    /// (C/E/s/p/X), one row per saving target, highest saving first.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let code = |label: &str| match label {
            "C" => 'C',
            "E" => 'E',
            "Lsp" => 's',
            "Lpb" => 'p',
            _ => 'X',
        };
        let mut out = String::new();
        for (y, saving) in self.savings.iter().enumerate().rev() {
            let _ = write!(out, "E = {:>5.1}% |", saving.percent());
            for cell in &self.cells[y] {
                out.push(code(cell));
            }
            out.push('\n');
        }
        let _ = writeln!(out, "           +{}", "-".repeat(self.rates.len()));
        let _ = writeln!(
            out,
            "            {} .. {} (log)",
            self.rates.first().expect("non-empty"),
            self.rates.last().expect("non-empty")
        );
        let _ = writeln!(
            out,
            "  C capacity, E energy, s springs, p probes, X infeasible"
        );
        out
    }
}

/// Builds the feasibility map over a (rate × saving) grid with the given
/// capacity and lifetime targets held fixed — a 2-D extension of Fig. 3's
/// 1-D region bar.
///
/// # Panics
///
/// Panics if either grid is empty.
#[must_use]
pub fn feasibility_map(
    model: &SystemModel,
    rates: Vec<BitRate>,
    savings: Vec<Ratio>,
    capacity: Ratio,
    lifetime: memstream_units::Years,
) -> FeasibilityMap {
    assert!(
        !rates.is_empty() && !savings.is_empty(),
        "grids must be non-empty"
    );
    let cells = savings
        .iter()
        .map(|&saving| {
            let goal = DesignGoal::new()
                .energy_saving(saving)
                .capacity_utilization(capacity)
                .lifetime(lifetime);
            rates
                .iter()
                .map(|&rate| match model.with_rate(rate).dimension(&goal) {
                    Ok(plan) => plan.dominant().label(),
                    Err(_) => "X",
                })
                .collect()
        })
        .collect();
    FeasibilityMap {
        rates,
        savings,
        cells,
    }
}

/// Logarithmically spaced stream rates between `min_kbps` and `max_kbps`
/// inclusive — the x-axis of Fig. 3.
///
/// # Panics
///
/// Panics if the bounds are non-positive, inverted, or `n < 2`.
#[must_use]
pub fn log_spaced_rates(min_kbps: f64, max_kbps: f64, n: usize) -> Vec<BitRate> {
    assert!(min_kbps > 0.0 && max_kbps > min_kbps, "invalid rate bounds");
    assert!(n >= 2, "need at least two samples");
    let log_min = min_kbps.ln();
    let log_max = max_kbps.ln();
    (0..n)
        .map(|i| {
            let f = i as f64 / (n - 1) as f64;
            BitRate::from_kbps((log_min + f * (log_max - log_min)).exp())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::Requirement;

    fn model() -> SystemModel {
        SystemModel::paper_default(BitRate::from_kbps(1024.0))
    }

    #[test]
    fn log_spaced_rates_hit_both_ends() {
        let rates = log_spaced_rates(32.0, 4096.0, 8);
        assert_eq!(rates.len(), 8);
        assert!((rates[0].kilobits_per_second() - 32.0).abs() < 1e-9);
        assert!((rates[7].kilobits_per_second() - 4096.0).abs() < 1e-6);
        for pair in rates.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }

    #[test]
    fn buffer_sweep_reproduces_fig2_shape() {
        let m = model();
        let sweep = SweepBuilder::new(&m);
        let buffers = sweep.break_even_multiples(20).unwrap();
        let points = sweep.buffer_sweep(buffers);
        // Energy falls monotonically over the 1-20x break-even range...
        let energies: Vec<f64> = points
            .iter()
            .filter_map(|p| p.energy_per_bit.map(|e| e.nanojoules_per_bit()))
            .collect();
        assert!(energies.len() >= 19);
        for pair in energies.windows(2) {
            assert!(pair[1] < pair[0]);
        }
        // ...while utilisation and both lifetimes rise (weakly).
        assert!(points.last().unwrap().utilization > points[0].utilization);
        assert!(points.last().unwrap().springs_lifetime.get() > points[0].springs_lifetime.get());
    }

    #[test]
    fn fig2_x_axis_tops_out_around_45_kib() {
        // 20x the ~2.3 KiB break-even at 1024 kbps is ~45 KiB, the x-range
        // of Fig. 2.
        let m = model();
        let sweep = SweepBuilder::new(&m);
        let buffers = sweep.break_even_multiples(20).unwrap();
        let top = buffers.last().unwrap().kibibytes();
        assert!((40.0..50.0).contains(&top), "got {top} KiB");
    }

    #[test]
    fn rate_sweep_shows_fig3a_regions() {
        // Fig. 3a: C at low rates, E after, X past the energy limit.
        let m = model();
        let sweep = SweepBuilder::new(&m);
        let points = sweep.rate_sweep(&DesignGoal::fig3a(), log_spaced_rates(32.0, 4096.0, 30));
        let labels: Vec<&str> = points.iter().map(RateSweepPoint::region_label).collect();
        assert_eq!(labels.first().copied(), Some("C"));
        assert!(labels.contains(&"E"));
        assert_eq!(labels.last().copied(), Some("X"));
        // Regions appear in the paper's order: C, then E, then X.
        let first_e = labels.iter().position(|l| *l == "E").unwrap();
        let first_x = labels.iter().position(|l| *l == "X").unwrap();
        let last_c = labels.iter().rposition(|l| *l == "C").unwrap();
        assert!(last_c < first_e && first_e < first_x);
    }

    #[test]
    fn rate_sweep_fig3b_has_no_energy_region() {
        // Fig. 3b: "energy has no word on buffer size for this goal".
        let m = model();
        let sweep = SweepBuilder::new(&m);
        let points = sweep.rate_sweep(&DesignGoal::fig3b(), log_spaced_rates(32.0, 1400.0, 20));
        for p in &points {
            let label = p.region_label();
            assert!(label == "C" || label == "Lsp", "unexpected region {label}");
        }
        // And the energy-efficiency buffer sits 1-2 orders of magnitude
        // below the required buffer over the region ("a difference of 1 to
        // 2 orders of magnitude", §IV-C).
        let max_ratio = points
            .iter()
            .filter_map(|p| {
                let plan = p.plan.as_ref().ok()?;
                Some(plan.buffer() / p.energy_buffer?)
            })
            .fold(0.0, f64::max);
        assert!(max_ratio > 10.0, "max required/energy ratio {max_ratio}");
        let last = points.last().unwrap();
        let ratio = last.plan.as_ref().unwrap().buffer() / last.energy_buffer.unwrap();
        assert!(ratio > 3.0, "required/energy buffer ratio {ratio}");
    }

    #[test]
    fn fig3c_device_removes_lifetime_regions() {
        // Fig. 3c: Dpb = 200, Dsp = 1e12 — only C and E remain.
        let m = model().with_device(
            memstream_device::MemsDevice::table1()
                .with_probe_write_cycles(200.0)
                .with_spring_duty_cycles(1e12),
        );
        let sweep = SweepBuilder::new(&m);
        let points = sweep.rate_sweep(&DesignGoal::fig3b(), log_spaced_rates(32.0, 4096.0, 25));
        for p in &points {
            let label = p.region_label();
            assert!(label == "C" || label == "E", "unexpected region {label}");
        }
        // Both regions are present (capacity at low rate, energy at high).
        assert!(points.iter().any(|p| p.region_label() == "E"));
        assert!(points.iter().any(|p| p.region_label() == "C"));
    }

    #[test]
    fn lower_capacity_goal_shrinks_capacity_region() {
        // §IV-C: "If the designer opts for lower capacity, say C = 85%, the
        // domination range of C decreases."
        let m = model();
        let sweep = SweepBuilder::new(&m);
        let rates = log_spaced_rates(32.0, 1200.0, 25);
        let count_c = |goal: &DesignGoal| {
            sweep
                .rate_sweep(goal, rates.clone())
                .iter()
                .filter(|p| p.region_label() == "C")
                .count()
        };
        let at_88 = count_c(&DesignGoal::fig3a());
        let at_85 = count_c(
            &DesignGoal::new()
                .energy_saving(memstream_units::Ratio::from_percent(80.0))
                .capacity_utilization(memstream_units::Ratio::from_percent(85.0))
                .lifetime(Years::new(7.0)),
        );
        assert!(at_85 < at_88, "C region: 85% -> {at_85}, 88% -> {at_88}");
    }

    #[test]
    fn feasibility_map_matches_the_region_bars() {
        let m = model();
        let rates = log_spaced_rates(32.0, 4096.0, 20);
        let savings = vec![Ratio::from_percent(70.0), Ratio::from_percent(80.0)];
        let map = feasibility_map(
            &m,
            rates.clone(),
            savings,
            Ratio::from_percent(88.0),
            Years::new(7.0),
        );
        // Row 0 (70%) must match the Fig. 3b sweep, row 1 (80%) Fig. 3a.
        let sweep = SweepBuilder::new(&m);
        let fig3b: Vec<&str> = sweep
            .rate_sweep(&DesignGoal::fig3b(), rates.clone())
            .iter()
            .map(RateSweepPoint::region_label)
            .collect();
        let fig3a: Vec<&str> = sweep
            .rate_sweep(&DesignGoal::fig3a(), rates)
            .iter()
            .map(RateSweepPoint::region_label)
            .collect();
        assert_eq!(map.cells[0], fig3b);
        assert_eq!(map.cells[1], fig3a);
    }

    #[test]
    fn feasibility_map_renders_legend_and_rows() {
        let m = model();
        let map = feasibility_map(
            &m,
            log_spaced_rates(32.0, 4096.0, 10),
            vec![Ratio::from_percent(60.0), Ratio::from_percent(80.0)],
            Ratio::from_percent(88.0),
            Years::new(7.0),
        );
        let text = map.render();
        assert!(text.contains("E =  80.0% |"));
        assert!(text.contains("X infeasible"));
        assert_eq!(text.matches('|').count(), 2);
    }

    #[test]
    fn infeasible_points_name_the_failing_requirement() {
        let m = model();
        let sweep = SweepBuilder::new(&m);
        let points = sweep.rate_sweep(&DesignGoal::fig3a(), vec![BitRate::from_kbps(4096.0)]);
        match &points[0].plan {
            Err(ModelError::InfeasibleGoal { requirement, .. }) => {
                assert_eq!(*requirement, Requirement::Energy);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }
}
