//! Pareto aggregation over a grid's outcomes.
//!
//! One function computes every frontier: [`non_dominated`], a
//! sort-and-sweep. The executor runs it twice. Each worker sweeps the
//! series it has just run, cache hits included ([`front`]), and assembly
//! sweeps the union of those series fronts once more
//! ([`resolve_frontier`]). Before its sweep, a series drops each feasible
//! point that its last kept point [strictly dominates](strictly_dominates),
//! which leaves the front as it is. Both sweeps see the same points
//! whatever the thread count, so the frontier and its counters do too.

use std::cmp::Reverse;

use crate::eval::{CellOutcome, PlannedPoint};
use crate::spec::{GridCell, ScenarioGrid};

/// One point of the Pareto frontier: a feasible scenario no other feasible
/// scenario strictly improves on in all three paper metrics at once.
///
/// Only constructed by the frontier extraction (the private `objectives`
/// field keeps the "saving is measurable" invariant enforceable rather
/// than merely documented).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// The cell.
    pub cell: GridCell,
    /// Its planned metrics.
    pub point: PlannedPoint,
    objectives: [f64; 3],
}

impl ParetoPoint {
    /// The maximised objective vector:
    /// `(energy saving, capacity utilisation, lifetime years)`.
    #[must_use]
    pub fn objectives(&self) -> [f64; 3] {
        self.objectives
    }
}

/// Indices of the non-dominated entries of `points` (maximising every
/// coordinate), in input order. Duplicate objective vectors are all kept:
/// equal points do not dominate each other. A point with a NaN coordinate
/// neither dominates nor is dominated, so it is always kept.
///
/// A sort-and-sweep in O(n log n) comparisons (Kung, Luccio & Preparata,
/// "On finding the maxima of a set of vectors", J. ACM 22(4), 1975): in
/// descending (x, y, z) order every dominator precedes the points it
/// dominates, so a point is dominated exactly when an earlier, different
/// point covers it in (y, z). The sweep keeps the (y, z) maxima seen so
/// far as a staircase (y ascending, z strictly descending) and asks one
/// binary search per run of equal points.
#[must_use]
pub fn non_dominated(points: &[[f64; 3]]) -> Vec<usize> {
    sweep(points.iter().copied())
}

/// [`non_dominated`] of the points `points` yields, keyed as they come.
fn sweep(points: impl ExactSizeIterator<Item = [f64; 3]>) -> Vec<usize> {
    let mut survivors = Vec::new();
    let mut keyed: Vec<([u64; 3], usize)> = Vec::with_capacity(points.len());
    for (i, point) in points.enumerate() {
        if point.iter().any(|v| v.is_nan()) {
            survivors.push(i);
        } else {
            keyed.push((point.map(order_key), i));
        }
    }
    keyed.sort_unstable_by_key(|&(key, _)| Reverse(key));
    let mut stairs: Vec<(u64, u64)> = Vec::new();
    for run in keyed.chunk_by(|a, b| a.0 == b.0) {
        let [_, y, z] = run[0].0;
        // The first step with y at least this run's has the largest z
        // among them: it alone decides whether the run is covered.
        let above = stairs.partition_point(|&(step_y, _)| step_y < y);
        if stairs.get(above).is_some_and(|&(_, step_z)| step_z >= z) {
            continue;
        }
        // Evict the steps the run covers: the tail of those below it
        // whose z is at most its own, and a step level with it in y.
        let start = stairs[..above].partition_point(|&(_, step_z)| step_z > z);
        let end = above + usize::from(stairs.get(above).is_some_and(|&(step_y, _)| step_y == y));
        stairs.splice(start..end, [(y, z)]);
        survivors.extend(run.iter().map(|&(_, i)| i));
    }
    survivors.sort_unstable();
    survivors
}

/// An integer key ordered like the non-NaN `f64` it encodes, with `-0.0`
/// folded onto `0.0` (the two compare equal).
fn order_key(value: f64) -> u64 {
    let bits = (value + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Whether `a` strictly dominates `b`: at least as large in every
/// coordinate and larger in one. Equal points do not dominate each other,
/// and a point with a NaN coordinate neither dominates nor is dominated,
/// as in [`non_dominated`].
pub(crate) fn strictly_dominates(a: &[f64; 3], b: &[f64; 3]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y) && a.iter().zip(b).any(|(x, y)| x > y)
}

/// A feasible cell that may be on the frontier: its canonical index, its
/// objectives and its planned point, which the frontier keeps without
/// reading the cell's outcome again.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Candidate {
    pub(crate) index: usize,
    pub(crate) objectives: [f64; 3],
    pub(crate) point: PlannedPoint,
}

impl Candidate {
    /// The candidate that cell `index` makes with `outcome`: none unless
    /// the outcome is feasible and measurable on the energy axis.
    pub(crate) fn of(index: usize, outcome: &CellOutcome) -> Option<Self> {
        let point = outcome.planned()?;
        Some(Candidate {
            index,
            objectives: point.objectives()?,
            point: point.clone(),
        })
    }
}

/// The non-dominated members of `candidates`, in their input order.
#[must_use]
pub(crate) fn front(candidates: &[Candidate]) -> Vec<Candidate> {
    sweep(candidates.iter().map(|candidate| candidate.objectives))
        .into_iter()
        .map(|k| candidates[k].clone())
        .collect()
}

/// Sweeps the `candidates` once more and makes the survivors the
/// frontier of `grid`, sorted by cell index — the canonical report order.
///
/// The candidates are every series' front. A point its series dropped is
/// dominated by a survivor of that series (dominance is transitive and a
/// series is finite), so this second sweep gives the frontier of the
/// whole grid.
#[must_use]
pub(crate) fn resolve_frontier(grid: &ScenarioGrid, candidates: &[Candidate]) -> Vec<ParetoPoint> {
    let mut survivors = front(candidates);
    survivors.sort_unstable_by_key(|candidate| candidate.index);
    survivors
        .into_iter()
        .map(|candidate| ParetoPoint {
            cell: grid.cell(candidate.index),
            point: candidate.point,
            objectives: candidate.objectives,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_dominated_drops_strictly_worse_points() {
        let pts = vec![[1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [2.0, 0.1, 0.1]];
        assert_eq!(non_dominated(&pts), vec![0, 2]);
    }

    #[test]
    fn equal_points_are_mutually_kept() {
        let pts = vec![[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]];
        assert_eq!(non_dominated(&pts), vec![0, 1]);
    }

    #[test]
    fn single_point_is_the_frontier() {
        assert_eq!(non_dominated(&[[0.0, 0.0, 0.0]]), vec![0]);
    }

    #[test]
    fn frontier_of_empty_input_is_empty() {
        assert!(non_dominated(&[]).is_empty());
    }
}
