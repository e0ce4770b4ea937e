//! Pareto aggregation over a grid's outcomes.

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

/// Returns `true` if `a` dominates `b`: at least as good in every
/// objective (maximisation) and strictly better in at least one.
#[must_use]
fn dominates(a: &[f64; 3], b: &[f64; 3]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y) && a.iter().zip(b).any(|(x, y)| x > y)
}

/// Indices of the non-dominated entries of `points` (maximising every
/// coordinate), in input order. Duplicate objective vectors are all kept:
/// equal points do not dominate each other.
#[must_use]
pub fn non_dominated(points: &[[f64; 3]]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| !points.iter().any(|other| dominates(other, &points[i])))
        .collect()
}

/// An incrementally maintained Pareto frontier (maximising every
/// coordinate): points are offered one at a time as results stream out
/// of the evaluator, dominated offers are rejected on the spot, and
/// accepted offers evict any incumbents they dominate. The surviving
/// set equals the batch [`non_dominated`] scan of the same points —
/// domination is transitive, so an evicted incumbent can never shield a
/// third point — and no candidate buffer is ever materialised.
///
/// An offer is first tested against the incumbent that rejected the
/// previous rejected offer: neighbouring cells of one series tend to share
/// a dominator, so most rejections cost one check instead of a scan of
/// the frontier. Any dominator rejects, so which one is found changes
/// neither the survivors nor the counts.
///
/// Insertion order does not affect the surviving set. The canonical
/// report order is restored by [`FrontierBuilder::finish`], which sorts
/// by the caller's index (the canonical cell index) — this is what keeps
/// stdout byte-identical across thread and shard counts.
#[derive(Debug, Clone, Default)]
pub struct FrontierBuilder {
    points: Vec<(usize, [f64; 3])>,
    /// Position in `points` of the last incumbent found dominating an
    /// offer. An eviction can shift it onto another point or past the
    /// end; that costs at most one wasted check, never a wrong verdict.
    last_dominator: usize,
    inserts: u64,
    evictions: u64,
    dominance_checks: u64,
}

impl FrontierBuilder {
    /// An empty frontier.
    #[must_use]
    pub fn new() -> Self {
        FrontierBuilder::default()
    }

    /// Offers one point (tagged with the caller's `index`, typically a
    /// canonical cell index). Returns whether it joined the frontier.
    pub fn insert(&mut self, index: usize, objectives: [f64; 3]) -> bool {
        if let Some((_, held)) = self.points.get(self.last_dominator) {
            self.dominance_checks += 1;
            if dominates(held, &objectives) {
                return false;
            }
        }
        if let Some(position) = self
            .points
            .iter()
            .position(|(_, held)| dominates(held, &objectives))
        {
            self.dominance_checks += position as u64 + 1;
            self.last_dominator = position;
            return false;
        }
        let before = self.points.len();
        self.points
            .retain(|(_, held)| !dominates(&objectives, held));
        self.dominance_checks += 2 * before as u64;
        self.evictions += (before - self.points.len()) as u64;
        self.points.push((index, objectives));
        self.inserts += 1;
        true
    }

    /// Offers an outcome: only feasible, fully modelled points with a
    /// measurable saving carry objectives; everything else is a no-op.
    pub fn insert_outcome(&mut self, index: usize, outcome: &CellOutcome) -> bool {
        match outcome.planned().and_then(PlannedPoint::objectives) {
            Some(objectives) => self.insert(index, objectives),
            None => false,
        }
    }

    /// Current frontier size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no offer has survived.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Offers that joined the frontier (including later-evicted ones).
    #[must_use]
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Incumbents evicted by later, dominating offers.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Dominance tests made so far, in both directions.
    pub(crate) fn dominance_checks(&self) -> u64 {
        self.dominance_checks
    }

    /// The surviving `(index, objectives)` pairs, sorted ascending by
    /// index — the canonical order.
    #[must_use]
    pub fn finish(mut self) -> Vec<(usize, [f64; 3])> {
        self.points.sort_unstable_by_key(|&(index, _)| index);
        self.points
    }
}

/// Resolves a streamed frontier against the finished outcomes (one per
/// cell of `grid`, in canonical order): the builder tagged each survivor
/// with its cell index, so this only clones the frontier-sized slice of
/// planned points — never the full outcome list.
#[must_use]
pub(crate) fn resolve_frontier(
    grid: &ScenarioGrid,
    outcomes: &[CellOutcome],
    builder: FrontierBuilder,
) -> Vec<ParetoPoint> {
    builder
        .finish()
        .into_iter()
        .filter_map(|(index, objectives)| {
            let point = outcomes[index].planned()?;
            Some(ParetoPoint {
                cell: grid.cell(index),
                point: point.clone(),
                objectives,
            })
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

    /// The builder's surviving set must equal the batch scan, in index
    /// order, for any insertion order.
    fn assert_builder_matches_batch(points: &[[f64; 3]]) {
        let mut builder = FrontierBuilder::new();
        for (i, &p) in points.iter().enumerate() {
            builder.insert(i, p);
        }
        let survivors: Vec<usize> = builder.finish().into_iter().map(|(i, _)| i).collect();
        assert_eq!(survivors, non_dominated(points));
    }

    #[test]
    fn incremental_frontier_matches_batch_scan() {
        assert_builder_matches_batch(&[[1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [2.0, 0.1, 0.1]]);
        // Reversed: the dominating point arrives last and must evict.
        assert_builder_matches_batch(&[[0.5, 0.5, 0.5], [2.0, 0.1, 0.1], [1.0, 1.0, 1.0]]);
        // Equal points are mutually kept.
        assert_builder_matches_batch(&[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]);
        assert_builder_matches_batch(&[]);
    }

    #[test]
    fn builder_counts_inserts_and_evictions() {
        let mut builder = FrontierBuilder::new();
        assert!(builder.insert(0, [0.5, 0.5, 0.5]));
        assert!(builder.insert(1, [0.4, 0.9, 0.5]));
        // Dominates both incumbents: two evictions, one insert.
        assert!(builder.insert(2, [1.0, 1.0, 1.0]));
        // Dominated offer: rejected, no counter movement.
        assert!(!builder.insert(3, [0.9, 0.9, 0.9]));
        assert_eq!(builder.inserts(), 3);
        assert_eq!(builder.evictions(), 2);
        assert_eq!(builder.len(), 1);
        // Checks so far: none for the first offer, 1 + 2 for the second
        // (last-dominator slot, then scan and eviction pass over one
        // incumbent), 1 + 4 for the third, 1 for the rejected fourth.
        assert_eq!(builder.dominance_checks(), 9);

        assert!(builder.insert(4, [2.0, 0.0, 0.0]));
        assert_eq!(builder.dominance_checks(), 12);
        // The scan finds the dominator in position 1 after 2 checks...
        assert!(!builder.insert(5, [1.5, 0.0, 0.0]));
        assert_eq!(builder.dominance_checks(), 15);
        // ...and the run it dominates costs one check per offer.
        for (index, x) in [(6, 1.4), (7, 1.3), (8, 1.2)] {
            assert!(!builder.insert(index, [x, 0.0, 0.0]));
        }
        assert_eq!(builder.dominance_checks(), 18);
        // An offer the last dominator does not cover is still scanned.
        assert!(!builder.insert(9, [0.5, 0.5, 0.5]));
        assert_eq!(builder.dominance_checks(), 20);
        assert_eq!((builder.inserts(), builder.evictions()), (4, 2));
    }
}
