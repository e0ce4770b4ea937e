//! Property tests for the Pareto-frontier extraction.

use memstream_grid::non_dominated;
use proptest::prelude::*;

fn dominates(a: &[f64; 3], b: &[f64; 3]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y) && a.iter().zip(b).any(|(x, y)| x > y)
}

/// The O(n²) reference: every point tested against every other.
fn reference_scan(points: &[[f64; 3]]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| !points.iter().any(|other| dominates(other, &points[i])))
        .collect()
}

/// Coordinates that tie, compare equal across signs, sit at either end
/// of the order, or compare false both ways.
const TIE_VALUES: [f64; 7] = [
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    0.5,
    1.0,
    f64::INFINITY,
    f64::NAN,
];

/// The series' path: the last-kept filter drops each point that the last
/// point kept before it strictly dominates, then `non_dominated` sweeps
/// the rest. Indices into `points`.
fn front_after_last_kept_filter(points: &[[f64; 3]]) -> Vec<usize> {
    let mut kept: Vec<usize> = Vec::new();
    for (i, point) in points.iter().enumerate() {
        if !kept.last().is_some_and(|&k| dominates(&points[k], point)) {
            kept.push(i);
        }
    }
    let kept_points: Vec<[f64; 3]> = kept.iter().map(|&i| points[i]).collect();
    non_dominated(&kept_points)
        .into_iter()
        .map(|k| kept[k])
        .collect()
}

proptest! {
    #[test]
    fn the_last_kept_filter_leaves_the_front_unchanged(
        raw in prop::collection::vec((0usize..7, 0usize..7, 0usize..7, 0usize..3), 0..61)
    ) {
        // Coordinates from the tie values (signed zeros, infinities and
        // NaN); a last field of 0 repeats the previous point exactly.
        let mut points: Vec<[f64; 3]> = Vec::new();
        for &(x, y, z, repeat) in &raw {
            let point = match points.last() {
                Some(&previous) if repeat == 0 => previous,
                _ => [TIE_VALUES[x], TIE_VALUES[y], TIE_VALUES[z]],
            };
            points.push(point);
        }
        prop_assert_eq!(front_after_last_kept_filter(&points), non_dominated(&points));
    }

    #[test]
    fn the_last_kept_filter_leaves_a_descending_front_unchanged(
        raw in prop::collection::vec((0usize..4, 0usize..4, 0usize..4, 0usize..8), 1..80)
    ) {
        // A series' objectives mostly fall as the rate rises, so the last
        // kept point often dominates the next: steps down on a coarse
        // lattice, with repeats and the odd NaN.
        let mut point = [1.0f64; 3];
        let mut points: Vec<[f64; 3]> = Vec::new();
        for &(x, y, z, kind) in &raw {
            let step = [x, y, z].map(|d| 0.25 * d as f64);
            let next = match kind {
                0 => [f64::NAN, point[1], point[2]],
                1 => point,
                2 => [point[0] + step[0], point[1], point[2] - step[2]],
                _ => [point[0] - step[0], point[1] - step[1], point[2] - step[2]],
            };
            if !next[0].is_nan() {
                point = next;
            }
            points.push(next);
        }
        prop_assert_eq!(front_after_last_kept_filter(&points), non_dominated(&points));
    }

    #[test]
    fn frontier_points_are_mutually_non_dominated(
        raw in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..20.0f64), 1..60)
    ) {
        let points: Vec<[f64; 3]> = raw.iter().map(|&(a, b, c)| [a, b, c]).collect();
        let frontier = non_dominated(&points);
        prop_assert!(!frontier.is_empty());
        for &i in &frontier {
            for &j in &frontier {
                prop_assert!(
                    !dominates(&points[i], &points[j]),
                    "frontier point {:?} dominates {:?}",
                    points[i],
                    points[j]
                );
            }
        }
    }

    #[test]
    fn dropped_points_are_dominated_by_some_frontier_point(
        raw in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..20.0f64), 1..40)
    ) {
        let points: Vec<[f64; 3]> = raw.iter().map(|&(a, b, c)| [a, b, c]).collect();
        let frontier = non_dominated(&points);
        for i in 0..points.len() {
            if !frontier.contains(&i) {
                prop_assert!(
                    frontier.iter().any(|&f| dominates(&points[f], &points[i])),
                    "dropped point {:?} is not dominated",
                    points[i]
                );
            }
        }
    }

    #[test]
    fn frontier_is_order_invariant_as_a_set(
        raw in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..20.0f64), 1..30)
    ) {
        let points: Vec<[f64; 3]> = raw.iter().map(|&(a, b, c)| [a, b, c]).collect();
        let reversed: Vec<[f64; 3]> = points.iter().rev().copied().collect();
        let mut a: Vec<[u64; 3]> = non_dominated(&points)
            .into_iter()
            .map(|i| points[i].map(f64::to_bits))
            .collect();
        let mut b: Vec<[u64; 3]> = non_dominated(&reversed)
            .into_iter()
            .map(|i| reversed[i].map(f64::to_bits))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn ties_signed_zeros_infinities_and_nan_match_the_reference_scan(
        raw in prop::collection::vec((0usize..7, 0usize..7, 0usize..7, 0usize..4), 0..61)
    ) {
        let points: Vec<[f64; 3]> = raw
            .iter()
            .map(|&(x, y, z, _)| [TIE_VALUES[x], TIE_VALUES[y], TIE_VALUES[z]])
            .collect();
        let frontier = non_dominated(&points);
        prop_assert_eq!(&frontier, &reference_scan(&points));

        // The executor's decomposition: sweep each group (a series), then
        // sweep the union of the group survivors.
        let mut survivors: Vec<usize> = Vec::new();
        for group in 0..4 {
            let members: Vec<usize> = (0..points.len()).filter(|&i| raw[i].3 == group).collect();
            let group_points: Vec<[f64; 3]> = members.iter().map(|&i| points[i]).collect();
            survivors.extend(non_dominated(&group_points).into_iter().map(|k| members[k]));
        }
        let union: Vec<[f64; 3]> = survivors.iter().map(|&i| points[i]).collect();
        let mut merged: Vec<usize> = non_dominated(&union)
            .into_iter()
            .map(|k| survivors[k])
            .collect();
        merged.sort_unstable();
        prop_assert_eq!(merged, frontier);
    }
}
