//! Deterministic text reports for refinement runs.
//!
//! Everything stdout-bound is independent of thread count *and* of cache
//! temperature: two runs of the same refinement — cold then warm — print
//! byte-identical reports. Cache accounting (which legitimately differs
//! between those runs) renders separately via [`cache_rounds`] and
//! [`cache_total_line`], for the harness to send to stderr.

use std::fmt::Write as _;

use memstream_core::to_csv;
use memstream_grid::report::{frontier_chart, frontier_csv};

use crate::engine::{RefinementOutcome, RefinementReport};

/// The knee table: one row per localised transition, fixed-width.
#[must_use]
pub fn knee_table(report: &RefinementReport) -> String {
    let mut out = String::new();
    if report.knees.is_empty() {
        let _ = writeln!(out, "no region-label transitions detected");
        return out;
    }
    let _ = writeln!(
        out,
        "{:<16} {:<10} {:<40} {:>10} {:>22} {:>8}",
        "device", "workload", "goal", "knee", "interval [kbps]", "width"
    );
    for knee in &report.knees {
        let _ = writeln!(
            out,
            "{:<16} {:<10} {:<40} {:>10} {:>22} {:>7.3}%",
            knee.device_name,
            knee.workload_name,
            knee.goal_label,
            format!("{}->{}", knee.from, knee.to),
            format!(
                "{:.3}..{:.3}",
                knee.lower.kilobits_per_second(),
                knee.upper.kilobits_per_second()
            ),
            knee.relative_width() * 100.0,
        );
    }
    out
}

/// The knees as CSV, one row per transition.
#[must_use]
pub fn knees_csv(report: &RefinementReport) -> String {
    let rows: Vec<Vec<String>> = report
        .knees
        .iter()
        .map(|k| {
            vec![
                k.device_name.clone(),
                k.workload_name.clone(),
                k.goal_label.clone(),
                k.from.to_owned(),
                k.to.to_owned(),
                format!("{:.3}", k.lower.kilobits_per_second()),
                format!("{:.3}", k.upper.kilobits_per_second()),
                format!("{:.4}", k.relative_width() * 100.0),
                if k.is_localized(report.width_bound) {
                    "yes".to_owned()
                } else {
                    "no".to_owned()
                },
            ]
        })
        .collect();
    to_csv(
        &[
            "device",
            "workload",
            "goal",
            "from",
            "to",
            "lower_kbps",
            "upper_kbps",
            "width_pct",
            "localized",
        ],
        &rows,
    )
}

/// The refinement trajectory, one deterministic line per round (no cache
/// counts — those go through [`cache_rounds`]).
#[must_use]
pub fn rounds_summary(report: &RefinementReport) -> String {
    let mut out = String::new();
    for round in &report.rounds {
        if round.round == 1 {
            let _ = writeln!(
                out,
                "round 1: {} rates, {} transitions",
                round.rates, round.transitions
            );
        } else {
            let _ = writeln!(
                out,
                "round {}: +{} rates -> {}, {} transitions",
                round.round,
                round.appended.len(),
                round.rates,
                round.transitions
            );
        }
    }
    out
}

/// The exact stdout of `harness refine`: summary, trajectory, knee table,
/// knees CSV, then the refined frontier as ASCII chart + CSV. One shared
/// composer, so the binary and the byte-identity tests cannot drift.
#[must_use]
pub fn refine_stdout(outcome: &RefinementOutcome) -> String {
    let report = &outcome.report;
    let grid = outcome.results.grid();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== R1: adaptive frontier-knee refinement (explore -> scan -> bisect) =="
    );
    let _ = writeln!(
        out,
        "grid: {} devices x {} workloads x {} goals; rate axis {} -> {} samples",
        grid.devices().len(),
        grid.workloads().len(),
        grid.goals().len(),
        report.initial_rates,
        report.final_rates,
    );
    let localized = report
        .knees
        .iter()
        .filter(|k| k.is_localized(report.width_bound))
        .count();
    let _ = writeln!(
        out,
        "width bound: {:.3}% relative; rounds: {}; knees: {} ({} localized, {} wider than bound)",
        report.width_bound * 100.0,
        report.rounds.len(),
        report.knees.len(),
        localized,
        report.knees.len() - localized,
    );
    out.push_str(&rounds_summary(report));
    let _ = writeln!(out);
    let _ = writeln!(out, "knee table:");
    out.push_str(&knee_table(report));
    let _ = writeln!(out, "knees csv:\n{}", knees_csv(report));
    out.push_str(&frontier_chart(&outcome.results));
    let _ = writeln!(
        out,
        "refined pareto frontier csv:\n{}",
        frontier_csv(&outcome.results)
    );
    out
}

/// Cache accounting, one line per round — with [`cache_total_line`], the
/// part of a refinement run that *should* differ between cold and warm
/// runs, kept off stdout so the determinism contract stays byte-exact.
#[must_use]
pub fn cache_rounds(report: &RefinementReport) -> String {
    let mut out = String::new();
    for round in &report.rounds {
        let _ = writeln!(
            out,
            "round {}: {} unique cells, {} hits, {} misses",
            round.round, round.cells, round.hits, round.misses
        );
    }
    out
}

/// The total line that follows [`cache_rounds`], rendered from explicit
/// counts.
/// The harness feeds the `refine.hits`/`refine.misses` telemetry counters
/// through here, so the stderr accounting line and a `--stats-json`
/// snapshot are two views of one tally and cannot drift.
#[must_use]
pub fn cache_total_line(hits: u64, misses: u64) -> String {
    format!("refine cache: {hits} hits, {misses} misses\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RefineConfig, RefinementEngine};
    use memstream_grid::{GridExecutor, ScenarioGrid};

    fn outcome() -> RefinementOutcome {
        RefinementEngine::new(
            GridExecutor::serial(),
            RefineConfig::default()
                .with_width_bound(0.2)
                .with_max_rounds(3),
        )
        .refine(&ScenarioGrid::paper_baseline(8), None)
        .expect("refine")
    }

    #[test]
    fn stdout_has_the_stable_sections() {
        let text = refine_stdout(&outcome());
        assert!(text.starts_with("== R1: adaptive frontier-knee refinement"));
        assert!(text.contains("knee table:"));
        assert!(text.contains("knees csv:\ndevice,workload,goal,from,to,"));
        assert!(text.contains("refined pareto frontier csv:"));
        assert!(!text.contains("hits"), "cache counts must stay off stdout");
    }

    #[test]
    fn knee_csv_has_one_row_per_knee() {
        let o = outcome();
        assert_eq!(
            knees_csv(&o.report).lines().count(),
            1 + o.report.knees.len()
        );
    }

    #[test]
    fn cache_accounting_covers_every_round_plus_total() {
        let o = outcome();
        let hits = o.report.rounds.iter().map(|r| r.hits as u64).sum::<u64>();
        let misses = o.report.total_misses() as u64;
        let text = cache_rounds(&o.report) + &cache_total_line(hits, misses);
        assert_eq!(text.lines().count(), o.report.rounds.len() + 1);
        assert!(text.ends_with(&format!("refine cache: {hits} hits, {misses} misses\n")));
    }
}
