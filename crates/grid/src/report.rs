//! Deterministic text reports: CSV dumps and ASCII charts.
//!
//! Every function here formats with fixed precision and iterates in
//! canonical cell order, so report bytes are independent of thread count —
//! the property the `grid` harness subcommand and the integration tests
//! assert.

use std::fmt::Write as _;

use memstream_core::{render_ascii_chart, to_csv, AsciiChart, Axis, Series};

use crate::eval::CellOutcome;
use crate::exec::GridResults;
use crate::spec::GridCell;
use crate::validate::ValidationRow;

const GOAL_GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

fn cell_labels(results: &GridResults, cell: &GridCell) -> (String, String, f64, String) {
    let grid = results.grid();
    (
        grid.devices()[cell.device].name().to_owned(),
        grid.workloads()[cell.workload].name().to_owned(),
        grid.rates()[cell.rate].kilobits_per_second(),
        grid.goals()[cell.goal].to_string(),
    )
}

/// The Pareto frontier as CSV, one row per frontier point.
#[must_use]
pub fn frontier_csv(results: &GridResults) -> String {
    let rows: Vec<Vec<String>> = results
        .pareto_frontier()
        .iter()
        .map(|p| {
            let (device, workload, kbps, goal) = cell_labels(results, &p.cell);
            vec![
                device,
                workload,
                format!("{kbps:.3}"),
                goal,
                format!("{:.3}", p.point.buffer.kibibytes()),
                p.point.dominant.to_owned(),
                format!("{:.2}", p.objectives()[0] * 100.0),
                format!("{:.2}", p.point.utilization.percent()),
                format!("{:.2}", p.point.lifetime.get()),
                p.point.energy_per_bit.map_or_else(
                    || "-".to_owned(),
                    |e| format!("{:.3}", e.nanojoules_per_bit()),
                ),
            ]
        })
        .collect();
    to_csv(
        &[
            "device",
            "workload",
            "rate_kbps",
            "goal",
            "buffer_kib",
            "dominant",
            "saving_pct",
            "utilization_pct",
            "lifetime_years",
            "energy_nj_per_bit",
        ],
        &rows,
    )
}

/// Every cell of the grid as CSV (feasible, infeasible and disk cells).
#[must_use]
pub fn cells_csv(results: &GridResults) -> String {
    let rows: Vec<Vec<String>> = results
        .records()
        .map(|(cell, outcome)| {
            let (device, workload, kbps, goal) = cell_labels(results, &cell);
            let (buffer, saving, util, life, note) = match outcome {
                CellOutcome::Feasible(p) => (
                    format!("{:.3}", p.buffer.kibibytes()),
                    p.saving
                        .map_or_else(|| "-".to_owned(), |s| format!("{:.2}", s * 100.0)),
                    format!("{:.2}", p.utilization.percent()),
                    format!("{:.2}", p.lifetime.get()),
                    String::new(),
                ),
                CellOutcome::Infeasible(err) | CellOutcome::Unmodelled(err) => (
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    err.to_string(),
                ),
                CellOutcome::EnergyOnly(p) => (
                    p.buffer_for_saving
                        .map_or_else(|| "-".to_owned(), |b| format!("{:.3}", b.kibibytes())),
                    p.saving
                        .map_or_else(|| "-".to_owned(), |s| format!("{:.2}", s * 100.0)),
                    "-".into(),
                    "-".into(),
                    p.break_even.map_or_else(String::new, |b| {
                        format!("break-even {:.3} KiB", b.kibibytes())
                    }),
                ),
            };
            vec![
                cell.index.to_string(),
                device,
                workload,
                format!("{kbps:.3}"),
                goal,
                outcome.region().to_owned(),
                buffer,
                saving,
                util,
                life,
                note,
            ]
        })
        .collect();
    to_csv(
        &[
            "cell",
            "device",
            "workload",
            "rate_kbps",
            "goal",
            "region",
            "buffer_kib",
            "saving_pct",
            "utilization_pct",
            "lifetime_years",
            "note",
        ],
        &rows,
    )
}

/// The frontier as an ASCII chart: buffer (log x) against energy saving,
/// one series per goal.
#[must_use]
pub fn frontier_chart(results: &GridResults) -> String {
    let frontier = results.pareto_frontier();
    let goals = results.grid().goals();
    let series: Vec<Series> = goals
        .iter()
        .enumerate()
        .map(|(gi, goal)| {
            let points: Vec<(f64, f64)> = frontier
                .iter()
                .filter(|p| p.cell.goal == gi)
                .map(|p| (p.point.buffer.kibibytes(), p.objectives()[0] * 100.0))
                .collect();
            Series::new(
                goal.to_string(),
                GOAL_GLYPHS[gi % GOAL_GLYPHS.len()],
                points,
            )
        })
        .collect();
    render_ascii_chart(&AsciiChart::new(
        "Pareto frontier: energy saving vs planned buffer",
        Axis::log("Buffer [KiB]"),
        Axis::linear("Energy saving [%]"),
        series,
    ))
}

/// Deterministic exploration summary (no timings, no thread counts).
#[must_use]
pub fn summary(results: &GridResults) -> String {
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    let mut disk = 0usize;
    let mut unmodelled = 0usize;
    for (_, outcome) in results.records() {
        match outcome {
            CellOutcome::Feasible(_) => feasible += 1,
            CellOutcome::Infeasible(_) => infeasible += 1,
            CellOutcome::EnergyOnly(_) => disk += 1,
            CellOutcome::Unmodelled(_) => unmodelled += 1,
        }
    }
    let grid = results.grid();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "grid: {} devices x {} workloads x {} rates x {} goals = {} cells",
        grid.devices().len(),
        grid.workloads().len(),
        grid.rates().len(),
        grid.goals().len(),
        results.total_cells(),
    );
    // Exploration rejects repeated axis entries, so every cell is unique
    // and none is deduplicated; the line keeps its historical bytes.
    let _ = writeln!(
        out,
        "evaluated: {} unique cells (0 deduplicated)",
        results.total_cells(),
    );
    // The unmodelled count appears only when nonzero, keeping historical
    // summaries byte-stable.
    let _ = write!(
        out,
        "outcomes: {feasible} feasible, {infeasible} infeasible, {disk} disk (energy-only)",
    );
    if unmodelled > 0 {
        let _ = write!(out, ", {unmodelled} unmodelled");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "pareto frontier: {} points",
        results.pareto_frontier().len()
    );
    out
}

/// The exact stdout of `harness grid` for an exploration: summary, chart
/// and frontier CSV (plus the all-cells CSV when `full_csv`). One shared
/// composer keeps the binary and the byte-identity golden test from ever
/// drifting apart.
#[must_use]
pub fn grid_stdout(results: &GridResults, full_csv: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== G1: scenario grid (devices x workloads x rates x goals) =="
    );
    out.push_str(&summary(results));
    let _ = writeln!(out);
    out.push_str(&frontier_chart(results));
    let _ = writeln!(out, "pareto frontier csv:\n{}", frontier_csv(results));
    if full_csv {
        let _ = writeln!(out, "all cells csv:\n{}", cells_csv(results));
    }
    out
}

/// Validation rows as CSV.
#[must_use]
pub fn validation_csv(rows: &[ValidationRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cell.index.to_string(),
                format!("{:.3}", r.rate_kbps),
                format!("{:.3}", r.buffer_kib),
                format!("{:.4}", r.model_nj),
                format!("{:.4}", r.sim_nj),
                format!("{:.5}", r.rel_err),
            ]
        })
        .collect();
    to_csv(
        &[
            "cell",
            "rate_kbps",
            "buffer_kib",
            "model_nj_per_bit",
            "sim_nj_per_bit",
            "rel_err",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::GridExecutor;
    use crate::spec::ScenarioGrid;

    fn results() -> GridResults {
        GridExecutor::serial()
            .explore(&ScenarioGrid::paper_baseline(5))
            .unwrap()
    }

    #[test]
    fn csv_headers_are_stable() {
        let r = results();
        assert!(frontier_csv(&r).starts_with("device,workload,rate_kbps,goal,"));
        assert!(cells_csv(&r).starts_with("cell,device,workload,rate_kbps,goal,region,"));
    }

    #[test]
    fn cells_csv_has_one_row_per_cell() {
        let r = results();
        assert_eq!(cells_csv(&r).lines().count(), 1 + r.total_cells());
    }

    #[test]
    fn chart_names_both_goals() {
        let text = frontier_chart(&results());
        assert!(text.contains("E = 80.0%"));
        assert!(text.contains("E = 70.0%"));
    }

    #[test]
    fn summary_counts_add_up() {
        let r = results();
        let text = summary(&r);
        assert!(text.contains(&format!("= {} cells", r.total_cells())));
        assert!(text.contains("pareto frontier:"));
    }
}
