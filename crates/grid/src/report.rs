//! Deterministic text reports: CSV dumps and ASCII charts.
//!
//! Every function here formats with fixed precision and iterates in
//! canonical cell order, so report bytes are independent of thread count —
//! the property the `grid` harness subcommand and the integration tests
//! assert. The grid CSVs write their fixed-precision numbers with
//! [`write_fixed`], an exact integer formatter whose bytes are those of
//! `{:.N}`; the summary's outcome counts are the ones the series counted
//! as they wrote the outcomes.

use std::fmt::Write as _;

use memstream_core::{
    csv_field, render_ascii_chart, to_csv, write_fixed, AsciiChart, Axis, Series,
};

use crate::eval::{CellOutcome, OutcomeCounts};
use crate::exec::GridResults;
use crate::spec::{GridCell, ScenarioGrid};
use crate::validate::ValidationRow;

const GOAL_GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

/// The CSV fields of a grid's device, workload and goal names, each
/// formatted and escaped once however many rows repeat it.
struct AxisLabels {
    devices: Vec<String>,
    workloads: Vec<String>,
    goals: Vec<String>,
}

impl AxisLabels {
    fn of(grid: &ScenarioGrid) -> Self {
        let field = |name: &str| csv_field(name).into_owned();
        AxisLabels {
            devices: grid.devices().iter().map(|d| field(d.name())).collect(),
            workloads: grid.workloads().iter().map(|w| field(w.name())).collect(),
            goals: grid.goals().iter().map(|g| field(&g.to_string())).collect(),
        }
    }

    /// Writes the `device,workload,rate_kbps,goal` fields of `cell`.
    fn write(&self, out: &mut String, grid: &ScenarioGrid, cell: &GridCell) {
        out.push_str(&self.devices[cell.device]);
        out.push(',');
        out.push_str(&self.workloads[cell.workload]);
        out.push(',');
        write_fixed(out, grid.rates()[cell.rate].kilobits_per_second(), 3);
        out.push(',');
        out.push_str(&self.goals[cell.goal]);
    }
}

/// Writes `value` with `decimals` decimals, or `-` when there is none.
fn write_or_dash(out: &mut String, value: Option<f64>, decimals: usize) {
    match value {
        Some(value) => write_fixed(out, value, decimals),
        None => out.push('-'),
    }
}

/// The Pareto frontier as CSV, one row per frontier point.
#[must_use]
pub fn frontier_csv(results: &GridResults) -> String {
    let mut out = String::new();
    write_frontier_csv(&mut out, results);
    out
}

/// Appends [`frontier_csv`] to `out`.
fn write_frontier_csv(out: &mut String, results: &GridResults) {
    let grid = results.grid();
    let labels = AxisLabels::of(grid);
    let frontier = results.pareto_frontier();
    out.reserve(128 * (frontier.len() + 1));
    out.push_str(
        "device,workload,rate_kbps,goal,buffer_kib,dominant,saving_pct,\
         utilization_pct,lifetime_years,energy_nj_per_bit\n",
    );
    for p in frontier {
        labels.write(out, grid, &p.cell);
        out.push(',');
        write_fixed(out, p.point.buffer.kibibytes(), 3);
        out.push(',');
        out.push_str(&csv_field(p.point.dominant));
        for value in [
            p.objectives()[0] * 100.0,
            p.point.utilization.percent(),
            p.point.lifetime.get(),
        ] {
            out.push(',');
            write_fixed(out, value, 2);
        }
        out.push(',');
        write_or_dash(
            out,
            p.point.energy_per_bit.map(|e| e.nanojoules_per_bit()),
            3,
        );
        out.push('\n');
    }
}

/// Every cell of the grid as CSV (feasible, infeasible and disk cells).
#[must_use]
pub fn cells_csv(results: &GridResults) -> String {
    let mut out = String::new();
    write_cells_csv(&mut out, results);
    out
}

/// Appends [`cells_csv`] to `out`.
fn write_cells_csv(out: &mut String, results: &GridResults) {
    let grid = results.grid();
    let labels = AxisLabels::of(grid);
    out.reserve(128 * (results.total_cells() + 1));
    out.push_str(
        "cell,device,workload,rate_kbps,goal,region,buffer_kib,saving_pct,\
         utilization_pct,lifetime_years,note\n",
    );
    let mut note = String::new();
    for (cell, outcome) in results.records() {
        let _ = write!(out, "{},", cell.index);
        labels.write(out, grid, &cell);
        let _ = write!(out, ",{},", csv_field(outcome.region()));
        note.clear();
        match outcome {
            CellOutcome::Feasible(p) => {
                write_fixed(out, p.buffer.kibibytes(), 3);
                out.push(',');
                write_or_dash(out, p.saving.map(|s| s * 100.0), 2);
                out.push(',');
                write_fixed(out, p.utilization.percent(), 2);
                out.push(',');
                write_fixed(out, p.lifetime.get(), 2);
                out.push(',');
            }
            CellOutcome::Infeasible(err) | CellOutcome::Unmodelled(err) => {
                out.push_str("-,-,-,-,");
                let _ = write!(note, "{err}");
            }
            CellOutcome::EnergyOnly(p) => {
                write_or_dash(out, p.buffer_for_saving.map(|b| b.kibibytes()), 3);
                out.push(',');
                write_or_dash(out, p.saving.map(|s| s * 100.0), 2);
                out.push_str(",-,-,");
                if let Some(b) = p.break_even {
                    note.push_str("break-even ");
                    write_fixed(&mut note, b.kibibytes(), 3);
                    note.push_str(" KiB");
                }
            }
        }
        out.push_str(&csv_field(&note));
        out.push('\n');
    }
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
    let OutcomeCounts {
        feasible,
        infeasible,
        energy_only: disk,
        unmodelled,
    } = results.outcome_counts();
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
    out.push_str("pareto frontier csv:\n");
    write_frontier_csv(&mut out, results);
    out.push('\n');
    if full_csv {
        out.push_str("all cells csv:\n");
        write_cells_csv(&mut out, results);
        out.push('\n');
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

    /// Splits RFC 4180 text into records of fields: a quoted field may
    /// hold commas, newlines and doubled quotes.
    fn parse_csv(text: &str) -> Vec<Vec<String>> {
        let (mut records, mut record, mut field) = (Vec::new(), Vec::new(), String::new());
        let mut quoted = false;
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            match (quoted, c) {
                (true, '"') if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                (true, '"') => quoted = false,
                (false, '"') => quoted = true,
                (false, ',') => record.push(std::mem::take(&mut field)),
                (false, '\n') => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                (_, c) => field.push(c),
            }
        }
        assert!(
            !quoted && record.is_empty() && field.is_empty(),
            "unterminated record"
        );
        records
    }

    #[test]
    fn hostile_axis_names_survive_both_csvs() {
        use crate::spec::{DeviceEntry, WorkloadProfile};
        use memstream_core::DesignGoal;
        use memstream_device::MemsDevice;
        use memstream_units::BitRate;
        use memstream_workload::Workload;

        let devices = ["a,b", "say \"hi\""];
        let workload = "two\nlines";
        let grid = ScenarioGrid::new()
            .device(DeviceEntry::new(devices[0], MemsDevice::table1()))
            .device(DeviceEntry::new(
                devices[1],
                MemsDevice::table1()
                    .with_probe_write_cycles(200.0)
                    .with_spring_duty_cycles(1e12),
            ))
            .workload(WorkloadProfile::new(
                workload,
                Workload::paper_default(BitRate::from_kbps(1024.0)),
            ))
            .rate_span(32.0, 4096.0, 6)
            .goal(DesignGoal::fig3a())
            .goal(DesignGoal::fig3b());
        let r = GridExecutor::serial().explore(&grid).unwrap();
        assert!(!r.pareto_frontier().is_empty());
        // (text, rows expected, index of the device field)
        for (csv, rows, device) in [
            (frontier_csv(&r), r.pareto_frontier().len(), 0),
            (cells_csv(&r), r.total_cells(), 1),
        ] {
            let records = parse_csv(&csv);
            assert_eq!(records.len(), 1 + rows, "{csv}");
            let width = records[0].len();
            assert_eq!(records[0][device], "device");
            for record in &records[1..] {
                assert_eq!(record.len(), width, "{record:?}");
                assert!(devices.contains(&record[device].as_str()), "{record:?}");
                assert_eq!(record[device + 1], workload);
            }
        }
        let cells = parse_csv(&cells_csv(&r));
        for name in devices {
            assert!(cells.iter().any(|record| record[1] == name), "{name}");
        }
    }

    #[test]
    fn summary_counts_add_up() {
        let r = results();
        let text = summary(&r);
        assert!(text.contains(&format!("= {} cells", r.total_cells())));
        assert!(text.contains("pareto frontier:"));
    }
}
