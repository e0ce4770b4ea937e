//! Experiment generators for every table and figure of the paper.
//!
//! Each function here regenerates one artefact of the evaluation section —
//! the `harness` binary prints them, the Criterion benches time them, and
//! the unit tests pin their shapes. The experiment ids (T1, N1, F2a, ...)
//! follow the index in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod render;

pub use experiments::{
    ablation_best_effort, ablation_probe_ratings, breakeven_rows, comparison_rows, fig2_rows,
    fig3_rows, format_rows, sim_crosscheck_rows, table1_rows, AblationRow, BreakEvenRow,
    ComparisonRow, Fig2Row, Fig3Row, SimCheckRow,
};
pub use render::{render_fig2, render_fig3, rows_to_csv};
