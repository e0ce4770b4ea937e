//! Registry-refactor golden: the capability-dispatched grid must emit
//! **byte-identical** `harness grid` stdout for the paper's mems+disk
//! grid, compared against fixtures captured from the pre-refactor binary
//! (`DeviceVariant` enum dispatch, commit f4ebefd).
//!
//! The fixtures under `tests/golden/` are the verbatim stdout of
//!
//! ```text
//! harness grid --rates 24                 -> grid_mems_disk_r24.stdout
//! harness grid --rates 24 --full-csv      -> grid_mems_disk_r24_full.stdout
//! ```
//!
//! run before the refactor (when the default grid *was* the mems+disk
//! grid, today's `ScenarioGrid::paper_classic`). `report::grid_stdout` is
//! the exact composer the harness binary prints through, so this test
//! covers the binary's bytes without spawning it.
//!
//! `grid_default_r24_full.stdout` is the verbatim stdout of `harness grid
//! --rates 24 --full-csv` for the default grid (MEMS, the full disk and
//! flash), captured from commit 5afe0a0, before the analytic models read
//! a device's energy numbers once instead of calling it per rate.

use memstream_grid::{report, GridExecutor, ScenarioGrid};

const GOLDEN_PLAIN: &str = include_str!("golden/grid_mems_disk_r24.stdout");
const GOLDEN_FULL: &str = include_str!("golden/grid_mems_disk_r24_full.stdout");
const GOLDEN_DEFAULT_FULL: &str = include_str!("golden/grid_default_r24_full.stdout");

fn first_divergence(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: got `{la}`, golden `{lb}`", i + 1);
        }
    }
    format!(
        "line counts differ: got {}, golden {}",
        a.lines().count(),
        b.lines().count()
    )
}

#[test]
fn classic_grid_stdout_is_byte_identical_to_pre_refactor() {
    let grid = ScenarioGrid::paper_classic(24);
    let results = GridExecutor::parallel(4).explore(&grid).expect("explore");
    let stdout = report::grid_stdout(&results, false);
    assert!(
        stdout == GOLDEN_PLAIN,
        "registry refactor changed grid stdout — {}",
        first_divergence(&stdout, GOLDEN_PLAIN)
    );
}

#[test]
fn classic_grid_full_csv_is_byte_identical_to_pre_refactor() {
    // The full CSV additionally pins every per-cell region label and
    // infeasibility *error string* (e.g. the probes-ceiling message), so
    // numeric or wording drift anywhere in the generic model shows up
    // here.
    let grid = ScenarioGrid::paper_classic(24);
    let results = GridExecutor::serial().explore(&grid).expect("explore");
    let stdout = report::grid_stdout(&results, true);
    assert!(
        stdout == GOLDEN_FULL,
        "registry refactor changed full-csv stdout — {}",
        first_divergence(&stdout, GOLDEN_FULL)
    );
}

#[test]
fn warm_cache_reproduces_the_golden_bytes() {
    // Cold run fills the cache; warm run reads every cell from it. Both
    // must print the pre-refactor bytes.
    let grid = ScenarioGrid::paper_classic(24);
    let mut cache = memstream_grid::ResultCache::new();
    let cold = GridExecutor::parallel(2)
        .explore_cached(&grid, &mut cache)
        .expect("cold explore");
    assert_eq!(cache.misses(), cold.total_cells());
    assert!(report::grid_stdout(&cold, false) == GOLDEN_PLAIN);

    let warm = GridExecutor::parallel(8)
        .explore_cached(&grid, &mut cache)
        .expect("warm explore");
    assert_eq!(cache.hits(), warm.total_cells());
    assert!(report::grid_stdout(&warm, false) == GOLDEN_PLAIN);
}

#[test]
fn default_grid_full_csv_is_byte_identical_to_the_fixture() {
    let grid = ScenarioGrid::paper_baseline(24);
    for executor in [GridExecutor::serial(), GridExecutor::parallel(4)] {
        let results = executor.explore(&grid).expect("explore");
        let stdout = report::grid_stdout(&results, true);
        assert!(
            stdout == GOLDEN_DEFAULT_FULL,
            "default-grid full-csv stdout changed — {}",
            first_divergence(&stdout, GOLDEN_DEFAULT_FULL)
        );
    }
}
