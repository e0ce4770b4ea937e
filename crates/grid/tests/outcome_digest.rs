//! Pins every outcome of the benchmark's grids, bit for bit.
//!
//! The stdout goldens stop at 24 rates and print three decimals. These
//! digests cover every cell of the grid perfbench's `grid-uncached`
//! workload explores (`paper_baseline(4000)`), of the energy-only path
//! (`paper_classic(400)`) and of the device-only model
//! (`paper_baseline(400).without_dram()`). Each cell's outcome is folded
//! as its `Debug` text, which prints every `f64` in the shortest form
//! that reads back to the same value: so a digest pins every bit of every
//! buffer, saving, utilisation, lifetime and per-bit energy, every
//! dominant label, and the limiting values inside every infeasibility
//! error. Among them are the sawtooth-bumped cell 22393 and the `Lpb`
//! band just below 2.9 Mbps.
//!
//! The constants were captured at commit 6694eb4, before the grid's
//! kernel planned each rate row once.

use std::fmt::Write as _;

use memstream_grid::{GridExecutor, ScenarioGrid};

/// FNV-1a, 64-bit.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The digest of `format!("{outcome:?}\n")` over every cell of `grid`, in
/// canonical order.
fn digest(grid: &ScenarioGrid) -> u64 {
    let results = GridExecutor::serial().explore(grid).expect("explore");
    let mut line = String::new();
    results
        .outcomes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, outcome| {
            line.clear();
            writeln!(line, "{outcome:?}").expect("write to a string");
            fnv1a(hash, line.as_bytes())
        })
}

fn assert_digest(grid: &ScenarioGrid, expected: u64) {
    let got = digest(grid);
    assert!(
        got == expected,
        "outcome digest {got:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn the_grid_uncached_workload_keeps_every_outcome() {
    let grid = ScenarioGrid::paper_baseline(4000);
    assert_eq!(grid.len(), 120_000);
    assert_digest(&grid, 0x5201_31d0_5f4c_ef38);
}

#[test]
fn the_energy_only_grid_keeps_every_outcome() {
    assert_digest(&ScenarioGrid::paper_classic(400), 0xd0cb_cab6_6f0e_ced3);
}

#[test]
fn the_dramless_grid_keeps_every_outcome() {
    assert_digest(
        &ScenarioGrid::paper_baseline(400).without_dram(),
        0x2747_3c79_bc07_864a,
    );
}
