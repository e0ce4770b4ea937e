//! The key-compatibility acceptance suite: keys the [`KeyInterner`]
//! resolves must equal the [`ScenarioGrid::dedup_key`] bytes for every
//! cell (a cache written under either warms the other), and cache files
//! must survive a load and re-save without a byte of drift.

use memstream_core::{DesignGoal, ModelError};
use memstream_device::{DiskDevice, EnergyOnly, FlashDevice, MemsDevice};
use memstream_grid::{
    CacheFormat, CellOutcome, DeviceEntry, GridExecutor, KeyInterner, ResultCache, ScenarioGrid,
    WorkloadProfile,
};

/// A per-process temp path (concurrent `cargo test` runs share the OS
/// temp dir; the pid keeps them apart).
fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("memstream-key-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// A flash-heavy grid: a flash entry, a disk, and a masked MEMS device.
fn flash_grid(n_rates: usize) -> ScenarioGrid {
    ScenarioGrid::new()
        .device(DeviceEntry::new("flash-a", FlashDevice::mobile_mlc()))
        .device(DeviceEntry::new("disk", DiskDevice::calibrated_1p8_inch()))
        .device(DeviceEntry::new(
            "masked-mems",
            EnergyOnly::new(MemsDevice::table1()),
        ))
        .workload(WorkloadProfile::paper())
        .rate_span(64.0, 4096.0, n_rates)
        .goal(DesignGoal::fig3a())
        .goal(DesignGoal::fig3b())
}

#[test]
fn interned_keys_match_legacy_dedup_keys_for_every_cell() {
    for grid in [
        ScenarioGrid::paper_baseline(9),
        ScenarioGrid::paper_classic(6),
        flash_grid(5),
        ScenarioGrid::paper_baseline(4).without_dram(),
    ] {
        let interner = KeyInterner::new(&grid).expect("distinct axis entries");
        for cell in grid.cells() {
            assert_eq!(
                interner.resolve(&cell),
                grid.dedup_key(&cell),
                "interned key diverges from the legacy bytes at {cell:?}"
            );
        }
    }
}

#[test]
fn interner_resolved_keys_hit_caches_written_with_legacy_keys() {
    // A cache keyed by `dedup_key` strings (the uninterned path) must be
    // fully warm under the interner.
    let grid = ScenarioGrid::paper_baseline(5);
    let mut legacy = ResultCache::new();
    let results = GridExecutor::serial().explore(&grid).expect("explore");
    for (cell, outcome) in results.records() {
        legacy.insert(grid.dedup_key(&cell), outcome.clone());
    }
    let mut warm = legacy.clone();
    let rerun = GridExecutor::serial()
        .explore_cached(&grid, &mut warm)
        .expect("warm explore");
    assert_eq!(warm.hits(), rerun.total_cells());
    assert_eq!(warm.misses(), 0, "interner keys must hit legacy entries");
}

#[test]
fn cache_resave_is_byte_identical() {
    let grid = flash_grid(6);
    let mut cache = ResultCache::new();
    GridExecutor::serial()
        .explore_cached(&grid, &mut cache)
        .expect("explore");
    // A hostile entry: the key and the error's reason carry tabs,
    // newlines and backslashes, which the length-prefixed records keep
    // verbatim.
    cache.insert(
        "hostile\tkey\nwith\\everything".to_owned(),
        CellOutcome::Unmodelled(ModelError::InvalidCapability {
            capability: "utilization",
            reason: "tab\t newline\n backslash\\ done".to_owned(),
        }),
    );

    let (first, lazy) = (temp_path("resave-1.cache"), temp_path("resave-3.cache"));
    let format = CacheFormat::default();
    cache.save_as(&first, format).expect("save");
    ResultCache::load_lazy(&first)
        .expect("lazy load")
        .save_as(&lazy, format)
        .expect("re-save from the file");
    assert_eq!(
        std::fs::read(&lazy).expect("read"),
        std::fs::read(&first).expect("read"),
        "a load and re-save must be lossless to the byte"
    );
    for p in [first, lazy] {
        std::fs::remove_file(p).expect("cleanup");
    }
}

#[test]
fn warm_explorations_are_byte_identical_across_cache_formats() {
    // The one cache format warms a re-run through the lazy reader.
    let grid = ScenarioGrid::paper_baseline(7);
    let mut cold_cache = ResultCache::new();
    let cold = GridExecutor::parallel(2)
        .explore_cached(&grid, &mut cold_cache)
        .expect("cold explore");
    let reference = memstream_grid::report::cells_csv(&cold);

    let file = temp_path("warm.cache");
    cold_cache
        .save_as(&file, CacheFormat::default())
        .expect("save");
    let mut warm_cache = ResultCache::load_lazy(&file).expect("load");
    let warm = GridExecutor::parallel(3)
        .explore_cached(&grid, &mut warm_cache)
        .expect("warm explore");
    assert_eq!(warm_cache.misses(), 0, "the lazy read must be fully warm");
    assert_eq!(
        memstream_grid::report::cells_csv(&warm),
        reference,
        "the lazy read must reproduce the cold bytes"
    );
    std::fs::remove_file(file).expect("cleanup");
}
