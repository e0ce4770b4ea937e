//! Exploring allocates per series, not per cell.
//!
//! A counting global allocator, delegating to [`System`], tallies every
//! heap allocation the process makes while the default report's
//! exploration runs. The file holds exactly one test, so no other test's
//! allocations can land in the count. This allocator is the workspace's
//! only `unsafe` code, and it is test-only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use memstream_grid::{GridExecutor, ScenarioGrid};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call delegates to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a relaxed atomic and never touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn the_summary_exploration_allocates_per_series_not_per_cell() {
    // 5 devices × 3 workloads × 4 000 rates × 2 goals: 15 series.
    let grid = ScenarioGrid::paper_baseline(4000);
    let executor = GridExecutor::serial();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let summary = executor.explore_summary(&grid, None).expect("explore");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(summary.total_cells(), 120_000);
    assert!(
        allocations < 1_000,
        "{allocations} heap allocations to explore {} cells",
        summary.total_cells()
    );
}
