//! A fixed single-thread compute-and-memory kernel, spawned the way the
//! benchmark spawns `harness`: its wall time measures how fast the
//! machine runs right now.
//!
//! The benchmark runs it before each timed invocation and scales the
//! invocation's CPU-busy time by the ratio of a nominal kernel time to
//! this one, which takes out most of the drift a shared host adds. The
//! kernel depends on nothing in the repository, so no change to the code
//! under test can move it.

use std::hint::black_box;

/// Floats in the array: 8 MiB, well beyond a core's private caches.
const LEN: usize = 1 << 20;
/// Read-modify-write passes over the array.
const PASSES: usize = 2;

fn kernel() -> f64 {
    let mut values: Vec<f64> = (0..LEN).map(|i| 1.0 + i as f64).collect();
    for pass in 0..PASSES {
        for x in &mut values {
            *x = (x.sqrt() * 1.0001 + pass as f64).ln().exp() / 1.000_01 + 0.5;
        }
    }
    values.iter().sum()
}

fn main() {
    black_box(kernel());
}
