//! End-to-end tests of the sharded CLI: real `harness` coordinator
//! processes spawning real `shard-worker` processes, compared byte-wise
//! against the single-process output.
//!
//! Cargo provides the built binary's path as `CARGO_BIN_EXE_harness`,
//! so these tests exercise the exact re-exec path production uses.

use std::path::PathBuf;
use std::process::{Command, Output};

const HARNESS: &str = env!("CARGO_BIN_EXE_harness");

/// A per-process temp directory (concurrent `cargo test` runs share the
/// OS temp dir; the pid keeps them apart).
fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memstream-shard-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(HARNESS)
        .args(args)
        .output()
        .expect("harness spawns")
}

fn stdout_of(args: &[&str]) -> String {
    let output = run(args);
    assert!(
        output.status.success(),
        "harness {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

#[test]
fn sharded_grid_is_byte_identical_for_every_shard_count() {
    let reference = stdout_of(&["grid", "--rates", "6", "--threads", "2"]);
    assert!(!reference.is_empty());
    for shards in ["1", "2", "3"] {
        let sharded = stdout_of(&["grid", "--rates", "6", "--shards", shards]);
        assert_eq!(
            sharded, reference,
            "--shards {shards} must reproduce the single-process bytes"
        );
    }
}

#[test]
fn sharded_refine_is_byte_identical_cold_and_warm_with_zero_warm_misses() {
    let cache = temp_path("refine-shard.cache");
    let _ = std::fs::remove_file(&cache);
    let cache_str = cache.to_str().expect("utf-8 temp path");
    let base = [
        "refine",
        "--rates",
        "6",
        "--width-bound",
        "0.05",
        "--max-rounds",
        "4",
    ];

    let reference = stdout_of(&base);

    let mut sharded: Vec<&str> = base.to_vec();
    sharded.extend(["--shards", "3", "--cache", cache_str]);
    let cold = run(&sharded);
    assert!(cold.status.success());
    assert_eq!(String::from_utf8_lossy(&cold.stdout), reference);

    let warm = run(&sharded);
    assert!(warm.status.success());
    assert_eq!(String::from_utf8_lossy(&warm.stdout), reference);
    let warm_log = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_log.contains(" 0 misses"),
        "warm sharded refine must evaluate nothing:\n{warm_log}"
    );
    assert!(
        warm_log.contains("no workers spawned"),
        "fully warm rounds must not spawn processes:\n{warm_log}"
    );
    std::fs::remove_file(cache).unwrap();
}

#[test]
fn sharded_grid_warms_from_and_feeds_the_shared_cache_format() {
    // A cache written by a sharded run must warm a single-process run
    // and vice versa: same interchange format, byte-compatible.
    let cache = temp_path("grid-cross.cache");
    let _ = std::fs::remove_file(&cache);
    let cache_str = cache.to_str().expect("utf-8 temp path");

    let sharded = stdout_of(&[
        "grid", "--rates", "5", "--shards", "2", "--cache", cache_str,
    ]);
    let single = run(&["grid", "--rates", "5", "--cache", cache_str]);
    assert!(single.status.success());
    assert_eq!(String::from_utf8_lossy(&single.stdout), sharded);
    let log = String::from_utf8_lossy(&single.stderr);
    assert!(
        log.contains(" 0 misses"),
        "single-process run must be fully warm from the sharded cache:\n{log}"
    );
    std::fs::remove_file(cache).unwrap();
}

#[test]
fn shard_accounting_stays_off_stdout() {
    let output = run(&["grid", "--rates", "5", "--shards", "2"]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    for token in ["shard", "worker", "merged"] {
        assert!(
            !stdout.contains(token),
            "stdout must stay shard-free, found `{token}`"
        );
    }
    assert!(stderr.contains("shards: 2 workers"));
    assert!(stderr.contains("[shard 0 stderr]"));
}

#[test]
fn worker_heartbeats_become_an_aggregated_progress_line() {
    let output = run(&["grid", "--rates", "6", "--shards", "2"]);
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    // The coordinator aggregates the workers' `shard-progress i/N:
    // done/total` heartbeats into its own throttled line...
    assert!(
        stderr.contains("shard progress: "),
        "coordinator must print an aggregated progress line:\n{stderr}"
    );
    // ...and consumes the raw heartbeats instead of forwarding them as
    // worker stderr.
    assert!(
        !stderr.contains("shard-progress"),
        "raw heartbeat lines must not be forwarded:\n{stderr}"
    );
    assert!(
        output.stdout.is_empty() || !String::from_utf8_lossy(&output.stdout).contains("progress"),
        "progress never touches stdout"
    );
}

#[test]
fn worker_subcommand_rejects_malformed_specs() {
    let output = run(&["shard-worker", "--shard", "5/2"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("out of range"));
}

#[test]
fn fault_plan_flag_kills_one_worker_and_the_bytes_survive() {
    // The hidden test/CI surface end to end: one worker is told to die
    // mid-run, its leases are reclaimed by the survivors, the run exits 0
    // and stdout is still byte-identical to the single-process run.
    let reference = stdout_of(&["grid", "--rates", "5", "--threads", "2"]);
    let output = run(&[
        "grid",
        "--rates",
        "5",
        "--shards",
        "3",
        "--fault-plan",
        "1:die-after-cells=2",
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "run must complete:\n{stderr}");
    assert_eq!(String::from_utf8_lossy(&output.stdout), reference);
    assert!(
        stderr.contains("shard ledger: shard 1: worker died"),
        "the ledger must attribute the injected death:\n{stderr}"
    );
    assert!(
        stderr.contains("reclaimed"),
        "the lease accounting must show the reclaim:\n{stderr}"
    );
}

#[test]
fn fault_plan_env_var_reaches_the_selected_worker() {
    // The environment seam (how CI injects a fault without touching the
    // coordinator's flags): inherited by every worker, obeyed only by
    // the one the `shard=K:` selector names.
    let reference = stdout_of(&["grid", "--rates", "5", "--threads", "2"]);
    let output = Command::new(HARNESS)
        .args(["grid", "--rates", "5", "--shards", "2"])
        .env("MEMSTREAM_FAULT_PLAN", "shard=0:die-after-cells=1")
        .output()
        .expect("harness spawns");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "run must complete:\n{stderr}");
    assert_eq!(String::from_utf8_lossy(&output.stdout), reference);
    assert!(
        stderr.contains("shard ledger: shard 0: worker died"),
        "shard 0 must die per the env plan:\n{stderr}"
    );
    assert!(
        !stderr.contains("shard ledger: shard 1"),
        "the selector must spare shard 1:\n{stderr}"
    );
}

#[test]
fn malformed_fault_plans_are_rejected() {
    let output = run(&["grid", "--shards", "2", "--fault-plan", "die-after-cells=2"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("not SHARD:PLAN"));
}
