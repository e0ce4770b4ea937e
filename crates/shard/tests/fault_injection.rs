//! End-to-end fault injection against a real spawned worker fleet.
//!
//! Every test drives [`memstream_shard::explore_sharded`] with the
//! crate's own worker binary (`memstream-shard-worker`, the same
//! `worker_main` as `harness shard-worker`), injects a deterministic
//! fault into one worker — death, stall, SIGKILL, a torn or corrupt
//! record frame — and asserts the scheduler's core promise:
//! the run still completes with **byte-identical stdout** as long as at
//! least one worker survives, and the ledger attributes exactly what
//! happened to the faulty shard.

#[cfg(unix)]
use std::path::Path;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use memstream_grid::{report, GridExecutor, Metrics, ResultCache};
use memstream_shard::{
    explore_sharded, FaultPlan, GridRecipe, ShardFailureKind, ShardOptions, ShardRun,
};

fn worker_program() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_memstream-shard-worker"))
}

/// Options spawning the bare test worker (no `shard-worker` subcommand —
/// that is the harness's surface, not this binary's).
fn worker_opts(shards: usize) -> ShardOptions {
    let mut opts = ShardOptions::new(worker_program(), shards).with_worker_threads(1);
    opts.leading_args = Vec::new();
    opts
}

/// The single-process reference: serial exploration, standard stdout.
fn reference_stdout(recipe: &GridRecipe) -> String {
    let grid = recipe.build();
    let mut cache = ResultCache::new();
    let results = GridExecutor::serial()
        .explore_cached(&grid, &mut cache)
        .expect("serial reference run");
    report::grid_stdout(&results, false)
}

/// What a sharded run prints: the merged cache replayed through the
/// identical single-process path (pure hits).
fn replayed_stdout(recipe: &GridRecipe, merged: &mut ResultCache) -> String {
    let grid = recipe.build();
    let results = GridExecutor::serial()
        .explore_cached(&grid, merged)
        .expect("replay over the merged cache");
    report::grid_stdout(&results, false)
}

fn assert_byte_identical(recipe: &GridRecipe, merged: &mut ResultCache, context: &str) {
    assert_eq!(
        replayed_stdout(recipe, merged),
        reference_stdout(recipe),
        "stdout must be byte-identical to the single-process run ({context})"
    );
}

fn ledger_kinds(run: &ShardRun) -> Vec<ShardFailureKind> {
    run.failures.iter().map(|f| f.kind).collect()
}

/// Wraps every worker of `opts` in a shell that starts the healthy
/// workers only once shard 0 — the faulty one — has exited and been
/// reaped. Shard 0 is then always the first to ask for a lease, so its
/// fault always fires: started together, a healthy worker can drain a
/// small queue before shard 0 asks for anything. `prelude` runs in shard
/// 0's shell just before it execs the worker; `gate` is the file that
/// hands shard 0's pid to the others (see [`gate_path`]).
#[cfg(unix)]
fn faulty_shard_first(opts: ShardOptions, gate: &Path, prelude: &str) -> ShardOptions {
    let _ = std::fs::remove_file(gate);
    let script = format!(
        r#"
        gate='{gate}'
        case "$*" in
            *"--shard 0/"*)
                echo $$ > "$gate.tmp" && mv "$gate.tmp" "$gate"
                {prelude}
                exec "$0" "$@";;
            *)
                until [ -s "$gate" ]; do sleep 0.01; done
                while kill -0 "$(cat "$gate")" 2>/dev/null; do sleep 0.01; done
                exec "$0" "$@";;
        esac
        "#,
        gate = gate.display()
    );
    in_shell(opts, script)
}

/// Runs every worker of `opts` through `/bin/sh -c script`, with the
/// worker binary as `$0` and its encoded arguments as `$@`.
#[cfg(unix)]
fn in_shell(mut opts: ShardOptions, script: String) -> ShardOptions {
    opts.leading_args = vec![
        "-c".to_owned(),
        script,
        worker_program().display().to_string(),
    ];
    opts.program = PathBuf::from("/bin/sh");
    opts
}

/// A gate file for [`faulty_shard_first`], unique per test and process.
#[cfg(unix)]
fn gate_path(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "memstream-fault-gate-{}-{test}",
        std::process::id()
    ))
}

#[test]
fn fault_free_lease_run_is_byte_identical_and_counts_leases() {
    let recipe = GridRecipe::classic(2);
    let metrics = Metrics::enabled();
    let opts = worker_opts(3).with_lease_cells(4).with_metrics(&metrics);
    let mut merged = ResultCache::new();
    let run = explore_sharded(&recipe, &mut merged, &opts).unwrap();
    assert!(run.is_complete(), "ledger: {:?}", run.failures);
    assert!(run.failures.is_empty(), "ledger: {:?}", run.failures);
    assert_eq!(run.lease_chunks, 48usize.div_ceil(4));
    assert_eq!(run.leases_issued, run.lease_chunks as u64);
    assert_eq!(run.leases_reclaimed, 0);
    assert_eq!(
        run.workers.iter().map(|w| w.cells).sum::<usize>(),
        run.unique_cells,
        "completed leases cover the canonical range exactly once"
    );
    // The counters and the lease-wait histogram surface in --stats-json.
    let snapshot = metrics.snapshot();
    assert_eq!(
        snapshot.counter("shard.leases_issued"),
        Some(run.leases_issued)
    );
    assert_eq!(snapshot.counter("shard.leases_reclaimed"), Some(0));
    assert_eq!(
        snapshot.counter("shard.lease_chunks"),
        Some(run.lease_chunks as u64)
    );
    let lease_wait = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "shard.lease_wait")
        .expect("shard.lease_wait histogram");
    assert!(
        lease_wait.count >= run.leases_issued,
        "every grant records a wait (plus the final retires): {} < {}",
        lease_wait.count,
        run.leases_issued
    );
    assert_byte_identical(&recipe, &mut merged, "no faults");
}

#[test]
fn fault_free_fan_out_does_not_wait_on_a_timer() {
    // With the default 30 s deadline, a healthy fan-out spends its time
    // spawning, collecting and merging. What the `shard.fanout` span
    // holds beyond those — planning, the watchdog's join — is small.
    let recipe = GridRecipe::classic(2);
    let metrics = Metrics::enabled();
    let opts = worker_opts(2).with_metrics(&metrics);
    assert_eq!(opts.lease_deadline, Duration::from_secs(30));
    let mut merged = ResultCache::new();
    let run = explore_sharded(&recipe, &mut merged, &opts).unwrap();
    assert!(run.is_complete(), "ledger: {:?}", run.failures);
    assert!(run.failures.is_empty(), "ledger: {:?}", run.failures);
    let snapshot = metrics.snapshot();
    let span = |name: &str| snapshot.span_seconds(name).expect(name);
    let rest =
        span("shard.fanout") - span("shard.spawn") - span("shard.wait") - span("shard.merge");
    assert!(
        rest < 0.1,
        "fan-out spent {rest:.3}s outside spawn/wait/merge"
    );
}

#[test]
fn lease_sizes_and_worker_counts_do_not_change_the_bytes() {
    let recipe = GridRecipe::classic(2);
    let reference = reference_stdout(&recipe);
    for (shards, lease_cells) in [(1, 0), (2, 1), (3, 7), (4, 48), (2, 500)] {
        let opts = worker_opts(shards).with_lease_cells(lease_cells);
        let mut merged = ResultCache::new();
        let run = explore_sharded(&recipe, &mut merged, &opts).unwrap();
        assert!(
            run.is_complete(),
            "shards={shards} lease_cells={lease_cells}: {:?}",
            run.failures
        );
        assert_eq!(
            replayed_stdout(&recipe, &mut merged),
            reference,
            "shards={shards} lease_cells={lease_cells}"
        );
    }
}

#[cfg(unix)]
#[test]
fn worker_dying_mid_run_is_reclaimed_and_output_stays_byte_identical() {
    let recipe = GridRecipe::classic(2);
    let gate = gate_path("die");
    let opts = worker_opts(2)
        .with_lease_cells(4)
        .with_fault_plan(0, FaultPlan::DieAfterCells(1));
    let opts = faulty_shard_first(opts, &gate, "");
    let mut merged = ResultCache::new();
    let run = explore_sharded(&recipe, &mut merged, &opts).unwrap();
    let _ = std::fs::remove_file(&gate);
    assert!(
        run.is_complete(),
        "the survivor must absorb the dead worker's chunks: {:?}",
        run.failures
    );
    assert_eq!(ledger_kinds(&run), vec![ShardFailureKind::Died]);
    assert_eq!(run.failures[0].shard, 0);
    assert!(
        run.failures[0].detail.contains("exited abnormally"),
        "detail: {}",
        run.failures[0].detail
    );
    assert!(run.leases_reclaimed >= 1, "the held lease was reclaimed");
    assert_byte_identical(&recipe, &mut merged, "die-after-cells=1 on shard 0");
}

#[cfg(unix)]
#[test]
fn sigkilled_worker_is_reclaimed_and_output_stays_byte_identical() {
    // Shard 0's shell SIGKILLs it 300ms in; the stall plan guarantees it
    // is holding a lease (not already retired) when the kill lands. No
    // clean exit path runs — this is the pull-the-plug scenario.
    let recipe = GridRecipe::classic(2);
    let gate = gate_path("sigkill");
    let opts = worker_opts(2)
        .with_lease_cells(4)
        .with_fault_plan(0, FaultPlan::StallAfterCells(1));
    let opts = faulty_shard_first(opts, &gate, "(sleep 0.3; kill -KILL $$) &");
    let mut merged = ResultCache::new();
    let run = explore_sharded(&recipe, &mut merged, &opts).unwrap();
    let _ = std::fs::remove_file(&gate);
    assert!(run.is_complete(), "ledger: {:?}", run.failures);
    assert_eq!(ledger_kinds(&run), vec![ShardFailureKind::Died]);
    assert_eq!(run.failures[0].shard, 0);
    assert!(run.leases_reclaimed >= 1);
    assert_byte_identical(&recipe, &mut merged, "SIGKILL on shard 0");
}

#[cfg(unix)]
#[test]
fn stalled_worker_is_killed_reclaimed_and_output_stays_byte_identical() {
    let recipe = GridRecipe::classic(2);
    let gate = gate_path("stall");
    let opts = worker_opts(2)
        .with_lease_cells(4)
        .with_lease_deadline(Duration::from_millis(250))
        .with_fault_plan(0, FaultPlan::StallAfterCells(1));
    let opts = faulty_shard_first(opts, &gate, "");
    let started = Instant::now();
    let mut merged = ResultCache::new();
    let run = explore_sharded(&recipe, &mut merged, &opts).unwrap();
    let _ = std::fs::remove_file(&gate);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the watchdog, not the worker's 60s stall naps, must end the run"
    );
    assert!(run.is_complete(), "ledger: {:?}", run.failures);
    assert_eq!(ledger_kinds(&run), vec![ShardFailureKind::Stalled]);
    assert_eq!(run.failures[0].shard, 0);
    assert!(
        run.failures[0].detail.contains("lease(s) reclaimed"),
        "detail: {}",
        run.failures[0].detail
    );
    assert!(run.leases_reclaimed >= 1);
    assert_byte_identical(&recipe, &mut merged, "stall-after-cells=1 on shard 0");
}

#[cfg(unix)]
#[test]
fn waiting_longer_than_the_deadline_for_a_reclaimed_chunk_is_not_a_stall() {
    // Shard 0 is a scripted worker: it takes the only chunk, stays busy
    // (one stdout line every 50ms) for 0.6s, then dies holding it. The
    // real shard 1 asks for work meanwhile and waits about 0.5s — past
    // its 0.3s deadline — until the chunk is reclaimed. Its deadline
    // must run from that grant, so it finishes the run.
    let recipe = GridRecipe::classic(2);
    let gate = gate_path("wait");
    let _ = std::fs::remove_file(&gate);
    let script = format!(
        r#"
        gate='{gate}'
        case "$*" in
            *"--shard 0/"*)
                echo "lease-request 0/2"
                read -r reply range
                touch "$gate"
                for beat in 1 2 3 4 5 6 7 8 9 10 11 12; do echo "busy"; sleep 0.05; done
                exit 3;;
            *)
                until [ -e "$gate" ]; do sleep 0.01; done
                exec "$0" "$@";;
        esac
        "#,
        gate = gate.display()
    );
    let opts = worker_opts(2)
        .with_lease_cells(48)
        .with_lease_deadline(Duration::from_millis(300));
    let opts = in_shell(opts, script);
    let mut merged = ResultCache::new();
    let run = explore_sharded(&recipe, &mut merged, &opts).unwrap();
    let _ = std::fs::remove_file(&gate);
    assert_eq!(run.lease_chunks, 1);
    assert!(run.is_complete(), "ledger: {:?}", run.failures);
    assert_eq!(ledger_kinds(&run), vec![ShardFailureKind::Died]);
    assert_eq!(run.failures[0].shard, 0);
    assert_eq!(run.leases_issued, 2, "the one chunk, then its re-issue");
    assert_byte_identical(&recipe, &mut merged, "chunk reclaimed after a long wait");
}

#[test]
fn truncated_flush_keeps_the_committed_prefix() {
    // A single worker tears its stdout inside a record frame and dies:
    // the run cannot complete (nobody is left), but every record of the
    // frames sent whole must survive into the merged cache — the retry
    // starts warm, not from zero.
    let recipe = GridRecipe::classic(2);
    let opts = worker_opts(1)
        .with_lease_cells(8)
        .with_fault_plan(0, FaultPlan::TruncateFlush);
    let mut merged = ResultCache::new();
    let run = explore_sharded(&recipe, &mut merged, &opts).unwrap();
    assert!(!run.is_complete());
    assert_eq!(ledger_kinds(&run), vec![ShardFailureKind::Died]);
    assert!(
        run.workers[0].flushed >= 1,
        "the frames sent whole must be collected"
    );
    assert_eq!(
        merged.len(),
        run.workers[0].flushed,
        "every collected record merges"
    );
    // Not even an incomplete run leaves anything behind: no fan-out of
    // this process creates a file or directory.
    let prefix = format!("memstream-shard-{}-", std::process::id());
    let litter: Vec<String> = std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with(&prefix))
        .collect();
    assert!(litter.is_empty(), "left behind: {litter:?}");

    // The warmed cache converges on retry: a fault-free fleet covers the
    // remainder and the bytes still match the single-process run.
    let retry = explore_sharded(&recipe, &mut merged, &worker_opts(2).with_lease_cells(8)).unwrap();
    assert!(retry.is_complete(), "ledger: {:?}", retry.failures);
    assert_eq!(retry.cached, run.workers[0].flushed);
    assert_byte_identical(&recipe, &mut merged, "retry after a torn frame");
}

#[test]
fn records_of_cells_already_held_are_dropped_on_arrival() {
    // One cell of a mixed chunk is cached with a *different* outcome
    // (another cell's). The worker granted that chunk evaluates every
    // cell of it and sends the true record too; the coordinator drops
    // it on arrival, so the cached entry stands and no union conflict
    // is possible.
    let recipe = GridRecipe::classic(2);
    let grid = recipe.build();
    let unique = grid.unique_cells();
    let mut evaluated = ResultCache::new();
    GridExecutor::serial()
        .resolve_cells(&grid, 0..unique.len(), &mut evaluated)
        .unwrap();
    let held = grid.dedup_key(&unique[1]);
    let truth = evaluated.get(&held).expect("evaluated");
    let stale = unique
        .iter()
        .filter_map(|cell| evaluated.get(&grid.dedup_key(cell)))
        .find(|outcome| *outcome != truth)
        .expect("a cell with another outcome");
    let mut cache = ResultCache::new();
    cache.insert(held.clone(), stale.clone());

    let run = explore_sharded(&recipe, &mut cache, &worker_opts(2).with_lease_cells(4)).unwrap();
    assert!(run.is_complete(), "ledger: {:?}", run.failures);
    assert!(run.failures.is_empty(), "ledger: {:?}", run.failures);
    assert_eq!(run.cached, 1);
    assert_eq!(
        run.leases_issued, run.lease_chunks as u64,
        "the mixed chunk was leased like every other"
    );
    assert_eq!(
        run.workers.iter().map(|w| w.flushed).sum::<usize>(),
        run.unique_cells - 1,
        "every record but the held cell's merged"
    );
    assert_eq!(cache.get(&held), Some(stale), "the cached outcome stands");
    assert_eq!(cache.len(), run.unique_cells);
}

#[cfg(unix)]
#[test]
fn corrupt_flush_is_attributed_and_output_stays_byte_identical() {
    // Shard 0 sends a frame holding an undecodable record and *lies*
    // with `lease-done`. The collector must catch the damaged frame
    // before the announcement, attribute it, and let the survivor redo
    // the work.
    let recipe = GridRecipe::classic(2);
    let gate = gate_path("corrupt");
    let opts = worker_opts(2)
        .with_lease_cells(4)
        .with_fault_plan(0, FaultPlan::CorruptFlush);
    let opts = faulty_shard_first(opts, &gate, "");
    let mut merged = ResultCache::new();
    let run = explore_sharded(&recipe, &mut merged, &opts).unwrap();
    let _ = std::fs::remove_file(&gate);
    assert!(run.is_complete(), "ledger: {:?}", run.failures);
    assert_eq!(ledger_kinds(&run), vec![ShardFailureKind::FlushCorrupt]);
    assert_eq!(run.failures[0].shard, 0);
    assert!(run.leases_reclaimed >= 1);
    assert_byte_identical(&recipe, &mut merged, "corrupt flush on shard 0");
}

#[test]
fn fault_plans_parse_round_trip_through_the_cli_surface() {
    for plan in [
        FaultPlan::DieAfterCells(7),
        FaultPlan::StallAfterCells(0),
        FaultPlan::TruncateFlush,
        FaultPlan::CorruptFlush,
    ] {
        let text = plan.to_string();
        assert_eq!(text.parse::<FaultPlan>(), Ok(plan), "round trip {text}");
    }
}
