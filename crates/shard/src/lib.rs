//! `memstream_shard` — multi-process sharded exploration of the scenario
//! grid, merged by cache-file union.
//!
//! One process already explores a grid on every core with byte-stable
//! output; the next scale step is **many processes** (and eventually many
//! hosts). This crate adds exactly that, without inventing a new record
//! encoding: the versioned [`memstream_grid::ResultCache`] record —
//! until now a warm-start convenience — *is* what workers send back
//! (spec: `docs/CACHE_FORMAT.md`).
//!
//! The model is coordinator/worker with a leased work queue
//! (spec: `docs/SHARD_PROTOCOL.md`):
//!
//! 1. **Chunk** — the grid's canonical deduplicated cell range
//!    ([`memstream_grid::ScenarioGrid::unique_cells`]) is split into
//!    small contiguous lease chunks ([`lease_chunks`], roughly
//!    [`LEASE_CHUNKS_PER_WORKER`] per worker) owned by a coordinator-side
//!    [`LeaseQueue`]; the chunk layout depends on the grid alone, never
//!    on cache temperature.
//! 2. **Fan out** — workers are spawned processes (a re-exec of the
//!    harness: `harness shard-worker --shard i/N ...`, whose body is
//!    [`worker_main`]). A worker's **stdout** is its one machine
//!    channel: it asks for work there (`lease-request`), receives grants
//!    over **stdin** (`lease-grant a..b`), evaluates every granted cell
//!    and sends each batch of records as a **record frame**
//!    ([`memstream_grid::encode_frame`]) before announcing `lease-done`;
//!    once retired, it sends its telemetry the same way. It touches no
//!    file, and its stderr is plain text for humans.
//! 3. **Collect & reclaim** — a per-worker collector thread reads that
//!    stdout, decoding frames as they arrive (records of cells the
//!    coordinator already held are dropped), and a watchdog reclaims
//!    leases held by workers that die or go silent past a deadline,
//!    re-issuing them to live workers.
//!    Failures land in a per-shard error ledger ([`ShardRun::failures`])
//!    without poisoning the healthy shards' entries.
//! 4. **Union & assemble** — collected records merge by
//!    [`memstream_grid::ResultCache::merge`]: duplicate entries (a
//!    reclaimed lease finished twice) must be byte-equal or the merge is
//!    a hard, attributed error. The merged cache replays through the
//!    ordinary single-process path
//!    ([`memstream_grid::GridExecutor::explore_cached`], pure hits), so
//!    sharded stdout is **byte-identical** to the single-process run for
//!    any worker count, lease size or failure pattern that leaves at
//!    least one live worker.
//!
//! A deterministic fault-injection seam ([`FaultPlan`], the hidden
//! `--fault-plan` flag) lets the test suites make workers die, stall,
//! tear or damage their record frames at exact points, and assert the
//! recovery machinery holds the byte-identity guarantee.
//!
//! The refinement loop consumes the same machinery through
//! [`ShardedRoundExplorer`]: each round fans only the rates new to that
//! round out to workers and proceeds warm from the merged cache.
//!
//! # Quick start
//!
//! In-process sharding of any grid (the spawned-process path needs a
//! worker binary; the harness provides it):
//!
//! ```
//! use memstream_grid::{GridExecutor, ResultCache};
//! use memstream_shard::{lease_chunks, GridRecipe};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = GridRecipe::baseline(6).build();
//! let unique = grid.unique_cells();
//!
//! // Evaluate each contiguous lease chunk independently...
//! let mut shards = Vec::new();
//! for range in lease_chunks(unique.len(), unique.len().div_ceil(3)) {
//!     let mut shard = ResultCache::new();
//!     GridExecutor::serial().resolve_cells(&grid, &unique[range], &mut shard);
//!     shards.push(shard);
//! }
//!
//! // ...union them, and the merged cache replays the whole grid warm.
//! let mut merged = ResultCache::new();
//! for shard in &shards {
//!     merged.merge(shard)?;
//! }
//! let results = GridExecutor::serial().explore_cached(&grid, &mut merged)?;
//! assert_eq!(merged.misses(), 0, "the union covers every unique cell");
//! assert_eq!(results.unique_evaluations(), unique.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod fault;
mod lease;
mod protocol;
mod recipe;
mod round;
mod worker;

pub use coordinator::{
    explore_sharded, ShardError, ShardFailure, ShardFailureKind, ShardOptions, ShardRun,
    WorkerReport,
};
pub use fault::FaultPlan;
pub use lease::{lease_chunks, LeaseQueue, LeaseResponse, LEASE_CHUNKS_PER_WORKER};
pub use protocol::{
    format_lease_done, format_lease_reply, format_lease_request, parse_lease_done,
    parse_lease_reply, parse_lease_request, LeaseReply, ProtocolError, WorkerSpec,
};
pub use recipe::GridRecipe;
pub use round::ShardedRoundExplorer;
pub use worker::worker_main;

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn public_types_are_send_sync() {
        assert_send_sync::<GridRecipe>();
        assert_send_sync::<WorkerSpec>();
        assert_send_sync::<ShardOptions>();
        assert_send_sync::<ShardRun>();
        assert_send_sync::<ShardFailure>();
        assert_send_sync::<ShardError>();
        assert_send_sync::<ShardedRoundExplorer>();
        assert_send_sync::<LeaseQueue>();
        assert_send_sync::<FaultPlan>();
        assert_send_sync::<LeaseReply>();
    }
}
