//! The coordinator-owned lease queue: small contiguous chunks of the
//! canonical cell range, granted to whichever worker asks
//! first, reclaimed from workers that die, stall or lie.
//!
//! The queue is pure bookkeeping — no I/O, no clocks, no threads — so
//! the scheduler's covering invariant ("the union of completed chunks is
//! exactly the canonical range, whatever the chunk size, worker count or
//! failure pattern") is testable without spawning a single process. The
//! coordinator wraps one of these in a mutex/condvar pair and drives it
//! from its per-worker collector threads and the stall watchdog.

use std::collections::VecDeque;
use std::ops::Range;

/// How many lease chunks the coordinator aims to create per worker when
/// [`crate::ShardOptions::lease_cells`] is left at `0` (auto): enough
/// that a slow worker sheds most of its share, few enough that protocol
/// chatter stays marginal.
pub const LEASE_CHUNKS_PER_WORKER: usize = 4;

/// Splits a `len`-cell range into contiguous chunks of `chunk_cells`
/// (the last one possibly shorter). Chunks partition the range: no gaps,
/// no overlap.
///
/// # Panics
///
/// Panics if `chunk_cells` is zero.
#[must_use]
pub fn lease_chunks(len: usize, chunk_cells: usize) -> Vec<Range<usize>> {
    assert!(chunk_cells > 0, "lease chunk size must be positive");
    (0..len)
        .step_by(chunk_cells)
        .map(|start| start..(start + chunk_cells).min(len))
        .collect()
}

/// A worker's answer when it asks for work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseResponse {
    /// Evaluate this cell range; report back with `lease-done`.
    Grant(Range<usize>),
    /// Nothing pending right now, but leases are outstanding elsewhere —
    /// ask again once one completes or is reclaimed.
    Wait,
    /// Every chunk is done (or this worker is condemned): exit.
    Retire,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    Pending,
    Leased(usize),
    Done,
}

/// The lease scheduler (see module docs). Chunks whose every cell is
/// already cached are born `Done` — warm cells are never leased, so the
/// chunk layout is a function of the grid while the *work* is a function
/// of cache temperature.
#[derive(Debug)]
pub struct LeaseQueue {
    chunks: Vec<Range<usize>>,
    state: Vec<ChunkState>,
    pending: VecDeque<usize>,
    condemned: Vec<bool>,
    reclaimed_from: Vec<usize>,
    issued: u64,
    reclaimed: u64,
    done_cells: usize,
    total_cells: usize,
}

impl LeaseQueue {
    /// A queue over a `len`-cell range in chunks of `chunk_cells`, for
    /// `workers` workers. `precovered[i]` marks cell `i` as already in
    /// the coordinator's cache; chunks of only precovered cells start
    /// out done.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_cells` is zero or `precovered.len() != len`.
    #[must_use]
    pub fn new(len: usize, chunk_cells: usize, workers: usize, precovered: &[bool]) -> Self {
        assert_eq!(
            precovered.len(),
            len,
            "precovered mask must cover the range"
        );
        let chunks = lease_chunks(len, chunk_cells);
        let mut state = Vec::with_capacity(chunks.len());
        let mut pending = VecDeque::new();
        let mut done_cells = 0usize;
        for (index, chunk) in chunks.iter().enumerate() {
            if precovered[chunk.clone()].iter().all(|&warm| warm) {
                state.push(ChunkState::Done);
                done_cells += chunk.len();
            } else {
                state.push(ChunkState::Pending);
                pending.push_back(index);
            }
        }
        LeaseQueue {
            state,
            pending,
            condemned: vec![false; workers],
            reclaimed_from: vec![0; workers],
            issued: 0,
            reclaimed: 0,
            done_cells,
            total_cells: len,
            chunks,
        }
    }

    /// Answers one worker's request for work. Workers hold at most one
    /// lease at a time — a request from a worker that still holds one
    /// (a protocol violation; honest workers complete before asking
    /// again) waits until the watchdog reclaims it.
    pub fn request(&mut self, worker: usize) -> LeaseResponse {
        if self.condemned[worker] || self.is_drained() {
            return LeaseResponse::Retire;
        }
        if self.outstanding(worker) > 0 {
            return LeaseResponse::Wait;
        }
        match self.pending.pop_front() {
            Some(index) => {
                self.state[index] = ChunkState::Leased(worker);
                self.issued += 1;
                LeaseResponse::Grant(self.chunks[index].clone())
            }
            None => LeaseResponse::Wait,
        }
    }

    /// Marks the lease `range` held by `worker` complete. Returns `false`
    /// when `worker` does not hold exactly that lease — a late
    /// `lease-done` from a worker whose leases were already reclaimed, or
    /// a range the coordinator never granted; the caller must ignore it.
    pub fn complete(&mut self, worker: usize, range: &Range<usize>) -> bool {
        let Some(index) = self.chunk_index(range) else {
            return false;
        };
        if self.state[index] != ChunkState::Leased(worker) {
            return false;
        }
        self.state[index] = ChunkState::Done;
        self.done_cells += self.chunks[index].len();
        true
    }

    /// Reclaims every lease `worker` holds (back to the front of the
    /// pending queue, so stolen work restarts first) and condemns the
    /// worker: its future requests are answered `Retire`. Returns the
    /// number of leases reclaimed. Idempotent.
    pub fn reclaim(&mut self, worker: usize) -> usize {
        self.condemned[worker] = true;
        let mut count = 0usize;
        for index in 0..self.state.len() {
            if self.state[index] == ChunkState::Leased(worker) {
                self.state[index] = ChunkState::Pending;
                self.pending.push_front(index);
                count += 1;
            }
        }
        self.reclaimed += count as u64;
        self.reclaimed_from[worker] += count;
        count
    }

    /// Whether `worker` currently holds exactly the lease `range`.
    #[must_use]
    pub fn holds(&self, worker: usize, range: &Range<usize>) -> bool {
        self.chunk_index(range)
            .is_some_and(|index| self.state[index] == ChunkState::Leased(worker))
    }

    /// Leases currently held by `worker`.
    #[must_use]
    pub fn outstanding(&self, worker: usize) -> usize {
        self.state
            .iter()
            .filter(|&&s| s == ChunkState::Leased(worker))
            .count()
    }

    /// Leases ever reclaimed from `worker`.
    #[must_use]
    pub fn reclaimed_from(&self, worker: usize) -> usize {
        self.reclaimed_from[worker]
    }

    /// Whether every chunk is done.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.state.iter().all(|&s| s == ChunkState::Done)
    }

    /// Cells of done chunks (including precovered ones) — the progress
    /// display's numerator.
    #[must_use]
    pub fn done_cells(&self) -> usize {
        self.done_cells
    }

    /// Cells of the whole range — the progress display's denominator.
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.total_cells
    }

    /// Chunks the range was split into.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Leases granted over the queue's lifetime (re-issues after reclaim
    /// count again).
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Leases taken back from condemned workers.
    #[must_use]
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// The done chunk ranges, in range order (test/verification surface).
    #[must_use]
    pub fn done_ranges(&self) -> Vec<Range<usize>> {
        self.chunks
            .iter()
            .zip(&self.state)
            .filter(|(_, &state)| state == ChunkState::Done)
            .map(|(chunk, _)| chunk.clone())
            .collect()
    }

    fn chunk_index(&self, range: &Range<usize>) -> Option<usize> {
        if range.start >= self.total_cells {
            return None;
        }
        // Chunks are uniform except the last, so the start pins the index.
        let width = self.chunks.first()?.len();
        let index = range.start / width.max(1);
        (self.chunks.get(index) == Some(range)).then_some(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chunks partition the range with no gaps or overlap for any chunk
    /// size.
    #[test]
    fn lease_chunks_partition_without_gaps_or_overlap() {
        for (len, chunk) in [(0, 1), (1, 3), (10, 3), (17, 4), (8, 8), (5, 7), (120, 1)] {
            let chunks = lease_chunks(len, chunk);
            if len == 0 {
                assert!(chunks.is_empty());
                continue;
            }
            assert_eq!(chunks.first().unwrap().start, 0);
            assert_eq!(chunks.last().unwrap().end, len);
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "no gap, no overlap");
            }
            assert!(chunks.iter().all(|c| c.len() <= chunk));
            assert!(chunks[..chunks.len() - 1].iter().all(|c| c.len() == chunk));
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_size_is_rejected() {
        let _ = lease_chunks(10, 0);
    }

    #[test]
    fn grants_complete_and_drain() {
        let mut q = LeaseQueue::new(10, 4, 2, &[false; 10]);
        assert_eq!(q.chunk_count(), 3);
        assert_eq!(q.request(0), LeaseResponse::Grant(0..4));
        assert_eq!(q.request(1), LeaseResponse::Grant(4..8));
        assert_eq!(
            q.request(0),
            LeaseResponse::Wait,
            "worker 0 still holds 0..4"
        );
        assert!(q.complete(0, &(0..4)));
        assert_eq!(q.request(0), LeaseResponse::Grant(8..10));
        assert!(q.complete(0, &(8..10)));
        assert_eq!(q.request(0), LeaseResponse::Wait, "1 still holds 4..8");
        assert!(q.complete(1, &(4..8)));
        assert!(q.is_drained());
        assert_eq!(q.request(0), LeaseResponse::Retire);
        assert_eq!(q.request(1), LeaseResponse::Retire);
        assert_eq!(q.done_cells(), 10);
        assert_eq!(q.issued(), 3);
        assert_eq!(q.reclaimed(), 0);
    }

    #[test]
    fn precovered_chunks_are_never_leased() {
        // Cells 0..4 warm: the first chunk is born done, the second is
        // mixed (one warm cell) and must still be leased whole.
        let mut warm = vec![false; 10];
        warm[..5].fill(true);
        let mut q = LeaseQueue::new(10, 4, 1, &warm);
        assert_eq!(q.done_cells(), 4);
        assert_eq!(q.request(0), LeaseResponse::Grant(4..8));
        assert!(q.complete(0, &(4..8)));
        assert_eq!(q.request(0), LeaseResponse::Grant(8..10));
        assert!(q.complete(0, &(8..10)));
        assert!(q.is_drained());
    }

    #[test]
    fn reclaim_reissues_to_the_next_requester_and_condemns_the_holder() {
        let mut q = LeaseQueue::new(8, 4, 2, &[false; 8]);
        assert_eq!(q.request(0), LeaseResponse::Grant(0..4));
        assert_eq!(q.request(1), LeaseResponse::Grant(4..8));
        assert_eq!(q.reclaim(0), 1);
        assert_eq!(q.outstanding(0), 0);
        assert_eq!(q.reclaimed_from(0), 1);
        // The condemned worker is retired; the live one inherits the
        // reclaimed chunk ahead of anything else.
        assert_eq!(q.request(0), LeaseResponse::Retire);
        assert!(q.complete(1, &(4..8)));
        assert_eq!(q.request(1), LeaseResponse::Grant(0..4));
        assert!(q.complete(1, &(0..4)));
        assert!(q.is_drained());
        assert_eq!(q.issued(), 3, "the reclaimed chunk was issued twice");
        assert_eq!(q.reclaimed(), 1);
    }

    #[test]
    fn late_done_from_a_reclaimed_worker_is_ignored() {
        let mut q = LeaseQueue::new(4, 4, 2, &[false; 4]);
        assert_eq!(q.request(0), LeaseResponse::Grant(0..4));
        q.reclaim(0);
        assert!(!q.complete(0, &(0..4)), "stale done must not count");
        assert!(!q.is_drained());
        // The chunk is still re-issuable and completable by a live worker.
        assert_eq!(q.request(1), LeaseResponse::Grant(0..4));
        assert!(q.complete(1, &(0..4)));
        assert!(q.is_drained());
    }

    #[test]
    fn bogus_ranges_are_rejected() {
        let mut q = LeaseQueue::new(10, 4, 1, &[false; 10]);
        assert_eq!(q.request(0), LeaseResponse::Grant(0..4));
        assert!(!q.complete(0, &(0..3)), "not a chunk boundary");
        assert!(!q.complete(0, &(4..8)), "not held by this worker");
        assert!(!q.complete(0, &(40..44)), "out of range");
        assert!(q.complete(0, &(0..4)));
    }
}
