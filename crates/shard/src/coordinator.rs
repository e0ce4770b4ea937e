//! The coordinator: chunk, spawn, grant, collect, reclaim, union.
//!
//! [`explore_sharded`] is one fan-out. The grid's canonical cell range
//! is split into small lease chunks owned by a
//! [`LeaseQueue`]; one worker process per shard is spawned (a re-exec of
//! the current binary's `shard-worker` subcommand, stdin/stdout/stderr
//! all piped), and a per-child **collector thread** reads the worker's
//! stdout, its one machine channel: `lease-request` lines are answered
//! with `lease-grant`/`lease-retire` lines on its stdin, record frames
//! are decoded into the worker's collected records as they arrive,
//! `lease-done` lines are checked against them and feed the aggregated
//! progress display, and the worker's telemetry payloads are folded into
//! the coordinator's. The worker's stderr is plain text, kept verbatim. A
//! watchdog thread reclaims leases from workers that go silent past
//! [`ShardOptions::lease_deadline`] (killing the stragglers), so their
//! chunks are re-issued to live workers. Nothing touches the file
//! system.
//!
//! Nothing here polls: collectors waiting for work and the watchdog
//! waiting for the next deadline park on one condvar, which every lease
//! transition (grant, completion, reclaim, worker EOF, shutdown)
//! notifies.
//!
//! Every anomaly — a worker that failed to spawn, died or stalled
//! mid-lease, sent a damaged record frame, announced a lease it never
//! delivered, or disagreed byte-wise with an existing entry — lands in a
//! per-shard **error ledger** instead of poisoning the merged cache.
//! The run is *complete* when the union of collected records covers the
//! whole range conflict-free, which holds for any worker count, lease
//! size or failure pattern that leaves at least one live worker.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::io::{Read as _, Write as _};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use memstream_grid::telemetry::{parse_histograms, TraceSnapshot};
use memstream_grid::{
    decode_frame, CacheFormat, GridError, KeyInterner, MergeStats, Metrics, RecordBatch,
    ResultCache,
};

use crate::fault::FaultPlan;
use crate::lease::{LeaseQueue, LeaseResponse, LEASE_CHUNKS_PER_WORKER};
use crate::protocol::{
    format_lease_reply, read_message, LeaseReply, Payload, WorkerMessage, WorkerSpec,
};
use crate::recipe::GridRecipe;

/// How a shard failed (the ledger's classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFailureKind {
    /// The worker process could not be spawned at all.
    Spawn,
    /// The worker exited abnormally (non-zero status, killed by a
    /// signal) or exited cleanly while the lease queue was undrained.
    Died,
    /// The worker sent nothing past the lease deadline while holding a
    /// lease; the watchdog killed it and reclaimed its leases.
    Stalled,
    /// The worker's stdout carried damage: a complete record frame
    /// holding an undecodable record, or a payload header line that does
    /// not parse. The records before the damage are kept.
    FlushCorrupt,
    /// The worker announced a lease it never delivered, sent keys
    /// outside the planned grid, or the final merge left cells
    /// uncovered — it evaluated a different grid than the coordinator
    /// planned.
    Incompatible,
    /// An entry the worker sent conflicts byte-wise with one the
    /// coordinator already holds.
    Conflict,
}

impl fmt::Display for ShardFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardFailureKind::Spawn => "spawn failed",
            ShardFailureKind::Died => "worker died",
            ShardFailureKind::Stalled => "worker stalled",
            ShardFailureKind::FlushCorrupt => "flush corrupt",
            ShardFailureKind::Incompatible => "coverage mismatch",
            ShardFailureKind::Conflict => "cache conflict",
        })
    }
}

/// One entry of the per-shard error ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// 0-based index of the failing shard.
    pub shard: usize,
    /// The failure class.
    pub kind: ShardFailureKind,
    /// Human-readable attribution (exit status, offending key, leases
    /// reclaimed, ...).
    pub detail: String,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {}: {}: {}", self.shard, self.kind, self.detail)
    }
}

/// Per-worker accounting of one fan-out.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// 0-based shard index.
    pub shard: usize,
    /// Leases this worker completed (`lease-done` accepted by the queue).
    pub leases: usize,
    /// Cells of those completed leases (cells the coordinator already
    /// held included).
    pub cells: usize,
    /// Records collected from this worker's record frames — including
    /// those of a worker that later died or sent a damaged frame, but not
    /// those of cells the coordinator already held, which are dropped on
    /// arrival.
    pub flushed: usize,
    /// What the union merge of this worker's collected records did.
    /// `None` when the worker never spawned or its records conflicted.
    pub merged: Option<MergeStats>,
    /// The worker's stderr, verbatim: plain text for humans (its
    /// accounting line, diagnostics), forwarded to the coordinator's
    /// stderr by the harness, never to stdout. No protocol travels here.
    pub stderr: String,
    /// Wall-clock seconds from spawn to exit (also recorded into the
    /// `shard.worker_wall` histogram when metrics are enabled). Zero for
    /// a worker that never spawned.
    pub wall_seconds: f64,
    /// The worker's timeline-trace fragment, when the fan-out ran with
    /// tracing ([`ShardOptions::with_trace`]) and the worker sent one
    /// that parses.
    pub trace: Option<TraceSnapshot>,
}

/// The outcome of one [`explore_sharded`] fan-out.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRun {
    /// Size of the grid's canonical cell range.
    pub unique_cells: usize,
    /// Cells already in the coordinator's cache before fan-out (the
    /// run's hits).
    pub cached: usize,
    /// Cells that needed evaluation somewhere (the run's misses). Zero
    /// means the cache was fully warm and **no worker was spawned**.
    pub fanned_out: usize,
    /// Worker count actually used (0 on a fully warm run).
    pub workers_spawned: usize,
    /// Lease chunks the canonical range was split into (0 on a fully
    /// warm run).
    pub lease_chunks: usize,
    /// Leases granted over the run (re-issues after reclaim count
    /// again).
    pub leases_issued: u64,
    /// Leases reclaimed from dead, stalled or lying workers and
    /// re-issued to live ones.
    pub leases_reclaimed: u64,
    /// Per-worker accounting, in shard order (empty on a fully warm run).
    pub workers: Vec<WorkerReport>,
    /// The per-shard error ledger. With lease reclaim a run can be
    /// complete *and* carry ledger entries (a worker died, its chunks
    /// were re-issued); the ledger attributes what happened.
    pub failures: Vec<ShardFailure>,
    /// Whether the merged cache covers the whole canonical range
    /// conflict-free — the property [`ShardRun::is_complete`] reports.
    pub complete: bool,
}

impl ShardRun {
    /// Whether the merged cache covers every cell conflict-free
    /// (individual workers may still have failed — see
    /// [`ShardRun::failures`]).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete
    }
}

/// A sharded refinement round failed: its grid is unexplorable, or its
/// fan-out was incomplete.
#[derive(Debug)]
pub enum ShardError {
    /// The grid itself is unexplorable.
    Grid(GridError),
    /// The run was incomplete; the ledger is attached.
    Workers(Vec<ShardFailure>),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Grid(e) => write!(f, "sharded exploration: {e}"),
            ShardError::Workers(ledger) => {
                write!(f, "{} shard(s) failed", ledger.len())?;
                for failure in ledger {
                    write!(f, "; {failure}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Grid(e) => Some(e),
            ShardError::Workers(_) => None,
        }
    }
}

impl From<GridError> for ShardError {
    fn from(e: GridError) -> Self {
        ShardError::Grid(e)
    }
}

/// How to fan a grid out across worker processes.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Requested worker count (clamped to the number of missing cells).
    pub shards: usize,
    /// `--threads` forwarded to each worker (`0` = machine width — only
    /// sensible when workers land on different hosts).
    pub worker_threads: usize,
    /// The program to spawn — normally the current binary
    /// (`std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments placed before the encoded [`WorkerSpec`] — normally
    /// `["shard-worker"]`, the harness subcommand. Tests substitute a
    /// shell here to simulate dying, stalling or lying workers.
    pub leading_args: Vec<String>,
    /// Where the coordinator reports the `shard.*` telemetry catalogue
    /// (spawn/wait/merge wall time, cell/lease/failure counts, the
    /// `shard.lease_wait` histogram — see `docs/OBSERVABILITY.md`).
    /// Disabled by default.
    pub metrics: Metrics,
    /// Whether workers are asked to record a timeline trace. Each worker
    /// sends its Chrome-trace fragment on its stdout; the coordinator
    /// parses it into [`WorkerReport::trace`] for the harness to merge
    /// with its own timeline. Disabled by default.
    pub trace: bool,
    /// Cells per lease chunk; `0` (the default) sizes chunks so each
    /// worker gets roughly [`LEASE_CHUNKS_PER_WORKER`] of them.
    pub lease_cells: usize,
    /// How long a worker may go without writing a single stdout line or
    /// frame while holding a lease before the watchdog declares it
    /// stalled, kills it and reclaims its leases.
    pub lease_deadline: Duration,
    /// Deterministic misbehaviours injected into specific workers
    /// (`(shard index, plan)`), threaded through the hidden
    /// `--fault-plan` worker flag. Test-suite surface.
    pub fault_plans: Vec<(usize, FaultPlan)>,
}

impl ShardOptions {
    /// Options spawning `program shard-worker ...` with `shards` workers.
    ///
    /// Workers are assumed local, so the default per-worker thread count
    /// *divides* the machine width across them — `N` workers each at
    /// full width would oversubscribe the host `N`-fold. Override with
    /// [`ShardOptions::with_worker_threads`] (e.g. `0` = full width per
    /// worker, for remote launchers).
    #[must_use]
    pub fn new(program: PathBuf, shards: usize) -> Self {
        let machine = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        ShardOptions {
            worker_threads: machine.div_ceil(shards.max(1)),
            shards,
            program,
            leading_args: vec!["shard-worker".to_owned()],
            metrics: Metrics::disabled(),
            trace: false,
            lease_cells: 0,
            lease_deadline: Duration::from_secs(30),
            fault_plans: Vec::new(),
        }
    }

    /// Sets the per-worker thread count (`0` = machine width per worker).
    #[must_use]
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }

    /// Makes coordinated fan-outs report into `metrics`.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.metrics = metrics.clone();
        self
    }

    /// Accepts a cache file encoding. A fan-out writes no file and the
    /// cache has a single on-disk format, so this changes nothing; it is
    /// kept so that callers written against the earlier two-format API
    /// (the benchmark's replay among them) keep compiling.
    #[must_use]
    pub fn with_cache_format(self, format: CacheFormat) -> Self {
        let CacheFormat::Binary = format;
        self
    }

    /// Asks workers to record timeline-trace fragments (collected into
    /// [`WorkerReport::trace`]).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the lease chunk size in cells (`0` = auto).
    #[must_use]
    pub fn with_lease_cells(mut self, cells: usize) -> Self {
        self.lease_cells = cells;
        self
    }

    /// Sets the stall deadline after which a silent lease holder is
    /// killed and its leases reclaimed.
    #[must_use]
    pub fn with_lease_deadline(mut self, deadline: Duration) -> Self {
        self.lease_deadline = deadline;
        self
    }

    /// Injects a deterministic fault into worker `shard`.
    #[must_use]
    pub fn with_fault_plan(mut self, shard: usize, plan: FaultPlan) -> Self {
        self.fault_plans.push((shard, plan));
        self
    }
}

/// How often the aggregated `shard progress:` line is re-printed at most.
const PROGRESS_THROTTLE: Duration = Duration::from_millis(200);

/// The throttled `shard progress: done/total cells` stderr line, shared
/// by every collector thread and reprinted on lease completions (the
/// last one always). Never touches stdout.
#[derive(Default)]
struct ProgressPrinter {
    last: Mutex<Option<Instant>>,
}

impl ProgressPrinter {
    fn update(&self, done: usize, total: usize) {
        let Ok(mut last) = self.last.lock() else {
            return;
        };
        if done == total || last.is_none_or(|at| at.elapsed() >= PROGRESS_THROTTLE) {
            *last = Some(Instant::now());
            eprintln!("shard progress: {done}/{total} cells");
        }
    }
}

/// The immutable work map every collector verifies against: the
/// canonical dedup keys, which cells the coordinator already held, and
/// each key's position (for spotting a worker that evaluated a different
/// grid). Both key collections share one allocation per key.
struct WorkPlan {
    keys: Vec<Arc<str>>,
    covered: Vec<bool>,
    index: HashMap<Arc<str>, usize>,
}

/// The mutable scheduler state shared by collectors and the watchdog.
struct LeaseState {
    queue: LeaseQueue,
    /// Per worker: when its last stdout line or frame arrived or its
    /// current lease was granted, whichever is later — the start of its
    /// stall deadline.
    last_activity: Vec<Instant>,
    /// Per worker: the watchdog's stall attribution, once declared.
    stalled: Vec<Option<String>>,
    /// Every collector is joined; the watchdog exits.
    stopping: bool,
}

/// [`LeaseState`] plus the condvar every state transition notifies.
/// Collectors blocked waiting for reclaimed or newly completed work and
/// the watchdog waiting for its next deadline both park on it.
struct LeaseShared {
    state: Mutex<LeaseState>,
    wakeup: Condvar,
}

impl LeaseShared {
    fn new(queue: LeaseQueue, workers: usize) -> Self {
        LeaseShared {
            state: Mutex::new(LeaseState {
                queue,
                last_activity: vec![Instant::now(); workers],
                stalled: vec![None; workers],
                stopping: false,
            }),
            wakeup: Condvar::new(),
        }
    }

    /// A message only postpones `worker`'s deadline, so it wakes nobody:
    /// a watchdog that wakes early just recomputes.
    fn touch(&self, worker: usize) {
        if let Ok(mut state) = self.state.lock() {
            state.last_activity[worker] = Instant::now();
        }
    }

    fn progress(&self) -> (usize, usize) {
        let state = self.state.lock().expect("lease state");
        (state.queue.done_cells(), state.queue.total_cells())
    }

    /// Blocks until the queue has a decisive answer for `worker` — a
    /// grant or a retirement, never `Wait`. Waiters hold no lock while
    /// parked; completions, reclaims and worker deaths all notify.
    ///
    /// A grant restarts the worker's stall clock — time spent waiting
    /// for work is not silence — and notifies the watchdog, which now
    /// has a new lease holder to time.
    fn await_grant(&self, worker: usize) -> LeaseResponse {
        let mut state = self.state.lock().expect("lease state");
        loop {
            match state.queue.request(worker) {
                LeaseResponse::Wait => state = self.wakeup.wait(state).expect("lease state"),
                LeaseResponse::Grant(range) => {
                    state.last_activity[worker] = Instant::now();
                    drop(state);
                    self.wakeup.notify_all();
                    return LeaseResponse::Grant(range);
                }
                LeaseResponse::Retire => return LeaseResponse::Retire,
            }
        }
    }

    fn holds(&self, worker: usize, range: &Range<usize>) -> bool {
        self.state
            .lock()
            .expect("lease state")
            .queue
            .holds(worker, range)
    }

    fn complete(&self, worker: usize, range: &Range<usize>) -> bool {
        let done = self
            .state
            .lock()
            .expect("lease state")
            .queue
            .complete(worker, range);
        if done {
            self.wakeup.notify_all();
        }
        done
    }

    fn reclaim(&self, worker: usize) -> usize {
        let count = self
            .state
            .lock()
            .expect("lease state")
            .queue
            .reclaim(worker);
        self.wakeup.notify_all();
        count
    }

    /// Bookkeeping when a worker's stdout hits EOF: any leases it still
    /// holds go back to the queue. Returns `(reclaimed, drained)` at
    /// that moment — a worker that exited cleanly *after* retirement
    /// sees `(0, true)`.
    fn on_eof(&self, worker: usize) -> (usize, bool) {
        let mut state = self.state.lock().expect("lease state");
        let reclaimed = state.queue.reclaim(worker);
        let drained = state.queue.is_drained();
        drop(state);
        self.wakeup.notify_all();
        (reclaimed, drained)
    }

    /// Ends the watchdog. The flag is set under the lock, so a watchdog
    /// between its scan and its park cannot miss it.
    fn stop(&self) {
        self.state.lock().expect("lease state").stopping = true;
        self.wakeup.notify_all();
    }

    fn stalled_detail(&self, worker: usize) -> Option<String> {
        self.state.lock().expect("lease state").stalled[worker].clone()
    }

    fn totals(&self) -> (usize, u64, u64) {
        let state = self.state.lock().expect("lease state");
        (
            state.queue.chunk_count(),
            state.queue.issued(),
            state.queue.reclaimed(),
        )
    }
}

type SharedChild = Arc<Mutex<Child>>;

/// Everything one collector thread needs, moved in at spawn.
struct CollectorCtx {
    worker: usize,
    shared: Arc<LeaseShared>,
    plan: Arc<WorkPlan>,
    printer: Arc<ProgressPrinter>,
    metrics: Metrics,
    child: SharedChild,
    stdin: Option<ChildStdin>,
    stdout: Option<std::process::ChildStdout>,
    stderr: Option<std::process::ChildStderr>,
    started: Instant,
}

/// What one collector thread hands back when its worker is gone.
struct CollectedWorker {
    status: io::Result<ExitStatus>,
    stderr: String,
    trace: Option<TraceSnapshot>,
    wall: Duration,
    /// Records collected from the worker's record frames.
    local: ResultCache,
    leases: usize,
    cells: usize,
    /// Leases still held at EOF (reclaimed and re-issued).
    eof_reclaimed: usize,
    /// Whether the queue was drained when this worker EOF'd.
    drained_at_eof: bool,
    /// A protocol violation the collector attributed mid-stream.
    failure: Option<(ShardFailureKind, String)>,
}

/// Decodes one record frame into `local`, verifying every record's key
/// is part of the planned grid. A record of a cell the coordinator
/// already held is dropped on arrival: its own entry stands, so a stale
/// cached entry never turns into a union conflict. Records before any
/// damage are kept — a worker condemned for a bad frame still delivers
/// what preceded it — and enter `local` as one batch. Returns the
/// failure to attribute, if any.
fn absorb_frame(
    frame: &[u8],
    plan: &WorkPlan,
    local: &mut ResultCache,
) -> Option<(ShardFailureKind, String)> {
    let (records, damage) = decode_frame(frame);
    let mut batch = RecordBatch::new();
    let mut failure = None;
    for (key, outcome) in &records {
        match plan.index.get(key.as_str()) {
            None => {
                let why = format!("sent key `{key}` is not in the planned grid");
                failure = Some((ShardFailureKind::Incompatible, why));
                break;
            }
            Some(&idx) if plan.covered[idx] => {}
            Some(_) => batch.push(key, outcome),
        }
    }
    local.absorb(batch);
    failure.or_else(|| {
        damage.map(|offset| {
            let why = format!(
                "record frame of {} bytes is damaged at byte {offset}",
                frame.len()
            );
            (ShardFailureKind::FlushCorrupt, why)
        })
    })
}

/// The first cell of `range` the coordinator needed and `local` does not
/// deliver, if any.
fn uncovered_cell(plan: &WorkPlan, range: &Range<usize>, local: &ResultCache) -> Option<usize> {
    range
        .clone()
        .find(|&idx| !plan.covered[idx] && !local.contains_key(&plan.keys[idx]))
}

/// Best-effort kill that never blocks: if the child's mutex is held, its
/// collector is already in `wait()` — the process is on its way out.
fn kill_child(child: &SharedChild) {
    if let Ok(mut child) = child.try_lock() {
        let _ = child.kill();
    }
}

/// One worker's collector: reads the child's stdout as it fills,
/// answering lease traffic, collecting record frames and folding the
/// worker's latency histograms into `metrics`, while a second thread
/// drains its stderr (a worker blocked on a full pipe against a
/// coordinator waiting on a sibling would deadlock).
fn collect_streaming(ctx: CollectorCtx) -> CollectedWorker {
    let CollectorCtx {
        worker,
        shared,
        plan,
        printer,
        metrics,
        child,
        mut stdin,
        stdout,
        stderr,
        started,
    } = ctx;
    let lease_wait = metrics.histogram("shard.lease_wait");
    let stderr = stderr.map(|mut pipe| {
        std::thread::spawn(move || {
            let mut text = Vec::new();
            let _ = pipe.read_to_end(&mut text);
            text
        })
    });

    let mut local = ResultCache::new();
    let mut trace = None;
    let mut leases = 0usize;
    let mut cells = 0usize;
    let mut failure: Option<(ShardFailureKind, String)> = None;

    if let Some(pipe) = stdout {
        let mut reader = io::BufReader::new(pipe);
        let mut frame = Vec::new();
        // A read error is the end of the stream, like EOF: the exit
        // status decides the ledger entry.
        while let Ok(Some(message)) = read_message(&mut reader, &mut frame) {
            shared.touch(worker);
            match message {
                WorkerMessage::Request => {
                    let asked = Instant::now();
                    let response = shared.await_grant(worker);
                    lease_wait.record(asked.elapsed());
                    let reply = match response {
                        LeaseResponse::Grant(range) => LeaseReply::Grant(range),
                        LeaseResponse::Wait | LeaseResponse::Retire => LeaseReply::Retire,
                    };
                    let delivered = stdin.as_mut().is_some_and(|pipe| {
                        writeln!(pipe, "{}", format_lease_reply(&reply))
                            .and_then(|()| pipe.flush())
                            .is_ok()
                    });
                    if !delivered {
                        // The grant channel is gone (the worker is dying):
                        // put any grant straight back and keep draining.
                        shared.reclaim(worker);
                        stdin = None;
                    }
                }
                WorkerMessage::Payload(Payload::Records) => {
                    failure = absorb_frame(&frame, &plan, &mut local);
                }
                // Telemetry is best-effort observability: a payload that
                // does not parse is ignored. Only the worker's histograms
                // are folded in — the coordinator's own counters and spans
                // already account for the run, and double-counting would
                // corrupt the hit/miss totals.
                WorkerMessage::Payload(Payload::Stats) => {
                    let text = String::from_utf8_lossy(&frame);
                    for sample in parse_histograms(&text).unwrap_or_default() {
                        metrics.histogram(&sample.name).merge_sample(&sample);
                    }
                }
                WorkerMessage::Payload(Payload::Trace) => {
                    trace = TraceSnapshot::from_chrome_json(&String::from_utf8_lossy(&frame)).ok();
                }
                WorkerMessage::BadHeader(line) => {
                    failure = Some((
                        ShardFailureKind::FlushCorrupt,
                        format!("unparseable payload header `{line}`"),
                    ));
                }
                WorkerMessage::Done(range) => {
                    // Only a lease this worker actually holds counts; a
                    // stale `lease-done` (its leases were reclaimed) or a
                    // bogus range is ignored — the final coverage check
                    // still guards correctness.
                    if !shared.holds(worker, &range) {
                        continue;
                    }
                    if let Some(idx) = uncovered_cell(&plan, &range, &local) {
                        failure = Some((
                            ShardFailureKind::Incompatible,
                            format!(
                                "lease-done {}..{} lacks a flushed record for key `{}`",
                                range.start, range.end, plan.keys[idx]
                            ),
                        ));
                    } else if shared.complete(worker, &range) {
                        leases += 1;
                        cells += range.len();
                        let (done, total) = shared.progress();
                        printer.update(done, total);
                    }
                }
                WorkerMessage::Unknown => {}
            }
            if failure.is_some() {
                // Condemned: nothing more it sends is trusted.
                shared.reclaim(worker);
                kill_child(&child);
                break;
            }
        }
    }

    drop(stdin); // EOF the grant channel, in case the worker still reads
    let status = child.lock().expect("child handle").wait();
    let stderr = stderr
        .and_then(|drain| drain.join().ok())
        .map(|text| String::from_utf8_lossy(&text).into_owned())
        .unwrap_or_default();
    let (eof_reclaimed, drained_at_eof) = shared.on_eof(worker);
    CollectedWorker {
        status,
        stderr,
        trace,
        wall: started.elapsed(),
        local,
        leases,
        cells,
        eof_reclaimed,
        drained_at_eof,
        failure,
    }
}

/// The stall watchdog: reclaims (and kills) workers that hold leases but
/// have been silent for the deadline since their last line or grant.
/// Once the queue is drained it also kills any unresponsive straggler so
/// the run can end. Runs until [`LeaseShared::stop`].
///
/// Between scans it parks on the lease condvar until the earliest
/// pending deadline, so a stall is caught at its deadline. A worker past
/// its deadline without a lease is waiting for work or between leases:
/// only a grant (which restarts its clock) or the queue draining can
/// make it actionable, and both notify.
fn run_watchdog(shared: &LeaseShared, children: &[Option<SharedChild>], deadline: Duration) {
    let mut killed = vec![false; children.len()];
    let Ok(mut state) = shared.state.lock() else {
        return;
    };
    while !state.stopping {
        let now = Instant::now();
        let mut kill_list = Vec::new();
        let mut next_due: Option<Duration> = None;
        for (worker, child) in children.iter().enumerate() {
            if killed[worker] || child.is_none() {
                continue;
            }
            let idle = now.saturating_duration_since(state.last_activity[worker]);
            if idle < deadline {
                let due = deadline - idle;
                next_due = Some(next_due.map_or(due, |next| next.min(due)));
            } else if state.queue.outstanding(worker) > 0 {
                let reclaimed = state.queue.reclaim(worker);
                state.stalled[worker] = Some(format!(
                    "silent for {:.1}s; killed, {reclaimed} lease(s) reclaimed",
                    idle.as_secs_f64()
                ));
                shared.wakeup.notify_all();
                kill_list.push(worker);
            } else if state.queue.is_drained() {
                kill_list.push(worker);
            }
        }
        let parked = if kill_list.is_empty() {
            match next_due {
                Some(due) => shared.wakeup.wait_timeout(state, due).ok().map(|(s, _)| s),
                None => shared.wakeup.wait(state).ok(),
            }
        } else {
            // Kill unlocked; the rescan that follows catches whatever
            // moved meanwhile.
            drop(state);
            for worker in kill_list {
                killed[worker] = true;
                if let Some(child) = &children[worker] {
                    kill_child(child);
                }
            }
            shared.state.lock().ok()
        };
        let Some(parked) = parked else {
            return;
        };
        state = parked;
    }
}

/// One coordinated fan-out: resolve every cell of the recipe's grid
/// into `cache`, evaluating missing cells on spawned worker
/// processes under the lease scheduler and merging the records they
/// send by strict union.
///
/// A fully warm cache short-circuits: no processes. Otherwise the
/// **full** canonical range is chunked, so the chunk layout is a
/// function of the grid alone, not of cache temperature: chunks whose
/// cells `cache` all holds are born done, a worker evaluates every cell
/// of a chunk it is granted, and records of cells `cache` already held
/// are dropped on arrival. Nothing touches the file system.
///
/// Failures of individual workers land in [`ShardRun::failures`]; their
/// leases are reclaimed and re-issued, so the run still completes —
/// byte-identically — as long as one worker survives. Every record that
/// arrived is merged regardless, so even an incomplete run leaves the
/// cache warmer for a retry.
///
/// # Errors
///
/// [`GridError::DuplicateAxisEntry`] if an axis of the recipe's grid
/// repeats an entry: nothing is spawned and `cache` is untouched.
pub fn explore_sharded(
    recipe: &GridRecipe,
    cache: &mut ResultCache,
    opts: &ShardOptions,
) -> Result<ShardRun, GridError> {
    let metrics = &opts.metrics;
    let _fanout = metrics.span("shard.fanout").start();
    let grid = recipe.build();
    let unique = grid.unique_cells();
    let interner = KeyInterner::new(&grid)?;
    let mut key = String::new();
    let keys: Vec<Arc<str>> = unique
        .iter()
        .map(|cell| {
            interner.resolve_into(cell, &mut key);
            Arc::from(key.as_str())
        })
        .collect();
    let covered: Vec<bool> = keys.iter().map(|k| cache.contains_key(k)).collect();
    let cached = covered.iter().filter(|&&warm| warm).count();
    let missing = unique.len() - cached;

    metrics.counter("shard.runs").incr();
    metrics
        .counter("shard.unique_cells")
        .add(unique.len() as u64);
    metrics.counter("shard.cached").add(cached as u64);
    metrics.counter("shard.fanned_out").add(missing as u64);

    if missing == 0 {
        return Ok(ShardRun {
            unique_cells: unique.len(),
            cached,
            fanned_out: 0,
            workers_spawned: 0,
            lease_chunks: 0,
            leases_issued: 0,
            leases_reclaimed: 0,
            workers: Vec::new(),
            failures: Vec::new(),
            complete: true,
        });
    }

    let shards = opts.shards.clamp(1, missing);
    let chunk_cells = if opts.lease_cells > 0 {
        opts.lease_cells
    } else {
        unique
            .len()
            .div_ceil(shards * LEASE_CHUNKS_PER_WORKER)
            .max(1)
    };
    let index: HashMap<Arc<str>, usize> = keys.iter().cloned().zip(0..).collect();
    let plan = Arc::new(WorkPlan {
        keys,
        covered,
        index,
    });
    let shared = Arc::new(LeaseShared::new(
        LeaseQueue::new(unique.len(), chunk_cells, shards, &plan.covered),
        shards,
    ));
    let printer = Arc::new(ProgressPrinter::default());

    // Spawn every worker before waiting on any: they run concurrently,
    // each parallel inside itself on its own threads, and each child
    // gets a collector thread draining its pipes immediately.
    let spawn_timer = metrics.span("shard.spawn").start();
    metrics.counter("shard.workers_spawned").add(shards as u64);
    let mut handles = Vec::with_capacity(shards);
    let mut children: Vec<Option<SharedChild>> = vec![None; shards];
    let mut failures: Vec<ShardFailure> = Vec::new();
    for (index, child_slot) in children.iter_mut().enumerate() {
        let spec = WorkerSpec {
            shard: index,
            shard_count: shards,
            threads: opts.worker_threads,
            trace: opts.trace,
            fault: opts
                .fault_plans
                .iter()
                .find(|(shard, _)| *shard == index)
                .map(|(_, plan)| *plan),
            recipe: recipe.clone(),
        };
        let child = Command::new(&opts.program)
            .args(&opts.leading_args)
            .args(spec.to_args())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn();
        match child {
            Ok(mut child) => {
                let started = Instant::now();
                let stdin = child.stdin.take();
                let stdout = child.stdout.take();
                let stderr = child.stderr.take();
                let handle: SharedChild = Arc::new(Mutex::new(child));
                *child_slot = Some(Arc::clone(&handle));
                let ctx = CollectorCtx {
                    worker: index,
                    shared: Arc::clone(&shared),
                    plan: Arc::clone(&plan),
                    printer: Arc::clone(&printer),
                    metrics: metrics.clone(),
                    child: handle,
                    stdin,
                    stdout,
                    stderr,
                    started,
                };
                handles.push(Some(std::thread::spawn(|| collect_streaming(ctx))));
            }
            Err(e) => {
                failures.push(ShardFailure {
                    shard: index,
                    kind: ShardFailureKind::Spawn,
                    detail: format!("{}: {e}", opts.program.display()),
                });
                handles.push(None);
            }
        }
    }
    drop(spawn_timer);

    // The watchdog lives as long as the collectors do: joins below rely
    // on it to unstick stalled workers.
    let watchdog = children.iter().any(Option::is_some).then(|| {
        let shared = Arc::clone(&shared);
        let children = children.clone();
        let deadline = opts.lease_deadline;
        std::thread::spawn(move || run_watchdog(&shared, &children, deadline))
    });

    let wait_span = metrics.span("shard.wait");
    let merge_span = metrics.span("shard.merge");
    let wall_histogram = metrics.histogram("shard.worker_wall");
    let mut workers = Vec::with_capacity(shards);
    let mut conflicted = false;
    for (shard, handle) in handles.into_iter().enumerate() {
        let mut report = WorkerReport {
            shard,
            leases: 0,
            cells: 0,
            flushed: 0,
            merged: None,
            stderr: String::new(),
            wall_seconds: 0.0,
            trace: None,
        };
        if let Some(handle) = handle {
            let wait_timer = wait_span.start();
            let collected = handle.join().expect("worker collector thread");
            drop(wait_timer);
            report.stderr = collected.stderr;
            report.trace = collected.trace;
            report.wall_seconds = collected.wall.as_secs_f64();
            report.leases = collected.leases;
            report.cells = collected.cells;
            report.flushed = collected.local.len();
            wall_histogram.record(collected.wall);
            // Merge whatever the worker delivered — the frames of a
            // worker that died or was condemned included. Duplicates
            // from a reclaimed lease finished twice must be byte-equal
            // or the merge is a hard conflict.
            let merge_timer = merge_span.start();
            match cache.merge(&collected.local) {
                Ok(stats) => report.merged = Some(stats),
                Err(conflict) => {
                    conflicted = true;
                    failures.push(ShardFailure {
                        shard,
                        kind: ShardFailureKind::Conflict,
                        detail: conflict.to_string(),
                    });
                }
            }
            drop(merge_timer);
            // Fate: an attributed protocol violation wins, then a
            // watchdog stall, then the exit status and queue state.
            let fate = if let Some((kind, detail)) = collected.failure {
                Some((kind, detail))
            } else if let Some(detail) = shared.stalled_detail(shard) {
                Some((ShardFailureKind::Stalled, detail))
            } else {
                match collected.status {
                    Err(e) => Some((ShardFailureKind::Died, format!("wait failed: {e}"))),
                    Ok(status) if !status.success() => Some((
                        ShardFailureKind::Died,
                        format!(
                            "exited abnormally ({status}); {} lease(s) reclaimed",
                            collected.eof_reclaimed
                        ),
                    )),
                    Ok(_) if !collected.drained_at_eof || collected.eof_reclaimed > 0 => Some((
                        ShardFailureKind::Died,
                        format!(
                            "exited before the lease queue drained ({} lease(s) reclaimed)",
                            collected.eof_reclaimed
                        ),
                    )),
                    Ok(_) => None,
                }
            };
            if let Some((kind, detail)) = fate {
                failures.push(ShardFailure {
                    shard,
                    kind,
                    detail,
                });
            }
        }
        workers.push(report);
    }
    shared.stop();
    if let Some(watchdog) = watchdog {
        let _ = watchdog.join();
    }

    // The run's real verdict: does the merged cache cover the canonical
    // range, conflict-free?
    let uncovered = plan
        .keys
        .iter()
        .filter(|key| !cache.contains_key(key))
        .count();
    if uncovered > 0 && failures.is_empty() {
        failures.push(ShardFailure {
            shard: 0,
            kind: ShardFailureKind::Incompatible,
            detail: format!("{uncovered} cell(s) uncovered after the merge"),
        });
    }
    let complete = uncovered == 0 && !conflicted;
    failures.sort_by_key(|failure| failure.shard);

    let (lease_chunks, leases_issued, leases_reclaimed) = shared.totals();
    metrics
        .counter("shard.lease_chunks")
        .add(lease_chunks as u64);
    metrics.counter("shard.leases_issued").add(leases_issued);
    metrics
        .counter("shard.leases_reclaimed")
        .add(leases_reclaimed);
    metrics.counter("shard.failures").add(failures.len() as u64);

    Ok(ShardRun {
        unique_cells: unique.len(),
        cached,
        fanned_out: missing,
        workers_spawned: shards,
        lease_chunks,
        leases_issued,
        leases_reclaimed,
        workers,
        failures,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memstream_grid::{encode_frame, CellOutcome, GridExecutor};

    /// A fake worker: any shell script stands in for the spawned
    /// process. `$1 $2 ...` receive the encoded [`WorkerSpec`]; the
    /// script can speak the lease protocol over stdout/stdin.
    #[cfg(unix)]
    fn sh_options(script: &str, shards: usize) -> ShardOptions {
        ShardOptions {
            shards,
            worker_threads: 1,
            program: PathBuf::from("/bin/sh"),
            leading_args: vec!["-c".to_owned(), script.to_owned(), "fake-worker".to_owned()],
            metrics: Metrics::disabled(),
            trace: false,
            lease_cells: 0,
            lease_deadline: Duration::from_secs(30),
            fault_plans: Vec::new(),
        }
    }

    /// The start of a scripted worker: parse `--shard` into `$S`, ask for
    /// a lease and read the grant into `$reply $range`.
    #[cfg(unix)]
    const TAKE_LEASE: &str = r#"
        while [ "$#" -gt 0 ]; do case "$1" in
            --shard) S="$2"; shift 2;;
            *) shift;;
        esac; done
        echo "lease-request $S"
        read -r reply range
    "#;

    /// Every cell of `classic(3)`, evaluated: the keys in canonical
    /// order and their outcomes.
    #[cfg(unix)]
    fn classic_records() -> (Vec<String>, Vec<CellOutcome>) {
        let grid = GridRecipe::classic(3).build();
        let unique = grid.unique_cells();
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .resolve_cells(&grid, 0..unique.len(), &mut cache)
            .unwrap();
        let keys: Vec<String> = unique.iter().map(|cell| grid.dedup_key(cell)).collect();
        let outcomes = keys
            .iter()
            .map(|key| cache.get(key).expect("evaluated"))
            .collect();
        (keys, outcomes)
    }

    /// A one-worker fan-out of `classic(3)` as a single lease, whose
    /// worker takes that lease, writes `bytes` to its stdout and then
    /// runs `then`. Returns the run and the merged cache. Each call has
    /// its own scratch file: tests run concurrently in one process, and
    /// two of them name a case `huge`.
    #[cfg(unix)]
    fn lease_then_send(name: &str, bytes: &[u8], then: &str) -> (ShardRun, ResultCache) {
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "memstream-coordinator-tests-{}-{call}-{name}.out",
            std::process::id()
        ));
        std::fs::write(&path, bytes).expect("scripted stdout");
        let script = format!("{TAKE_LEASE}\ncat '{}'\n{then}\n", path.display());
        let recipe = GridRecipe::classic(3);
        let mut opts = sh_options(&script, 1);
        opts.lease_cells = recipe.build().unique_cells().len();
        let mut cache = ResultCache::new();
        let run = explore_sharded(&recipe, &mut cache, &opts).unwrap();
        let _ = std::fs::remove_file(path);
        (run, cache)
    }

    /// A payload header line and its bytes.
    #[cfg(unix)]
    fn payload_message(payload: Payload, bytes: &[u8]) -> Vec<u8> {
        let header = payload.header(0, 1, bytes.len());
        [format!("{header}\n").as_bytes(), bytes].concat()
    }

    #[cfg(unix)]
    #[test]
    fn worker_exiting_before_the_queue_drains_is_died_in_the_ledger() {
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let run = explore_sharded(&recipe, &mut cache, &sh_options("exit 0", 1)).unwrap();
        assert_eq!(run.failures.len(), 1, "ledger: {:?}", run.failures);
        assert_eq!(run.failures[0].kind, ShardFailureKind::Died);
        assert!(
            run.failures[0]
                .detail
                .contains("before the lease queue drained"),
            "detail: {}",
            run.failures[0].detail
        );
        assert!(!run.is_complete());
        assert!(cache.is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn lease_done_without_a_flush_is_a_coverage_mismatch() {
        // The fake worker speaks the protocol far enough to be granted a
        // lease, then announces completion without flushing a single
        // record. The coordinator must catch the lie, attribute it, and
        // kill the worker.
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let script = format!(
            r#"{TAKE_LEASE}
            case "$reply" in
                lease-grant) echo "lease-done $S: $range"; exec sleep 5;;
            esac
            "#
        );
        let run = explore_sharded(&recipe, &mut cache, &sh_options(&script, 1)).unwrap();
        assert_eq!(run.failures.len(), 1, "ledger: {:?}", run.failures);
        assert_eq!(run.failures[0].kind, ShardFailureKind::Incompatible);
        assert!(
            run.failures[0].detail.contains("lacks a flushed record"),
            "detail: {}",
            run.failures[0].detail
        );
        assert!(!run.is_complete());
        assert!(cache.is_empty());
        assert!(run.leases_issued >= 1);
    }

    #[cfg(unix)]
    #[test]
    fn damaged_flush_stream_is_attributed_as_flush_corrupt() {
        // The fake worker sends a frame holding a garbage record, then
        // announces a lease completion: the frame must condemn it before
        // the announcement is believed, and nothing is merged.
        let mut junk = 8u32.to_le_bytes().to_vec();
        junk.extend_from_slice(&[0xAB; 8]);
        let then = r#"echo "lease-done $S: $range"; exec sleep 5"#;
        let (run, cache) =
            lease_then_send("damaged", &payload_message(Payload::Records, &junk), then);
        assert_eq!(run.failures.len(), 1, "ledger: {:?}", run.failures);
        assert_eq!(run.failures[0].kind, ShardFailureKind::FlushCorrupt);
        assert!(
            run.failures[0].detail.contains("damaged at byte 0"),
            "detail: {}",
            run.failures[0].detail
        );
        assert!(!run.is_complete());
        assert!(cache.is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn hostile_frames_keep_the_earlier_records_and_are_attributed() {
        // An honest frame holding cell 0's record, then one hostile
        // input. Whatever follows, the honest record is kept and merged.
        // Damage is `FlushCorrupt` and the coordinator kills the worker;
        // a stream that ends inside a frame is not damage, and the
        // worker's exit status decides the entry.
        let (keys, outcomes) = classic_records();
        let honest = payload_message(
            Payload::Records,
            &encode_frame([(keys[0].as_str(), &outcomes[0])]),
        );

        let mut junk = 8u32.to_le_bytes().to_vec();
        junk.extend_from_slice(&[0xAB; 8]);
        // Key length 2, key bytes that are not UTF-8, an empty `U` record.
        let mut bad_key = 11u32.to_le_bytes().to_vec();
        bad_key.extend_from_slice(&[2, 0, 0, 0, 0xFF, 0xFE, b'U', 0, 0, 0, 0]);
        let torn = [b"lease-records 0/1: 64\n".as_slice(), &[0xAB; 7]].concat();
        let huge = [
            b"lease-records 0/1: 18446744073709551615\n".as_slice(),
            &[0xAB; 16],
        ]
        .concat();
        let cases: [(&str, Vec<u8>, &str, ShardFailureKind); 5] = [
            ("torn", torn, "exit 3", ShardFailureKind::Died),
            ("huge", huge, "exit 3", ShardFailureKind::Died),
            (
                "undecodable",
                payload_message(Payload::Records, &junk),
                "exec sleep 5",
                ShardFailureKind::FlushCorrupt,
            ),
            (
                "non-utf8",
                payload_message(Payload::Records, &bad_key),
                "exec sleep 5",
                ShardFailureKind::FlushCorrupt,
            ),
            (
                "bad-header",
                b"lease-records 0/1: lots\n".to_vec(),
                "exec sleep 5",
                ShardFailureKind::FlushCorrupt,
            ),
        ];
        for (name, hostile, then, kind) in cases {
            let (run, cache) = lease_then_send(name, &[honest.as_slice(), &hostile].concat(), then);
            let kinds: Vec<_> = run.failures.iter().map(|f| f.kind).collect();
            assert_eq!(kinds, [kind], "{name}: {:?}", run.failures);
            assert_eq!(run.workers[0].flushed, 1, "{name}");
            assert_eq!(cache.get(&keys[0]), Some(outcomes[0].clone()), "{name}");
            assert_eq!(cache.len(), 1, "{name}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn hostile_telemetry_is_ignored_and_the_records_are_merged() {
        // The worker delivers its whole lease honestly and retires, then
        // sends one hostile telemetry payload. Telemetry is best-effort:
        // a payload that does not parse is ignored, and a header claiming
        // 2^64 - 1 bytes is a torn payload at the end of the stream. None
        // of them panics or adds a ledger entry, and every record merges.
        let (keys, outcomes) = classic_records();
        let honest = [
            payload_message(
                Payload::Records,
                &encode_frame(keys.iter().map(String::as_str).zip(&outcomes)),
            ),
            format!("lease-done 0/1: 0..{}\nlease-request 0/1\n", keys.len()).into_bytes(),
        ]
        .concat();
        let huge = [
            b"worker-stats 0/1: 18446744073709551615\n".as_slice(),
            &[0xAB; 16],
        ]
        .concat();
        let cases = [
            (
                "garbage-stats",
                payload_message(Payload::Stats, b"{\"histograms\": [1, 2"),
            ),
            (
                "garbage-trace",
                payload_message(Payload::Trace, &[0xFF, 0xFE, b'{', b'"']),
            ),
            ("huge", huge),
        ];
        for (name, hostile) in cases {
            let (run, cache) =
                lease_then_send(name, &[honest.as_slice(), &hostile].concat(), "exit 0");
            assert!(run.is_complete(), "{name}");
            assert_eq!(run.failures, [], "{name}");
            assert_eq!(run.workers[0].flushed, keys.len(), "{name}");
            assert!(run.workers[0].trace.is_none(), "{name}");
            assert_eq!(cache.len(), keys.len(), "{name}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn silent_lease_holder_is_reclaimed_by_the_watchdog() {
        // The fake worker takes a lease and goes silent; the watchdog
        // must declare it stalled, kill it and reclaim the lease.
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let script = format!("{TAKE_LEASE}\nexec sleep 60\n");
        let mut opts = sh_options(&script, 1);
        opts.lease_deadline = Duration::from_millis(150);
        let started = Instant::now();
        let run = explore_sharded(&recipe, &mut cache, &opts).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the watchdog, not the 60s sleep, must end the run"
        );
        assert_eq!(run.failures.len(), 1, "ledger: {:?}", run.failures);
        assert_eq!(run.failures[0].kind, ShardFailureKind::Stalled);
        assert!(
            run.failures[0].detail.contains("lease(s) reclaimed"),
            "detail: {}",
            run.failures[0].detail
        );
        assert!(run.leases_reclaimed >= 1);
        assert!(!run.is_complete(), "nobody was left to take the lease");
    }

    #[cfg(unix)]
    #[test]
    fn worker_stderr_is_kept_verbatim() {
        // Stderr is never parsed: a line that looks like protocol stays
        // text, and an unterminated last line is kept as it is. Stdout
        // lines this coordinator does not know are ignored, not kept.
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let script = r#"
            echo 'a line form this coordinator does not know'
            echo 'ordinary accounting line' >&2
            echo 'lease-request 0/1' >&2
            printf 'kept verbatim, even unterminated' >&2
        "#;
        let run = explore_sharded(&recipe, &mut cache, &sh_options(script, 1)).unwrap();
        assert_eq!(
            run.workers[0].stderr,
            "ordinary accounting line\nlease-request 0/1\nkept verbatim, even unterminated"
        );
        assert_eq!(run.leases_issued, 0, "stderr is not a request channel");
        assert!(run.workers[0].wall_seconds > 0.0);
        assert!(run.workers[0].trace.is_none(), "no trace was sent");
    }

    #[cfg(unix)]
    #[test]
    fn partial_trailing_line_from_a_dying_worker_is_dropped() {
        // The worker dies mid-write: one complete line, then a
        // newline-less fragment of a lease request. The fragment is the
        // end of the stream — never answered with a grant, never kept
        // as stderr.
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let script = r#"
            echo 'a line form this coordinator does not know'
            printf 'lease-request 0/1'
        "#;
        let run = explore_sharded(&recipe, &mut cache, &sh_options(script, 1)).unwrap();
        assert_eq!(run.leases_issued, 0, "the fragment must not be answered");
        assert_eq!(
            run.workers[0].stderr, "",
            "the partial fragment must be dropped, not kept"
        );
        let kinds: Vec<_> = run.failures.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, [ShardFailureKind::Died]);
    }

    #[test]
    fn a_grant_restarts_the_stall_clock() {
        // Worker 1 waited an hour for work. When it inherits worker 0's
        // reclaimed chunk, its deadline must run from the grant, or the
        // watchdog's next scan would declare it stalled on the spot.
        let shared = LeaseShared::new(LeaseQueue::new(4, 4, 2, &[false; 4]), 2);
        assert_eq!(shared.await_grant(0), LeaseResponse::Grant(0..4));
        shared.state.lock().unwrap().last_activity[1] = Instant::now() - Duration::from_secs(3600);
        assert_eq!(shared.reclaim(0), 1);
        assert_eq!(shared.await_grant(1), LeaseResponse::Grant(0..4));
        let idle = shared.state.lock().unwrap().last_activity[1].elapsed();
        assert!(
            idle < Duration::from_secs(60),
            "clock not restarted: {idle:?}"
        );
    }

    #[test]
    fn fully_warm_cache_spawns_no_workers() {
        let recipe = GridRecipe::classic(3);
        let grid = recipe.build();
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .unwrap();
        // A bogus program proves nothing was spawned.
        let opts = ShardOptions::new(PathBuf::from("/nonexistent/worker"), 4);
        let run = explore_sharded(&recipe, &mut cache, &opts).unwrap();
        assert_eq!(run.workers_spawned, 0);
        assert_eq!(run.fanned_out, 0);
        assert_eq!(run.lease_chunks, 0);
        assert_eq!(run.cached, run.unique_cells);
        assert!(run.is_complete());
    }

    #[test]
    fn unspawnable_program_fills_the_ledger() {
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let opts = ShardOptions::new(PathBuf::from("/nonexistent/worker"), 2);
        let run = explore_sharded(&recipe, &mut cache, &opts).unwrap();
        assert_eq!(run.failures.len(), 2);
        assert!(run
            .failures
            .iter()
            .all(|f| f.kind == ShardFailureKind::Spawn));
        assert!(!run.is_complete());
    }
}
