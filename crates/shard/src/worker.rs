//! The worker side: evaluate cells of a grid's canonical deduplicated
//! cell range and send them to the coordinator as cache records.
//!
//! A worker is deliberately dumb; all scheduling, merging and failure
//! policy live in the coordinator. It repeatedly asks the coordinator
//! for a cell-range lease (a `lease-request` line on stdout, answered on
//! stdin), resolves the granted cells batch by batch, sends each batch's
//! freshly evaluated records as a record frame on stdout and announces
//! `lease-done` — so a worker that dies mid-run has still delivered
//! every batch it sent. Stdout is the worker's one machine channel;
//! stderr is plain text for humans.
//!
//! A [`FaultPlan`] makes a worker misbehave at a deterministic point;
//! the fault-injection suite drives it to prove the coordinator's
//! recovery machinery preserves byte-identity.

use std::io::{self, BufRead, Write};
use std::time::Duration;

use memstream_grid::telemetry::Tracer;
use memstream_grid::{encode_frame, CellOutcome, GridExecutor, KeyInterner, Metrics, ResultCache};

use crate::fault::FaultPlan;
use crate::protocol::{
    format_lease_done, format_lease_records, format_lease_request, format_progress,
    parse_lease_reply, LeaseReply, WorkerSpec,
};

/// How many batches a worker splits each lease into. Each batch is one
/// `resolve_cells` pass followed by its record frame and a heartbeat,
/// so more batches mean finer-grained liveness at the cost of
/// re-planning series across batch boundaries; four keeps that overhead
/// marginal while a stuck worker is still spotted within a quarter of
/// its lease.
const PROGRESS_CHUNKS: usize = 4;

/// The exit code of a worker killed by its own [`FaultPlan`] — distinct
/// from real failure codes so a fault test that fails for an unplanned
/// reason is distinguishable in the ledger.
const FAULT_EXIT: i32 = 86;

/// What one worker run did (the numbers of its stderr accounting line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkerSummary {
    /// Cells assigned to this worker: the union of its completed leases.
    assigned: usize,
    /// Cells resolved from the warm cache without evaluation.
    warm_hits: usize,
    /// Cells freshly evaluated by this worker.
    evaluated: usize,
}

/// The `shard-worker` process: the one entry point behind
/// `harness shard-worker` and the crate's test worker binary.
///
/// Decodes a [`WorkerSpec`] from `args` (a [`crate::FAULT_PLAN_ENV`]
/// plan applies when `--fault-plan` is absent), runs the lease loop over
/// this process's stdin and stdout, then prints its accounting line to
/// stderr and writes the `--stats-json` snapshot and `--trace` fragment
/// it was asked for. Returns the process exit code: 0 on success, 1 if
/// the run failed, 2 for malformed arguments or an unwritable stats or
/// trace file.
#[must_use]
pub fn worker_main(args: &[String]) -> i32 {
    let mut spec = match WorkerSpec::from_args(args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // The env seam (`MEMSTREAM_FAULT_PLAN=shard=K:PLAN`) injects a fault
    // without the coordinator's cooperation — how CI kills one worker of
    // a real `--shards` run. An explicit --fault-plan wins.
    if spec.fault.is_none() {
        spec.fault = FaultPlan::from_env(spec.shard);
    }
    // The tracer is live exactly when the coordinator asked for a
    // fragment file: the worker's span events (and their thread ids)
    // land in the merged timeline alongside the coordinator's own.
    let tracer = if spec.trace.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let metrics = Metrics::enabled_with_tracer(&tracer);
    let mut stdout = io::BufWriter::new(io::stdout().lock());
    let run = run_lease_worker(&spec, &metrics, &mut io::stdin().lock(), &mut stdout)
        .and_then(|summary| stdout.flush().map(|()| summary));
    let summary = match run {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("shard {}/{} failed: {e}", spec.shard, spec.shard_count);
            return 1;
        }
    };
    eprintln!(
        "shard {}/{}: {} cells assigned, {} warm hits, {} evaluated",
        spec.shard, spec.shard_count, summary.assigned, summary.warm_hits, summary.evaluated
    );
    if let Some(path) = &spec.stats_json {
        if let Err(e) = std::fs::write(path, metrics.snapshot().to_json()) {
            eprintln!("stats-json write error: {}: {e}", path.display());
            return 2;
        }
    }
    if let Some(path) = &spec.trace {
        if let Err(e) = std::fs::write(path, tracer.snapshot().to_chrome_json()) {
            eprintln!("trace write error: {}: {e}", path.display());
            return 2;
        }
    }
    0
}

/// Writes one record frame: its `lease-records` header line, then the
/// frame's bytes.
fn write_frame(out: &mut dyn Write, spec: &WorkerSpec, frame: &[u8]) -> io::Result<()> {
    writeln!(
        out,
        "{}",
        format_lease_records(spec.shard, spec.shard_count, frame.len())
    )?;
    out.write_all(frame)
}

/// The lease loop, factored over abstract reply/output streams so the
/// protocol state machine is unit-testable with scripted replies.
/// `out` is the worker's stdout (requests, record frames, heartbeats,
/// `lease-done`); `replies` is its stdin (grants, retire).
fn run_lease_worker(
    spec: &WorkerSpec,
    metrics: &Metrics,
    replies: &mut dyn BufRead,
    out: &mut dyn Write,
) -> io::Result<WorkerSummary> {
    let grid = spec.recipe.build();
    let unique = grid.unique_cells();
    let interner = KeyInterner::new(&grid);

    let mut working = load_warm(spec, metrics)?;
    working.set_metrics(metrics);
    let executor = GridExecutor::parallel(spec.threads).with_metrics(metrics);

    let mut evaluated = 0usize; // fresh cells so far — the fault trigger
    let mut completed = 0usize; // cells of fully completed leases
    let mut granted = 0usize; // cells ever granted
    let mut sent_any = false;

    loop {
        writeln!(
            out,
            "{}",
            format_lease_request(spec.shard, spec.shard_count)
        )?;
        // The reply is read next: everything before it must be out.
        out.flush()?;
        let mut line = String::new();
        if replies.read_line(&mut line)? == 0 {
            // Coordinator hung up (it may have died); delivered leases are
            // already sent, so just stop asking.
            break;
        }
        let range = match parse_lease_reply(line.trim_end()) {
            Some(LeaseReply::Retire) => break,
            Some(LeaseReply::Grant(range)) => range,
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("coordinator reply is not a lease line: {line:?}"),
                ));
            }
        };
        if range.end > unique.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "lease grant {}..{} overruns the {}-cell range",
                    range.start,
                    range.end,
                    unique.len()
                ),
            ));
        }
        granted += range.len();

        let cells = &unique[range.clone()];
        let batch_size = cells.len().div_ceil(PROGRESS_CHUNKS).max(1);
        let mut done_in_lease = 0usize;
        for batch in cells.chunks(batch_size) {
            let fresh: Vec<String> = batch
                .iter()
                .map(|cell| interner.resolve(interner.key(cell)))
                .filter(|key| !working.contains_key(key))
                .collect();
            executor.resolve_cells(&grid, batch, &mut working);
            evaluated += fresh.len();
            done_in_lease += batch.len();

            match spec.fault {
                Some(FaultPlan::DieAfterCells(k)) if evaluated >= k => {
                    // Abrupt death: no frame for this batch, no
                    // lease-done — the coordinator must reclaim.
                    std::process::exit(FAULT_EXIT);
                }
                Some(FaultPlan::StallAfterCells(k)) if evaluated >= k => loop {
                    // Hold the lease forever without a single further
                    // line; only the coordinator's deadline can end this.
                    std::thread::sleep(Duration::from_secs(60));
                },
                _ => {}
            }

            let outcomes: Vec<CellOutcome> = fresh
                .iter()
                .map(|key| {
                    working
                        .get(key)
                        .expect("resolve_cells covered every granted cell")
                })
                .collect();
            let records: Vec<(&str, &CellOutcome)> = fresh
                .iter()
                .map(String::as_str)
                .zip(outcomes.iter())
                .collect();
            let first_frame = !sent_any && !records.is_empty();
            sent_any = sent_any || !records.is_empty();
            match spec.fault {
                Some(FaultPlan::TruncateFlush) if first_frame => {
                    // Send half the batch, then tear the stream inside a
                    // frame whose bytes never arrive, and die. The frame
                    // sent whole must survive recovery.
                    let half = records.len() / 2;
                    write_frame(out, spec, &encode_frame(records[..half].iter().copied()))?;
                    writeln!(
                        out,
                        "{}",
                        format_lease_records(spec.shard, spec.shard_count, 64)
                    )?;
                    out.write_all(&[0xAB; 7])?;
                    out.flush()?;
                    std::process::exit(FAULT_EXIT);
                }
                Some(FaultPlan::CorruptFlush) if first_frame => {
                    // A complete frame holding one undecodable record
                    // instead of the batch; then carry on lying
                    // (`lease-done` below for work never delivered).
                    let mut junk = 8u32.to_le_bytes().to_vec();
                    junk.extend_from_slice(&[0xAB; 8]);
                    write_frame(out, spec, &junk)?;
                }
                _ if records.is_empty() => {}
                _ => write_frame(out, spec, &encode_frame(records))?,
            }
            writeln!(
                out,
                "{}",
                format_progress(
                    spec.shard,
                    spec.shard_count,
                    completed + done_in_lease,
                    granted
                )
            )?;
            out.flush()?;
        }

        completed += cells.len();
        writeln!(
            out,
            "{}",
            format_lease_done(spec.shard, spec.shard_count, &range)
        )?;
    }

    Ok(WorkerSummary {
        assigned: completed,
        warm_hits: working.hits(),
        evaluated: working.misses(),
    })
}

/// Lenient warm load, inside the `cache.load` span: a stale or
/// truncated warm file costs re-evaluation, never correctness. The load
/// is lazy: the warm file is indexed, not decoded — warm planning probes
/// the index and only the cells this worker actually touches are ever
/// decoded.
fn load_warm(spec: &WorkerSpec, metrics: &Metrics) -> io::Result<ResultCache> {
    match &spec.warm {
        Some(path) => ResultCache::open(path, metrics),
        None => Ok(ResultCache::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{format_lease_reply, read_message, WorkerMessage};
    use crate::recipe::GridRecipe;
    use memstream_grid::{decode_frame, CacheFormat};
    use std::io::Cursor;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "memstream-shard-worker-tests-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn lease_spec(recipe: GridRecipe) -> WorkerSpec {
        WorkerSpec {
            shard: 0,
            shard_count: 1,
            warm: None,
            threads: 1,
            stats_json: None,
            trace: None,
            fault: None,
            recipe,
        }
    }

    /// The coordinator's side of a conversation: one reply line each.
    fn script(replies: &[LeaseReply]) -> Cursor<Vec<u8>> {
        let lines: Vec<String> = replies.iter().map(format_lease_reply).collect();
        Cursor::new((lines.join("\n") + "\n").into_bytes())
    }

    /// One lease loop run: its summary, and its stdout read back the
    /// coordinator's way — the messages in order and every record the
    /// frames carried.
    struct Run {
        summary: WorkerSummary,
        messages: Vec<WorkerMessage>,
        records: Vec<(String, CellOutcome)>,
    }

    fn run(spec: &WorkerSpec, mut replies: Cursor<Vec<u8>>) -> io::Result<Run> {
        let mut out = Vec::new();
        let summary = run_lease_worker(spec, &Metrics::disabled(), &mut replies, &mut out)?;
        let mut stdout = Cursor::new(out);
        let (mut messages, mut records, mut frame) = (Vec::new(), Vec::new(), Vec::new());
        while let Some(message) = read_message(&mut stdout, &mut frame).unwrap() {
            if message == WorkerMessage::Records {
                let (decoded, damage) = decode_frame(&frame);
                assert_eq!(damage, None, "an honest worker sends whole frames");
                records.extend(decoded);
            }
            messages.push(message);
        }
        Ok(Run {
            summary,
            messages,
            records,
        })
    }

    #[test]
    fn worker_emits_exactly_its_slice() {
        // A lease from the middle of the range: exactly its cells reach
        // stdout, nothing before or after it.
        let recipe = GridRecipe::classic(4);
        let grid = recipe.build();
        let unique = grid.unique_cells();
        let range = unique.len() / 3..2 * unique.len() / 3;
        let replies = script(&[LeaseReply::Grant(range.clone()), LeaseReply::Retire]);
        let run = run(&lease_spec(recipe), replies).unwrap();
        assert_eq!(run.summary.assigned, range.len());
        assert_eq!(run.summary.evaluated, range.len());
        assert_eq!(run.summary.warm_hits, 0);
        let keys: Vec<String> = unique[range].iter().map(|c| grid.dedup_key(c)).collect();
        let sent: Vec<String> = run.records.into_iter().map(|(key, _)| key).collect();
        assert_eq!(sent, keys);
    }

    #[test]
    fn warm_cells_are_not_re_evaluated() {
        // A fully warm file, read through the lazy view: the worker
        // evaluates nothing and sends no frame.
        let recipe = GridRecipe::classic(4);
        let grid = recipe.build();
        let len = grid.unique_cells().len();
        let warm_path = temp_path("warm.cache");
        let mut warm = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut warm)
            .unwrap();
        warm.save_as(&warm_path, CacheFormat::default()).unwrap();

        let mut spec = lease_spec(recipe);
        spec.warm = Some(warm_path.clone());
        let run = run(
            &spec,
            script(&[LeaseReply::Grant(0..len), LeaseReply::Retire]),
        )
        .unwrap();
        assert_eq!(run.summary.evaluated, 0);
        assert_eq!(run.summary.warm_hits, run.summary.assigned);
        assert_eq!(run.summary.assigned, len);
        assert!(!run.messages.contains(&WorkerMessage::Records));
        std::fs::remove_file(warm_path).unwrap();
    }

    #[test]
    fn lease_loop_flushes_each_grant_before_announcing_done() {
        let recipe = GridRecipe::classic(4);
        let grid = recipe.build();
        let unique = grid.unique_cells();
        let len = unique.len();
        assert!(len >= 4, "classic(4) grid is big enough to split");
        let split = len / 2;
        let replies = script(&[
            LeaseReply::Grant(0..split),
            LeaseReply::Grant(split..len),
            LeaseReply::Retire,
        ]);
        let run = run(&lease_spec(recipe), replies).unwrap();
        assert_eq!(run.summary.assigned, len);
        assert_eq!(run.summary.evaluated, len);

        // One frame and one heartbeat per batch of each lease.
        let batches = |cells: usize| cells.div_ceil(cells.div_ceil(PROGRESS_CHUNKS));
        let per_lease = [batches(split), batches(len - split)];
        let count = |wanted: &WorkerMessage| run.messages.iter().filter(|m| *m == wanted).count();
        assert_eq!(count(&WorkerMessage::Request), 3, "one request per reply");
        assert_eq!(count(&WorkerMessage::Progress), per_lease[0] + per_lease[1]);
        // Each lease's frames come before its `lease-done`.
        let mut frames = 0;
        let mut done = Vec::new();
        for message in &run.messages {
            match message {
                WorkerMessage::Records => frames += 1,
                WorkerMessage::Done(range) => {
                    done.push(range.clone());
                    assert_eq!(frames, per_lease[..done.len()].iter().sum::<usize>());
                }
                _ => {}
            }
        }
        assert_eq!(done, vec![0..split, split..len]);
        let sent: Vec<String> = run.records.into_iter().map(|(key, _)| key).collect();
        let keys: Vec<String> = unique.iter().map(|c| grid.dedup_key(c)).collect();
        assert_eq!(sent, keys, "every cell, in lease order");
    }

    #[test]
    fn lease_loop_stops_cleanly_when_the_coordinator_hangs_up() {
        let recipe = GridRecipe::classic(4);
        let len = recipe.build().unique_cells().len();
        assert!(2 <= len);
        // One grant, then EOF: the coordinator hung up.
        let run = run(&lease_spec(recipe), script(&[LeaseReply::Grant(0..2)])).unwrap();
        assert_eq!(run.summary.assigned, 2);
        assert_eq!(run.records.len(), 2, "the completed lease was sent");
        assert_eq!(run.messages.last(), Some(&WorkerMessage::Request));
    }

    #[test]
    fn out_of_range_grants_and_junk_replies_are_protocol_errors() {
        let recipe = GridRecipe::classic(4);
        let len = recipe.build().unique_cells().len();
        for bad in [
            format_lease_reply(&LeaseReply::Grant(0..len + 1)),
            "who goes there".to_owned(),
        ] {
            let replies = Cursor::new((bad.clone() + "\n").into_bytes());
            let err = run(&lease_spec(recipe.clone()), replies).err().unwrap();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
    }

    #[test]
    fn warm_cells_are_not_flushed_in_lease_mode() {
        // The coordinator already holds warm records; re-sending them
        // would be wasted bytes (and a dedup hazard). Only fresh cells
        // may appear in the frames.
        let recipe = GridRecipe::classic(4);
        let grid = recipe.build();
        let unique = grid.unique_cells();
        let len = unique.len();
        let warm_path = temp_path("lease-warm.cache");
        let mut warm = ResultCache::new();
        GridExecutor::serial().resolve_cells(&grid, &unique[0..2], &mut warm);
        warm.save_as(&warm_path, CacheFormat::default()).unwrap();

        let mut spec = lease_spec(recipe);
        spec.warm = Some(warm_path.clone());
        let run = run(
            &spec,
            script(&[LeaseReply::Grant(0..len), LeaseReply::Retire]),
        )
        .unwrap();
        assert_eq!(run.summary.assigned, len);
        assert_eq!(run.summary.evaluated, len - 2);
        assert_eq!(run.summary.warm_hits, 2);
        assert_eq!(run.records.len(), len - 2, "warm cells stay out");
        for (key, _) in &run.records {
            assert!(!warm.contains_key(key), "warm key {key} was sent");
        }
        std::fs::remove_file(warm_path).unwrap();
    }
}
