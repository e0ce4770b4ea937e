//! The worker side: evaluate cells of a grid's canonical deduplicated
//! cell range and send them to the coordinator as cache records.
//!
//! A worker is deliberately dumb; all scheduling, merging and failure
//! policy live in the coordinator. It is a function of its arguments and
//! its stdin, and it touches no file. It repeatedly asks the coordinator
//! for a cell-range lease (a `lease-request` line on stdout, answered on
//! stdin), evaluates every granted cell batch by batch, sends each
//! batch's records as a record frame on stdout and announces
//! `lease-done` — so a worker that dies mid-run has still delivered
//! every batch it sent. Once retired it sends its telemetry the same
//! way. Stdout is the worker's one machine channel; stderr is plain text
//! for humans.
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
    format_lease_done, format_lease_request, parse_lease_reply, LeaseReply, Payload, WorkerSpec,
};

/// How many batches a worker splits each lease into. Each batch is one
/// `resolve_cells` pass followed by its record frame, which restarts the
/// coordinator's stall clock, so more batches mean finer-grained
/// liveness at the cost of re-planning series across batch boundaries;
/// four keeps that overhead marginal while a stuck worker is still
/// spotted within a quarter of its lease.
const PROGRESS_CHUNKS: usize = 4;

/// The exit code of a worker killed by its own [`FaultPlan`] — distinct
/// from real failure codes so a fault test that fails for an unplanned
/// reason is distinguishable in the ledger.
const FAULT_EXIT: i32 = 86;

/// The `shard-worker` process: the one entry point behind
/// `harness shard-worker` and the crate's test worker binary.
///
/// Decodes a [`WorkerSpec`] from `args`, runs the lease loop over this
/// process's stdin and stdout, then prints its accounting line to
/// stderr. Returns the process exit code: 0 on success, 1 if the run
/// failed, 2 for malformed arguments.
#[must_use]
pub fn worker_main(args: &[String]) -> i32 {
    let spec = match WorkerSpec::from_args(args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut stdout = io::BufWriter::new(io::stdout().lock());
    let run = run_lease_worker(
        &spec,
        &worker_metrics(&spec),
        &mut io::stdin().lock(),
        &mut stdout,
    )
    .and_then(|cells| stdout.flush().map(|()| cells));
    match run {
        Ok(cells) => {
            eprintln!(
                "shard {}/{}: {cells} cells evaluated",
                spec.shard, spec.shard_count
            );
            0
        }
        Err(e) => {
            eprintln!("shard {}/{} failed: {e}", spec.shard, spec.shard_count);
            1
        }
    }
}

/// The worker's registry. Its tracer is live exactly when the
/// coordinator asked for a trace: the worker's span events (and their
/// thread ids) land in the merged timeline alongside the coordinator's
/// own.
fn worker_metrics(spec: &WorkerSpec) -> Metrics {
    let tracer = if spec.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    Metrics::enabled_with_tracer(&tracer)
}

/// Writes one length-prefixed payload: its header line, then its bytes.
fn write_payload(
    out: &mut dyn Write,
    spec: &WorkerSpec,
    payload: Payload,
    bytes: &[u8],
) -> io::Result<()> {
    writeln!(
        out,
        "{}",
        payload.header(spec.shard, spec.shard_count, bytes.len())
    )?;
    out.write_all(bytes)
}

/// The lease loop, factored over abstract reply/output streams so the
/// protocol state machine is unit-testable with scripted replies.
/// `out` is the worker's stdout (requests, record frames, `lease-done`,
/// and the telemetry that ends it); `replies` is its stdin (grants,
/// retire). Returns the cells of the leases it completed.
fn run_lease_worker(
    spec: &WorkerSpec,
    metrics: &Metrics,
    replies: &mut dyn BufRead,
    out: &mut dyn Write,
) -> io::Result<usize> {
    let grid = spec.recipe.build();
    let unique = grid.unique_cells();
    let interner = KeyInterner::new(&grid);

    let mut working = ResultCache::new();
    working.set_metrics(metrics);
    let executor = GridExecutor::parallel(spec.threads).with_metrics(metrics);

    let mut evaluated = 0usize; // cells so far — the fault trigger
    let mut completed = 0usize; // cells of fully completed leases

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

        let cells = &unique[range.clone()];
        let batch_size = cells.len().div_ceil(PROGRESS_CHUNKS).max(1);
        for batch in cells.chunks(batch_size) {
            let first_frame = evaluated == 0;
            executor.resolve_cells(&grid, batch, &mut working);
            evaluated += batch.len();

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

            let records: Vec<(String, CellOutcome)> = batch
                .iter()
                .map(|cell| {
                    let key = interner.resolve(interner.key(cell));
                    let outcome = working.get(&key).expect("resolve_cells covered it");
                    (key, outcome)
                })
                .collect();
            let frame = |records: &[(String, CellOutcome)]| {
                encode_frame(records.iter().map(|(key, outcome)| (key.as_str(), outcome)))
            };
            match spec.fault {
                Some(FaultPlan::TruncateFlush) if first_frame => {
                    // Send half the batch, then tear the stream inside a
                    // frame whose bytes never arrive, and die. The frame
                    // sent whole must survive recovery.
                    let half = frame(&records[..records.len() / 2]);
                    write_payload(out, spec, Payload::Records, &half)?;
                    writeln!(
                        out,
                        "{}",
                        Payload::Records.header(spec.shard, spec.shard_count, 64)
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
                    write_payload(out, spec, Payload::Records, &junk)?;
                }
                _ => write_payload(out, spec, Payload::Records, &frame(&records))?,
            }
            out.flush()?;
        }

        completed += cells.len();
        writeln!(
            out,
            "{}",
            format_lease_done(spec.shard, spec.shard_count, &range)
        )?;
    }

    // Telemetry goes last, once no lease is left to time.
    let stats = metrics.snapshot().to_json();
    write_payload(out, spec, Payload::Stats, stats.as_bytes())?;
    if spec.trace {
        let trace = metrics.tracer().snapshot().to_chrome_json();
        write_payload(out, spec, Payload::Trace, trace.as_bytes())?;
    }
    Ok(completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{format_lease_reply, read_message, WorkerMessage};
    use crate::recipe::GridRecipe;
    use memstream_grid::decode_frame;
    use memstream_grid::telemetry::{parse_histograms, TraceSnapshot};
    use std::io::Cursor;

    fn lease_spec(recipe: GridRecipe) -> WorkerSpec {
        WorkerSpec {
            shard: 0,
            shard_count: 1,
            threads: 1,
            trace: false,
            fault: None,
            recipe,
        }
    }

    /// The coordinator's side of a conversation: one reply line each.
    fn script(replies: &[LeaseReply]) -> Cursor<Vec<u8>> {
        let lines: Vec<String> = replies.iter().map(format_lease_reply).collect();
        Cursor::new((lines.join("\n") + "\n").into_bytes())
    }

    /// One lease loop run: the cells it completed, and its stdout read
    /// back the coordinator's way — the messages in order, every record
    /// the frames carried and the last telemetry payload of each kind.
    struct Run {
        completed: usize,
        messages: Vec<WorkerMessage>,
        records: Vec<(String, CellOutcome)>,
        stats: Option<String>,
        trace: Option<String>,
    }

    fn run(spec: &WorkerSpec, mut replies: Cursor<Vec<u8>>) -> io::Result<Run> {
        let mut out = Vec::new();
        let completed = run_lease_worker(spec, &worker_metrics(spec), &mut replies, &mut out)?;
        let mut stdout = Cursor::new(out);
        let (mut messages, mut records, mut frame) = (Vec::new(), Vec::new(), Vec::new());
        let (mut stats, mut trace) = (None, None);
        while let Some(message) = read_message(&mut stdout, &mut frame).unwrap() {
            let text = || Some(String::from_utf8(frame.clone()).expect("UTF-8 telemetry"));
            match message {
                WorkerMessage::Payload(Payload::Records) => {
                    let (decoded, damage) = decode_frame(&frame);
                    assert_eq!(damage, None, "an honest worker sends whole frames");
                    records.extend(decoded);
                }
                WorkerMessage::Payload(Payload::Stats) => stats = text(),
                WorkerMessage::Payload(Payload::Trace) => trace = text(),
                _ => {}
            }
            messages.push(message);
        }
        Ok(Run {
            completed,
            messages,
            records,
            stats,
            trace,
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
        assert_eq!(run.completed, range.len());
        let keys: Vec<String> = unique[range].iter().map(|c| grid.dedup_key(c)).collect();
        let sent: Vec<String> = run.records.into_iter().map(|(key, _)| key).collect();
        assert_eq!(sent, keys);
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
        assert_eq!(run.completed, len);

        // One frame per batch of each lease.
        let batches = |cells: usize| cells.div_ceil(cells.div_ceil(PROGRESS_CHUNKS));
        let per_lease = [batches(split), batches(len - split)];
        let count = |wanted: &WorkerMessage| run.messages.iter().filter(|m| *m == wanted).count();
        assert_eq!(count(&WorkerMessage::Request), 3, "one request per reply");
        // Each lease's frames come before its `lease-done`.
        let mut frames = 0;
        let mut done = Vec::new();
        for message in &run.messages {
            match message {
                WorkerMessage::Payload(Payload::Records) => frames += 1,
                WorkerMessage::Done(range) => {
                    done.push(range.clone());
                    assert_eq!(frames, per_lease[..done.len()].iter().sum::<usize>());
                }
                _ => {}
            }
        }
        assert_eq!(frames, per_lease[0] + per_lease[1]);
        assert_eq!(done, vec![0..split, split..len]);
        let sent: Vec<String> = run.records.into_iter().map(|(key, _)| key).collect();
        let keys: Vec<String> = unique.iter().map(|c| grid.dedup_key(c)).collect();
        assert_eq!(sent, keys, "every cell, in lease order");
    }

    #[test]
    fn telemetry_follows_the_last_lease_on_stdout() {
        // After retiring, the worker sends its snapshot and, when asked
        // for a trace, its trace fragment: both parse the way the
        // coordinator reads them, and nothing follows them.
        let recipe = GridRecipe::classic(4);
        let len = recipe.build().unique_cells().len();
        for trace in [false, true] {
            let mut spec = lease_spec(recipe.clone());
            spec.trace = trace;
            let run = run(
                &spec,
                script(&[LeaseReply::Grant(0..len), LeaseReply::Retire]),
            )
            .unwrap();
            let retired = run
                .messages
                .iter()
                .rposition(|m| *m == WorkerMessage::Request)
                .expect("a final request");
            let telemetry: &[WorkerMessage] = if trace {
                &[
                    WorkerMessage::Payload(Payload::Stats),
                    WorkerMessage::Payload(Payload::Trace),
                ]
            } else {
                &[WorkerMessage::Payload(Payload::Stats)]
            };
            assert_eq!(&run.messages[retired + 1..], telemetry, "trace {trace}");
            let histograms = parse_histograms(&run.stats.expect("stats sent")).unwrap();
            let eval = histograms
                .iter()
                .find(|h| h.name == "grid.series_eval")
                .expect("the eval histogram");
            assert!(eval.count > 0);
            assert_eq!(run.trace.is_some(), trace);
            if let Some(text) = run.trace {
                let fragment = TraceSnapshot::from_chrome_json(&text).unwrap();
                assert!(fragment.events.iter().any(|e| e.name == "grid.explore"));
            }
        }
    }

    #[test]
    fn lease_loop_stops_cleanly_when_the_coordinator_hangs_up() {
        let recipe = GridRecipe::classic(4);
        let len = recipe.build().unique_cells().len();
        assert!(2 <= len);
        // One grant, then EOF: the coordinator hung up.
        let run = run(&lease_spec(recipe), script(&[LeaseReply::Grant(0..2)])).unwrap();
        assert_eq!(run.completed, 2);
        assert_eq!(run.records.len(), 2, "the completed lease was sent");
        let tail = &run.messages[run.messages.len() - 2..];
        assert_eq!(
            tail,
            [
                WorkerMessage::Request,
                WorkerMessage::Payload(Payload::Stats)
            ]
        );
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
}
