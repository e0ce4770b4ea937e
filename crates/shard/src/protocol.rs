//! The coordinator ↔ worker wire protocol.
//!
//! A [`WorkerSpec`] round-trips losslessly through the command line of
//! the harness's `shard-worker` subcommand: the coordinator encodes one
//! with [`WorkerSpec::to_args`], spawns
//! `harness shard-worker <args>`, and the subcommand decodes it with
//! [`WorkerSpec::from_args`]. Rate-axis samples travel as Rust's
//! shortest-roundtrip `f64` text, so the worker rebuilds a grid whose
//! dedup keys are byte-identical to the coordinator's — the property the
//! whole cache-union merge rests on.
//!
//! Beyond the command line, this module also defines the **lease
//! protocol** (`docs/SHARD_PROTOCOL.md`): the worker's stdout is its one
//! machine channel — newline-delimited request/done lines, its
//! `shard-progress` heartbeats and its records, each batch a
//! `lease-records` line followed by a record frame — read back by
//! [`read_message`]; the coordinator writes grant/retire replies to the
//! worker's stdin.

use std::fmt;
use std::io::{self, BufRead, Read as _};
use std::ops::Range;
use std::path::PathBuf;

use memstream_units::BitRate;

use crate::fault::FaultPlan;
use crate::recipe::GridRecipe;

/// A malformed `shard-worker` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    message: String,
}

impl ProtocolError {
    fn new(message: impl Into<String>) -> Self {
        ProtocolError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad shard-worker arguments: {}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// Everything one worker process needs to know, as a value.
///
/// Paths are carried as their `Display` form, so they must be valid
/// UTF-8; the coordinator only ever generates ASCII scratch paths.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpec {
    /// 0-based shard index.
    pub shard: usize,
    /// Total shard count (the number of workers sharing the lease queue).
    pub shard_count: usize,
    /// An optional warm cache to read before evaluating (the
    /// coordinator's accumulated entries); cells found there are not
    /// re-evaluated.
    pub warm: Option<PathBuf>,
    /// Worker-internal thread count (`0` = machine width).
    pub threads: usize,
    /// Write the worker's telemetry snapshot as JSON to this path when
    /// the run completes.
    pub stats_json: Option<PathBuf>,
    /// Write the worker's trace events as Chrome trace JSON to this path
    /// when the run completes (the coordinator collects the fragments and
    /// merges them into the run-wide timeline).
    pub trace: Option<PathBuf>,
    /// A deterministic misbehaviour for the fault-injection test layer
    /// (hidden `--fault-plan`; absent from the wire when `None`).
    pub fault: Option<FaultPlan>,
    /// The grid whose cells the leases index.
    pub recipe: GridRecipe,
}

impl WorkerSpec {
    /// Encodes the spec as `shard-worker` command-line arguments.
    #[must_use]
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--shard".to_owned(),
            format!("{}/{}", self.shard, self.shard_count),
            "--threads".to_owned(),
            self.threads.to_string(),
            "--rates".to_owned(),
            self.recipe.rates().to_string(),
        ];
        if self.recipe.is_classic() {
            args.push("--classic".to_owned());
        }
        if let Some(axis) = self.recipe.rate_axis() {
            args.push("--rate-list".to_owned());
            args.push(
                axis.iter()
                    .map(|r| format!("{:?}", r.bits_per_second()))
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        if let Some(warm) = &self.warm {
            args.push("--warm".to_owned());
            args.push(warm.display().to_string());
        }
        if let Some(path) = &self.stats_json {
            args.push("--stats-json".to_owned());
            args.push(path.display().to_string());
        }
        if let Some(path) = &self.trace {
            args.push("--trace".to_owned());
            args.push(path.display().to_string());
        }
        if let Some(plan) = &self.fault {
            args.push("--fault-plan".to_owned());
            args.push(plan.to_string());
        }
        args
    }

    /// Decodes a spec from `shard-worker` command-line arguments.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on unknown flags, missing values, out-of-range
    /// shard coordinates or unparseable numbers.
    pub fn from_args(args: &[String]) -> Result<Self, ProtocolError> {
        let mut shard: Option<(usize, usize)> = None;
        let mut warm: Option<PathBuf> = None;
        let mut threads = 0usize;
        let mut rates = 2usize;
        let mut classic = false;
        let mut rate_list: Option<Vec<BitRate>> = None;
        let mut stats_json: Option<PathBuf> = None;
        let mut trace: Option<PathBuf> = None;
        let mut fault: Option<FaultPlan> = None;

        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| ProtocolError::new(format!("missing value for {flag}")))
            };
            match flag.as_str() {
                "--shard" => {
                    let raw = value()?;
                    let (i, n) = raw
                        .split_once('/')
                        .ok_or_else(|| ProtocolError::new(format!("--shard `{raw}` is not i/N")))?;
                    let parse = |s: &str| {
                        s.parse::<usize>().map_err(|e| {
                            ProtocolError::new(format!("--shard `{raw}` has a bad number: {e}"))
                        })
                    };
                    shard = Some((parse(i)?, parse(n)?));
                }
                "--warm" => warm = Some(PathBuf::from(value()?)),
                "--threads" => {
                    threads = value()?
                        .parse()
                        .map_err(|e| ProtocolError::new(format!("bad --threads: {e}")))?;
                }
                "--rates" => {
                    rates = value()?
                        .parse()
                        .map_err(|e| ProtocolError::new(format!("bad --rates: {e}")))?;
                }
                "--classic" => classic = true,
                "--stats-json" => stats_json = Some(PathBuf::from(value()?)),
                "--trace" => trace = Some(PathBuf::from(value()?)),
                "--fault-plan" => {
                    fault = Some(value()?.parse().map_err(ProtocolError::new)?);
                }
                "--rate-list" => {
                    let raw = value()?;
                    let mut axis = Vec::new();
                    for field in raw.split(',').filter(|f| !f.is_empty()) {
                        let bps: f64 = field.parse().map_err(|e| {
                            ProtocolError::new(format!("bad --rate-list entry `{field}`: {e}"))
                        })?;
                        axis.push(BitRate::from_bits_per_second(bps));
                    }
                    rate_list = Some(axis);
                }
                other => return Err(ProtocolError::new(format!("unknown flag `{other}`"))),
            }
        }

        let (shard, shard_count) =
            shard.ok_or_else(|| ProtocolError::new("--shard i/N is required"))?;
        if shard_count == 0 || shard >= shard_count {
            return Err(ProtocolError::new(format!(
                "shard {shard}/{shard_count} is out of range"
            )));
        }
        if rates < 2 {
            return Err(ProtocolError::new("--rates must be at least 2"));
        }
        let mut recipe = GridRecipe::reference(classic, rates);
        if let Some(axis) = rate_list {
            recipe = recipe.with_rate_axis(axis);
        }
        Ok(WorkerSpec {
            shard,
            shard_count,
            warm,
            threads,
            stats_json,
            trace,
            fault,
            recipe,
        })
    }
}

/// The coordinator's reply to a [`format_lease_request`] line, written to
/// the worker's **stdin** (the only coordinator→worker channel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseReply {
    /// Evaluate cells `range` of the grid's canonical deduplicated cell
    /// range, send the fresh records, then send `lease-done`.
    Grant(Range<usize>),
    /// The queue is drained (or this worker is condemned): exit cleanly.
    Retire,
}

/// Renders a worker's lease request line: `lease-request i/N`. Sent on
/// stdout whenever the worker is idle; the coordinator answers on stdin
/// with a [`LeaseReply`] line.
#[must_use]
pub fn format_lease_request(shard: usize, shard_count: usize) -> String {
    format!("lease-request {shard}/{shard_count}")
}

/// Parses a [`format_lease_request`] line into `(shard, shard_count)`.
/// Any other line returns `None`.
#[must_use]
pub fn parse_lease_request(line: &str) -> Option<(usize, usize)> {
    let rest = line.strip_prefix("lease-request ")?;
    let (shard, count) = rest.split_once('/')?;
    Some((shard.parse().ok()?, count.parse().ok()?))
}

/// Renders a [`LeaseReply`] as its stdin line: `lease-grant a..b` or
/// `lease-retire`.
#[must_use]
pub fn format_lease_reply(reply: &LeaseReply) -> String {
    match reply {
        LeaseReply::Grant(range) => format!("lease-grant {}..{}", range.start, range.end),
        LeaseReply::Retire => "lease-retire".to_owned(),
    }
}

/// Parses a [`format_lease_reply`] line. Any other line returns `None` —
/// workers treat that as a protocol error and exit.
#[must_use]
pub fn parse_lease_reply(line: &str) -> Option<LeaseReply> {
    if line == "lease-retire" {
        return Some(LeaseReply::Retire);
    }
    let rest = line.strip_prefix("lease-grant ")?;
    let (start, end) = rest.split_once("..")?;
    let (start, end) = (start.parse().ok()?, end.parse().ok()?);
    (start <= end).then_some(LeaseReply::Grant(start..end))
}

/// Renders a worker's lease completion line: `lease-done i/N: a..b`,
/// sent on stdout after every record frame of the lease.
#[must_use]
pub fn format_lease_done(shard: usize, shard_count: usize, range: &Range<usize>) -> String {
    format!(
        "lease-done {shard}/{shard_count}: {}..{}",
        range.start, range.end
    )
}

/// Parses a [`format_lease_done`] line into `(shard, shard_count,
/// range)`. Any other line returns `None`.
#[must_use]
pub fn parse_lease_done(line: &str) -> Option<(usize, usize, Range<usize>)> {
    let rest = line.strip_prefix("lease-done ")?;
    let (coords, cells) = rest.split_once(": ")?;
    let (shard, count) = coords.split_once('/')?;
    let (start, end) = cells.split_once("..")?;
    let (start, end): (usize, usize) = (start.parse().ok()?, end.parse().ok()?);
    (start <= end).then_some((shard.parse().ok()?, count.parse().ok()?, start..end))
}

/// Renders one worker heartbeat line: `shard-progress i/N: done/total`.
/// Workers emit these lines on their stdout, the machine channel; the
/// coordinator consumes them with [`parse_progress`] and never forwards
/// them.
#[must_use]
pub fn format_progress(shard: usize, shard_count: usize, done: usize, total: usize) -> String {
    format!("shard-progress {shard}/{shard_count}: {done}/{total}")
}

/// Parses a worker heartbeat line produced by [`format_progress`],
/// returning `(shard, shard_count, cells_done, cells_total)`. Any other
/// line returns `None`.
#[must_use]
pub fn parse_progress(line: &str) -> Option<(usize, usize, usize, usize)> {
    let rest = line.strip_prefix("shard-progress ")?;
    let (coords, cells) = rest.split_once(": ")?;
    let (shard, shard_count) = coords.split_once('/')?;
    let (done, total) = cells.split_once('/')?;
    Some((
        shard.parse().ok()?,
        shard_count.parse().ok()?,
        done.parse().ok()?,
        total.parse().ok()?,
    ))
}

/// Renders the header of a record frame: `lease-records i/N: BYTES`,
/// sent on stdout and followed by exactly `BYTES` bytes of records
/// ([`memstream_grid::encode_frame`]).
#[must_use]
pub(crate) fn format_lease_records(shard: usize, shard_count: usize, bytes: usize) -> String {
    format!("lease-records {shard}/{shard_count}: {bytes}")
}

/// Parses a [`format_lease_records`] line into `(shard, shard_count,
/// bytes)`. Any other line returns `None`.
#[must_use]
pub(crate) fn parse_lease_records(line: &str) -> Option<(usize, usize, u64)> {
    let rest = line.strip_prefix("lease-records ")?;
    let (coords, bytes) = rest.split_once(": ")?;
    let (shard, count) = coords.split_once('/')?;
    Some((
        shard.parse().ok()?,
        count.parse().ok()?,
        bytes.parse().ok()?,
    ))
}

/// One message of a worker's stdout, as [`read_message`] reads it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum WorkerMessage {
    /// `lease-request i/N`.
    Request,
    /// `shard-progress i/N: done/total`.
    Progress,
    /// A `lease-records` line and the record frame that followed it,
    /// now in the caller's frame buffer.
    Records,
    /// `lease-done i/N: a..b`.
    Done(Range<usize>),
    /// A `lease-records` line that does not parse. Its frame length is
    /// unknown, so nothing after it can be read.
    BadRecords(String),
    /// Any other complete line: ignored, so new line forms can be added
    /// without breaking older coordinators.
    Unknown,
}

/// Reads the next message of a worker's stdout; a record frame replaces
/// the contents of `frame`, which grows only as the frame's bytes
/// arrive, whatever its header claims. `None` is the end of the stream,
/// and that includes a partial trailing line or a torn frame (the
/// stream ended inside it): both are dropped, never parsed.
///
/// # Errors
///
/// Propagates read errors of `reader`.
pub(crate) fn read_message(
    reader: &mut impl BufRead,
    frame: &mut Vec<u8>,
) -> io::Result<Option<WorkerMessage>> {
    let mut line = Vec::new();
    reader.read_until(b'\n', &mut line)?;
    if line.pop() != Some(b'\n') {
        return Ok(None);
    }
    let line = String::from_utf8_lossy(&line);
    let line = line.trim_end();
    if line.starts_with("lease-records") {
        let Some((_, _, bytes)) = parse_lease_records(line) else {
            return Ok(Some(WorkerMessage::BadRecords(line.to_owned())));
        };
        frame.clear();
        reader.take(bytes).read_to_end(frame)?;
        return Ok((frame.len() as u64 == bytes).then_some(WorkerMessage::Records));
    }
    Ok(Some(if parse_lease_request(line).is_some() {
        WorkerMessage::Request
    } else if parse_progress(line).is_some() {
        WorkerMessage::Progress
    } else if let Some((_, _, range)) = parse_lease_done(line) {
        WorkerMessage::Done(range)
    } else {
        WorkerMessage::Unknown
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_args() {
        let spec = WorkerSpec {
            shard: 2,
            shard_count: 5,
            warm: Some(PathBuf::from("/tmp/warm.cache")),
            threads: 3,
            stats_json: Some(PathBuf::from("/tmp/shard-2-stats.json")),
            trace: Some(PathBuf::from("/tmp/shard-2.trace.json")),
            fault: Some(FaultPlan::DieAfterCells(9)),
            recipe: GridRecipe::classic(7).with_rate_axis([
                BitRate::from_kbps(32.0),
                // A midpoint-style irrational rate: the shortest-roundtrip
                // encoding must carry it back bit-exactly.
                BitRate::from_bits_per_second(123_456.789_012_345_67),
            ]),
        };
        let parsed = WorkerSpec::from_args(&spec.to_args()).expect("roundtrip");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn minimal_spec_round_trips() {
        let spec = WorkerSpec {
            shard: 0,
            shard_count: 1,
            warm: None,
            threads: 0,
            stats_json: None,
            trace: None,
            fault: None,
            recipe: GridRecipe::baseline(24),
        };
        let args = spec.to_args();
        for absent in ["--trace", "--fault-plan"] {
            assert!(
                !args.iter().any(|a| a == absent),
                "`{absent}` off must stay off the wire (old coordinators reject it)"
            );
        }
        assert_eq!(WorkerSpec::from_args(&args).unwrap(), spec);
    }

    #[test]
    fn lease_lines_round_trip_and_reject_ordinary_stderr() {
        assert_eq!(format_lease_request(1, 4), "lease-request 1/4");
        assert_eq!(parse_lease_request("lease-request 1/4"), Some((1, 4)));
        assert_eq!(
            format_lease_reply(&LeaseReply::Grant(3..17)),
            "lease-grant 3..17"
        );
        assert_eq!(
            parse_lease_reply("lease-grant 3..17"),
            Some(LeaseReply::Grant(3..17))
        );
        assert_eq!(format_lease_reply(&LeaseReply::Retire), "lease-retire");
        assert_eq!(parse_lease_reply("lease-retire"), Some(LeaseReply::Retire));
        assert_eq!(format_lease_done(0, 2, &(5..9)), "lease-done 0/2: 5..9");
        assert_eq!(parse_lease_done("lease-done 0/2: 5..9"), Some((0, 2, 5..9)));
        assert_eq!(format_lease_records(1, 3, 77), "lease-records 1/3: 77");
        assert_eq!(
            parse_lease_records("lease-records 1/3: 18446744073709551615"),
            Some((1, 3, u64::MAX))
        );
        for junk in [
            "",
            "worker log line",
            "lease-request",
            "lease-request 1",
            "lease-grant 9..3",
            "lease-grant x..3",
            "lease-done 0/2: 9..3",
            "lease-done 0/2 5..9",
            "shard-progress 0/2: 3/4",
            "lease-records 0/2",
            "lease-records 0/2: -1",
            "lease-records 0/2: 18446744073709551616",
        ] {
            assert_eq!(parse_lease_request(junk), None, "{junk:?}");
            assert_eq!(parse_lease_reply(junk), None, "{junk:?}");
            assert_eq!(parse_lease_done(junk), None, "{junk:?}");
            assert_eq!(parse_lease_records(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn progress_lines_round_trip_and_reject_ordinary_stderr() {
        let line = format_progress(1, 4, 75, 300);
        assert_eq!(line, "shard-progress 1/4: 75/300");
        assert_eq!(parse_progress(&line), Some((1, 4, 75, 300)));
        for not_a_heartbeat in [
            "",
            "worker log line",
            "shard-progress",
            "shard-progress 1/4",
            "shard-progress 1/4: 75",
            "shard-progress one/4: 75/300",
            "shard-progress 1/4: 75/zap",
        ] {
            assert_eq!(parse_progress(not_a_heartbeat), None, "{not_a_heartbeat:?}");
        }
    }

    #[test]
    fn malformed_args_are_rejected_with_a_reason() {
        let cases: &[&[&str]] = &[
            &[],
            &["--shard", "3"],
            &["--shard", "3/3"],
            &["--shard", "0/2", "--bogus"],
            &["--shard", "0/2", "--cache", "x"],
            &["--shard", "0/2", "--stats"],
            &["--shard", "0/2", "--rate-list", "1,zap"],
            &["--shard", "0/2", "--rates", "1"],
        ];
        for case in cases {
            let args: Vec<String> = case.iter().map(|s| (*s).to_owned()).collect();
            let err = WorkerSpec::from_args(&args).unwrap_err();
            assert!(!err.to_string().is_empty(), "case {case:?}");
        }
    }

    /// A worker stdout stream: `lines`, each newline-terminated, with a
    /// record frame of `frame` inserted after the line that announces it.
    fn stream(lines: &[&str], frame: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for line in lines {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
            if line.starts_with("lease-records") {
                out.extend_from_slice(frame);
            }
        }
        out
    }

    /// Every message of `input`, each with the frame buffer as it left
    /// it, until the stream ends.
    fn messages(mut input: impl BufRead) -> Vec<(WorkerMessage, Vec<u8>)> {
        let mut frame = Vec::new();
        let mut seen = Vec::new();
        while let Some(message) = read_message(&mut input, &mut frame).unwrap() {
            seen.push((message, frame.clone()));
        }
        seen
    }

    #[test]
    fn worker_stdout_reads_as_lines_and_frames() {
        let frame = b"\n binary\x00bytes \n".to_vec();
        let mut input = stream(
            &[
                "lease-request 0/1",
                &format_lease_records(0, 1, frame.len()),
                "shard-progress 0/1: 1/2",
                "a line form this coordinator does not know",
                "lease-done 0/1: 0..2",
            ],
            &frame,
        );
        // A partial trailing line is the end of the stream, not a message.
        input.extend_from_slice(b"lease-done 0/1: 2..");
        let kinds: Vec<WorkerMessage> = messages(io::Cursor::new(input.clone()))
            .into_iter()
            .map(|(message, _)| message)
            .collect();
        use WorkerMessage::*;
        assert_eq!(kinds, [Request, Records, Progress, Unknown, Done(0..2)]);

        // A pipe delivering one byte per read changes nothing: a frame
        // split across reads arrives whole.
        struct OneByte(io::Cursor<Vec<u8>>);
        impl io::Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min(1);
                self.0.read(&mut buf[..n])
            }
        }
        let trickled = messages(io::BufReader::new(OneByte(io::Cursor::new(input))));
        assert_eq!(trickled[1], (Records, frame));
        assert_eq!(trickled.len(), 5);
    }

    #[test]
    fn torn_and_oversized_frames_end_the_stream_buffering_only_what_arrived() {
        for claimed in [64, u64::MAX / 2, u64::MAX] {
            let header = format!("lease-records 0/1: {claimed}");
            let input = stream(&["lease-request 0/1", &header], b"only these bytes");
            let mut input = io::Cursor::new(input);
            let mut frame = Vec::new();
            let first = read_message(&mut input, &mut frame).unwrap();
            assert_eq!(first, Some(WorkerMessage::Request));
            assert_eq!(read_message(&mut input, &mut frame).unwrap(), None);
            assert_eq!(frame, b"only these bytes", "claimed {claimed}");
            assert!(frame.capacity() < 4096, "reserved {}", frame.capacity());
        }
    }

    #[test]
    fn an_unparseable_records_line_is_damage_not_an_unknown_line() {
        for bad in [
            "lease-records 0/1: lots",
            "lease-records 0/1",
            "lease-records",
        ] {
            let input = stream(&[bad, "lease-done 0/1: 0..1"], b"");
            let seen = messages(io::Cursor::new(input));
            assert_eq!(seen[0].0, WorkerMessage::BadRecords(bad.to_owned()));
        }
    }
}
