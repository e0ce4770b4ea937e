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
//! machine channel — newline-delimited request/done lines and
//! length-prefixed payloads (each batch's record frame, then the
//! worker's telemetry once it retires), each payload a header line
//! followed by its bytes — read back by [`read_message`]; the
//! coordinator writes grant/retire replies to the worker's stdin.

use std::fmt;
use std::io::{self, BufRead, Read as _};
use std::ops::Range;

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
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpec {
    /// 0-based shard index.
    pub shard: usize,
    /// Total shard count (the number of workers sharing the lease queue).
    pub shard_count: usize,
    /// Worker-internal thread count (`0` = machine width).
    pub threads: usize,
    /// Record the worker's trace events and send them as a Chrome-trace
    /// `worker-trace` payload when the run completes (the coordinator
    /// merges the fragments into the run-wide timeline).
    pub trace: bool,
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
        if self.trace {
            args.push("--trace".to_owned());
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
    /// shard coordinates, unparseable numbers or rates that are negative
    /// or not finite.
    pub fn from_args(args: &[String]) -> Result<Self, ProtocolError> {
        let mut shard: Option<(usize, usize)> = None;
        let mut threads = 0usize;
        let mut rates = 2usize;
        let mut classic = false;
        let mut rate_list: Option<Vec<BitRate>> = None;
        let mut trace = false;
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
                "--trace" => trace = true,
                "--fault-plan" => {
                    fault = Some(value()?.parse().map_err(ProtocolError::new)?);
                }
                "--rate-list" => {
                    let raw = value()?;
                    let mut axis = Vec::new();
                    for field in raw.split(',').filter(|f| !f.is_empty()) {
                        let bad = |e: &dyn fmt::Display| {
                            ProtocolError::new(format!("bad --rate-list entry `{field}`: {e}"))
                        };
                        let bps: f64 = field.parse().map_err(|e| bad(&e))?;
                        axis.push(BitRate::try_from_bits_per_second(bps).map_err(|e| bad(&e))?);
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
            threads,
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
    /// range, send their records, then send `lease-done`.
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

/// What a length-prefixed stdout message carries. Its header line is
/// `TAG i/N: BYTES` ([`Payload::header`]), followed by exactly `BYTES`
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Payload {
    /// `lease-records`: one record frame of a lease's batch
    /// ([`memstream_grid::encode_frame`]).
    Records,
    /// `worker-stats`: the worker's telemetry snapshot as JSON, sent once
    /// after its last lease.
    Stats,
    /// `worker-trace`: the worker's Chrome-trace fragment, sent after its
    /// stats when it runs with `--trace`.
    Trace,
}

impl Payload {
    const ALL: [Payload; 3] = [Payload::Records, Payload::Stats, Payload::Trace];

    fn tag(self) -> &'static str {
        match self {
            Payload::Records => "lease-records",
            Payload::Stats => "worker-stats",
            Payload::Trace => "worker-trace",
        }
    }

    /// Renders the header line of a payload of `bytes` bytes, e.g.
    /// `lease-records i/N: BYTES`.
    pub(crate) fn header(self, shard: usize, shard_count: usize, bytes: usize) -> String {
        format!("{} {shard}/{shard_count}: {bytes}", self.tag())
    }

    /// Parses a [`Payload::header`] line of this payload into its byte
    /// count. Any other line returns `None`.
    pub(crate) fn parse_header(self, line: &str) -> Option<u64> {
        let rest = line.strip_prefix(self.tag())?.strip_prefix(' ')?;
        let (coords, bytes) = rest.split_once(": ")?;
        let (shard, count) = coords.split_once('/')?;
        shard.parse::<usize>().ok()?;
        count.parse::<usize>().ok()?;
        bytes.parse().ok()
    }
}

/// One message of a worker's stdout, as [`read_message`] reads it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum WorkerMessage {
    /// `lease-request i/N`.
    Request,
    /// A payload header line and the bytes that followed it, now in the
    /// caller's frame buffer.
    Payload(Payload),
    /// `lease-done i/N: a..b`.
    Done(Range<usize>),
    /// A line with a payload tag that does not parse. Its length is
    /// unknown, so nothing after it can be read.
    BadHeader(String),
    /// Any other complete line: ignored, so new line forms can be added
    /// without breaking older coordinators.
    Unknown,
}

/// Reads the next message of a worker's stdout; a payload replaces the
/// contents of `frame`, which grows only as the payload's bytes arrive,
/// whatever its header claims. `None` is the end of the stream, and that
/// includes a partial trailing line or a torn payload (the stream ended
/// inside it): both are dropped, never parsed.
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
    if let Some(payload) = Payload::ALL.into_iter().find(|p| line.starts_with(p.tag())) {
        let Some(bytes) = payload.parse_header(line) else {
            return Ok(Some(WorkerMessage::BadHeader(line.to_owned())));
        };
        frame.clear();
        reader.take(bytes).read_to_end(frame)?;
        return Ok((frame.len() as u64 == bytes).then_some(WorkerMessage::Payload(payload)));
    }
    Ok(Some(if parse_lease_request(line).is_some() {
        WorkerMessage::Request
    } else if let Some((_, _, range)) = parse_lease_done(line) {
        WorkerMessage::Done(range)
    } else {
        WorkerMessage::Unknown
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn specs_round_trip_through_args() {
        let spec = WorkerSpec {
            shard: 2,
            shard_count: 5,
            threads: 3,
            trace: true,
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
            threads: 0,
            trace: false,
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
        for (payload, header) in [
            (Payload::Records, "lease-records 1/3: 77"),
            (Payload::Stats, "worker-stats 1/3: 77"),
            (Payload::Trace, "worker-trace 1/3: 77"),
        ] {
            assert_eq!(payload.header(1, 3, 77), header);
            assert_eq!(payload.parse_header(header), Some(77));
        }
        assert_eq!(
            Payload::Records.parse_header("lease-records 1/3: 18446744073709551615"),
            Some(u64::MAX)
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
            "lease-records x/2: 5",
            "lease-records0/2: 5",
            "worker-stats 0/2: 5",
        ] {
            assert_eq!(parse_lease_request(junk), None, "{junk:?}");
            assert_eq!(parse_lease_reply(junk), None, "{junk:?}");
            assert_eq!(parse_lease_done(junk), None, "{junk:?}");
            assert_eq!(Payload::Records.parse_header(junk), None, "{junk:?}");
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
            &["--shard", "0/2", "--warm", "x"],
            &["--shard", "0/2", "--stats-json", "x"],
            &["--shard", "0/2", "--stats"],
            &["--shard", "0/2", "--rate-list", "1,zap"],
            &["--shard", "0/2", "--rate-list", "nan"],
            &["--shard", "0/2", "--rate-list", "-5"],
            &["--shard", "0/2", "--rate-list", "inf"],
            &["--shard", "0/2", "--rates", "1"],
        ];
        for case in cases {
            let args: Vec<String> = case.iter().map(|s| (*s).to_owned()).collect();
            let err = WorkerSpec::from_args(&args).unwrap_err();
            assert!(!err.to_string().is_empty(), "case {case:?}");
        }
    }

    /// A worker stdout stream: `lines`, each newline-terminated, with
    /// `payload` inserted after every payload header line.
    fn stream(lines: &[&str], payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for line in lines {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
            if Payload::ALL.iter().any(|p| line.starts_with(p.tag())) {
                out.extend_from_slice(payload);
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
                &Payload::Records.header(0, 1, frame.len()),
                "a line form this coordinator does not know",
                "lease-done 0/1: 0..2",
                &Payload::Stats.header(0, 1, frame.len()),
                &Payload::Trace.header(0, 1, frame.len()),
            ],
            &frame,
        );
        // A partial trailing line is the end of the stream, not a message.
        input.extend_from_slice(b"lease-done 0/1: 2..");
        let kinds: Vec<WorkerMessage> = messages(io::Cursor::new(input.clone()))
            .into_iter()
            .map(|(message, _)| message)
            .collect();
        assert_eq!(
            kinds,
            [
                WorkerMessage::Request,
                WorkerMessage::Payload(Payload::Records),
                WorkerMessage::Unknown,
                WorkerMessage::Done(0..2),
                WorkerMessage::Payload(Payload::Stats),
                WorkerMessage::Payload(Payload::Trace),
            ]
        );

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
        assert_eq!(
            trickled[1],
            (WorkerMessage::Payload(Payload::Records), frame)
        );
        assert_eq!(trickled.len(), 6);
    }

    #[test]
    fn torn_and_oversized_frames_end_the_stream_buffering_only_what_arrived() {
        for payload in Payload::ALL {
            for claimed in [64, u64::MAX / 2, u64::MAX] {
                let header = format!("{} 0/1: {claimed}", payload.tag());
                let input = stream(&["lease-request 0/1", &header], b"only these bytes");
                let mut input = io::Cursor::new(input);
                let mut frame = Vec::new();
                let first = read_message(&mut input, &mut frame).unwrap();
                assert_eq!(first, Some(WorkerMessage::Request));
                assert_eq!(read_message(&mut input, &mut frame).unwrap(), None);
                assert_eq!(frame, b"only these bytes", "{header}");
                assert!(frame.capacity() < 4096, "reserved {}", frame.capacity());
            }
        }
    }

    #[test]
    fn an_unparseable_records_line_is_damage_not_an_unknown_line() {
        for bad in [
            "lease-records 0/1: lots",
            "lease-records 0/1",
            "lease-records",
            "worker-stats 0/1: -1",
            "worker-trace",
        ] {
            let input = stream(&[bad, "lease-done 0/1: 0..1"], b"");
            let seen = messages(io::Cursor::new(input));
            assert_eq!(seen[0].0, WorkerMessage::BadHeader(bad.to_owned()));
        }
    }

    /// Bytes from a strategy that has no `u8` range: every value is below
    /// 256.
    fn bytes(values: &[u32]) -> Vec<u8> {
        values.iter().map(|&v| v as u8).collect()
    }

    /// Well-formed and nearly well-formed tokens that fuzzed argument
    /// lists and reply lines are built from, next to random ones.
    const TOKENS: &[&str] = &[
        "--shard",
        "0/1",
        "1/2",
        "2/2",
        "0/0",
        "--threads",
        "--rates",
        "--classic",
        "--rate-list",
        "--trace",
        "--fault-plan",
        "die-after-cells=2",
        "corrupt-flush",
        "1",
        "2",
        "24",
        "-5",
        "nan",
        "inf",
        "1e30",
        "1e400",
        "-0",
        "1,2.5",
        "32000,nan",
        "",
        ",",
        "18446744073709551616",
        "lease-grant",
        "lease-grant 0..3",
        "lease-grant 3..0",
        "lease-retire",
        "..",
    ];

    /// One token: a vocabulary word, or random bytes read as UTF-8.
    fn token((pick, raw): &(usize, Vec<u32>)) -> String {
        TOKENS.get(*pick).map_or_else(
            || String::from_utf8_lossy(&bytes(raw)).into_owned(),
            |word| (*word).to_owned(),
        )
    }

    proptest! {
        #[test]
        fn arbitrary_streams_never_panic_or_buffer_unreceived_bytes(
            segments in prop::collection::vec(
                (0usize..8, 0u64..64, prop::collection::vec(0u32..256, 0..24)),
                0..10,
            ),
        ) {
            // Random bytes with well-formed lines and payload headers
            // spliced in; a header's claim may exceed, match or fall
            // short of the bytes that follow it.
            let mut input = Vec::new();
            for (kind, n, raw) in &segments {
                let line = match kind {
                    1 => Some(format_lease_request(0, 1)),
                    2 => Some(format!("lease-done 0/1: {n}..{}", n + 3)),
                    3..=5 => Some(Payload::ALL[kind - 3].header(0, 1, *n as usize)),
                    6 => Some(format!("worker-trace 0/1: {}", u64::MAX - n)),
                    _ => None,
                };
                if let Some(line) = line {
                    input.extend_from_slice(line.as_bytes());
                    input.push(b'\n');
                }
                input.extend_from_slice(&bytes(raw));
            }
            let total = input.len();
            let mut reader = io::Cursor::new(input);
            let mut frame = Vec::new();
            for _ in 0..=total {
                let before = reader.position();
                let message = read_message(&mut reader, &mut frame).unwrap();
                let arrived = reader.position() - before;
                if let Some(WorkerMessage::Payload(_)) = message {
                    prop_assert!(frame.len() as u64 <= arrived);
                }
                // A torn payload too holds only the bytes that arrived.
                prop_assert!(frame.len() <= total);
                prop_assert!(frame.capacity() <= 4096, "reserved {}", frame.capacity());
                if message.is_none() {
                    break;
                }
            }
        }

        #[test]
        fn decode_frame_never_panics_and_reports_damage_inside_the_frame(
            records in 0usize..4,
            flips in prop::collection::vec((0usize..4096, 0u32..256), 0..4),
            cut in 0usize..4096,
            junk in prop::collection::vec(0u32..256, 0..32),
        ) {
            // An honest frame, then damage: flipped bytes, a cut, junk.
            let recipe = GridRecipe::classic(2);
            let grid = recipe.build();
            let cells = &grid.unique_cells()[..records];
            let mut cache = memstream_grid::ResultCache::new();
            memstream_grid::GridExecutor::serial().resolve_cells(&grid, cells, &mut cache);
            let keys: Vec<String> = cells.iter().map(|cell| grid.dedup_key(cell)).collect();
            let outcomes: Vec<_> = keys.iter().map(|key| cache.get(key).expect("resolved")).collect();
            let intact = memstream_grid::encode_frame(keys.iter().map(String::as_str).zip(&outcomes));
            let mut frame = intact.clone();
            for (at, value) in &flips {
                if !frame.is_empty() {
                    let at = at % frame.len();
                    frame[at] = *value as u8;
                }
            }
            frame.truncate(cut % (frame.len() + 1));
            frame.extend_from_slice(&bytes(&junk));
            let (decoded, damage) = memstream_grid::decode_frame(&frame);
            if frame == intact {
                prop_assert_eq!((decoded.len(), damage), (records, None));
            }
            if let Some(offset) = damage {
                prop_assert!(offset < frame.len(), "damage at {} of {}", offset, frame.len());
            }
        }

        #[test]
        fn lease_replies_and_worker_args_never_panic(
            tokens in prop::collection::vec(
                (0usize..40, prop::collection::vec(0u32..256, 0..6)),
                0..8,
            ),
        ) {
            let args: Vec<String> = tokens.iter().map(token).collect();
            for line in args.iter().chain([&args.join(" ")]) {
                if let Some(reply) = parse_lease_reply(line) {
                    prop_assert_eq!(parse_lease_reply(&format_lease_reply(&reply)), Some(reply));
                }
            }
            // A spec that parses carries itself losslessly through the
            // command line it encodes to.
            if let Ok(spec) = WorkerSpec::from_args(&args) {
                prop_assert_eq!(WorkerSpec::from_args(&spec.to_args()), Ok(spec));
            }
        }
    }
}
