//! Timeline tracing: one bounded event buffer and a Chrome/Perfetto exporter.
//!
//! A [`Tracer`] collects begin/end/instant events into one buffer behind
//! one lock. The traffic is light: a traced run records one begin/end pair
//! per span and per evaluated series, whatever the grid's size. A disabled
//! tracer is a `None` check and nothing else. The buffer is bounded — once
//! it holds its quota further events are counted as dropped rather than
//! growing without limit.
//!
//! Timestamps are microseconds since the Unix epoch, derived from a
//! `(SystemTime, Instant)` pair captured when the tracer is created: every
//! event's timestamp is the anchor plus the monotonic elapsed time, so they
//! are monotonic within a process and approximately aligned across the shard
//! coordinator and its worker processes. [`TraceSnapshot::to_chrome_json`]
//! writes the standard Chrome trace-event JSON object format, which both
//! `chrome://tracing` and <https://ui.perfetto.dev> load directly; worker
//! snapshots merge into the coordinator's because every event carries its own
//! process id.

use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::json::{Json, JsonError, JsonObject};

/// Default event quota per tracer. Spans are coarse (one begin/end pair per
/// exploration phase or evaluated series), so this is generous headroom; a
/// runaway emitter is counted in [`TraceSnapshot::dropped`] instead of
/// exhausting memory.
const DEFAULT_EVENTS: usize = 1 << 16;

/// The event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A span opens (`ph: "B"`).
    Begin,
    /// A span closes (`ph: "E"`).
    End,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

impl TracePhase {
    fn code(self) -> &'static str {
        match self {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
            TracePhase::Instant => "i",
        }
    }

    fn from_code(code: &str) -> Option<Self> {
        match code {
            "B" => Some(TracePhase::Begin),
            "E" => Some(TracePhase::End),
            "i" => Some(TracePhase::Instant),
            _ => None,
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name, e.g. `grid.explore`.
    pub name: String,
    /// Begin, end or instant.
    pub phase: TracePhase,
    /// Microseconds since the Unix epoch.
    pub ts_micros: u64,
    /// Operating-system process id of the recording process.
    pub pid: u32,
    /// Tracer-local thread id (sequential from 1, in the order the
    /// threads first recorded).
    pub tid: u64,
}

impl TraceEvent {
    /// The event's category for trace viewers: the name's first dot-separated
    /// segment (`grid.explore` → `grid`).
    #[must_use]
    pub fn category(&self) -> &str {
        self.name.split('.').next().unwrap_or("event")
    }
}

/// What a tracer has recorded so far.
#[derive(Debug, Default)]
struct Recorded {
    events: Vec<TraceEvent>,
    dropped: u64,
    /// The recording threads, in the order they first recorded: a
    /// thread's tid is its position, counting from 1.
    threads: Vec<ThreadId>,
}

#[derive(Debug)]
struct TracerInner {
    pid: u32,
    epoch_unix_micros: u64,
    epoch: Instant,
    capacity: usize,
    recorded: Mutex<Recorded>,
}

impl TracerInner {
    fn now_micros(&self) -> u64 {
        let elapsed = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.epoch_unix_micros.saturating_add(elapsed)
    }
}

/// Handle onto a shared event collector. Cloning is cheap; the disabled
/// tracer records nothing and costs one branch per call.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live tracer with the default event quota.
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_EVENTS)
    }

    /// A live tracer that keeps at most `events` events, from all
    /// recording threads together; the overflow is tallied in
    /// [`TraceSnapshot::dropped`].
    #[must_use]
    pub fn with_capacity(events: usize) -> Self {
        let epoch_unix_micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        Self {
            inner: Some(Arc::new(TracerInner {
                pid: std::process::id(),
                epoch_unix_micros,
                epoch: Instant::now(),
                capacity: events,
                recorded: Mutex::new(Recorded::default()),
            })),
        }
    }

    /// True when events are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn record(&self, name: &str, phase: TracePhase, ts_micros: Option<u64>) {
        let Some(inner) = &self.inner else { return };
        let ts_micros = ts_micros.unwrap_or_else(|| inner.now_micros());
        let thread = thread::current().id();
        let mut recorded = inner.recorded.lock().unwrap_or_else(|e| e.into_inner());
        let position = match recorded.threads.iter().position(|&t| t == thread) {
            Some(position) => position,
            None => {
                recorded.threads.push(thread);
                recorded.threads.len() - 1
            }
        };
        if recorded.events.len() < inner.capacity {
            recorded.events.push(TraceEvent {
                name: name.to_string(),
                phase,
                ts_micros,
                pid: inner.pid,
                tid: position as u64 + 1,
            });
        } else {
            recorded.dropped += 1;
        }
    }

    /// Opens a span on the calling thread.
    pub fn begin(&self, name: &str) {
        self.record(name, TracePhase::Begin, None);
    }

    /// Closes a span on the calling thread.
    pub fn end(&self, name: &str) {
        self.record(name, TracePhase::End, None);
    }

    /// Records a point-in-time marker.
    pub fn instant(&self, name: &str) {
        self.record(name, TracePhase::Instant, None);
    }

    /// Records a span that just finished, synthesizing the begin event
    /// `elapsed` ago and the end event now.
    pub fn complete(&self, name: &str, elapsed: Duration) {
        let Some(inner) = &self.inner else { return };
        let end = inner.now_micros();
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.record(name, TracePhase::Begin, Some(end.saturating_sub(micros)));
        self.record(name, TracePhase::End, Some(end));
    }

    /// Copies out everything recorded so far, across all threads, sorted by
    /// timestamp.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let Some(inner) = &self.inner else {
            return TraceSnapshot::default();
        };
        let recorded = inner.recorded.lock().unwrap_or_else(|e| e.into_inner());
        let mut events = recorded.events.clone();
        events.sort_by_key(|e| e.ts_micros);
        TraceSnapshot {
            events,
            dropped: recorded.dropped,
        }
    }
}

/// A point-in-time copy of a tracer's events, mergeable across processes and
/// convertible to/from Chrome trace JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// All recorded events, sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events discarded because the tracer's buffer was full.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Folds another snapshot (typically from a shard worker process) into
    /// this one, keeping events sorted by timestamp.
    pub fn merge(&mut self, other: TraceSnapshot) {
        self.events.extend(other.events);
        self.events.sort_by_key(|e| e.ts_micros);
        self.dropped += other.dropped;
    }

    /// Renders the Chrome trace-event JSON object format understood by
    /// `chrome://tracing` and Perfetto.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let events = self.events.iter().map(|e| {
            JsonObject::new()
                .field_str("name", &e.name)
                .field_str("cat", e.category())
                .field_str("ph", e.phase.code())
                .field_u64("ts", e.ts_micros)
                .field_u64("pid", u64::from(e.pid))
                .field_u64("tid", e.tid)
        });
        JsonObject::new()
            .field_str("displayTimeUnit", "ms")
            .field_u64("droppedEvents", self.dropped)
            .field_array_of_objects("traceEvents", events)
            .render_pretty()
    }

    /// Parses a document produced by [`TraceSnapshot::to_chrome_json`].
    /// Events with an unknown phase code are skipped (Chrome defines many
    /// more phases than this exporter emits).
    pub fn from_chrome_json(text: &str) -> Result<Self, JsonError> {
        let doc = crate::json::parse(text)?;
        let mut snapshot = TraceSnapshot {
            events: Vec::new(),
            dropped: doc.get("droppedEvents").and_then(Json::as_u64).unwrap_or(0),
        };
        if let Some(Json::Array(items)) = doc.get("traceEvents") {
            for item in items {
                let Some(phase) = item
                    .get("ph")
                    .and_then(Json::as_str)
                    .and_then(TracePhase::from_code)
                else {
                    continue;
                };
                snapshot.events.push(TraceEvent {
                    name: item
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    phase,
                    ts_micros: item.get("ts").and_then(Json::as_u64).unwrap_or(0),
                    pid: item
                        .get("pid")
                        .and_then(Json::as_u64)
                        .and_then(|p| u32::try_from(p).ok())
                        .unwrap_or(0),
                    tid: item.get("tid").and_then(Json::as_u64).unwrap_or(0),
                });
            }
        }
        snapshot.events.sort_by_key(|e| e.ts_micros);
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        tracer.begin("a");
        tracer.end("a");
        tracer.instant("b");
        tracer.complete("c", Duration::from_millis(1));
        assert!(!tracer.is_enabled());
        assert_eq!(tracer.snapshot(), TraceSnapshot::default());
    }

    #[test]
    fn events_carry_monotonic_timestamps_and_balanced_phases() {
        let tracer = Tracer::enabled();
        tracer.begin("grid.explore");
        tracer.instant("grid.tick");
        tracer.end("grid.explore");
        let snap = tracer.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.dropped, 0);
        assert!(snap
            .events
            .windows(2)
            .all(|w| w[0].ts_micros <= w[1].ts_micros));
        let begins = snap
            .events
            .iter()
            .filter(|e| e.phase == TracePhase::Begin)
            .count();
        let ends = snap
            .events
            .iter()
            .filter(|e| e.phase == TracePhase::End)
            .count();
        assert_eq!(begins, ends);
        assert!(snap.events.iter().all(|e| e.pid == std::process::id()));
    }

    #[test]
    fn every_recording_thread_gets_its_own_tid() {
        let tracer = Tracer::enabled();
        tracer.instant("main");
        let clone = tracer.clone();
        std::thread::spawn(move || clone.instant("worker"))
            .join()
            .expect("worker thread");
        let snap = tracer.snapshot();
        let mut tids: Vec<u64> = snap.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 2, "two threads, two tids: {:?}", snap.events);
    }

    #[test]
    fn full_buffers_count_drops_instead_of_growing() {
        let tracer = Tracer::with_capacity(2);
        for _ in 0..5 {
            tracer.instant("spam");
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped, 3);
    }

    #[test]
    fn the_quota_covers_every_recording_thread_together() {
        let tracer = Tracer::with_capacity(3);
        tracer.instant("main");
        tracer.instant("main");
        let clone = tracer.clone();
        std::thread::spawn(move || {
            clone.instant("worker");
            clone.instant("worker");
        })
        .join()
        .expect("worker thread");
        let snap = tracer.snapshot();
        let tids: Vec<u64> = snap.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids, [1, 1, 2]);
        assert_eq!(snap.dropped, 1);
    }

    #[test]
    fn complete_synthesizes_an_ordered_begin_end_pair() {
        let tracer = Tracer::enabled();
        tracer.complete("cache.merge", Duration::from_millis(5));
        let snap = tracer.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].phase, TracePhase::Begin);
        assert_eq!(snap.events[1].phase, TracePhase::End);
        let span_micros = snap.events[1].ts_micros - snap.events[0].ts_micros;
        assert!(
            span_micros >= 5_000,
            "synthesized span too short: {span_micros}us"
        );
    }

    #[test]
    fn chrome_json_round_trips_through_the_parser() {
        let tracer = Tracer::with_capacity(4);
        tracer.begin("grid.explore");
        tracer.instant("shard.progress");
        tracer.end("grid.explore");
        for _ in 0..3 {
            tracer.instant("overflow");
        }
        let snap = tracer.snapshot();
        let parsed = TraceSnapshot::from_chrome_json(&snap.to_chrome_json())
            .expect("exporter output parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn merge_interleaves_events_from_another_process_snapshot() {
        let mut a = TraceSnapshot {
            events: vec![
                TraceEvent {
                    name: "shard.spawn".into(),
                    phase: TracePhase::Begin,
                    ts_micros: 10,
                    pid: 1,
                    tid: 1,
                },
                TraceEvent {
                    name: "shard.spawn".into(),
                    phase: TracePhase::End,
                    ts_micros: 40,
                    pid: 1,
                    tid: 1,
                },
            ],
            dropped: 1,
        };
        let b = TraceSnapshot {
            events: vec![TraceEvent {
                name: "grid.explore".into(),
                phase: TracePhase::Instant,
                ts_micros: 20,
                pid: 2,
                tid: 1,
            }],
            dropped: 2,
        };
        a.merge(b);
        assert_eq!(a.dropped, 3);
        let names: Vec<&str> = a.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["shard.spawn", "grid.explore", "shard.spawn"]);
    }
}
