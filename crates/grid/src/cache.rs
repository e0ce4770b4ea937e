//! Cross-run result caching: persist evaluated cell outcomes keyed by
//! [`ScenarioGrid::dedup_key`](crate::ScenarioGrid::dedup_key) so repeated
//! explorations (CI re-runs, interactive sweeps) skip already-evaluated
//! cells across process boundaries.
//!
//! Two on-disk formats live here, both specified in
//! `docs/CACHE_FORMAT.md` at the repository root and both fully
//! interchangeable ([`ResultCache::load`] sniffs the header):
//!
//! * **v1** (`memstream-grid-cache v1`) — a tab-separated text line
//!   store, the *interchange* default. Floats are written with Rust's
//!   shortest-roundtrip formatting, so a warm-cache exploration
//!   reproduces the cold run's reports **byte-identically** — the
//!   property the CI determinism smoke asserts.
//! * **v2** (`memstream-grid-cache v2`) — a length-prefixed binary
//!   record store with a sorted key index, written by
//!   [`ResultCache::save_as`] with [`CacheFormat::V2`]. Floats are raw
//!   IEEE-754 bits, keys raw UTF-8; loading needs no float parsing or
//!   unescaping, which is what makes warm loads fast. Conversion
//!   between the formats is lossless: `v1 → v2 → v1` reproduces the
//!   original file bytes exactly.
//!
//! Under [`ResultCache::load`], unknown or corrupt lines (v1) and
//! trailing malformed records (v2) are ignored — they simply become
//! cache misses — so format evolution never poisons a run.
//!
//! The cache is also the workspace's **shard interchange format**:
//! `memstream_shard` workers flush their records as v2 record streams
//! ([`CacheAppender`], tailed by [`FlushReader`]), and the coordinator
//! reassembles the run by [`ResultCache::merge`]-union, whose conflict
//! rule is byte-equality of the encoded entry (see
//! `docs/CACHE_FORMAT.md` § "Union/merge semantics"). Where a cache file
//! is exchanged rather than used as a warm start, the strict reader
//! ([`ResultCache::load_strict`]) fails loudly on version mismatch or
//! corruption instead of shrugging.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use memstream_core::Requirement;
use memstream_telemetry::{Counter, Histogram, Metrics, SpanHandle};
use memstream_units::{DataSize, EnergyPerBit, Ratio, Years};

use crate::eval::{CellOutcome, EnergyOnlyPoint, PlannedPoint};
use crate::view::{record_body, validate_v2, CacheView};

const HEADER: &str = "memstream-grid-cache v1";
const HEADER_V2: &str = "memstream-grid-cache v2";
/// The sniffable v2 magic: the header line including its terminator.
pub(crate) const V2_MAGIC: &[u8] = b"memstream-grid-cache v2\n";

/// Which on-disk encoding a [`ResultCache::save_as`] writes. Loading
/// auto-detects, so the format is a producer-side choice only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheFormat {
    /// The tab-separated text format (`memstream-grid-cache v1`): the
    /// interchange default, diff-able and greppable.
    #[default]
    V1,
    /// The length-prefixed binary format (`memstream-grid-cache v2`):
    /// raw IEEE-754 floats and unescaped keys behind a sorted record
    /// index — the fast warm-start encoding.
    V2,
}

impl CacheFormat {
    /// Parses a CLI flag value (`"v1"` / `"v2"`).
    #[must_use]
    pub fn parse_flag(s: &str) -> Option<Self> {
        match s {
            "v1" => Some(CacheFormat::V1),
            "v2" => Some(CacheFormat::V2),
            _ => None,
        }
    }

    /// The CLI flag value this format parses from.
    #[must_use]
    pub fn flag(self) -> &'static str {
        match self {
            CacheFormat::V1 => "v1",
            CacheFormat::V2 => "v2",
        }
    }
}

/// Why a strict cache read ([`ResultCache::load_strict`]) rejected a file.
///
/// The lenient reader ([`ResultCache::load`]) maps every non-I/O failure
/// below to "empty cache / skipped line"; the strict reader exists for the
/// shard interchange path, where silently dropping entries would corrupt a
/// distributed run instead of merely slowing a warm start.
#[derive(Debug)]
pub enum CacheFileError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The first line is not the supported header.
    VersionMismatch {
        /// The header line actually found (empty for an empty file).
        found: String,
    },
    /// A body line (v1) or record (v2) failed to parse as a cache entry.
    Malformed {
        /// 1-based position of the offending entry: the file line for
        /// v1, and `record ordinal + 2` for v2 (so entry *n* reports the
        /// same position in either encoding).
        line: usize,
    },
    /// The v2 structure around the records — the count field, the
    /// trailing record index, or the trailer — is damaged: truncated,
    /// pointing outside the file, or disagreeing with the record
    /// framing. Attributed by byte offset because this damage has no
    /// meaningful record ordinal.
    MalformedIndex {
        /// Byte offset of the damaged structure: the count field, the
        /// offending index entry, or the trailer.
        offset: u64,
    },
}

impl fmt::Display for CacheFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheFileError::Io(e) => write!(f, "cache file unreadable: {e}"),
            CacheFileError::VersionMismatch { found } => write!(
                f,
                "cache version mismatch: expected `{HEADER}` or `{HEADER_V2}`, found `{found}`"
            ),
            CacheFileError::Malformed { line } => {
                write!(f, "cache file line {line} is not a valid entry")
            }
            CacheFileError::MalformedIndex { offset } => {
                write!(
                    f,
                    "cache file record index is damaged at byte offset {offset}"
                )
            }
        }
    }
}

impl std::error::Error for CacheFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CacheFileError {
    fn from(e: io::Error) -> Self {
        CacheFileError::Io(e)
    }
}

/// A union conflict: two caches carry the same dedup key with entries
/// that are **not byte-equal** in their encoded form.
///
/// Because evaluation is pure and floats round-trip exactly, two honest
/// explorations of the same scenario can never disagree — a conflict
/// means the caches came from different grids, code versions or corrupted
/// files, and the merge must fail rather than pick a side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConflict {
    /// The dedup key both caches claim.
    pub key: String,
    /// The encoded entry already held by the merge target.
    pub ours: String,
    /// The encoded entry the merged-in cache carries.
    pub theirs: String,
}

impl fmt::Display for CacheConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache union conflict on key `{}`: `{}` != `{}`",
            self.key, self.ours, self.theirs
        )
    }
}

impl std::error::Error for CacheConflict {}

/// What a successful [`ResultCache::merge`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Entries newly added to the target.
    pub added: usize,
    /// Entries present in both caches (byte-equal, so harmless).
    pub duplicates: usize,
}

/// A persistent map from scenario dedup keys to evaluated outcomes.
///
/// ```
/// use memstream_grid::{GridExecutor, ResultCache, ScenarioGrid};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Process-unique path: concurrent doc-test runs must not collide.
/// let dir = std::env::temp_dir().join(format!("memstream-cache-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("grid.cache");
/// # let _ = std::fs::remove_file(&path);
/// let grid = ScenarioGrid::paper_baseline(3);
///
/// let mut cache = ResultCache::load(&path)?; // empty on first run
/// let cold = GridExecutor::serial().explore_cached(&grid, &mut cache)?;
/// cache.save(&path)?;
///
/// let mut warm = ResultCache::load(&path)?; // every cell hits
/// let rerun = GridExecutor::serial().explore_cached(&grid, &mut warm)?;
/// assert_eq!(warm.hits(), rerun.unique_evaluations());
/// assert_eq!(
///     memstream_grid::report::cells_csv(&cold),
///     memstream_grid::report::cells_csv(&rerun),
/// );
/// # std::fs::remove_file(&path)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResultCache {
    /// The overlay map: fresh inserts plus outcomes memoized from the
    /// lazy view. Without a view this is simply *the* map.
    entries: HashMap<String, CellOutcome>,
    /// The lazy backing file ([`ResultCache::load_lazy`]): probes hit
    /// its index, records decode on demand and memoize into `entries`.
    view: Option<Arc<CacheView>>,
    /// Overlay keys the view does not hold, so `len()` is
    /// `view.len() + overlay_new` without iterating either side.
    overlay_new: usize,
    /// Whether a public insert replaced a view-held key: disables the
    /// verbatim re-save fast path (the file bytes are no longer the
    /// truth).
    shadowed: bool,
    hits: usize,
    misses: usize,
    telemetry: CacheTelemetry,
}

/// The cache's pre-resolved telemetry handles (see `docs/OBSERVABILITY.md`,
/// `cache.*`). Default handles are no-ops, so an unattached cache pays a
/// null-check per lookup and nothing more.
#[derive(Debug, Clone, Default)]
struct CacheTelemetry {
    hits: Counter,
    misses: Counter,
    inserts: Counter,
    merges: Counter,
    merge_added: Counter,
    merge_duplicates: Counter,
    merge_bytes: Counter,
    merge_span: SpanHandle,
    /// Worker threads used across parallel merges (cumulative).
    merge_workers: Counter,
    save_bytes: Counter,
    v2_save_bytes: Counter,
    save_span: SpanHandle,
    /// Records decoded on demand from a lazy [`CacheView`] — the number
    /// a warm run must keep proportional to the work requested, not the
    /// cache size. Eager loads do not count here (they are load-time
    /// cost, visible through spans and byte counters instead).
    records_decoded: Counter,
    /// Binary-search probes into a lazy view's record index.
    index_lookups: Counter,
    /// Per-lookup latency distribution (`cache.lookup`); the clock is
    /// only read when the histogram is live.
    lookup_latency: Histogram,
}

impl CacheTelemetry {
    fn resolve(metrics: &Metrics) -> Self {
        CacheTelemetry {
            hits: metrics.counter("cache.hits"),
            misses: metrics.counter("cache.misses"),
            inserts: metrics.counter("cache.inserts"),
            merges: metrics.counter("cache.merges"),
            merge_added: metrics.counter("cache.merge_added"),
            merge_duplicates: metrics.counter("cache.merge_duplicates"),
            merge_bytes: metrics.counter("cache.merge_bytes"),
            merge_span: metrics.span("cache.merge"),
            merge_workers: metrics.counter("cache.merge_workers"),
            save_bytes: metrics.counter("cache.save_bytes"),
            v2_save_bytes: metrics.counter("cache.v2_save_bytes"),
            save_span: metrics.span("cache.save"),
            records_decoded: metrics.counter("cache.records_decoded"),
            index_lookups: metrics.counter("cache.index_lookups"),
            lookup_latency: metrics.histogram("cache.lookup"),
        }
    }

    fn is_enabled(&self) -> bool {
        self.merge_bytes.is_live()
    }
}

impl ResultCache {
    /// An empty in-memory cache.
    #[must_use]
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Attaches this cache to a metrics registry: subsequent lookups,
    /// inserts, merges and saves report into the `cache.*` catalogue.
    /// The existing hit/miss totals are unaffected (counters are deltas
    /// from the attach point).
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.telemetry = CacheTelemetry::resolve(metrics);
    }

    /// Loads a cache file eagerly, auto-detecting the format from its
    /// header (text v1 or binary v2). A missing file yields an empty
    /// cache; unparseable v1 lines are skipped and a malformed v2 record
    /// drops it plus everything after it (the length-prefixed stream
    /// cannot be resynchronised past damage).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "not found".
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        match fs::read(path) {
            Ok(bytes) => Ok(Self::from_bytes_eager(&bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(ResultCache::new()),
            Err(e) => Err(e),
        }
    }

    /// Opens a cache file **lazily**: a structurally valid v2 file is
    /// held as a [`CacheView`] — only its record index is read — and
    /// records decode on demand as lookups touch them (memoized, so a
    /// hot cell decodes once). Probes ([`ResultCache::contains_key`],
    /// planning) never decode at all. A missing file is an empty cache,
    /// and anything the view cannot validate (v1, flush streams,
    /// structural damage) falls back to the eager lenient
    /// [`ResultCache::load`] semantics, so `load_lazy` is a drop-in
    /// replacement for warm-start reads.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "not found".
    pub fn load_lazy(path: impl AsRef<Path>) -> io::Result<Self> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ResultCache::new()),
            Err(e) => return Err(e),
        };
        if bytes.starts_with(V2_MAGIC) {
            if let Ok(offsets) = validate_v2(&bytes) {
                let mut cache = ResultCache::new();
                cache.view = Some(Arc::new(CacheView::from_validated(bytes, offsets)));
                return Ok(cache);
            }
        }
        Ok(Self::from_bytes_eager(&bytes))
    }

    /// The eager lenient decode shared by the `load` family: v2 prefix
    /// scan, v1 line-at-a-time, or empty for unknown headers.
    fn from_bytes_eager(bytes: &[u8]) -> Self {
        let mut cache = ResultCache::new();
        if bytes.starts_with(V2_MAGIC) {
            cache.entries = parse_v2_lenient(bytes);
            return cache;
        }
        // Unknown version or non-UTF-8 garbage: empty rather than failing.
        let Ok(text) = std::str::from_utf8(bytes) else {
            return cache;
        };
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return cache;
        }
        for line in lines {
            if let Some((key, outcome)) = parse_line(line) {
                cache.entries.insert(key, outcome);
            }
        }
        cache
    }

    /// Loads a cache file as a **wire format**: unlike [`ResultCache::load`],
    /// a missing file, a version mismatch or any unparseable line is a hard
    /// error. This is the reader the shard coordinator uses on worker
    /// output — an interchange file that half-parses must never silently
    /// shrink a distributed run.
    ///
    /// # Errors
    ///
    /// [`CacheFileError::Io`] on any read failure (including "not found"),
    /// [`CacheFileError::VersionMismatch`] if the header line is neither
    /// `memstream-grid-cache v1` nor `memstream-grid-cache v2`,
    /// [`CacheFileError::MalformedIndex`] (attributed by byte offset) if
    /// the v2 count, record index or trailer disagrees with the records
    /// actually present, and [`CacheFileError::Malformed`] on the first
    /// entry that fails to parse.
    pub fn load_strict(path: impl AsRef<Path>) -> Result<Self, CacheFileError> {
        let bytes = fs::read(path)?;
        let mut cache = ResultCache::new();
        if bytes.starts_with(V2_MAGIC) {
            // Structure first (count/index/trailer, attributed by byte
            // offset), then every record payload (attributed by ordinal).
            let offsets = validate_v2(&bytes)?;
            cache.entries = HashMap::with_capacity(offsets.len());
            for (ordinal, &offset) in offsets.iter().enumerate() {
                let (key, outcome) = decode_record(record_body(&bytes, offset))
                    .ok_or(CacheFileError::Malformed { line: ordinal + 2 })?;
                cache.entries.insert(key, outcome);
            }
            return Ok(cache);
        }
        let text = match String::from_utf8(bytes) {
            Ok(text) => text,
            Err(e) => {
                // Binary, but not our magic: attribute by the bytes up to
                // the first newline, rendered lossily.
                let bytes = e.into_bytes();
                let first = bytes.split(|&b| b == b'\n').next().unwrap_or(&[]);
                return Err(CacheFileError::VersionMismatch {
                    found: String::from_utf8_lossy(first).into_owned(),
                });
            }
        };
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != HEADER {
            return Err(CacheFileError::VersionMismatch {
                found: header.to_owned(),
            });
        }
        for (i, line) in lines.enumerate() {
            let (key, outcome) =
                parse_line(line).ok_or(CacheFileError::Malformed { line: i + 2 })?;
            cache.entries.insert(key, outcome);
        }
        Ok(cache)
    }

    /// Unions `other` into `self`. Keys held by both caches must encode to
    /// byte-identical entries; the union is therefore order-independent —
    /// merging shard caches in any order yields the same entry set, and
    /// [`ResultCache::save`] (which sorts by key) the same file bytes.
    ///
    /// Hit/miss counters of both caches are left untouched: a merge is
    /// bookkeeping, not a lookup.
    ///
    /// The merge is **atomic**: on a conflict, `self` is left completely
    /// untouched — a shard whose cache disagrees contributes *nothing*,
    /// it cannot half-poison the target before the conflict is noticed.
    ///
    /// # Errors
    ///
    /// [`CacheConflict`] on the lowest-key conflicting entry.
    pub fn merge(&mut self, other: &ResultCache) -> Result<MergeStats, CacheConflict> {
        self.merge_with_workers(other, auto_merge_workers(other.len()))
    }

    /// [`ResultCache::merge`] with an explicit worker count: `other`'s
    /// key list is partitioned into `workers` contiguous slices, each
    /// scanned for conflicts/duplicates/additions on its own scoped
    /// thread (the detect pass is read-only, so it shares both caches
    /// freely), and a single writer then stitches the additions in.
    /// Detection still completes **before** any mutation, so the merge
    /// stays atomic, and the union is a set — worker partitioning cannot
    /// change the result, the stats, or the saved file bytes.
    ///
    /// # Errors
    ///
    /// [`CacheConflict`] on the lowest-key conflicting entry (`self` is
    /// left untouched).
    pub fn merge_with_workers(
        &mut self,
        other: &ResultCache,
        workers: usize,
    ) -> Result<MergeStats, CacheConflict> {
        let _merge_timer = self.telemetry.merge_span.start();
        let keys = other.key_list();
        let workers = workers.clamp(1, keys.len().max(1));
        let count_bytes = self.telemetry.is_enabled();
        let scans: Vec<MergeScan> = if workers <= 1 {
            vec![scan_merge_slice(self, other, &keys, count_bytes)]
        } else {
            let target = &*self;
            let chunk = keys.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = keys
                    .chunks(chunk)
                    .map(|slice| {
                        scope.spawn(move || scan_merge_slice(target, other, slice, count_bytes))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("merge worker panicked"))
                    .collect()
            })
        };
        self.telemetry.merge_workers.add(workers as u64);
        let mut probes = 0u64;
        let mut decoded = 0u64;
        for scan in &scans {
            probes += scan.probes;
            decoded += scan.decoded;
        }
        self.telemetry.index_lookups.add(probes);
        self.telemetry.records_decoded.add(decoded);
        if let Some(conflict) = scans
            .iter()
            .filter_map(|scan| scan.conflict.as_ref())
            .min_by(|a, b| a.key.cmp(&b.key))
        {
            return Err(conflict.clone());
        }
        let mut stats = MergeStats::default();
        let mut bytes = 0u64;
        for scan in scans {
            stats.duplicates += scan.duplicates;
            bytes += scan.bytes;
            for (key, outcome) in scan.additions {
                self.entries.insert(key, outcome);
                stats.added += 1;
            }
        }
        // Every addition was absent from view *and* overlay (the scan
        // checked), so the length bookkeeping is a plain bump.
        self.overlay_new += stats.added;
        self.telemetry.merge_bytes.add(bytes);
        self.telemetry.merges.incr();
        self.telemetry.merge_added.add(stats.added as u64);
        self.telemetry.merge_duplicates.add(stats.duplicates as u64);
        Ok(stats)
    }

    /// Every key this cache holds: overlay keys first (excluding ones
    /// the view also holds), then the view's sorted keys. Arbitrary
    /// overall order.
    fn key_list(&self) -> Vec<&str> {
        match self.view.as_deref() {
            None => self.entries.keys().map(String::as_str).collect(),
            Some(view) => {
                let mut keys: Vec<&str> = self
                    .entries
                    .keys()
                    .map(String::as_str)
                    .filter(|key| view.find(key).is_none())
                    .collect();
                keys.extend(view.keys());
                keys
            }
        }
    }

    /// Writes the cache to `path` in the v1 text format, sorted by key
    /// for reproducible bytes. Shorthand for [`ResultCache::save_as`]
    /// with [`CacheFormat::V1`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.save_as(path, CacheFormat::V1)
    }

    /// Writes the cache to `path` in `format`, sorted by key for
    /// reproducible bytes (both formats sort identically, so conversion
    /// preserves entry order). Entries stream through a [`io::BufWriter`]
    /// — the whole file is never materialised in memory.
    ///
    /// The save is atomic with respect to readers: the bytes go to a
    /// process-unique sibling temp file that is then renamed over
    /// `path`, so a crash or a concurrent run leaves either the old file
    /// or the new one, never a truncated mix. (No fsync: durability
    /// across power loss is not promised, and every re-save would pay
    /// for it.)
    ///
    /// A lazily loaded cache that was never extended or shadowed
    /// re-saves to v2 **verbatim**: the view's validation guarantees its
    /// entries re-encode to exactly the bytes it was opened over, so the
    /// file is rewritten without decoding a single record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error `path` is left untouched and the
    /// temp file is removed.
    pub fn save_as(&self, path: impl AsRef<Path>, format: CacheFormat) -> io::Result<()> {
        let _save_timer = self.telemetry.save_span.start();
        let path = path.as_ref();
        if format == CacheFormat::V2 && self.overlay_new == 0 && !self.shadowed {
            if let Some(view) = self.view.as_deref() {
                let bytes = view.file_bytes();
                write_replacing(path, |out| out.write_all(bytes))?;
                self.telemetry.save_bytes.add(bytes.len() as u64);
                self.telemetry.v2_save_bytes.add(bytes.len() as u64);
                return Ok(());
            }
        }
        let mut keys = self.key_list();
        keys.sort_unstable();
        // Resolve outcomes up front (decoding any still-lazy records —
        // a converting save is inherently eager), so the writers can
        // stream over plain data.
        let entries: Vec<(&str, CellOutcome)> = keys
            .into_iter()
            .filter_map(|key| Some((key, self.fetch(key)?)))
            .collect();
        let written = write_replacing(path, |out| match format {
            CacheFormat::V1 => write_v1(out, &entries),
            CacheFormat::V2 => write_v2(out, &entries),
        })?;
        self.telemetry.save_bytes.add(written);
        if format == CacheFormat::V2 {
            self.telemetry.v2_save_bytes.add(written);
        }
        Ok(())
    }

    /// Number of cached outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.view.as_deref() {
            Some(view) => view.len() + self.overlay_new,
            None => self.entries.len(),
        }
    }

    /// Whether the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits since construction/load.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Cache misses since construction/load.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Looks up an outcome, counting the hit/miss and timing the probe
    /// into the `cache.lookup` histogram when telemetry is enabled.
    ///
    /// On a lazy cache, a view hit decodes that one record and memoizes
    /// it into the overlay map — repeated lookups of a hot cell decode
    /// once, so `cache.records_decoded` tracks *distinct* cells touched.
    pub(crate) fn lookup(&mut self, key: &str) -> Option<CellOutcome> {
        let started = self
            .telemetry
            .lookup_latency
            .is_live()
            .then(std::time::Instant::now);
        let mut found = self.entries.get(key).cloned();
        if found.is_none() {
            if let Some((owned_key, outcome)) = self.view_fetch(key) {
                // Memoize without touching `overlay_new`: the key is a
                // view key, already counted by `len()`.
                self.entries.insert(owned_key, outcome.clone());
                found = Some(outcome);
            }
        }
        if let Some(started) = started {
            self.telemetry.lookup_latency.record(started.elapsed());
        }
        match found {
            Some(outcome) => {
                self.hits += 1;
                self.telemetry.hits.incr();
                Some(outcome)
            }
            None => {
                self.misses += 1;
                self.telemetry.misses.incr();
                None
            }
        }
    }

    /// Probes the lazy view: one index binary search, and on a hit one
    /// record decode. Counts both.
    fn view_fetch(&self, key: &str) -> Option<(String, CellOutcome)> {
        let view = self.view.as_deref()?;
        self.telemetry.index_lookups.incr();
        let decoded = view.decode(view.find(key)?)?;
        self.telemetry.records_decoded.incr();
        Some(decoded)
    }

    /// Peeks at an outcome without touching the hit/miss counters (the
    /// shard planner asks "is this cell already known?" without it being
    /// a lookup of record). Returns an owned outcome: on a lazy cache
    /// the record may be decoded on the fly (without memoizing — peeks
    /// take `&self`).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<CellOutcome> {
        if let Some(outcome) = self.entries.get(key) {
            return Some(outcome.clone());
        }
        self.view_fetch(key).map(|(_, outcome)| outcome)
    }

    /// [`ResultCache::get`] without clone-avoidance niceties — the
    /// resolve-everything path converting saves use.
    fn fetch(&self, key: &str) -> Option<CellOutcome> {
        self.get(key)
    }

    /// Whether `key` is cached, without counting a hit or miss. On a
    /// lazy cache this is an index probe — no record is decoded, which
    /// is what keeps fully-warm planning decode-free.
    #[must_use]
    pub fn contains_key(&self, key: &str) -> bool {
        if self.entries.contains_key(key) {
            return true;
        }
        match self.view.as_deref() {
            Some(view) => {
                self.telemetry.index_lookups.incr();
                view.find(key).is_some()
            }
            None => false,
        }
    }

    /// Iterates the cached dedup keys in arbitrary order (sort before
    /// relying on the order for anything user-visible).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        let view = self.view.as_deref();
        self.entries
            .keys()
            .map(String::as_str)
            .filter(move |key| match view {
                Some(view) => view.find(key).is_none(),
                None => true,
            })
            .chain(view.into_iter().flat_map(CacheView::keys))
    }

    /// Inserts an outcome under `key`, replacing any previous entry.
    ///
    /// Shard workers use this to assemble their slice of a grid into an
    /// interchange cache; for unioning whole caches prefer
    /// [`ResultCache::merge`], which refuses conflicting entries instead
    /// of overwriting.
    pub fn insert(&mut self, key: String, outcome: CellOutcome) {
        self.telemetry.inserts.incr();
        let in_view = match self.view.as_deref() {
            Some(view) => {
                self.telemetry.index_lookups.incr();
                view.find(&key).is_some()
            }
            None => false,
        };
        let replaced = self.entries.insert(key, outcome).is_some();
        if in_view {
            // Overwriting a view-held key: the file bytes are no longer
            // the truth, so the verbatim re-save fast path must not run.
            self.shadowed = true;
        } else if self.view.is_some() && !replaced {
            self.overlay_new += 1;
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), fmt_f64)
}

fn parse_f64(s: &str) -> Option<f64> {
    s.parse::<f64>().ok()
}

fn parse_opt(s: &str) -> Option<Option<f64>> {
    if s == "-" {
        Some(None)
    } else {
        parse_f64(s).map(Some)
    }
}

/// Maps a parsed region/dominant label back to the `&'static str` the
/// outcome types carry. Only labels the evaluator can produce round-trip;
/// anything else rejects the line.
fn static_label(s: &str) -> Option<&'static str> {
    for requirement in Requirement::ALL {
        if requirement.label() == s {
            return Some(requirement.label());
        }
    }
    match s {
        "X" => Some("X"),
        "disk" => Some("disk"),
        "-" => Some("-"),
        _ => None,
    }
}

fn encode_line(key: &str, outcome: &CellOutcome) -> String {
    let payload = match outcome {
        CellOutcome::Feasible(p) => format!(
            "F\t{}\t{}\t{}\t{}\t{}\t{}",
            fmt_f64(p.buffer.bits()),
            p.dominant,
            fmt_opt(p.saving),
            fmt_f64(p.utilization.fraction()),
            fmt_f64(p.lifetime.get()),
            fmt_opt(p.energy_per_bit.map(EnergyPerBit::joules_per_bit)),
        ),
        CellOutcome::Infeasible { region, detail } => {
            format!("X\t{}\t{}", region, escape(detail))
        }
        CellOutcome::EnergyOnly(p) => format!(
            "D\t{}\t{}\t{}",
            fmt_opt(p.break_even.map(DataSize::bits)),
            fmt_opt(p.buffer_for_saving.map(DataSize::bits)),
            fmt_opt(p.saving),
        ),
        CellOutcome::Unmodelled { detail } => format!("U\t{}", escape(detail)),
    };
    format!("{}\t{}", escape(key), payload)
}

fn parse_line(line: &str) -> Option<(String, CellOutcome)> {
    let fields: Vec<&str> = line.split('\t').collect();
    let (&key, rest) = fields.split_first()?;
    let (&tag, payload) = rest.split_first()?;
    let outcome = match (tag, payload) {
        ("F", [buffer, dominant, saving, utilization, lifetime, energy]) => {
            CellOutcome::Feasible(PlannedPoint {
                buffer: DataSize::from_bits(parse_f64(buffer)?),
                dominant: static_label(dominant)?,
                saving: parse_opt(saving)?,
                utilization: Ratio::from_fraction(parse_f64(utilization)?),
                lifetime: Years::new(parse_f64(lifetime)?),
                energy_per_bit: parse_opt(energy)?.map(EnergyPerBit::from_joules_per_bit),
            })
        }
        ("X", [region, detail]) => CellOutcome::Infeasible {
            region: static_label(region)?,
            detail: unescape(detail),
        },
        ("D", [break_even, buffer_for_saving, saving]) => {
            CellOutcome::EnergyOnly(EnergyOnlyPoint {
                break_even: parse_opt(break_even)?.map(DataSize::from_bits),
                buffer_for_saving: parse_opt(buffer_for_saving)?.map(DataSize::from_bits),
                saving: parse_opt(saving)?,
            })
        }
        ("U", [detail]) => CellOutcome::Unmodelled {
            detail: unescape(detail),
        },
        _ => return None,
    };
    Some((unescape(key), outcome))
}

// ---------------------------------------------------------------------
// The v2 binary encoding (docs/CACHE_FORMAT.md § "v2 binary format").
// Scalars are little-endian; floats are raw IEEE-754 bits, so the
// round-trip through v2 is exact by construction. Strings are
// `u32 length + UTF-8 bytes`, unescaped. Each record is
// `u32 body length + body`, body = `key string, tag byte, payload`.
// ---------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn push_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            out.push(1);
            push_f64(out, v);
        }
        None => out.push(0),
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(
        out,
        u32::try_from(s.len()).expect("cache string exceeds u32 length"),
    );
    out.extend_from_slice(s.as_bytes());
}

/// Encodes one entry's record body (everything after the length prefix).
fn encode_record(key: &str, outcome: &CellOutcome) -> Vec<u8> {
    let mut body = Vec::with_capacity(key.len() + 64);
    push_str(&mut body, key);
    match outcome {
        CellOutcome::Feasible(p) => {
            body.push(b'F');
            push_f64(&mut body, p.buffer.bits());
            push_str(&mut body, p.dominant);
            push_opt_f64(&mut body, p.saving);
            push_f64(&mut body, p.utilization.fraction());
            push_f64(&mut body, p.lifetime.get());
            push_opt_f64(
                &mut body,
                p.energy_per_bit.map(EnergyPerBit::joules_per_bit),
            );
        }
        CellOutcome::Infeasible { region, detail } => {
            body.push(b'X');
            push_str(&mut body, region);
            push_str(&mut body, detail);
        }
        CellOutcome::EnergyOnly(p) => {
            body.push(b'D');
            push_opt_f64(&mut body, p.break_even.map(DataSize::bits));
            push_opt_f64(&mut body, p.buffer_for_saving.map(DataSize::bits));
            push_opt_f64(&mut body, p.saving);
        }
        CellOutcome::Unmodelled { detail } => {
            body.push(b'U');
            push_str(&mut body, detail);
        }
    }
    body
}

/// A bounds-checked cursor over a v2 byte stream. Every reader returns
/// `None` past the end — truncation surfaces as a parse failure, never
/// a panic.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn opt_f64(&mut self) -> Option<Option<f64>> {
        match self.take(1)?[0] {
            0 => Some(None),
            1 => self.f64().map(Some),
            _ => None,
        }
    }

    fn str_slice(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn string(&mut self) -> Option<String> {
        self.str_slice().map(str::to_owned)
    }

    /// A region/dominant label, interned to the evaluator's static set.
    fn label(&mut self) -> Option<&'static str> {
        self.str_slice().and_then(static_label)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decodes one record body. Trailing garbage within the body rejects the
/// record — the length prefix and the payload must agree exactly.
pub(crate) fn decode_record(body: &[u8]) -> Option<(String, CellOutcome)> {
    let mut r = ByteReader {
        bytes: body,
        pos: 0,
    };
    let key = r.string()?;
    let outcome = match r.take(1)?[0] {
        b'F' => CellOutcome::Feasible(PlannedPoint {
            buffer: DataSize::from_bits(r.f64()?),
            dominant: r.label()?,
            saving: r.opt_f64()?,
            utilization: Ratio::from_fraction(r.f64()?),
            lifetime: Years::new(r.f64()?),
            energy_per_bit: r.opt_f64()?.map(EnergyPerBit::from_joules_per_bit),
        }),
        b'X' => CellOutcome::Infeasible {
            region: r.label()?,
            detail: r.string()?,
        },
        b'D' => CellOutcome::EnergyOnly(EnergyOnlyPoint {
            break_even: r.opt_f64()?.map(DataSize::from_bits),
            buffer_for_saving: r.opt_f64()?.map(DataSize::from_bits),
            saving: r.opt_f64()?,
        }),
        b'U' => CellOutcome::Unmodelled {
            detail: r.string()?,
        },
        _ => return None,
    };
    r.done().then_some((key, outcome))
}

/// Leniently scans the records of a v2 file (`bytes` starts with
/// [`V2_MAGIC`]): every entry parsed before the first malformation is
/// kept, damage and everything after it is dropped. This reader never
/// consults the index, which lets it double as the flush-stream loader
/// (flush streams have no index at all).
///
/// Entries land directly in the cache's map shape, pre-sized from the
/// header count — the binary format knows its cardinality up front, so
/// a v2 load never rehashes (an edge the line-at-a-time v1 parse cannot
/// have). Pre-sizing is capped against the honest minimum record
/// footprint, so a hostile count cannot balloon the allocation past the
/// actual file size.
fn parse_v2_lenient(bytes: &[u8]) -> HashMap<String, CellOutcome> {
    let mut r = ByteReader {
        bytes,
        pos: V2_MAGIC.len(),
    };
    let Some(count) = r.u64().and_then(|c| usize::try_from(c).ok()) else {
        return HashMap::new();
    };
    let mut entries = HashMap::with_capacity(count.min(bytes.len() / 10));
    for _ in 0..count {
        let entry = r
            .u32()
            .and_then(|len| r.take(len as usize))
            .and_then(decode_record);
        match entry {
            Some((key, outcome)) => {
                entries.insert(key, outcome);
            }
            None => break,
        }
    }
    entries
}

/// Merge workers for unioning `records` entries in: serial for small
/// shard caches, then one worker per ~128 entries up to a modest cap.
fn auto_merge_workers(records: usize) -> usize {
    if records < 256 {
        return 1;
    }
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    available.min(records / 128).clamp(1, 8)
}

/// What one merge worker found in its slice of the source's keys.
struct MergeScan {
    duplicates: usize,
    /// Entries absent from the target, cloned and ready to stitch in.
    additions: Vec<(String, CellOutcome)>,
    /// Wire bytes of the additions (only computed when telemetry is
    /// live — it exists for merge-throughput reporting).
    bytes: u64,
    /// Index probes / on-demand decodes performed against either
    /// cache's lazy view, merged into the counters after the join.
    probes: u64,
    decoded: u64,
    /// The lowest-key conflict in this slice, if any.
    conflict: Option<CacheConflict>,
}

/// Resolves `key` in a cache without telemetry (merge workers run off
/// the counter path and account in bulk after the join).
fn fetch_quiet(
    cache: &ResultCache,
    key: &str,
    probes: &mut u64,
    decoded: &mut u64,
) -> Option<CellOutcome> {
    if let Some(outcome) = cache.entries.get(key) {
        return Some(outcome.clone());
    }
    let view = cache.view.as_deref()?;
    *probes += 1;
    let (_, outcome) = view.decode(view.find(key)?)?;
    *decoded += 1;
    Some(outcome)
}

/// The merge detect pass over one contiguous slice of the source's
/// keys: classify every key as duplicate (byte-equal wire encoding),
/// addition, or conflict. Read-only — safe to run on many slices of the
/// same two caches concurrently.
fn scan_merge_slice(
    target: &ResultCache,
    source: &ResultCache,
    keys: &[&str],
    count_bytes: bool,
) -> MergeScan {
    let mut scan = MergeScan {
        duplicates: 0,
        additions: Vec::new(),
        bytes: 0,
        probes: 0,
        decoded: 0,
        conflict: None,
    };
    for &key in keys {
        let theirs = fetch_quiet(source, key, &mut scan.probes, &mut scan.decoded)
            .expect("key list entries resolve in their own cache");
        match fetch_quiet(target, key, &mut scan.probes, &mut scan.decoded) {
            Some(ours) => {
                // The conflict rule is byte-equality of the *encoded*
                // entry (the wire form), not structural equality: it is
                // the file bytes two shards must agree on, and it treats
                // equal NaN payloads as the duplicates they are.
                let ours = encode_line(key, &ours);
                let theirs = encode_line(key, &theirs);
                if ours == theirs {
                    scan.duplicates += 1;
                } else if scan
                    .conflict
                    .as_ref()
                    .is_none_or(|held| key < held.key.as_str())
                {
                    scan.conflict = Some(CacheConflict {
                        key: key.to_owned(),
                        ours,
                        theirs,
                    });
                }
            }
            None => {
                if count_bytes {
                    scan.bytes += encode_line(key, &theirs).len() as u64 + 1;
                }
                scan.additions.push((key.to_owned(), theirs));
            }
        }
    }
    scan
}

/// Writes `path` through a process-unique sibling temp file renamed
/// over it, so readers only ever see a complete file. The temp file is
/// removed if writing or the rename fails.
fn write_replacing<T>(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<fs::File>) -> io::Result<T>,
) -> io::Result<T> {
    static SEQUENCE: AtomicUsize = AtomicUsize::new(0);
    let mut temp = path.as_os_str().to_owned();
    temp.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        SEQUENCE.fetch_add(1, Ordering::Relaxed)
    ));
    let temp = PathBuf::from(temp);
    let result = fs::File::create(&temp)
        .and_then(|file| {
            let mut out = io::BufWriter::new(file);
            let value = write(&mut out)?;
            out.flush()?;
            Ok(value)
        })
        .and_then(|value| fs::rename(&temp, path).map(|()| value));
    if result.is_err() {
        let _ = fs::remove_file(&temp);
    }
    result
}

/// Streams the v1 text encoding of pre-resolved entries, returning the
/// bytes written.
fn write_v1(out: &mut impl io::Write, entries: &[(&str, CellOutcome)]) -> io::Result<u64> {
    out.write_all(HEADER.as_bytes())?;
    out.write_all(b"\n")?;
    let mut written = HEADER.len() as u64 + 1;
    for (key, outcome) in entries {
        let line = encode_line(key, outcome);
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        written += line.len() as u64 + 1;
    }
    Ok(written)
}

/// Streams the v2 binary encoding (records then index) of pre-resolved
/// entries, returning the bytes written.
fn write_v2(out: &mut impl io::Write, entries: &[(&str, CellOutcome)]) -> io::Result<u64> {
    out.write_all(V2_MAGIC)?;
    out.write_all(&(entries.len() as u64).to_le_bytes())?;
    let mut offset = V2_MAGIC.len() as u64 + 8;
    let mut index: Vec<u64> = Vec::with_capacity(entries.len());
    for (key, outcome) in entries {
        index.push(offset);
        let body = encode_record(key, outcome);
        let len = u32::try_from(body.len()).expect("cache record exceeds u32 length");
        out.write_all(&len.to_le_bytes())?;
        out.write_all(&body)?;
        offset += 4 + body.len() as u64;
    }
    let index_offset = offset;
    for record_offset in &index {
        out.write_all(&record_offset.to_le_bytes())?;
    }
    out.write_all(&index_offset.to_le_bytes())?;
    Ok(offset + 8 * (index.len() as u64 + 1))
}

// ---------------------------------------------------------------------
// Incremental flush streams (docs/SHARD_PROTOCOL.md § "Flush files"):
// an append-only v2-record stream shard workers write between leases and
// the coordinator tails while the worker is still running.
// ---------------------------------------------------------------------

/// An append-only incremental writer of v2 cache records — the shard
/// workers' **flush stream**.
///
/// The file layout is a v2 prefix without the trailing index: magic,
/// `u64` record count, then length-prefixed records. Each [`CacheAppender::append`]
/// writes the new records at the end of the file *first* and only then
/// rewrites the count field, so a writer dying mid-append leaves the
/// count pointing at the last fully-flushed batch: the lenient
/// [`ResultCache::load`] reads exactly the valid prefix, and a
/// [`FlushReader`] tailing the stream drops the torn bytes. The strict
/// [`ResultCache::load_strict`] rejects flush streams (no index) —
/// deliberately, they are scratch, not interchange.
#[derive(Debug)]
pub struct CacheAppender {
    file: fs::File,
    count: u64,
}

impl CacheAppender {
    /// Creates (truncating) the flush stream at `path` and writes the
    /// empty header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut file = fs::File::create(path)?;
        file.write_all(V2_MAGIC)?;
        file.write_all(&0u64.to_le_bytes())?;
        Ok(CacheAppender { file, count: 0 })
    }

    /// Appends one batch of records and then commits it by rewriting the
    /// header count. Returns the number of records written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error the batch is not committed (the
    /// count still covers only previously committed records).
    pub fn append<'a, I>(&mut self, entries: I) -> io::Result<usize>
    where
        I: IntoIterator<Item = (&'a str, &'a CellOutcome)>,
    {
        use std::io::Seek as _;
        let mut batch = Vec::new();
        let mut appended = 0usize;
        for (key, outcome) in entries {
            let body = encode_record(key, outcome);
            let len = u32::try_from(body.len()).expect("cache record exceeds u32 length");
            batch.extend_from_slice(&len.to_le_bytes());
            batch.extend_from_slice(&body);
            appended += 1;
        }
        if appended == 0 {
            return Ok(0);
        }
        self.file.seek(io::SeekFrom::End(0))?;
        self.file.write_all(&batch)?;
        self.count += appended as u64;
        self.file.seek(io::SeekFrom::Start(V2_MAGIC.len() as u64))?;
        self.file.write_all(&self.count.to_le_bytes())?;
        Ok(appended)
    }

    /// Records committed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// What one [`FlushReader::poll`] yielded.
#[derive(Debug, Default)]
pub struct FlushPoll {
    /// Records fully flushed since the previous poll, in file order.
    pub records: Vec<(String, CellOutcome)>,
    /// A *complete* record failed to decode (or the magic is wrong): the
    /// length-prefixed stream cannot be resynchronised past damage, so
    /// the reader is permanently stuck — everything before the damage
    /// was returned, nothing after it ever will be.
    pub damaged: bool,
}

/// An incremental tail-reader over a [`CacheAppender`] flush stream,
/// tolerant of a writer that is still appending (or died mid-append).
///
/// Records are self-delimiting, so the reader ignores the header count
/// entirely: a length prefix promising more bytes than the file holds is
/// treated as *not flushed yet* and re-examined on the next poll — if the
/// writer is dead, those torn trailing bytes are simply never returned.
/// A complete record that fails to decode marks the stream damaged
/// (sticky; see [`FlushPoll::damaged`]).
#[derive(Debug)]
pub struct FlushReader {
    path: std::path::PathBuf,
    offset: u64,
    damaged: bool,
    /// The tail-read scratch buffer, reused across polls: the
    /// coordinator polls every heartbeat tick, and most polls read a
    /// few records (or nothing) — reallocating per poll is pure churn.
    buf: Vec<u8>,
}

impl FlushReader {
    /// A reader tailing the flush stream at `path` (which need not exist
    /// yet — polls before the writer creates it return nothing).
    #[must_use]
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        FlushReader {
            path: path.into(),
            offset: 0,
            damaged: false,
            buf: Vec::new(),
        }
    }

    /// Reads every record fully flushed since the last poll.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "not found" (a missing file is an
    /// empty poll — the writer just hasn't created it yet).
    pub fn poll(&mut self) -> io::Result<FlushPoll> {
        if self.damaged {
            return Ok(FlushPoll {
                records: Vec::new(),
                damaged: true,
            });
        }
        let mut file = match fs::File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(FlushPoll::default()),
            Err(e) => return Err(e),
        };
        self.buf.clear();
        if self.offset > 0 {
            use std::io::Seek as _;
            file.seek(io::SeekFrom::Start(self.offset))?;
        }
        io::Read::read_to_end(&mut file, &mut self.buf)?;
        let buf = &self.buf;
        let mut pos = 0usize;
        if self.offset == 0 {
            let header = V2_MAGIC.len() + 8;
            if buf.len() < header {
                return Ok(FlushPoll::default());
            }
            if !buf.starts_with(V2_MAGIC) {
                self.damaged = true;
                return Ok(FlushPoll {
                    records: Vec::new(),
                    damaged: true,
                });
            }
            pos = header;
        }
        let mut records = Vec::new();
        loop {
            let rest = &buf[pos..];
            let Some(len) = rest
                .get(..4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
            else {
                break;
            };
            let Some(body) = rest.get(4..4 + len) else {
                break; // torn or still being written: retry next poll
            };
            match decode_record(body) {
                Some(entry) => {
                    records.push(entry);
                    pos += 4 + len;
                }
                None => {
                    self.damaged = true;
                    break;
                }
            }
        }
        self.offset += pos as u64;
        Ok(FlushPoll {
            records,
            damaged: self.damaged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::GridExecutor;
    use crate::spec::ScenarioGrid;

    /// A per-process, per-test temp path: the process id keeps concurrent
    /// `cargo test` invocations (which share the OS temp dir) from
    /// clobbering each other's fixture files, and each test passes a
    /// distinct `name` so threads within one run never collide either.
    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("memstream-grid-cache-tests-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn every_outcome_kind_round_trips_exactly() {
        // The baseline plus an energy-only-masked disk covers all four
        // outcome kinds' encodings except `Unmodelled` (covered below).
        use memstream_device::{DiskDevice, EnergyOnly};
        let grid = ScenarioGrid::paper_baseline(6).device(crate::spec::DeviceEntry::new(
            "disk-breakeven",
            EnergyOnly::new(DiskDevice::calibrated_1p8_inch()),
        ));
        let results = GridExecutor::serial().explore(&grid).unwrap();
        let mut seen_kinds = std::collections::HashSet::new();
        for (cell, outcome) in results.records() {
            let key = grid.dedup_key(&cell);
            let line = encode_line(&key, outcome);
            let (parsed_key, parsed) = parse_line(&line).expect("line parses");
            assert_eq!(parsed_key, key);
            assert_eq!(&parsed, outcome, "roundtrip drift for {key}");
            seen_kinds.insert(std::mem::discriminant(outcome));
        }
        // Feasible, infeasible and (masked-disk) energy-only all appear.
        assert_eq!(seen_kinds.len(), 3);
        // The fourth kind, `Unmodelled`, has no grid cell here; check its
        // encoding directly.
        let unmodelled = CellOutcome::Unmodelled {
            detail: "missing capability: wear".to_owned(),
        };
        let (_, parsed) = parse_line(&encode_line("k", &unmodelled)).expect("unmodelled parses");
        assert_eq!(parsed, unmodelled);
    }

    #[test]
    fn unbounded_lifetimes_survive_the_roundtrip() {
        let outcome = CellOutcome::Feasible(PlannedPoint {
            buffer: DataSize::from_kibibytes(12.0),
            dominant: "Lpe",
            saving: Some(0.75),
            utilization: Ratio::from_fraction(0.93),
            lifetime: Years::unbounded(),
            energy_per_bit: None,
        });
        let line = encode_line("k", &outcome);
        let (_, parsed) = parse_line(&line).unwrap();
        assert_eq!(parsed, outcome);
    }

    #[test]
    fn hostile_strings_are_escaped() {
        let outcome = CellOutcome::Infeasible {
            region: "X",
            detail: "tab\there\nnewline\\backslash".to_owned(),
        };
        let line = encode_line("key\twith\ttabs", &outcome);
        assert_eq!(line.lines().count(), 1, "escaping keeps one line per entry");
        let (key, parsed) = parse_line(&line).unwrap();
        assert_eq!(key, "key\twith\ttabs");
        assert_eq!(parsed, outcome);
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let path = temp_path("roundtrip.cache");
        let grid = ScenarioGrid::paper_baseline(4);
        let mut cache = ResultCache::new();
        let results = GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .unwrap();
        assert_eq!(cache.misses(), results.unique_evaluations());
        cache.save(&path).unwrap();

        let mut loaded = ResultCache::load(&path).unwrap();
        assert_eq!(loaded.len(), cache.len());
        let warm = GridExecutor::parallel(4)
            .explore_cached(&grid, &mut loaded)
            .unwrap();
        assert_eq!(loaded.hits(), warm.unique_evaluations());
        assert_eq!(loaded.misses(), 0);
        assert_eq!(
            crate::report::cells_csv(&results),
            crate::report::cells_csv(&warm),
            "warm cache must reproduce cold bytes"
        );
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn save_replaces_the_file_instead_of_rewriting_it_in_place() {
        let path = temp_path("atomic.cache");
        let mut cache = ResultCache::new();
        let outcome = |detail: &str| CellOutcome::Unmodelled {
            detail: detail.to_owned(),
        };
        cache.insert("first".to_owned(), outcome("before"));
        cache.save(&path).unwrap();
        let old_bytes = fs::read(&path).unwrap();
        // A reader that opened the old file keeps reading the old bytes.
        let mut reader = fs::File::open(&path).unwrap();

        cache.insert("second".to_owned(), outcome("after"));
        for format in [CacheFormat::V1, CacheFormat::V2] {
            cache.save_as(&path, format).unwrap();
            assert_eq!(ResultCache::load_strict(&path).unwrap().len(), 2);
        }
        let mut seen = Vec::new();
        io::Read::read_to_end(&mut reader, &mut seen).unwrap();
        assert_eq!(seen, old_bytes, "the open reader saw a rewrite");

        // A save that cannot complete (the target is a directory) cleans
        // up its temp file.
        let dir = temp_path("atomic-dir");
        fs::create_dir_all(&dir).unwrap();
        assert!(cache.save(&dir).is_err());
        let leftovers: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("atomic") && name.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        fs::remove_file(path).unwrap();
        fs::remove_dir(dir).unwrap();
    }

    #[test]
    fn corrupt_lines_become_misses() {
        let path = temp_path("corrupt.cache");
        fs::write(&path, format!("{HEADER}\nnot-a-valid-line\nk\tF\tbogus\n")).unwrap();
        let cache = ResultCache::load(&path).unwrap();
        assert!(cache.is_empty());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn unknown_header_is_an_empty_cache() {
        let path = temp_path("future.cache");
        fs::write(&path, "memstream-grid-cache v99\nwhatever\n").unwrap();
        let cache = ResultCache::load(&path).unwrap();
        assert!(cache.is_empty());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_cache() {
        let cache = ResultCache::load(temp_path("does-not-exist.cache")).unwrap();
        assert!(cache.is_empty());
    }

    #[test]
    fn union_of_disjoint_shard_caches_is_order_independent_and_byte_identical() {
        // One single-process cache; the same cells split into three
        // contiguous shard caches over the canonical dedup'd range.
        let grid = ScenarioGrid::paper_baseline(5);
        let mut whole = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut whole)
            .unwrap();

        let unique = grid.unique_cells();
        let bounds = [0, unique.len() / 3, 2 * unique.len() / 3, unique.len()];
        let shards: Vec<ResultCache> = bounds
            .windows(2)
            .map(|w| {
                let mut shard = ResultCache::new();
                GridExecutor::serial().resolve_cells(&grid, &unique[w[0]..w[1]], &mut shard);
                shard
            })
            .collect();

        // Union in two different orders: same entry set either way.
        let mut forward = ResultCache::new();
        let mut backward = ResultCache::new();
        for shard in &shards {
            let stats = forward.merge(shard).unwrap();
            assert_eq!(stats.duplicates, 0, "shards are disjoint");
        }
        for shard in shards.iter().rev() {
            backward.merge(shard).unwrap();
        }

        // And the merged file bytes equal the single-process cache file.
        let (p1, p2, p3) = (
            temp_path("union-whole.cache"),
            temp_path("union-fwd.cache"),
            temp_path("union-bwd.cache"),
        );
        whole.save(&p1).unwrap();
        forward.save(&p2).unwrap();
        backward.save(&p3).unwrap();
        let reference = fs::read(&p1).unwrap();
        assert_eq!(reference, fs::read(&p2).unwrap());
        assert_eq!(reference, fs::read(&p3).unwrap());
        for p in [p1, p2, p3] {
            fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn merge_counts_added_and_duplicate_entries() {
        let outcome = CellOutcome::Unmodelled {
            detail: "x".to_owned(),
        };
        let mut a = ResultCache::new();
        a.insert("k1".to_owned(), outcome.clone());
        let mut b = ResultCache::new();
        b.insert("k1".to_owned(), outcome.clone());
        b.insert("k2".to_owned(), outcome);
        let stats = a.merge(&b).unwrap();
        assert_eq!(
            stats,
            MergeStats {
                added: 1,
                duplicates: 1
            }
        );
        assert_eq!(a.len(), 2);
        assert_eq!((a.hits(), a.misses()), (0, 0), "merging is not a lookup");
    }

    #[test]
    fn merge_conflicts_are_attributed_and_byte_level() {
        let mut a = ResultCache::new();
        a.insert(
            "cell".to_owned(),
            CellOutcome::Unmodelled {
                detail: "ours".to_owned(),
            },
        );
        let mut b = ResultCache::new();
        b.insert(
            "cell".to_owned(),
            CellOutcome::Unmodelled {
                detail: "theirs".to_owned(),
            },
        );
        b.insert(
            "aaa-sorts-first".to_owned(),
            CellOutcome::Unmodelled {
                detail: "new".to_owned(),
            },
        );
        let conflict = a.merge(&b).unwrap_err();
        assert_eq!(conflict.key, "cell");
        assert!(conflict.ours.contains("ours"));
        assert!(conflict.theirs.contains("theirs"));
        assert!(conflict.to_string().contains("`cell`"));
        // Atomicity: the failed merge must not have touched the target —
        // not even with `other`'s non-conflicting, lower-sorting entry.
        assert_eq!(a.len(), 1);
        assert!(!a.contains_key("aaa-sorts-first"));
    }

    #[test]
    fn strict_load_rejects_version_mismatch_and_corruption() {
        let versioned = temp_path("strict-version.cache");
        fs::write(&versioned, "memstream-grid-cache v99\nanything\n").unwrap();
        match ResultCache::load_strict(&versioned).unwrap_err() {
            CacheFileError::VersionMismatch { found } => {
                assert_eq!(found, "memstream-grid-cache v99");
            }
            other => panic!("expected version mismatch, got {other}"),
        }
        fs::remove_file(versioned).unwrap();

        let corrupt = temp_path("strict-corrupt.cache");
        fs::write(&corrupt, format!("{HEADER}\nk\tU\tok\nbroken line\n")).unwrap();
        match ResultCache::load_strict(&corrupt).unwrap_err() {
            CacheFileError::Malformed { line } => assert_eq!(line, 3),
            other => panic!("expected malformed line, got {other}"),
        }
        fs::remove_file(corrupt).unwrap();

        assert!(matches!(
            ResultCache::load_strict(temp_path("strict-missing.cache")).unwrap_err(),
            CacheFileError::Io(_)
        ));
    }

    /// A cache holding every outcome kind plus hostile keys/details —
    /// the conversion fixtures.
    fn hostile_cache() -> ResultCache {
        let grid = ScenarioGrid::paper_baseline(4);
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .unwrap();
        cache.insert(
            "key\twith\ttabs\nand\\newlines".to_owned(),
            CellOutcome::Infeasible {
                region: "X",
                detail: "tab\there\nnewline\\backslash".to_owned(),
            },
        );
        cache.insert(
            "unmodelled".to_owned(),
            CellOutcome::Unmodelled {
                detail: "missing capability: wear".to_owned(),
            },
        );
        cache.insert(
            "energy-only".to_owned(),
            CellOutcome::EnergyOnly(EnergyOnlyPoint {
                break_even: Some(DataSize::from_kibibytes(3.5)),
                buffer_for_saving: None,
                saving: Some(0.5),
            }),
        );
        cache
    }

    #[test]
    fn v2_save_load_round_trips_in_both_readers() {
        let path = temp_path("v2-roundtrip.cache");
        let cache = hostile_cache();
        cache.save_as(&path, CacheFormat::V2).unwrap();
        assert!(
            fs::read(&path).unwrap().starts_with(V2_MAGIC),
            "v2 files carry the sniffable magic"
        );
        for loaded in [
            ResultCache::load(&path).unwrap(),
            ResultCache::load_strict(&path).unwrap(),
        ] {
            assert_eq!(loaded.len(), cache.len());
            for key in cache.keys() {
                assert_eq!(loaded.get(key), cache.get(key), "drift under key {key}");
            }
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn v1_v2_v1_conversion_is_byte_identical() {
        let (p1, p2, p3) = (
            temp_path("convert-a.cache"),
            temp_path("convert-b.cache"),
            temp_path("convert-c.cache"),
        );
        let cache = hostile_cache();
        cache.save_as(&p1, CacheFormat::V1).unwrap();
        ResultCache::load_strict(&p1)
            .unwrap()
            .save_as(&p2, CacheFormat::V2)
            .unwrap();
        ResultCache::load_strict(&p2)
            .unwrap()
            .save_as(&p3, CacheFormat::V1)
            .unwrap();
        assert_eq!(
            fs::read(&p1).unwrap(),
            fs::read(&p3).unwrap(),
            "v1 → v2 → v1 must reproduce the original file bytes"
        );
        // And converting the same entries twice gives identical v2 bytes.
        let p4 = temp_path("convert-d.cache");
        cache.save_as(&p4, CacheFormat::V2).unwrap();
        assert_eq!(fs::read(&p2).unwrap(), fs::read(&p4).unwrap());
        for p in [p1, p2, p3, p4] {
            fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn v2_lenient_load_keeps_the_prefix_of_a_truncated_file() {
        let path = temp_path("v2-truncated.cache");
        let mut cache = ResultCache::new();
        for key in ["a", "b", "c"] {
            cache.insert(
                key.to_owned(),
                CellOutcome::Unmodelled {
                    detail: format!("detail {key}"),
                },
            );
        }
        cache.save_as(&path, CacheFormat::V2).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Keep the magic, the count and the first record only.
        let first_len = u32::from_le_bytes(
            bytes[V2_MAGIC.len() + 8..V2_MAGIC.len() + 12]
                .try_into()
                .unwrap(),
        ) as usize;
        fs::write(&path, &bytes[..V2_MAGIC.len() + 8 + 4 + first_len]).unwrap();

        let lenient = ResultCache::load(&path).unwrap();
        assert_eq!(lenient.len(), 1, "the intact prefix survives");
        assert!(lenient.contains_key("a"), "records sort by key");
        // Truncation tears off the record index entirely, so the strict
        // reader attributes the damage to the (garbage) trailer bytes.
        let len = fs::metadata(&path).unwrap().len();
        match ResultCache::load_strict(&path).unwrap_err() {
            CacheFileError::MalformedIndex { offset } => assert_eq!(offset, len - 8),
            other => panic!("expected index damage, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn v2_strict_load_verifies_the_record_index() {
        let path = temp_path("v2-bad-index.cache");
        hostile_cache().save_as(&path, CacheFormat::V2).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        // The records themselves are intact: the lenient reader (which
        // never consults the index) still loads everything.
        assert_eq!(
            ResultCache::load(&path).unwrap().len(),
            hostile_cache().len()
        );
        match ResultCache::load_strict(&path).unwrap_err() {
            CacheFileError::MalformedIndex { offset } => {
                assert_eq!(offset, bytes.len() as u64 - 8, "attributed at the trailer");
            }
            other => panic!("expected malformed index, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn cache_format_flags_round_trip() {
        for format in [CacheFormat::V1, CacheFormat::V2] {
            assert_eq!(CacheFormat::parse_flag(format.flag()), Some(format));
        }
        assert_eq!(CacheFormat::parse_flag("v3"), None);
        assert_eq!(CacheFormat::default(), CacheFormat::V1);
    }

    #[test]
    fn strict_load_accepts_what_save_wrote() {
        let path = temp_path("strict-roundtrip.cache");
        let grid = ScenarioGrid::paper_baseline(3);
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .unwrap();
        cache.save(&path).unwrap();
        let strict = ResultCache::load_strict(&path).unwrap();
        assert_eq!(strict.len(), cache.len());
        for key in cache.keys() {
            assert_eq!(strict.get(key), cache.get(key));
        }
        fs::remove_file(path).unwrap();
    }

    fn unmodelled(detail: &str) -> CellOutcome {
        CellOutcome::Unmodelled {
            detail: detail.to_owned(),
        }
    }

    #[test]
    fn flush_stream_is_incrementally_readable_and_leniently_loadable() {
        let path = temp_path("flush-basic.cache");
        let mut writer = CacheAppender::create(&path).unwrap();
        let mut reader = FlushReader::new(&path);

        let (a, b, c) = (unmodelled("a"), unmodelled("b"), unmodelled("c"));
        assert_eq!(writer.append([("a", &a), ("b", &b)]).unwrap(), 2);
        let poll = reader.poll().unwrap();
        assert!(!poll.damaged);
        assert_eq!(
            poll.records
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            ["a", "b"]
        );

        // A second batch arrives only on the next poll — nothing is
        // returned twice.
        assert_eq!(writer.append([("c", &c)]).unwrap(), 1);
        assert_eq!(writer.count(), 3);
        let poll = reader.poll().unwrap();
        assert_eq!(poll.records.len(), 1);
        assert_eq!(poll.records[0].0, "c");
        assert!(reader.poll().unwrap().records.is_empty());

        // The stream doubles as a lenient warm file but is rejected by
        // the strict interchange reader (no index — scratch only).
        let lenient = ResultCache::load(&path).unwrap();
        assert_eq!(lenient.len(), 3);
        assert!(ResultCache::load_strict(&path).is_err());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn torn_flush_tail_is_dropped_but_the_committed_prefix_survives() {
        // A writer that died mid-append leaves a length prefix promising
        // more bytes than the file holds. The tail must never surface:
        // not from the tailing reader, not from the lenient loader.
        let path = temp_path("flush-torn.cache");
        let mut writer = CacheAppender::create(&path).unwrap();
        let (a, b) = (unmodelled("a"), unmodelled("b"));
        writer.append([("a", &a), ("b", &b)]).unwrap();
        let mut torn = 64u32.to_le_bytes().to_vec();
        torn.extend_from_slice(&[0xAB; 7]);
        let mut raw = fs::OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(&torn).unwrap();
        drop(raw);

        let mut reader = FlushReader::new(&path);
        let poll = reader.poll().unwrap();
        assert!(!poll.damaged, "a tear is not damage");
        assert_eq!(poll.records.len(), 2);
        // The tear never completes: later polls stay empty and undamaged.
        let poll = reader.poll().unwrap();
        assert!(poll.records.is_empty() && !poll.damaged);

        let lenient = ResultCache::load(&path).unwrap();
        assert_eq!(lenient.len(), 2, "count covers only committed records");
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn flush_reader_resumes_once_a_partial_record_completes() {
        // The same byte split as a torn tail — but the writer is alive
        // and finishes the record, so the reader must pick it up whole.
        let path = temp_path("flush-resume.cache");
        let mut writer = CacheAppender::create(&path).unwrap();
        let a = unmodelled("a");
        writer.append([("a", &a)]).unwrap();
        let full = fs::read(&path).unwrap();

        // Replay the file one byte at a time into a sibling path.
        let partial = temp_path("flush-resume-partial.cache");
        let mut reader = FlushReader::new(&partial);
        let mut seen = Vec::new();
        for end in 0..=full.len() {
            fs::write(&partial, &full[..end]).unwrap();
            let poll = reader.poll().unwrap();
            assert!(!poll.damaged, "a growing file is never damage");
            seen.extend(poll.records);
        }
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, "a");
        for p in [path, partial] {
            fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn corrupt_flush_record_marks_the_stream_damaged_keeping_the_prefix() {
        let path = temp_path("flush-corrupt.cache");
        let mut writer = CacheAppender::create(&path).unwrap();
        let a = unmodelled("a");
        writer.append([("a", &a)]).unwrap();
        // A complete but undecodable record: well-formed length, garbage
        // body.
        let mut garbage = 8u32.to_le_bytes().to_vec();
        garbage.extend_from_slice(&[0xAB; 8]);
        let mut raw = fs::OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(&garbage).unwrap();
        drop(raw);

        let mut reader = FlushReader::new(&path);
        let poll = reader.poll().unwrap();
        assert!(poll.damaged, "a decodable-length garbage record is damage");
        assert_eq!(poll.records.len(), 1, "the valid prefix is returned");
        // Damage is sticky: the writer appending more afterwards changes
        // nothing.
        writer.append([("b", &a)]).unwrap();
        let poll = reader.poll().unwrap();
        assert!(poll.damaged && poll.records.is_empty());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn flush_reader_rejects_a_wrong_magic() {
        let path = temp_path("flush-magic.cache");
        fs::write(&path, b"memstream-grid-cache v99\nxxxxxxxxxxx").unwrap();
        let mut reader = FlushReader::new(&path);
        assert!(reader.poll().unwrap().damaged);
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn flush_reader_tolerates_a_missing_or_headerless_file() {
        let path = temp_path("flush-missing.cache");
        let _ = fs::remove_file(&path);
        let mut reader = FlushReader::new(&path);
        let poll = reader.poll().unwrap();
        assert!(poll.records.is_empty() && !poll.damaged);
        // A file shorter than the header is "not ready", not damage.
        fs::write(&path, &V2_MAGIC[..4]).unwrap();
        let poll = reader.poll().unwrap();
        assert!(poll.records.is_empty() && !poll.damaged);
        fs::remove_file(path).unwrap();
    }
}
