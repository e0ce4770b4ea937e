//! Cross-run result caching: persist evaluated cell outcomes keyed by
//! [`ScenarioGrid::dedup_key`](crate::ScenarioGrid::dedup_key) so repeated
//! explorations (CI re-runs, interactive sweeps) skip already-evaluated
//! cells across process boundaries.
//!
//! There is one on-disk format, `memstream-grid-cache v3`, specified in
//! `docs/CACHE_FORMAT.md` at the repository root: length-prefixed binary
//! records sorted by key, closed by a record index. Floats are raw
//! IEEE-754 bits, so a warm run reproduces the cold run's reports
//! **byte-identically** — the property the CI determinism smoke asserts —
//! and a warm start parses nothing up front: [`ResultCache::load_lazy`]
//! validates the index and decodes only the records a run looks up. A
//! run that adds nothing does not rewrite the file at all
//! ([`ResultCache::save_as`]).
//!
//! The lenient readers never fail a run over file contents: a damaged
//! file keeps its intact record prefix, and a foreign file (another
//! format or version) opens as an empty cache, named on stderr, that the
//! next save replaces.
//!
//! The record encoding is also the workspace's **shard interchange
//! format**: `memstream_shard` workers send their records to the
//! coordinator as record frames on their stdout ([`encode_frame`],
//! read back with [`decode_frame`]), and the coordinator reassembles the
//! run by [`ResultCache::merge`]-union, whose conflict rule is
//! byte-equality of the encoded records (see `docs/CACHE_FORMAT.md`
//! § "Union/merge semantics").

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use memstream_core::Requirement;
use memstream_telemetry::{Counter, Histogram, Metrics, SpanHandle};
use memstream_units::{DataSize, EnergyPerBit, Ratio, Years};

use crate::eval::{CellOutcome, EnergyOnlyPoint, PlannedPoint};
use crate::view::{validate, CacheView};

/// The header line every cache file starts with.
const HEADER: &str = "memstream-grid-cache v3";
/// The sniffable magic: the header line including its terminator.
pub(crate) const MAGIC: &[u8] = b"memstream-grid-cache v3\n";

/// The on-disk encoding [`ResultCache::save_as`] writes. There is only
/// one, the binary record format; the type is retained so that callers
/// written against the earlier two-format API (the benchmark's replay
/// among them) keep compiling. It selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheFormat {
    /// The length-prefixed binary format (`memstream-grid-cache v3`).
    #[default]
    Binary,
}

/// Why a strict read ([`CacheView::open`]) rejected a cache file.
///
/// The lenient readers ([`ResultCache::load`], [`ResultCache::open`])
/// map every non-I/O failure below to "empty cache" or "intact prefix";
/// the strict reader exists for files that must be whole.
#[derive(Debug)]
pub enum CacheFileError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The file does not start with the `memstream-grid-cache v3` magic.
    VersionMismatch {
        /// The first line actually found (empty for an empty file).
        found: String,
    },
    /// A record's key framing is broken or out of key order.
    Malformed {
        /// 0-based ordinal of the offending record.
        record: usize,
    },
    /// The structure around the records — the count field, the
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
                "cache version mismatch: expected `{HEADER}`, found `{found}`"
            ),
            CacheFileError::Malformed { record } => {
                write!(f, "cache record {record} is not a valid entry")
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

/// The first line of `bytes` (at most 80 bytes of it, rendered lossily):
/// how a file that is not ours gets named in messages.
pub(crate) fn header_line(bytes: &[u8]) -> String {
    let line = bytes.split(|&b| b == b'\n').next().unwrap_or(&[]);
    String::from_utf8_lossy(&line[..line.len().min(80)]).into_owned()
}

/// A union conflict: two caches carry the same dedup key with outcomes
/// whose encoded records are **not byte-equal**.
///
/// Because evaluation is pure and floats round-trip exactly, two honest
/// explorations of the same scenario can never disagree — a conflict
/// means the caches came from different grids, code versions or corrupted
/// files, and the merge must fail rather than pick a side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConflict {
    /// The dedup key both caches claim.
    pub key: String,
    /// The outcome already held by the merge target, rendered for humans.
    pub ours: String,
    /// The outcome the merged-in cache carries, rendered for humans.
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
/// use memstream_grid::{CacheFormat, GridExecutor, ResultCache, ScenarioGrid};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Process-unique path: concurrent doc-test runs must not collide.
/// let dir = std::env::temp_dir().join(format!("memstream-cache-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("grid.cache");
/// # let _ = std::fs::remove_file(&path);
/// let grid = ScenarioGrid::paper_baseline(3);
///
/// let mut cache = ResultCache::load_lazy(&path)?; // empty on first run
/// let cold = GridExecutor::serial().explore_cached(&grid, &mut cache)?;
/// cache.save_as(&path, CacheFormat::default())?;
///
/// let mut warm = ResultCache::load_lazy(&path)?; // every cell hits
/// let rerun = GridExecutor::serial().explore_cached(&grid, &mut warm)?;
/// assert_eq!(warm.hits(), rerun.unique_evaluations());
/// assert_eq!(
///     memstream_grid::report::cells_csv(&cold),
///     memstream_grid::report::cells_csv(&rerun),
/// );
/// warm.save_as(&path, CacheFormat::default())?; // unchanged: nothing is written
/// # std::fs::remove_file(&path)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResultCache {
    /// Entries inserted or merged in. Without a view this is simply
    /// *the* map; with one it is the overlay over the file.
    entries: HashMap<String, CellOutcome>,
    /// The lazily opened file ([`ResultCache::open`]): probes hit its
    /// index and records decode on demand.
    view: Option<Arc<CacheView>>,
    /// Outcomes decoded from the view by lookups, by record ordinal
    /// (sized on the first view hit), so a hot record decodes once.
    decoded: Vec<Option<CellOutcome>>,
    /// The file the view was read from, as it was then.
    origin: Option<Origin>,
    /// Overlay keys the view does not hold, so `len()` is
    /// `view.len() + overlay_new` without iterating either side.
    overlay_new: usize,
    /// Whether an insert or merge changed the cache since it was opened:
    /// an unchanged view needs no save at all (or a verbatim copy).
    modified: bool,
    hits: usize,
    misses: usize,
    telemetry: CacheTelemetry,
}

/// Where a view was opened from: the path, and the file's length and
/// modification time at that moment. [`ResultCache::save_as`] skips the
/// write when one `stat` still shows the same file.
#[derive(Debug, Clone)]
struct Origin {
    path: PathBuf,
    len: u64,
    modified: Option<SystemTime>,
}

impl Origin {
    fn new(path: &Path, meta: &fs::Metadata) -> Self {
        Origin {
            path: path.to_owned(),
            len: meta.len(),
            modified: meta.modified().ok(),
        }
    }

    /// Whether `path` is the opened file, still unchanged on disk.
    fn unchanged_at(&self, path: &Path) -> bool {
        self.path == path
            && fs::metadata(path).is_ok_and(|meta| {
                meta.len() == self.len
                    && self.modified.is_some()
                    && meta.modified().ok() == self.modified
            })
    }
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
    save_bytes: Counter,
    /// Saves that found the opened file unchanged and wrote nothing.
    saves_skipped: Counter,
    save_span: SpanHandle,
    /// Files opened that were not cache files of this version.
    foreign_files: Counter,
    /// Records decoded on demand from a lazy [`CacheView`] — the number
    /// a warm run must keep proportional to the work requested, not the
    /// cache size. Eager loads do not count here (they are load-time
    /// cost, visible through spans instead).
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
            save_bytes: metrics.counter("cache.save_bytes"),
            saves_skipped: metrics.counter("cache.saves_skipped"),
            save_span: metrics.span("cache.save"),
            foreign_files: metrics.counter("cache.foreign_files"),
            records_decoded: metrics.counter("cache.records_decoded"),
            index_lookups: metrics.counter("cache.index_lookups"),
            lookup_latency: metrics.histogram("cache.lookup"),
        }
    }
}

/// Reads the file at `path` with the metadata of the very handle it was
/// read through; `None` if there is no such file.
fn read_file(path: &Path) -> io::Result<Option<(Vec<u8>, fs::Metadata)>> {
    let mut file = match fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let meta = file.metadata()?;
    let mut bytes = Vec::with_capacity(usize::try_from(meta.len()).unwrap_or(0));
    file.read_to_end(&mut bytes)?;
    Ok(Some((bytes, meta)))
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

    /// Loads a cache file eagerly, decoding every record into memory. A
    /// missing file or a foreign one (not `memstream-grid-cache v3`)
    /// yields an empty cache, silently; a malformed record drops it and
    /// everything after it (the length-prefixed stream cannot be
    /// resynchronised past damage). Warm starts use
    /// [`ResultCache::open`] instead.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "not found".
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut cache = ResultCache::new();
        if let Some((bytes, _)) = read_file(path.as_ref())? {
            if bytes.starts_with(MAGIC) {
                cache.entries = parse_lenient(&bytes);
            }
        }
        Ok(cache)
    }

    /// [`ResultCache::open`] without telemetry.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "not found".
    pub fn load_lazy(path: impl AsRef<Path>) -> io::Result<Self> {
        ResultCache::open(path, &Metrics::disabled())
    }

    /// Opens a cache file **lazily** and attaches the cache to
    /// `metrics`, all inside the `cache.load` span.
    ///
    /// A structurally valid file is held as a [`CacheView`] — only its
    /// record index is checked — and records decode on demand as lookups
    /// touch them (memoized, so a hot cell decodes once). Probes
    /// ([`ResultCache::contains_key`], planning) never decode at all.
    /// The cache remembers the file's path, length and modification
    /// time, so that saving it unchanged to the same path writes
    /// nothing ([`ResultCache::save_as`]).
    ///
    /// The read is lenient: a missing file is an empty cache, a damaged
    /// one keeps its intact record prefix, and a foreign file — another
    /// format or version — is an empty cache named in one stderr line
    /// and counted as `cache.foreign_files`; the next save replaces it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "not found".
    pub fn open(path: impl AsRef<Path>, metrics: &Metrics) -> io::Result<Self> {
        let _load = metrics.span("cache.load").start();
        let path = path.as_ref();
        let mut cache = ResultCache::new();
        cache.set_metrics(metrics);
        let Some((bytes, meta)) = read_file(path)? else {
            return Ok(cache);
        };
        if !bytes.starts_with(MAGIC) {
            eprintln!(
                "cache: {} is not a `{HEADER}` file (found `{}`); starting empty, the save replaces it",
                path.display(),
                header_line(&bytes)
            );
            cache.telemetry.foreign_files.incr();
            return Ok(cache);
        }
        match validate(&bytes) {
            Ok(offsets) => {
                cache.view = Some(Arc::new(CacheView::from_validated(bytes, offsets)));
                cache.origin = Some(Origin::new(path, &meta));
            }
            Err(_) => cache.entries = parse_lenient(&bytes),
        }
        Ok(cache)
    }

    /// Unions `other` into `self`. Keys held by both caches must encode to
    /// byte-identical records; the union is therefore order-independent —
    /// merging shard caches in any order yields the same entry set, and
    /// [`ResultCache::save_as`] (which sorts by key) the same file bytes.
    ///
    /// Hit/miss counters of both caches are left untouched: a merge is
    /// bookkeeping, not a lookup.
    ///
    /// The merge is **atomic**: every key is checked before any is
    /// inserted, so on a conflict `self` is left completely untouched — a
    /// shard whose cache disagrees contributes *nothing*, it cannot
    /// half-poison the target before the conflict is noticed.
    ///
    /// # Errors
    ///
    /// [`CacheConflict`] on the lowest-key conflicting entry.
    pub fn merge(&mut self, other: &ResultCache) -> Result<MergeStats, CacheConflict> {
        let _merge_timer = self.telemetry.merge_span.start();
        let count_bytes = self.telemetry.merge_bytes.is_live();
        let mut additions: Vec<(&str, CellOutcome)> = Vec::new();
        let mut duplicates = 0usize;
        let mut bytes = 0u64;
        let mut conflict: Option<CacheConflict> = None;
        for key in other.keys() {
            let theirs = other
                .get(key)
                .expect("listed keys resolve in their own cache");
            match self.get(key) {
                // The conflict rule is byte-equality of the *encoded*
                // records (the wire form), not structural equality: it
                // is the file bytes two shards must agree on, and it
                // treats equal NaN payloads as the duplicates they are.
                Some(ours) if encode_record(key, &ours) == encode_record(key, &theirs) => {
                    duplicates += 1;
                }
                Some(ours) => {
                    if conflict.as_ref().is_none_or(|held| key < held.key.as_str()) {
                        conflict = Some(CacheConflict {
                            key: key.to_owned(),
                            ours: format!("{ours:?}"),
                            theirs: format!("{theirs:?}"),
                        });
                    }
                }
                None => {
                    if count_bytes {
                        bytes += 4 + encode_record(key, &theirs).len() as u64;
                    }
                    additions.push((key, theirs));
                }
            }
        }
        if let Some(conflict) = conflict {
            return Err(conflict);
        }
        let stats = MergeStats {
            added: additions.len(),
            duplicates,
        };
        for (key, outcome) in additions {
            self.put(key.to_owned(), outcome);
        }
        self.telemetry.merge_bytes.add(bytes);
        self.telemetry.merges.incr();
        self.telemetry.merge_added.add(stats.added as u64);
        self.telemetry.merge_duplicates.add(stats.duplicates as u64);
        Ok(stats)
    }

    /// Writes the cache to `path`, records sorted by key for
    /// reproducible bytes. Records stream through an [`io::BufWriter`]
    /// — the whole file is never materialised in memory — and records
    /// still in the lazily opened file are copied as raw bytes, never
    /// decoded.
    ///
    /// A cache opened lazily from `path` that nothing was inserted into
    /// or merged into since **writes nothing**, provided one `stat`
    /// shows the file still has the length and modification time it was
    /// opened with (counted as `cache.saves_skipped`). Saved anywhere
    /// else, such a cache is copied verbatim.
    ///
    /// Every write is atomic with respect to readers: the bytes go to a
    /// process-unique sibling temp file that is then renamed over
    /// `path`, so a crash or a concurrent run leaves either the old file
    /// or the new one, never a truncated mix. (No fsync: durability
    /// across power loss is not promised, and every save would pay for
    /// it.)
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error `path` is left untouched and the
    /// temp file is removed.
    pub fn save_as(&self, path: impl AsRef<Path>, format: CacheFormat) -> io::Result<()> {
        let CacheFormat::Binary = format;
        let _save_timer = self.telemetry.save_span.start();
        let path = path.as_ref();
        if let (Some(view), false) = (self.view.as_deref(), self.modified) {
            if self.origin.as_ref().is_some_and(|o| o.unchanged_at(path)) {
                self.telemetry.saves_skipped.incr();
                return Ok(());
            }
            let bytes = view.file_bytes();
            write_replacing(path, |out| out.write_all(bytes))?;
            self.telemetry.save_bytes.add(bytes.len() as u64);
            return Ok(());
        }
        let mut keys: Vec<&str> = self.keys().collect();
        keys.sort_unstable();
        let bodies = keys.iter().map(|&key| match self.entries.get(key) {
            Some(outcome) => Cow::Owned(encode_record(key, outcome)),
            None => {
                let view = self.view.as_deref().expect("a key outside the overlay");
                Cow::Borrowed(view.body(view.find(key).expect("a listed view key")))
            }
        });
        let written = write_replacing(path, |out| write_file(out, bodies))?;
        self.telemetry.save_bytes.add(written);
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

    /// The overlay entry under `key`. A warm run's overlay is empty, so
    /// its lookups skip the hash probe entirely.
    fn overlay(&self, key: &str) -> Option<&CellOutcome> {
        if self.entries.is_empty() {
            None
        } else {
            self.entries.get(key)
        }
    }

    /// Binary-searches the view's index for `key` (counted), returning
    /// the record ordinal.
    fn view_ordinal(&self, key: &str) -> Option<usize> {
        let view = self.view.as_deref()?;
        self.telemetry.index_lookups.incr();
        view.find(key)
    }

    /// The outcome of view record `ordinal`: memoized, or decoded from
    /// its payload (counted; `None` if the payload is malformed).
    fn view_outcome(&self, ordinal: usize) -> Option<CellOutcome> {
        if let Some(outcome) = self.decoded.get(ordinal).and_then(Option::as_ref) {
            return Some(outcome.clone());
        }
        let outcome = self.view.as_deref()?.decode(ordinal)?;
        self.telemetry.records_decoded.incr();
        Some(outcome)
    }

    /// [`ResultCache::view_outcome`], memoized for later lookups.
    fn memoized_outcome(&mut self, ordinal: usize) -> Option<CellOutcome> {
        if self.decoded.is_empty() {
            self.decoded = vec![None; self.view.as_deref().map_or(0, CacheView::len)];
        }
        if self.decoded[ordinal].is_none() {
            self.decoded[ordinal] = self.view_outcome(ordinal);
        }
        self.decoded[ordinal].clone()
    }

    /// Looks up an outcome, counting the hit/miss and timing the probe
    /// into the `cache.lookup` histogram when telemetry is enabled.
    ///
    /// On a lazy cache, a view hit decodes that one record's payload —
    /// never its key — and memoizes the outcome by record ordinal, so
    /// repeated lookups of a hot cell decode once and
    /// `cache.records_decoded` tracks *distinct* records touched.
    pub(crate) fn lookup(&mut self, key: &str) -> Option<CellOutcome> {
        let started = self
            .telemetry
            .lookup_latency
            .is_live()
            .then(std::time::Instant::now);
        let found = match self.overlay(key) {
            Some(outcome) => Some(outcome.clone()),
            None => self
                .view_ordinal(key)
                .and_then(|ordinal| self.memoized_outcome(ordinal)),
        };
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

    /// Peeks at an outcome without touching the hit/miss counters (the
    /// shard planner asks "is this cell already known?" without it being
    /// a lookup of record). Returns an owned outcome: on a lazy cache
    /// the record may be decoded on the fly (without memoizing — peeks
    /// take `&self`).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<CellOutcome> {
        match self.overlay(key) {
            Some(outcome) => Some(outcome.clone()),
            None => self.view_outcome(self.view_ordinal(key)?),
        }
    }

    /// Whether `key` is cached, without counting a hit or miss. On a
    /// lazy cache this is an index probe — no record is decoded, which
    /// is what keeps fully-warm planning decode-free.
    #[must_use]
    pub fn contains_key(&self, key: &str) -> bool {
        self.overlay(key).is_some() || self.view_ordinal(key).is_some()
    }

    /// Iterates the cached dedup keys in arbitrary order (sort before
    /// relying on the order for anything user-visible).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        let view = self.view.as_deref();
        self.entries
            .keys()
            .map(String::as_str)
            .filter(move |key| view.is_none_or(|view| view.find(key).is_none()))
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
        self.put(key, outcome);
    }

    /// Adds an entry to the overlay, keeping `len()` and the save-skip
    /// state right.
    fn put(&mut self, key: String, outcome: CellOutcome) {
        let in_view = self.view_ordinal(&key).is_some();
        let replaced = self.entries.insert(key, outcome).is_some();
        if self.view.is_some() && !in_view && !replaced {
            self.overlay_new += 1;
        }
        self.modified = true;
    }
}

/// Maps a decoded region/dominant label back to the `&'static str` the
/// outcome types carry. Only labels the evaluator can produce round-trip;
/// anything else rejects the record.
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

// ---------------------------------------------------------------------
// The record encoding (docs/CACHE_FORMAT.md § "Records"). Scalars are
// little-endian; floats are raw IEEE-754 bits, so the round-trip is
// exact by construction. Strings are `u32 length + UTF-8 bytes`. Each
// record is `u32 body length + body`, body = `key string, tag byte,
// payload`.
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

/// A bounds-checked cursor over cache bytes. Every reader returns `None`
/// past the end — truncation surfaces as a parse failure, never a panic.
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

    /// An optional value that `make` checks into a quantity.
    fn opt_quantity<T, E>(&mut self, make: fn(f64) -> Result<T, E>) -> Option<Option<T>> {
        self.opt_f64()?.map(make).transpose().ok()
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

    /// The outcome (tag and payload) at the cursor, which must end
    /// exactly at the end of the bytes — the length prefix and the
    /// payload must agree. A value that breaks its unit's invariant (a
    /// negative size, a ratio above 1, ...) makes the record undecodable.
    fn outcome(&mut self) -> Option<CellOutcome> {
        let outcome = match self.take(1)?[0] {
            b'F' => CellOutcome::Feasible(PlannedPoint {
                buffer: DataSize::try_from_bits(self.f64()?).ok()?,
                dominant: self.label()?,
                saving: self.opt_f64()?,
                utilization: Ratio::try_from_fraction(self.f64()?).ok()?,
                lifetime: Years::try_new(self.f64()?).ok()?,
                energy_per_bit: self.opt_quantity(EnergyPerBit::try_from_joules_per_bit)?,
            }),
            b'X' => CellOutcome::Infeasible {
                region: self.label()?,
                detail: self.string()?,
            },
            b'D' => CellOutcome::EnergyOnly(EnergyOnlyPoint {
                break_even: self.opt_quantity(DataSize::try_from_bits)?,
                buffer_for_saving: self.opt_quantity(DataSize::try_from_bits)?,
                saving: self.opt_f64()?,
            }),
            b'U' => CellOutcome::Unmodelled {
                detail: self.string()?,
            },
            _ => return None,
        };
        (self.pos == self.bytes.len()).then_some(outcome)
    }
}

/// Decodes one record body into its key and outcome.
pub(crate) fn decode_record(body: &[u8]) -> Option<(String, CellOutcome)> {
    let mut r = ByteReader {
        bytes: body,
        pos: 0,
    };
    let key = r.string()?;
    Some((key, r.outcome()?))
}

/// Decodes the outcome of one record body, skipping over its key
/// without copying it — the lazy hit path.
pub(crate) fn decode_outcome(body: &[u8]) -> Option<CellOutcome> {
    let mut r = ByteReader {
        bytes: body,
        pos: 0,
    };
    let key_len = r.u32()? as usize;
    r.take(key_len)?;
    r.outcome()
}

/// Encodes entries as one **record frame**: their records back to back,
/// each `u32 body length + body` — the bytes a shard worker sends after
/// a `lease-records` line (`docs/SHARD_PROTOCOL.md` § "Record frames").
pub fn encode_frame<'a>(entries: impl IntoIterator<Item = (&'a str, &'a CellOutcome)>) -> Vec<u8> {
    let mut frame = Vec::new();
    for (key, outcome) in entries {
        let body = encode_record(key, outcome);
        let len = u32::try_from(body.len()).expect("cache record exceeds u32 length");
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&body);
    }
    frame
}

/// Decodes a complete record frame ([`encode_frame`]). Returns the
/// records in frame order and, if a record is torn (its length runs past
/// the frame's end) or undecodable, the byte offset of that record: the
/// records before it are returned, nothing after it is read.
#[must_use]
pub fn decode_frame(frame: &[u8]) -> (Vec<(String, CellOutcome)>, Option<usize>) {
    let mut r = ByteReader {
        bytes: frame,
        pos: 0,
    };
    let mut records = Vec::new();
    scan_records(&mut r, usize::MAX, &mut records);
    let damage = (r.pos < frame.len()).then_some(r.pos);
    (records, damage)
}

/// The crate's one lenient record loop: decodes up to `limit` records
/// at the cursor into `entries`, stopping at the first that is torn or
/// undecodable, and leaves the cursor at the start of that record.
fn scan_records(
    r: &mut ByteReader<'_>,
    limit: usize,
    entries: &mut impl Extend<(String, CellOutcome)>,
) {
    for _ in 0..limit {
        let start = r.pos;
        let entry = r
            .u32()
            .and_then(|len| r.take(len as usize))
            .and_then(decode_record);
        let Some(entry) = entry else {
            r.pos = start;
            return;
        };
        entries.extend([entry]);
    }
}

/// Leniently scans the records of a cache file (`bytes` starts with
/// [`MAGIC`]): the record loop of [`decode_frame`], bounded by the
/// header count. Every entry parsed before the first malformation is
/// kept, damage and everything after it is dropped. This reader never
/// consults the index.
///
/// The map is pre-sized from the header count, capped against the
/// honest minimum record footprint so a hostile count cannot balloon
/// the allocation past the actual file size.
fn parse_lenient(bytes: &[u8]) -> HashMap<String, CellOutcome> {
    let mut r = ByteReader {
        bytes,
        pos: MAGIC.len(),
    };
    let Some(count) = r.u64().and_then(|c| usize::try_from(c).ok()) else {
        return HashMap::new();
    };
    let mut entries = HashMap::with_capacity(count.min(bytes.len() / 10));
    scan_records(&mut r, count, &mut entries);
    entries
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

/// Streams a cache file — magic, count, the record bodies (already in
/// key order), the index and the trailer — returning the bytes written.
fn write_file<'a>(
    out: &mut impl io::Write,
    bodies: impl ExactSizeIterator<Item = Cow<'a, [u8]>>,
) -> io::Result<u64> {
    out.write_all(MAGIC)?;
    out.write_all(&(bodies.len() as u64).to_le_bytes())?;
    let mut offset = MAGIC.len() as u64 + 8;
    let mut index: Vec<u64> = Vec::with_capacity(bodies.len());
    for body in bodies {
        index.push(offset);
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

    fn save(cache: &ResultCache, path: &Path) {
        cache.save_as(path, CacheFormat::default()).unwrap();
    }

    fn round_trip(key: &str, outcome: &CellOutcome) -> (String, CellOutcome) {
        let body = encode_record(key, outcome);
        assert_eq!(
            decode_outcome(&body).as_ref(),
            Some(outcome),
            "the key-skipping decoder agrees"
        );
        decode_record(&body).expect("record decodes")
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
            let (parsed_key, parsed) = round_trip(&key, outcome);
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
        assert_eq!(round_trip("k", &unmodelled).1, unmodelled);
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
        assert_eq!(round_trip("k", &outcome).1, outcome);
    }

    #[test]
    fn hostile_strings_are_escaped() {
        // Records are length-prefixed, so keys and details travel raw:
        // tabs, newlines and backslashes come back byte for byte, in
        // memory and through a saved file.
        let outcome = CellOutcome::Infeasible {
            region: "X",
            detail: "tab\there\nnewline\\backslash".to_owned(),
        };
        let key = "key\twith\ttabs\nand\\newlines";
        assert_eq!(round_trip(key, &outcome), (key.to_owned(), outcome.clone()));
        let path = temp_path("hostile.cache");
        let mut cache = ResultCache::new();
        cache.insert(key.to_owned(), outcome.clone());
        save(&cache, &path);
        assert_eq!(
            ResultCache::load_lazy(&path).unwrap().get(key),
            Some(outcome)
        );
        fs::remove_file(path).unwrap();
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
        save(&cache, &path);

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
        save(&cache, &path);
        let old_bytes = fs::read(&path).unwrap();
        // A reader that opened the old file keeps reading the old bytes.
        let mut reader = fs::File::open(&path).unwrap();

        cache.insert("second".to_owned(), outcome("after"));
        save(&cache, &path);
        assert_eq!(CacheView::open(&path).unwrap().len(), 2);
        let mut seen = Vec::new();
        io::Read::read_to_end(&mut reader, &mut seen).unwrap();
        assert_eq!(seen, old_bytes, "the open reader saw a rewrite");

        // A save that cannot complete (the target is a directory) cleans
        // up its temp file.
        let dir = temp_path("atomic-dir");
        fs::create_dir_all(&dir).unwrap();
        assert!(cache.save_as(&dir, CacheFormat::default()).is_err());
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
    fn unchanged_lazy_cache_is_not_rewritten() {
        let path = temp_path("skip.cache");
        let grid = ScenarioGrid::paper_baseline(3);
        let mut cold = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cold)
            .unwrap();
        save(&cold, &path);
        let before = fs::metadata(&path).unwrap();

        // A fully warm run inserts nothing: its save writes nothing —
        // the file is the same inode, untouched.
        let metrics = Metrics::enabled();
        let mut warm = ResultCache::open(&path, &metrics).unwrap();
        GridExecutor::serial()
            .explore_cached(&grid, &mut warm)
            .unwrap();
        save(&warm, &path);
        let after = fs::metadata(&path).unwrap();
        assert_eq!(after.modified().unwrap(), before.modified().unwrap());
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt as _;
            assert_eq!(after.ino(), before.ino(), "the file was replaced");
        }
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counter("cache.saves_skipped"), Some(1));
        assert_eq!(snapshot.counter("cache.save_bytes"), Some(0));

        // Saved elsewhere, the same cache is a verbatim copy.
        let copy = temp_path("skip-copy.cache");
        save(&warm, &copy);
        assert_eq!(fs::read(&copy).unwrap(), fs::read(&path).unwrap());

        // A file that changed since it was opened is written again ...
        let mut stale = ResultCache::load_lazy(&path).unwrap();
        fs::write(&path, b"clobbered").unwrap();
        save(&stale, &path);
        assert_eq!(fs::read(&path).unwrap(), fs::read(&copy).unwrap());
        // ... and so is a cache that gained an entry.
        stale.insert(
            "new".to_owned(),
            CellOutcome::Unmodelled {
                detail: "x".to_owned(),
            },
        );
        save(&stale, &path);
        assert_eq!(CacheView::open(&path).unwrap().len(), cold.len() + 1);
        for p in [path, copy] {
            fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn corrupt_lines_become_misses() {
        // A record whose frame and key are intact but whose payload is
        // garbage passes structural validation; the lazy lookup treats
        // it as a miss, the run re-evaluates it, and the save repairs it.
        let path = temp_path("corrupt.cache");
        let mut cache = ResultCache::new();
        for key in ["a", "b"] {
            cache.insert(
                key.to_owned(),
                CellOutcome::Unmodelled {
                    detail: format!("detail {key}"),
                },
            );
        }
        save(&cache, &path);
        let mut bytes = fs::read(&path).unwrap();
        // The first record's tag byte sits after its length prefix and
        // its `u32 + "a"` key.
        let tag = MAGIC.len() + 8 + 4 + 4 + 1;
        assert_eq!(bytes[tag], b'U');
        bytes[tag] = b'?';
        fs::write(&path, &bytes).unwrap();

        let mut lazy = ResultCache::load_lazy(&path).unwrap();
        assert_eq!(lazy.len(), 2, "the structure is intact");
        assert!(lazy.lookup("a").is_none(), "a corrupt payload is a miss");
        assert!(lazy.lookup("b").is_some());
        lazy.insert("a".to_owned(), cache.get("a").unwrap());
        save(&lazy, &path);
        let repaired = ResultCache::load(&path).unwrap();
        assert_eq!(repaired.get("a"), cache.get("a"));
        assert_eq!(repaired.len(), 2);
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn unknown_header_is_an_empty_cache() {
        // A foreign file — here an old text-format cache — opens empty,
        // is counted, and the next save replaces it.
        let path = temp_path("future.cache");
        fs::write(&path, "memstream-grid-cache v1\nk\tU\tdetail\n").unwrap();
        let metrics = Metrics::enabled();
        let cache = ResultCache::open(&path, &metrics).unwrap();
        assert!(cache.is_empty());
        assert_eq!(metrics.snapshot().counter("cache.foreign_files"), Some(1));
        assert!(ResultCache::load(&path).unwrap().is_empty());
        save(&cache, &path);
        assert!(fs::read(&path).unwrap().starts_with(MAGIC));
        assert!(CacheView::open(&path).unwrap().is_empty());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_cache() {
        let cache = ResultCache::load(temp_path("does-not-exist.cache")).unwrap();
        assert!(cache.is_empty());
        let cache = ResultCache::load_lazy(temp_path("does-not-exist.cache")).unwrap();
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
        save(&whole, &p1);
        save(&forward, &p2);
        save(&backward, &p3);
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
    fn merge_into_a_lazy_cache_checks_the_file_records() {
        // The target's entries may still sit undecoded in its view: a
        // duplicate is recognised byte for byte, a disagreement is a
        // conflict, and additions land in the overlay.
        let path = temp_path("merge-lazy.cache");
        let outcome = |detail: &str| CellOutcome::Unmodelled {
            detail: detail.to_owned(),
        };
        let mut file = ResultCache::new();
        file.insert("held".to_owned(), outcome("held"));
        save(&file, &path);

        let mut lazy = ResultCache::load_lazy(&path).unwrap();
        let mut theirs = ResultCache::new();
        theirs.insert("held".to_owned(), outcome("held"));
        theirs.insert("new".to_owned(), outcome("new"));
        let stats = lazy.merge(&theirs).unwrap();
        assert_eq!((stats.added, stats.duplicates), (1, 1));
        assert_eq!(lazy.len(), 2);

        let mut liar = ResultCache::new();
        liar.insert("held".to_owned(), outcome("different"));
        assert_eq!(lazy.merge(&liar).unwrap_err().key, "held");
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn strict_load_rejects_version_mismatch_and_corruption() {
        // The strict reader is `CacheView::open`: no lenient fallback.
        let versioned = temp_path("strict-version.cache");
        fs::write(&versioned, "memstream-grid-cache v99\nanything\n").unwrap();
        match CacheView::open(&versioned).unwrap_err() {
            CacheFileError::VersionMismatch { found } => {
                assert_eq!(found, "memstream-grid-cache v99");
            }
            other => panic!("expected version mismatch, got {other}"),
        }
        fs::remove_file(versioned).unwrap();

        let corrupt = temp_path("strict-corrupt.cache");
        save(&hostile_cache(), &corrupt);
        let mut bytes = fs::read(&corrupt).unwrap();
        bytes.truncate(bytes.len() - 3);
        fs::write(&corrupt, &bytes).unwrap();
        assert!(matches!(
            CacheView::open(&corrupt).unwrap_err(),
            CacheFileError::MalformedIndex { .. }
        ));
        fs::remove_file(corrupt).unwrap();

        assert!(matches!(
            CacheView::open(temp_path("strict-missing.cache")).unwrap_err(),
            CacheFileError::Io(_)
        ));
    }

    /// A cache holding every outcome kind plus hostile keys/details.
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
        save(&cache, &path);
        assert!(
            fs::read(&path).unwrap().starts_with(MAGIC),
            "cache files carry the sniffable magic"
        );
        for loaded in [
            ResultCache::load(&path).unwrap(),
            ResultCache::load_lazy(&path).unwrap(),
        ] {
            assert_eq!(loaded.len(), cache.len());
            for key in cache.keys() {
                assert_eq!(loaded.get(key), cache.get(key), "drift under key {key}");
            }
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn resave_of_a_loaded_cache_is_byte_identical() {
        let (p1, p2, p3) = (
            temp_path("resave-a.cache"),
            temp_path("resave-b.cache"),
            temp_path("resave-c.cache"),
        );
        let cache = hostile_cache();
        save(&cache, &p1);
        // Decoded and re-encoded (eager), or copied from the view with
        // one extra entry merged in and out again: the same bytes.
        save(&ResultCache::load(&p1).unwrap(), &p2);
        assert_eq!(fs::read(&p1).unwrap(), fs::read(&p2).unwrap());
        let mut lazy = ResultCache::load_lazy(&p1).unwrap();
        lazy.insert("zz-extra".to_owned(), cache.get("unmodelled").unwrap());
        save(&lazy, &p3);
        let mut extended = ResultCache::load(&p3).unwrap();
        assert_eq!(extended.len(), cache.len() + 1);
        extended.entries.remove("zz-extra");
        save(&extended, &p3);
        assert_eq!(fs::read(&p1).unwrap(), fs::read(&p3).unwrap());
        for p in [p1, p2, p3] {
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
        save(&cache, &path);
        let bytes = fs::read(&path).unwrap();
        // Keep the magic, the count and the first record only.
        let first_len =
            u32::from_le_bytes(bytes[MAGIC.len() + 8..MAGIC.len() + 12].try_into().unwrap())
                as usize;
        fs::write(&path, &bytes[..MAGIC.len() + 8 + 4 + first_len]).unwrap();

        for lenient in [
            ResultCache::load(&path).unwrap(),
            ResultCache::load_lazy(&path).unwrap(),
        ] {
            assert_eq!(lenient.len(), 1, "the intact prefix survives");
            assert!(lenient.contains_key("a"), "records sort by key");
        }
        // Truncation tears off the record index entirely, so the strict
        // reader attributes the damage to the (garbage) trailer bytes.
        let len = fs::metadata(&path).unwrap().len();
        match CacheView::open(&path).unwrap_err() {
            CacheFileError::MalformedIndex { offset } => assert_eq!(offset, len - 8),
            other => panic!("expected index damage, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn v2_strict_load_verifies_the_record_index() {
        let path = temp_path("v2-bad-index.cache");
        save(&hostile_cache(), &path);
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        // The records themselves are intact: the lenient readers (which
        // fall back to the record scan) still load everything.
        assert_eq!(
            ResultCache::load_lazy(&path).unwrap().len(),
            hostile_cache().len()
        );
        match CacheView::open(&path).unwrap_err() {
            CacheFileError::MalformedIndex { offset } => {
                assert_eq!(offset, bytes.len() as u64 - 8, "attributed at the trailer");
            }
            other => panic!("expected malformed index, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn strict_load_accepts_what_save_wrote() {
        let path = temp_path("strict-roundtrip.cache");
        let grid = ScenarioGrid::paper_baseline(3);
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .unwrap();
        save(&cache, &path);
        let strict = CacheView::open(&path).unwrap();
        assert_eq!(strict.len(), cache.len());
        for key in cache.keys() {
            assert_eq!(strict.get(key), cache.get(key));
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn lazy_hits_decode_each_record_once() {
        let path = temp_path("decode-once.cache");
        save(&hostile_cache(), &path);
        let metrics = Metrics::enabled();
        let mut lazy = ResultCache::open(&path, &metrics).unwrap();
        for _ in 0..3 {
            assert!(lazy.lookup("unmodelled").is_some());
        }
        assert!(lazy.lookup("absent").is_none());
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counter("cache.records_decoded"), Some(1));
        assert_eq!(snapshot.counter("cache.hits"), Some(3));
        let load = snapshot.spans.iter().find(|s| s.name == "cache.load");
        assert_eq!(load.map(|s| s.entries), Some(1));
        fs::remove_file(path).unwrap();
    }

    fn unmodelled(detail: &str) -> CellOutcome {
        CellOutcome::Unmodelled {
            detail: detail.to_owned(),
        }
    }

    #[test]
    fn frames_round_trip_through_the_one_record_loop() {
        let (a, b) = (unmodelled("a"), unmodelled("b"));
        let frame = encode_frame([("a", &a), ("b", &b)]);
        let expected = vec![("a".to_owned(), a), ("b".to_owned(), b)];
        assert_eq!(decode_frame(&frame), (expected.clone(), None));
        assert_eq!(decode_frame(&[]), (Vec::new(), None));

        // The lenient file reader is the same loop bounded by the
        // header count: the frame's records behind a cache header load
        // as a cache, and a smaller count stops the loop early.
        for count in [2u64, 1] {
            let mut file = MAGIC.to_vec();
            file.extend_from_slice(&count.to_le_bytes());
            file.extend_from_slice(&frame);
            let loaded = parse_lenient(&file);
            assert_eq!(loaded.len(), count as usize);
            assert_eq!(loaded.get("a"), Some(&expected[0].1));
        }
    }

    #[test]
    fn torn_flush_tail_is_dropped_but_the_committed_prefix_survives() {
        // A record whose length prefix promises more bytes than its
        // frame holds never surfaces; the records before it do, from
        // the frame decoder and the lenient file reader alike.
        let (a, b) = (unmodelled("a"), unmodelled("b"));
        let mut frame = encode_frame([("a", &a), ("b", &b)]);
        let committed = frame.len();
        frame.extend_from_slice(&64u32.to_le_bytes());
        frame.extend_from_slice(&[0xAB; 7]);
        let (records, damage) = decode_frame(&frame);
        assert_eq!(records.len(), 2);
        assert_eq!(damage, Some(committed), "attributed at the torn record");

        let mut file = MAGIC.to_vec();
        file.extend_from_slice(&3u64.to_le_bytes());
        file.extend_from_slice(&frame);
        assert_eq!(parse_lenient(&file).len(), 2);

        // Cut anywhere, a frame yields exactly a prefix of its records.
        let whole = encode_frame([("a", &a), ("b", &b)]);
        for end in 0..whole.len() {
            let (records, damage) = decode_frame(&whole[..end]);
            assert!(records.len() < 2 && damage.is_none_or(|at| at < end));
            assert!(records.iter().all(|(key, _)| key == "a"));
        }
    }

    #[test]
    fn corrupt_flush_record_marks_the_stream_damaged_keeping_the_prefix() {
        let a = unmodelled("a");
        let good = encode_frame([("a", &a)]);
        // A complete but undecodable record (well-formed length, garbage
        // body), and a record whose key is not UTF-8.
        let mut garbage = 8u32.to_le_bytes().to_vec();
        garbage.extend_from_slice(&[0xAB; 8]);
        let mut bad_key = encode_record("ab", &a);
        bad_key[4..6].copy_from_slice(&[0xFF, 0xFE]);
        let mut non_utf8 = (bad_key.len() as u32).to_le_bytes().to_vec();
        non_utf8.extend_from_slice(&bad_key);
        // Well-formed records holding a value that breaks its unit's
        // invariant: a negative lifetime, a utilization above 1, a NaN
        // buffer, a negative per-bit energy.
        let feasible = encode_frame([(
            "f",
            &CellOutcome::Feasible(PlannedPoint {
                buffer: DataSize::from_kibibytes(12.0),
                dominant: "Lpe",
                saving: Some(0.75),
                utilization: Ratio::from_fraction(0.93),
                lifetime: Years::new(7.5),
                energy_per_bit: Some(EnergyPerBit::from_joules_per_bit(2e-9)),
            }),
        )]);
        let broken = [
            (7.5, -1.0),
            (0.93, 2.0),
            (98_304.0, f64::NAN),
            (2e-9, -2e-9),
        ]
        .map(|(value, bad): (f64, f64)| {
            let at = feasible
                .windows(8)
                .position(|w| w == value.to_bits().to_le_bytes())
                .expect("the value's bytes");
            let mut record = feasible.clone();
            record[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
            record
        });
        for damaged in [garbage, non_utf8].into_iter().chain(broken) {
            let mut frame = good.clone();
            frame.extend_from_slice(&damaged);
            // Nothing after the damage is read, not even a good record.
            frame.extend_from_slice(&good);
            let (records, damage) = decode_frame(&frame);
            assert_eq!(records, vec![("a".to_owned(), a.clone())]);
            assert_eq!(damage, Some(good.len()));
        }
    }
}
