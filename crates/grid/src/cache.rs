//! Cross-run result caching: persist evaluated cell outcomes keyed by
//! [`ScenarioGrid::dedup_key`](crate::ScenarioGrid::dedup_key) so repeated
//! explorations (CI re-runs, interactive sweeps) skip already-evaluated
//! cells across process boundaries.
//!
//! There is one on-disk format, `memstream-grid-cache v4`, specified in
//! `docs/CACHE_FORMAT.md` at the repository root: length-prefixed binary
//! records sorted by key, closed by a record index. Floats are raw
//! IEEE-754 bits, so a warm run reproduces the cold run's reports
//! **byte-identically** — the property the CI determinism smoke asserts —
//! and a warm start parses nothing up front: [`ResultCache::load_lazy`]
//! validates the index and decodes only the records a run looks up. A
//! run that adds nothing does not rewrite the file at all
//! ([`ResultCache::save_as`]).
//!
//! A cache is one key-sorted list of record slots over record buffers it
//! owns. A whole opened file is buffer 0 and its index is where the list
//! starts; every batch of records added later is one more buffer. One
//! search serves lookups, probes, merges and the strict reader
//! ([`CacheView`](crate::CacheView)), and a save walks the list, copying
//! records raw.
//!
//! The lenient reader never fails a run over file contents: a damaged
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

use std::cmp::Ordering;
use std::fmt;
use std::fs;
use std::io;
use std::io::{Read as _, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{self, AtomicUsize};
use std::time::SystemTime;

use memstream_core::{InfeasibleReason, ModelError, Requirement};
use memstream_media::FormatError;
use memstream_telemetry::{Counter, Histogram, HistogramSample, Metrics, SpanHandle};
use memstream_units::{BitRate, DataSize, EnergyPerBit, Ratio, Years};

use crate::eval::{CellOutcome, EnergyOnlyPoint, PlannedPoint};
use crate::view::{record_at, validate};

/// The header line every cache file starts with.
const HEADER: &str = "memstream-grid-cache v4";
/// The sniffable magic: the header line including its terminator.
pub(crate) const MAGIC: &[u8] = b"memstream-grid-cache v4\n";

/// The on-disk encoding [`ResultCache::save_as`] writes. There is only
/// one, the binary record format; the type is retained so that callers
/// written against the earlier two-format API (the benchmark's replay
/// among them) keep compiling. It selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheFormat {
    /// The length-prefixed binary format (`memstream-grid-cache v4`).
    #[default]
    Binary,
}

/// Why a strict read ([`CacheView::open`](crate::CacheView::open))
/// rejected a cache file.
///
/// The lenient reader ([`ResultCache::open`]) maps every non-I/O failure
/// below to "empty cache" or "intact prefix"; the strict reader exists
/// for files that must be whole.
#[derive(Debug)]
pub enum CacheFileError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The file does not start with the `memstream-grid-cache v4` magic.
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
/// The cache holds **records**, not outcomes: each entry is the file's
/// own encoding (`u32 length + body`, `docs/CACHE_FORMAT.md`), written
/// once — by the worker that evaluated the cell, or by whoever built a
/// [`RecordBatch`] — and never re-encoded. The entries are one key-sorted
/// list of slots over the record buffers the cache owns: a whole file it
/// was opened over is buffer 0, and each batch added since is one more.
/// One binary search serves every lookup, a lookup decodes the one record
/// it hits, and a save walks the list, copying every record raw.
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
/// assert_eq!(warm.hits(), rerun.total_cells());
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
    /// The record buffers the slots point into, each holding records
    /// back to back as the file does: the whole file the cache was
    /// opened over (buffer 0), then one per absorbed batch (a series'
    /// misses, an insert, a frame, a merge's additions, the intact
    /// prefix of a damaged file).
    buffers: Vec<Vec<u8>>,
    /// One slot per key, in strictly ascending key order.
    slots: Vec<Slot>,
    /// The whole file the cache was opened over, as it was then.
    origin: Option<Origin>,
    /// Whether an insert or merge changed the cache since it was opened:
    /// an unchanged file saved back to its own path needs no save at all.
    modified: bool,
    hits: usize,
    misses: usize,
    telemetry: CacheTelemetry,
}

/// Where a record sits: which of the cache's record buffers, the offset
/// of the record's `u32` length prefix in it, and its key's length, so a
/// search reads the key without first reading where it ends.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    buffer: u32,
    key_len: u32,
    offset: usize,
}

impl Slot {
    /// The slot of the record at `offset` whose key is `key`; its buffer
    /// is numbered when its batch enters a cache.
    pub(crate) fn new(offset: usize, key: &[u8]) -> Self {
        let key_len = u32::try_from(key.len()).expect("cache keys have u32 lengths");
        Slot {
            buffer: 0,
            key_len,
            offset,
        }
    }

    /// The record's key bytes in `buffer`: after its length prefix and
    /// its key's.
    fn key<'a>(&self, buffer: &'a [u8]) -> &'a [u8] {
        let start = self.offset + 8;
        &buffer[start..start + self.key_len as usize]
    }
}

/// The whole record (length prefix and body) in `slot`.
fn slot_record<'a>(buffers: &'a [Vec<u8>], slot: &Slot) -> &'a [u8] {
    record_at(&buffers[slot.buffer as usize], slot.offset)
}

/// The key bytes of the record in `slot`.
fn slot_key<'a>(buffers: &'a [Vec<u8>], slot: &Slot) -> &'a [u8] {
    slot.key(&buffers[slot.buffer as usize])
}

/// Binary-searches `slots[range]`, part of a key-sorted slot list over
/// `buffers`, for `key`: `Ok` with its position, or `Err` with the
/// position where it would be inserted. Comparing raw key bytes is exact,
/// because the list holds its keys in strictly ascending byte order.
fn search(
    buffers: &[Vec<u8>],
    slots: &[Slot],
    key: &[u8],
    range: Range<usize>,
) -> Result<usize, usize> {
    let start = range.start;
    slots[range]
        .binary_search_by(|slot| slot_key(buffers, slot).cmp(key))
        .map(|found| start + found)
        .map_err(|at| start + at)
}

/// [`search`] over all of `slots`, outward from position `near` (clamped
/// to the last slot): steps of 1, 2, 4, … away from `near` bracket `key`
/// between two slots, and the binary search runs inside that bracket
/// only. The answer is always the whole-list search's; the cost grows
/// with the logarithm of the distance from `near` to `key`.
fn search_near(
    buffers: &[Vec<u8>],
    slots: &[Slot],
    key: &[u8],
    near: usize,
) -> Result<usize, usize> {
    let Some(last) = slots.len().checked_sub(1) else {
        return Err(0);
    };
    let near = near.min(last);
    let side = slot_key(buffers, &slots[near]).cmp(key);
    let mut bracket = match side {
        Ordering::Equal => return Ok(near),
        Ordering::Less => near + 1..slots.len(),
        Ordering::Greater => 0..near,
    };
    let mut step = 1usize;
    loop {
        let probe = match side {
            Ordering::Less => near.checked_add(step).filter(|&p| p < slots.len()),
            _ => near.checked_sub(step),
        };
        let Some(probe) = probe else { break };
        let ordering = slot_key(buffers, &slots[probe]).cmp(key);
        match ordering {
            Ordering::Equal => return Ok(probe),
            Ordering::Less => bracket.start = probe + 1,
            Ordering::Greater => bracket.end = probe,
        }
        if ordering != side {
            break;
        }
        step = step.saturating_mul(2);
    }
    search(buffers, slots, key, bracket)
}

/// Encoded records on their way into a cache: one buffer holding the
/// records back to back, each `u32 length + body` as in the file, and a
/// slot for each. A batch enters a cache as one sorted run
/// ([`ResultCache::absorb`]): adding n records costs one merge of two
/// sorted lists, and their bytes are never copied again.
#[derive(Debug, Default)]
pub struct RecordBatch {
    bytes: Vec<u8>,
    slots: Vec<Slot>,
    /// Whether `slots` is in strictly ascending key order.
    sorted: bool,
}

impl RecordBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        RecordBatch::default()
    }

    /// Appends the record of `outcome` under `key`, encoded straight into
    /// the batch's buffer. A later record under the same key replaces an
    /// earlier one.
    pub fn push(&mut self, key: &str, outcome: &CellOutcome) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&[0; 4]);
        encode_body(&mut self.bytes, key, outcome);
        let len =
            u32::try_from(self.bytes.len() - start - 4).expect("cache record exceeds u32 length");
        self.bytes[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.slots.push(Slot::new(start, key.as_bytes()));
        self.sorted = false;
    }

    /// Appends a whole record (length prefix and body), whose key is
    /// `key`, as it is.
    fn push_record(&mut self, record: &[u8], key: &[u8]) {
        self.slots.push(Slot::new(self.bytes.len(), key));
        self.bytes.extend_from_slice(record);
        self.sorted = false;
    }

    /// Number of records pushed (before any replacement by key).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the batch holds no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Makes room for `records` more records whose keys are about
    /// `key_len` bytes long, so that encoding them never moves the
    /// buffer. Untouched capacity costs no memory.
    pub(crate) fn reserve(&mut self, records: usize, key_len: usize) {
        // A feasible record is its key plus 58 bytes, an infeasible one
        // plus 36; only an unmodelled error's free text runs longer.
        self.bytes.reserve(records * (key_len + 60));
        self.slots.reserve(records);
    }

    /// Puts the records in the order `order` lists them (by push index),
    /// which the caller knows to be strictly ascending key order, each
    /// record once: a sort without a single key comparison.
    pub(crate) fn reorder(&mut self, order: impl Iterator<Item = usize>) {
        let slots: Vec<Slot> = order.map(|record| self.slots[record]).collect();
        debug_assert_eq!(slots.len(), self.slots.len(), "every record once");
        self.slots = slots;
        self.sorted = true;
        debug_assert!(
            self.slots
                .windows(2)
                .all(|pair| pair[0].key(&self.bytes) < pair[1].key(&self.bytes)),
            "records out of key order"
        );
    }

    /// Sorts the records by key, keeping the last one pushed under each
    /// key. A no-op on a sorted batch.
    fn sort(&mut self) {
        if self.sorted {
            return;
        }
        let bytes = &self.bytes;
        // Offsets grow in push order: ties broken by descending offset put
        // the last record pushed under a key first, which `dedup_by` keeps.
        self.slots
            .sort_unstable_by(|a, b| a.key(bytes).cmp(b.key(bytes)).then(b.offset.cmp(&a.offset)));
        self.slots.dedup_by(|a, b| a.key(bytes) == b.key(bytes));
        self.sorted = true;
    }
}

/// One series' lookup state ([`ResultCache::lookup`]): where in the
/// cache's slot list its last search landed, so the next one starts
/// there, and its own tallies of what the lookups did. The series owns it
/// outright, so its lookups write no memory that another thread shares;
/// the executor publishes it once the series is done
/// ([`ResultCache::publish`]).
#[derive(Debug, Default)]
pub(crate) struct LookupCursor {
    /// The list position of the last search.
    near: usize,
    hits: usize,
    misses: usize,
    /// Searches that counted as searches of the opened file.
    index_lookups: u64,
    /// Records of the opened file decoded.
    records_decoded: u64,
    /// The sampled lookups' latencies, when `cache.lookup` is live.
    latency: Option<HistogramSample>,
}

/// Where a cache was opened from: the path, and the file's length and
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
    /// Records of the opened file decoded on demand — the number a warm
    /// run must keep proportional to the work requested, not the cache
    /// size.
    records_decoded: Counter,
    /// Searches that the opened file's records answer: a search of a
    /// cache opened over a whole file that misses or finds one of them.
    index_lookups: Counter,
    /// Sampled lookup latency distribution (`cache.lookup`); the clock
    /// is only read when the histogram is live, and then only for one
    /// lookup in [`LOOKUP_SAMPLE_EVERY`] of each cursor.
    lookup_latency: Histogram,
}

/// A cursor times its 1st, 65th, 129th, … lookup into `cache.lookup`, so
/// a series of `n` lookups records ⌈n / 64⌉ samples at any thread count.
const LOOKUP_SAMPLE_EVERY: usize = 64;

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

/// Refuses a `path` that exists but is not a regular file after
/// following symlinks (a device, a FIFO, a directory), before anything
/// opens it: opening a FIFO blocks, and a save's rename would replace the
/// device node or the link with a regular file. A missing path passes.
pub(crate) fn check_regular_file(path: &Path) -> io::Result<()> {
    match fs::metadata(path) {
        Ok(meta) if !meta.is_file() => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} is not a regular file", path.display()),
        )),
        _ => Ok(()),
    }
}

/// Reads the file at `path` with the metadata of the very handle it was
/// read through; `None` if there is no such file.
fn read_file(path: &Path) -> io::Result<Option<(Vec<u8>, fs::Metadata)>> {
    check_regular_file(path)?;
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

    /// A cache of a whole file's records: `bytes` becomes record buffer 0
    /// and `slots`, which `validate` found in it, the list.
    pub(crate) fn over_file(bytes: Vec<u8>, slots: Vec<Slot>) -> Self {
        ResultCache {
            buffers: vec![bytes],
            slots,
            ..ResultCache::default()
        }
    }

    /// Attaches this cache to a metrics registry: subsequent lookups,
    /// inserts, merges and saves report into the `cache.*` catalogue.
    /// The existing hit/miss totals are unaffected (counters are deltas
    /// from the attach point).
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.telemetry = CacheTelemetry::resolve(metrics);
    }

    /// [`ResultCache::open`] without telemetry.
    ///
    /// # Errors
    ///
    /// As [`ResultCache::open`].
    pub fn load_lazy(path: impl AsRef<Path>) -> io::Result<Self> {
        ResultCache::open(path, &Metrics::disabled())
    }

    /// Opens a cache file **lazily** and attaches the cache to
    /// `metrics`, all inside the `cache.load` span.
    ///
    /// A whole file — one whose record index validates, records or not —
    /// becomes the cache's record buffer 0 as it was read, and its index
    /// the cache's slot list: only the index is checked, and each lookup
    /// that hits decodes its record's payload. Probes
    /// ([`ResultCache::contains_key`], planning) never decode at all.
    /// The cache remembers the file's path, length and modification
    /// time, so that saving it unchanged to the same path writes
    /// nothing ([`ResultCache::save_as`]).
    ///
    /// The read is lenient: a missing file is an empty cache, a damaged
    /// one keeps its intact record prefix (the last of its records under
    /// a repeated key wins), and a foreign file — another format or
    /// version — is an empty cache named in one stderr line and counted
    /// as `cache.foreign_files`; the next save replaces it.
    ///
    /// # Errors
    ///
    /// An error naming `path` if it exists but is not a regular file
    /// after following symlinks (it is never opened); otherwise
    /// propagates I/O errors other than "not found".
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
            Ok(slots) => {
                cache.buffers.push(bytes);
                cache.slots = slots;
                cache.origin = Some(Origin::new(path, &meta));
            }
            Err(_) => cache.take_batch(lenient_batch(bytes)),
        }
        Ok(cache)
    }

    /// Unions `other` into `self`. Keys held by both caches must hold
    /// byte-identical records; the union is therefore order-independent —
    /// merging shard caches in any order yields the same entry set, and
    /// [`ResultCache::save_as`] the same file bytes. A key whose record
    /// in `self` does not decode counts as absent: `other`'s record
    /// replaces it.
    ///
    /// The merge walks `other`'s records in key order and compares raw
    /// record bytes: nothing is decoded unless two records differ, and
    /// the records added are copied raw into one batch, already sorted.
    ///
    /// Hit/miss counters of both caches are left untouched: a merge is
    /// bookkeeping, not a lookup.
    ///
    /// The merge is **atomic**: every key is checked before any is
    /// added, so on a conflict `self` is left completely untouched — a
    /// shard whose cache disagrees contributes *nothing*, it cannot
    /// half-poison the target before the conflict is noticed.
    ///
    /// # Errors
    ///
    /// [`CacheConflict`] on the lowest-key conflicting entry.
    pub fn merge(&mut self, other: &ResultCache) -> Result<MergeStats, CacheConflict> {
        let _merge_timer = self.telemetry.merge_span.start();
        let mut additions = RecordBatch::new();
        let (mut duplicates, mut near) = (0usize, 0usize);
        for slot in &other.slots {
            let (key, theirs) = (
                slot_key(&other.buffers, slot),
                slot_record(&other.buffers, slot),
            );
            let found = self.find_near(key, near);
            near = found.unwrap_or_else(|at| at);
            if self.searched_file(found) {
                self.telemetry.index_lookups.incr();
            }
            match found.map(|at| slot_record(&self.buffers, &self.slots[at])) {
                Ok(ours) if ours == theirs => {
                    duplicates += 1;
                    continue;
                }
                Ok(ours) if decode_outcome(&ours[4..]).is_some() => {
                    return Err(CacheConflict {
                        key: key_str(key).to_owned(),
                        ours: render(ours),
                        theirs: render(theirs),
                    });
                }
                // Absent, or held under a record that does not decode.
                _ => additions.push_record(theirs, key),
            }
        }
        let stats = MergeStats {
            added: additions.len(),
            duplicates,
        };
        self.telemetry.merge_bytes.add(additions.bytes.len() as u64);
        // `other`'s records came in strictly ascending key order.
        additions.sorted = true;
        self.take_batch(additions);
        self.telemetry.merges.incr();
        self.telemetry.merge_added.add(stats.added as u64);
        self.telemetry.merge_duplicates.add(stats.duplicates as u64);
        Ok(stats)
    }

    /// Writes the cache to `path`, records sorted by key for
    /// reproducible bytes. The save walks the slot list, already in key
    /// order, and copies every record as raw bytes through an
    /// [`io::BufWriter`]: nothing is sorted, decoded or encoded, and the
    /// whole file is never materialised in memory.
    ///
    /// A cache opened lazily from `path` that nothing was inserted into
    /// or merged into since **writes nothing**, provided one `stat`
    /// shows the file still has the length and modification time it was
    /// opened with (counted as `cache.saves_skipped`).
    ///
    /// Every write is atomic with respect to readers: the bytes go to a
    /// process-unique sibling temp file that is then renamed over
    /// `path`, so a crash or a concurrent run leaves either the old file
    /// or the new one, never a truncated mix. (No fsync: durability
    /// across power loss is not promised, and every save would pay for
    /// it.) A crash can leave its temp file behind; the next write to
    /// `path` removes the temp files of processes that are gone.
    ///
    /// # Errors
    ///
    /// An error naming `path` if it exists but is not a regular file
    /// after following symlinks: a device node, a FIFO or a symlink is
    /// never replaced. Otherwise propagates I/O errors; on error `path`
    /// is left untouched and the temp file is removed.
    pub fn save_as(&self, path: impl AsRef<Path>, format: CacheFormat) -> io::Result<()> {
        let CacheFormat::Binary = format;
        let _save_timer = self.telemetry.save_span.start();
        let path = path.as_ref();
        if !self.modified && self.origin.as_ref().is_some_and(|o| o.unchanged_at(path)) {
            self.telemetry.saves_skipped.incr();
            return Ok(());
        }
        check_regular_file(path)?;
        let records = self
            .slots
            .iter()
            .map(|slot| slot_record(&self.buffers, slot));
        let written = write_replacing(path, |out| write_file(out, self.len(), records))?;
        self.telemetry.save_bytes.add(written);
        Ok(())
    }

    /// Number of cached outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits of the explorations run against this cache since
    /// construction/load.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Cache misses of the explorations run against this cache since
    /// construction/load.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// The list position of `key`, or `Err` with where it would be
    /// inserted, by binary search over the whole list. Uncounted.
    pub(crate) fn find(&self, key: &[u8]) -> Result<usize, usize> {
        search(&self.buffers, &self.slots, key, 0..self.slots.len())
    }

    /// [`ResultCache::find`], searched outward from list position `near`
    /// (clamped to the last slot): the same answer, at a cost that grows
    /// with the logarithm of the distance from `near` to `key`, so a
    /// caller that probes keys in nearly ascending order — a series
    /// looking up its cells — pays a few comparisons per probe.
    pub(crate) fn find_near(&self, key: &[u8], near: usize) -> Result<usize, usize> {
        search_near(&self.buffers, &self.slots, key, near)
    }

    /// Whether a search that gave `found` counts in `cache.index_lookups`:
    /// the cache was opened over a whole file, and the search missed or
    /// found one of that file's records (buffer 0). A record decoded after
    /// a counted search is the file's, and counts in
    /// `cache.records_decoded`.
    fn searched_file(&self, found: Result<usize, usize>) -> bool {
        self.origin.is_some() && found.map_or(true, |at| self.slots[at].buffer == 0)
    }

    /// The outcome of the record at list position `at`, decoded from its
    /// payload (`None` if the payload is malformed — structural
    /// validation does not cover payloads). Uncounted.
    fn outcome(&self, at: usize) -> Option<CellOutcome> {
        decode_outcome(&slot_record(&self.buffers, &self.slots[at])[4..])
    }

    /// Looks up an outcome on behalf of `cursor`'s series, tallying the
    /// hit or miss, the search and the decode in the cursor and — when
    /// the `cache.lookup` histogram is live and this is one of the
    /// cursor's sampled lookups ([`LOOKUP_SAMPLE_EVERY`]) — timing the
    /// lookup into the cursor's own sample. Nothing here touches memory
    /// another thread writes: the executor publishes each cursor once, on
    /// the calling thread, after its workers are done
    /// ([`ResultCache::publish`]).
    ///
    /// The search starts from where the cursor's last one landed
    /// ([`ResultCache::find_near`]), which gives the whole-list search's
    /// answer. A hit decodes that one record's payload — never its key —
    /// every time.
    pub(crate) fn lookup(&self, key: &str, cursor: &mut LookupCursor) -> Option<CellOutcome> {
        let sampled = (cursor.hits + cursor.misses).is_multiple_of(LOOKUP_SAMPLE_EVERY);
        let started =
            (sampled && self.telemetry.lookup_latency.is_live()).then(std::time::Instant::now);
        let found = self.find_near(key.as_bytes(), cursor.near);
        cursor.near = found.unwrap_or_else(|at| at);
        let outcome = found.ok().and_then(|at| self.outcome(at));
        if self.searched_file(found) {
            cursor.index_lookups += 1;
            cursor.records_decoded += u64::from(outcome.is_some());
        }
        if let Some(started) = started {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            cursor
                .latency
                .get_or_insert_with(|| HistogramSample::empty("cache.lookup"))
                .record_nanos(nanos);
        }
        match outcome {
            Some(_) => cursor.hits += 1,
            None => cursor.misses += 1,
        }
        outcome
    }

    /// Publishes one series' lookups: adds the cursor's hits and misses
    /// to [`ResultCache::hits`] and [`ResultCache::misses`] and its
    /// tallies to `cache.hits`, `cache.misses`, `cache.index_lookups`,
    /// `cache.records_decoded` and the `cache.lookup` histogram.
    pub(crate) fn publish(&mut self, cursor: &LookupCursor) {
        self.hits += cursor.hits;
        self.misses += cursor.misses;
        let telemetry = &self.telemetry;
        telemetry.hits.add(cursor.hits as u64);
        telemetry.misses.add(cursor.misses as u64);
        telemetry.index_lookups.add(cursor.index_lookups);
        telemetry.records_decoded.add(cursor.records_decoded);
        if let Some(latency) = &cursor.latency {
            telemetry.lookup_latency.merge_sample(latency);
        }
    }

    /// Peeks at an outcome without touching the hit/miss counters (the
    /// shard planner asks "is this cell already known?" without it being
    /// a lookup of record). Returns an owned outcome, decoded from its
    /// record on the fly.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<CellOutcome> {
        let found = self.find(key.as_bytes());
        let outcome = found.ok().and_then(|at| self.outcome(at));
        if self.searched_file(found) {
            self.telemetry.index_lookups.incr();
            if outcome.is_some() {
                self.telemetry.records_decoded.incr();
            }
        }
        outcome
    }

    /// Whether `key` is cached, without counting a hit or miss. This is
    /// one search of the list — no record is decoded, which is what keeps
    /// fully-warm planning decode-free.
    #[must_use]
    pub fn contains_key(&self, key: &str) -> bool {
        let found = self.find(key.as_bytes());
        if self.searched_file(found) {
            self.telemetry.index_lookups.incr();
        }
        found.is_ok()
    }

    /// Iterates the cached dedup keys in ascending byte order, each
    /// once.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.slots
            .iter()
            .map(|slot| key_str(slot_key(&self.buffers, slot)))
    }

    /// Inserts an outcome under `key`, replacing any previous entry: a
    /// batch of one ([`ResultCache::absorb`]).
    ///
    /// Tests assemble fixtures with this; bulk paths absorb whole
    /// batches, and unioning whole caches goes through
    /// [`ResultCache::merge`], which refuses conflicting entries instead
    /// of overwriting.
    pub fn insert(&mut self, key: String, outcome: CellOutcome) {
        let mut batch = RecordBatch::new();
        batch.push(&key, &outcome);
        self.absorb(batch);
    }

    /// Adds every record of `batch`, each replacing any entry under its
    /// key — as if each were inserted in batch order, and counted in
    /// `cache.inserts` one by one. The batch's buffer becomes one of the
    /// cache's record buffers as it is: the records are sorted by key (a
    /// no-op if the producer sorted them) and merged into the slot list
    /// without copying a byte.
    pub fn absorb(&mut self, batch: RecordBatch) {
        self.telemetry.inserts.add(batch.len() as u64);
        self.take_batch(batch);
    }

    /// [`ResultCache::absorb`] without counting inserts.
    fn take_batch(&mut self, mut batch: RecordBatch) {
        if batch.is_empty() {
            return;
        }
        batch.sort();
        let buffer = u32::try_from(self.buffers.len()).expect("fewer than 2^32 record buffers");
        self.buffers.push(batch.bytes);
        self.merge_slots(batch.slots.into_iter().map(|slot| Slot { buffer, ..slot }));
    }

    /// Merges `incoming` — slots into the cache's own buffers, in
    /// strictly ascending key order — into the list; an incoming record
    /// replaces the record under the same key. The merge runs from the
    /// back, in place: each incoming key's position is searched outward
    /// from the previous one's, and the slots between them move up in one
    /// block, so it costs a few comparisons per incoming record plus one
    /// pass over the list above the lowest incoming key.
    fn merge_slots(&mut self, incoming: impl DoubleEndedIterator<Item = Slot> + ExactSizeIterator) {
        let ResultCache { buffers, slots, .. } = self;
        let n = slots.len();
        let total = n + incoming.len();
        slots.resize(total, Slot::default());
        // `slots[..rest]` is still to merge; `slots[end..]` is final.
        let (mut rest, mut end) = (n, total);
        for slot in incoming.rev() {
            let key = slot_key(buffers, &slot);
            let found = search_near(buffers, &slots[..rest], key, rest.saturating_sub(1));
            let above = found.map_or_else(|at| at, |at| at + 1);
            slots.copy_within(above..rest, end - (rest - above));
            end -= rest - above;
            rest = found.unwrap_or_else(|at| at);
            end -= 1;
            slots[end] = slot;
        }
        slots.copy_within(end..total, rest);
        slots.truncate(rest + (total - end));
        self.modified = true;
    }
}

/// A record key as text. Every key the cache holds was checked to be
/// UTF-8: by the strict index validation, the lenient reader, or the
/// `&str` it was pushed under.
fn key_str(key: &[u8]) -> &str {
    std::str::from_utf8(key).expect("cache keys are UTF-8")
}

/// A record's outcome rendered for a conflict message.
fn render(record: &[u8]) -> String {
    match decode_outcome(&record[4..]) {
        Some(outcome) => format!("{outcome:?}"),
        None => "an undecodable record".to_owned(),
    }
}

/// Maps a decoded dominant label back to the `&'static str` the outcome
/// types carry. Only labels the evaluator can produce round-trip;
/// anything else rejects the record.
fn static_label(s: &str) -> Option<&'static str> {
    Requirement::ALL
        .iter()
        .map(Requirement::label)
        .find(|label| *label == s)
}

/// The capability names `memstream_core` errors carry.
const CAPABILITIES: [&str; 4] = ["energy", "wear", "utilization", "sim"];

// ---------------------------------------------------------------------
// The record encoding (docs/CACHE_FORMAT.md § "Records"). Scalars are
// little-endian; floats are raw IEEE-754 bits, so the round-trip is
// exact by construction. Strings are `u32 length + UTF-8 bytes`. Each
// record is `u32 body length + body`, body = `key string, tag byte,
// payload`. Infeasible and unmodelled payloads are one model error:
// an error tag, then its fields, with a requirement byte and a reason
// tag inside an infeasible goal.
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

/// Encodes a model error: its tag, then its fields.
fn push_error(out: &mut Vec<u8>, err: &ModelError) {
    match err {
        ModelError::EmptyGoal => out.push(0),
        ModelError::RateExceedsBandwidth {
            stream_bps,
            available_bps,
        } => {
            out.push(1);
            push_f64(out, *stream_bps);
            push_f64(out, *available_bps);
        }
        ModelError::BufferBelowCycleMinimum {
            buffer_bits,
            minimum_bits,
        } => {
            out.push(2);
            push_f64(out, *buffer_bits);
            push_f64(out, *minimum_bits);
        }
        ModelError::InfeasibleGoal {
            requirement,
            reason,
        } => {
            out.push(3);
            let index = Requirement::ALL
                .iter()
                .position(|r| r == requirement)
                .expect("every requirement is listed in Requirement::ALL");
            out.push(index as u8);
            push_reason(out, reason);
        }
        ModelError::MissingCapability { capability } => {
            out.push(4);
            push_str(out, capability);
        }
        ModelError::InvalidCapability { capability, reason } => {
            out.push(5);
            push_str(out, capability);
            push_str(out, reason);
        }
    }
}

/// Encodes an infeasibility reason: its tag, then its fields.
fn push_reason(out: &mut Vec<u8>, reason: &InfeasibleReason) {
    match reason {
        InfeasibleReason::SavingUnreachable {
            target,
            rate,
            max_saving,
        } => {
            out.push(0);
            push_f64(out, target.fraction());
            push_f64(out, rate.bits_per_second());
            push_f64(out, *max_saving);
        }
        InfeasibleReason::StandbyNotBelowIdle => out.push(1),
        InfeasibleReason::AboveFixedUtilization { requested, fixed } => {
            out.push(2);
            push_f64(out, requested.fraction());
            push_f64(out, fixed.fraction());
        }
        InfeasibleReason::AboveFormatSupremum {
            requested,
            supremum,
        } => {
            out.push(3);
            push_f64(out, *requested);
            push_f64(out, *supremum);
        }
        InfeasibleReason::Format(err) => {
            out.push(4);
            match err {
                FormatError::ZeroStripeWidth => out.push(0),
                FormatError::EmptySector => out.push(1),
                FormatError::UtilizationUnreachable {
                    requested,
                    supremum,
                } => {
                    out.push(2);
                    push_f64(out, *requested);
                    push_f64(out, *supremum);
                }
            }
        }
        InfeasibleReason::ProbesWornOut {
            ceiling,
            rate,
            rating,
        } => {
            out.push(5);
            push_f64(out, ceiling.get());
            push_f64(out, rate.bits_per_second());
            push_f64(out, *rating);
        }
        InfeasibleReason::EraseBlocksWornOut {
            ceiling,
            rate,
            waf_floor,
        } => {
            out.push(6);
            push_f64(out, ceiling.get());
            push_f64(out, rate.bits_per_second());
            push_f64(out, *waf_floor);
        }
    }
}

/// Encodes one entry's record body (everything after the length prefix).
#[cfg(test)]
fn encode_record(key: &str, outcome: &CellOutcome) -> Vec<u8> {
    let mut body = Vec::with_capacity(key.len() + 64);
    encode_body(&mut body, key, outcome);
    body
}

/// Appends one entry's record body to `body`.
fn encode_body(body: &mut Vec<u8>, key: &str, outcome: &CellOutcome) {
    push_str(body, key);
    match outcome {
        CellOutcome::Feasible(p) => {
            body.push(b'F');
            push_f64(body, p.buffer.bits());
            push_str(body, p.dominant);
            push_opt_f64(body, p.saving);
            push_f64(body, p.utilization.fraction());
            push_f64(body, p.lifetime.get());
            push_opt_f64(body, p.energy_per_bit.map(EnergyPerBit::joules_per_bit));
        }
        CellOutcome::Infeasible(err) => {
            body.push(b'X');
            push_error(body, err);
        }
        CellOutcome::EnergyOnly(p) => {
            body.push(b'D');
            push_opt_f64(body, p.break_even.map(DataSize::bits));
            push_opt_f64(body, p.buffer_for_saving.map(DataSize::bits));
            push_opt_f64(body, p.saving);
        }
        CellOutcome::Unmodelled(err) => {
            body.push(b'U');
            push_error(body, err);
        }
    }
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

    fn byte(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// A dominant label, interned to the evaluator's static set.
    fn label(&mut self) -> Option<&'static str> {
        self.str_slice().and_then(static_label)
    }

    /// A capability name, interned to the set the model reports.
    fn capability(&mut self) -> Option<&'static str> {
        let name = self.str_slice()?;
        CAPABILITIES.into_iter().find(|c| *c == name)
    }

    /// A value that `make` checks into a quantity.
    fn quantity<T, E>(&mut self, make: fn(f64) -> Result<T, E>) -> Option<T> {
        make(self.f64()?).ok()
    }

    /// A fraction that must be a valid ratio.
    fn fraction(&mut self) -> Option<f64> {
        self.quantity(Ratio::try_from_fraction).map(Ratio::fraction)
    }

    /// A model error ([`push_error`]).
    fn error(&mut self) -> Option<ModelError> {
        Some(match self.byte()? {
            0 => ModelError::EmptyGoal,
            1 => ModelError::RateExceedsBandwidth {
                stream_bps: self
                    .quantity(BitRate::try_from_bits_per_second)?
                    .bits_per_second(),
                available_bps: self
                    .quantity(BitRate::try_from_bits_per_second)?
                    .bits_per_second(),
            },
            2 => ModelError::BufferBelowCycleMinimum {
                buffer_bits: self.quantity(DataSize::try_from_bits)?.bits(),
                minimum_bits: self.quantity(DataSize::try_from_bits)?.bits(),
            },
            3 => ModelError::InfeasibleGoal {
                requirement: *Requirement::ALL.get(usize::from(self.byte()?))?,
                reason: self.reason()?,
            },
            4 => ModelError::MissingCapability {
                capability: self.capability()?,
            },
            5 => ModelError::InvalidCapability {
                capability: self.capability()?,
                reason: self.string()?,
            },
            _ => return None,
        })
    }

    /// An infeasibility reason ([`push_reason`]).
    fn reason(&mut self) -> Option<InfeasibleReason> {
        Some(match self.byte()? {
            0 => InfeasibleReason::SavingUnreachable {
                target: self.quantity(Ratio::try_from_fraction)?,
                rate: self.quantity(BitRate::try_from_bits_per_second)?,
                max_saving: self.f64()?,
            },
            1 => InfeasibleReason::StandbyNotBelowIdle,
            2 => InfeasibleReason::AboveFixedUtilization {
                requested: self.quantity(Ratio::try_from_fraction)?,
                fixed: self.quantity(Ratio::try_from_fraction)?,
            },
            3 => InfeasibleReason::AboveFormatSupremum {
                requested: self.fraction()?,
                supremum: self.fraction()?,
            },
            4 => InfeasibleReason::Format(match self.byte()? {
                0 => FormatError::ZeroStripeWidth,
                1 => FormatError::EmptySector,
                2 => FormatError::UtilizationUnreachable {
                    requested: self.fraction()?,
                    supremum: self.fraction()?,
                },
                _ => return None,
            }),
            5 => InfeasibleReason::ProbesWornOut {
                ceiling: self.quantity(Years::try_new)?,
                rate: self.quantity(BitRate::try_from_bits_per_second)?,
                rating: self.f64()?,
            },
            6 => InfeasibleReason::EraseBlocksWornOut {
                ceiling: self.quantity(Years::try_new)?,
                rate: self.quantity(BitRate::try_from_bits_per_second)?,
                waf_floor: self.f64()?,
            },
            _ => return None,
        })
    }

    /// The outcome (tag and payload) at the cursor, which must end
    /// exactly at the end of the bytes — the length prefix and the
    /// payload must agree. A value that breaks its unit's invariant (a
    /// negative size, a ratio above 1, ...) or an unknown tag makes the
    /// record undecodable.
    fn outcome(&mut self) -> Option<CellOutcome> {
        let outcome = match self.byte()? {
            b'F' => CellOutcome::Feasible(PlannedPoint {
                buffer: self.quantity(DataSize::try_from_bits)?,
                dominant: self.label()?,
                saving: self.opt_f64()?,
                utilization: self.quantity(Ratio::try_from_fraction)?,
                lifetime: self.quantity(Years::try_new)?,
                energy_per_bit: self.opt_quantity(EnergyPerBit::try_from_joules_per_bit)?,
            }),
            b'X' => CellOutcome::Infeasible(self.error()?),
            b'D' => CellOutcome::EnergyOnly(EnergyOnlyPoint {
                break_even: self.opt_quantity(DataSize::try_from_bits)?,
                buffer_for_saving: self.opt_quantity(DataSize::try_from_bits)?,
                saving: self.opt_f64()?,
            }),
            b'U' => CellOutcome::Unmodelled(self.error()?),
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
    let mut frame = RecordBatch::new();
    for (key, outcome) in entries {
        frame.push(key, outcome);
    }
    frame.bytes
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
    scan_records(&mut r, usize::MAX, |_, body| {
        decode_record(body)
            .map(|entry| records.push(entry))
            .is_some()
    });
    let damage = (r.pos < frame.len()).then_some(r.pos);
    (records, damage)
}

/// The crate's one lenient record loop: walks up to `limit` records at
/// the cursor, handing each one's start offset and body to `keep`, and
/// stops at the first that is torn or that `keep` rejects as
/// undecodable, leaving the cursor at the start of that record.
fn scan_records(r: &mut ByteReader<'_>, limit: usize, mut keep: impl FnMut(usize, &[u8]) -> bool) {
    for _ in 0..limit {
        let start = r.pos;
        let kept = r
            .u32()
            .and_then(|len| r.take(len as usize))
            .is_some_and(|body| keep(start, body));
        if !kept {
            r.pos = start;
            return;
        }
    }
}

/// Leniently reads the records of a cache file (`bytes` starts with
/// [`MAGIC`]): the record loop of [`decode_frame`], bounded by the
/// header count. Every record that decodes before the first malformation
/// is kept, damage and everything after it is dropped. This reader never
/// consults the index.
///
/// The records are not decoded into memory: the file's bytes become the
/// batch's buffer, and sorting the batch keeps the last of the records
/// under a repeated key, so an intact prefix that repeats or misorders
/// keys still loads as a strictly key-sorted cache.
fn lenient_batch(bytes: Vec<u8>) -> RecordBatch {
    let mut r = ByteReader {
        bytes: &bytes,
        pos: MAGIC.len(),
    };
    let mut slots = Vec::new();
    if let Some(count) = r.u64().and_then(|c| usize::try_from(c).ok()) {
        scan_records(&mut r, count, |start, body| {
            let mut record = ByteReader {
                bytes: body,
                pos: 0,
            };
            match record.str_slice() {
                Some(key) if record.outcome().is_some() => {
                    slots.push(Slot::new(start, key.as_bytes()));
                    true
                }
                _ => false,
            }
        });
    }
    RecordBatch {
        bytes,
        slots,
        sorted: false,
    }
}

/// Writes `path` through a process-unique sibling temp file renamed
/// over it, so readers only ever see a complete file. The temp file is
/// removed if writing or the rename fails. First it removes the temp
/// files that crashed writers of `path` left behind
/// ([`remove_orphaned_temps`]).
fn write_replacing<T>(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<fs::File>) -> io::Result<T>,
) -> io::Result<T> {
    static SEQUENCE: AtomicUsize = AtomicUsize::new(0);
    remove_orphaned_temps(path);
    let mut temp = path.as_os_str().to_owned();
    temp.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        SEQUENCE.fetch_add(1, atomic::Ordering::Relaxed)
    ));
    let temp = PathBuf::from(temp);
    let result = fs::File::create(&temp)
        .and_then(|file| {
            let mut out = io::BufWriter::with_capacity(1 << 18, file);
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

/// Removes the siblings of `path` named `<file name>.<pid>-<n>.tmp` (both
/// numbers plain decimal) whose process is gone: `<pid>` is not this
/// process and `/proc/<pid>` does not exist. Without `/proc/self` (not
/// Linux) nothing is removed. Failures are ignored; the save goes on.
fn remove_orphaned_temps(path: &Path) {
    let proc = Path::new("/proc");
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let name = path.file_name().and_then(|n| n.to_str());
    let (Some(name), true) = (name, proc.join("self").exists()) else {
        return;
    };
    let Ok(entries) = fs::read_dir(dir.unwrap_or(Path::new("."))) else {
        return;
    };
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let live = |pid: u32| pid == std::process::id() || proc.join(pid.to_string()).exists();
    for entry in entries.flatten() {
        let file = entry.file_name();
        let Some((pid, n)) = file.to_str().and_then(|f| {
            let stem = f.strip_prefix(name)?.strip_prefix('.')?;
            stem.strip_suffix(".tmp")?.split_once('-')
        }) else {
            continue;
        };
        if digits(pid) && digits(n) && pid.parse().is_ok_and(|pid| !live(pid)) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Streams a cache file — magic, `count`, the records (already in key
/// order, each with its length prefix), the index and the trailer —
/// returning the bytes written. A record list that does not hold exactly
/// `count` records is an error, so a save can never write a header that
/// disagrees with its records.
fn write_file<'a>(
    out: &mut impl io::Write,
    count: usize,
    records: impl Iterator<Item = &'a [u8]>,
) -> io::Result<u64> {
    out.write_all(MAGIC)?;
    out.write_all(&(count as u64).to_le_bytes())?;
    let mut offset = MAGIC.len() as u64 + 8;
    let mut index: Vec<u64> = Vec::with_capacity(count);
    for record in records {
        index.push(offset);
        out.write_all(record)?;
        offset += record.len() as u64;
    }
    if index.len() != count {
        return Err(io::Error::other(format!(
            "cache save listed {} records for a count of {count}",
            index.len()
        )));
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
    use crate::view::CacheView;

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

    /// An unmodelled outcome whose error carries `reason`: the one
    /// free-form string a record can hold.
    fn unmodelled(reason: &str) -> CellOutcome {
        CellOutcome::Unmodelled(ModelError::InvalidCapability {
            capability: "utilization",
            reason: reason.to_owned(),
        })
    }

    /// One model error per error tag, and an infeasible goal per reason
    /// tag (and per format-error tag), naming every requirement.
    fn every_error() -> Vec<ModelError> {
        let rate = BitRate::from_kbps(2905.0);
        let reasons = [
            InfeasibleReason::SavingUnreachable {
                target: Ratio::from_percent(80.0),
                rate,
                max_saving: -0.25,
            },
            InfeasibleReason::StandbyNotBelowIdle,
            InfeasibleReason::AboveFixedUtilization {
                requested: Ratio::from_percent(95.0),
                fixed: Ratio::from_percent(93.0),
            },
            InfeasibleReason::AboveFormatSupremum {
                requested: 0.89,
                supremum: 8.0 / 9.0,
            },
            InfeasibleReason::Format(FormatError::ZeroStripeWidth),
            InfeasibleReason::Format(FormatError::EmptySector),
            InfeasibleReason::Format(FormatError::UtilizationUnreachable {
                requested: 0.95,
                supremum: 8.0 / 9.0,
            }),
            InfeasibleReason::ProbesWornOut {
                ceiling: Years::new(6.5),
                rate,
                rating: 100.0,
            },
            InfeasibleReason::EraseBlocksWornOut {
                ceiling: Years::new(3.25),
                rate,
                waf_floor: 1.1,
            },
        ];
        let mut errors = vec![
            ModelError::EmptyGoal,
            ModelError::RateExceedsBandwidth {
                stream_bps: 2e8,
                available_bps: 9.7e7,
            },
            ModelError::BufferBelowCycleMinimum {
                buffer_bits: 64.0,
                minimum_bits: 1024.0,
            },
            ModelError::MissingCapability { capability: "wear" },
            ModelError::InvalidCapability {
                capability: "utilization",
                reason: "tab\there\nnewline\\backslash".to_owned(),
            },
        ];
        let requirements = Requirement::ALL.iter().cycle();
        errors.extend(
            reasons
                .into_iter()
                .zip(requirements)
                .map(|(reason, &requirement)| ModelError::InfeasibleGoal {
                    requirement,
                    reason,
                }),
        );
        errors
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
        // The fourth kind, `Unmodelled`, has no grid cell here, and the
        // grid produces only some errors: check every error tag and every
        // reason tag directly, under both outcome tags. A body keyed `k`
        // holds the error tag at byte 6, an infeasible goal's reason tag
        // at byte 8.
        let (mut error_tags, mut reason_tags) = (Vec::new(), Vec::new());
        for err in every_error() {
            for outcome in [
                CellOutcome::Infeasible(err.clone()),
                CellOutcome::Unmodelled(err.clone()),
            ] {
                assert_eq!(round_trip("k", &outcome).1, outcome);
            }
            let body = encode_record("k", &CellOutcome::Infeasible(err.clone()));
            error_tags.push(body[6]);
            if matches!(err, ModelError::InfeasibleGoal { .. }) {
                reason_tags.push(body[8]);
            }
        }
        for tags in [&mut error_tags, &mut reason_tags] {
            tags.sort_unstable();
            tags.dedup();
        }
        assert_eq!(error_tags, [0, 1, 2, 3, 4, 5]);
        assert_eq!(reason_tags, [0, 1, 2, 3, 4, 5, 6]);
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
        // Records are length-prefixed, so keys and the one free-form
        // string of an error travel raw: tabs, newlines and backslashes
        // come back byte for byte, in memory and through a saved file.
        let outcome = unmodelled("tab\there\nnewline\\backslash");
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
        assert_eq!(cache.misses(), results.total_cells());
        save(&cache, &path);

        let mut loaded = ResultCache::load_lazy(&path).unwrap();
        assert_eq!(loaded.len(), cache.len());
        let warm = GridExecutor::parallel(4)
            .explore_cached(&grid, &mut loaded)
            .unwrap();
        assert_eq!(loaded.hits(), warm.total_cells());
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
        let outcome = unmodelled;
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

    #[cfg(target_os = "linux")]
    #[test]
    fn a_save_removes_the_temp_files_of_processes_that_are_gone() {
        // No Linux pid reaches 2^32 - 1; this process is alive; the other
        // two names are not temp files of `x.cache`.
        let dir = temp_path("sweep");
        fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join("x.cache.4294967295-0.tmp");
        let kept = [
            dir.join(format!("x.cache.{}-7.tmp", std::process::id())),
            dir.join("x.cache.keep.tmp"),
            dir.join("y.cache.4294967295-0.tmp"),
        ];
        for file in kept.iter().chain([&orphan]) {
            fs::write(file, b"partial").unwrap();
        }
        let mut cache = ResultCache::new();
        cache.insert("key".to_owned(), unmodelled("swept"));
        save(&cache, &dir.join("x.cache"));

        assert!(!orphan.exists(), "the orphan survived the save");
        for file in &kept {
            assert!(file.exists(), "{} was removed", file.display());
        }
        fs::remove_dir_all(dir).unwrap();
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
        stale.insert("new".to_owned(), unmodelled("x"));
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
            cache.insert(key.to_owned(), unmodelled(&format!("detail {key}")));
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
        let mut cursor = LookupCursor::default();
        assert!(
            lazy.lookup("a", &mut cursor).is_none(),
            "a corrupt payload is a miss"
        );
        assert!(lazy.lookup("b", &mut cursor).is_some());
        lazy.insert("a".to_owned(), cache.get("a").unwrap());
        save(&lazy, &path);
        let repaired = CacheView::open(&path).unwrap();
        assert_eq!(repaired.get("a"), cache.get("a"));
        assert_eq!(repaired.len(), 2);
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn unknown_header_is_an_empty_cache() {
        // A foreign file — an old text-format cache, or an empty cache
        // of the previous binary version — opens empty, is counted, and
        // the next save replaces it.
        let path = temp_path("future.cache");
        let mut v3 = b"memstream-grid-cache v3\n".to_vec();
        v3.extend_from_slice(&0u64.to_le_bytes());
        v3.extend_from_slice(&32u64.to_le_bytes());
        for foreign in [b"memstream-grid-cache v1\nk\tU\tdetail\n".to_vec(), v3] {
            fs::write(&path, foreign).unwrap();
            let metrics = Metrics::enabled();
            let cache = ResultCache::open(&path, &metrics).unwrap();
            assert!(cache.is_empty());
            assert_eq!(metrics.snapshot().counter("cache.foreign_files"), Some(1));
            save(&cache, &path);
            assert!(fs::read(&path).unwrap().starts_with(MAGIC));
            assert!(CacheView::open(&path).unwrap().is_empty());
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_cache() {
        let cache = ResultCache::load_lazy(temp_path("does-not-exist.cache")).unwrap();
        assert!(cache.is_empty());
    }

    #[test]
    fn paths_that_are_not_regular_files_are_refused_by_name() {
        // Every reader and the save refuse a directory, and (on unix) a
        // symlink to a device, before opening it; the link survives.
        let dir = temp_path("not-a-file.dir");
        fs::create_dir_all(&dir).unwrap();
        let mut paths = vec![dir.clone()];
        #[cfg(unix)]
        {
            let link = temp_path("devnull-link.cache");
            let _ = fs::remove_file(&link);
            std::os::unix::fs::symlink("/dev/null", &link).unwrap();
            paths.push(link);
        }
        let mut cache = ResultCache::new();
        cache.insert("k".to_owned(), unmodelled("r"));
        for path in &paths {
            let named = path.display().to_string();
            let errors = [
                ResultCache::load_lazy(path).unwrap_err().to_string(),
                CacheView::open(path).unwrap_err().to_string(),
                cache
                    .save_as(path, CacheFormat::default())
                    .unwrap_err()
                    .to_string(),
            ];
            for error in errors {
                assert!(
                    error.contains(&format!("{named} is not a regular file")),
                    "{error}"
                );
            }
        }
        #[cfg(unix)]
        {
            let link = &paths[1];
            assert!(fs::symlink_metadata(link).unwrap().file_type().is_symlink());
            fs::remove_file(link).unwrap();
        }
        fs::remove_dir(dir).unwrap();
    }

    #[test]
    fn union_of_disjoint_shard_caches_is_order_independent_and_byte_identical() {
        // One single-process cache; the same cells split into three
        // contiguous shard caches over the canonical cell range.
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
                GridExecutor::serial()
                    .resolve_cells(&grid, w[0]..w[1], &mut shard)
                    .unwrap();
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
        let outcome = unmodelled("x");
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
        a.insert("cell".to_owned(), unmodelled("ours"));
        let mut b = ResultCache::new();
        b.insert("cell".to_owned(), unmodelled("theirs"));
        b.insert("aaa-sorts-first".to_owned(), unmodelled("new"));
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
        // The target's entries may still sit undecoded in its file: a
        // duplicate is recognised byte for byte, a disagreement is a
        // conflict, and additions enter as a record buffer of their own.
        let path = temp_path("merge-lazy.cache");
        let outcome = unmodelled;
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

    /// A cache holding every outcome kind and every error encoding, plus
    /// hostile keys and error strings.
    fn hostile_cache() -> ResultCache {
        let grid = ScenarioGrid::paper_baseline(4);
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .unwrap();
        cache.insert(
            "key\twith\ttabs\nand\\newlines".to_owned(),
            unmodelled("tab\there\nnewline\\backslash"),
        );
        cache.insert(
            "unmodelled".to_owned(),
            CellOutcome::Unmodelled(ModelError::MissingCapability { capability: "wear" }),
        );
        for (i, err) in every_error().into_iter().enumerate() {
            cache.insert(format!("error-{i}"), CellOutcome::Infeasible(err));
        }
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
        let lazy = ResultCache::load_lazy(&path).unwrap();
        let strict = CacheView::open(&path).unwrap();
        assert_eq!(lazy.len(), cache.len());
        assert_eq!(strict.len(), cache.len());
        for key in cache.keys() {
            assert_eq!(lazy.get(key), cache.get(key), "drift under key {key}");
            assert_eq!(strict.get(key), cache.get(key), "drift under key {key}");
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
        // Copied from the file with one extra entry merged in and out
        // again: the same bytes.
        let mut lazy = ResultCache::load_lazy(&p1).unwrap();
        lazy.insert("zz-extra".to_owned(), cache.get("unmodelled").unwrap());
        save(&lazy, &p2);
        let mut extended = ResultCache::load_lazy(&p2).unwrap();
        assert_eq!(extended.len(), cache.len() + 1);
        let extra = extended.find(b"zz-extra").expect("the extra entry");
        extended.slots.remove(extra);
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
            cache.insert(key.to_owned(), unmodelled(&format!("detail {key}")));
        }
        save(&cache, &path);
        let bytes = fs::read(&path).unwrap();
        // Keep the magic, the count and the first record only.
        let first_len =
            u32::from_le_bytes(bytes[MAGIC.len() + 8..MAGIC.len() + 12].try_into().unwrap())
                as usize;
        fs::write(&path, &bytes[..MAGIC.len() + 8 + 4 + first_len]).unwrap();

        let lenient = ResultCache::load_lazy(&path).unwrap();
        assert_eq!(lenient.len(), 1, "the intact prefix survives");
        assert!(lenient.contains_key("a"), "records sort by key");
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
        // The records themselves are intact: the lenient reader (which
        // falls back to the record scan) still loads everything.
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
    fn lazy_hits_decode_every_time_and_probes_never() {
        let path = temp_path("decode-per-hit.cache");
        save(&hostile_cache(), &path);
        let metrics = Metrics::enabled();
        let mut lazy = ResultCache::open(&path, &metrics).unwrap();
        assert!(lazy.contains_key("unmodelled"));
        assert!(!lazy.contains_key("absent"));
        assert_eq!(metrics.snapshot().counter("cache.records_decoded"), Some(0));
        let mut cursor = LookupCursor::default();
        for _ in 0..3 {
            assert!(lazy.lookup("unmodelled", &mut cursor).is_some());
        }
        assert!(lazy.lookup("absent", &mut cursor).is_none());
        // The cursor holds the tallies until they are published.
        assert_eq!(metrics.snapshot().counter("cache.hits"), Some(0));
        lazy.publish(&cursor);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counter("cache.records_decoded"), Some(3));
        assert_eq!(snapshot.counter("cache.hits"), Some(3));
        assert_eq!(snapshot.counter("cache.misses"), Some(1));
        assert_eq!(snapshot.counter("cache.index_lookups"), Some(2 + 4));
        // Only the cursor's first lookup of every 64 is timed.
        assert_eq!(snapshot.histogram("cache.lookup").map(|h| h.count), Some(1));
        assert_eq!((lazy.hits(), lazy.misses()), (3, 1));
        let load = snapshot.spans.iter().find(|s| s.name == "cache.load");
        assert_eq!(load.map(|s| s.entries), Some(1));
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn an_empty_whole_file_is_buffer_zero_so_added_records_are_not_the_files() {
        // A whole file that holds no records still opens as buffer 0: an
        // insert and a cold exploration add buffers of their own, their
        // keys count no search of the file and no decode, and a key the
        // cache lacks counts one search.
        let path = temp_path("empty-whole.cache");
        save(&ResultCache::new(), &path);
        let metrics = Metrics::enabled();
        let counters = || {
            let snapshot = metrics.snapshot();
            (
                snapshot.counter("cache.index_lookups").unwrap_or(0),
                snapshot.counter("cache.records_decoded").unwrap_or(0),
            )
        };
        let mut cache = ResultCache::open(&path, &metrics).unwrap();
        assert!(cache.is_empty());
        cache.insert("inserted".to_owned(), unmodelled("x"));
        let grid = ScenarioGrid::paper_baseline(3);
        let before = counters();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .unwrap();
        let n = grid.len() as u64;
        assert_eq!(counters(), (before.0 + n, before.1), "each miss searched");
        assert_eq!(cache.len(), grid.len() + 1);

        let interner = crate::key::KeyInterner::new(&grid).unwrap();
        let mut added: Vec<String> = grid.cells().map(|cell| interner.resolve(&cell)).collect();
        added.push("inserted".to_owned());
        let before = counters();
        let mut cursor = LookupCursor::default();
        for key in &added {
            assert!(cache.contains_key(key), "{key}");
            assert!(cache.get(key).is_some(), "{key}");
            assert!(cache.lookup(key, &mut cursor).is_some(), "{key}");
        }
        cache.publish(&cursor);
        assert_eq!(counters(), before, "added keys are not the file's");

        let mut cursor = LookupCursor::default();
        assert!(!cache.contains_key("absent"));
        assert!(cache.get("absent").is_none());
        assert!(cache.lookup("absent", &mut cursor).is_none());
        cache.publish(&cursor);
        assert_eq!(counters(), (before.0 + 3, before.1), "one search each");
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn one_cursor_walks_every_key_in_any_order_like_the_whole_index_search() {
        // A series' cursor starts each search at its last hit. In
        // canonical order, reversed and shuffled, every lookup must still
        // return exactly the view's own answer, and the cursor must tally
        // one hit, one index search and one decode per key.
        let grid = ScenarioGrid::paper_baseline(24);
        let mut cold = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cold)
            .unwrap();
        let path = temp_path("cursor-walk.cache");
        save(&cold, &path);
        let view = CacheView::open(&path).unwrap();
        let interner = crate::key::KeyInterner::new(&grid).unwrap();
        let canonical: Vec<String> = grid.cells().map(|cell| interner.resolve(&cell)).collect();
        let reversed: Vec<String> = canonical.iter().rev().cloned().collect();
        // Fisher-Yates under a fixed xorshift stream.
        let mut shuffled = canonical.clone();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for (order, keys) in [
            ("canonical", canonical),
            ("reversed", reversed),
            ("shuffled", shuffled),
        ] {
            let mut lazy = ResultCache::load_lazy(&path).unwrap();
            let mut cursor = LookupCursor::default();
            for key in &keys {
                let expected = view.get(key);
                assert!(expected.is_some(), "{order}: {key} is cached");
                assert_eq!(lazy.lookup(key, &mut cursor), expected, "{order}: {key}");
            }
            let n = keys.len();
            assert_eq!(
                (cursor.hits, cursor.misses, cursor.index_lookups),
                (n, 0, n as u64),
                "{order}"
            );
            assert_eq!(cursor.records_decoded, n as u64, "{order}");
            lazy.publish(&cursor);
            assert_eq!((lazy.hits(), lazy.misses()), (n, 0), "{order}");
        }
        fs::remove_file(path).unwrap();
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
            let mut loaded = ResultCache::new();
            loaded.absorb(lenient_batch(file));
            assert_eq!(loaded.len(), count as usize);
            assert_eq!(loaded.get("a"), Some(expected[0].1.clone()));
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
        assert_eq!(lenient_batch(file).len(), 2);

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

    /// `outcome`'s record under key `k`, with the 8 bytes of `value`
    /// replaced by those of `bad`.
    fn with_value(outcome: &CellOutcome, value: f64, bad: f64) -> Vec<u8> {
        let mut body = encode_record("k", outcome);
        let at = body
            .windows(8)
            .position(|w| w == value.to_bits().to_le_bytes())
            .expect("the value's bytes");
        body[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
        body
    }

    #[test]
    fn out_of_range_error_fields_are_rejected() {
        let rate = BitRate::from_kbps(2905.0);
        let target = Ratio::from_percent(80.0);
        let probes = CellOutcome::Infeasible(ModelError::InfeasibleGoal {
            requirement: Requirement::ProbesLifetime,
            reason: InfeasibleReason::ProbesWornOut {
                ceiling: Years::new(6.5),
                rate,
                rating: 100.0,
            },
        });
        let saving = CellOutcome::Infeasible(ModelError::InfeasibleGoal {
            requirement: Requirement::Energy,
            reason: InfeasibleReason::SavingUnreachable {
                target,
                rate,
                max_saving: 0.5,
            },
        });
        // Keyed `k`, a body holds the outcome tag at byte 5, the error
        // tag at 6, an infeasible goal's requirement at 7 and its reason
        // tag at 8.
        let with_byte = |at: usize, bad: u8| {
            let mut body = encode_record("k", &probes);
            body[at] = bad;
            body
        };
        let bps = rate.bits_per_second();
        let cases = [
            ("a negative rate", with_value(&probes, bps, -1.0)),
            ("a NaN rate", with_value(&saving, bps, f64::NAN)),
            (
                "a ratio above 1",
                with_value(&saving, target.fraction(), 1.5),
            ),
            (
                "a negative lifetime ceiling",
                with_value(&probes, 6.5, -6.5),
            ),
            ("an unknown requirement byte", with_byte(7, 5)),
            ("an unknown reason tag", with_byte(8, 7)),
            ("an unknown error tag", with_byte(6, 6)),
        ];
        for (name, body) in cases {
            assert!(decode_record(&body).is_none(), "{name} was accepted");
            assert!(decode_outcome(&body).is_none(), "{name} was accepted");
        }
        // An honest record of each still decodes.
        for outcome in [probes, saving] {
            assert_eq!(round_trip("k", &outcome).1, outcome);
        }
    }

    proptest::proptest! {
        /// A record of every error tag and every reason tag, truncated
        /// or with one byte changed, is rejected or decodes to an outcome
        /// that re-encodes to exactly the damaged bytes — never a panic.
        #[test]
        fn damaged_error_records_are_rejected_or_canonical(
            which in 0usize..1024,
            unmodelled in 0u32..2,
            truncate in 0u32..2,
            at in 0usize..4096,
            value in 0u32..256,
        ) {
            let errors = every_error();
            let err = errors[which % errors.len()].clone();
            let outcome = if unmodelled == 1 {
                CellOutcome::Unmodelled(err)
            } else {
                CellOutcome::Infeasible(err)
            };
            let mut body = encode_record("key", &outcome);
            let at = at % body.len();
            if truncate == 1 {
                body.truncate(at);
            } else {
                body[at] = value as u8;
            }
            if let Some((key, outcome)) = decode_record(&body) {
                proptest::prop_assert_eq!(encode_record(&key, &outcome), body.clone());
            }
            // The hit path skips the key unchecked; its payload is held
            // to the same rule.
            if let Some(outcome) = decode_outcome(&body) {
                let key_len = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
                proptest::prop_assert_eq!(&encode_record("", &outcome)[4..], &body[4 + key_len..]);
            }
        }
    }
}
