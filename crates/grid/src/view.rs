//! Reading and checking cache files (`docs/CACHE_FORMAT.md` § "Record
//! index and lazy decode").
//!
//! [`validate`] checks a file's structure in one pass — the count, the
//! trailing record index and the trailer agree with each other and with
//! the record framing, and the keys are readable and strictly ascending —
//! and returns one slot per record, its key's length included. It decodes
//! **no record payload**. [`read_cache_file`] reads a file and checks it,
//! in one run of records per thread when asked to, with the same answer
//! as the one-pass check. A whole file's bytes then become record buffer
//! 0 of a [`ResultCache`] and its slots the cache's key-sorted list,
//! whether the lenient [`ResultCache::open`] or the strict
//! [`CacheView::open`] read it.
//!
//! A [`CacheView`] is such a cache, read-only, and only ever built over a
//! file whose index provably describes its records. Its searches and
//! decodes are the cache's: probes binary-search the index on raw key
//! bytes — the whole of it ([`CacheView::find`]), or outward from a nearby
//! ordinal ([`CacheView::find_near`]) with the same answer — and records
//! decode on demand. A warm start is therefore proportional to the work
//! actually requested instead of the cache size: a fully-warm exploration
//! that only *plans* against the cache touches the index alone.

use std::fmt;
use std::fs;
use std::io::{self, Read as _};
use std::ops::Range;
use std::path::Path;
use std::thread;

use crate::cache::{check_regular_file, header_line, CacheFileError, ResultCache, Slot, MAGIC};
use crate::eval::CellOutcome;

/// Bytes before the first record: the magic and the `u64` count.
const HEADER_END: usize = MAGIC.len() + 8;

/// Reads a little-endian `u32` at `pos`, if the file holds one there.
fn u32_at(bytes: &[u8], pos: usize) -> Option<u32> {
    let slice = bytes.get(pos..pos.checked_add(4)?)?;
    Some(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
}

/// Reads a little-endian `u64` at `pos`, if the file holds one there.
fn u64_at(bytes: &[u8], pos: usize) -> Option<u64> {
    let slice = bytes.get(pos..pos.checked_add(8)?)?;
    Some(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
}

/// The whole record — its `u32` length prefix and its body — that starts
/// at `offset` of `bytes`. Only valid for offsets that hold a whole
/// record: those [`validate`] produced over the same bytes, or those a
/// cache wrote into its own record buffers.
pub(crate) fn record_at(bytes: &[u8], offset: usize) -> &[u8] {
    let len = u32_at(bytes, offset).expect("a record's length prefix") as usize;
    &bytes[offset..offset + 4 + len]
}

/// The raw key bytes of a record body (`u32 length + UTF-8`), if the
/// framing is intact.
fn body_key(body: &[u8]) -> Option<&[u8]> {
    let len = u32_at(body, 0)? as usize;
    body.get(4..4usize.checked_add(len)?)
}

/// Structurally validates a cache file (`bytes` starts with the magic)
/// and returns the slot of every record, in file order.
///
/// Checked, in order: the count field is readable; the trailer points at
/// an index of exactly `count` entries sitting between the records and
/// the trailer; every index entry equals the offset where the record
/// framing actually puts that record (records are contiguous — no gaps,
/// no overlap, none past the index); every record's key is readable
/// UTF-8 and the keys are strictly ascending. Record *payloads* are not
/// decoded — that is the entire point of the lazy path.
///
/// # Errors
///
/// [`CacheFileError::MalformedIndex`] at the byte offset of the damaged
/// structure (count, trailer, or index entry), or
/// [`CacheFileError::Malformed`] for a record whose key framing is
/// broken or out of order, attributed by record ordinal.
pub(crate) fn validate(bytes: &[u8]) -> Result<Vec<Slot>, CacheFileError> {
    let (count, index_offset) = layout(bytes)?;
    let (records, index) = bytes[HEADER_END..].split_at(index_offset - HEADER_END);
    let slots = Vec::with_capacity(count);
    walk(records, HEADER_END, index, index_offset, 0..count, slots)
}

/// The record count and the offset of the record index of a cache file
/// (`bytes` starts with the magic), if the count field is readable and
/// the trailer points at an index of exactly `count` entries between the
/// header and the trailer. Reads the count field and the trailer only.
fn layout(bytes: &[u8]) -> Result<(usize, usize), CacheFileError> {
    debug_assert!(bytes.starts_with(MAGIC));
    let Some(count) = u64_at(bytes, MAGIC.len()).and_then(|c| usize::try_from(c).ok()) else {
        return Err(CacheFileError::MalformedIndex {
            offset: MAGIC.len() as u64,
        });
    };
    if bytes.len() < HEADER_END + 8 {
        // No room for the trailer: the index is torn off entirely.
        return Err(CacheFileError::MalformedIndex {
            offset: bytes.len() as u64,
        });
    }
    let trailer_pos = bytes.len() - 8;
    let index_offset = u64_at(bytes, trailer_pos).expect("trailer bounds checked");
    let expected_index = count
        .checked_mul(8)
        .and_then(|index_bytes| trailer_pos.checked_sub(index_bytes))
        .filter(|&off| off >= HEADER_END);
    match expected_index {
        Some(off) if usize::try_from(index_offset).ok() == Some(off) => Ok((count, off)),
        _ => Err(CacheFileError::MalformedIndex {
            offset: trailer_pos as u64,
        }),
    }
}

/// The record walk: checks that `records`, the file's bytes from offset
/// `start`, hold exactly the records with `ordinals`, back to back, each
/// at the offset its entry of `index` (the file's bytes from the record
/// index at `index_offset` on) gives, each key readable UTF-8 and above
/// the one before. Returns `slots` with their slots pushed onto it. Over
/// every record this is [`validate`]; over a run of them, one part of a
/// split check ([`read_in_parts`]).
fn walk(
    records: &[u8],
    start: usize,
    index: &[u8],
    index_offset: usize,
    ordinals: Range<usize>,
    mut slots: Vec<Slot>,
) -> Result<Vec<Slot>, CacheFileError> {
    slots.reserve(ordinals.len());
    let mut cursor = 0;
    let mut prev_key: Option<&[u8]> = None;
    for ordinal in ordinals {
        let recorded = u64_at(index, 8 * ordinal).expect("an entry for every record");
        let entry_pos = (index_offset + 8 * ordinal) as u64;
        if recorded != (start + cursor) as u64 {
            return Err(CacheFileError::MalformedIndex { offset: entry_pos });
        }
        let body_end = u32_at(records, cursor)
            .and_then(|len| cursor.checked_add(4)?.checked_add(len as usize))
            .filter(|&end| end <= records.len());
        let Some(body_end) = body_end else {
            // The framed record runs past the index (or off the file):
            // the index entry points at something that is not a record.
            return Err(CacheFileError::MalformedIndex { offset: entry_pos });
        };
        let key = body_key(&records[cursor + 4..body_end])
            .filter(|key| std::str::from_utf8(key).is_ok())
            .ok_or(CacheFileError::Malformed { record: ordinal })?;
        if prev_key.is_some_and(|prev| prev >= key) {
            return Err(CacheFileError::Malformed { record: ordinal });
        }
        prev_key = Some(key);
        slots.push(Slot::new(start + cursor, key));
        cursor = body_end;
    }
    if cursor != records.len() {
        // Slack bytes between the last record and the index.
        return Err(CacheFileError::MalformedIndex {
            offset: (start + records.len()) as u64,
        });
    }
    Ok(slots)
}

/// What checking a file's bytes found: the slots of its records,
/// [`CacheFileError::VersionMismatch`] for a file without the magic, or
/// [`validate`]'s error.
type Checked = Result<Vec<Slot>, CacheFileError>;

/// A cache file as [`read_cache_file`] read it: its bytes, the metadata
/// of the handle they were read through, and what checking them found.
pub(crate) struct CacheRead {
    pub(crate) bytes: Vec<u8>,
    pub(crate) meta: fs::Metadata,
    pub(crate) slots: Checked,
}

/// Reads the cache file at `path` and checks its structure, in up to
/// `parts` runs of records on as many threads ([`read_in_parts`]), or in
/// one pass on this thread: the bytes, and the slots or the error, are
/// the one-pass check's whichever way the file was read.
///
/// # Errors
///
/// An error naming `path` if it exists but is not a regular file after
/// following symlinks (it is never opened); otherwise any I/O error,
/// "not found" included.
pub(crate) fn read_cache_file(path: &Path, parts: usize) -> io::Result<CacheRead> {
    check_regular_file(path)?;
    let mut file = fs::File::open(path)?;
    let meta = file.metadata()?;
    let len = usize::try_from(meta.len()).unwrap_or(0);
    let (bytes, slots) = match read_in_parts(&file, len, parts) {
        Ok(Some(read)) => read,
        // One part, a file that cannot be cut, or a short read: the whole
        // file again, in one read and one pass.
        _ => {
            let mut bytes = Vec::with_capacity(len);
            file.read_to_end(&mut bytes)?;
            let slots = if bytes.starts_with(MAGIC) {
                validate(&bytes)
            } else {
                Err(CacheFileError::VersionMismatch {
                    found: header_line(&bytes),
                })
            };
            (bytes, slots)
        }
    };
    Ok(CacheRead { bytes, meta, slots })
}

/// Reads the `len`-byte cache file `file` into one buffer, its records in
/// up to `parts` runs, each read and walked ([`walk`]) on a thread of its
/// own. This thread first reads the header, the trailer and the record
/// index, then cuts the records at the index entries of ordinals k·n /
/// parts, so that every run holds at least one record.
///
/// Each run checks its records against their index entries and ends
/// exactly where the next run starts, so the records are contiguous
/// across every seam; what is left is that the keys ascend across each
/// seam. Runs that pass and ordered seams are what the one-pass walk
/// would find over the same bytes, slot for slot. If a run or a seam
/// fails, [`validate`] checks the whole buffer, so its error is the
/// one-pass error, byte offset included.
///
/// `None` — the caller reads the file in one pass — for one part, a file
/// without the magic, a layout [`validate`] would reject, fewer than two
/// records, or index entries that cut the records out of order or out of
/// range. A short read is an error, and the caller reads again too.
fn read_in_parts(
    file: &fs::File,
    len: usize,
    parts: usize,
) -> io::Result<Option<(Vec<u8>, Checked)>> {
    if parts < 2 || len < HEADER_END + 8 {
        return Ok(None);
    }
    let mut bytes = vec![0; len];
    read_exact_at(file, &mut bytes[..HEADER_END], 0)?;
    read_exact_at(file, &mut bytes[len - 8..], len - 8)?;
    if !bytes.starts_with(MAGIC) {
        return Ok(None);
    }
    let Ok((count, index_offset)) = layout(&bytes) else {
        return Ok(None);
    };
    let parts = parts.min(count);
    if parts < 2 {
        return Ok(None);
    }
    read_exact_at(file, &mut bytes[index_offset..len - 8], index_offset)?;
    let ordinal = |k: usize| k * count / parts;
    let mut cuts = vec![HEADER_END];
    for k in 1..parts {
        let entry = u64_at(&bytes, index_offset + 8 * ordinal(k)).expect("index read");
        cuts.push(usize::try_from(entry).unwrap_or(usize::MAX));
    }
    cuts.push(index_offset);
    if !cuts.windows(2).all(|cut| cut[0] < cut[1]) {
        return Ok(None);
    }

    let (head, index) = bytes.split_at_mut(index_offset);
    let index: &[u8] = index;
    let (mut rest, mut runs) = (&mut head[HEADER_END..], Vec::with_capacity(parts));
    for cut in cuts.windows(2) {
        let (run, after) = std::mem::take(&mut rest).split_at_mut(cut[1] - cut[0]);
        runs.push(run);
        rest = after;
    }
    let part = |k: usize, run: &mut [u8], slots| {
        read_exact_at(file, run, cuts[k])?;
        let ordinals = ordinal(k)..ordinal(k + 1);
        Ok(walk(run, cuts[k], index, index_offset, ordinals, slots))
    };
    let walked: Vec<io::Result<_>> = thread::scope(|scope| {
        let part = &part;
        let mut runs = runs.into_iter().enumerate();
        let (_, run) = runs.next().expect("two runs or more");
        let handles: Vec<_> = runs
            .map(|(k, run)| scope.spawn(move || part(k, run, Vec::new())))
            .collect();
        // This thread's run fills the list that the others' runs extend.
        let mut walked = vec![part(0, run, Vec::with_capacity(count))];
        walked.extend(handles.into_iter().map(|handle| {
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        walked
    });
    let walked = walked.into_iter().collect::<io::Result<Vec<_>>>()?;
    let mut runs = walked.into_iter().map(Result::ok);
    let mut slots = runs.next().flatten();
    for run in runs {
        let key = |slot: Option<&Slot>| slot.map(|slot| slot.key(&bytes));
        slots = slots
            .zip(run)
            .filter(|(slots, run)| key(slots.last()) < key(run.first()))
            .map(|(mut slots, run)| {
                slots.extend(run);
                slots
            });
    }
    let checked = slots.map_or_else(|| validate(&bytes), Ok);
    Ok(Some((bytes, checked)))
}

/// Fills `buf` from `file` at byte `offset`, without moving the file's
/// cursor. Off Unix it reads nothing and fails, so the file is read in one
/// pass there.
#[cfg(unix)]
fn read_exact_at(file: &fs::File, buf: &mut [u8], offset: usize) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset as u64)
}

#[cfg(not(unix))]
fn read_exact_at(_: &fs::File, _: &mut [u8], _: usize) -> io::Result<()> {
    Err(io::ErrorKind::Unsupported.into())
}

/// A read-only view of a whole cache file: a [`ResultCache`] whose one
/// record buffer is the file. See the module docs for the contract.
///
/// ```
/// use memstream_grid::{CacheFormat, CacheView, ResultCache};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join(format!("memstream-view-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("view.cache");
/// let mut cache = ResultCache::new();
/// cache.insert(
///     "cell-a".into(),
///     memstream_grid::CellOutcome::Unmodelled(memstream_core::ModelError::MissingCapability {
///         capability: "wear",
///     }),
/// );
/// cache.save_as(&path, CacheFormat::default())?;
///
/// let view = CacheView::open(&path)?;
/// assert_eq!(view.len(), 1);
/// assert!(view.contains_key("cell-a")); // index probe, no decode
/// assert!(view.get("cell-a").is_some()); // decodes exactly one record
/// # std::fs::remove_file(&path)?;
/// # Ok(())
/// # }
/// ```
pub struct CacheView {
    cache: ResultCache,
}

impl fmt::Debug for CacheView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheView")
            .field("records", &self.len())
            .finish()
    }
}

impl CacheView {
    /// Opens a cache file lazily: reads the bytes, validates the
    /// structure (magic, count, index, trailer, record framing, key
    /// order) and decodes **nothing**.
    ///
    /// # Errors
    ///
    /// [`CacheFileError::Io`] on any read failure (including "not
    /// found", and a path that is not a regular file after following
    /// symlinks, refused by name before it is opened),
    /// [`CacheFileError::VersionMismatch`] if the file does not
    /// carry the `memstream-grid-cache v4` magic, and
    /// [`CacheFileError::MalformedIndex`] / [`CacheFileError::Malformed`]
    /// attributions for structural damage (see the module docs).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CacheFileError> {
        let read = read_cache_file(path.as_ref(), 1)?;
        let slots = read.slots?;
        Ok(CacheView {
            cache: ResultCache::over_file(read.bytes, slots),
        })
    }

    /// Number of records in the file (from the validated index).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the file holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The record ordinal of `key` — its position in
    /// [`CacheView::keys`] — found by binary search over the whole index.
    #[must_use]
    pub fn find(&self, key: &str) -> Option<usize> {
        self.cache.find(key.as_bytes()).ok()
    }

    /// [`CacheView::find`], searched outward from ordinal `near`
    /// (clamped to the last record): steps of 1, 2, 4, … away from `near`
    /// bracket `key` between two records, and the binary search runs
    /// inside that bracket only. The answer is always `find`'s; the cost
    /// grows with the logarithm of the distance from `near` to `key`.
    #[must_use]
    pub fn find_near(&self, key: &str, near: usize) -> Option<usize> {
        self.cache.find_near(key.as_bytes(), near).ok()
    }

    /// Whether `key` is present — an index probe, no decode.
    #[must_use]
    pub fn contains_key(&self, key: &str) -> bool {
        self.cache.contains_key(key)
    }

    /// Decodes the outcome stored under `key`, if present and well
    /// formed. Exactly one record is decoded.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<CellOutcome> {
        self.cache.get(key)
    }

    /// Iterates the keys in file order (which is sorted order).
    pub fn keys(&self) -> impl Iterator<Item = &str> + '_ {
        self.cache.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheFormat, ResultCache};
    use memstream_core::ModelError;

    fn save(cache: &ResultCache, path: &Path) {
        cache.save_as(path, CacheFormat::default()).unwrap();
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("memstream-grid-view-tests-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn fixture(keys: &[&str]) -> ResultCache {
        let mut cache = ResultCache::new();
        for key in keys {
            cache.insert(
                (*key).to_owned(),
                CellOutcome::Unmodelled(ModelError::InvalidCapability {
                    capability: "utilization",
                    reason: format!("detail {key}"),
                }),
            );
        }
        cache
    }

    #[test]
    fn view_probes_and_decodes_match_the_eager_map() {
        let path = temp_path("view-basic.cache");
        let cache = fixture(&["alpha", "beta", "gamma"]);
        save(&cache, &path);
        let view = CacheView::open(&path).unwrap();
        assert_eq!(view.len(), 3);
        assert_eq!(view.keys().collect::<Vec<_>>(), ["alpha", "beta", "gamma"]);
        for key in ["alpha", "beta", "gamma"] {
            assert!(view.contains_key(key));
            assert_eq!(view.get(key), cache.get(key), "drift under {key}");
        }
        assert!(!view.contains_key("delta"));
        assert!(view.get("delta").is_none());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn open_rejects_v1_and_missing_files() {
        let path = temp_path("view-v1.cache");
        fs::write(&path, "memstream-grid-cache v1\na\tU\tdetail a\n").unwrap();
        match CacheView::open(&path).unwrap_err() {
            CacheFileError::VersionMismatch { found } => {
                assert_eq!(found, "memstream-grid-cache v1");
            }
            other => panic!("expected a version mismatch, got {other}"),
        }
        fs::remove_file(&path).unwrap();
        assert!(matches!(
            CacheView::open(&path).unwrap_err(),
            CacheFileError::Io(_)
        ));
    }

    #[test]
    fn torn_index_is_attributed_by_byte_offset() {
        // Truncating mid-index leaves intact records but a trailer that
        // can no longer describe an index of `count` entries.
        let path = temp_path("view-torn-index.cache");
        save(&fixture(&["a", "b", "c"]), &path);
        let bytes = fs::read(&path).unwrap();
        let torn = &bytes[..bytes.len() - 12]; // lose the trailer + part of the index
        fs::write(&path, torn).unwrap();
        match CacheView::open(&path).unwrap_err() {
            CacheFileError::MalformedIndex { offset } => {
                assert_eq!(offset, torn.len() as u64 - 8, "attributed at the trailer");
            }
            other => panic!("expected index damage, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn index_entry_past_eof_is_attributed_by_byte_offset() {
        let path = temp_path("view-index-past-eof.cache");
        save(&fixture(&["a", "b", "c"]), &path);
        let mut bytes = fs::read(&path).unwrap();
        // Patch the second index entry to point far past the end.
        let trailer_pos = bytes.len() - 8;
        let index_offset = trailer_pos - 3 * 8;
        let entry_pos = index_offset + 8;
        bytes[entry_pos..entry_pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        match CacheView::open(&path).unwrap_err() {
            CacheFileError::MalformedIndex { offset } => {
                assert_eq!(offset, entry_pos as u64, "attributed at the bad entry");
            }
            other => panic!("expected index damage, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn out_of_order_keys_are_attributed_to_the_record() {
        // Swap two records *and* their index entries: framing stays
        // coherent, but the sort invariant binary search relies on is
        // gone — the view must refuse.
        let path = temp_path("view-unsorted.cache");
        let a = fixture(&["aa"]);
        let b = fixture(&["bb"]);
        let (pa, pb) = (temp_path("view-unsorted-a"), temp_path("view-unsorted-b"));
        save(&a, &pa);
        save(&b, &pb);
        let (ba, bb) = (fs::read(&pa).unwrap(), fs::read(&pb).unwrap());
        let record = |bytes: &[u8]| {
            let start = MAGIC.len() + 8;
            let len = u32_at(bytes, start).unwrap() as usize;
            bytes[start..start + 4 + len].to_vec()
        };
        let (ra, rb) = (record(&ba), record(&bb));
        assert_eq!(ra.len(), rb.len(), "fixtures frame identically");
        let mut swapped = Vec::new();
        swapped.extend_from_slice(MAGIC);
        swapped.extend_from_slice(&2u64.to_le_bytes());
        let first = swapped.len();
        swapped.extend_from_slice(&rb);
        let second = swapped.len();
        swapped.extend_from_slice(&ra);
        let index_offset = swapped.len() as u64;
        swapped.extend_from_slice(&(first as u64).to_le_bytes());
        swapped.extend_from_slice(&(second as u64).to_le_bytes());
        swapped.extend_from_slice(&index_offset.to_le_bytes());
        fs::write(&path, &swapped).unwrap();
        match CacheView::open(&path).unwrap_err() {
            CacheFileError::Malformed { record } => assert_eq!(record, 1, "second record"),
            other => panic!("expected record attribution, got {other}"),
        }
        for p in [path, pa, pb] {
            fs::remove_file(p).unwrap();
        }
    }

    /// What [`read_cache_file`] made of `path` in up to `parts` parts:
    /// the bytes, and the slots or the error with its attribution.
    fn read_in(path: &Path, parts: usize) -> (Vec<u8>, Result<Vec<Slot>, String>) {
        let read = read_cache_file(path, parts).unwrap();
        (read.bytes, read.slots.map_err(|e| format!("{e:?}")))
    }

    #[test]
    fn small_files_read_in_parts_like_in_one() {
        // Fewer records than parts: a file is never cut into more runs
        // than it holds records.
        let keys = ["alpha", "beta", "gamma"];
        for n in 0..=keys.len() {
            let path = temp_path(&format!("view-parts-{n}.cache"));
            save(&fixture(&keys[..n]), &path);
            let one = read_in(&path, 1);
            assert_eq!(one.1.as_ref().map(Vec::len), Ok(n));
            for parts in 2..=4 {
                assert_eq!(read_in(&path, parts), one, "{n} records in {parts} parts");
            }
            fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn damaged_cut_entries_read_in_parts_like_in_one() {
        // Seven records: two parts cut at ordinal 3, three at 2 and 4, five
        // at 1, 2, 4 and 5. Each damage aims at an entry a cut reads, and
        // every split read must give the one-pass answer, error included.
        let keys: Vec<String> = (0..7).map(|i| format!("key-{i}")).collect();
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        let path = temp_path("view-cut-entries.cache");
        save(&fixture(&keys), &path);
        let intact = fs::read(&path).unwrap();
        let index_offset = intact.len() - 8 - 8 * keys.len();
        let entry =
            |bytes: &[u8], ordinal: usize| u64_at(bytes, index_offset + 8 * ordinal).unwrap();
        for ordinal in [1, 2, 3, 4, 5] {
            let at = index_offset + 8 * ordinal;
            let next = entry(&intact, ordinal + 1);
            let damages = [
                ("at the index", index_offset as u64),
                ("one past the index", index_offset as u64 + 1),
                ("one before the first record", HEADER_END as u64 - 1),
                ("its neighbour's", next),
                ("past the end", u64::MAX),
            ];
            for (name, value) in damages {
                let mut bytes = intact.clone();
                bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                fs::write(&path, &bytes).unwrap();
                let one = read_in(&path, 1);
                let expected =
                    format!("{:?}", CacheFileError::MalformedIndex { offset: at as u64 });
                assert_eq!(one.1, Err(expected), "entry {ordinal} {name}");
                for parts in 2..=5 {
                    assert_eq!(
                        read_in(&path, parts),
                        one,
                        "entry {ordinal} {name}, {parts} parts"
                    );
                }
            }
            // Its record's key lowered to the first record's, "key-0":
            // out of order across the seam in front of it when a cut
            // falls there, inside a run otherwise.
            let mut bytes = intact.clone();
            let key_end = usize::try_from(entry(&intact, ordinal)).unwrap() + 8 + keys[0].len();
            bytes[key_end - 1] = b'0';
            fs::write(&path, &bytes).unwrap();
            let one = read_in(&path, 1);
            let expected = format!("{:?}", CacheFileError::Malformed { record: ordinal });
            assert_eq!(one.1, Err(expected), "entry {ordinal}'s key lowered");
            for parts in 2..=5 {
                assert_eq!(
                    read_in(&path, parts),
                    one,
                    "entry {ordinal}'s key lowered, {parts} parts"
                );
            }
            // Swapped with its neighbour, record bytes and all entries in
            // place otherwise.
            let mut bytes = intact.clone();
            let this = entry(&intact, ordinal);
            bytes[at..at + 8].copy_from_slice(&next.to_le_bytes());
            bytes[at + 8..at + 16].copy_from_slice(&this.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            let one = read_in(&path, 1);
            assert!(one.1.is_err(), "entry {ordinal} swapped");
            for parts in 2..=5 {
                assert_eq!(
                    read_in(&path, parts),
                    one,
                    "entry {ordinal} swapped, {parts} parts"
                );
            }
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn empty_v2_file_is_a_valid_empty_view() {
        let path = temp_path("view-empty.cache");
        save(&ResultCache::new(), &path);
        let view = CacheView::open(&path).unwrap();
        assert!(view.is_empty());
        assert!(!view.contains_key("anything"));
        fs::remove_file(path).unwrap();
    }
}
