//! Lazy, index-backed reading of cache files (`docs/CACHE_FORMAT.md`
//! § "Record index and lazy decode").
//!
//! A [`CacheView`] holds the raw file bytes plus the validated record
//! index and nothing else: opening one reads the magic, the count, the
//! trailing index and the trailer, checks that they agree with each
//! other and with the record framing, and stops — **no record payload is
//! decoded**. Key probes binary-search the index (keys are stored in
//! strictly ascending byte order, so raw-byte comparison is exact) — the
//! whole of it ([`CacheView::find`]), or outward from a nearby ordinal
//! ([`CacheView::find_near`], how a series' lookups walk the index from
//! their last hit) with the same answer — and individual records decode
//! on demand from their recorded offsets.
//! This is what makes a warm start proportional to the work actually
//! requested instead of the cache size: a fully-warm exploration that
//! only *plans* against the cache touches the index alone.
//!
//! The index's searches ([`search`], [`search_near`]) take any key-sorted
//! list: the cache's in-memory overlay, the index's twin over the records
//! added since the file was opened, is searched and walked by the same
//! code.
//!
//! [`CacheView::open`] is the workspace's strict cache reader: a view is
//! only ever constructed over a file whose index provably describes its
//! records. Consequently a save can copy a view's records as raw bytes,
//! in the key order they already have, without decoding them
//! ([`ResultCache::save_as`](crate::ResultCache::save_as)).

use std::cmp::Ordering;
use std::fmt;
use std::fs;
use std::ops::Range;
use std::path::Path;

use crate::cache::{check_regular_file, decode_outcome, header_line, CacheFileError, MAGIC};
use crate::eval::CellOutcome;

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

/// The raw key bytes of the record that starts `record` (length prefix
/// included), whose key framing is known to be intact.
pub(crate) fn record_key(record: &[u8]) -> &[u8] {
    let len = u32_at(record, 4).expect("a record's key length") as usize;
    &record[8..8 + len]
}

/// Binary-searches the entries in `range` of a key-sorted list for
/// `key`: `Ok` with its position, or `Err` with the position where it
/// would be inserted. This is the one binary search of the cache's two
/// sorted record lists, the file's index and the in-memory overlay
/// (`key_of` reads an entry's key). It compares raw key bytes, which is
/// exact because both lists hold their keys in strictly ascending byte
/// order.
pub(crate) fn search<'a, T>(
    entries: &[T],
    key_of: impl Fn(&T) -> &'a [u8],
    key: &[u8],
    range: Range<usize>,
) -> Result<usize, usize> {
    let start = range.start;
    entries[range]
        .binary_search_by(|entry| key_of(entry).cmp(key))
        .map(|found| start + found)
        .map_err(|slot| start + slot)
}

/// [`search`] over the whole list, outward from position `near`
/// (clamped to the last entry): steps of 1, 2, 4, … away from `near`
/// bracket `key` between two entries, and the binary search runs inside
/// that bracket only. The answer is always the whole-list search's; the
/// cost grows with the logarithm of the distance from `near` to `key`.
pub(crate) fn search_near<'a, T>(
    entries: &[T],
    key_of: impl Fn(&T) -> &'a [u8],
    key: &[u8],
    near: usize,
) -> Result<usize, usize> {
    let Some(last) = entries.len().checked_sub(1) else {
        return Err(0);
    };
    let near = near.min(last);
    let side = key_of(&entries[near]).cmp(key);
    let mut bracket = match side {
        Ordering::Equal => return Ok(near),
        Ordering::Less => near + 1..entries.len(),
        Ordering::Greater => 0..near,
    };
    let mut step = 1usize;
    loop {
        let probe = match side {
            Ordering::Less => near.checked_add(step).filter(|&p| p < entries.len()),
            _ => near.checked_sub(step),
        };
        let Some(probe) = probe else { break };
        let ordering = key_of(&entries[probe]).cmp(key);
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
    search(entries, key_of, key, bracket)
}

/// The raw key bytes of a record body (`u32 length + UTF-8`), if the
/// framing is intact.
fn body_key(body: &[u8]) -> Option<&[u8]> {
    let len = u32_at(body, 0)? as usize;
    body.get(4..4usize.checked_add(len)?)
}

/// Structurally validates a cache file (`bytes` starts with the magic)
/// and returns the byte offset of every record, in file order.
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
pub(crate) fn validate(bytes: &[u8]) -> Result<Vec<usize>, CacheFileError> {
    debug_assert!(bytes.starts_with(MAGIC));
    let header_end = MAGIC.len() + 8;
    let Some(count) = u64_at(bytes, MAGIC.len()).and_then(|c| usize::try_from(c).ok()) else {
        return Err(CacheFileError::MalformedIndex {
            offset: MAGIC.len() as u64,
        });
    };
    if bytes.len() < header_end + 8 {
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
        .filter(|&off| off >= header_end);
    if expected_index != usize::try_from(index_offset).ok() || expected_index.is_none() {
        return Err(CacheFileError::MalformedIndex {
            offset: trailer_pos as u64,
        });
    }
    let index_offset = expected_index.expect("checked above");

    let mut offsets = Vec::with_capacity(count);
    let mut cursor = header_end;
    let mut prev_key: Option<&[u8]> = None;
    for ordinal in 0..count {
        let entry_pos = index_offset + 8 * ordinal;
        let recorded = u64_at(bytes, entry_pos).expect("index bounds checked");
        if recorded != cursor as u64 {
            return Err(CacheFileError::MalformedIndex {
                offset: entry_pos as u64,
            });
        }
        let body_end = u32_at(bytes, cursor)
            .and_then(|len| cursor.checked_add(4)?.checked_add(len as usize))
            .filter(|&end| end <= index_offset);
        let Some(body_end) = body_end else {
            // The framed record runs past the index (or off the file):
            // the index entry points at something that is not a record.
            return Err(CacheFileError::MalformedIndex {
                offset: entry_pos as u64,
            });
        };
        let key = body_key(&bytes[cursor + 4..body_end])
            .filter(|key| std::str::from_utf8(key).is_ok())
            .ok_or(CacheFileError::Malformed { record: ordinal })?;
        if prev_key.is_some_and(|prev| prev >= key) {
            return Err(CacheFileError::Malformed { record: ordinal });
        }
        prev_key = Some(key);
        offsets.push(cursor);
        cursor = body_end;
    }
    if cursor != index_offset {
        // Slack bytes between the last record and the index.
        return Err(CacheFileError::MalformedIndex {
            offset: index_offset as u64,
        });
    }
    Ok(offsets)
}

/// A lazy, read-only view of a cache file: the raw bytes plus the
/// validated record index. See the module docs for the contract.
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
    bytes: Vec<u8>,
    offsets: Vec<usize>,
}

impl fmt::Debug for CacheView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheView")
            .field("records", &self.offsets.len())
            .field("file_bytes", &self.bytes.len())
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
        let path = path.as_ref();
        check_regular_file(path)?;
        let bytes = fs::read(path)?;
        if !bytes.starts_with(MAGIC) {
            return Err(CacheFileError::VersionMismatch {
                found: header_line(&bytes),
            });
        }
        let offsets = validate(&bytes)?;
        Ok(CacheView { bytes, offsets })
    }

    /// Wraps already-validated bytes (offsets must come from
    /// [`validate`] over the same buffer).
    pub(crate) fn from_validated(bytes: Vec<u8>, offsets: Vec<usize>) -> Self {
        CacheView { bytes, offsets }
    }

    /// Number of records in the file (from the validated index).
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the file holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The raw key bytes of the record starting at `offset`.
    fn key_bytes(&self, offset: usize) -> &[u8] {
        record_key(&self.bytes[offset..])
    }

    /// The record ordinal of `key` — its position in
    /// [`CacheView::keys`] — found by binary search over the whole index.
    #[must_use]
    pub fn find(&self, key: &str) -> Option<usize> {
        let entries = &self.offsets[..];
        search(
            entries,
            |&at| self.key_bytes(at),
            key.as_bytes(),
            0..entries.len(),
        )
        .ok()
    }

    /// [`CacheView::find`], searched outward from ordinal `near`
    /// (clamped to the last record): steps of 1, 2, 4, … away from `near`
    /// bracket `key` between two records, and the binary search runs
    /// inside that bracket only. The answer is always `find`'s; the cost
    /// grows with the logarithm of the distance from `near` to `key`,
    /// so a caller that probes keys in nearly ascending order — a
    /// series looking up its cells — pays a few comparisons per probe.
    #[must_use]
    pub fn find_near(&self, key: &str, near: usize) -> Option<usize> {
        search_near(
            &self.offsets,
            |&at| self.key_bytes(at),
            key.as_bytes(),
            near,
        )
        .ok()
    }

    /// Whether `key` is present — an index probe, no decode.
    #[must_use]
    pub fn contains_key(&self, key: &str) -> bool {
        self.find(key).is_some()
    }

    /// The whole record at `ordinal`: its `u32` length prefix and its
    /// body, as the file holds them — a save copies it without decoding.
    pub(crate) fn record(&self, ordinal: usize) -> &[u8] {
        record_at(&self.bytes, self.offsets[ordinal])
    }

    /// Decodes the outcome of the record at `ordinal`, skipping its key
    /// (`None` if the payload is malformed — structural validation does
    /// not cover payloads).
    pub(crate) fn decode(&self, ordinal: usize) -> Option<CellOutcome> {
        decode_outcome(&self.record(ordinal)[4..])
    }

    /// Decodes the outcome stored under `key`, if present and well
    /// formed. Exactly one record is decoded.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<CellOutcome> {
        self.decode(self.find(key)?)
    }

    /// The key at `ordinal`, straight from the file bytes (no decode).
    pub(crate) fn key_at(&self, ordinal: usize) -> &str {
        std::str::from_utf8(self.key_bytes(self.offsets[ordinal])).expect("validated UTF-8 key")
    }

    /// Iterates the keys in file order (which is sorted order).
    pub fn keys(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.offsets.len()).map(|ordinal| self.key_at(ordinal))
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
