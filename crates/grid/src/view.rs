//! Strict reading of cache files (`docs/CACHE_FORMAT.md` § "Record
//! index and lazy decode").
//!
//! [`validate`] checks a file's structure in one pass — the count, the
//! trailing record index and the trailer agree with each other and with
//! the record framing, and the keys are readable and strictly ascending —
//! and returns one slot per record, its key's length included. It decodes
//! **no record payload**. A whole file's bytes then become record buffer
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
use std::path::Path;

use crate::cache::{check_regular_file, header_line, CacheFileError, ResultCache, Slot, MAGIC};
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

    let mut slots = Vec::with_capacity(count);
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
        slots.push(Slot::new(cursor, key));
        cursor = body_end;
    }
    if cursor != index_offset {
        // Slack bytes between the last record and the index.
        return Err(CacheFileError::MalformedIndex {
            offset: index_offset as u64,
        });
    }
    Ok(slots)
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
        let path = path.as_ref();
        check_regular_file(path)?;
        let bytes = fs::read(path)?;
        if !bytes.starts_with(MAGIC) {
            return Err(CacheFileError::VersionMismatch {
                found: header_line(&bytes),
            });
        }
        let slots = validate(&bytes)?;
        Ok(CacheView {
            cache: ResultCache::over_file(bytes, slots),
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
