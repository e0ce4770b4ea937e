//! Damaged whole cache files: truncations past the magic of a real saved
//! cache, single-byte changes to `0x00`, to `0xff` and with the low bit
//! flipped, at a stride of positions, and random changes to 2–8 bytes at
//! once. No reader may panic, and neither may a warm exploration over
//! the damaged file, which looks every cell up exactly once. A lenient
//! read of a truncated file holds only entries of the intact file, with
//! their outcomes. A strict open attributes its error inside the file: a
//! byte offset no larger than the file, or a record ordinal below the
//! record count. An executor's open, which reads and checks the records
//! on its threads, holds exactly what the one-thread lenient read holds.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use memstream_grid::{
    CacheFileError, CacheFormat, CacheView, CellOutcome, GridExecutor, ResultCache, ScenarioGrid,
};
use proptest::prelude::*;

const MAGIC: &[u8] = b"memstream-grid-cache v4\n";

/// Positions between sampled cuts and between sampled changes. Each kind
/// of damage starts at another residue, so together they reach every
/// field of the file while the debug run stays short.
const STRIDE: usize = 17;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memstream-grid-damaged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The entries of `cache` whose outcomes decode, by key.
fn entries(cache: &ResultCache) -> HashMap<String, CellOutcome> {
    cache
        .keys()
        .filter_map(|key| Some((key.to_owned(), cache.get(key)?)))
        .collect()
}

/// Every key of `cache`, decoding or not, and the entries that decode.
fn contents(cache: &ResultCache) -> (Vec<String>, HashMap<String, CellOutcome>) {
    (cache.keys().map(str::to_owned).collect(), entries(cache))
}

/// What the two readers made of one damaged file.
struct Reads {
    lazy: HashMap<String, CellOutcome>,
    strict: Result<usize, CacheFileError>,
}

/// Writes `bytes` to `path` and reads it with every reader, failing the
/// test with `case` named if any of them panics. The executor's opens at
/// 2 and 3 threads must hold what the one-part lenient read holds.
fn read_all(path: &Path, bytes: &[u8], case: &str) -> Reads {
    std::fs::write(path, bytes).expect("write the damaged file");
    let (lazy, split, strict) = catch_unwind(AssertUnwindSafe(|| {
        let open = |threads| {
            let executor = GridExecutor::parallel(threads);
            contents(&executor.open_cache(path).expect("the file is readable"))
        };
        (
            contents(&ResultCache::load_lazy(path).expect("the file is readable")),
            [open(2), open(3)],
            CacheView::open(path).map(|view| view.len()),
        )
    }))
    .unwrap_or_else(|_| panic!("{case}: a reader panicked"));
    for (threads, opened) in [2, 3].into_iter().zip(split) {
        assert!(
            opened == lazy,
            "{case}: the open at {threads} threads differs"
        );
    }
    Reads {
        lazy: lazy.1,
        strict,
    }
}

/// The strict reader's error, if any, points inside the damaged file.
fn assert_attributed(
    strict: &Result<usize, CacheFileError>,
    len: usize,
    records: usize,
    case: &str,
) {
    match strict {
        Ok(_) | Err(CacheFileError::VersionMismatch { .. }) => {}
        Err(CacheFileError::MalformedIndex { offset }) => {
            assert!(
                *offset <= len as u64,
                "{case}: offset {offset} past {len} bytes"
            );
        }
        Err(CacheFileError::Malformed { record }) => {
            assert!(*record < records, "{case}: record {record} of {records}");
        }
        Err(CacheFileError::Io(e)) => panic!("{case}: {e}"),
    }
}

#[test]
fn damaged_cache_files_never_panic_a_reader_and_errors_stay_attributed() {
    let grid = ScenarioGrid::paper_baseline(2);
    let mut cache = ResultCache::new();
    GridExecutor::serial()
        .explore_cached(&grid, &mut cache)
        .expect("explore");
    let path = temp_path("intact.cache");
    cache.save_as(&path, CacheFormat::default()).expect("save");
    let intact = std::fs::read(&path).expect("read");
    let truth = entries(&cache);
    let records = truth.len();
    assert_eq!(records, grid.len());
    assert!(intact.starts_with(MAGIC));

    let damaged = temp_path("damaged.cache");
    for cut in (MAGIC.len()..intact.len()).step_by(STRIDE) {
        let case = format!("truncated to {cut} bytes");
        let reads = read_all(&damaged, &intact[..cut], &case);
        for (key, outcome) in &reads.lazy {
            assert_eq!(
                truth.get(key),
                Some(outcome),
                "{case}: load_lazy holds {key}"
            );
        }
        assert_attributed(&reads.strict, cut, records, &case);
    }

    let changes = [
        ("set to 0x00", (|_| 0x00) as fn(u8) -> u8),
        ("set to 0xff", |_| 0xff),
        ("low bit flipped", |b| b ^ 1),
    ];
    let mut bytes = intact.clone();
    for (start, (name, change)) in changes.into_iter().enumerate() {
        for at in (start + 1..intact.len()).step_by(STRIDE) {
            let changed = change(intact[at]);
            if changed == intact[at] {
                continue;
            }
            bytes[at] = changed;
            let case = format!("byte {at} {name}");
            let reads = read_all(&damaged, &bytes, &case);
            if let Err(CacheFileError::VersionMismatch { .. }) = reads.strict {
                assert!(at < MAGIC.len(), "{case}: the magic is intact");
            }
            assert_attributed(&reads.strict, bytes.len(), records, &case);
            bytes[at] = intact[at];
        }
    }
    for p in [path, damaged] {
        std::fs::remove_file(p).expect("cleanup");
    }
}

#[test]
fn damaged_cut_entries_open_like_the_one_part_read() {
    // The index entries an executor's open cuts the records at: ordinal
    // n/2 at two threads, n/3 and 2n/3 at three. Each is pointed one past
    // the index, one before the first record, or swapped with its
    // neighbour; `read_all` checks the opens against the one-part read.
    let intact = intact_baseline_file();
    let records = ScenarioGrid::paper_baseline(2).len();
    let index_offset = intact.len() - 8 - 8 * records;
    let damaged = temp_path("cut-entries.cache");
    for ordinal in [records / 2, records / 3, 2 * records / 3] {
        let at = index_offset + 8 * ordinal;
        let mut cases = Vec::new();
        for (name, value) in [
            ("one past the index", index_offset as u64 + 1),
            ("one before the first record", MAGIC.len() as u64 + 7),
        ] {
            let mut bytes = intact.to_vec();
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            cases.push((name, bytes));
        }
        let mut swapped = intact.to_vec();
        swapped[at..at + 16].rotate_left(8);
        cases.push(("swapped with the next", swapped));
        for (name, bytes) in cases {
            let case = format!("index entry {ordinal} {name}");
            let reads = read_all(&damaged, &bytes, &case);
            assert!(
                matches!(reads.strict, Err(CacheFileError::MalformedIndex { offset }) if offset == at as u64),
                "{case}: {:?}",
                reads.strict.map_err(|e| e.to_string())
            );
        }
    }
    std::fs::remove_file(damaged).expect("cleanup");
}

/// The saved cache of `paper_baseline(2)`, built once for the multi-byte
/// cases.
fn intact_baseline_file() -> &'static [u8] {
    static INTACT: OnceLock<Vec<u8>> = OnceLock::new();
    INTACT.get_or_init(|| {
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&ScenarioGrid::paper_baseline(2), &mut cache)
            .expect("explore");
        let path = temp_path("multi-intact.cache");
        cache.save_as(&path, CacheFormat::default()).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::remove_file(path).expect("cleanup");
        bytes
    })
}

proptest! {
    #[test]
    fn multi_byte_damage_never_panics_and_a_warm_run_looks_every_cell_up(
        changes in prop::collection::vec((0usize..usize::MAX, 1u32..256), 2..9)
    ) {
        let grid = ScenarioGrid::paper_baseline(2);
        let intact = intact_baseline_file();
        // Each change XORs a non-zero mask into a distinct byte.
        let damage: BTreeMap<usize, u8> = changes
            .iter()
            .map(|&(at, mask)| (at % intact.len(), mask as u8))
            .collect();
        let mut bytes = intact.to_vec();
        for (&at, &mask) in &damage {
            bytes[at] ^= mask;
        }
        let case = format!("bytes {:?} changed", damage.keys().collect::<Vec<_>>());
        let damaged = temp_path("multi-damaged.cache");
        let reads = read_all(&damaged, &bytes, &case);
        if let Err(CacheFileError::VersionMismatch { .. }) = reads.strict {
            prop_assert!(damage.keys().any(|&at| at < MAGIC.len()), "{case}: the magic is intact");
        }
        assert_attributed(&reads.strict, bytes.len(), grid.len(), &case);

        // A warm run over the damaged file, opened on the executor's
        // threads: every cell is a hit or a miss.
        let (hits, misses) = catch_unwind(AssertUnwindSafe(|| {
            let executor = GridExecutor::parallel(2);
            let mut cache = executor.open_cache(&damaged).expect("the file is readable");
            executor
                .explore_cached(&grid, &mut cache)
                .expect("the grid explores");
            (cache.hits(), cache.misses())
        }))
        .unwrap_or_else(|_| panic!("{case}: the warm run panicked"));
        prop_assert_eq!(hits + misses, grid.len());
        std::fs::remove_file(damaged).expect("cleanup");
    }
}
