//! The cache's record list against a model. A cache opened over a saved
//! file holds the file's records as its first record buffer and every
//! record added since in buffers of its own, all in one key-sorted list;
//! batch absorbs, single inserts and merges must make it answer exactly
//! like a `BTreeMap` from key to record bytes, and save exactly the file
//! that map describes, written in key order by hand here.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use memstream_grid::{
    decode_frame, encode_frame, CacheFormat, CacheView, CellOutcome, GridExecutor, RecordBatch,
    ResultCache, ScenarioGrid,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Key to record (`u32 length + body`, as a file holds it).
type Model = BTreeMap<String, Vec<u8>>;

/// Real keys and outcomes: one exploration of a small paper grid, in
/// key order.
fn corpus() -> &'static [(String, CellOutcome)] {
    static CORPUS: OnceLock<Vec<(String, CellOutcome)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let grid = ScenarioGrid::paper_baseline(4);
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .expect("corpus grid explores");
        cache
            .keys()
            .map(|key| (key.to_owned(), cache.get(key).expect("listed key resolves")))
            .collect()
    })
}

/// The key of pick `k` and the outcome of pick `o`: any outcome may sit
/// under any key, which is how two records of one key come to differ.
fn entry(k: usize, o: usize) -> (&'static str, &'static CellOutcome) {
    let corpus = corpus();
    (&corpus[k % corpus.len()].0, &corpus[o % corpus.len()].1)
}

fn record(key: &str, outcome: &CellOutcome) -> Vec<u8> {
    encode_frame([(key, outcome)])
}

/// `record` with its outcome tag replaced: the key framing is intact, the
/// payload does not decode.
fn corrupt(key: &str, outcome: &CellOutcome) -> Vec<u8> {
    let mut bytes = record(key, outcome);
    bytes[8 + key.len()] = b'?';
    bytes
}

/// The outcome a record decodes to, if it decodes.
fn decoded(record: &[u8]) -> Option<CellOutcome> {
    match decode_frame(record) {
        (mut records, None) if records.len() == 1 => records.pop().map(|(_, outcome)| outcome),
        _ => None,
    }
}

/// A `memstream-grid-cache v4` file: magic, count, `records` as given,
/// the index of their offsets and the trailer.
fn file_of<'a>(records: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut file = b"memstream-grid-cache v4\n".to_vec();
    let records: Vec<&[u8]> = records.into_iter().collect();
    file.extend_from_slice(&(records.len() as u64).to_le_bytes());
    let mut index = Vec::new();
    for record in records {
        index.push(file.len() as u64);
        file.extend_from_slice(record);
    }
    let index_offset = file.len() as u64;
    for offset in index {
        file.extend_from_slice(&offset.to_le_bytes());
    }
    file.extend_from_slice(&index_offset.to_le_bytes());
    file
}

fn model_file(model: &Model) -> Vec<u8> {
    file_of(model.values().map(Vec::as_slice))
}

fn temp_path(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("memstream-record-overlay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!(
        "{name}-{}.cache",
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Every answer of `cache` against `model`: length, keys in order, and
/// `get` and `contains_key` for every corpus key; then the saved bytes,
/// which the strict reader must accept.
fn check(cache: &ResultCache, model: &Model, step: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        cache.len() == model.len(),
        "{step}: len {} != {}",
        cache.len(),
        model.len()
    );
    let keys: Vec<&str> = cache.keys().collect();
    let expected: Vec<&str> = model.keys().map(String::as_str).collect();
    prop_assert!(keys == expected, "{step}: keys {keys:?} != {expected:?}");
    for (key, _) in corpus() {
        let held = model.get(key);
        prop_assert!(
            cache.contains_key(key) == held.is_some(),
            "{step}: contains_key({key})"
        );
        prop_assert!(
            cache.get(key) == held.and_then(|record| decoded(record)),
            "{step}: get({key})"
        );
    }
    let path = temp_path("saved");
    cache
        .save_as(&path, CacheFormat::default())
        .expect("the cache saves");
    let saved = std::fs::read(&path).expect("the saved file reads");
    prop_assert!(saved == model_file(model), "{step}: saved bytes");
    let strict = CacheView::open(&path);
    prop_assert!(strict.is_ok(), "{step}: strict read {:?}", strict.err());
    std::fs::remove_file(path).ok();
    Ok(())
}

/// A cache of `entries` (inserted in order), or the same entries opened
/// lazily from a saved file.
fn other_cache(entries: &Model, lazy: bool) -> ResultCache {
    if lazy {
        let path = temp_path("other");
        std::fs::write(&path, model_file(entries)).expect("other file writes");
        let cache = ResultCache::load_lazy(&path).expect("other file opens");
        std::fs::remove_file(path).ok();
        cache
    } else {
        let mut batch = RecordBatch::new();
        for record in entries.values() {
            let (records, _) = decode_frame(record);
            for (key, outcome) in &records {
                batch.push(key, outcome);
            }
        }
        let mut cache = ResultCache::new();
        cache.absorb(batch);
        cache
    }
}

proptest! {
    /// Random batch absorbs, single inserts, explorations and merges —
    /// agreeing ones, from an in-memory or a file-backed cache, and
    /// conflicting ones — over a lazily opened file holding one corrupt
    /// record.
    #[test]
    fn the_overlay_answers_and_saves_like_a_sorted_map(
        seed in prop::collection::vec((0usize..1_000, 0usize..1_000), 1..24),
        bad in 0usize..1_000,
        steps in prop::collection::vec(
            (0u32..6, prop::collection::vec((0usize..1_000, 0usize..1_000), 1..10)),
            1..7,
        ),
    ) {
        let mut model: Model = seed
            .iter()
            .map(|&(k, o)| {
                let (key, outcome) = entry(k, o);
                (key.to_owned(), record(key, outcome))
            })
            .collect();
        let bad_key = model.keys().nth(bad % model.len()).expect("a seed key").clone();
        let (_, outcome) = entry(0, bad);
        model.insert(bad_key.clone(), corrupt(&bad_key, outcome));
        let path = temp_path("seed");
        std::fs::write(&path, model_file(&model)).expect("seed file writes");
        let mut cache = ResultCache::load_lazy(&path).expect("seed file opens");
        check(&cache, &model, "opened")?;

        for (n, (kind, picks)) in steps.iter().enumerate() {
            let step = format!("step {n} (kind {kind})");
            match kind {
                // A batch: the last record pushed under a key wins.
                0 => {
                    let mut batch = RecordBatch::new();
                    for &(k, o) in picks {
                        let (key, outcome) = entry(k, o);
                        batch.push(key, outcome);
                        model.insert(key.to_owned(), record(key, outcome));
                    }
                    cache.absorb(batch);
                }
                1 => {
                    for &(k, o) in picks {
                        let (key, outcome) = entry(k, o);
                        cache.insert(key.to_owned(), outcome.clone());
                        model.insert(key.to_owned(), record(key, outcome));
                    }
                }
                // A merge that agrees on every key the cache can decode;
                // a key it cannot decode takes the merged record.
                2 | 3 => {
                    let mut theirs = Model::new();
                    for &(k, o) in picks {
                        let (key, outcome) = entry(k, o);
                        let agreed = model
                            .get(key)
                            .filter(|held| decoded(held).is_some())
                            .cloned()
                            .unwrap_or_else(|| record(key, outcome));
                        theirs.insert(key.to_owned(), agreed);
                    }
                    let (mut added, mut duplicates) = (0, 0);
                    for (key, record) in &theirs {
                        match model.get(key) {
                            Some(held) if held == record => duplicates += 1,
                            _ => {
                                added += 1;
                                model.insert(key.clone(), record.clone());
                            }
                        }
                    }
                    let stats = cache
                        .merge(&other_cache(&theirs, *kind == 3))
                        .expect("an agreeing merge succeeds");
                    prop_assert!(
                        (stats.added, stats.duplicates) == (added, duplicates),
                        "{step}: {stats:?}, expected {added} added, {duplicates} duplicates"
                    );
                }
                // An exploration of the corpus grid: every key the cache
                // cannot decode — absent, or the corrupt file record —
                // misses, and the series' batches add its record.
                4 => {
                    GridExecutor::parallel(picks.len() % 3 + 1)
                        .explore_cached(&ScenarioGrid::paper_baseline(4), &mut cache)
                        .expect("the corpus grid explores");
                    for (key, outcome) in corpus() {
                        if model.get(key).and_then(|held| decoded(held)).is_none() {
                            model.insert(key.clone(), record(key, outcome));
                        }
                    }
                }
                // A merge that disagrees on one decodable key: refused,
                // and the cache is untouched.
                _ => {
                    let held = model
                        .iter()
                        .find(|(_, record)| decoded(record).is_some())
                        .map(|(key, record)| (key.clone(), record.clone()));
                    let Some((key, held)) = held else { continue };
                    let differing = corpus()
                        .iter()
                        .map(|(_, outcome)| record(&key, outcome))
                        .find(|candidate| *candidate != held)
                        .expect("the corpus holds two outcomes");
                    let mut theirs: Model = picks
                        .iter()
                        .map(|&(k, o)| {
                            let (key, outcome) = entry(k, o);
                            (key.to_owned(), record(key, outcome))
                        })
                        .filter(|(key, _)| !model.contains_key(key))
                        .collect();
                    theirs.insert(key.clone(), differing);
                    let conflict = cache
                        .merge(&other_cache(&theirs, picks.len() % 2 == 0))
                        .expect_err("a disagreeing merge is refused");
                    prop_assert!(conflict.key == key, "{step}: conflict on {}", conflict.key);
                }
            }
            check(&cache, &model, &step)?;
        }
        std::fs::remove_file(path).ok();
    }

    /// A damaged file whose intact records repeat or misorder keys loads
    /// leniently — the last record of a repeated key wins — and saves as
    /// a strictly key-sorted file.
    #[test]
    fn a_lenient_load_of_unsorted_records_saves_a_sorted_file(
        picks in prop::collection::vec((0usize..12, 0usize..1_000), 1..24),
    ) {
        let mut model = Model::new();
        let mut records = Vec::new();
        for &(k, o) in &picks {
            let (key, outcome) = entry(k, o);
            records.push(record(key, outcome));
            model.insert(key.to_owned(), record(key, outcome));
        }
        // Records in pick order, then a torn one the count still claims;
        // the index and trailer describe nothing.
        let mut file = file_of(records.iter().map(Vec::as_slice));
        let index_at = file.len() - 8 * (records.len() + 1);
        file.truncate(index_at);
        file[24..32].copy_from_slice(&(records.len() as u64 + 1).to_le_bytes());
        file.extend_from_slice(&200u32.to_le_bytes());
        file.extend_from_slice(b"torn");
        let path = temp_path("unsorted");
        std::fs::write(&path, &file).expect("damaged file writes");
        let cache = ResultCache::load_lazy(&path).expect("lenient open");
        check(&cache, &model, "lazy")?;
        std::fs::remove_file(path).ok();
    }
}
