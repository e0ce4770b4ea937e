//! Property equivalences for the warm-path machinery: the lazy
//! [`CacheView`] must answer exactly like the cache its file was saved
//! from (and warm probes must not decode a record), a merge must give the
//! same bytes whichever side holds which entries and whether the target
//! is still lazily backed by its file. Each property runs over arbitrary subsets of a
//! real explored corpus, so every outcome variant the models actually
//! produce is exercised — not just hand-built fixtures.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use memstream_core::ModelError;
use memstream_grid::{
    CacheFormat, CacheView, CellOutcome, GridExecutor, Metrics, ResultCache, ScenarioGrid,
};
use proptest::prelude::*;

/// The shared entry corpus: one serial exploration of a small paper
/// grid, flattened to sorted `(key, outcome)` pairs. Built once — the
/// properties only ever *select* from it.
fn corpus() -> &'static [(String, CellOutcome)] {
    static CORPUS: OnceLock<Vec<(String, CellOutcome)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let grid = ScenarioGrid::paper_baseline(6);
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .expect("corpus grid explores");
        let mut entries: Vec<(String, CellOutcome)> = cache
            .keys()
            .map(|key| (key.to_owned(), cache.get(key).expect("listed key resolves")))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        assert!(entries.len() >= 20, "corpus is big enough to subset");
        entries
    })
}

fn temp_path(name: &str, case: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("memstream-grid-lazy-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{case}.cache"))
}

/// Resolves raw sampled indices into a deduplicated entry subset
/// (indices wrap around the corpus, so any usize is a valid pick).
fn select(picks: &[usize]) -> BTreeMap<String, CellOutcome> {
    let corpus = corpus();
    picks
        .iter()
        .map(|&pick| corpus[pick % corpus.len()].clone())
        .collect()
}

fn cache_of(entries: &BTreeMap<String, CellOutcome>) -> ResultCache {
    let mut cache = ResultCache::new();
    for (key, outcome) in entries {
        cache.insert(key.clone(), outcome.clone());
    }
    cache
}

/// A distinct tag per proptest case, so concurrent cases never share a
/// scratch file. (Wall clocks are banned in these tests' spirit of
/// determinism; a process-wide counter is enough.)
fn next_case() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CASE: AtomicU64 = AtomicU64::new(0);
    CASE.fetch_add(1, Ordering::Relaxed)
}

fn save(cache: &ResultCache, path: &PathBuf) {
    cache
        .save_as(path, CacheFormat::default())
        .expect("save cache file");
}

/// A key set shaped like real cache keys: every key shares a long
/// prefix, and the keys differ only in short numeric fields near the
/// end (a device, a rate, a goal), written as decimals so their byte
/// order is not their numeric order.
fn prefixed_keys(fields: &[(usize, usize, usize)]) -> BTreeMap<String, CellOutcome> {
    let outcome = &corpus()[0].1;
    fields
        .iter()
        .map(|&(device, rate, goal)| {
            let key =
                format!("0.4,24,365,0|mems,64,1.6,2|device-{device}|{rate}|0.7,{goal},-|dram|idle");
            (key, outcome.clone())
        })
        .collect()
}

/// The probes of `keys` (sorted): every key, something before the first
/// and after the last, something between each pair of neighbours, and
/// prefixes of keys — most of them absent.
fn probes(keys: &[&str]) -> Vec<String> {
    let mut probes = vec![String::new(), "0".to_owned(), "~".to_owned()];
    if let Some(last) = keys.last() {
        probes.push(format!("{last}~"));
    }
    for key in keys {
        probes.push((*key).to_owned());
        probes.push(format!("{key}\0"));
        for cut in [1, 2, key.len() / 2, key.len() - 1] {
            probes.push(key[..key.len().saturating_sub(cut)].to_owned());
        }
        // The same fields one step up in the last byte: between this key
        // and the next, or past the end.
        let mut bumped = key.as_bytes().to_vec();
        if let Some(byte) = bumped.last_mut().filter(|b| **b < 0x7e) {
            *byte += 1;
            probes.push(String::from_utf8(bumped).expect("ASCII key"));
        }
    }
    probes
}

/// Warm planning over a lazily opened cache file answers every probe
/// from the record index alone: not a single record is decoded.
#[test]
fn warm_probes_decode_no_records() {
    let path = temp_path("warm-probes", next_case());
    let entries: BTreeMap<String, CellOutcome> = corpus().iter().cloned().collect();
    save(&cache_of(&entries), &path);

    let metrics = Metrics::enabled();
    let mut cache = ResultCache::load_lazy(&path).expect("lazy load");
    cache.set_metrics(&metrics);
    for key in entries.keys() {
        assert!(cache.contains_key(key), "warm probe missed `{key}`");
    }
    let snapshot = metrics.snapshot();
    assert_eq!(snapshot.counter("cache.records_decoded"), Some(0));
    assert!(snapshot.counter("cache.index_lookups").unwrap_or(0) > 0);
    std::fs::remove_file(path).ok();
}

proptest! {
    /// Searching outward from any ordinal gives exactly the whole-index
    /// search's answer: for present and absent keys alike, from the first
    /// record, the last, past the end and from anywhere in between.
    #[test]
    fn find_near_answers_exactly_like_find(
        fields in prop::collection::vec((0usize..4, 1usize..100_000_000, 0usize..3), 0..48),
        starts in prop::collection::vec(0usize..1_000, 1..6),
    ) {
        let entries = prefixed_keys(&fields);
        let path = temp_path("find-near", next_case());
        save(&cache_of(&entries), &path);
        let view = CacheView::open(&path).expect("view opens");
        let keys: Vec<&str> = entries.keys().map(String::as_str).collect();
        prop_assert_eq!(view.len(), keys.len());
        let n = keys.len();
        let mut origins = vec![0, n.saturating_sub(1), n, n + 7, usize::MAX];
        origins.extend(starts.iter().map(|start| start % (n + 1)));
        for probe in probes(&keys) {
            let expected = view.find(&probe);
            prop_assert!(
                expected == keys.iter().position(|key| *key == probe),
                "find({:?}) = {:?}",
                probe,
                expected
            );
            for &near in &origins {
                let found = view.find_near(&probe, near);
                prop_assert!(
                    found == expected,
                    "find_near({:?}, {}) = {:?}, find = {:?}",
                    probe,
                    near,
                    found,
                    expected
                );
            }
        }
        std::fs::remove_file(path).ok();
    }

    /// Every lookup against the lazy view — `get`, `contains_key`, and
    /// the `load_lazy` cache built over it — answers exactly like the
    /// in-memory cache the file was saved from, for hits and misses alike.
    #[test]
    fn lazy_view_answers_match_the_saved_cache(
        picks in prop::collection::vec(0usize..1_000_000, 1..40)
    ) {
        let entries = select(&picks);
        let path = temp_path("view", next_case());
        let saved = cache_of(&entries);
        save(&saved, &path);

        let lazy = ResultCache::load_lazy(&path).expect("lazy load");
        let view = CacheView::open(&path).expect("view opens");

        prop_assert_eq!(lazy.len(), entries.len());
        prop_assert_eq!(view.len(), entries.len());
        // Probe the *whole* corpus: selected keys are hits, the rest
        // must miss identically in both readers.
        for (key, _) in corpus() {
            prop_assert_eq!(saved.get(key), view.get(key));
            prop_assert_eq!(saved.get(key), lazy.get(key));
            prop_assert_eq!(saved.contains_key(key), view.contains_key(key));
            prop_assert_eq!(saved.contains_key(key), lazy.contains_key(key));
        }
        prop_assert!(view.get("not a dedup key").is_none());
        // Memoizing lookups leave the lazy cache's answers unchanged.
        for (key, outcome) in &entries {
            let got = lazy.get(key);
            prop_assert_eq!(got.as_ref(), Some(outcome));
        }
        std::fs::remove_file(path).ok();
    }

    /// Merging is a set union: the same stats and the same saved bytes
    /// whichever cache is the target, and whether the target is an
    /// in-memory map or still lazily backed by its file.
    #[test]
    fn merge_order_is_byte_identical(
        ours in prop::collection::vec(0usize..1_000_000, 0..30),
        theirs in prop::collection::vec(0usize..1_000_000, 1..30),
    ) {
        let (ours, theirs) = (select(&ours), select(&theirs));
        let case = next_case();
        let file = temp_path("merge-file", case);
        save(&cache_of(&ours), &file);

        let mut eager = cache_of(&ours);
        let mut lazy = ResultCache::load_lazy(&file).expect("lazy load");
        let mut reversed = cache_of(&theirs);
        let eager_stats = eager.merge(&cache_of(&theirs)).expect("no conflicts");
        let lazy_stats = lazy.merge(&cache_of(&theirs)).expect("no conflicts");
        reversed.merge(&cache_of(&ours)).expect("no conflicts");
        prop_assert_eq!(eager_stats, lazy_stats);
        prop_assert_eq!(eager.len(), lazy.len());
        prop_assert_eq!(eager.len(), reversed.len());

        let paths = [
            temp_path("merge-eager", case),
            temp_path("merge-lazy", case),
            temp_path("merge-reversed", case),
        ];
        for (cache, path) in [&eager, &lazy, &reversed].into_iter().zip(&paths) {
            save(cache, path);
        }
        let reference = std::fs::read(&paths[0]).expect("read");
        for path in &paths[1..] {
            prop_assert_eq!(&std::fs::read(path).expect("read"), &reference);
        }
        for path in paths.iter().chain([&file]) {
            std::fs::remove_file(path).ok();
        }
    }

    /// A conflicting key is reported identically — same attributed key,
    /// same rendered outcomes — whether the target holds its entries in
    /// memory or still undecoded in its file, and the target is
    /// untouched either way.
    #[test]
    fn merge_into_a_lazy_target_attributes_the_same_conflict(
        ours in prop::collection::vec(0usize..1_000_000, 0..20),
        poison in 0usize..1_000_000,
    ) {
        let corpus = corpus();
        let (poison_key, genuine) = &corpus[poison % corpus.len()];
        let mut entries = select(&ours);
        entries.insert(
            poison_key.clone(),
            CellOutcome::Unmodelled(ModelError::InvalidCapability {
                capability: "utilization",
                reason: "poisoned for the conflict test".to_owned(),
            }),
        );
        prop_assume!(entries[poison_key.as_str()] != *genuine);

        let mut theirs = ResultCache::new();
        theirs.insert(poison_key.clone(), genuine.clone());

        let file = temp_path("conflict-file", next_case());
        save(&cache_of(&entries), &file);
        let mut eager = cache_of(&entries);
        let mut lazy = ResultCache::load_lazy(&file).expect("lazy load");
        let len_before = lazy.len();
        let eager_err = eager.merge(&theirs).expect_err("conflict");
        let lazy_err = lazy.merge(&theirs).expect_err("conflict");
        prop_assert_eq!(&eager_err.key, poison_key);
        prop_assert_eq!(eager_err, lazy_err);
        // A failed merge mutates nothing.
        prop_assert_eq!(lazy.len(), len_before);
        std::fs::remove_file(file).ok();
    }
}
