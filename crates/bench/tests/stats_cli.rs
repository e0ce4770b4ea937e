//! End-to-end tests of the observability surface: `--stats` /
//! `--stats-json` must never perturb stdout, the stderr accounting lines
//! must agree with the JSON snapshot (they are two views of one tally),
//! and unwritable output paths must fail attributed.

use std::path::PathBuf;
use std::process::{Command, Output};

use memstream_grid::telemetry::json::{parse, Json};
use memstream_grid::telemetry::SNAPSHOT_SCHEMA;

const HARNESS: &str = env!("CARGO_BIN_EXE_harness");

/// A per-process temp directory (concurrent `cargo test` runs share the
/// OS temp dir; the pid keeps them apart).
fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memstream-stats-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(HARNESS)
        .args(args)
        .output()
        .expect("harness spawns")
}

fn stdout_of(args: &[&str]) -> String {
    let output = run(args);
    assert!(
        output.status.success(),
        "harness {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

fn counter(doc: &Json, name: &str) -> u64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("snapshot lacks counter {name}"))
}

#[test]
fn grid_stdout_is_byte_identical_with_stats_on_and_off_cold_and_warm() {
    let cache = temp_path("grid-stats.cache");
    let _ = std::fs::remove_file(&cache);
    let cache_str = cache.to_str().expect("utf-8 temp path");
    let json = temp_path("grid-stats.json");
    let json_str = json.to_str().expect("utf-8 temp path");

    let reference = stdout_of(&["grid", "--rates", "5"]);
    assert!(!reference.is_empty());
    // Cold with stats (also writes the cache), then warm with stats.
    for _temperature in ["cold", "warm"] {
        let stats = stdout_of(&[
            "grid",
            "--rates",
            "5",
            "--cache",
            cache_str,
            "--stats",
            "--stats-json",
            json_str,
        ]);
        assert_eq!(stats, reference, "--stats must never touch stdout");
    }
    for p in [cache, json] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn refine_stdout_is_byte_identical_with_stats_on_and_off_cold_and_warm() {
    let cache = temp_path("refine-stats.cache");
    let _ = std::fs::remove_file(&cache);
    let cache_str = cache.to_str().expect("utf-8 temp path");

    let base = ["refine", "--rates", "5", "--max-rounds", "3"];
    let reference = stdout_of(&base);
    assert!(!reference.is_empty());
    let mut with_stats: Vec<&str> = base.to_vec();
    with_stats.extend(["--cache", cache_str, "--stats"]);
    for temperature in ["cold", "warm"] {
        let stats = stdout_of(&with_stats);
        assert_eq!(
            stats, reference,
            "{temperature} --stats run must reproduce the plain stdout bytes"
        );
    }
    std::fs::remove_file(cache).unwrap();
}

#[test]
fn grid_stderr_accounting_agrees_with_the_json_snapshot() {
    let cache = temp_path("grid-equiv.cache");
    let _ = std::fs::remove_file(&cache);
    let cache_str = cache.to_str().expect("utf-8 temp path");
    let json = temp_path("grid-equiv.json");
    let json_str = json.to_str().expect("utf-8 temp path");

    // Warm run: the interesting case, where hits are nonzero.
    stdout_of(&["grid", "--rates", "5", "--cache", cache_str]);
    let output = run(&[
        "grid",
        "--rates",
        "5",
        "--cache",
        cache_str,
        "--stats-json",
        json_str,
    ]);
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);

    let doc =
        parse(&std::fs::read_to_string(&json).expect("snapshot written")).expect("snapshot parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(SNAPSHOT_SCHEMA)
    );
    let hits = counter(&doc, "cache.hits");
    let misses = counter(&doc, "cache.misses");
    assert!(hits > 0, "warm run must hit the cache");
    assert_eq!(misses, 0, "warm run must evaluate nothing");
    let line = format!("cache: {hits} hits, {misses} misses");
    assert!(
        stderr.contains(&line),
        "stderr accounting must equal the JSON counters (`{line}`):\n{stderr}"
    );
    // The final sweep keeps `inserts − evictions` of its candidates: the
    // frontier printed on stdout.
    let frontier = counter(&doc, "frontier.inserts") - counter(&doc, "frontier.evictions");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = format!("pareto frontier: {frontier} points");
    assert!(stdout.contains(&line), "`{line}` missing:\n{stdout}");
    assert_eq!(span_entries(&doc, "report.render"), 1);
    for p in [cache, json] {
        std::fs::remove_file(p).unwrap();
    }
}

/// How many times span `name` was entered, per a `--stats-json` snapshot.
fn span_entries(doc: &Json, name: &str) -> u64 {
    doc.get("spans")
        .and_then(|s| s.get(name))
        .and_then(|s| s.get("entries"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("snapshot lacks span {name}"))
}

#[test]
fn a_warm_run_opens_its_cache_in_a_span_and_skips_the_save() {
    let cache = temp_path("grid-skip.cache");
    let _ = std::fs::remove_file(&cache);
    let cache_str = cache.to_str().expect("utf-8 temp path");
    let json = temp_path("grid-skip.json");
    let json_str = json.to_str().expect("utf-8 temp path");
    let args = [
        "grid",
        "--rates",
        "5",
        "--cache",
        cache_str,
        "--stats-json",
        json_str,
    ];
    let snapshot =
        || parse(&std::fs::read_to_string(&json).expect("snapshot written")).expect("parses");

    // Cold: the file is written, not skipped.
    stdout_of(&args);
    let doc = snapshot();
    assert_eq!(span_entries(&doc, "cache.load"), 1);
    assert_eq!(counter(&doc, "cache.saves_skipped"), 0);
    assert!(counter(&doc, "cache.save_bytes") > 0);
    let before = std::fs::metadata(&cache).expect("cache written");
    let bytes = std::fs::read(&cache).expect("cache readable");

    // Warm: every cell hits, so the save writes nothing at all.
    stdout_of(&args);
    let doc = snapshot();
    assert_eq!(span_entries(&doc, "cache.load"), 1);
    assert_eq!(counter(&doc, "cache.misses"), 0);
    assert_eq!(counter(&doc, "cache.saves_skipped"), 1);
    assert_eq!(counter(&doc, "cache.save_bytes"), 0);
    let after = std::fs::metadata(&cache).expect("cache still there");
    assert_eq!(after.modified().unwrap(), before.modified().unwrap());
    assert_eq!(std::fs::read(&cache).unwrap(), bytes);
    for p in [cache, json] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn a_foreign_cache_file_is_named_and_replaced() {
    // A cache written by an older version (here a hand-written v1 text
    // file) is named on stderr, counted, and replaced by the save; the
    // run itself proceeds cold, with the cold run's stdout.
    let cache = temp_path("grid-foreign.cache");
    std::fs::write(&cache, "memstream-grid-cache v1\nsome-key\tU\tdetail\n").unwrap();
    let cache_str = cache.to_str().expect("utf-8 temp path");
    let json = temp_path("grid-foreign.json");
    let json_str = json.to_str().expect("utf-8 temp path");

    let reference = stdout_of(&["grid", "--rates", "5"]);
    let args = [
        "grid",
        "--rates",
        "5",
        "--cache",
        cache_str,
        "--stats-json",
        json_str,
    ];
    let output = run(&args);
    assert!(output.status.success());
    assert_eq!(String::from_utf8(output.stdout).unwrap(), reference);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let notes: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("memstream-grid-cache v1"))
        .collect();
    assert_eq!(notes.len(), 1, "one line names the file:\n{stderr}");
    assert!(notes[0].contains(cache_str), "{}", notes[0]);
    let doc = parse(&std::fs::read_to_string(&json).expect("snapshot written")).expect("parses");
    assert_eq!(counter(&doc, "cache.foreign_files"), 1);
    assert!(std::fs::read(&cache)
        .unwrap()
        .starts_with(b"memstream-grid-cache v4\n"));

    // The replacement warms the next run, which names nothing.
    let output = run(&args);
    assert_eq!(String::from_utf8(output.stdout).unwrap(), reference);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(" hits, 0 misses"), "{stderr}");
    assert!(!stderr.contains("memstream-grid-cache v1"), "{stderr}");
    for p in [cache, json] {
        std::fs::remove_file(p).unwrap();
    }
}

#[cfg(unix)]
#[test]
fn a_cache_path_that_is_not_a_regular_file_exits_2_and_stays() {
    // A symlink to `/dev/null` is refused by name before it is opened,
    // instead of being read as an empty cache and replaced by the save.
    let link = temp_path("devnull.cache");
    let _ = std::fs::remove_file(&link);
    std::os::unix::fs::symlink("/dev/null", &link).unwrap();
    let link_str = link.to_str().expect("utf-8 temp path");
    for command in ["grid", "refine"] {
        let output = run(&[command, "--rates", "3", "--cache", link_str]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{command}: {stderr}");
        let reason = format!("cache load error: {link_str} is not a regular file");
        assert!(stderr.contains(&reason), "{command}: {stderr}");
        assert!(output.stdout.is_empty(), "{command} printed a report");
        let meta = std::fs::symlink_metadata(&link).unwrap();
        assert!(meta.file_type().is_symlink(), "{command} replaced the link");
    }
    std::fs::remove_file(link).unwrap();
}

#[test]
fn refine_stderr_accounting_agrees_with_the_json_snapshot() {
    let json = temp_path("refine-equiv.json");
    let json_str = json.to_str().expect("utf-8 temp path");
    let output = run(&[
        "refine",
        "--rates",
        "5",
        "--max-rounds",
        "3",
        "--stats-json",
        json_str,
    ]);
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);

    let doc =
        parse(&std::fs::read_to_string(&json).expect("snapshot written")).expect("snapshot parses");
    let hits = counter(&doc, "refine.hits");
    let misses = counter(&doc, "refine.misses");
    assert!(misses > 0, "cold refinement must evaluate cells");
    let line = format!("refine cache: {hits} hits, {misses} misses");
    assert!(
        stderr.contains(&line),
        "stderr accounting must equal the JSON counters (`{line}`):\n{stderr}"
    );
    // The per-round trajectory must sum to the same totals.
    let round_sum: u64 = stderr
        .lines()
        .filter(|l| l.starts_with("round ") && l.contains("misses"))
        .filter_map(|l| {
            l.split(", ")
                .find(|part| part.ends_with("misses"))?
                .split_whitespace()
                .next()?
                .parse::<u64>()
                .ok()
        })
        .sum();
    assert_eq!(round_sum, misses, "per-round lines must sum to the total");
    assert_eq!(span_entries(&doc, "report.render"), 1);
    std::fs::remove_file(json).unwrap();
}

#[test]
fn unwritable_stats_json_fails_attributed() {
    for subcommand in [
        vec!["grid", "--rates", "4"],
        vec!["refine", "--rates", "4", "--max-rounds", "2"],
    ] {
        let mut args = subcommand.clone();
        args.extend(["--stats-json", "/nonexistent-dir/stats.json"]);
        let output = run(&args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{subcommand:?} must exit 2 on unwritable --stats-json"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("stats-json write error: /nonexistent-dir/stats.json"),
            "failure must name the path:\n{stderr}"
        );
    }
}

#[test]
fn unwritable_trace_fails_attributed() {
    for subcommand in [
        vec!["grid", "--rates", "4"],
        vec!["refine", "--rates", "4", "--max-rounds", "2"],
    ] {
        let mut args = subcommand.clone();
        args.extend(["--trace", "/nonexistent-dir/run.trace.json"]);
        let output = run(&args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{subcommand:?} must exit 2 on unwritable --trace"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("trace write error: /nonexistent-dir/run.trace.json"),
            "failure must name the path:\n{stderr}"
        );
    }
}

/// The PR's acceptance scenario end to end: a sharded, cached, traced,
/// stats-instrumented refinement must (a) reproduce the plain run's
/// stdout byte for byte, (b) emit a Perfetto-loadable trace containing
/// balanced events from the coordinator *and* both worker processes,
/// and (c) report non-zero per-series eval-latency percentiles — which
/// can only come from the workers' histograms flowing back across the
/// process boundary, because the coordinator itself only assembles from
/// the warm union.
#[test]
fn sharded_traced_refinement_is_byte_identical_and_observable() {
    use memstream_grid::telemetry::{parse_histograms, TracePhase, TraceSnapshot};
    use std::collections::{BTreeMap, BTreeSet};

    let cache = temp_path("accept.cache");
    let _ = std::fs::remove_file(&cache);
    let trace = temp_path("accept.trace.json");
    let json = temp_path("accept.stats.json");

    let reference = stdout_of(&["refine", "--rates", "5", "--max-rounds", "2"]);
    let output = run(&[
        "refine",
        "--rates",
        "5",
        "--max-rounds",
        "2",
        "--shards",
        "2",
        "--cache",
        cache.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--stats",
        "--stats-json",
        json.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "traced sharded refine failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        reference,
        "tracing and stats must never touch stdout"
    );

    // (b) the timeline: valid Chrome JSON, events from >= 3 processes
    // (coordinator + 2 workers), every begin balanced by an end, and
    // all three subsystem categories present.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let snapshot = TraceSnapshot::from_chrome_json(&text).expect("trace parses");
    assert!(!snapshot.events.is_empty());
    let pids: BTreeSet<u32> = snapshot.events.iter().map(|e| e.pid).collect();
    assert!(
        pids.len() >= 3,
        "coordinator and both workers must contribute events, pids: {pids:?}"
    );
    for ts in snapshot.events.windows(2) {
        assert!(ts[0].ts_micros <= ts[1].ts_micros, "events must be sorted");
    }
    let mut balance: BTreeMap<&str, i64> = BTreeMap::new();
    for event in &snapshot.events {
        match event.phase {
            TracePhase::Begin => *balance.entry(event.name.as_str()).or_default() += 1,
            TracePhase::End => *balance.entry(event.name.as_str()).or_default() -= 1,
            TracePhase::Instant => {}
        }
    }
    for (name, delta) in &balance {
        assert_eq!(*delta, 0, "unbalanced begin/end for {name}");
    }
    for prefix in ["grid.", "refine.", "shard."] {
        assert!(
            balance.keys().any(|name| name.starts_with(prefix)),
            "timeline must contain {prefix}* spans, got {:?}",
            balance.keys().collect::<Vec<_>>()
        );
    }

    // (c) the stats: the workers' eval-latency histogram survived the
    // process boundary with non-zero percentiles, in the JSON and in
    // the human table.
    let stats_text = std::fs::read_to_string(&json).expect("stats written");
    let histograms = parse_histograms(&stats_text).expect("histograms parse");
    let eval = histograms
        .iter()
        .find(|h| h.name == "grid.series_eval")
        .expect("grid.series_eval histogram in the snapshot");
    assert!(eval.count > 0, "workers must have evaluated series");
    assert!(eval.p50_seconds() > 0.0, "p50 must be non-zero");
    assert!(eval.p99_seconds() >= eval.p50_seconds());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("grid.series_eval"),
        "--stats table must list the histogram:\n{stderr}"
    );

    for p in [cache, trace, json] {
        std::fs::remove_file(p).unwrap();
    }
}
