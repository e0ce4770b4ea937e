//! Traced replay of one `harness grid` or `harness refine` invocation.
//!
//! ```text
//! perfbench-replay grid   --rates N --threads T [--cache PATH] --stdout OUT
//! perfbench-replay refine --rates N --threads T --shards S --cache PATH \
//!                         --harness BIN --stdout OUT
//! ```
//!
//! The replay calls the public functions the harness CLI calls, in the
//! order it calls them, with this benchmark's own timers around each
//! layer. It writes the bytes the CLI prints on stdout to `OUT`, so the
//! caller can check that the replay ran the same program, and prints one
//! JSON object of per-layer metrics on stdout: the timers above plus
//! values read from the run's telemetry `Metrics` snapshot. Sharded
//! refinement spawns its workers from `BIN`, as the CLI spawns itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use memstream_grid::telemetry::{Snapshot, Tracer};
use memstream_grid::{report as grid_report, CacheFormat, GridExecutor, Metrics, ResultCache};
use memstream_grid::{GridError, ScenarioGrid};
use memstream_refine::{report as refine_report, RefineConfig, RefinementEngine};
use memstream_refine::{RoundExploration, RoundExplorer};
use memstream_shard::{GridRecipe, ShardOptions, ShardedRoundExplorer};
use memstream_units::BitRate;

/// The flags of one replayed invocation.
struct Args {
    command: String,
    rates: usize,
    threads: usize,
    shards: Option<usize>,
    cache: Option<String>,
    harness: Option<String>,
    stdout: String,
}

fn fail(message: &str) -> ! {
    eprintln!("perfbench-replay: {message}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let command = it
        .next()
        .unwrap_or_else(|| fail("missing command (grid|refine)"));
    let mut args = Args {
        command,
        rates: 0,
        threads: 0,
        shards: None,
        cache: None,
        harness: None,
        stdout: String::new(),
    };
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("missing value for {flag}")));
        let number = || {
            value
                .parse::<usize>()
                .unwrap_or_else(|e| fail(&format!("bad value for {flag}: {e}")))
        };
        match flag.as_str() {
            "--rates" => args.rates = number(),
            "--threads" => args.threads = number(),
            "--shards" => args.shards = Some(number()),
            "--cache" => args.cache = Some(value),
            "--harness" => args.harness = Some(value),
            "--stdout" => args.stdout = value,
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    if args.rates < 2 || args.threads == 0 || args.stdout.is_empty() {
        fail("--rates (>= 2), --threads (>= 1) and --stdout are required");
    }
    args
}

/// A [`RoundExplorer`] wrapper timing every `explore_round` of the
/// explorer it wraps: the shard fan-out layer, measured from outside.
struct TimedExplorer<'a, X> {
    inner: &'a mut X,
    elapsed: Duration,
}

impl<X: RoundExplorer> RoundExplorer for TimedExplorer<'_, X> {
    type Error = X::Error;

    fn explore_round(
        &mut self,
        grid: &ScenarioGrid,
        appended: &[BitRate],
        cache: &mut ResultCache,
    ) -> Result<RoundExploration, X::Error> {
        let start = Instant::now();
        let round = self.inner.explore_round(grid, appended, cache);
        self.elapsed += start.elapsed();
        round
    }
}

/// Per-layer values by name, printed as one JSON object. A layer the
/// replayed command never enters reads 0.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn time(&mut self, name: &'static str, elapsed: Duration) {
        self.set(name, elapsed.as_secs_f64());
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {value:e}");
        }
        out.push('}');
        out
    }
}

/// `part / whole`, or 0 when nothing was counted.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Runs `f` once and returns its value with its wall time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

fn load_cache(path: &str) -> ResultCache {
    ResultCache::load_lazy(path).unwrap_or_else(|e| fail(&format!("cache load error: {e}")))
}

fn save_cache(cache: &ResultCache, path: &str) {
    cache
        .save_as(path, CacheFormat::default())
        .unwrap_or_else(|e| fail(&format!("cache save error: {e}")));
}

/// The grid spec the CLI builds (`reference_grid`, never `--classic`
/// here), timed together with its dedup pass.
fn spec(rates: usize, layers: &mut Layers) -> ScenarioGrid {
    let ((spec, unique), elapsed) = timed(|| {
        let spec = ScenarioGrid::paper_baseline(rates);
        let unique = spec.unique_cells().len();
        (spec, unique)
    });
    std::hint::black_box(unique);
    layers.time("grid.spec_s", elapsed);
    spec
}

/// `harness grid --rates N --threads T [--cache PATH]`.
fn grid(args: &Args, metrics: &Metrics, layers: &mut Layers) -> String {
    let spec = spec(args.rates, layers);
    let executor = GridExecutor::parallel(args.threads).with_metrics(metrics);
    eprintln!(
        "exploring {} cells on {} worker thread(s)...",
        spec.len(),
        executor.threads()
    );
    let explore_err = |e: GridError| fail(&format!("grid error: {e}"));
    let results = match &args.cache {
        Some(path) => {
            let (mut cache, load) = timed(|| load_cache(path));
            layers.time("cache.load_s", load);
            cache.set_metrics(metrics);
            let (results, explore) = timed(|| executor.explore_cached(&spec, &mut cache));
            layers.time("grid.explore_s", explore);
            let snapshot = metrics.snapshot();
            eprintln!(
                "cache: {} hits, {} misses ({} entries saved)",
                snapshot.counter("cache.hits").unwrap_or(0),
                snapshot.counter("cache.misses").unwrap_or(0),
                cache.len()
            );
            let ((), save) = timed(|| save_cache(&cache, path));
            layers.time("cache.save_s", save);
            cache_bytes_per_cell(path, &cache, layers);
            results.unwrap_or_else(explore_err)
        }
        None => {
            let (results, explore) = timed(|| executor.explore(&spec));
            layers.time("grid.explore_s", explore);
            results.unwrap_or_else(explore_err)
        }
    };
    let (stdout, render) = timed(|| grid_report::grid_stdout(&results, false));
    layers.time("report.render_s", render);
    stdout
}

/// `harness refine --rates N --threads T --shards S --cache PATH`.
fn refine(args: &Args, metrics: &Metrics, layers: &mut Layers) -> String {
    let (Some(shards), Some(path), Some(harness)) = (args.shards, &args.cache, &args.harness)
    else {
        fail("refine needs --shards, --cache and --harness");
    };
    let spec = spec(args.rates, layers);
    let executor = GridExecutor::parallel(args.threads).with_metrics(metrics);
    let engine = RefinementEngine::new(
        executor.clone(),
        RefineConfig::default()
            .with_width_bound(0.01)
            .with_max_rounds(12),
    );
    let (mut cache, load) = timed(|| load_cache(path));
    layers.time("cache.load_s", load);
    cache.set_metrics(metrics);
    eprintln!(
        "refining {} initial cells across {} shard worker process(es)...",
        spec.len(),
        shards
    );
    let opts = ShardOptions::new(harness.into(), shards)
        .with_cache_format(CacheFormat::default())
        .with_trace(false)
        .with_lease_cells(0)
        .with_lease_deadline(Duration::from_secs_f64(30.0))
        .with_worker_threads(args.threads)
        .with_metrics(metrics);
    let mut sharded =
        ShardedRoundExplorer::new(GridRecipe::reference(false, args.rates), opts, executor);
    let mut explorer = TimedExplorer {
        inner: &mut sharded,
        elapsed: Duration::ZERO,
    };
    let (outcome, refine) = timed(|| engine.refine_with(&spec, Some(&mut cache), &mut explorer));
    let fanout = explorer.elapsed;
    let outcome = outcome.unwrap_or_else(|e| fail(&format!("refine error: {e}")));
    layers.time("refine.refine_s", refine);
    layers.time("shard.fanout_s", fanout);
    eprint!("{}", refine_report::cache_rounds(&outcome.report));
    let snapshot = metrics.snapshot();
    // The executor's passes run inside the refinement rounds, so they
    // are read off its span rather than timed from outside.
    layers.set(
        "grid.explore_s",
        snapshot.span_seconds("grid.explore").unwrap_or(0.0),
    );
    eprint!(
        "{}",
        refine_report::cache_total_line(
            snapshot.counter("refine.hits").unwrap_or(0),
            snapshot.counter("refine.misses").unwrap_or(0),
        )
    );
    let ((), save) = timed(|| save_cache(&cache, path));
    layers.time("cache.save_s", save);
    cache_bytes_per_cell(path, &cache, layers);
    eprintln!("cache file: {} entries saved", cache.len());
    layers.set("refine.knees", outcome.report.knees.len() as f64);
    let (stdout, render) = timed(|| refine_report::refine_stdout(&outcome));
    layers.time("report.render_s", render);
    stdout
}

/// Bytes of the saved cache file per cell it holds.
fn cache_bytes_per_cell(path: &str, cache: &ResultCache, layers: &mut Layers) {
    let bytes = std::fs::metadata(path)
        .unwrap_or_else(|e| fail(&format!("cache file {path}: {e}")))
        .len();
    layers.set(
        "cache.bytes_per_cell",
        ratio(bytes as f64, cache.len() as f64),
    );
}

/// The per-layer values read off the run's telemetry snapshot.
fn snapshot_layers(snapshot: &Snapshot, layers: &mut Layers) {
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    let span = |name: &str| snapshot.span_seconds(name).unwrap_or(0.0);
    let quantile = |name: &str, q: fn(&memstream_grid::telemetry::HistogramSample) -> f64| {
        snapshot.histogram(name).map_or(0.0, q)
    };

    let evaluated = counter("grid.cells_evaluated");
    layers.set("grid.eval_s", span("grid.eval"));
    layers.set(
        "grid.eval_us_per_cell",
        ratio(span("grid.eval") * 1e6, evaluated),
    );
    layers.set(
        "grid.series_eval_p50_s",
        quantile("grid.series_eval", |h| h.p50_seconds()),
    );
    layers.set(
        "grid.series_eval_p99_s",
        quantile("grid.series_eval", |h| h.p99_seconds()),
    );
    layers.set("grid.assemble_s", span("grid.assemble"));
    layers.set("grid.cells_evaluated", evaluated);
    layers.set("grid.series_built", counter("grid.series_built"));
    layers.set("frontier.inserts", counter("frontier.inserts"));
    layers.set("frontier.evictions", counter("frontier.evictions"));

    let (hits, misses) = (counter("cache.hits"), counter("cache.misses"));
    let lookup_us = snapshot
        .histogram("cache.lookup")
        .map_or(0.0, |h| ratio(h.sum_nanos as f64 / 1e3, h.count as f64));
    layers.set("cache.lookup_us_per_hit", lookup_us);
    layers.set("cache.hits", hits);
    layers.set("cache.misses", misses);
    layers.set("cache.hit_ratio", ratio(hits, hits + misses));
    layers.set("cache.records_decoded", counter("cache.records_decoded"));
    layers.set("cache.index_lookups", counter("cache.index_lookups"));
    layers.set("cache.save_bytes", counter("cache.save_bytes"));
    layers.set("cache.merge_s", span("cache.merge"));
    layers.set("cache.merge_bytes", counter("cache.merge_bytes"));

    let knees = layers.get("refine.knees");
    layers.set("refine.rounds", counter("refine.rounds"));
    layers.set("refine.round_s", span("refine.round"));
    layers.set("refine.scan_s", span("refine.scan"));
    layers.set("refine.bisections", counter("refine.bisections"));
    layers.set("refine.misses", counter("refine.misses"));
    layers.set(
        "refine.cells_per_knee",
        ratio(counter("refine.misses"), knees),
    );

    let fanout = layers.get("shard.fanout_s");
    let (spawn, wait, merge) = (span("shard.spawn"), span("shard.wait"), span("shard.merge"));
    layers.set("shard.spawn_s", spawn);
    layers.set("shard.wait_s", wait);
    layers.set("shard.merge_s", merge);
    // The fan-out's remainder once spawning, collecting, merging and the
    // local assembly pass are taken out: time the coordinator spends idle.
    let idle = if fanout > 0.0 {
        fanout - spawn - wait - merge - span("grid.explore")
    } else {
        0.0
    };
    layers.set("shard.idle_s", idle);
    layers.set("shard.workers_spawned", counter("shard.workers_spawned"));
    layers.set("shard.leases_issued", counter("shard.leases_issued"));
    layers.set("shard.leases_reclaimed", counter("shard.leases_reclaimed"));
    layers.set("shard.failures", counter("shard.failures"));
    layers.set(
        "shard.worker_wall_p50_s",
        quantile("shard.worker_wall", |h| h.p50_seconds()),
    );
    layers.set(
        "shard.lease_wait_p99_s",
        quantile("shard.lease_wait", |h| h.p99_seconds()),
    );
}

fn main() {
    let args = parse_args();
    // The CLI always runs with a live registry and, without `--trace`, a
    // disabled tracer; the replay reads that same registry.
    let tracer = Tracer::disabled();
    let metrics = Metrics::enabled_with_tracer(&tracer);
    let mut layers = Layers::default();
    let (stdout, main_layer) = match args.command.as_str() {
        "grid" => (grid(&args, &metrics, &mut layers), "grid.explore_s"),
        "refine" => (refine(&args, &metrics, &mut layers), "refine.refine_s"),
        other => fail(&format!("unknown command `{other}`")),
    };
    // The top-level layers, which run one after another.
    let top_level = [
        "grid.spec_s",
        "cache.load_s",
        main_layer,
        "cache.save_s",
        "report.render_s",
    ];
    layers.set(
        "replay.layers_s",
        top_level.iter().map(|n| layers.get(n)).sum(),
    );
    std::fs::write(&args.stdout, &stdout)
        .unwrap_or_else(|e| fail(&format!("stdout write error: {}: {e}", args.stdout)));
    layers.set("report.stdout_bytes", stdout.len() as f64);
    snapshot_layers(&metrics.snapshot(), &mut layers);
    println!("{}", layers.to_json());
}
