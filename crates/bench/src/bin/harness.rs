//! The experiment harness: regenerates every table and figure of the paper.
//!
//! Usage: `cargo run --release -p memstream-bench --bin harness [EXPERIMENT]`
//!
//! Experiments: `table1`, `breakeven`, `fig2`, `fig3a`, `fig3b`, `fig3c`,
//! `fig3x` (the C = 85 % variant mentioned in §IV-C without a figure),
//! `sim`, `ablation`, `comparison`, `format`, `sensitivity`, `frontier`,
//! `map`, `custom`, `grid`, `refine`, `shard-worker`, or `all` (default).
//! Only `custom`, `grid`, `refine` and `shard-worker` take arguments; any
//! other experiment given one exits 2.
//!
//! `harness grid [--rates N] [--threads N] [--full-csv] [--validate SECS]`
//! explores the scenario grid (devices × workloads × rates × goals) in
//! parallel and emits the Pareto frontier as CSV plus an ASCII chart. Its
//! stdout is byte-identical for every `--threads` value; run metadata goes
//! to stderr.
//!
//! `harness refine [--rates N] [--threads N] [--cache PATH]
//! [--width-bound F] [--max-rounds N] [--classic]` runs the adaptive
//! frontier-knee refinement loop over the grid and emits the knee table
//! plus the refined frontier. Stdout is byte-identical for every
//! `--threads` value *and* across cold/warm cache runs; cache accounting
//! goes to stderr.
//!
//! `refine --shards N` fans each round's new cells out across `N`
//! spawned worker **processes** — re-execs of this binary's
//! `shard-worker` subcommand — under a leased work-stealing scheduler
//! (`memstream_shard`, spec in `docs/SHARD_PROTOCOL.md`): workers pull
//! small cell-range leases from the coordinator, send each batch of
//! records back as it completes, and leases held by dead or stalled
//! workers are reclaimed and re-issued. Stdout stays byte-identical to
//! the single-process run for any shard count, lease size or failure
//! pattern that leaves one live worker; shard accounting and the
//! per-shard error ledger go to stderr, and an *incomplete* run
//! (coverage lost) fails with exit code 1. No shard run writes a file
//! of its own. `--lease-cells`/`--lease-deadline` tune the scheduler;
//! `--fault-plan SHARD:PLAN` injects deterministic worker faults for
//! tests and CI smoke runs. `grid` has no sharded path: `--threads` is
//! its one way to run in parallel.
//!
//! `harness shard-worker --shard i/N ...` is the worker side of that
//! protocol (`memstream_shard::worker_main`; not for interactive use):
//! its stdout is the machine channel — lease requests, each batch's
//! records as a length-prefixed frame, and its telemetry once it
//! retires — grants arrive on its stdin, and its stderr is plain text
//! the coordinator forwards (`docs/SHARD_PROTOCOL.md`).
//!
//! `grid` and `refine` accept `--stats` (telemetry table on stderr),
//! `--stats-json PATH` (snapshot as JSON) and `--trace PATH` (the run's
//! timeline as a Chrome/Perfetto-loadable trace, shard worker events
//! merged in); none of them ever changes the report on stdout, which is
//! rendered in the `report.render` span before any of them is written.
//! `--cache PATH` files use one binary format (`docs/CACHE_FORMAT.md`);
//! a run that adds nothing to the file leaves it untouched.

use memstream_bench::{
    ablation_best_effort, ablation_probe_ratings, breakeven_rows, comparison_rows, fig2_rows,
    fig3_rows, format_rows, render_fig2, render_fig3, rows_to_csv, sim_crosscheck_rows,
    table1_rows,
};
use memstream_core::{
    buffer_sensitivity, feasibility_map, log_spaced_rates, saving_frontier, DesignGoal,
    DesignReport, SystemModel,
};
use memstream_device::{EnergyModelled, MemsDevice};
use memstream_units::{BitRate, DataSize, Ratio, Years};

fn table1() {
    println!("== Table I: settings of the modelled device and workload ==");
    println!("{:<24} {:>12} {:>8}", "Parameter", "Setting", "Unit");
    for (p, s, u) in table1_rows() {
        println!("{p:<24} {s:>12} {u:>8}");
    }
    println!();
}

fn breakeven() {
    println!("== N1 (SIII-A.1): break-even buffers, MEMS vs 1.8\" disk ==");
    println!(
        "{:>10} {:>14} {:>14} {:>8}",
        "rate", "MEMS [KiB]", "disk [MiB]", "ratio"
    );
    for r in breakeven_rows(9) {
        println!(
            "{:>8.0} k {:>14.3} {:>14.3} {:>7.0}x",
            r.kbps, r.mems_kib, r.disk_mib, r.ratio
        );
    }
    println!("paper: MEMS 0.07-8.87 kB, disk 0.08-9.29 MB over 32-4096 kbps\n");
}

fn fig2() {
    println!("== F2a/F2b (Fig. 2): energy, capacity and lifetime vs buffer (1024 kbps) ==");
    let rows = fig2_rows(BitRate::from_kbps(1024.0), 20);
    println!(
        "{:>10} {:>11} {:>9} {:>8} {:>9} {:>9} {:>9}",
        "buf [KiB]", "Em [nJ/b]", "save [%]", "u [%]", "cap [GB]", "Lsp [y]", "Lpb [y]"
    );
    for r in &rows {
        println!(
            "{:>10.2} {:>11.2} {:>9.1} {:>8.2} {:>9.1} {:>9.2} {:>9.2}",
            r.buffer_kib,
            r.energy_nj.unwrap_or(f64::NAN),
            r.saving_pct.unwrap_or(f64::NAN),
            r.utilization_pct,
            r.effective_gb,
            r.springs_years,
            r.probes_years
        );
    }
    println!("\n{}", render_fig2(&rows));
}

fn fig3(which: &str) {
    let base = SystemModel::paper_default(BitRate::from_kbps(1024.0));
    let (title, model, goal) = match which {
        "fig3a" => (
            "F3a (Fig. 3a): goal (E=80%, C=88%, L=7), Dpb=100, Dsp=1e8",
            base,
            DesignGoal::fig3a(),
        ),
        "fig3b" => (
            "F3b (Fig. 3b): goal (E=70%, C=88%, L=7), Dpb=100, Dsp=1e8",
            base,
            DesignGoal::fig3b(),
        ),
        "fig3c" => (
            "F3c (Fig. 3c): goal (E=70%, C=88%, L=7), Dpb=200, Dsp=1e12",
            base.with_device(
                MemsDevice::table1()
                    .with_probe_write_cycles(200.0)
                    .with_spring_duty_cycles(1e12),
            ),
            DesignGoal::fig3b(),
        ),
        _ => (
            "X1 (SIV-C text): goal (E=80%, C=85%, L=7), Dpb=100, Dsp=1e8",
            base,
            DesignGoal::new()
                .energy_saving(Ratio::from_percent(80.0))
                .capacity_utilization(Ratio::from_percent(85.0))
                .lifetime(Years::new(7.0)),
        ),
    };
    println!("== {title} ==");
    let rows = fig3_rows(&model, &goal, 25);
    println!("{}", render_fig3(which, &rows));
    println!("csv:\n{}", rows_to_csv(&rows));
}

fn sim() {
    println!("== V1: simulator vs analytic model (Eq. 1) ==");
    println!(
        "{:>10} {:>11} {:>12} {:>12} {:>9}",
        "rate", "buf [KiB]", "model", "sim", "rel err"
    );
    for r in sim_crosscheck_rows(120.0) {
        println!(
            "{:>8.0} k {:>11.1} {:>9.2} nJ {:>9.2} nJ {:>8.4}",
            r.kbps, r.buffer_kib, r.model_nj, r.sim_nj, r.rel_err
        );
    }
    println!();
}

fn ablation() {
    println!("== A1: best-effort accounting policy (1024 kbps) ==");
    for r in ablation_best_effort(BitRate::from_kbps(1024.0)) {
        println!("  {:<46} {:>10.2} {}", r.label, r.value, r.unit);
    }
    println!("\n== A2: probe write-cycle rating vs feasible rate (L = 7) ==");
    for r in ablation_probe_ratings() {
        println!("  {:<46} {:>10.0} {}", r.label, r.value, r.unit);
    }
    println!();
}

fn comparison() {
    println!("== C1: MEMS vs disk, same goals (E = 70%, L = 7 years) ==");
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>14}",
        "rate", "MEMS E-buf", "MEMS Lsp-buf", "disk E-buf", "disk ss-buf"
    );
    let kib = |v: Option<f64>| {
        v.map(|k| format!("{k:.2} KiB"))
            .unwrap_or_else(|| "-".into())
    };
    for r in comparison_rows(Ratio::from_percent(70.0), 8) {
        println!(
            "{:>8.0} k {:>14} {:>14} {:>14} {:>14}",
            r.kbps,
            kib(r.mems_energy_kib),
            format!("{:.2} KiB", r.mems_springs_kib),
            kib(r.disk_energy_kib),
            format!("{:.0} KiB", r.disk_start_stop_kib),
        );
    }
    println!(
        "note: disk start-stop buffer / MEMS springs buffer = Dsp/Dss = 1000x\n\
         (SIII-C.1's 'three orders of magnitude' rating argument)\n"
    );
}

fn sensitivity() {
    println!("== S1: elasticity of the required buffer, d(ln B)/d(ln p) ==");
    for (kbps, goal, label) in [
        (
            64.0,
            DesignGoal::fig3b(),
            "64 kbps, fig3b goal (C-dominated)",
        ),
        (
            700.0,
            DesignGoal::fig3a(),
            "700 kbps, fig3a goal (E-dominated)",
        ),
        (
            1024.0,
            DesignGoal::fig3b(),
            "1024 kbps, fig3b goal (Lsp-dominated)",
        ),
    ] {
        println!("  at {label}:");
        let model = SystemModel::paper_default(BitRate::from_kbps(kbps));
        for row in buffer_sensitivity(&model, &goal, 0.05) {
            match row.elasticity {
                Some(e) => println!("    {:<24} {:>8.3}", row.parameter, e),
                None => println!("    {:<24} {:>8}", row.parameter, "cliff"),
            }
        }
    }
    println!();
}

fn map() {
    println!("== M1: feasibility map over (rate x saving), C = 88%, L = 7 ==");
    let model = SystemModel::paper_default(BitRate::from_kbps(1024.0));
    let savings: Vec<Ratio> = (8..=17)
        .map(|i| Ratio::from_percent(f64::from(i) * 5.0))
        .collect();
    let m = feasibility_map(
        &model,
        log_spaced_rates(32.0, 4096.0, 48),
        savings,
        Ratio::from_percent(88.0),
        Years::new(7.0),
    );
    println!("{}", m.render());
}

fn frontier() {
    println!("== P1 (SIV-C closing argument): saving-vs-buffer frontier ==");
    for kbps in [512.0, 1024.0, 1100.0] {
        let model = SystemModel::paper_default(BitRate::from_kbps(kbps));
        let targets: Vec<Ratio> = (8..=17)
            .map(|i| Ratio::from_percent(f64::from(i) * 5.0))
            .collect();
        let f = saving_frontier(&model, targets);
        print!("  {kbps:>6.0} kbps:");
        for p in &f.points {
            match &p.buffer {
                Ok(b) => print!(" {:.0}%:{:.1}K", p.saving.percent(), b.kibibytes()),
                Err(_) => print!(" {:.0}%:X", p.saving.percent()),
            }
        }
        println!();
        if let Some(knee) = f.knee {
            println!(
                "          knee at {knee}; max feasible {}",
                f.max_feasible_saving()
                    .map(|m| m.to_string())
                    .unwrap_or_default()
            );
        }
    }
    println!();
}

fn format_space() {
    println!("== FMT: format design space (8 KiB payload, target u = 88%) ==");
    println!("{:<18} {:>8} {:>22}", "knob", "u [%]", "min sector for 88%");
    for (label, u, min) in format_rows() {
        println!(
            "{label:<18} {u:>8.2} {:>22}",
            min.map(|k| format!("{k:.2} KiB"))
                .unwrap_or_else(|| "unreachable".into())
        );
    }
    println!();
}

/// Parses a flag value, exiting 2 with the flag named on failure.
fn parse_flag<T: std::str::FromStr>(flag: &str, raw: &str) -> T
where
    T::Err: std::fmt::Display,
{
    raw.parse().unwrap_or_else(|e| {
        eprintln!("bad value for {flag}: {e}");
        std::process::exit(2);
    })
}

/// The longest rate axis `--rates` takes: 30 M cells of the default grid.
/// `grid --full-csv` and `refine` keep every cell's outcome, about 2.2 GB
/// of them at this size; a longer axis would abort the process on a
/// failed allocation instead of exiting 2. With `--cache` they also keep
/// each cell's record: 207.9 B per cell in perfbench `refine-sharded`'s
/// file, plus a 16-byte slot. The default `grid` report keeps no outcome
/// table.
const MAX_RATES: usize = 1_000_000;

/// The flags the `grid` and `refine` subcommands share: grid shape,
/// thread count, result-cache path, device-registry era and telemetry
/// sinks. One parser, so the two subcommands' CLIs cannot drift apart.
struct SharedFlags {
    rates: usize,
    threads: usize,
    cache_path: Option<String>,
    classic: bool,
    stats: bool,
    stats_json: Option<String>,
    trace: Option<String>,
}

impl SharedFlags {
    fn new() -> Self {
        SharedFlags {
            rates: 24,
            threads: 0, // 0 = machine width
            cache_path: None,
            classic: false,
            stats: false,
            stats_json: None,
            trace: None,
        }
    }

    /// The run's event tracer: live exactly when `--trace` asked for a
    /// timeline, so an untraced run never reads the clock for events.
    fn tracer(&self) -> memstream_grid::telemetry::Tracer {
        if self.trace.is_some() {
            memstream_grid::telemetry::Tracer::enabled()
        } else {
            memstream_grid::telemetry::Tracer::disabled()
        }
    }

    /// Consumes `flag` when it is a shared one; `false` hands it to the
    /// subcommand's own arms.
    fn consume(&mut self, flag: &str, value: &mut dyn FnMut() -> String) -> bool {
        match flag {
            "--rates" => self.rates = parse_flag(flag, &value()),
            "--threads" => self.threads = parse_flag(flag, &value()),
            "--cache" => self.cache_path = Some(value()),
            "--classic" => self.classic = true,
            "--stats" => self.stats = true,
            "--stats-json" => self.stats_json = Some(value()),
            "--trace" => self.trace = Some(value()),
            _ => return false,
        }
        true
    }

    /// Emits the run's telemetry per `--stats`/`--stats-json`: the table
    /// to stderr (never stdout — the determinism contract), the JSON to
    /// the requested path. Failing to write an explicitly requested
    /// artifact is fatal: exit 2 with the path and OS error attributed.
    fn emit_stats(&self, metrics: &memstream_grid::Metrics) {
        let snapshot = metrics.snapshot();
        if self.stats {
            eprint!("{}", snapshot.render_table());
        }
        if let Some(path) = &self.stats_json {
            if let Err(e) = std::fs::write(path, snapshot.to_json()) {
                eprintln!("stats-json write error: {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Writes the run's timeline per `--trace`: the coordinator's own
    /// events merged with any shard workers' trace fragments, as one
    /// Chrome/Perfetto-loadable JSON document. Same failure contract as
    /// `--stats-json`: an unwritable explicitly requested artifact is
    /// fatal, exit 2 with the path and OS error attributed.
    fn emit_trace(
        &self,
        tracer: &memstream_grid::telemetry::Tracer,
        workers: Vec<memstream_grid::telemetry::TraceSnapshot>,
    ) {
        let Some(path) = &self.trace else {
            return;
        };
        let mut snapshot = tracer.snapshot();
        for fragment in workers {
            snapshot.merge(fragment);
        }
        if let Err(e) = std::fs::write(path, snapshot.to_chrome_json()) {
            eprintln!("trace write error: {path}: {e}");
            std::process::exit(2);
        }
    }

    /// Validates cross-flag constraints, exiting 2 on violation.
    fn validated(self) -> Self {
        if self.rates < 2 {
            eprintln!("--rates must be at least 2");
            std::process::exit(2);
        }
        if self.rates > MAX_RATES {
            eprintln!("--rates must be at most {MAX_RATES}");
            std::process::exit(2);
        }
        self
    }

    /// The wire-encodable recipe for the grid these flags select.
    fn recipe(&self) -> memstream_shard::GridRecipe {
        memstream_shard::GridRecipe::reference(self.classic, self.rates)
    }
}

/// Prints one fan-out's shard accounting — worker lines, forwarded
/// worker stderr and the error ledger — to stderr (never stdout: the
/// determinism contract).
fn report_shard_run(run: &memstream_shard::ShardRun) {
    if run.workers_spawned == 0 {
        eprintln!(
            "shards: cache fully warm ({} cells), no workers spawned",
            run.cached
        );
    } else {
        eprintln!(
            "shards: {} workers over {} unique cells ({} cached, {} fanned out)",
            run.workers_spawned, run.unique_cells, run.cached, run.fanned_out
        );
        eprintln!(
            "  leases: {} chunks, {} issued, {} reclaimed",
            run.lease_chunks, run.leases_issued, run.leases_reclaimed
        );
    }
    for worker in &run.workers {
        let merged = worker.merged.map_or_else(
            || "not merged".to_owned(),
            |m| format!("merged {} new, {} duplicate", m.added, m.duplicates),
        );
        eprintln!(
            "  shard {}: {} leases ({} cells, {} flushed); {}",
            worker.shard, worker.leases, worker.cells, worker.flushed, merged
        );
        for line in worker.stderr.lines() {
            eprintln!("  [shard {} stderr] {}", worker.shard, line);
        }
    }
    for failure in &run.failures {
        eprintln!("  shard ledger: {failure}");
    }
}

/// Opens the result cache at `path` through `executor` — inside the
/// `cache.load` span, reporting into its metrics, the records read and
/// checked on its threads — and exits 2 on I/O errors (shared by the
/// `grid` and `refine` subcommands). Lazy: the file is indexed, not
/// decoded — warm planning probes the index and only looked-up records
/// are ever decoded (`cache.records_decoded`).
fn load_cache(executor: &memstream_grid::GridExecutor, path: &str) -> memstream_grid::ResultCache {
    executor.open_cache(path).unwrap_or_else(|e| {
        eprintln!("cache load error: {e}");
        std::process::exit(2);
    })
}

/// Saves `cache` to `path`, exiting 2 on I/O errors. A cache that gained
/// nothing since it was opened from `path` writes nothing.
fn save_cache(cache: &memstream_grid::ResultCache, path: &str) {
    cache
        .save_as(path, memstream_grid::CacheFormat::default())
        .unwrap_or_else(|e| {
            eprintln!("cache save error: {e}");
            std::process::exit(2);
        });
}

/// What `harness grid` explored: the summary that its default report
/// reads, or the results with every cell's outcome for `--full-csv`.
enum Explored {
    Summary(memstream_grid::GridSummary),
    Table(memstream_grid::GridResults),
}

/// `harness grid [--rates N] [--threads N] [--full-csv] [--validate SECS]
/// [--cache PATH] [--classic]` — the parallel scenario-grid exploration
/// (see module docs). `--cache` loads/saves evaluated cells keyed by
/// scenario content, so re-runs skip already-explored cells without
/// changing a single output byte; `--classic` restricts the registry to
/// the paper's four devices (no flash).
fn grid(args: &[String]) {
    use memstream_grid::{report, GridExecutor};

    let mut shared = SharedFlags::new();
    let mut full_csv = false;
    let mut validate: Option<f64> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        if shared.consume(flag, &mut value) {
            continue;
        }
        match flag.as_str() {
            "--full-csv" => full_csv = true,
            "--validate" => validate = Some(parse_flag(flag, &value())),
            other => {
                eprintln!(
                    "unknown flag `{other}`; try --rates, --threads, --full-csv, \
                     --validate, --cache, --classic, --stats, --stats-json, --trace"
                );
                std::process::exit(2);
            }
        }
    }
    let shared = shared.validated();
    let cache_path = shared.cache_path.clone();
    // The simulator clock counts `u64` nanoseconds (`SimTime`).
    let clock_limit_s = u64::MAX as f64 / 1e9;
    if validate.is_some_and(|seconds| !(seconds > 0.0 && seconds <= clock_limit_s)) {
        eprintln!(
            "--validate must be finite, positive and at most {clock_limit_s:.3e} s \
             (the simulator clock)"
        );
        std::process::exit(2);
    }

    // One registry for the whole run: the executor and the cache both
    // report into it. Telemetry writes only to stderr and requested
    // files, so stdout bytes are untouched whether or not anyone asked
    // for stats or a trace.
    let tracer = shared.tracer();
    let metrics = memstream_grid::Metrics::enabled_with_tracer(&tracer);
    let spec = shared.recipe().build();
    let executor = GridExecutor::parallel(shared.threads).with_metrics(&metrics);
    eprintln!(
        "exploring {} cells on {} worker thread(s)...",
        spec.len(),
        executor.threads()
    );
    let mut cache = cache_path
        .as_deref()
        .map(|path| load_cache(&executor, path));
    // Only `--full-csv` prints every cell's outcome, so only it keeps one.
    let explored = if full_csv {
        match cache.as_mut() {
            Some(cache) => executor.explore_cached(&spec, cache),
            None => executor.explore(&spec),
        }
        .map(Explored::Table)
    } else {
        executor
            .explore_summary(&spec, cache.as_mut())
            .map(Explored::Summary)
    }
    .unwrap_or_else(|e| {
        eprintln!("grid error: {e}");
        std::process::exit(2);
    });
    if let (Some(cache), Some(path)) = (&cache, &cache_path) {
        // The accounting line is driven from the telemetry counters
        // (attached at load, so they equal the cache's own tallies) —
        // one source for stderr and `--stats-json`.
        let snapshot = metrics.snapshot();
        eprintln!(
            "cache: {} hits, {} misses ({} entries saved)",
            snapshot.counter("cache.hits").unwrap_or(0),
            snapshot.counter("cache.misses").unwrap_or(0),
            cache.len()
        );
        save_cache(cache, path);
    }
    // The cache holds the whole file: free it before rendering.
    drop(cache);

    let stdout = {
        let _render = metrics.span("report.render").start();
        match &explored {
            Explored::Summary(summary) => report::summary_stdout(summary),
            Explored::Table(results) => report::grid_stdout(results, true),
        }
    };
    shared.emit_stats(&metrics);
    shared.emit_trace(&tracer, Vec::new());
    print!("{stdout}");
    if let Some(seconds) = validate {
        let summary = match &explored {
            Explored::Summary(summary) => summary,
            Explored::Table(results) => results,
        };
        let validation = memstream_grid::validate_frontier(summary, seconds);
        println!(
            "sim validation: {} of {} frontier cells simulated ({} skipped)",
            validation.rows.len(),
            validation.frontier_cells,
            validation.skips.len()
        );
        for skip in &validation.skips {
            println!(
                "  skipped cell {} ({}): {}",
                skip.cell.index, skip.device, skip.reason
            );
        }
        println!(
            "sim validation csv:\n{}",
            report::validation_csv(&validation.rows)
        );
    }
}

/// `harness refine [--rates N] [--threads N] [--cache PATH]
/// [--width-bound F] [--max-rounds N] [--classic] [--shards N]
/// [--lease-cells N] [--lease-deadline SECS] [--fault-plan SHARD:PLAN]`
/// — the adaptive refinement loop (see module docs). `--width-bound` is
/// the relative interval width a knee must be localised to (default
/// 0.01 = 1 %); `--cache` makes re-runs evaluate nothing while
/// reproducing stdout byte-for-byte; `--shards` fans each round's new
/// rates out across worker processes under the lease scheduler
/// (`--lease-cells`/`--lease-deadline` tune the chunking and the stall
/// watchdog; `--fault-plan` injects deterministic worker misbehaviour,
/// the test/CI surface).
fn refine(args: &[String]) {
    use memstream_grid::GridExecutor;
    use memstream_refine::{report, RefineConfig, RefinementEngine};

    let mut shared = SharedFlags::new();
    let mut width_bound = 0.01f64;
    let mut max_rounds = 12usize;
    let mut shards: Option<usize> = None;
    let mut lease_cells = 0usize; // 0 = auto: ~LEASE_CHUNKS_PER_WORKER chunks each
    let mut lease_deadline = 30.0f64;
    let mut fault_plans: Vec<(usize, memstream_shard::FaultPlan)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        if shared.consume(flag, &mut value) {
            continue;
        }
        match flag.as_str() {
            "--width-bound" => width_bound = parse_flag(flag, &value()),
            "--max-rounds" => max_rounds = parse_flag(flag, &value()),
            "--shards" => shards = Some(parse_flag(flag, &value())),
            "--lease-cells" => lease_cells = parse_flag(flag, &value()),
            "--lease-deadline" => lease_deadline = parse_flag(flag, &value()),
            "--fault-plan" => {
                // `SHARD:PLAN`, repeatable — a deterministic misbehaviour
                // injected into one worker (test/CI surface; see
                // docs/SHARD_PROTOCOL.md for the plan grammar).
                let raw = value();
                let parsed = raw
                    .split_once(':')
                    .and_then(|(shard, plan)| Some((shard.parse().ok()?, plan.parse().ok()?)));
                match parsed {
                    Some(plan) => fault_plans.push(plan),
                    None => {
                        eprintln!("bad value for --fault-plan: `{raw}` is not SHARD:PLAN");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "unknown flag `{other}`; try --rates, --threads, --cache, \
                     --width-bound, --max-rounds, --classic, \
                     --shards, --lease-cells, --lease-deadline, --fault-plan, \
                     --stats, --stats-json, --trace"
                );
                std::process::exit(2);
            }
        }
    }
    let shared = shared.validated();
    let cache_path = shared.cache_path.clone();
    if shards == Some(0) {
        eprintln!("--shards must be at least 1");
        std::process::exit(2);
    }
    let lease_deadline = std::time::Duration::try_from_secs_f64(lease_deadline)
        .ok()
        .filter(|deadline| !deadline.is_zero())
        .unwrap_or_else(|| {
            eprintln!("--lease-deadline must be finite and positive");
            std::process::exit(2);
        });
    if !(width_bound.is_finite() && width_bound > 0.0) {
        eprintln!("--width-bound must be finite and positive");
        std::process::exit(2);
    }
    if max_rounds == 0 {
        eprintln!("--max-rounds must be at least 1");
        std::process::exit(2);
    }

    // One registry across engine, executor, cache and coordinator (see
    // the `grid` subcommand).
    let tracer = shared.tracer();
    let metrics = memstream_grid::Metrics::enabled_with_tracer(&tracer);
    let spec = shared.recipe().build();
    let executor = GridExecutor::parallel(shared.threads).with_metrics(&metrics);
    let engine = RefinementEngine::new(
        executor.clone(),
        RefineConfig::default()
            .with_width_bound(width_bound)
            .with_max_rounds(max_rounds),
    );
    let mut cache = cache_path
        .as_deref()
        .map(|path| load_cache(&executor, path));
    let mut worker_traces = Vec::new();
    let outcome = if let Some(shards) = shards {
        // Sharded: every round fans only its new rates out to worker
        // processes; the merged cache warms the next round. Stdout is
        // byte-identical to the single-process refinement.
        eprintln!(
            "refining {} initial cells across {} shard worker process(es)...",
            spec.len(),
            shards
        );
        // Spawn this very binary's `shard-worker` subcommand. An explicit
        // `--threads` is forwarded per worker; by default `ShardOptions`
        // divides the machine width across the local workers.
        let program = std::env::current_exe().unwrap_or_else(|e| {
            eprintln!("cannot locate the current binary for shard workers: {e}");
            std::process::exit(2);
        });
        let mut opts = memstream_shard::ShardOptions::new(program, shards)
            .with_trace(shared.trace.is_some())
            .with_lease_cells(lease_cells)
            .with_lease_deadline(lease_deadline)
            .with_metrics(&metrics);
        for (shard, plan) in fault_plans {
            opts = opts.with_fault_plan(shard, plan);
        }
        if shared.threads != 0 {
            opts = opts.with_worker_threads(shared.threads);
        }
        let mut explorer =
            memstream_shard::ShardedRoundExplorer::new(shared.recipe(), opts, executor);
        let outcome = engine.refine_with(&spec, cache.as_mut(), &mut explorer);
        for (i, run) in explorer.rounds().iter().enumerate() {
            eprintln!("round {} shard fan-out:", i + 1);
            report_shard_run(run);
            worker_traces.extend(run.workers.iter().filter_map(|w| w.trace.clone()));
        }
        outcome.unwrap_or_else(|e| {
            // Per-shard merges are atomic, so the cache holds exactly the
            // healthy work of every completed round (plus the failed
            // round's healthy shards) — persist it so a retry runs warm.
            if let (Some(cache), Some(path)) = (&cache, &cache_path) {
                save_cache(cache, path);
                eprintln!(
                    "cache file: {} entries saved (completed work only)",
                    cache.len()
                );
            }
            eprintln!("refine error: {e}");
            std::process::exit(1);
        })
    } else {
        eprintln!(
            "refining {} initial cells on {} worker thread(s)...",
            spec.len(),
            executor.threads()
        );
        engine.refine(&spec, cache.as_mut()).unwrap_or_else(|e| {
            eprintln!("refine error: {e}");
            std::process::exit(2);
        })
    };
    // Per-round lines render from the report; the total line renders
    // from the `refine.hits`/`refine.misses` telemetry counters (same
    // format, same numbers — the engine tallies both from the round
    // records), so stderr accounting and `--stats-json` cannot drift.
    eprint!("{}", report::cache_rounds(&outcome.report));
    let snapshot = metrics.snapshot();
    eprint!(
        "{}",
        report::cache_total_line(
            snapshot.counter("refine.hits").unwrap_or(0),
            snapshot.counter("refine.misses").unwrap_or(0),
        )
    );
    if let (Some(cache), Some(path)) = (&cache, &cache_path) {
        save_cache(cache, path);
        eprintln!("cache file: {} entries saved", cache.len());
    }
    let stdout = {
        let _render = metrics.span("report.render").start();
        report::refine_stdout(&outcome)
    };
    shared.emit_stats(&metrics);
    shared.emit_trace(&tracer, worker_traces);
    print!("{stdout}");
}

/// `harness custom --rate 1024kbps [--buffer 20KiB] [--saving 70%]
/// [--capacity 88%] [--lifetime 7y]` — full report for one operating point.
fn custom(args: &[String]) {
    let mut rate = BitRate::from_kbps(1024.0);
    let mut buffer: Option<DataSize> = None;
    let mut goal = DesignGoal::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        });
        let fail = |e: &dyn std::fmt::Display| -> ! {
            eprintln!("bad value for {flag}: {e}");
            std::process::exit(2);
        };
        match flag.as_str() {
            "--rate" => rate = value.parse().unwrap_or_else(|e| fail(&e)),
            "--buffer" => buffer = Some(value.parse().unwrap_or_else(|e| fail(&e))),
            "--saving" => {
                goal = goal.energy_saving(value.parse().unwrap_or_else(|e| fail(&e)));
            }
            "--capacity" => {
                goal = goal.capacity_utilization(value.parse().unwrap_or_else(|e| fail(&e)));
            }
            "--lifetime" => goal = goal.lifetime(value.parse().unwrap_or_else(|e| fail(&e))),
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    // The device `SystemModel::paper_default` models: a stream must leave
    // the media rate room to refill the buffer, and a buffer must fit.
    let device = MemsDevice::table1();
    if !(rate.bits_per_second() > 0.0 && rate < device.media_rate()) {
        eprintln!(
            "--rate must be positive and below the media rate ({})",
            device.media_rate()
        );
        std::process::exit(2);
    }
    if buffer.is_some_and(|b| b > device.capacity()) {
        eprintln!(
            "--buffer must be at most the device capacity ({})",
            device.capacity()
        );
        std::process::exit(2);
    }
    let model = SystemModel::paper_default(rate);
    // Eq. (5) solved for the buffer, `L · T · rs / Dsp`, as the lifetime
    // model computes it: it must be a size the model can represent.
    if goal.lifetime_target().is_some_and(|lifetime| {
        !(lifetime.get() * model.workload().bits_per_year() / device.spring_duty_cycles())
            .is_finite()
    }) {
        eprintln!("--lifetime must leave the springs requirement at {rate} a finite size");
        std::process::exit(2);
    }
    let goal_opt = (!goal.is_empty()).then_some(goal);
    print!("{}", DesignReport::build(&model, buffer, goal_opt.as_ref()));
}

fn main() {
    let mut args = std::env::args().skip(1);
    let experiment = args.next().unwrap_or_else(|| "all".to_owned());
    // Everything after the experiment, without cargo's `--` separator.
    let rest: Vec<String> = args.filter(|a| a != "--").collect();
    let run: Box<dyn Fn()> = match experiment.as_str() {
        "custom" => return custom(&rest),
        "grid" => return grid(&rest),
        "refine" => return refine(&rest),
        "shard-worker" => std::process::exit(memstream_shard::worker_main(&rest)),
        "table1" => Box::new(table1),
        "breakeven" => Box::new(breakeven),
        "fig2" | "fig2a" | "fig2b" => Box::new(fig2),
        "fig3a" | "fig3b" | "fig3c" | "fig3x" => Box::new(|| fig3(&experiment)),
        "sim" => Box::new(sim),
        "ablation" => Box::new(ablation),
        "comparison" => Box::new(comparison),
        "format" => Box::new(format_space),
        "sensitivity" => Box::new(sensitivity),
        "frontier" => Box::new(frontier),
        "map" => Box::new(map),
        "all" => Box::new(|| {
            table1();
            breakeven();
            fig2();
            fig3("fig3a");
            fig3("fig3b");
            fig3("fig3c");
            fig3("fig3x");
            sim();
            ablation();
            comparison();
            format_space();
            sensitivity();
            frontier();
            map();
        }),
        other => {
            eprintln!(
                "unknown experiment `{other}`; try table1, breakeven, fig2, \
                 fig3a, fig3b, fig3c, fig3x, sim, ablation, comparison, format, \
                 sensitivity, frontier, map, custom, grid, refine, shard-worker, \
                 all"
            );
            std::process::exit(2);
        }
    };
    if let Some(first) = rest.first() {
        eprintln!("`{experiment}` takes no arguments; got `{first}`");
        std::process::exit(2);
    }
    run();
}
