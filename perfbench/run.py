#!/usr/bin/env python3
"""Outside-in benchmark of the `harness` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the release `harness` binary from the checkout this file sits in,
prepares the workload, then runs it as a subprocess again and again for
S seconds. Every invocation's stdout is checked byte for byte against a
reference taken from a single-process, uncached `--threads 1` run of the
same grid or refinement.

With `--trace 0` the result holds the end-to-end metrics (tracing off).
With `--trace 1` it holds the per-layer metrics: the same CLI runs are
interleaved with a traced replay (`perfbench/replay`), which calls the
CLI's public functions in-process with its own timers and must reproduce
the CLI's stdout byte for byte, and with runs that time process start-up
and the `--stats-json` overhead.

Human-readable lines go first; the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Which layers each
workload loads or bypasses, and which end-to-end metric each layer
metric should move, are in `perfbench/layers.json`.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"
GOLDEN = ROOT / "crates/grid/tests/golden/grid_mems_disk_r24.stdout"

# Rate-axis length for each workload: the base, moved by the seed within
# +/- window. Every length in refine-sharded's window refines in 3 rounds.
WORKLOADS = {
    "grid-uncached": {"command": "grid", "rates": 4000, "window": 20, "threads": 2,
                      "shards": None, "cache": None},
    "grid-warm": {"command": "grid", "rates": 1000, "window": 5, "threads": 2,
                  "shards": None, "cache": "warm"},
    "refine-sharded": {"command": "refine", "rates": 200, "window": 2, "threads": 1,
                       "shards": 2, "cache": "fresh"},
}
SETUP_REPEATS = 5
# What the calibration kernel (`perfbench/replay/src/bin/calibrate.rs`)
# takes on an unloaded 2-vCPU Xeon at 2.1 GHz. A shared host slows every
# CPU-bound run by up to 70 % for minutes at a time; a timed run's
# CPU-busy time is scaled by NOMINAL_CALIBRATION_S over the kernel's
# time measured just before it.
NOMINAL_CALIBRATION_S = 0.035
MIN_SAMPLES = 3
INVOCATION_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 850


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Invocation:
    """One finished subprocess: exit code, wall and CPU seconds, peak RSS."""

    def __init__(self, args, stdout_path, stderr_path, env):
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=env,
                                    start_new_session=True)
            # A hung run (say, a stalled shard fan-out) is killed with its
            # whole process group, workers included, and counts as failed.
            timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg,
                                    (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        # Reaped here, so Popen must not wait for it again.
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        # wait4 reports the child together with the children it reaped.
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout_path = stdout_path
        self.stderr = Path(stderr_path).read_text(errors="replace")


def median(values):
    return statistics.median(values) if values else 0.0


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def cargo_build(args, target_dir):
    """Builds with cargo; returns {name: (path, profile)} of the executables."""
    cmd = ["cargo", "build", "--release", "--offline",
           "--message-format=json-render-diagnostics", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"build timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        die(f"build failed: {' '.join(cmd)}")
    built = {}
    for line in done.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            profile = msg["profile"]
            if profile["debug_assertions"] or profile["opt_level"] == "0":
                die(f"refusing a debug build of {msg['executable']}: {profile}")
            built[Path(msg["executable"]).name] = (msg["executable"], profile)
    if not built:
        die(f"no executable built by: {' '.join(cmd)}")
    return built


def at_nominal_speed(wall_s, cpu_s, calibration_s):
    """`wall_s` with its CPU-busy share (cpu/wall, at most 1) scaled to the
    nominal machine speed; waiting (sleeps, timers) is left as measured."""
    busy = min(1.0, cpu_s / wall_s)
    return wall_s * (1.0 - busy + busy * NOMINAL_CALIBRATION_S / calibration_s)


def provenance(profile):
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    # The checkout may not be a git repository: a digest of the sources
    # identifies the build either way.
    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock",
               *sorted((ROOT / "crates").rglob("*.rs")),
               *sorted((ROOT / "crates").rglob("Cargo.toml"))]
    for path in sources:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "profile": f"release opt-level={profile['opt_level']} "
                       f"debug-assertions={profile['debug_assertions']}",
            "nproc": len(os.sched_getaffinity(0))}


class Bench:
    def __init__(self, name, seed, tools):
        self.spec = WORKLOADS[name]
        self.rng = random.Random(seed)
        spec = self.spec
        self.rates = spec["rates"] + self.rng.randint(-spec["window"], spec["window"])
        self.harness = tools["harness"]
        self.replay = tools["perfbench-replay"]
        self.calibrate = tools["calibrate"]
        self.dir = WORK / name
        self.cache = self.dir / "grid.cache" if spec["cache"] else None
        self.tmp = self.dir / "tmp"
        # Shard workers keep their scratch under TMPDIR: keep it here.
        self.env = dict(os.environ, TMPDIR=str(self.tmp))
        self.reference = None
        self.warm_hash = None
        self.attempted = 0
        self.failures = []

    def flags(self):
        spec = self.spec
        flags = [spec["command"], "--rates", str(self.rates)]
        if spec["shards"]:
            flags += ["--shards", str(spec["shards"])]
        flags += ["--threads", str(spec["threads"])]
        if self.cache:
            flags += ["--cache", str(self.cache)]
        return flags

    def run(self, args, tag):
        return Invocation(args, self.dir / f"{tag}.stdout", self.dir / f"{tag}.stderr",
                          self.env)

    def reset(self):
        """Removes the state an invocation may leave behind, for a workload
        that must start from no cache file."""
        if self.spec["cache"] == "fresh":
            self.cache.unlink(missing_ok=True)
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)

    def speed(self):
        """Seconds the calibration kernel takes right now."""
        return Invocation([self.calibrate], os.devnull, self.dir / "calibrate.stderr",
                          self.env).wall_s

    def setup_once(self):
        """Takes the reference stdout and, for grid-warm, builds the warm
        file; returns (reference, CPU seconds of the runs)."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.reset()
        ref = self.run([self.harness, self.spec["command"], "--rates", str(self.rates),
                        "--threads", "1"], "reference")
        if ref.code != 0:
            die(f"reference run exited {ref.code}: {ref.stderr.strip()[-500:]}")
        reference = Path(ref.stdout_path).read_bytes()
        cpu_s = ref.cpu_s
        if self.spec["cache"] == "warm":
            cold = self.run([self.harness, *self.flags()], "cold")
            if cold.code != 0 or Path(cold.stdout_path).read_bytes() != reference:
                die("the cold run that builds the warm cache file failed")
            self.warm_hash = sha256(self.cache)
            cpu_s += cold.cpu_s
        return reference, cpu_s

    def setup(self):
        """Prepares the workload SETUP_REPEATS times; returns the median
        seconds at nominal speed."""
        times = []
        for _ in range(SETUP_REPEATS):
            calibration_s = self.speed()
            start = time.perf_counter()
            reference, cpu_s = self.setup_once()
            times.append(at_nominal_speed(time.perf_counter() - start, cpu_s, calibration_s))
            if self.reference is not None and reference != self.reference:
                die("reference stdout differs between set-up repeats")
            self.reference = reference
        return median(times)

    def record(self, tag, problems):
        """Counts one invocation, failed when it has problems."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{tag}: {'; '.join(problems)}")

    def check(self, inv, tag, problems=()):
        """Counts one workload invocation; returns whether it was correct."""
        problems = list(problems)
        if inv.code != 0:
            problems.append(f"exit {inv.code}")
        elif Path(inv.stdout_path).read_bytes() != self.reference:
            problems.append("stdout differs from the reference")
        if self.spec["cache"] == "warm" and sha256(self.cache) != self.warm_hash:
            problems.append("warm cache file changed")
        reclaimed = sum(int(n) for n in re.findall(r"(\d+) reclaimed", inv.stderr))
        if reclaimed or "shard ledger:" in inv.stderr:
            problems.append(f"shard fault path taken ({reclaimed} leases reclaimed)")
        self.record(tag, problems)
        return not problems

    def cli(self, extra=()):
        self.reset()
        calibration_s = self.speed()
        inv = self.run([self.harness, *self.flags(), *extra], "cli")
        inv.calibration_s = calibration_s
        inv.nominal_s = at_nominal_speed(inv.wall_s, inv.cpu_s, calibration_s)
        self.check(inv, "cli")
        return inv

    def cache_bytes_per_cell(self, inv):
        saved = re.findall(r"(\d+) entries saved", inv.stderr)
        if not self.cache or not saved or not self.cache.exists():
            return None
        return self.cache.stat().st_size / int(saved[-1])

    def replay_once(self):
        self.reset()
        args = [self.replay, *self.flags(), "--stdout", str(self.dir / "replay.stdout")]
        if self.spec["shards"]:
            args += ["--harness", self.harness]
        inv = Invocation(args, self.dir / "replay.json", self.dir / "replay.stderr", self.env)
        layers, problems = {}, []
        if inv.code == 0:
            layers = json.loads(Path(inv.stdout_path).read_text())
            inv.stdout_path = self.dir / "replay.stdout"
            if self.spec["cache"] == "warm" and layers["cache.misses"]:
                problems.append("cache misses on the warm file")
            if self.spec["shards"] and (layers["shard.leases_reclaimed"]
                                        or layers["shard.failures"]):
                problems.append("shard leases reclaimed or workers failed")
        return inv, layers if self.check(inv, "replay", problems) else {}


def end_to_end(bench, seconds, setup_s):
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) < MIN_SAMPLES:
        samples.append(bench.cli())
    walls = [s.wall_s for s in samples]
    wall_s = median([s.nominal_s for s in samples])
    per_cell = bench.cache_bytes_per_cell(samples[-1])
    print(f"wall_s         {wall_s:.4f} s   median of {len(walls)} invocations at nominal "
          f"speed; as measured {median(walls):.4f} (min {min(walls):.4f}, max {max(walls):.4f}), "
          f"calibration {median([s.calibration_s for s in samples]):.4f} s "
          f"(nominal {NOMINAL_CALIBRATION_S})")
    print(f"peak_rss_mb    {median([s.rss_mb for s in samples]):.1f} MB  "
          "median of per-invocation maxima")
    print(f"setup_s        {setup_s:.4f} s   median of {SETUP_REPEATS} set-ups at nominal speed")
    print(f"cache_bytes_per_cell  "
          + (f"{per_cell:.1f} B/cell" if per_cell else "n/a (no cache file)"))
    print(f"error_rate     {len(bench.failures) / bench.attempted:.4f}  "
          f"({len(bench.failures)} of {bench.attempted} invocations)")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (median([s.rss_mb for s in samples]), "MB"),
    }


def per_layer(bench, seconds, names, units, moves):
    cli, stats, startup, replay_walls, replays = [], [], [], [], []
    kinds = ["cli", "stats", "replay", "startup"]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(replays) < MIN_SAMPLES:
        # The seed orders the four kinds of invocation in every round.
        bench.rng.shuffle(kinds)
        for kind in kinds:
            if kind == "cli":
                cli.append(bench.cli())
            elif kind == "stats":
                stats.append(bench.cli(["--stats-json", str(bench.dir / "stats.json")]).wall_s)
            elif kind == "startup":
                inv = bench.run([bench.harness, "table1"], "startup")
                bench.record("startup", [f"exit {inv.code}"] if inv.code else [])
                startup.append(inv.wall_s)
            else:
                inv, layers = bench.replay_once()
                if layers:
                    replay_walls.append(inv.wall_s)
                    replays.append(layers)
    if not replays:
        die("no replay succeeded: " + "; ".join(bench.failures[:3]))
    # A layer the workload never enters is absent from the replay: 0.
    values = {name: 0.0 for name in names}
    values.update({key: median([r[key] for r in replays]) for key in replays[0]})
    wall = median([c.wall_s for c in cli])
    values["process.startup_s"] = median(startup)
    values["process.cpu_s"] = median([c.cpu_s for c in cli])
    values["process.unattributed_s"] = (wall - values["process.startup_s"]
                                        - values["replay.layers_s"])
    values["process.unattributed_share"] = values["process.unattributed_s"] / wall
    values["process.trace_overhead_s"] = median(replay_walls) - wall
    values["telemetry.stats_overhead_s"] = median(stats) - wall

    print(f"wall_s {wall:.4f} s over {len(cli)} CLI invocations; "
          f"{len(replays)} traced replays reproduced stdout byte for byte")
    breakdown = [("process.startup_s", values["process.startup_s"]),
                 ("grid.spec_s", values["grid.spec_s"]),
                 ("cache.load_s", values["cache.load_s"])]
    if bench.spec["shards"]:
        idle = values["shard.idle_s"]
        inner = ["shard.spawn_s", "shard.wait_s", "shard.merge_s", "grid.explore_s"]
        breakdown += [(k, values[k]) for k in ["shard.idle_s", *inner]]
        rest = values["refine.refine_s"] - idle - sum(values[k] for k in inner)
        breakdown.append(("refine (rest of the rounds)", rest))
    else:
        breakdown.append(("grid.explore_s", values["grid.explore_s"]))
    breakdown += [("cache.save_s", values["cache.save_s"]),
                  ("report.render_s", values["report.render_s"]),
                  ("process.unattributed_s", values["process.unattributed_s"])]
    print("layer breakdown of wall_s (medians):")
    for name, secs in breakdown:
        print(f"  {name:30s} {secs:9.4f} s  {100 * secs / wall:6.1f} %")
    largest = max(breakdown, key=lambda item: item[1])
    print(f"largest layer: {largest[0]}")
    print(f"{'metric':30s} {'value':>14s} {'unit':6s} should move")
    for name in names:
        print(f"  {name:28s} {values[name]:14.6g} {units[name]:6s} {moves[name]['moves']}")
    return {name: (values[name], units[name]) for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates/bench").is_dir():
        die(f"{ROOT} is not a memstream checkout (no Cargo.toml or crates/bench)")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    names = [m["name"] for m in declared["per_layer"]]
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    missing = [n for n in names if n not in layers["per_layer"]]
    if missing:
        die(f"layers.json has no entry for {missing}")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    built = cargo_build(["-p", "memstream-bench", "--bin", "harness"], target)
    built.update(cargo_build(["--manifest-path", str(BENCH_DIR / "replay/Cargo.toml")],
                             target))
    tools = {name: path for name, (path, _) in built.items()}

    bench = Bench(args.workload, args.seed, tools)
    info = provenance(built["harness"][1])
    info.update(workload=args.workload, seed=args.seed, rates=bench.rates,
                threads=bench.spec["threads"], shards=bench.spec["shards"],
                trace=args.trace)
    print("provenance: " + json.dumps(info))
    print(f"workload {args.workload}: harness {' '.join(bench.flags())}")
    why = {w["name"]: w["why"] for w in declared["workloads"]}[args.workload]
    print(f"  why: {why}")
    print(f"  loads: {', '.join(layers['workloads'][args.workload]['loads'])}; "
          f"bypasses: {', '.join(layers['workloads'][args.workload]['bypasses'])}")

    try:
        # The golden fixture is checked once, before any timing.
        bench.dir.mkdir(parents=True, exist_ok=True)
        golden = bench.run([bench.harness, "grid", "--classic", "--rates", "24"], "golden")
        same = golden.code == 0 and Path(golden.stdout_path).read_bytes() == GOLDEN.read_bytes()
        bench.record("golden", [] if same else ["grid --classic --rates 24 differs from the fixture"])
        setup_s = bench.setup()
        if args.trace:
            metrics = per_layer(bench, args.seconds, names, units, layers["per_layer"])
        else:
            metrics = end_to_end(bench, args.seconds, setup_s)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for failure in bench.failures[:10]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
