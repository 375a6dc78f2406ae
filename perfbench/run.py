"""Benchmark runner for mmwcache.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from `src/`.
It builds the workload's fixed input from the seed, then runs that input
repeatedly for S seconds in this one process and checks every output
outside the timed region. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

Times are calibrated. The speed of a shared machine can drift by a factor
of two within seconds to minutes, and the drift moves all CPU-bound code
nearly alike. So a fixed reference loop (`reference`) is timed before and
after every chunk of about CHUNK_S seconds of items, and each item's time
is scaled by REF_S over the mean of the two reference times: the figures
read as seconds on a machine where the loop takes REF_S. On region_pool,
whose workers run on every CPU, the loop is timed on each CPU in turn. A
change to the program moves these figures as it moves raw time, since the
loop does not call the program. The raw figures are printed and recorded
too.

With `--trace 0` the metrics are the end-to-end ones (tracing off):

- wall_s: median over passes of the time to finish the fixed input;
- setup_s: median over several set-ups of importing the program, building
  the config and generating the inputs (one in this process, the rest in
  fresh interpreters started after the timed passes), each calibrated by
  the reference loop timed in its process before and after it;
- peak_rss_mb: this process's peak RSS plus the largest child's (a pool
  worker's), read before the set-up interpreters start;
- item_p50_ms, item_p90_ms: per-item latency, the median over passes of
  each item, then the 50th and 90th percentile over items. An item is one
  game on matching_games and one `run_experiment` call elsewhere.

The share of items that raised or failed an output check (failed_frac) is
`failed / attempted`. With `--trace 1` the metrics are the per-layer ones:
untraced passes for half the time, then one pass under `tracer.Recorder`.
Span self times are raw; trace.overhead_s is the traced pass's time minus
the median untraced pass's, both calibrated.

Each run writes a record (samples, CSV sha256s, problems and, when traced,
all spans) to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, List, NamedTuple, Optional, Tuple

import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
CHUNK_S = 0.5     # seconds of items between two reference timings
REF_S = 0.04      # reference loop time, 2.0 GHz Xeon vCPU, CPython 3.11

REGION_EXPERIMENTS = ("hof_multiuser", "load_vs_users", "energy_vs_users",
                      "overhead_vs_users")
WORKLOAD_NAMES = ("region_sweep", "trajectory_sweep", "matching_games",
                  "region_pool")
POOL_THREADS = min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Size:
    region_reps: int       # reps of the region experiments, threads=1
    pool_reps: int         # reps of load_vs_users on the pool
    trajectory_reps: int   # reps of hof_vs_speed (at least 2: stderr columns)
    game_users: int        # games draw 1..game_users users
    game_sbss: int         # and 1..game_sbss SBSs
    games_per_size: int    # games kept per (users, SBSs) pair


# With threads=1, every rep of a sweep point is an independent replication
# with its own scenario, so time grows linearly with reps and the mix of
# layers is the same at 2 reps as at `reproduce`'s 200. On the pool, each
# sweep point pays one pool start whatever its reps, so load_vs_users runs
# there at the 20 reps of ROADMAP's baseline table, as does hof_vs_speed.
SIZES = {
    "default": Size(region_reps=2, pool_reps=20, trajectory_reps=20,
                    game_users=12, game_sbss=4, games_per_size=20),
    "tiny": Size(region_reps=1, pool_reps=1, trajectory_reps=2,
                 game_users=4, game_sbss=2, games_per_size=1),
}


class Item(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


class Program(NamedTuple):
    experiments: object
    matching: object
    oracle: object
    testutil: object
    config: object


def import_program() -> Program:
    """Import mmwcache from the checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mmwcache" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'mmwcache'} not found; "
                 "run from the root of a mmwcache checkout")
    sys.path.insert(0, str(src))
    from mmwcache import config, experiments, matching, oracle, testutil
    return Program(experiments, matching, oracle, testutil, config)


_FLOATS = [random.Random(5).random() for _ in range(60000)]


def reference(cpus: Optional[List[int]] = None) -> float:
    """Time a fixed loop, stdlib only so that it can run before the program
    is imported. It mixes interpreted code (float calls, tuple keys, dict
    updates) with C loops over a list (sort, map, sum): on this kind of
    machine, interpreted code slows more than the program when the machine
    slows and C loops slow less, and the mix tracks the program within a
    few per cent. The garbage collector is off meanwhile, so the program's
    heap does not change the loop's cost.

    With `cpus`, the loop is timed pinned to each of them in turn and the
    mean is returned: a pooled workload runs on all of them, and the CPUs
    of a shared machine drift apart."""
    if cpus:
        allowed = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(reference())
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.fmean(times)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    table = {}
    acc = 0.0
    for i in range(50000):
        x = math.hypot(i * 0.25, 3.0)
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0.0) + x
        acc += min(x, 10.0) if i & 1 else max(x - 1.0, 0.0)
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    for _ in range(3):
        sorted(_FLOATS)
        sum(map(math.sqrt, _FLOATS))
        [x * 2.0 for x in _FLOATS]
    elapsed = perf_counter() - start
    if gc_was_enabled:
        gc.enable()
    return elapsed


# ---------------------------------------------------------------------------
# Output checks (run outside the timed region)
# ---------------------------------------------------------------------------

def _rows_where(cols, bad) -> List[int]:
    n = len(next(iter(cols.values())))
    return [i for i in range(n) if bad(i)]


def check_experiment(result, quota: int) -> List[str]:
    cols = result.columns
    problems = [f"{result.name}.{key}: non-finite value"
                for key, values in cols.items()
                if not all(math.isfinite(v) for v in values)]
    pairs: List[Tuple[str, str]] = []   # (must be <=, than) column pairs
    if result.name == "hof_multiuser":
        pairs.append(("hof_prob_proposed", "hof_prob_conventional"))
    elif result.name == "hof_vs_speed":
        pairs.append(("hof_per_frame_cache", "hof_per_frame_nocache"))
    elif result.name == "energy_vs_users":
        for key in cols:
            if key.startswith("used_mj_"):
                pairs.append((key, "baseline_mj_" + key[len("used_mj_"):]))
            if key.startswith("savings_"):
                problems += [f"{key} row {i} outside [0, 1]" for i in
                             _rows_where(cols, lambda i: not 0.0 <= cols[key][i] <= 1.0)]
    elif result.name == "load_vs_users":
        for key in cols:
            if key.startswith("load_"):
                problems += [f"{key} row {i} outside [0, quota]" for i in
                             _rows_where(cols, lambda i: not 0.0 <= cols[key][i] <= quota)]
    elif result.name == "rate_vs_distance":
        for key in cols:
            if key.startswith("rate_los_"):
                pairs.append((key.replace("rate_los_", "rate_nlos_"), key))
            if key.startswith("rate_"):
                problems += [f"{key} row {i} not positive" for i in
                             _rows_where(cols, lambda i: not cols[key][i] > 0.0)]
    for low, high in pairs:
        problems += [f"{result.name} row {i}: {low} > {high}" for i in
                     _rows_where(cols, lambda i: cols[low][i] > cols[high][i])]
    return problems


def play_game(matching, oracle, game):
    """The body of `mmwcache verify --suite stability` for one game, calls
    as written there: `dynamic_match`, `deferred_acceptance` and
    `find_single_period_blocking` each build the preferences themselves."""
    result = matching.dynamic_match(game)
    report = oracle.scan_all_blockings(result.matching, game)
    mu, _ = matching.deferred_acceptance(game)
    pairs = matching.find_single_period_blocking(mu, game)
    return result, report, pairs


def check_game(game, output) -> List[str]:
    result, report, pairs = output
    problems = []
    try:
        result.matching.validate(game)
    except ValueError as exc:
        problems.append(f"validate: {exc}")
    if not report.stable:
        problems.append(f"blocking: {report.lines()[0]}")
    if pairs:
        problems.append(f"single-period blocking pair {pairs[0]}")
    return problems


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

def stratified_games(testutil, seed: int, size: Size) -> list:
    """Games from `random_game_instance`, the same count for every
    (users, SBSs) pair, so that seeds change the games but not their size
    mix; the first games drawn for each pair are kept."""
    import numpy as np
    rng = np.random.default_rng(seed)
    kept = {}
    games = []
    want = size.game_users * size.game_sbss * size.games_per_size
    while len(games) < want:
        game = testutil.random_game_instance(
            rng, max_mues=size.game_users, max_sbss=size.game_sbss)
        key = (len(game.mues), len(game.sbss))
        if kept.get(key, 0) < size.games_per_size:
            kept[key] = kept.get(key, 0) + 1
            games.append(game)
    return games


def build_items(prog: Program, workload: str, seed: int,
                size: Size) -> List[Item]:
    cfg = prog.config.ScenarioConfig(seed=seed)
    experiments = prog.experiments

    def experiment(name: str, reps: int, threads: int = 1) -> Item:
        return Item(name,
                    lambda: experiments.run_experiment(name, cfg, reps, threads),
                    lambda result: check_experiment(result, cfg.quota))

    if workload == "region_sweep":
        return [experiment(n, size.region_reps) for n in REGION_EXPERIMENTS]
    if workload == "trajectory_sweep":
        return [experiment("hof_vs_speed", size.trajectory_reps),
                experiment("rate_vs_distance", 1)]
    if workload == "region_pool":
        return [experiment("load_vs_users", size.pool_reps, POOL_THREADS),
                experiment("hof_vs_speed", size.trajectory_reps, POOL_THREADS)]
    matching, oracle = prog.matching, prog.oracle
    return [Item(f"game{i}", lambda g=game: play_game(matching, oracle, g),
                 lambda out, g=game: check_game(g, out))
            for i, game in enumerate(stratified_games(prog.testutil, seed, size))]


def setup(workload: str, seed: int, size: Size) -> Tuple[List[Item], float]:
    """Build the inputs; return them and the calibrated set-up time."""
    ref_before = reference()
    start = perf_counter()
    items = build_items(import_program(), workload, seed, size)
    elapsed = perf_counter() - start
    return items, elapsed * 2 * REF_S / (ref_before + reference())


def setup_in_child(args) -> float:
    """Time one set-up in a fresh interpreter (cold imports)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--size", args.size,
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Tally:
    """Passes run, their calibrated and raw timings, and the outcome of
    every item."""

    def __init__(self, n_items: int, ref_cpus: Optional[List[int]] = None):
        self.ref_cpus = ref_cpus   # passed to `reference`
        self.walls: List[float] = []
        self.raw_walls: List[float] = []
        self.refs: List[float] = []
        self.item_times: List[List[float]] = [[] for _ in range(n_items)]
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.sha256 = {}

    def run_pass(self, items: List[Item], rec=None) -> float:
        """Run every item once; the pass time is the sum of the item times,
        so each item's output check, done as soon as it returns, is not
        timed and its output is dropped before the next item runs. Items
        are timed in chunks of about CHUNK_S seconds between two reference
        timings, which calibrate the chunk's item times."""
        gc.collect()
        raw: List[float] = []
        chunk_start, chunk_s = 0, 0.0
        ref_before = reference(self.ref_cpus)
        self.refs.append(ref_before)
        for i, item in enumerate(items):
            t0 = perf_counter()
            try:
                with rec.item() if rec is not None else nullcontext():
                    output = item.run()
                problems = []
            except Exception as exc:   # counted as a failed item
                output, problems = None, [f"{type(exc).__name__}: {exc}"]
            elapsed = perf_counter() - t0
            raw.append(elapsed)
            chunk_s += elapsed
            self.attempted += 1
            problems = problems or item.check(output)
            if problems:
                self.failed += 1
                self.problems += [f"{item.label}: {p}" for p in problems]
            elif hasattr(output, "to_csv"):
                self.sha256[item.label] = hashlib.sha256(
                    output.to_csv().encode()).hexdigest()
            if chunk_s >= CHUNK_S or i == len(items) - 1:
                ref_after = reference(self.ref_cpus)
                self.refs.append(ref_after)
                scale = 2 * REF_S / (ref_before + ref_after)
                for j in range(chunk_start, i + 1):
                    self.item_times[j].append(raw[j] * scale)
                chunk_start, chunk_s, ref_before = i + 1, 0.0, ref_after
        wall = sum(times[-1] for times in self.item_times)
        self.walls.append(wall)
        self.raw_walls.append(sum(raw))
        return wall

    def run_for(self, items: List[Item], seconds: float) -> None:
        start = perf_counter()
        while True:
            self.run_pass(items)
            if perf_counter() - start >= seconds:
                return


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0   # ru_maxrss is in KiB on Linux


def end_to_end(args, items, tally: Tally, setup0: float) -> Tuple[dict, dict]:
    item_medians = [statistics.median(t) for t in tally.item_times]
    deciles = statistics.quantiles(item_medians, n=10, method="inclusive")
    rss = peak_rss_mb()
    setups = [setup0] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    return {
        "wall_s": (statistics.median(tally.walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "item_p50_ms": (deciles[4] * 1e3, "ms"),
        "item_p90_ms": (deciles[8] * 1e3, "ms"),
    }, {"setup_samples_s": setups, "items": len(items),
        "passes": len(tally.walls)}


def per_layer(items, tally: Tally, seconds: float) -> Tuple[dict, dict]:
    tally.run_for(items, seconds / 2)
    untraced = statistics.median(tally.walls)
    rec = tracer.Recorder()
    rec.install()
    try:
        traced = tally.run_pass(items, rec)
    finally:
        rec.uninstall()
    unrestored = rec.unrestored()
    tally.attempted += 1
    if unrestored:
        tally.failed += 1
        tally.problems.append(f"names not restored: {unrestored}")
    values = {}
    for name, unit in per_layer_names():
        if name == "trace.overhead_s":
            values[name] = (traced - untraced, unit)
        elif unit == "s":
            values[name] = (rec.times.get(name, 0.0), unit)
        elif unit == "ratio":
            values[name] = (rec.ratios()[name], unit)
        else:
            values[name] = (rec.counters.get(name, 0), unit)
    return values, rec.dump()


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_layer_names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, from BENCHMARK.json."""
    return [(m["name"], m["unit"]) for m in spec()["per_layer"]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="default",
                        help="input size; 'tiny' is for the self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used internally)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    size = SIZES[args.size]

    if args.setup_only:
        print(repr(setup(args.workload, args.seed, size)[1]))
        return 0

    items, setup0 = setup(args.workload, args.seed, size)
    pooled = args.workload == "region_pool"
    tally = Tally(len(items), sorted(os.sched_getaffinity(0)) if pooled else None)
    if args.trace:
        metrics, record = per_layer(items, tally, args.seconds)
    else:
        tally.run_for(items, args.seconds)
        metrics, record = end_to_end(args, items, tally, setup0)
    record.update({"workload": args.workload, "seed": args.seed,
                   "size": args.size, "trace": args.trace,
                   "pass_walls_s": tally.walls,
                   "raw_pass_walls_s": tally.raw_walls,
                   "reference_s": tally.refs, "csv_sha256": tally.sha256,
                   "problems": tally.problems})

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"failed_frac = {tally.failed}/{tally.attempted}"
          f" = {tally.failed / tally.attempted}")
    print(f"samples: {len(items)} items x {len(tally.walls)} passes")
    print(f"raw pass time: median {statistics.median(tally.raw_walls)} s; "
          f"reference loop: median {statistics.median(tally.refs)} s "
          f"(REF_S {REF_S} s)")
    for label, digest in sorted(tally.sha256.items()):
        print(f"sha256 {label}.csv {digest}")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
