"""Experiment drivers that regenerate the headline result curves at desk scale.

Six named experiments sweep speed, user count and distance axes and emit
tabular results. Every replication is fully determined by (config,
experiment, replication index), so runs are reproducible bit-for-bit;
runtimes are reported separately from the data columns. Each replication
draws one deployment and its users and evaluates it at every point of its
sweep: common random numbers, under which the points of a curve compare
the same deployments. No draw depends on the speed, so one draw serves
every speed; the users are drawn in one block, so the first u users of
the largest user count are the instance of u users, and one draw serves
every user count. The four region curves (HOF against speed, and load,
energy and overhead against the number of users) read one draw too: they
are projections of one region sweep under the key (4, rep), which
`run_experiments` runs once for all of them.

The multi-user experiments run on a "target region" extracted from a full
deployment: a focal cell plus the onward cells each user would reach, with
the two-period matching deciding between handover, coasting on cache, and
the macro fallback.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import caching, matching
from .config import ConfigError, ScenarioConfig
from .geometry import TWO_PI
from .matching import (GameInstance, MueState, PlayerKind, SbsState,
                       sbs_id)
from .radio import (REFERENCE_DISTANCE, ChannelParams, LinkBudget,
                    instantaneous_rate)
from .scenario import (CellCrossing, SbsSite, Scenario,
                       beam_segments_in_cell, generate_scenario,
                       ray_circle_crossings, ray_crossing_arrays)

EXPERIMENT_NAMES = ("hof_vs_speed", "rate_vs_distance", "hof_multiuser",
                    "load_vs_users", "energy_vs_users", "overhead_vs_users")
USER_COUNTS = tuple(range(5, 55, 5))
# the region curves, name -> (speeds, user counts, metrics): projections
# of one region sweep (`_region_sweep`), drawn under the key (4, rep). A
# curve of one user count runs against speed, the others against the
# user count. hof_multiuser's users enter the focal cell at a rim point
# with a heading uniform over the directions into it, so their chords
# follow the paper's fixed-entry-point law, P(HOF) = (2/pi) *
# arcsin(vT/2a) for a cell of radius a and T = t_mts
REGION_CURVES = {
    "hof_multiuser": (tuple(float(v) for v in range(1, 17)), (20,),
                      ("hof_prob_proposed", "hof_prob_conventional")),
    "load_vs_users": ((8.0, 10.0, 12.0), USER_COUNTS, ("load",)),
    "energy_vs_users": ((8.0, 10.0, 12.0), USER_COUNTS,
                        ("savings", "baseline_mj", "used_mj")),
    "overhead_vs_users": ((2.0, 8.0, 10.0, 12.0), USER_COUNTS,
                          ("proposals",))}
REGION_EXPERIMENTS = tuple(REGION_CURVES)
# rate_vs_distance's crossing headings theta-hat, relative to the entry edge
RATE_THETA_HATS_DEG = (20.0, 30.0, 50.0, 70.0)


@dataclass
class ExperimentResult:
    name: str
    columns: Dict[str, List[float]]
    replication_count: int
    seed: int
    runtime_s: float = 0.0

    def to_csv(self) -> str:
        keys = list(self.columns)
        n = len(self.columns[keys[0]]) if keys else 0
        lines = [",".join(keys)]
        for i in range(n):
            lines.append(",".join(_fmt(self.columns[k][i]) for k in keys))
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rep_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed,) + key))


def check_run(name: str, config: ScenarioConfig, reps: int,
              threads: int) -> None:
    """Raise before any work if the run would fail or give NaN rows."""
    if name not in EXPERIMENT_NAMES:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"known: {', '.join(EXPERIMENT_NAMES)}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads!r}")
    if reps < 1:
        raise ConfigError(f"replications must be >= 1, got {reps!r}")
    if name == "hof_vs_speed" and reps < 2:
        raise ConfigError(
            f"hof_vs_speed needs replications >= 2 for its stderr_nocache "
            f"and stderr_cache columns, got {reps!r}")
    if name == "rate_vs_distance":
        # the sweep weights by the beam-coverage probability, defined for
        # two or more beams, and every heading must cross the sector
        if config.n_beams < 2:
            raise ConfigError(
                f"rate_vs_distance needs n_beams >= 2 for the beam-coverage "
                f"probability, got {config.n_beams!r}")
        if not config.beamwidth_deg < min(RATE_THETA_HATS_DEG):
            raise ConfigError(
                f"rate_vs_distance needs beamwidth_deg below its smallest "
                f"crossing heading {min(RATE_THETA_HATS_DEG)!r}, got "
                f"{config.beamwidth_deg!r}")
    if name in REGION_EXPERIMENTS:
        _check_region_sbss(config)


def run_experiments(names: Sequence[str], config: ScenarioConfig,
                    replications: Optional[int] = None,
                    threads: int = 1) -> List[ExperimentResult]:
    """Run the named experiments, returning one result per name in order.

    Every name is checked (`check_run`) before any work. The region curves
    among `names` (`REGION_CURVES`) are cut from one `_region_sweep`, each
    given an equal share of its time as `runtime_s`; every other
    experiment runs on its own.
    """
    reps = replications if replications is not None else config.replications
    for name in names:
        check_run(name, config, reps, threads)
    results: Dict[str, ExperimentResult] = {}
    curves = [name for name in names if name in REGION_CURVES]
    if curves:
        start = time.perf_counter()
        cols = _region_sweep(config, reps, curves, threads)
        share = (time.perf_counter() - start) / len(curves)
        for name in curves:
            results[name] = ExperimentResult(name, cols[name], reps,
                                             config.seed, share)
    for name in names:
        if name not in results:
            start = time.perf_counter()
            results[name] = _RUNNERS[name](config, reps, threads)
            results[name].runtime_s = time.perf_counter() - start
    return [results[name] for name in names]


def run_experiment(name: str, config: ScenarioConfig,
                   replications: Optional[int] = None,
                   threads: int = 1) -> ExperimentResult:
    return run_experiments((name,), config, replications, threads)[0]


# ---------------------------------------------------------------------------
# Single-user trajectory simulation (speed sweep)
# ---------------------------------------------------------------------------

class CellEntry(NamedTuple):
    """One cell the trajectory enters, with its time-of-stay."""

    time: float      # seconds from the start of the walk to the entry
    cell: int        # index of the SBS whose cell is entered
    tos: float       # time-of-stay: chord over speed
    skipped: bool    # the cache-enabled user coasted through on its cache


@dataclass
class TrajectoryStats:
    """Handover outcomes of one walk for both users.

    `crossings`, `attempts`, `failures` and `skips` count the
    cache-enabled user. The conventional user attempts a handover at every
    crossing, and its attempt fails exactly when the cached user's would:
    `conventional_failures` counts the crossings with tos < t_mts.
    """

    crossings: int = 0
    attempts: int = 0
    failures: int = 0
    skips: int = 0
    conventional_failures: int = 0
    entries: List[CellEntry] = field(default_factory=list)


class Walk(NamedTuple):
    """The geometry and link state of one straight walk, traced once for
    every speed.

    `crossings` are the cell traversals within `max_range` metres of the
    origin, ordered by entry; `segments[i]` are the in-sector
    sub-intervals of `crossings[i]` (`beam_segments_in_cell`), and
    `rates[i][k]` is the Shannon rate at the midpoint of `segments[i][k]`
    (`_midpoint_rate`). `budgets` holds the link budget of every
    configured SBS power and `params` the line-of-sight channel. None of
    it depends on the speed at which the walk is taken.
    """

    scn: Scenario
    origin: Tuple[float, float]
    heading: float
    max_range: float
    crossings: Tuple[CellCrossing, ...]
    segments: Tuple[List[Tuple[float, float]], ...]
    rates: Tuple[List[float], ...]
    budgets: Dict[float, LinkBudget]
    params: ChannelParams


def _midpoint_rate(origin: Tuple[float, float], heading: float,
                   site: SbsSite, budget: LinkBudget, params: ChannelParams,
                   a: float, b: float) -> float:
    """Shannon rate from `site` at the midpoint of the walk's [a, b]."""
    mid = 0.5 * (a + b)
    px = origin[0] + mid * math.cos(heading) - site.position[0]
    py = origin[1] + mid * math.sin(heading) - site.position[1]
    r = max(math.hypot(px, py), REFERENCE_DISTANCE)
    return instantaneous_rate(r, budget, params)


def trace_walk(scn: Scenario, origin: Tuple[float, float], heading: float,
               max_range: float) -> Walk:
    """Trace the straight walk from `origin` along `heading` to `max_range`.

    The crossings come from `ray_circle_crossings`, each crossing's beam
    segments from `beam_segments_in_cell` over its [entry, exit], and each
    segment's rate from `_midpoint_rate`. A walk traced to `max_range`
    serves every speed and duration whose walk is no longer
    (`simulate_trajectory`).
    """
    cfg = scn.config
    budgets = {p: LinkBudget.from_table(tx_power_dbm=p,
                                        bandwidth=cfg.bandwidth,
                                        noise_psd_dbm_hz=cfg.noise_psd_dbm_hz)
               for p in cfg.sbs_powers_dbm}
    params = ChannelParams(carrier_frequency=cfg.carrier_frequency,
                           pathloss_exponent=cfg.pathloss_los)
    crossings = tuple(ray_circle_crossings(origin, heading, scn.sbss,
                                           max_range))
    segments, rates = [], []
    for cr in crossings:
        site = scn.sbss[cr.sbs]
        segs = beam_segments_in_cell(origin, heading, site.beams(cfg),
                                     cr.entry, cr.exit)
        segments.append(segs)
        rates.append([_midpoint_rate(origin, heading, site,
                                     budgets[site.power_dbm], params, a, b)
                      for a, b in segs])
    return Walk(scn, origin, heading, max_range, crossings, tuple(segments),
                tuple(rates), budgets, params)


def simulate_trajectory(walk: Walk, speed: float,
                        duration: float) -> TrajectoryStats:
    """Take a traced walk at `speed` for `duration` and count handovers.

    The walk covers `reach = speed * duration` metres. It enters the
    crossings with entry < reach, which are those that tracing to `reach`
    itself would give, and their in-sector segments end at reach:
    segments from reach on are dropped and one that straddles it is cut
    there, with the rate of the cut segment's midpoint. So the result
    equals that of the walk traced to `reach`. Raises ValueError when the
    walk was traced shorter than `reach`.

    Every entered cell triggers a handover attempt for the conventional
    user, and an attempt fails when the time-of-stay (cell chord over
    speed) is below the minimum time-of-stay. The cache-enabled user skips
    a cell while cached playback outlasts its traversal; its successful
    attempts refill the cache, each beam segment at the Shannon rate of
    its midpoint for the time the segment takes.

    A straight line through a random deployment cuts each cell it crosses
    at an offset from the centre that is uniform over the radius: the
    isotropic-line chord law. A cell of radius a then gives a chord
    shorter than v*T, so a handover failure with T = t_mts, with
    probability 1 - sqrt(1 - (vT/2a)^2). `hof_vs_speed` follows this law.
    """
    reach = speed * duration
    if reach > walk.max_range:
        raise ValueError(f"a walk traced to {walk.max_range!r} m cannot be "
                         f"taken for {reach!r} m")
    scn = walk.scn
    cfg = scn.config
    stats = TrajectoryStats()
    state = caching.CacheState(segments=0.0,
                               segment_size_bits=cfg.segment_size_bits,
                               play_rate=cfg.play_rate,
                               capacity=cfg.cache_capacity)
    path_pos = 0.0
    for crossing, segments, rates in zip(walk.crossings, walk.segments,
                                         walk.rates):
        if crossing.entry >= reach:
            break
        # continuous playback drain while moving to this cell
        travel_t = (crossing.entry - path_pos) / speed
        if travel_t > 0:
            state = caching.cache_drain(state, travel_t)
        path_pos = crossing.entry
        stats.crossings += 1
        tos = crossing.chord / speed
        site = scn.sbss[crossing.sbs]
        failed = tos < cfg.t_mts
        stats.conventional_failures += failed
        skip = state.playback_seconds >= tos
        stats.entries.append(
            CellEntry(crossing.entry / speed, site.index, tos, skip))
        if skip:
            stats.skips += 1
            continue

        stats.attempts += 1
        if failed:
            stats.failures += 1
            continue
        for (seg_a, seg_b), rate in zip(segments, rates):
            if seg_a >= reach:
                break
            if seg_b > reach:
                seg_b = reach
                rate = _midpoint_rate(walk.origin, walk.heading, site,
                                      walk.budgets[site.power_dbm],
                                      walk.params, seg_a, seg_b)
            state = caching.cache_fill(rate, (seg_b - seg_a) / speed, state)
    return stats


def _speed_replication(cfg: ScenarioConfig, rep: int,
                       speeds: Sequence[float]) -> List[Tuple[int, int]]:
    """Handover failures of one frame-long walk without and with caching,
    one (conventional, cached) pair per speed.

    One deployment, origin and heading, drawn under the key (1, rep), are
    walked at every speed. The walk is traced once, to the frame-long
    reach of the fastest speed, and `simulate_trajectory` takes it at each
    speed, so element i equals this function's result for `(speeds[i],)`
    alone, and `simulate_trajectory(trace_walk(..., v * frame), v, frame)`.
    A pure function of (config, replication index, speeds), mapped like
    `_region_replication`.
    """
    rng = _rep_rng(cfg.seed, 1, rep)
    scn = generate_scenario(cfg, seed=int(rng.integers(2 ** 31)))
    # start near the rim aiming through the populated core so the
    # frame-long walk stays inside the deployment
    phi = rng.uniform(0.0, 2.0 * math.pi)
    origin = (0.9 * cfg.area_radius * math.cos(phi),
              0.9 * cfg.area_radius * math.sin(phi))
    heading = float(phi + math.pi + rng.uniform(-0.4, 0.4))
    walk = trace_walk(scn, origin, heading, max(speeds) * cfg.frame)
    failures = []
    for v in speeds:
        stats = simulate_trajectory(walk, v, cfg.frame)
        failures.append((stats.conventional_failures, stats.failures))
    return failures


def _run_hof_vs_speed(config: ScenarioConfig, reps: int,
                      threads: int = 1) -> ExperimentResult:
    """Handover failures per frame against speed, without and with caching.

    Each replication walks one straight line through a fresh deployment
    (`_speed_replication`), so its cells are crossed along chords of the
    isotropic-line law, P(HOF) = 1 - sqrt(1 - (vT/2a)^2) per crossed cell
    of radius a (see `simulate_trajectory`), not the paper's
    fixed-entry-point law that `hof_multiuser` follows. A replication's
    deployment, origin and heading are shared by all 17 speeds, so the
    points of the curve differ only in speed, and its walk is traced once.
    """
    speeds = list(range(1, 17)) + [60.0 / 3.6]
    speeds = tuple(sorted(set(round(s, 4) for s in speeds)))
    cols: Dict[str, List[float]] = {
        "speed_mps": [], "speed_kmh": [], "hof_per_frame_nocache": [],
        "hof_per_frame_cache": [], "reduction": [], "stderr_nocache": [],
        "stderr_cache": []}
    jobs = [(rep, speeds) for rep in range(reps)]
    results = _map_jobs(_speed_replication, config, jobs, threads)
    # results[rep][i] is one walk at speeds[i]
    for v, failures in zip(speeds, zip(*results)):
        no_cache, with_cache = (np.array(counts, dtype=float)
                                for counts in zip(*failures))
        mean_nc, mean_c = float(no_cache.mean()), float(with_cache.mean())
        cols["speed_mps"].append(float(v))
        cols["speed_kmh"].append(float(v) * 3.6)
        cols["hof_per_frame_nocache"].append(mean_nc)
        cols["hof_per_frame_cache"].append(mean_c)
        cols["reduction"].append(1.0 - mean_c / mean_nc if mean_nc > 0 else 0.0)
        cols["stderr_nocache"].append(float(no_cache.std(ddof=1) / math.sqrt(reps)))
        cols["stderr_cache"].append(float(with_cache.std(ddof=1) / math.sqrt(reps)))
    return ExperimentResult("hof_vs_speed", cols, reps, config.seed)


# ---------------------------------------------------------------------------
# Caching-rate sweep (distance axis, closed form)
# ---------------------------------------------------------------------------

def _run_rate_vs_distance(config: ScenarioConfig, reps: int,
                          threads: int = 1) -> ExperimentResult:
    from .geometry import entry_pose, BeamGeometry
    from .radio import average_caching_rate

    theta_k = math.radians(config.beamwidth_deg)
    budget = LinkBudget.from_table(tx_power_dbm=max(config.sbs_powers_dbm),
                                   bandwidth=config.bandwidth,
                                   noise_psd_dbm_hz=config.noise_psd_dbm_hz)
    los = ChannelParams(carrier_frequency=config.carrier_frequency,
                        pathloss_exponent=config.pathloss_los)
    nlos = ChannelParams(carrier_frequency=config.carrier_frequency,
                         pathloss_exponent=config.pathloss_nlos)
    speed = 60.0 / 3.6
    theta_hats = [math.radians(d) for d in RATE_THETA_HATS_DEG]
    cols: Dict[str, List[float]] = {"distance_m": []}
    for d in range(5, 52, 3):
        cols["distance_m"].append(float(d))
    for th in theta_hats:
        key = f"rate_los_gbps_theta{int(round(math.degrees(th)))}"
        nkey = f"rate_nlos_gbps_theta{int(round(math.degrees(th)))}"
        cols[key], cols[nkey] = [], []
        beam = BeamGeometry(n_beams=config.n_beams, beamwidth=theta_k,
                            anchor_angle=theta_k)
        for d in cols["distance_m"]:
            pose = entry_pose(beam, d, heading=th, speed=speed)
            cols[key].append(
                average_caching_rate(pose, beam, budget, los) / 1e9)
            cols[nkey].append(
                average_caching_rate(pose, beam, budget, nlos) / 1e9)
    return ExperimentResult("rate_vs_distance", cols, 1, config.seed)


# ---------------------------------------------------------------------------
# Target-region multi-user experiments
# ---------------------------------------------------------------------------

@dataclass
class RegionInstance:
    """A region game, whose SBS 0 is the focal cell every user enters."""

    game: GameInstance
    focal_chords: List[float]   # per-MUE chord across the focal cell


# The most (user, site) pairs a region instance may test.
# `ray_crossing_arrays` holds about ten float64 arrays of users x sites at
# once, so at 2**24 pairs an instance stays near 1 GB; past that a large
# user count ends in an allocation failure. The region experiments test
# 50 users against 50 sites.
_MAX_REGION_CELLS = 2 ** 24


def _check_region_sbss(config: ScenarioConfig) -> None:
    if config.n_sbs < 1:
        raise ConfigError(
            f"n_sbs must be >= 1 for a region instance, got {config.n_sbs!r}")


def build_region_instance(config: ScenarioConfig, n_mues: int,
                          speed: float,
                          rng: np.random.Generator) -> RegionInstance:
    """Users entering a focal cell at `speed` with onward candidates from
    the field.

    Each user draws, in order, its spawn angle beta on the focal rim, a
    heading offset and its threshold p_th. All users' doubles come from
    one `rng.random` call, scaled as `low + (high - low) * d`, which is
    what `Generator.uniform` returns for the same double, so values and
    the generator's final state are those of one `uniform` call per
    number. Every user's ray is then tested against every cell at once
    (`ray_crossing_arrays`); the onward cell is the first other cell, by
    (entry, site index), that the ray leaves after leaving the focal cell.
    """
    _check_region_sbss(config)
    if n_mues < 1:
        raise ConfigError(f"a region instance needs at least one user, "
                          f"got {n_mues!r}")
    if n_mues * config.n_sbs > _MAX_REGION_CELLS:
        raise ConfigError(
            f"a region instance of {n_mues!r} users and {config.n_sbs!r} "
            f"SBSs tests {n_mues * config.n_sbs} user-site pairs, over "
            f"{_MAX_REGION_CELLS}")
    if not 0.0 <= speed < math.inf:
        raise ConfigError(f"speed must be finite and >= 0, got {speed!r}")
    scn = generate_scenario(config, seed=int(rng.integers(2 ** 31)))
    focal = min(scn.sbss, key=lambda s: math.hypot(*s.position))

    draws = rng.random(3 * n_mues).reshape(n_mues, 3)
    # uniform(0, hi) returns 0.0 + hi * d, which is hi * d
    betas = (TWO_PI * draws[:, 0]).tolist()
    offsets = (math.pi * draws[:, 1]).tolist()
    p_lo, p_hi = config.p_th_min, config.p_th_max
    p_ths = (p_lo + (p_hi - p_lo) * draws[:, 2]).tolist()

    (fx, fy), fr = focal.position, focal.radius
    rays = []
    for beta, offset in zip(betas, offsets):
        # heading uniform over the inward half-plane: the focal chord then
        # follows the fixed-endpoint random-chord law 2a*sin(U[0, pi])
        heading = beta + 0.5 * math.pi + offset
        rays.append((fx + fr * math.cos(beta), fy + fr * math.sin(beta),
                     math.cos(heading), math.sin(heading)))
    max_range = 20.0 * config.area_radius
    hit, entry, exit_, chord = ray_crossing_arrays(
        *np.array(rays).T, scn.sbss, max_range=max_range)
    # a ray from the focal rim crosses the focal cell from entry 0 on the
    # chord 2a*sin(offset), which the kernel misses if the rim point rounds
    # outside the cell (a far-off cell and a nearly tangent ray)
    f = focal.index
    chord[:, f] = [2.0 * fr * math.sin(offset) for offset in offsets]
    exit_[:, f] = np.minimum(chord[:, f], max_range)
    focal_exit = exit_[:, f]
    onward = hit & (exit_ > focal_exit[:, None])
    onward[:, f] = False
    first = np.where(onward, entry, math.inf).argmin(axis=1)
    rows = np.arange(n_mues)
    has_next = onward[rows, first].tolist()
    next_entry = entry[rows, first].tolist()
    focal_exit = focal_exit.tolist()
    chords: List[float] = chord[:, f].tolist()

    mues: List[MueState] = []
    sbs_index_map = {focal.index: 0}
    sbs_states: List[SbsState] = [SbsState(radius=focal.radius,
                                           quota=config.quota)]
    for u, nxt in enumerate(first.tolist()):
        cand2: Tuple[int, ...] = ()
        gap1 = gap2 = math.inf
        if has_next[u]:
            if nxt not in sbs_index_map:
                sbs_index_map[nxt] = len(sbs_states)
                sbs_states.append(SbsState(radius=scn.sbss[nxt].radius,
                                           quota=config.quota))
            cand2 = (sbs_index_map[nxt],)
            gap1 = max(next_entry[u], 1e-9)
            gap2 = max(next_entry[u] - focal_exit[u], 1e-9)
        mues.append(MueState(
            speed=speed, segments=config.cache_capacity,
            p_th=p_ths[u], cand1=(0,), cand2=cand2, gap1=gap1, gap2=gap2))

    game = GameInstance(
        mues=tuple(mues), sbss=tuple(sbs_states), t_mts=config.t_mts,
        scan_interval=config.scan_interval, epsilon=config.epsilon,
        play_rate=config.play_rate, cache_capacity=config.cache_capacity,
        mbs_payoff=config.mbs_payoff, covered_payoff=config.covered_payoff,
        future_covered_payoff=config.future_covered_payoff,
        shortfall_penalty=config.shortfall_penalty)
    return RegionInstance(game=game, focal_chords=chords)


def _region_replication(cfg: ScenarioConfig, seed_key: Tuple[int, ...],
                        points: Sequence[Tuple[float, Sequence[int]]],
                        ) -> Dict[Tuple[float, int], Dict[str, float]]:
    """One replication of the target-region epoch: all metrics at each
    (speed, user counts) pair of `points`, keyed `(speed, n)`.

    One instance of the largest user count is built. Its users' numbers
    come from one draw after the deployment's, so its first u users are
    the instance of u users; and it draws no speed, so the instance at
    another speed differs only in `MueState.speed`. At each speed the
    replication builds one table (`matching.build_preferences`) on the
    head game of the largest user count that speed needs, its users
    re-speeded. Every user count of that speed is then matched in one pass
    over that table's rankings (`matching.run_heads`), whose head of u
    users equals `dynamic_match` of the game of the first u users. That
    needs the first u users to be the first u in the base stations'
    priority, which holds because every region user starts with a full
    cache: gamma ties, and ties break on index. So the metrics at `(v, n)`
    equal this function's result for `((v, (n,)),)` alone. A pure function
    of (config, seed key, points), so replications can be mapped over a
    worker pool and merged by index.

    Each head is measured at the focal SBS (SBS 0) from running counts,
    taken once per speed over the users of the largest head: the users
    whose focal time-of-stay is below t_mts (conventional HOF), those of
    them whose period-1 slot is the focal SBS (failures), the focal
    SBS's period-1 load, the users muted by coasting on their cache
    toward a period-2 SBS, and the stage-one proposals naming the focal
    SBS, counted by position in the stage-one trace. A head adds only what
    its own stage two changes: the users its repairs mute, and its
    stage-two proposals naming the focal SBS. Every other user scans for
    an inter-frequency measurement: handover execution measures the
    target, users bound for the macro cell keep searching, and a coaster
    without an arranged follow-up association keeps discovering
    candidates before its playback runs out.
    """
    rng = _rep_rng(cfg.seed, *seed_key)
    top = max(max(counts) for _, counts in points)
    region = build_region_instance(cfg, top, points[0][0], rng)
    game, chords = region.game, region.focal_chords
    focal, t_mts = sbs_id(0), cfg.t_mts
    e_scan_mj = cfg.energy_per_scan * 1e3
    metrics: Dict[Tuple[float, int], Dict[str, float]] = {}
    for v, counts in points:
        largest = max(counts)
        run = matching.run_heads(matching.build_preferences(replace(
            game, mues=tuple([mue._replace(speed=v)
                              for mue in game.mues[:largest]]))), counts)
        firsts = run.firsts
        short = [chord / v < t_mts for chord in chords[:largest]]
        conventional = _running(short)
        failures = _running([s and first == focal
                             for s, first in zip(short, firsts)])
        load = _running([first == focal for first in firsts])
        muted = _running([first is None and _names_sbs(second)
                          for first, second in zip(firsts, run.seconds)])
        naming = _running([focal in rec.plan for rec in run.stage1])
        for n in counts:
            head = run.heads[n]
            scans = n - muted[n] - sum(
                [firsts[u] is None and _names_sbs(plan.second)
                 for u, plan in head.repairs.items()])
            # serial-dictatorship proposals; on restarts, see README,
            # "matching"
            proposals = naming[head.end] + sum(
                [focal in rec.plan for rec in head.stage2])
            metrics[v, n] = {
                "load": float(load[n]),
                "savings": 1.0 - scans / n,
                "baseline_mj": n * e_scan_mj,
                "used_mj": scans * e_scan_mj,
                "proposals": float(proposals),
                "hof_prob_proposed": failures[n] / n,
                "hof_prob_conventional": conventional[n] / n,
            }
    return metrics


def _running(flags: Sequence[bool]) -> List[int]:
    """The number of true `flags` among the first i, for i = 0..len."""
    return list(itertools.accumulate(flags, initial=0))


def _names_sbs(slot: Optional[matching.PlayerId]) -> bool:
    """Whether `slot` is an SBS, not the macro cell or the cache."""
    return slot is not None and slot.kind is PlayerKind.SBS


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_jobs(fn, cfg: ScenarioConfig, jobs: Sequence[tuple],
              threads: int) -> list:
    """`[fn(cfg, *job) for job in jobs]`, on the shared process pool if
    threads > 1.

    The pool (`_pool`) has at most `threads` workers, never more than the
    CPUs this process may run on or the jobs, and serves every later call
    that needs as many; it is shut down at exit. The jobs are module-level
    pure functions, so a worker forked for an earlier call computes what
    this process would. The jobs of one sweep cost about the same; each
    worker takes chunks of about a quarter of its share, so a worker slowed
    by the machine leaves its later chunks to the others. Results come back
    in job order, so they are the same whatever the worker count. A pool
    broken by a lost worker is dropped, so the next call starts a new one.
    """
    workers = min(threads, _available_cpus(), len(jobs))
    if workers <= 1:
        return [fn(cfg, *job) for job in jobs]
    import concurrent.futures.process
    chunksize = -(-len(jobs) // (4 * workers))
    try:
        return list(_pool(workers).map(functools.partial(fn, cfg),
                                       *zip(*jobs), chunksize=chunksize))
    except concurrent.futures.process.BrokenProcessPool:
        _close_pool()
        raise


_POOL: Optional[tuple] = None     # (workers, executor), alive until exit


def _pool(workers: int):
    """The process pool of `workers` workers, started on first need; a pool
    of another size is shut down first, so at most one is alive."""
    global _POOL
    if _POOL is not None and _POOL[0] != workers:
        _close_pool()
    if _POOL is None:
        import concurrent.futures     # looked up per start, so it can be patched
        _POOL = (workers,
                 concurrent.futures.ProcessPoolExecutor(max_workers=workers))
    return _POOL[1]


@atexit.register
def _close_pool() -> None:
    """Shut the shared pool down and wait for its workers, if one is alive."""
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL[1], None
        pool.shutdown()


def _region_sweep(config: ScenarioConfig, reps: int, names: Sequence[str],
                  threads: int) -> Dict[str, Dict[str, List[float]]]:
    """The columns of each region curve in `names`, cut from one sweep of
    one job per replication.

    A job draws one instance under the key (4, rep) and matches its first
    n users at every speed of the curves for every user count that a
    curve needs at that speed (`_region_replication`), so all points of a
    replication share one deployment and one draw of users. Its metrics
    at a point equal those of a job of that point alone, so every curve
    is a projection of one sweep at the union of their points. A curve
    against speed has the columns `speed_mps` and then its metrics, one
    row per speed; a curve against the user count has `n_mues` and then
    `f"{metric}_v{int(speed)}"` by speed, then by metric, one row per user
    count. Each cell is the mean over the replications.
    """
    needed: Dict[float, set] = {}
    for name in names:
        speeds, users, _ = REGION_CURVES[name]
        for v in speeds:
            needed.setdefault(v, set()).update(users)
    points = tuple((v, tuple(sorted(needed[v]))) for v in sorted(needed))
    jobs = [((4, rep), points) for rep in range(reps)]
    results = _map_jobs(_region_replication, config, jobs, threads)

    def mean(v: float, n: int, metric: str) -> float:
        return float(np.mean([at_rep[v, n][metric] for at_rep in results]))

    cols: Dict[str, Dict[str, List[float]]] = {}
    for name in names:
        speeds, users, metrics = REGION_CURVES[name]
        if len(users) == 1:
            cols[name] = {"speed_mps": list(speeds)}
            cols[name].update((m, [mean(v, users[0], m) for v in speeds])
                              for m in metrics)
        else:
            cols[name] = {"n_mues": [float(n) for n in users]}
            cols[name].update((f"{m}_v{int(v)}",
                               [mean(v, n, m) for n in users])
                              for v in speeds for m in metrics)
    return cols


_RUNNERS = {"hof_vs_speed": _run_hof_vs_speed,
            "rate_vs_distance": _run_rate_vs_distance}
