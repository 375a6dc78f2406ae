"""Experiment drivers that regenerate the headline result curves at desk scale.

Six named experiments sweep speed, user count and distance axes and emit
tabular results. Every replication is fully determined by (config, sweep
point, replication index), so runs are reproducible bit-for-bit; runtimes are
reported separately from the data columns.

The multi-user experiments run on a "target region" extracted from a full
deployment: a focal cell plus the onward cells each user would reach, with
the two-period matching deciding between handover, coasting on cache, and
the macro fallback.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import caching, matching
from .config import ConfigError, ScenarioConfig
from .geometry import TWO_PI
from .matching import (GameInstance, MueState, PlayerKind, SbsState,
                       dynamic_match, sbs_id, signaling_overhead)
from .radio import ChannelParams, LinkBudget, instantaneous_rate
from .scenario import (Scenario, beam_segments_in_cell, generate_scenario,
                       ray_circle_crossings, ray_crossing_arrays)

EXPERIMENT_NAMES = ("hof_vs_speed", "rate_vs_distance", "hof_multiuser",
                    "load_vs_users", "energy_vs_users", "overhead_vs_users")
REGION_EXPERIMENTS = ("hof_multiuser", "load_vs_users", "energy_vs_users",
                      "overhead_vs_users")


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
    """Raise before any work if the run would fail or give NaN rows.

    `reproduce` calls this for every experiment before it writes anything.
    """
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
    if name in REGION_EXPERIMENTS:
        _check_region_sbss(config)


def run_experiment(name: str, config: ScenarioConfig,
                   replications: Optional[int] = None,
                   threads: int = 1) -> ExperimentResult:
    reps = replications if replications is not None else config.replications
    check_run(name, config, reps, threads)
    start = time.perf_counter()
    runner = globals()[f"_run_{name}"]
    result = runner(config, reps, threads=threads)
    result.runtime_s = time.perf_counter() - start
    return result


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


def simulate_trajectory(scn: Scenario, origin: Tuple[float, float],
                        heading: float, speed: float,
                        duration: float) -> TrajectoryStats:
    """Walk a straight trajectory once and count handover outcomes.

    Every entered cell triggers a handover attempt for the conventional
    user, and an attempt fails when the time-of-stay (cell chord over
    speed) is below the minimum time-of-stay. The cache-enabled user skips
    a cell while cached playback outlasts its traversal; its successful
    attempts refill the cache from the Shannon rate integrated over the
    trajectory's mmW beam segments inside the cell.
    """
    cfg = scn.config
    stats = TrajectoryStats()
    max_range = speed * duration
    crossings = ray_circle_crossings(origin, heading, scn.sbss, max_range)
    budget_by_power = {p: LinkBudget.from_table(tx_power_dbm=p,
                                                bandwidth=cfg.bandwidth,
                                                noise_psd_dbm_hz=cfg.noise_psd_dbm_hz)
                       for p in cfg.sbs_powers_dbm}
    params = ChannelParams(carrier_frequency=cfg.carrier_frequency,
                           pathloss_exponent=cfg.pathloss_los)
    state = caching.CacheState(segments=0.0,
                               segment_size_bits=cfg.segment_size_bits,
                               play_rate=cfg.play_rate,
                               capacity=cfg.cache_capacity)
    path_pos = 0.0
    for crossing in crossings:
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
        budget = budget_by_power[site.power_dbm]
        for seg_a, seg_b in beam_segments_in_cell(
                origin, heading, site.beams(cfg), crossing.entry,
                crossing.exit):
            mid = 0.5 * (seg_a + seg_b)
            px = origin[0] + mid * math.cos(heading) - site.position[0]
            py = origin[1] + mid * math.sin(heading) - site.position[1]
            r = max(math.hypot(px, py), params.reference_distance)
            rate = instantaneous_rate(r, budget, params)
            state = caching.cache_fill(rate, (seg_b - seg_a) / speed, state)
    return stats


def _speed_replication(cfg: ScenarioConfig, p_idx: int, rep: int,
                       v: float) -> Tuple[int, int]:
    """Handover failures of one frame-long walk without and with caching.

    A pure function of (config, sweep point, replication index), mapped
    like `_region_replication`.
    """
    rng = _rep_rng(cfg.seed, 1, p_idx, rep)
    scn = generate_scenario(cfg, seed=int(rng.integers(2 ** 31)))
    # start near the rim aiming through the populated core so the
    # frame-long walk stays inside the deployment
    phi = rng.uniform(0.0, 2.0 * math.pi)
    origin = (0.9 * cfg.area_radius * math.cos(phi),
              0.9 * cfg.area_radius * math.sin(phi))
    heading = float(phi + math.pi + rng.uniform(-0.4, 0.4))
    stats = simulate_trajectory(scn, origin, heading, v, cfg.frame)
    return stats.conventional_failures, stats.failures


def _run_hof_vs_speed(config: ScenarioConfig, reps: int,
                      threads: int = 1) -> ExperimentResult:
    speeds = list(range(1, 17)) + [60.0 / 3.6]
    speeds = sorted(set(round(s, 4) for s in speeds))
    cols: Dict[str, List[float]] = {
        "speed_mps": [], "speed_kmh": [], "hof_per_frame_nocache": [],
        "hof_per_frame_cache": [], "reduction": [], "stderr_nocache": [],
        "stderr_cache": []}
    jobs = [(p_idx, rep, v) for p_idx, v in enumerate(speeds)
            for rep in range(reps)]
    results = _map_jobs(_speed_replication, config, jobs, threads)
    for v, failures in zip(speeds, _per_point(results, reps)):
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
    theta_hats = [math.radians(d) for d in (20.0, 30.0, 50.0, 70.0)]
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
    game: GameInstance
    focal: int
    focal_chords: List[float]   # per-MUE chord across the focal cell


def _check_region_sbss(config: ScenarioConfig) -> None:
    if config.n_sbs < 1:
        raise ConfigError(
            f"n_sbs must be >= 1 for a region instance, got {config.n_sbs!r}")


def build_region_instance(config: ScenarioConfig, n_mues: int,
                          speed: Optional[float],
                          rng: np.random.Generator) -> RegionInstance:
    """Users entering a focal cell with onward candidates from the field.

    Each user draws, in order, its spawn angle beta on the focal rim, a
    heading offset, its speed (only when `speed` is None) and its
    threshold p_th. All users' doubles come from one `rng.random` call,
    scaled as `low + (high - low) * d`, which is what `Generator.uniform`
    returns for the same double, so values and the generator's final
    state are those of one `uniform` call per number. Every user's ray is
    then tested against every cell at once (`ray_crossing_arrays`); the
    onward cell is the first other cell, by (entry, site index), that the
    ray leaves after leaving the focal cell.
    """
    _check_region_sbss(config)
    if n_mues < 1:
        raise ConfigError(f"a region instance needs at least one user, "
                          f"got {n_mues!r}")
    if speed is not None and not 0.0 <= speed < math.inf:
        raise ConfigError(f"speed must be finite and >= 0, got {speed!r}")
    scn = generate_scenario(config, seed=int(rng.integers(2 ** 31)))
    focal = min(scn.sbss, key=lambda s: math.hypot(*s.position))

    n_draws = 3 if speed is not None else 4
    draws = rng.random(n_draws * n_mues).reshape(n_mues, n_draws)
    # uniform(0, hi) returns 0.0 + hi * d, which is hi * d
    betas = (TWO_PI * draws[:, 0]).tolist()
    offsets = (math.pi * draws[:, 1]).tolist()
    p_lo, p_hi = config.p_th_min, config.p_th_max
    p_ths = (p_lo + (p_hi - p_lo) * draws[:, -1]).tolist()
    if speed is None:
        s_lo, s_hi = config.speed_min, config.speed_max
        speeds = (s_lo + (s_hi - s_lo) * draws[:, 2]).tolist()
    else:
        speeds = [speed] * n_mues

    (fx, fy), fr = focal.position, focal.radius
    rays = []
    for beta, offset in zip(betas, offsets):
        # heading uniform over the inward half-plane: the focal chord then
        # follows the fixed-endpoint random-chord law 2a*sin(U[0, pi])
        heading = beta + 0.5 * math.pi + offset
        rays.append((fx + fr * math.cos(beta), fy + fr * math.sin(beta),
                     math.cos(heading), math.sin(heading)))
    hit, entry, exit_, chord = ray_crossing_arrays(
        *np.array(rays).T, scn.sbss, max_range=20.0 * config.area_radius)
    f = focal.index
    if not hit[:, f].all():
        raise RuntimeError("a user ray starting on the focal rim misses "
                           "the focal cell")
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
            speed=speeds[u], segments=config.cache_capacity,
            p_th=p_ths[u], cand1=(0,), cand2=cand2, gap1=gap1, gap2=gap2))

    game = GameInstance(
        mues=tuple(mues), sbss=tuple(sbs_states), t_mts=config.t_mts,
        scan_interval=config.scan_interval, epsilon=config.epsilon,
        play_rate=config.play_rate, cache_capacity=config.cache_capacity,
        mbs_payoff=config.mbs_payoff, covered_payoff=config.covered_payoff,
        future_covered_payoff=config.future_covered_payoff,
        shortfall_penalty=config.shortfall_penalty)
    return RegionInstance(game=game, focal=0, focal_chords=chords)


def _count_measurements(region: RegionInstance,
                        result: matching.MatchResult) -> int:
    """Users needing an inter-frequency measurement during the epoch.

    Handover execution requires measuring the target, users bound for the
    macro cell keep searching, and a coaster without an arranged follow-up
    association must also keep discovering candidates before its playback
    runs out. Only users coasting toward an arranged period-2 association
    mute the search entirely.
    """
    game = region.game
    scans = 0
    for u in range(len(game.mues)):
        mu1 = result.matching.mu1[u]
        mu2 = result.matching.mu2[u]
        if mu1 is None and mu2 is not None and mu2.kind == PlayerKind.SBS:
            continue
        scans += 1
    return scans


def _region_replication(cfg: ScenarioConfig, seed_key: Tuple[int, ...],
                        n_mues: int, speed: float) -> Dict[str, float]:
    """One replication of the target-region epoch; all metrics at once.

    A pure function of (config, seed key), so replications can be mapped
    over a worker pool and merged by index.
    """
    rng = _rep_rng(cfg.seed, *seed_key)
    region = build_region_instance(cfg, n_mues, speed, rng)
    result = dynamic_match(region.game)
    failures = 0
    conventional = 0
    for u in range(n_mues):
        tos = region.focal_chords[u] / region.game.mues[u].speed
        conventional += 1 if tos < cfg.t_mts else 0
        bs = result.matching.mu1[u]
        if bs is not None and bs.kind == PlayerKind.SBS \
                and bs.index == region.focal and tos < cfg.t_mts:
            failures += 1
    scans = _count_measurements(region, result)
    e_scan_mj = cfg.energy_per_scan * 1e3
    return {
        "load": float(len(result.matching.members(1, sbs_id(region.focal)))),
        "savings": 1.0 - scans / n_mues,
        "baseline_mj": n_mues * e_scan_mj,
        "used_mj": scans * e_scan_mj,
        # serial-dictatorship proposals; see signaling_overhead on restarts
        "proposals": float(signaling_overhead(result.trace, sbs=region.focal)),
        "hof_prob_proposed": failures / n_mues,
        "hof_prob_conventional": conventional / n_mues,
    }


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_jobs(fn, cfg: ScenarioConfig, jobs: Sequence[tuple],
              threads: int) -> list:
    """`[fn(cfg, *job) for job in jobs]`, on one process pool if threads > 1.

    The pool lives for this call only and has at most `threads` workers,
    never more than the CPUs this process may run on or the jobs. Each
    worker takes chunks of about a quarter of its share, so the costlier
    jobs at the end of a sweep still spread over the workers. Results come
    back in job order, so they are the same whatever the worker count.
    """
    workers = min(threads, _available_cpus(), len(jobs))
    if workers <= 1:
        return [fn(cfg, *job) for job in jobs]
    import concurrent.futures     # looked up per call, so it can be patched
    chunksize = -(-len(jobs) // (4 * workers))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(functools.partial(fn, cfg), *zip(*jobs),
                             chunksize=chunksize))


def _per_point(results: list, reps: int) -> List[list]:
    """Cut job-ordered results into the `reps` results of each sweep point."""
    return [results[i:i + reps] for i in range(0, len(results), reps)]


def _region_sweep(config: ScenarioConfig, reps: int, users: Sequence[int],
                  speeds: Sequence[float], key: int, names: Tuple[str, ...],
                  threads: int = 1) -> Dict[str, List[float]]:
    cols: Dict[str, List[float]] = {"n_mues": [float(u) for u in users]}
    for v in speeds:
        for name in names:
            cols[f"{name}_v{int(v)}"] = []
    points = [(u_count, v_idx, v) for u_count in users
              for v_idx, v in enumerate(speeds)]
    jobs = [((key, u_count, v_idx, rep), u_count, float(v))
            for u_count, v_idx, v in points for rep in range(reps)]
    results = _map_jobs(_region_replication, config, jobs, threads)
    for (_, _, v), metrics in zip(points, _per_point(results, reps)):
        for name in names:
            cols[f"{name}_v{int(v)}"].append(
                float(np.mean([m[name] for m in metrics])))
    return cols


def _run_hof_multiuser(config: ScenarioConfig, reps: int,
                       threads: int = 1) -> ExperimentResult:
    speeds = list(range(1, 17))
    cols: Dict[str, List[float]] = {
        "speed_mps": [float(v) for v in speeds], "hof_prob_proposed": [],
        "hof_prob_conventional": []}
    jobs = [((3, v_idx, rep), 20, float(v)) for v_idx, v in enumerate(speeds)
            for rep in range(reps)]
    results = _map_jobs(_region_replication, config, jobs, threads)
    for metrics in _per_point(results, reps):
        for name in ("hof_prob_proposed", "hof_prob_conventional"):
            cols[name].append(float(np.mean([m[name] for m in metrics])))
    return ExperimentResult("hof_multiuser", cols, reps, config.seed)


def _run_load_vs_users(config: ScenarioConfig, reps: int,
                       threads: int = 1) -> ExperimentResult:
    cols = _region_sweep(config, reps, users=range(5, 55, 5),
                         speeds=(8.0, 10.0, 12.0), key=4, names=("load",),
                         threads=threads)
    return ExperimentResult("load_vs_users", cols, reps, config.seed)


def _run_energy_vs_users(config: ScenarioConfig, reps: int,
                         threads: int = 1) -> ExperimentResult:
    cols = _region_sweep(config, reps, users=range(5, 55, 5),
                         speeds=(8.0, 10.0, 12.0), key=5,
                         names=("savings", "baseline_mj", "used_mj"),
                         threads=threads)
    return ExperimentResult("energy_vs_users", cols, reps, config.seed)


def _run_overhead_vs_users(config: ScenarioConfig, reps: int,
                           threads: int = 1) -> ExperimentResult:
    cols = _region_sweep(config, reps, users=range(5, 55, 5),
                         speeds=(2.0, 8.0, 10.0, 12.0), key=6,
                         names=("proposals",), threads=threads)
    return ExperimentResult("overhead_vs_users", cols, reps, config.seed)
