"""Test-only copies of the two-walk trajectory simulator and its kernel.

`simulate_trajectory` is `experiments.simulate_trajectory` as it was when
the speed sweep walked every ray twice: once with `caching_enabled=False`
and once with `caching_enabled=True`, each walk preformatting its own
event lines. `tests/test_scenario.py` compares the one-walk simulator,
which returns both users' outcomes from a single walk, against both of
these walks.

`ray_circle_crossings` is the definitional ray-circle kernel: one scalar
loop over the sites, solving |f + t*d|^2 = r^2 for each. The program's
one kernel, `scenario.ray_crossing_arrays`, is tested against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from mmwcache import caching
from mmwcache.radio import (REFERENCE_DISTANCE, ChannelParams, LinkBudget,
                            instantaneous_rate)
from mmwcache.scenario import (CellCrossing, SbsSite, Scenario,
                               beam_segments_in_cell)


def ray_circle_crossings(origin: Tuple[float, float], heading: float,
                         sites: Sequence[SbsSite],
                         max_range: float) -> List[CellCrossing]:
    """All cell traversals of the ray within max_range, ordered by entry."""
    ox, oy = origin
    dx, dy = math.cos(heading), math.sin(heading)
    out: List[CellCrossing] = []
    for site in sites:
        cx, cy = site.position
        fx, fy = ox - cx, oy - cy
        b = fx * dx + fy * dy
        c = fx * fx + fy * fy - site.radius ** 2
        disc = b * b - c
        if disc <= 0.0:
            continue
        root = math.sqrt(disc)
        t_in, t_out = -b - root, -b + root
        if t_out <= 0.0 or t_in >= max_range:
            continue
        out.append(CellCrossing(sbs=site.index, entry=max(t_in, 0.0),
                                exit=min(t_out, max_range),
                                chord=t_out - t_in))
    out.sort(key=lambda cr: (cr.entry, cr.sbs))
    return out


@dataclass
class TrajectoryStats:
    crossings: int = 0
    attempts: int = 0
    failures: int = 0
    skips: int = 0
    scans: int = 0
    events: List[str] = field(default_factory=list)


def simulate_trajectory(scn: Scenario, origin: Tuple[float, float],
                        heading: float, speed: float, duration: float,
                        caching_enabled: bool,
                        rng: Optional[np.random.Generator] = None,
                        collect_events: bool = False) -> TrajectoryStats:
    """Walk a straight trajectory and count handover attempts and failures.

    Without caching every entered cell triggers a handover attempt whose
    failure is decided by the time-of-stay (cell chord over speed) against
    the minimum time-of-stay. With caching, a cell is skipped while cached
    playback outlasts its traversal; successful attempts refill the cache
    from the Shannon rate integrated over the trajectory's mmW beam
    segments inside the cell.
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

        skip = caching_enabled and state.playback_seconds >= tos
        if skip:
            stats.skips += 1
            if collect_events:
                stats.events.append(
                    f"{crossing.entry / speed:.3f},skip,{site.index},{tos:.3f}")
            continue

        stats.attempts += 1
        stats.scans += 1
        failed = tos < cfg.t_mts
        if failed:
            stats.failures += 1
        if collect_events:
            kind = "hof" if failed else "ho"
            stats.events.append(
                f"{crossing.entry / speed:.3f},{kind},{site.index},{tos:.3f}")
        if caching_enabled and not failed:
            budget = budget_by_power[site.power_dbm]
            for seg_a, seg_b in beam_segments_in_cell(
                    origin, heading, site.beams(cfg), crossing.entry,
                    crossing.exit):
                mid = 0.5 * (seg_a + seg_b)
                px = origin[0] + mid * math.cos(heading) - site.position[0]
                py = origin[1] + mid * math.sin(heading) - site.position[1]
                r = max(math.hypot(px, py), REFERENCE_DISTANCE)
                rate = instantaneous_rate(r, budget, params)
                state = caching.cache_fill(rate, (seg_b - seg_a) / speed, state)
    return stats
