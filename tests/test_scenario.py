import concurrent.futures
import hashlib
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from mmwcache.config import ConfigError, ScenarioConfig
from mmwcache import scenario as S
from mmwcache import experiments as E
from mmwcache import matching as M
from mmwcache.cli import main
import reference_trajectory as R


def scalar_generate_scenario(config, seed):
    """Reference sampler: one scalar draw per number, all-pairs spacing test.

    Each number takes one `rng.random()`: radius and angle per try, then
    power index and anchor per site. Returns the scenario and the number
    of placement tries it took.
    """
    rng = np.random.default_rng(seed)
    positions = []
    tries = 0
    while len(positions) < config.n_sbs:
        tries += 1
        r = config.area_radius * math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        candidate = (r * math.cos(phi), r * math.sin(phi))
        if all(math.hypot(candidate[0] - p[0], candidate[1] - p[1])
               >= config.min_intercell for p in positions):
            positions.append(candidate)
    powers = config.sbs_powers_dbm
    sbss = []
    for i, pos in enumerate(positions):
        power = float(powers[int(len(powers) * rng.random())])
        anchor = 2.0 * math.pi * rng.random()
        sbss.append(S.SbsSite(
            index=i, position=pos, power_dbm=power,
            radius=S.uw_cell_radius(power, config), anchor_angle=anchor))
    return S.Scenario(config=config, seed=seed, sbss=tuple(sbss)), tries


def all_pairs_place_sites(config, draws, max_tries):
    """Reference `_place_sites`: each candidate against every placed site.

    It takes the same two doubles per try from `draws` and keeps a
    candidate when `math.hypot` to every placed site is at least
    `min_intercell`, with no grid.
    """
    positions = []
    if config.n_sbs == 0:
        return positions
    if config.n_sbs > max_tries:
        max_tries = 0
    pairs = zip(draws, draws)
    for _ in range(max_tries):
        u_radius, u_angle = next(pairs)
        r = config.area_radius * math.sqrt(u_radius)
        phi = 2.0 * math.pi * u_angle
        x, y = r * math.cos(phi), r * math.sin(phi)
        if all(math.hypot(x - px, y - py) >= config.min_intercell
               for px, py in positions):
            positions.append((x, y))
            if len(positions) == config.n_sbs:
                return positions
    raise S.PackingFailure("could not place the SBSs")


def loop_build_region_instance(config, n_mues, speed, rng):
    """Reference region instance: scalar draws and one crossing list per user.

    The per-user loop `experiments.build_region_instance` had before its
    draws and crossings were batched. The focal crossing is the closed form
    of a ray from the rim (entry 0, chord 2a*sin(offset)), which the
    crossing kernel gives to within rounding.
    """
    scn = S.generate_scenario(config, seed=int(rng.integers(2 ** 31)))
    focal = min(scn.sbss, key=lambda s: math.hypot(*s.position))
    mues, chords = [], []
    sbs_index_map = {focal.index: 0}
    sbs_states = [E.SbsState(radius=focal.radius, quota=config.quota)]
    for _ in range(n_mues):
        beta = rng.uniform(0.0, 2.0 * math.pi)
        spawn = (focal.position[0] + focal.radius * math.cos(beta),
                 focal.position[1] + focal.radius * math.sin(beta))
        offset = rng.uniform(0.0, math.pi)
        heading = beta + 0.5 * math.pi + offset
        max_range = 20.0 * config.area_radius
        crossings = S.ray_circle_crossings(spawn, heading, scn.sbss,
                                           max_range=max_range)
        chord = 2.0 * focal.radius * math.sin(offset)
        kernel = next(c for c in crossings if c.sbs == focal.index)
        assert kernel.entry < 1e-9 and abs(kernel.chord - chord) < 1e-6
        focal_cross = S.CellCrossing(focal.index, 0.0, min(chord, max_range),
                                     chord)
        onward = [c for c in crossings
                  if c.sbs != focal.index and c.exit > focal_cross.exit]
        cand2 = ()
        gap1 = gap2 = math.inf
        if onward:
            nxt = onward[0]
            if nxt.sbs not in sbs_index_map:
                sbs_index_map[nxt.sbs] = len(sbs_states)
                sbs_states.append(E.SbsState(radius=scn.sbss[nxt.sbs].radius,
                                             quota=config.quota))
            cand2 = (sbs_index_map[nxt.sbs],)
            gap1 = max(nxt.entry, 1e-9)
            gap2 = max(nxt.entry - focal_cross.exit, 1e-9)
        mues.append(E.MueState(
            speed=speed, segments=config.cache_capacity,
            p_th=float(rng.uniform(config.p_th_min, config.p_th_max)),
            cand1=(0,), cand2=cand2, gap1=gap1, gap2=gap2))
        chords.append(focal_cross.chord)
    game = E.GameInstance(
        mues=tuple(mues), sbss=tuple(sbs_states), t_mts=config.t_mts,
        scan_interval=config.scan_interval, epsilon=config.epsilon,
        play_rate=config.play_rate, cache_capacity=config.cache_capacity,
        mbs_payoff=config.mbs_payoff, covered_payoff=config.covered_payoff,
        future_covered_payoff=config.future_covered_payoff,
        shortfall_penalty=config.shortfall_penalty)
    return E.RegionInstance(game=game, focal_chords=chords)


def crossings_from_arrays(i, hit, entry, exit_, chord):
    """Ray i's `CellCrossing` list, ordered as `ray_circle_crossings` orders."""
    e, x, c = entry[i].tolist(), exit_[i].tolist(), chord[i].tolist()
    out = [S.CellCrossing(sbs=j, entry=e[j], exit=x[j], chord=c[j])
           for j in np.flatnonzero(hit[i]).tolist()]
    return sorted(out, key=lambda cr: (cr.entry, cr.sbs))


REGION = ScenarioConfig()
# the paper table's wide-area deployment, whose cells are 100+ m wide
WIDE_AREA = ScenarioConfig(area_radius=500.0,
                           sbs_powers_dbm=(20.0, 27.0, 30.0),
                           uw_carrier_frequency=2e9, uw_pathloss_exponent=3.0)
# seven distinct powers, so the power index runs over more than three levels
SEVEN_POWERS = (20.0, 21.5, 23.0, 24.5, 26.0, 28.0, 30.0)
# sha256 of the snapshot texts of seeds 0..49 under ScenarioConfig()
STREAM_DIGEST = (
    "5c8ea579244c5b80ebc9a2006305ddf778cd8395362cb81f034527a95617fb42")


class TestGeneration:
    def test_determinism(self):
        cfg = ScenarioConfig(seed=5)
        a = S.generate_scenario(cfg)
        b = S.generate_scenario(cfg)
        assert a.snapshot_text() == b.snapshot_text()

    def test_default_packing_succeeds(self):
        for cfg in (ScenarioConfig(seed=2), replace(WIDE_AREA, seed=2)):
            scn = S.generate_scenario(cfg)
            assert len(scn.sbss) == 50
            positions = [s.position for s in scn.sbss]
            for i in range(len(positions)):
                for j in range(i + 1, len(positions)):
                    (xi, yi), (xj, yj) = positions[i], positions[j]
                    assert math.hypot(xj - xi, yj - yi) >= cfg.min_intercell

    # 70 sites never fit in the first block of 6 * n_sbs + 128 doubles
    @pytest.mark.parametrize("cfg", [
        REGION, WIDE_AREA, ScenarioConfig(min_intercell=0.0),
        ScenarioConfig(sbs_powers_dbm=SEVEN_POWERS),
        ScenarioConfig(n_sbs=70)],
        ids=["region", "wide_area", "no_spacing", "seven_powers",
             "seventy_sites"])
    def test_matches_scalar_sampler(self, cfg):
        for seed in range(500):
            ref, _ = scalar_generate_scenario(cfg, seed)
            scn = S.generate_scenario(cfg, seed=seed)
            # the reprs print every field of every site, each float
            # exactly
            assert repr(scn) == repr(ref), seed

    @pytest.mark.parametrize("cfg", [
        REGION, WIDE_AREA, ScenarioConfig(min_intercell=0.0),
        ScenarioConfig(n_sbs=20, min_intercell=60.0),
        ScenarioConfig(n_sbs=70)],
        ids=["region", "wide_area", "no_spacing", "wide_spacing",
             "seventy_sites"])
    def test_grid_placement_matches_all_pairs(self, cfg, monkeypatch):
        # the grid tests a candidate only against the sites listed in its
        # cell; an all-pairs test must keep the same sites
        seeds = range(400)
        grid = [S.generate_scenario(cfg, seed=s) for s in seeds]
        monkeypatch.setattr(S, "_place_sites", all_pairs_place_sites)
        for seed, scn in zip(seeds, grid):
            ref = S.generate_scenario(cfg, seed=seed)
            assert scn.snapshot_text() == ref.snapshot_text(), seed
            assert repr(scn) == repr(ref), seed

    def test_no_beam_layout_is_built(self, monkeypatch):
        def no_beams(*args, **kwargs):
            raise AssertionError("beam layout built")

        monkeypatch.setattr(S, "BeamGeometry", no_beams)
        S.generate_scenario(REGION, seed=4)
        E.build_region_instance(REGION, 20, 8.0, np.random.default_rng(4))

    def test_try_accounting(self):
        _, tries = scalar_generate_scenario(REGION, 3)
        assert tries > 50
        S.generate_scenario(REGION, seed=3, max_tries=tries)
        with pytest.raises(S.PackingFailure):
            S.generate_scenario(REGION, seed=3, max_tries=tries - 1)

    def test_infeasible_packing_raises(self):
        cfg = ScenarioConfig(seed=2, n_sbs=2, min_intercell=1000.0)
        with pytest.raises(S.PackingFailure):
            S.generate_scenario(cfg, max_tries=200)

    def test_more_sites_than_tries_raise_before_drawing(self):
        # a first block for 10**15 sites could not even be allocated
        with pytest.raises(S.PackingFailure):
            S.generate_scenario(ScenarioConfig(n_sbs=10 ** 15))
        with pytest.raises(S.PackingFailure):
            S.generate_scenario(ScenarioConfig(min_intercell=0.0, n_sbs=21),
                                max_tries=20)

    def test_radius_from_threshold(self):
        cfg = ScenarioConfig()
        # p - (free space + 10 n log10 a) = -80 dB, n the uW exponent
        a = S.uw_cell_radius(20.0, cfg)
        wavelength = S.SPEED_OF_LIGHT / cfg.uw_carrier_frequency
        check = 20.0 - (20 * math.log10(4 * math.pi / wavelength)
                        + 10 * cfg.uw_pathloss_exponent * math.log10(a))
        assert check == pytest.approx(cfg.rss_threshold_dbm, abs=1e-9)

    def test_powers_within_set(self):
        cfg = ScenarioConfig(seed=8)
        scn = S.generate_scenario(cfg)
        assert {s.power_dbm for s in scn.sbss} <= set(cfg.sbs_powers_dbm)

    def test_power_index_needs_no_clamp(self):
        # the largest double below 1 still maps into k levels
        u_max = math.nextafter(1.0, 0.0)
        for k in range(1, 1001):
            assert int(k * u_max) < k, k

    def test_snapshot_heads_with_draw_seed(self):
        cfg = ScenarioConfig(seed=5)
        for seed, scn in ((7, S.generate_scenario(cfg, seed=7)),
                          (5, S.generate_scenario(cfg))):
            assert scn.seed == seed
            assert scn.snapshot_text().startswith(
                f"# scenario seed={seed}\n")

    def test_stream_digest(self):
        """Tripwire for the random stream of deployments.

        The sha256 of the snapshots of seeds 0..49 under the default
        config. Every curve is an average over such deployments, so a
        change to the stream, deliberate or from a numpy upgrade, moves
        every output; it fails here and has to be made on purpose, with
        this digest updated beside it.
        """
        text = "".join(S.generate_scenario(ScenarioConfig(), seed=seed)
                       .snapshot_text() for seed in range(50))
        assert (hashlib.sha256(text.encode()).hexdigest()
                == STREAM_DIGEST)


class TestRayGeometry:
    def test_crossing_of_centered_cell(self):
        site = S.SbsSite(index=0, position=(10.0, 0.0), power_dbm=20.0,
                         radius=5.0, anchor_angle=0.0)
        crossings = S.ray_circle_crossings((0.0, 0.0), 0.0, [site], 100.0)
        assert len(crossings) == 1
        assert crossings[0].entry == pytest.approx(5.0)
        assert crossings[0].exit == pytest.approx(15.0)
        assert crossings[0].chord == pytest.approx(10.0)

    def test_miss(self):
        site = S.SbsSite(index=0, position=(10.0, 7.0), power_dbm=20.0,
                         radius=5.0, anchor_angle=0.0)
        assert not S.ray_circle_crossings((0.0, 0.0), 0.0, [site], 100.0)

    def test_beam_segments_inside_cell(self):
        beams = S.BeamGeometry(sbs_position=(10.0, 0.0), n_beams=3,
                               beamwidth=math.radians(40), anchor_angle=0.3)
        segs = S.beam_segments_in_cell((0.0, 0.0), 0.0, beams, 5.0, 15.0)
        total = sum(b - a for a, b in segs)
        assert 0.0 < total < 10.0


def sampled_inside(origin, heading, beams, ts):
    """Dense-sampling oracle: which path coordinates `ts` lie in a sector.

    A point is inside when its azimuth from the SBS, relative to the first
    entry edge and modulo the sector pitch, is at most the beamwidth.
    """
    ts = np.asarray(ts, dtype=float)
    px = origin[0] + ts * math.cos(heading) - beams.sbs_position[0]
    py = origin[1] + ts * math.sin(heading) - beams.sbs_position[1]
    az = np.mod(np.arctan2(py, px), 2.0 * math.pi)
    rel = np.mod(az - (beams.anchor_angle - beams.beamwidth),
                 2.0 * math.pi / beams.n_beams)
    return rel <= beams.beamwidth


def assert_segments_match_sampling(origin, heading, beams, entry, exit_,
                                   segments, rng, samples=2000):
    """Segments sorted, disjoint and in [entry, exit]; every sample point
    farther than 1e-6 from a segment end and from the closest approach to
    the SBS (where a line through the SBS has no azimuth) is inside
    exactly when the oracle says so."""
    ends = [t for seg in segments for t in seg]
    assert all(a < b for a, b in segments)
    assert ends == sorted(ends) and len(set(ends)) == len(ends)
    assert all(entry <= t <= exit_ for t in ends)
    ts = np.concatenate([rng.uniform(entry, exit_, samples),
                         np.linspace(entry, exit_, samples + 1)])
    closest = ((beams.sbs_position[0] - origin[0]) * math.cos(heading)
               + (beams.sbs_position[1] - origin[1]) * math.sin(heading))
    cuts = np.array(ends + [closest])
    ts = ts[np.abs(ts[:, None] - cuts).min(axis=1) > 1e-6]
    inside = np.zeros(len(ts), dtype=bool)
    for a, b in segments:
        inside |= (ts >= a) & (ts <= b)
    expected = sampled_inside(origin, heading, beams, ts)
    bad = np.flatnonzero(inside != expected)
    assert bad.size == 0, ts[bad[:5]].tolist()


class TestExactSegments:
    """`beam_segments_in_cell` against a dense sampler written here."""

    def test_random_layouts_match_sampling(self):
        rng = np.random.default_rng(2024)
        kinds = {"through_sbs": 0, "in_cell": 0, "field": 0}
        full_width = one_beam = clipped = 0
        for _ in range(2000):
            n = int(rng.integers(1, 7))
            pitch = 2.0 * math.pi / n
            width = pitch if rng.random() < 0.15 else \
                pitch * rng.uniform(0.02, 1.0)
            centre = (float(rng.uniform(-100, 100)),
                      float(rng.uniform(-100, 100)))
            radius = float(rng.uniform(5.0, 40.0))
            beams = S.BeamGeometry(sbs_position=centre, n_beams=n,
                                   beamwidth=width,
                                   anchor_angle=rng.uniform(0, 2 * math.pi))
            heading = float(rng.uniform(0.0, 2.0 * math.pi))
            kind = ("through_sbs", "in_cell", "field")[int(rng.integers(3))]
            if kind == "through_sbs":
                back = rng.uniform(0.0, 2.0 * radius)
                origin = (centre[0] - back * math.cos(heading),
                          centre[1] - back * math.sin(heading))
            elif kind == "in_cell":
                r = radius * math.sqrt(rng.random())
                phi = rng.uniform(0.0, 2.0 * math.pi)
                origin = (centre[0] + r * math.cos(phi),
                          centre[1] + r * math.sin(phi))
            else:
                # a line at a uniform offset from the centre, started
                # outside the cell
                offset = rng.uniform(-radius, radius)
                origin = (centre[0] - 2 * radius * math.cos(heading)
                          - offset * math.sin(heading),
                          centre[1] - 2 * radius * math.sin(heading)
                          + offset * math.cos(heading))
            max_range = 200.0 if rng.random() < 0.8 else \
                float(rng.uniform(1.0, 3.0 * radius))
            site = S.SbsSite(0, centre, 30.0, radius, beams.anchor_angle)
            crossings = S.ray_circle_crossings(origin, heading, [site],
                                               max_range)
            if not crossings:
                continue
            entry, exit_ = crossings[0].entry, crossings[0].exit
            segments = S.beam_segments_in_cell(origin, heading, beams,
                                               entry, exit_)
            assert_segments_match_sampling(origin, heading, beams, entry,
                                           exit_, segments, rng)
            kinds[kind] += 1
            full_width += width == pitch
            one_beam += n == 1
            clipped += exit_ == max_range
        assert min(kinds.values()) > 300, kinds
        assert full_width > 100 and one_beam > 100 and clipped > 50

    def test_full_width_covers_the_chord(self):
        # sectors as wide as the pitch tile the circle: the whole chord is
        # in-sector, however the line meets the edges, through the SBS too
        for n in range(1, 7):
            beams = S.BeamGeometry(sbs_position=(10.0, 0.0), n_beams=n,
                                   beamwidth=2.0 * math.pi / n,
                                   anchor_angle=0.7)
            for y in (0.0, 1.5, -3.0):
                assert S.beam_segments_in_cell((0.0, y), 0.0, beams, 5.0,
                                               15.0) == [(5.0, 15.0)]

    def test_line_through_the_sbs(self):
        # both edge rays meet this line at the SBS, and the azimuth jumps
        # from pi to 0 there: west of the SBS the path is in the one sector,
        # around azimuth pi, east of it not
        beams = S.BeamGeometry(sbs_position=(10.0, 0.0), n_beams=1,
                               beamwidth=0.5, anchor_angle=math.pi + 0.25)
        assert S.beam_segments_in_cell((0.0, 0.0), 0.0, beams, 5.0,
                                       15.0) == [(5.0, 10.0)]

    def test_seed_1_walk_missed_by_64_samples(self):
        # hof_vs_speed, config seed 1, replication 37 at 60 km/h: the walk
        # crosses SBS 38's cell along a 56 m chord and passes two sectors
        # within about 0.5 m each, between the 0.88 m steps of a 65-point
        # grid, which found no beam time here
        origin, heading = (-170.36488960103097, -14.724278971431232), \
            6.529812958878204
        beams = S.BeamGeometry(
            sbs_position=(-34.5632197844356, 18.719448282332294), n_beams=3,
            beamwidth=math.radians(10.0), anchor_angle=0.840365606742992)
        entry, exit_ = 111.78267133610679, 167.9318607536403
        grid = np.linspace(entry, exit_, 65)
        assert not sampled_inside(origin, heading, beams, grid).any()
        segments = S.beam_segments_in_cell(origin, heading, beams, entry,
                                           exit_)
        assert len(segments) == 2
        assert sum(b - a for a, b in segments) == pytest.approx(1.0379426,
                                                                rel=1e-6)
        assert_segments_match_sampling(origin, heading, beams, entry, exit_,
                                       segments, np.random.default_rng(37),
                                       samples=200_000)


class TestBatchedRegion:
    def test_matches_per_user_loop(self):
        # 1,000 seeds, each user count on every 6th of them
        counts, speed = (1, 2, 5, 20, 50, 120), 8.0
        for seed in range(1000):
            n_mues = counts[seed % len(counts)]
            ref_rng = np.random.default_rng(seed)
            rng = np.random.default_rng(seed)
            ref = loop_build_region_instance(REGION, n_mues, speed, ref_rng)
            region = E.build_region_instance(REGION, n_mues, speed, rng)
            assert repr(region) == repr(ref), (seed, n_mues, speed)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, \
                (seed, n_mues, speed)

    @pytest.mark.parametrize("cfg", [REGION, WIDE_AREA],
                             ids=["region", "wide_area"])
    def test_kernel_matches_scalar_crossings(self, cfg):
        rng = np.random.default_rng(17)
        for seed in range(20):
            sites = S.generate_scenario(cfg, seed=seed).sbss
            n = 60
            r = cfg.area_radius * np.sqrt(rng.random(n))
            phi = 2.0 * math.pi * rng.random(n)
            origins = list(zip((r * np.cos(phi)).tolist(),
                               (r * np.sin(phi)).tolist()))
            # some rays start on a cell rim, as region users do
            for k in range(10):
                site = sites[int(rng.integers(len(sites)))]
                beta = 2.0 * math.pi * float(rng.random())
                origins[k] = (site.position[0] + site.radius * math.cos(beta),
                              site.position[1] + site.radius * math.sin(beta))
            headings = (2.0 * math.pi * rng.random(n)).tolist()
            # ranges short enough to clip and to end before some cells
            max_range = float(rng.uniform(0.05, 2.0)) * cfg.area_radius
            ox, oy = (np.array(c) for c in zip(*origins))
            dx = np.array([math.cos(h) for h in headings])
            dy = np.array([math.sin(h) for h in headings])
            arrays = S.ray_crossing_arrays(ox, oy, dx, dy, sites, max_range)
            for i, (origin, heading) in enumerate(zip(origins, headings)):
                ref = R.ray_circle_crossings(origin, heading, sites,
                                             max_range)
                assert repr(crossings_from_arrays(i, *arrays)) == \
                    repr(ref), (seed, i)

    def test_kernel_on_hand_geometry(self):
        site = S.SbsSite(index=0, position=(10.0, 0.0), power_dbm=20.0,
                         radius=5.0, anchor_angle=0.0)
        ox = np.array([0.0, 0.0, 0.0, 12.0, 0.0])
        oy = np.array([0.0, 7.0, 0.0, 0.0, 5.0])
        dx, dy = np.array([1.0, 1.0, -1.0, 1.0, 1.0]), np.zeros(5)
        hit, entry, exit_, chord = S.ray_crossing_arrays(
            ox, oy, dx, dy, [site], 100.0)
        # through the centre; a miss; pointing away; starting inside; a
        # tangent (discriminant exactly 0), which the scalar test skips
        assert hit[:, 0].tolist() == [True, False, False, True, False]
        assert (entry[0, 0], exit_[0, 0], chord[0, 0]) == (5.0, 15.0, 10.0)
        assert (entry[3, 0], exit_[3, 0], chord[3, 0]) == (0.0, 3.0, 10.0)
        assert not S.ray_circle_crossings((0.0, 5.0), 0.0, [site], 100.0)
        # a cell entered exactly at max_range is not crossed, one just
        # inside it is, clipped to max_range
        for max_range, crossed in ((5.0, False), (5.5, True)):
            hit, entry, exit_, _ = S.ray_crossing_arrays(
                ox[:1], oy[:1], dx[:1], dy[:1], [site], max_range)
            assert hit[0, 0] == crossed
            assert bool(S.ray_circle_crossings((0.0, 0.0), 0.0, [site],
                                               max_range)) == crossed
        assert exit_[0, 0] == 5.5

    @pytest.mark.parametrize("n_mues,speed,message", [
        (0, 8.0, "user"), (-2, 8.0, "user"), (5, -5.0, "speed"),
        (5, float("nan"), "speed"), (5, float("inf"), "speed")])
    def test_bad_users_or_speed_raise(self, n_mues, speed, message):
        with pytest.raises(ConfigError, match=message):
            E.build_region_instance(REGION, n_mues, speed,
                                    np.random.default_rng(1))


class TestCommonRandomNumbers:
    """A replication evaluated at many speeds equals one run per speed."""

    SPEEDS = (2.0, 8.0, 10.0, 12.0)
    # 20 users at some speeds and every user count at others, as a joint
    # run of every region curve has them
    MIXED = ((2.0, (20,)), (8.0, E.USER_COUNTS), (10.0, (20,)),
             (12.0, E.USER_COUNTS))

    def test_region_replication_per_speed(self):
        # 5 seeds x 2 reps x (3 user counts x 4 speeds + 4 mixed points)
        # = 160 cases
        cases = [(n_mues, [(v, (n_mues,)) for v in self.SPEEDS])
                 for n_mues in (5, 20, 50)] + [(50, self.MIXED)]
        for seed in range(1, 6):
            cfg = ScenarioConfig(seed=seed)
            for n_mues, points in cases:
                for rep in range(2):
                    key = (4, n_mues, rep)
                    joint = E._region_replication(cfg, key, points)
                    assert set(joint) == {(v, n) for v, users in points
                                          for n in users}
                    for v, users in points:
                        alone = E._region_replication(cfg, key,
                                                      ((v, users),))
                        assert alone == {(v, n): joint[v, n]
                                         for n in users}, (seed, key, v)

    def test_region_replication_per_user_count(self):
        # 5 seeds x 3 keys x 2 reps x (10 user counts x 4 speeds + 22
        # mixed points) = 1,860 cases: one draw of 50 users, matched on
        # its first u users, against an instance of exactly u users
        users = tuple(range(5, 55, 5))
        for seed in range(1, 6):
            cfg = ScenarioConfig(seed=seed)
            for experiment_key in (4, 5, 6):
                for rep in range(2):
                    key = (experiment_key, rep)
                    for points in ([(v, users) for v in self.SPEEDS],
                                   self.MIXED):
                        joint = E._region_replication(cfg, key, points)
                        for u in users:
                            own = [(v, (u,)) for v, counts in points
                                   if u in counts]
                            alone = E._region_replication(cfg, key, own)
                            assert alone == {(v, u): joint[v, u]
                                             for v, _ in own}, (seed, key, u)

    def test_speed_replication_per_speed(self):
        # 4 seeds x 5 reps x 17 speeds = 340 cases
        speeds = tuple(sorted(set(round(s, 4) for s in
                                  list(range(1, 17)) + [60.0 / 3.6])))
        assert len(speeds) == 17
        for seed in range(1, 5):
            cfg = ScenarioConfig(seed=seed)
            for rep in range(5):
                joint = E._speed_replication(cfg, rep, speeds)
                assert len(joint) == len(speeds)
                for i, v in enumerate(speeds):
                    alone = E._speed_replication(cfg, rep, (v,))
                    assert joint[i] == alone[0], (seed, rep, v)

    def test_walk_traced_once(self, monkeypatch):
        # 4 seeds x 50 reps x 17 speeds = 3,400 cases: the walk traced once
        # at the fastest speed, taken at each speed, against a walk traced
        # for that speed alone
        speeds = tuple(sorted(set(round(s, 4) for s in
                                  list(range(1, 17)) + [60.0 / 3.6])))
        traced, fills = [], []
        trace_walk, cache_fill = E.trace_walk, E.caching.cache_fill

        def capture(scn, origin, heading, max_range):
            walk = trace_walk(scn, origin, heading, max_range)
            traced.append(walk)
            return walk

        def record_fill(*args):
            fills.append(args)
            return cache_fill(*args)

        def taken(walk, v):
            """A walk's stats at speed v and the cache fills it made."""
            fills.clear()
            stats = E.simulate_trajectory(walk, v, cfg.frame)
            return stats, list(fills)

        monkeypatch.setattr(E, "trace_walk", capture)
        monkeypatch.setattr(E.caching, "cache_fill", record_fill)
        clipped = 0
        for seed in range(1, 5):
            cfg = ScenarioConfig(seed=seed)
            for rep in range(50):
                traced.clear()
                joint = E._speed_replication(cfg, rep, speeds)
                (walk,) = traced
                assert walk.max_range == max(speeds) * cfg.frame
                for v, pair in zip(speeds, joint):
                    alone = taken(trace_walk(walk.scn, walk.origin,
                                             walk.heading, v * cfg.frame), v)
                    assert pair == (alone[0].conventional_failures,
                                    alone[0].failures), (seed, rep, v)
                    # the same entries and the same fills, bit for bit
                    assert taken(walk, v) == alone, (seed, rep, v)
                    reach = v * cfg.frame
                    clipped += any(a < reach < b for segs in walk.segments
                                   for a, b in segs)
        # some speeds end their walk inside a beam segment
        assert clipped > 0

    def test_rates_computed_once_per_walk(self, monkeypatch):
        # 3 seeds x 20 reps at all 17 speeds: each beam segment's midpoint
        # rate is computed once per walk, and again only where a speed's
        # reach cuts the segment in a cell the cached user fills from
        speeds = tuple(sorted(set(round(s, 4) for s in
                                  list(range(1, 17)) + [60.0 / 3.6])))
        traced, taken, rates = [], [], []
        trace_walk, simulate = E.trace_walk, E.simulate_trajectory
        instantaneous_rate = E.instantaneous_rate

        def capture_walk(*args):
            traced.append(trace_walk(*args))
            return traced[-1]

        def capture_stats(walk, v, duration):
            taken.append((v * duration, simulate(walk, v, duration)))
            return taken[-1][1]

        def count_rate(*args):
            rates.append(args)
            return instantaneous_rate(*args)

        monkeypatch.setattr(E, "trace_walk", capture_walk)
        monkeypatch.setattr(E, "simulate_trajectory", capture_stats)
        monkeypatch.setattr(E, "instantaneous_rate", count_rate)
        total_cut = 0
        for seed in range(1, 4):
            cfg = ScenarioConfig(seed=seed)
            for rep in range(20):
                for captured in (traced, taken, rates):
                    captured.clear()
                E._speed_replication(cfg, rep, speeds)
                (walk,) = traced
                assert len(taken) == len(speeds)
                cut = 0
                for reach, stats in taken:
                    # entries[i] is the entry into walk.crossings[i]
                    for entry, segs in zip(stats.entries, walk.segments):
                        fills = not entry.skipped and entry.tos >= cfg.t_mts
                        cut += fills and any(a < reach < b for a, b in segs)
                segments = sum(len(segs) for segs in walk.segments)
                assert len(rates) == segments + cut, (seed, rep)
                assert [len(r) for r in walk.rates] == \
                    [len(s) for s in walk.segments]
                total_cut += cut
        assert total_cut > 0

    def test_walk_past_its_range_raises(self):
        scn = S.generate_scenario(ScenarioConfig(seed=6))
        walk = E.trace_walk(scn, (-170.0, 0.0), 0.0, 600.0)
        assert E.simulate_trajectory(walk, 10.0, 60.0).crossings > 0
        for speed, duration in ((10.0, 60.5), (math.nextafter(10.0, 11.0),
                                               60.0), (17.0, 60.0)):
            with pytest.raises(ValueError, match="traced to"):
                E.simulate_trajectory(walk, speed, duration)

    def test_instances_differ_only_in_speed(self):
        for seed in range(10):
            for n_mues in (1, 5, 30):
                rng_a = np.random.default_rng(seed)
                rng_b = np.random.default_rng(seed)
                slow = E.build_region_instance(REGION, n_mues, 8.0, rng_a)
                fast = E.build_region_instance(REGION, n_mues, 12.0, rng_b)
                assert {m.speed for m in slow.game.mues} == {8.0}
                assert {m.speed for m in fast.game.mues} == {12.0}
                respeeded = replace(slow.game, mues=tuple(
                    m._replace(speed=12.0) for m in slow.game.mues))
                assert replace(slow, game=respeeded) == fast, (seed, n_mues)
                assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestRegionKnifeEdge:
    """At the defaults a full cache plays exactly one scan interval."""

    def test_default_users_have_gamma_zero_and_spawn_priority(self):
        cfg = ScenarioConfig()
        assert cfg.cache_capacity / cfg.play_rate == cfg.scan_interval
        for seed in range(10):
            for n_mues, speed in ((1, 8.0), (50, 10.0)):
                region = E.build_region_instance(
                    cfg, n_mues, speed, np.random.default_rng(seed))
                scores = M.build_preferences(region.game)
                assert [scores.gamma(u) for u in range(n_mues)] \
                    == [0.0] * n_mues
                assert scores.priority() == list(range(n_mues))


@pytest.fixture
def fresh_pool():
    """No shared pool before the test, and none left behind by it."""
    E._close_pool()
    yield
    E._close_pool()


def worker_pid(cfg, index):
    return os.getpid()


class TestExperiments:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            E.run_experiment("nope", ScenarioConfig())

    def test_rate_vs_distance_columns(self):
        res = E.run_experiment("rate_vs_distance", ScenarioConfig(seed=1),
                               replications=1)
        assert "distance_m" in res.columns
        assert any(k.startswith("rate_los_gbps") for k in res.columns)
        csv = res.to_csv()
        assert csv.splitlines()[0].startswith("distance_m,")

    def test_small_region_experiment_runs(self):
        res = E.run_experiment("load_vs_users", ScenarioConfig(seed=1),
                               replications=2)
        assert res.columns["n_mues"] == [float(u) for u in range(5, 55, 5)]
        assert all(0.0 <= x <= 10.0 for x in res.columns["load_v8"])

    def test_experiment_determinism(self):
        a = E.run_experiment("hof_multiuser", ScenarioConfig(seed=4),
                             replications=2)
        b = E.run_experiment("hof_multiuser", ScenarioConfig(seed=4),
                             replications=2)
        assert a.to_csv() == b.to_csv()

    def test_trajectory_counts(self):
        cfg = ScenarioConfig(seed=6)
        scn = S.generate_scenario(cfg)
        walk = E.trace_walk(scn, (-400.0, 0.0), 0.0, 16.0 * 60.0)
        stats = E.simulate_trajectory(walk, 16.0, 60.0)
        assert stats.crossings > 0
        assert stats.attempts + stats.skips == stats.crossings
        assert stats.failures <= stats.conventional_failures \
            <= stats.crossings
        assert len(stats.entries) == stats.crossings

    def test_worker_pool_matches_sequential(self, monkeypatch):
        # two CPUs, so threads=2 runs on a real pool on any machine
        monkeypatch.setattr(E.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        cfg = ScenarioConfig(seed=4)
        for name in ("energy_vs_users", "hof_vs_speed", "hof_multiuser",
                     "load_vs_users", "overhead_vs_users"):
            seq = E.run_experiment(name, cfg, replications=2, threads=1)
            par = E.run_experiment(name, cfg, replications=2, threads=2)
            assert seq.to_csv() == par.to_csv(), name

    def test_one_pool_per_process(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(E.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        events = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.size = max_workers
                events.append(("start", max_workers))

            def shutdown(self, *args, **kwargs):
                events.append(("shutdown", self.size))
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        cfg = ScenarioConfig(seed=2)
        E.run_experiment("load_vs_users", cfg, 2, threads=2)
        E.run_experiment("hof_vs_speed", cfg, 2, threads=2)
        E.run_experiments(E.EXPERIMENT_NAMES, cfg, 2, threads=2)
        assert events == [("start", 2)]
        # a call that needs 3 workers replaces the pool of 2
        E.run_experiment("hof_vs_speed", cfg, 3, threads=3)
        assert events == [("start", 2), ("shutdown", 2), ("start", 3)]

    def test_killed_worker_breaks_one_call(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(E.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        cfg = ScenarioConfig(seed=4)
        pid = E._map_jobs(worker_pid, cfg, [(i,) for i in range(8)], 2)[0]
        os.kill(pid, signal.SIGKILL)
        # the pool reaps its workers once it has seen one die
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        jobs = [(rep, (4.0, 12.0)) for rep in range(3)]
        with pytest.raises(BrokenProcessPool):
            E._map_jobs(E._speed_replication, cfg, jobs, 2)
        assert E._map_jobs(E._speed_replication, cfg, jobs, 2) == \
            [E._speed_replication(cfg, *job) for job in jobs]

    def test_pool_shut_down_at_exit(self):
        # a child interpreter on two CPUs: its workers end with it, and
        # nothing is printed while the pool is torn down
        script = textwrap.dedent("""
            import multiprocessing, os
            from mmwcache import experiments as E
            from mmwcache.config import ScenarioConfig
            os.sched_getaffinity = lambda pid: {0, 1}
            E.run_experiment("hof_vs_speed", ScenarioConfig(seed=1), 2,
                             threads=2)
            print(*[p.pid for p in multiprocessing.active_children()])
        """)
        src = os.path.dirname(os.path.dirname(E.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_pool_size_is_bounded(self, monkeypatch, fresh_pool):
        sizes = []

        class InlinePool:
            """Records the requested size and runs every job in-process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, *iterables, chunksize=1):
                assert chunksize >= 1
                return map(fn, *iterables)

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        cfg = ScenarioConfig(seed=3)
        seq = E.run_experiment("hof_vs_speed", cfg, 40, threads=1).to_csv()
        # hof_vs_speed at 40 reps maps 40 jobs, one replication each
        for threads, cpus, expected in ((5000, 4, [4]), (3, 64, [3]),
                                        (5000, 5000, [40]), (2, 1, [])):
            sizes.clear()
            monkeypatch.setattr(E.os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)),
                                raising=False)
            res = E.run_experiment("hof_vs_speed", cfg, 40, threads=threads)
            assert sizes == expected, (threads, cpus)
            assert res.to_csv() == seq

    @pytest.mark.parametrize("name,reps,threads,overrides,message", [
        ("load_vs_users", 2, 0, {}, "threads"),
        ("hof_vs_speed", 2, -3, {}, "threads"),
        ("load_vs_users", 0, 1, {}, "replications"),
        ("rate_vs_distance", 0, 1, {}, "replications"),
        ("hof_vs_speed", 1, 1, {}, "stderr_nocache"),
        ("hof_multiuser", 2, 2, {"n_sbs": 0}, "n_sbs"),
        ("rate_vs_distance", 1, 1, {"n_beams": 1}, "n_beams"),
        ("rate_vs_distance", 1, 1, {"beamwidth_deg": 20.0}, "beamwidth_deg"),
        # a bad value in a later name stops the earlier ones too
        (E.EXPERIMENT_NAMES[2:] + ("hof_vs_speed",), 1, 2, {},
         "stderr_nocache"),
        (E.EXPERIMENT_NAMES[2:] + ("rate_vs_distance",), 2, 1,
         {"n_beams": 1}, "n_beams")])
    def test_bad_run_raises_before_work(self, monkeypatch, fresh_pool, name,
                                        reps, threads, overrides, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(E, "generate_scenario", no_work)
        cfg = replace(ScenarioConfig(seed=1), **overrides)
        with pytest.raises(ConfigError, match=message):
            if isinstance(name, str):
                E.run_experiment(name, cfg, reps, threads=threads)
            else:
                E.run_experiments(name, cfg, reps, threads=threads)

    def test_unknown_later_name_raises_before_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(E, "generate_scenario", no_work)
        with pytest.raises(ValueError, match="nope"):
            E.run_experiments(("load_vs_users", "nope"), ScenarioConfig(), 2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_experiments_matches_run_experiment(self, monkeypatch,
                                                    threads):
        # the user sweeps cut from one sweep equal each one run on its own
        monkeypatch.setattr(E.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        cfg = ScenarioConfig(seed=4)
        together = E.run_experiments(E.EXPERIMENT_NAMES, cfg, 3, threads)
        assert [r.name for r in together] == list(E.EXPERIMENT_NAMES)
        for result in together:
            alone = E.run_experiment(result.name, cfg, 3, threads)
            assert result.to_csv() == alone.to_csv(), result.name
            assert result.replication_count == alone.replication_count
            assert result.runtime_s > 0.0

    def test_user_sweeps_share_one_replication(self, monkeypatch):
        calls = []
        replication = E._region_replication

        def recording(cfg, seed_key, points):
            calls.append((seed_key, tuple(points)))
            return replication(cfg, seed_key, points)

        monkeypatch.setattr(E, "_region_replication", recording)
        cfg = ScenarioConfig(seed=1)
        users = tuple(range(5, 55, 5))
        # every speed of hof_multiuser, with every user count at the
        # user sweeps' speeds
        E.run_experiments(E.EXPERIMENT_NAMES, cfg, 2)
        assert calls == [((4, rep), tuple(
            (float(v), users if v in (2, 8, 10, 12) else (20,))
            for v in range(1, 17))) for rep in range(2)]
        calls.clear()
        E.run_experiment("hof_multiuser", cfg, 2)
        assert calls == [((4, rep), tuple((float(v), (20,))
                                          for v in range(1, 17)))
                         for rep in range(2)]
        for names in (("energy_vs_users", "load_vs_users"),
                      ("load_vs_users",)):
            calls.clear()
            E.run_experiments(names, cfg, 2)
            assert calls == [((4, rep), tuple((v, users)
                                              for v in (8.0, 10.0, 12.0)))
                             for rep in range(2)]

    def test_rate_sweep_los_anchor_at_20m(self):
        res = E.run_experiment("rate_vs_distance", ScenarioConfig(seed=1),
                               replications=1)
        idx = res.columns["distance_m"].index(20.0)
        for key, col in res.columns.items():
            if key.startswith("rate_los"):
                assert col[idx] > 10.0


def event_lines(stats, t_mts, caching):
    """The simulate CSV rows of one walk, for one of its two users."""
    lines = []
    for entry in stats.entries:
        if caching and entry.skipped:
            kind = "skip"
        else:
            kind = "hof" if entry.tos < t_mts else "ho"
        lines.append(f"{entry.time:.3f},{kind},{entry.cell},{entry.tos:.3f}")
    return lines


class TestOneWalk:
    """One walk against the reference copy's two walks, crossing by crossing."""

    @staticmethod
    def walks():
        """180 walks on each config: rim, field and in-cell origins."""
        rng = np.random.default_rng(31)
        for cfg in (REGION, WIDE_AREA):
            for seed in range(1, 31):
                scn = S.generate_scenario(replace(cfg, seed=seed))
                area = cfg.area_radius
                for kind in ("rim", "field", "cell") * 2:
                    phi = rng.uniform(0.0, 2.0 * math.pi)
                    heading = rng.uniform(0.0, 2.0 * math.pi)
                    if kind == "rim":
                        origin = (0.9 * area * math.cos(phi),
                                  0.9 * area * math.sin(phi))
                        heading = phi + math.pi + rng.uniform(-0.4, 0.4)
                    elif kind == "field":
                        r = area * math.sqrt(rng.uniform())
                        origin = (r * math.cos(phi), r * math.sin(phi))
                    else:
                        site = scn.sbss[int(rng.integers(len(scn.sbss)))]
                        r = 0.9 * site.radius * math.sqrt(rng.uniform())
                        origin = (site.position[0] + r * math.cos(phi),
                                  site.position[1] + r * math.sin(phi))
                    yield scn, origin, heading, rng.uniform(1.0, 17.0)

    def test_matches_two_walks(self):
        walks = skips = failures = in_cell = 0
        for scn, origin, heading, speed in self.walks():
            frame = scn.config.frame
            t_mts = scn.config.t_mts
            new = E.simulate_trajectory(
                E.trace_walk(scn, origin, heading, speed * frame), speed,
                frame)
            plain, cached = (
                R.simulate_trajectory(scn, origin, heading, speed, frame,
                                      caching_enabled=caching,
                                      collect_events=True)
                for caching in (False, True))
            assert (new.crossings, new.attempts, new.failures, new.skips) \
                == (cached.crossings, cached.attempts, cached.failures,
                    cached.skips)
            assert (new.crossings, new.conventional_failures) \
                == (plain.crossings, plain.failures)
            assert event_lines(new, t_mts, caching=True) == cached.events
            assert event_lines(new, t_mts, caching=False) == plain.events
            walks += 1
            skips += new.skips
            failures += new.failures
            in_cell += bool(new.entries) and new.entries[0].time == 0.0
        assert walks == 360
        # the walks reach every branch: skips, failed attempts, and
        # origins inside a cell
        assert skips > 0 and failures > 0 and in_cell > 0

    def test_simulate_csv_matches_two_walks(self, tmp_path, monkeypatch,
                                            capsys):
        walks = []
        one_walk = E.simulate_trajectory

        def capture(*args):
            walks.append(args)
            return one_walk(*args)

        monkeypatch.setattr(E, "simulate_trajectory", capture)
        for seed in range(1, 11):
            for no_caching in (False, True):
                argv = ["simulate", "--seed", str(seed),
                        "--speed", str(1.0 + 1.6 * seed),
                        "--out", str(tmp_path)]
                rc = main(argv + (["--no-caching"] if no_caching else []))
                assert rc == 0
                walk, speed, duration = walks[-1]
                ref = R.simulate_trajectory(walk.scn, walk.origin,
                                            walk.heading, speed, duration,
                                            caching_enabled=not no_caching,
                                            collect_events=True)
                csv = (tmp_path / "simulate_events.csv").read_text()
                assert csv == "\n".join(["time_s,event,cell,tos_s"]
                                        + ref.events) + "\n"
                assert capsys.readouterr().out.endswith(
                    f": crossings={ref.crossings} attempts={ref.attempts} "
                    f"failures={ref.failures} skips={ref.skips}\n")
        assert len(walks) == 20
