import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest

from mmwcache.config import ConfigError, ScenarioConfig
from mmwcache import scenario as S
from mmwcache import experiments as E
from mmwcache.cli import main
import reference_trajectory as R


def scalar_generate_scenario(config, seed):
    """Reference sampler: one scalar draw per number, all-pairs spacing test.

    Returns the scenario and the number of placement tries it took.
    """
    rng = np.random.default_rng(seed)
    positions = []
    tries = 0
    while len(positions) < config.n_sbs:
        tries += 1
        r = config.area_radius * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        candidate = (r * math.cos(phi), r * math.sin(phi))
        if all(math.hypot(candidate[0] - p[0], candidate[1] - p[1])
               >= config.min_intercell for p in positions):
            positions.append(candidate)
    sbss = []
    for i, pos in enumerate(positions):
        power = float(rng.choice(config.sbs_powers_dbm))
        anchor = float(rng.uniform(0.0, 2.0 * math.pi))
        sbss.append(S.SbsSite(
            index=i, position=pos, power_dbm=power,
            radius=S.uw_cell_radius(power, config), anchor_angle=anchor))
    mues = []
    for _ in range(config.n_mues):
        r = config.area_radius * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        mues.append(S.Pose(
            x=r * math.cos(phi), y=r * math.sin(phi),
            heading=float(rng.uniform(0.0, 2.0 * math.pi)),
            speed=float(rng.uniform(config.speed_min, config.speed_max))))
    return S.Scenario(config=config, sbss=tuple(sbss), mues=tuple(mues)), tries


def loop_build_region_instance(config, n_mues, speed, rng):
    """Reference region instance: scalar draws and one crossing list per user.

    The per-user loop `experiments.build_region_instance` had before its
    draws and crossings were batched.
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
        heading = beta + 0.5 * math.pi + rng.uniform(0.0, math.pi)
        v = speed if speed is not None else float(
            rng.uniform(config.speed_min, config.speed_max))
        crossings = S.ray_circle_crossings(spawn, heading, scn.sbss,
                                           max_range=20.0 * config.area_radius)
        focal_cross = next(c for c in crossings if c.sbs == focal.index)
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
            speed=v, segments=config.cache_capacity,
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
    return E.RegionInstance(game=game, focal=0, focal_chords=chords)


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


class TestGeneration:
    def test_determinism(self):
        cfg = ScenarioConfig(seed=5, n_mues=4)
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

    # 70 sites never fit in the first block of 2 * n_sbs + 64 tries
    @pytest.mark.parametrize("cfg", [
        REGION, WIDE_AREA, ScenarioConfig(min_intercell=0.0),
        ScenarioConfig(n_mues=5), ScenarioConfig(n_sbs=70)],
        ids=["region", "wide_area", "no_spacing", "five_mues",
             "seventy_sites"])
    def test_matches_scalar_sampler(self, cfg):
        for seed in range(500):
            ref, _ = scalar_generate_scenario(cfg, seed)
            scn = S.generate_scenario(cfg, seed=seed)
            # the reprs print every field of every site and pose, each
            # float exactly
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


class TestBatchedRegion:
    def test_matches_per_user_loop(self):
        # 1,000 seeds, each (users, speed) case on every 12th of them
        cases = [(n, v) for n in (1, 2, 5, 20, 50, 120) for v in (8.0, None)]
        for seed in range(1000):
            n_mues, speed = cases[seed % len(cases)]
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
                ref = S.ray_circle_crossings(origin, heading, sites,
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
        stats = E.simulate_trajectory(scn, (-400.0, 0.0), 0.0, 16.0, 60.0)
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

    def test_one_pool_per_experiment(self, monkeypatch):
        monkeypatch.setattr(E.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        starts = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                starts.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        for name, reps in (("load_vs_users", 1), ("hof_vs_speed", 2)):
            starts.clear()
            E.run_experiment(name, ScenarioConfig(seed=2), reps, threads=2)
            assert starts == [2], name

    def test_pool_size_is_bounded(self, monkeypatch):
        sizes = []

        class InlinePool:
            """Records the requested size and runs every job in-process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                assert chunksize >= 1
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        cfg = ScenarioConfig(seed=3)
        seq = E.run_experiment("hof_vs_speed", cfg, 2, threads=1).to_csv()
        # hof_vs_speed at 2 reps maps 17 speeds x 2 reps = 34 jobs
        for threads, cpus, expected in ((5000, 4, [4]), (3, 64, [3]),
                                        (5000, 5000, [34]), (2, 1, [])):
            sizes.clear()
            monkeypatch.setattr(E.os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)),
                                raising=False)
            res = E.run_experiment("hof_vs_speed", cfg, 2, threads=threads)
            assert sizes == expected, (threads, cpus)
            assert res.to_csv() == seq

    @pytest.mark.parametrize("name,reps,threads,overrides,message", [
        ("load_vs_users", 2, 0, {}, "threads"),
        ("hof_vs_speed", 2, -3, {}, "threads"),
        ("load_vs_users", 0, 1, {}, "replications"),
        ("rate_vs_distance", 0, 1, {}, "replications"),
        ("hof_vs_speed", 1, 1, {}, "stderr_nocache"),
        ("hof_multiuser", 2, 2, {"n_sbs": 0}, "n_sbs")])
    def test_bad_run_raises_before_work(self, monkeypatch, name, reps,
                                        threads, overrides, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(E, "generate_scenario", no_work)
        cfg = replace(ScenarioConfig(seed=1), **overrides)
        with pytest.raises(ConfigError, match=message):
            E.run_experiment(name, cfg, reps, threads=threads)

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
            new = E.simulate_trajectory(scn, origin, heading, speed, frame)
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
                ref = R.simulate_trajectory(*walks[-1],
                                            caching_enabled=not no_caching,
                                            collect_events=True)
                csv = (tmp_path / "simulate_events.csv").read_text()
                assert csv == "\n".join(["time_s,event,cell,tos_s"]
                                        + ref.events) + "\n"
                assert capsys.readouterr().out.endswith(
                    f": crossings={ref.crossings} attempts={ref.attempts} "
                    f"failures={ref.failures} skips={ref.skips}\n")
        assert len(walks) == 20
