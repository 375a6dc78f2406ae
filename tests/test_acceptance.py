"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a PASS line when its assertions hold (pytest -s shows them);
heavy experiment sweeps run once per session and are shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from mmwcache import geometry as G
from mmwcache import matching as M
from mmwcache import oracle as O
from mmwcache import radio as R
from mmwcache.config import ScenarioConfig
from mmwcache.experiments import EXPERIMENT_NAMES, run_experiments
from mmwcache.testutil import random_game_instance
from conftest import example1_instance

SEED = 20260810


def _report(name, detail):
    print(f"[PASS] {name}: {detail}")


@pytest.fixture(scope="module")
def full_runs():
    """All experiments at full replication count, timed for criterion 10."""
    config = ScenarioConfig(seed=SEED)
    start = time.perf_counter()
    results = dict(zip(EXPERIMENT_NAMES,
                       run_experiments(EXPERIMENT_NAMES, config)))
    results["_elapsed"] = time.perf_counter() - start
    return results


def test_criterion_1_coverage_closed_form_vs_monte_carlo():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
            theta = frac * 2.0 * math.pi / n
            analytic = G.beam_coverage_probability(n, theta)
            estimate, _ = O.mc_coverage_probability(n, theta, 100_000,
                                                    seed=SEED)
            worst = max(worst, abs(analytic - estimate))
    anchor, _ = O.mc_coverage_probability(3, 2 * math.pi / 3, 100_000,
                                          seed=SEED)
    elapsed = time.perf_counter() - start
    assert worst < 0.01
    assert anchor == 1.0
    assert elapsed < 5.0
    _report("criterion 1",
            f"max |closed form - MC| = {worst:.4f} over 5x5 grid, "
            f"anchor exact, {elapsed:.1f} s")


def test_criterion_2_caching_duration_cdf():
    start = time.perf_counter()
    theta_k = math.radians(10.0)
    beam = G.BeamGeometry(n_beams=3, beamwidth=theta_k, anchor_angle=theta_k)
    worst_ks = 0.0
    for r in (10.0, 20.0, 40.0):
        pose = G.entry_pose(beam, r, heading=beam.anchor_angle + 1.0,
                            speed=10.0)
        emp = O.mc_caching_duration(pose, beam, 100_000, seed=SEED)
        ks = emp.ks_distance(
            lambda t: G.caching_duration_cdf(pose, beam, t))
        worst_ks = max(worst_ks, ks)
        grid = np.linspace(0.0, 50.0, 1000)
        values = [G.caching_duration_cdf(pose, beam, t) for t in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    elapsed = time.perf_counter() - start
    assert worst_ks < 0.02
    assert elapsed < 10.0
    _report("criterion 2",
            f"max KS distance = {worst_ks:.4f} at 1e5 samples, monotone on "
            f"1000-point grid, {elapsed:.1f} s")


def test_criterion_3_rate_closed_form_vs_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    budget = R.LinkBudget.from_table()
    params = R.ChannelParams.los_mmw()
    worst = 0.0
    for _ in range(1000):
        theta_k = rng.uniform(math.radians(2), math.radians(25))
        beam = G.BeamGeometry(n_beams=3, beamwidth=theta_k,
                              anchor_angle=theta_k)
        theta_hat = rng.uniform(theta_k + 0.05,
                                0.5 * (math.pi + theta_k) - 0.05)
        pose = G.entry_pose(beam, rng.uniform(5.0, 60.0), heading=theta_hat,
                            speed=rng.uniform(1.0, 16.0))
        closed = R.average_caching_rate(pose, beam, budget, params)
        quad = R.quadrature_rate(pose, beam, budget, params)
        worst = max(worst, abs(closed - quad) / abs(quad))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    _report("criterion 3",
            f"max relative error = {worst:.2e} over 1000 geometries, "
            f"{elapsed:.1f} s")


def test_criterion_4_rate_anchors():
    budget = R.LinkBudget.from_table(tx_power_dbm=30.0)
    los = R.ChannelParams.los_mmw()
    nlos = R.ChannelParams(pathloss_exponent=3.5)
    theta_k = math.radians(10.0)
    beam = G.BeamGeometry(n_beams=3, beamwidth=theta_k, anchor_angle=theta_k)
    speed = 60.0 / 3.6
    tested = (10.5, 20.0, 30.0, 50.0, 70.0)   # crossing angles, degrees
    los_rates = []
    for deg in tested:
        pose = G.entry_pose(beam, 20.0, heading=math.radians(deg), speed=speed)
        los_rates.append(R.average_caching_rate(pose, beam, budget, los))
    assert all(rate > 10e9 for rate in los_rates)
    grazing = G.entry_pose(beam, 20.0, heading=math.radians(10.5), speed=speed)
    nlos_rate = R.average_caching_rate(grazing, beam, budget, nlos)
    assert 1e9 < nlos_rate < 4e9
    _report("criterion 4",
            f"LoS at 20 m: {min(los_rates) / 1e9:.1f}-"
            f"{max(los_rates) / 1e9:.1f} Gbps (>10); "
            f"NLoS {nlos_rate / 1e9:.2f} Gbps in [1, 4]")


def test_criterion_5_hof_geometry():
    worst = 0.0
    for v in (4.0, 8.0, 16.0):
        emp, _ = O.mc_hof_frequency(v, 1.0, 30.0, 100_000, seed=SEED)
        worst = max(worst, abs(emp - G.hof_probability(v, 1.0, 30.0)))
    assert worst < 0.01
    _report("criterion 5",
            f"max |MC - formula| = {worst:.4f} at 1e5 chords")


def test_criterion_6_single_user_hof_reduction(full_runs):
    res = full_runs["hof_vs_speed"]
    speeds = res.columns["speed_mps"]
    idx = min(range(len(speeds)), key=lambda i: abs(speeds[i] - 60.0 / 3.6))
    assert abs(speeds[idx] - 60.0 / 3.6) < 1e-3
    reduction = res.columns["reduction"][idx]
    assert res.replication_count == 200
    assert reduction >= 0.35
    assert res.runtime_s < 120.0
    _report("criterion 6",
            f"HOF reduction at 60 km/h = {reduction:.1%} (>= 35%), "
            f"200 replications in {res.runtime_s:.0f} s")


def test_criterion_7_stability_theorems():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        instance = random_game_instance(rng)
        result = M.dynamic_match(instance)
        report = O.scan_all_blockings(result.matching, instance)
        assert report.stable
        mu, _ = M.deferred_acceptance(instance)
        assert not M.find_single_period_blocking(mu, instance)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion 7",
            f"zero blocking pairs over 1000 random instances, "
            f"{elapsed:.1f} s")


def test_criterion_8_worked_example_golden():
    instance = example1_instance()
    prefs = M.build_preferences(instance)
    k0, k1, mbs = M.sbs_id(0), M.sbs_id(1), M.MBS
    assert prefs.mue_profiles[0].ranked_plans == (
        M.Plan(k0, mbs), M.Plan(k0, None), M.Plan(None, mbs))
    assert prefs.mue_profiles[1].ranked_plans == (
        M.Plan(k0, None), M.Plan(None, k1))
    assert prefs.sbs_profiles[0].ranked_mues == (0, 1)
    assert prefs.sbs_profiles[1].ranked_mues == (1,)
    assert prefs.mbs_profile.ranked_mues == (0,)

    result = M.dynamic_match(instance)
    assert result.matching.mu1 == {0: k0, 1: None}
    assert result.matching.mu2 == {0: mbs, 1: k1}

    blocks = M.find_blocking_pairs(result.ex_ante, instance, period=2)
    assert any(v.mue == 0 and v.bs == mbs for v in blocks)
    assert O.scan_all_blockings(result.matching, instance).stable

    variant = example1_instance(epsilon=0.01)
    alt = M.dynamic_match(variant)
    assert alt.matching.mu1 == {0: k0, 1: None}
    assert alt.matching.mu2 == {0: None, 1: k1}
    assert O.scan_all_blockings(alt.matching, variant).stable
    _report("criterion 8",
            "printed profiles, two-stage resolution, ex-ante period-2 "
            "block, and the epsilon-variant all reproduced")


def test_criterion_9_brute_force_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    gaps = []
    for _ in range(500):
        game = random_game_instance(rng, max_mues=6, max_sbss=3)
        result = M.dynamic_match(game)
        ilp = O.ilp_from_game(game)
        assignment = O.assignment_from_period1(result.matching, game)
        assert O.check_assignment(ilp, assignment)
        macro = sum(1 for c in assignment if c == O.MBS_CHOICE)
        optimum = O.solve_offload_bruteforce(ilp).objective
        assert macro >= optimum
        gaps.append(macro - optimum)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion 9",
            f"500 instances feasible, macro count >= optimum "
            f"(mean gap {np.mean(gaps):.3f}), {elapsed:.1f} s")


def test_criterion_10a_multiuser_hof_decline(full_runs):
    res = full_runs["hof_multiuser"]
    speeds = np.array(res.columns["speed_mps"])
    hof = np.array(res.columns["hof_prob_proposed"])
    tail = speeds >= 8.0
    slope = np.polyfit(speeds[tail], hof[tail], 1)[0]
    at8 = hof[speeds == 8.0][0]
    at16 = hof[speeds == 16.0][0]
    far = hof[speeds >= 13.0].mean()
    near = hof[(speeds >= 8.0) & (speeds <= 11.0)].mean()
    assert slope < 0.0
    assert at16 < at8
    assert far < near
    _report("criterion 10a",
            f"multi-user HOF declines beyond 8 m/s: slope {slope:.2e}, "
            f"{at8:.4f} at 8 -> {at16:.4f} at 16 m/s")


def test_criterion_10b_load_drop(full_runs):
    res = full_runs["load_vs_users"]
    idx = res.columns["n_mues"].index(40.0)
    l8, l10 = res.columns["load_v8"][idx], res.columns["load_v10"][idx]
    drop = 1.0 - l10 / l8
    assert drop >= 0.30
    for i in range(len(res.columns["n_mues"])):
        assert res.columns["load_v8"][i] >= res.columns["load_v10"][i] - 0.25
        assert res.columns["load_v10"][i] >= res.columns["load_v12"][i] - 0.25
    _report("criterion 10b",
            f"target load at U=40 drops {drop:.1%} from 8 to 10 m/s "
            f"({l8:.2f} -> {l10:.2f}); load nonincreasing in speed")


def test_criterion_10c_energy_savings(full_runs):
    res = full_runs["energy_vs_users"]
    idx = res.columns["n_mues"].index(50.0)
    savings = {v: res.columns[f"savings_v{v}"][idx] for v in (8, 10, 12)}
    targets = {8: 0.80, 10: 0.52, 12: 0.29}
    for v, target in targets.items():
        assert abs(savings[v] - target) <= 0.15, (v, savings[v])
    assert res.columns["baseline_mj_v8"][idx] == pytest.approx(150.0)
    _report("criterion 10c",
            f"savings at U=50: {savings[8]:.0%}/{savings[10]:.0%}/"
            f"{savings[12]:.0%} within 15 pp of 80/52/29%; "
            f"baseline exactly 150 mJ")


def test_criterion_10d_overhead(full_runs):
    res = full_runs["overhead_vs_users"]
    idx = res.columns["n_mues"].index(50.0)
    proposals = res.columns["proposals_v8"][idx]
    assert proposals <= 20.0
    _report("criterion 10d",
            f"requests to the target at U=50, v=8: {proposals:.1f} (<= 20)")


def test_criterion_10_runtime(full_runs):
    assert full_runs["_elapsed"] < 600.0
    _report("criterion 10 runtime",
            f"full reproduce set in {full_runs['_elapsed']:.0f} s (< 600)")


def test_criterion_11_determinism(tmp_path):
    from mmwcache.cli import main
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main(["reproduce", "--seed", "99", "--replications", "3",
                   "--out", str(out)])
        assert rc == 0
        outs.append(out)
    compared = 0
    for name in sorted(p.name for p in outs[0].iterdir()):
        if name.endswith(".csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            compared += 1
    assert compared == len(EXPERIMENT_NAMES)
    _report("criterion 11",
            f"{compared} experiment CSVs byte-identical across repeated "
            f"runs with one seed")
