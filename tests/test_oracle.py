import math

import numpy as np
import pytest

from mmwcache import experiments as E
from mmwcache import geometry as G
from mmwcache import matching as M
from mmwcache import oracle as O
from mmwcache.config import ScenarioConfig
from mmwcache.testutil import random_game_instance
from conftest import example1_instance


class TestMcCoverage:
    def test_full_cover_exact(self):
        p, se = O.mc_coverage_probability(3, 2 * math.pi / 3, 100_000, seed=7)
        assert p == 1.0

    def test_two_beam_limit(self):
        p, se = O.mc_coverage_probability(2, 1e-9, 100_000, seed=7)
        assert abs(p - 0.25) <= 3 * se + 1e-12

    def test_hand_value(self):
        p, se = O.mc_coverage_probability(4, math.pi / 6, 100_000, seed=7)
        assert abs(p - 0.6111) <= 3 * se + 1e-4

    def test_binomial_convergence(self):
        exact = G.beam_coverage_probability(4, math.pi / 6)
        errors = []
        for samples in (2_000, 18_000, 162_000):
            ps = [O.mc_coverage_probability(4, math.pi / 6, samples, seed=s)[0]
                  for s in range(8)]
            errors.append(float(np.sqrt(np.mean((np.array(ps) - exact) ** 2))))
        assert errors[2] < errors[0]

    def test_seed_reproducibility(self):
        a = O.mc_coverage_probability(3, 0.1, 10_000, seed=5)
        b = O.mc_coverage_probability(3, 0.1, 10_000, seed=5)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            O.mc_coverage_probability(3, 0.1, 0, seed=1)
        with pytest.raises(ValueError):
            O.mc_coverage_probability(3, math.nan, 10, seed=1)


class TestMcCachingDuration:
    def setup_method(self):
        self.beam = G.BeamGeometry(n_beams=3, beamwidth=math.radians(10),
                                   anchor_angle=math.radians(10))
        self.pose = G.entry_pose(self.beam, 20.0,
                                 heading=self.beam.anchor_angle + 1.0,
                                 speed=10.0)

    def test_samples_respect_lower_bound(self):
        emp = O.mc_caching_duration(self.pose, self.beam, 20_000, seed=3)
        r_min = G.min_exit_distance(self.pose, self.beam)
        assert emp.samples.min() >= r_min / self.pose.speed - 1e-12

    def test_cdf_saturates(self):
        emp = O.mc_caching_duration(self.pose, self.beam, 20_000, seed=3)
        assert emp(float(np.max(emp.samples))) == 1.0

    def test_ks_against_analytic(self):
        emp = O.mc_caching_duration(self.pose, self.beam, 100_000, seed=3)
        ks = emp.ks_distance(
            lambda t: G.caching_duration_cdf(self.pose, self.beam, t))
        assert ks < 0.02


class TestChordSampling:
    def test_hof_frequency_matches_formula(self):
        for v in (4.0, 8.0, 16.0):
            p, se = O.mc_hof_frequency(v, 1.0, 30.0, 100_000, seed=int(v))
            assert abs(p - G.hof_probability(v, 1.0, 30.0)) < 0.01
        # v*t_mts >= 2a: every sampled chord is crossed too fast
        for v in (60.0, 61.0):
            p, se = O.mc_hof_frequency(v, 1.0, 30.0, 100_000, seed=int(v))
            assert p == G.hof_probability(v, 1.0, 30.0) == 1.0


class TestBruteForce:
    def test_single_user_feasible_sbs(self):
        inst = O.IlpInstance(
            mues=(O.IlpMue(speed=5.0, segments=0, p_th=0.2),),
            sbss=(O.IlpSbs(radius=30.0, quota=1),))
        best = O.solve_offload_bruteforce(inst)
        assert best.assignment == (0,)
        assert best.objective == 0

    def test_forced_to_macro(self):
        inst = O.IlpInstance(
            mues=(O.IlpMue(speed=16.0, segments=0, p_th=0.05),),
            sbss=(O.IlpSbs(radius=20.0, quota=1),),
            scan_interval=5.0)
        best = O.solve_offload_bruteforce(inst)
        assert best.assignment == (O.MBS_CHOICE,)
        assert best.objective == 1

    def test_budget_guard(self):
        inst = O.IlpInstance(
            mues=tuple(O.IlpMue(5.0, 0, 0.2) for _ in range(12)),
            sbss=tuple(O.IlpSbs(30.0, 1) for _ in range(3)),
            budget=1000)
        with pytest.raises(O.EnumerationBudgetExceeded):
            O.solve_offload_bruteforce(inst)

    def test_order_invariance(self):
        mues = (O.IlpMue(4.0, 0, 0.2), O.IlpMue(9.0, 6e3, 0.12),
                O.IlpMue(14.0, 0, 0.18))
        sbss = (O.IlpSbs(25.0, 1), O.IlpSbs(35.0, 1))
        a = O.solve_offload_bruteforce(O.IlpInstance(mues=mues, sbss=sbss))
        b = O.solve_offload_bruteforce(
            O.IlpInstance(mues=mues[::-1], sbss=sbss))
        assert a.objective == b.objective

    def test_matching_feasible_and_never_better(self):
        from mmwcache.testutil import random_game_instance
        rng = np.random.default_rng(61)
        for _ in range(60):
            game = random_game_instance(rng, max_mues=5, max_sbss=3)
            res = M.dynamic_match(game)
            ilp = O.ilp_from_game(game)
            assignment = O.assignment_from_period1(res.matching, game)
            assert O.check_assignment(ilp, assignment)
            mbs = sum(1 for c in assignment if c == O.MBS_CHOICE)
            assert mbs >= O.solve_offload_bruteforce(ilp).objective


class TestScanAllBlockings:
    def test_example1_report(self):
        inst = example1_instance()
        res = M.dynamic_match(inst)
        report = O.scan_all_blockings(res.matching, inst)
        assert report.stable
        assert report.lines() == [
            "stable: no period-1 or period-2 blocking found"]

    def test_quota_breach_rejected_before_scan(self):
        inst = example1_instance()
        bad = M.DynamicMatching(mu1={0: M.sbs_id(0), 1: M.sbs_id(0)},
                                mu2={0: None, 1: None})
        with pytest.raises(ValueError):
            O.scan_all_blockings(bad, inst)

    def test_ex_ante_block_listed(self):
        inst = example1_instance()
        res = M.dynamic_match(inst)
        report = O.scan_all_blockings(res.ex_ante, inst)
        assert not report.stable
        assert any("mbs0" in line for line in report.lines())


class TestIndependentPayoffs:
    def test_flags_a_matcher_with_wrong_payoffs(self, monkeypatch):
        # a matcher whose table says a refilled cache never covers period
        # 2: checks that scored plans through that table would pass it
        init = M._Scores.__init__

        def refill_never_covers(self, instance):
            init(self, instance)
            self._cache2 = [(instance.shortfall_penalty,) + row[1:]
                            for row in self._cache2]

        monkeypatch.setattr(M._Scores, "__init__", refill_never_covers)
        rng = np.random.default_rng(20260810)
        flagged = 0
        for _ in range(200):
            game = random_game_instance(rng)
            result = M.dynamic_match(game)
            mu, _ = M.deferred_acceptance(game)
            flagged += not O.scan_all_blockings(result.matching, game).stable \
                or bool(M.find_single_period_blocking(mu, game))
        # 33 of the 200 here; checks on the matcher's table flag none
        assert flagged >= 1


def _entry_chord_cdf(y):
    """CDF of chord / 2a for a chord from a fixed rim point whose heading is
    uniform over the half-plane into the disk: 2a*sin(U), U ~ U(0, pi)."""
    return 2.0 / math.pi * np.arcsin(np.minimum(y, 1.0))


class TestRegionChordLaw:
    """hof_multiuser's users follow the fixed-entry-point chord law; the law
    is written out here, not taken from `geometry.hof_probability`."""

    def test_focal_chords_follow_entry_point_law(self):
        # chord / 2a is i.i.d. across users and deployments, so the
        # normalised chords of all instances pool into one sample
        cfg = ScenarioConfig(seed=7)
        rng = np.random.default_rng(11)
        ys = []
        for _ in range(200):
            region = E.build_region_instance(cfg, 400, 8.0, rng)
            a = region.game.sbss[0].radius
            ys += [c / (2.0 * a) for c in region.focal_chords]
        y = np.sort(ys)
        n = len(y)
        cdf = _entry_chord_cdf(y)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf),
                 np.max(cdf - np.arange(n) / n))
        # Kolmogorov-Smirnov critical value at the 0.1% level
        assert ks < 1.95 / math.sqrt(n)

    def test_conventional_hof_matches_law_over_focal_radii(self):
        # users of one replication share their focal cell, so the standard
        # error is that of the replication means
        cfg = ScenarioConfig(seed=7)
        speeds = tuple(float(v) for v in range(1, 17))
        reps = 300
        measured = np.empty((reps, len(speeds)))
        law = np.empty((reps, len(speeds)))
        for rep in range(reps):
            metrics = E._region_replication(
                cfg, (3, rep), [(v, (20,)) for v in speeds])
            measured[rep] = [metrics[v, 20]["hof_prob_conventional"]
                             for v in speeds]
            region = E.build_region_instance(
                cfg, 20, speeds[0], E._rep_rng(cfg.seed, 3, rep))
            a = region.game.sbss[0].radius
            law[rep] = _entry_chord_cdf(np.array(speeds) * cfg.t_mts / (2 * a))
        se = measured.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(se > 0.0)
        z = (measured.mean(axis=0) - law.mean(axis=0)) / se
        assert np.all(np.abs(z) < 4.0), z
