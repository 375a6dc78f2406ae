import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import reference_matching as R
from mmwcache import experiments, oracle
from mmwcache import matching as M
from mmwcache.config import ScenarioConfig
from mmwcache.geometry import hof_probability
from mmwcache.testutil import random_game_instance
from conftest import example1_instance


def plan(first, second):
    def conv(x):
        if x is None:
            return None
        if x == "mbs":
            return M.MBS
        return M.sbs_id(x)
    return M.Plan(conv(first), conv(second))


class TestUtilities:
    def test_mue_utility_hand_value(self):
        inst = M.GameInstance(
            mues=(M.MueState(speed=16.0, segments=0, p_th=0.2),),
            sbss=(M.SbsState(radius=30.0, quota=1),))
        assert M.mue_utility(0, 0, inst) == pytest.approx(0.0282, abs=1e-4)

    def test_mue_utility_zero_speed(self):
        inst = M.GameInstance(
            mues=(M.MueState(speed=0.0, segments=0, p_th=0.2),),
            sbss=(M.SbsState(radius=30.0, quota=1),))
        assert M.mue_utility(0, 0, inst) == pytest.approx(0.2)

    def test_negative_margin_unacceptable(self):
        inst = M.GameInstance(
            mues=(M.MueState(speed=16.0, segments=0, p_th=0.1,
                             cand1=(0,), gap1=1e9, gap2=1e9),),
            sbss=(M.SbsState(radius=30.0, quota=1),))
        assert M.mue_utility(0, 0, inst) < 0
        prefs = M.build_preferences(inst)
        assert not any(
            p.first == M.sbs_id(0) or p.second == M.sbs_id(0)
            for p in prefs.mue_profiles[0].ranked_plans)

    def test_sbs_utility_values(self):
        inst = M.GameInstance(
            mues=(M.MueState(speed=5.0, segments=1e4, p_th=0.2),
                  M.MueState(speed=5.0, segments=0, p_th=0.2),
                  M.MueState(speed=5.0, segments=2e3, p_th=0.2)),
            sbss=(M.SbsState(radius=30.0, quota=1),),
            scan_interval=5.0)
        assert M.sbs_utility(0, 0, inst) == pytest.approx(-5.0)
        assert M.sbs_utility(1, 0, inst) == pytest.approx(5.0)
        # smaller cache strictly preferred
        assert M.sbs_utility(1, 0, inst) > M.sbs_utility(2, 0, inst)
        assert M.bs_prefers_mue(inst, 0, 1, 2)


class TestExample1:
    def test_printed_profiles(self):
        inst = example1_instance()
        prefs = M.build_preferences(inst)
        assert prefs.mue_profiles[0].ranked_plans == (
            plan(0, "mbs"), plan(0, None), plan(None, "mbs"))
        assert prefs.mue_profiles[1].ranked_plans == (
            plan(0, None), plan(None, 1))
        assert prefs.sbs_profiles[0].ranked_mues == (0, 1)
        assert prefs.sbs_profiles[1].ranked_mues == (1,)
        assert prefs.mbs_profile.ranked_mues == (0,)

    def test_dynamic_match_resolution(self):
        inst = example1_instance()
        res = M.dynamic_match(inst)
        assert res.matching.mu1 == {0: M.sbs_id(0), 1: None}
        assert res.matching.mu2 == {0: M.MBS, 1: M.sbs_id(1)}
        # the ex ante stage parks u0 on its cache for period 2
        assert res.ex_ante.mu2[0] is None
        assert res.ex_ante.mu1[0] == M.sbs_id(0)

    def test_ex_ante_period2_block_detected(self):
        inst = example1_instance()
        res = M.dynamic_match(inst)
        violations = M.find_blocking_pairs(res.ex_ante, inst, period=2)
        assert any(v.mue == 0 and v.bs == M.MBS for v in violations)
        # and the final matching carries no blocking at all
        report = oracle.scan_all_blockings(res.matching, inst)
        assert report.stable

    def test_footnote_variant_keeps_ex_ante(self):
        inst = example1_instance(epsilon=0.01)
        res = M.dynamic_match(inst)
        assert res.matching.mu1 == {0: M.sbs_id(0), 1: None}
        assert res.matching.mu2 == {0: None, 1: M.sbs_id(1)}
        assert oracle.scan_all_blockings(res.matching, inst).stable

    def test_single_period_da(self):
        inst = example1_instance()
        mu, trace = M.deferred_acceptance(inst)
        assert mu[0] == M.sbs_id(0)
        assert mu[1] is None            # covered cache, not macro
        assert not M.find_single_period_blocking(mu, inst)


class TestDeferredAcceptance:
    def test_quota_one_competition(self):
        inst = M.GameInstance(
            mues=(M.MueState(speed=5.0, segments=0, p_th=0.2, cand1=(0,),
                             gap1=50.0, gap2=50.0),
                  M.MueState(speed=5.0, segments=4e3, p_th=0.2, cand1=(0,),
                             gap1=50.0, gap2=50.0)),
            sbss=(M.SbsState(radius=30.0, quota=1),),
            scan_interval=5.0)
        mu, _ = M.deferred_acceptance(inst)
        assert mu[0] == M.sbs_id(0)          # empty cache ranks first
        assert mu[1] == M.MBS                # 4 s playback < 5 s interval
        assert not M.find_single_period_blocking(mu, inst)

    def test_all_unacceptable_goes_to_fallback(self):
        inst = M.GameInstance(
            mues=(M.MueState(speed=16.0, segments=6e3, p_th=0.01,
                             cand1=(0,), gap1=40.0, gap2=40.0),),
            sbss=(M.SbsState(radius=20.0, quota=1),),
            scan_interval=5.0)
        mu, trace = M.deferred_acceptance(inst)
        assert mu[0] is None                 # 6 s playback >= 5 s interval
        assert sum(1 for p in trace.proposals) == 0

    def test_random_instances_stable(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            inst = random_game_instance(rng)
            mu, _ = M.deferred_acceptance(inst)
            assert not M.find_single_period_blocking(mu, inst)


class TestDynamicMatch:
    def test_random_instances_dynamically_stable(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            inst = random_game_instance(rng)
            res = M.dynamic_match(inst)
            assert oracle.scan_all_blockings(res.matching, inst).stable

    def test_dynamic_stability_implies_ex_ante(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            inst = random_game_instance(rng)
            res = M.dynamic_match(inst)
            assert not M.find_blocking_pairs(res.matching, inst, period=1)

    def test_quota_respected(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            inst = random_game_instance(rng)
            res = M.dynamic_match(inst)
            res.matching.validate(inst)

    def test_individual_rationality(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            inst = random_game_instance(rng)
            res = M.dynamic_match(inst)
            for period in (1, 2):
                for k in range(len(inst.sbss)):
                    for u in res.matching.members(period, M.sbs_id(k)):
                        assert M.mue_utility(u, k, inst) >= 0
                        if period == 1:
                            assert M.sbs_utility(u, k, inst) >= 0

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            inst = random_game_instance(rng)
            scaled = replace(inst, phi_scale=3.7, phi_shift=-1.2,
                             gamma_scale=0.4, gamma_shift=2.5)
            base = M.dynamic_match(inst)
            alt = M.dynamic_match(scaled)
            assert base.matching.mu1 == alt.matching.mu1
            assert base.matching.mu2 == alt.matching.mu2

    def test_perturbed_matching_is_blocked(self):
        # moving a served user off its seat must surface a violation
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 20:
            inst = random_game_instance(rng)
            res = M.dynamic_match(inst)
            served = [u for u, b in res.matching.mu1.items()
                      if b is not None and b.kind == M.PlayerKind.SBS]
            if not served:
                continue
            broken = res.matching.copy()
            broken.mu1[served[0]] = None
            report = oracle.scan_all_blockings(broken, inst)
            assert not report.stable
            checked += 1


class TestStageOneTermination:
    def test_proposal_budget(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            inst = random_game_instance(rng)
            prefs = M.build_preferences(inst)
            res = M.dynamic_match(inst, preferences=prefs)
            total_plans = sum(len(p.ranked_plans) for p in prefs.mue_profiles)
            assert len(res.trace.proposals) <= 200 * (total_plans + 1) \
                * (len(inst.mues) + 2)


class TestSignalingOverhead:
    def test_single_target_counts(self):
        # many identical users, one cell: one distinct request each
        inst = M.GameInstance(
            mues=tuple(M.MueState(speed=5.0, segments=0, p_th=0.2,
                                  cand1=(0,), gap1=40.0, gap2=40.0)
                       for _ in range(6)),
            sbss=(M.SbsState(radius=30.0, quota=2),),
            scan_interval=5.0)
        res = M.dynamic_match(inst)
        count = M.signaling_overhead(res.trace, sbs=0)
        plans_per_user = len(M.build_preferences(inst)
                             .mue_profiles[0].ranked_plans)
        assert 6 <= count <= 6 * plans_per_user

    def test_cache_rich_users_send_nothing(self):
        inst = M.GameInstance(
            mues=tuple(M.MueState(speed=10.0, segments=1e4, p_th=0.2,
                                  cand1=(0,), cand2=(), gap1=20.0, gap2=20.0)
                       for _ in range(5)),
            sbss=(M.SbsState(radius=30.0, quota=5),),
            scan_interval=10.0, covered_payoff=0.25,
            future_covered_payoff=0.25)
        res = M.dynamic_match(inst)
        assert M.signaling_overhead(res.trace) == 0
        assert all(res.matching.mu1[u] is None for u in range(5))

    def test_bounded_by_users_times_cells(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            inst = random_game_instance(rng)
            res = M.dynamic_match(inst)
            distinct = {(p.mue, p.plan) for p in res.trace.proposals}
            pairs = {(m, k) for m, pl in distinct for k in pl.sbs_targets()}
            assert len(pairs) <= len(inst.mues) * len(inst.sbss) * 4


class TestValidation:
    def test_matching_validate_catches_quota(self):
        inst = example1_instance()
        bad = M.DynamicMatching(mu1={0: M.sbs_id(0), 1: M.sbs_id(0)},
                                mu2={0: None, 1: None})
        with pytest.raises(ValueError):
            bad.validate(inst)

    def test_matching_must_cover_all(self):
        inst = example1_instance()
        bad = M.DynamicMatching(mu1={0: None}, mu2={0: None})
        with pytest.raises(ValueError):
            bad.validate(inst)

    def test_find_blocking_requires_valid_period(self):
        inst = example1_instance()
        res = M.dynamic_match(inst)
        with pytest.raises(ValueError):
            M.find_blocking_pairs(res.matching, inst, period=3)


class TestSerialization:
    def test_game_roundtrip(self):
        inst = example1_instance()
        text = M.game_to_text(inst)
        assert M.game_from_text(text) == inst

    def test_random_roundtrip(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            inst = random_game_instance(rng)
            assert M.game_from_text(M.game_to_text(inst)) == inst


def _outputs(module, scan, game):
    """repr of every result the stability suite derives from one game."""
    prefs = module.build_preferences(game)
    res = module.dynamic_match(game)
    mu, da_trace = module.deferred_acceptance(game)
    single = module.find_single_period_blocking(mu, game)
    return repr((prefs, res.matching, res.ex_ante, res.trace, res.preferences,
                 mu, da_trace, single,
                 scan(res.matching, game), scan(res.ex_ante, game)))


def _scan(matching, game):
    report = oracle.scan_all_blockings(matching, game)
    return report.period1, report.period2


def _reference_scan(matching, game):
    return (R.find_blocking_pairs(matching, game, period=1),
            R.find_blocking_pairs(matching, game, period=2))


def _out_of_domain(game):
    """Some user is too fast for some SBS: v*t_mts > 2a, HOF clamps."""
    return any(m.speed * game.t_mts > 2.0 * s.radius
               for m in game.mues for s in game.sbss)


class TestTabulatedScores:
    """The per-call score tables against the definitional path, which
    recomputes every utility, key and roster at each use."""

    @pytest.mark.parametrize("users,sbss,count,seed", [
        (8, 4, 2000, 101), (12, 4, 2000, 102), (20, 6, 1000, 103),
        (40, 8, 40, 104)])
    def test_matches_definitional_path(self, users, sbss, count, seed):
        rng = np.random.default_rng(seed)
        clamped = 0
        for i in range(count):
            game = random_game_instance(rng, max_mues=users, max_sbss=sbss)
            if i % 4 == 3:
                # affine utility variants (nonzero phi0 and gamma0), with
                # caches that may run dry in period 2 after an SBS period
                game = replace(game, phi_scale=float(rng.uniform(0.2, 4.0)),
                               phi_shift=float(rng.uniform(-2.0, 2.0)),
                               gamma_scale=float(rng.uniform(0.2, 4.0)),
                               gamma_shift=float(rng.uniform(-2.0, 2.0)),
                               cache_capacity=float(rng.uniform(0.0, 1e4)))
            clamped += _out_of_domain(game)
            assert _outputs(M, _scan, game) == \
                _outputs(R, _reference_scan, game), f"game {i}"
        assert clamped >= count // 20

    def test_large_games_match_definitional_path(self):
        # about 120 users x 10 SBSs, where stage one restarts most
        rng = np.random.default_rng(108)
        games = []
        while len(games) < 3:
            game = random_game_instance(rng, max_mues=125, max_sbss=10)
            if len(game.mues) >= 115 and len(game.sbss) == 10:
                games.append(game)
        for i, game in enumerate(games):
            assert _outputs(M, _scan, game) == \
                _outputs(R, _reference_scan, game), f"game {i}"
            assert M.dynamic_match(game).trace.restarts >= 20

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_region_instances_match_definitional_path(self, seed):
        config = experiments._region_config(ScenarioConfig(seed=seed))
        rng = np.random.default_rng(seed)
        for n_mues in (10, 50, 120):
            for speed in (2.0, 8.0, 16.0, None):
                game = experiments.build_region_instance(
                    config, n_mues, speed, rng).game
                scaled = replace(game, phi_scale=2.5, phi_shift=-0.7,
                                 gamma_scale=0.3, gamma_shift=1.1)
                for variant in (game, scaled):
                    assert _outputs(M, _scan, variant) == \
                        _outputs(R, _reference_scan, variant), (n_mues, speed)

    def test_public_utilities_match_definitional_values(self):
        rng = np.random.default_rng(107)
        for _ in range(200):
            game = random_game_instance(rng, max_mues=6, max_sbss=4)
            for u in range(len(game.mues)):
                for k in range(len(game.sbss)):
                    assert M.mue_utility(u, k, game) == \
                        R.mue_utility(u, k, game)
                    assert M.sbs_utility(u, k, game) == \
                        R.sbs_utility(u, k, game)
                for p in R.plan_universe(game, u) + [M.SELF_PLAN]:
                    assert M.plan_key(game, u, p) == R.plan_key(game, u, p)
                    assert M.plan_score(game, u, p.first, p.second) == \
                        R.plan_score(game, u, p.first, p.second)
                    assert M.mue_prefers(game, u, p, M.SELF_PLAN) == \
                        R.mue_prefers(game, u, p, M.SELF_PLAN)
                assert M.plan_universe(game, u) == R.plan_universe(game, u)
                for w in range(len(game.mues)):
                    assert M.bs_prefers_mue(game, 0, u, w) == \
                        R.bs_prefers_mue(game, 0, u, w)

    def test_out_of_domain_game_touches_no_warning_state(self, monkeypatch):
        # u0 is too fast for the 6 m cell (16 m > 12 m), so its HOF clamps
        game = M.GameInstance(
            mues=(M.MueState(speed=16.0, segments=0.0, p_th=0.3,
                             cand1=(0, 1), cand2=(0, 1), gap1=40.0, gap2=40.0),
                  M.MueState(speed=4.0, segments=2e3, p_th=0.2,
                             cand1=(0,), cand2=(1,), gap1=20.0, gap2=20.0)),
            sbss=(M.SbsState(radius=6.0, quota=1),
                  M.SbsState(radius=30.0, quota=1)),
            scan_interval=5.0)
        assert _out_of_domain(game)

        def touched(*args, **kwargs):
            raise AssertionError("matching touched the warning filters")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning):
                hof_probability(16.0, 1.0, 6.0)
            before = list(warnings.filters)
            monkeypatch.setattr(warnings, "catch_warnings", touched)
            monkeypatch.setattr(warnings, "simplefilter", touched)
            prefs = M.build_preferences(game)
            res = M.dynamic_match(game)
            oracle.scan_all_blockings(res.matching, game)
            M.find_blocking_pairs(res.ex_ante, game, period=2)
            mu, _ = M.deferred_acceptance(game)
            M.find_single_period_blocking(mu, game)
            monkeypatch.undo()
            assert warnings.filters == before
        assert prefs.mue_profiles[0].ranked_plans
        assert "warnings" not in vars(M)
