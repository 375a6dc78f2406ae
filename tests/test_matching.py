import math
import warnings
from collections import Counter
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

    def test_blocking_scan_takes_preferences(self):
        rng = np.random.default_rng(19)
        found = 0
        for _ in range(100):
            inst = random_game_instance(rng)
            prefs = M.build_preferences(inst)
            mu, _ = M.deferred_acceptance(inst, preferences=prefs)
            unserved = {u: None for u in mu}
            for matching in (mu, unserved):
                pairs = M.find_single_period_blocking(matching, inst,
                                                      preferences=prefs)
                assert pairs == M.find_single_period_blocking(matching, inst)
                found += len(pairs)
        assert found > 0


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
        # serial dictatorship proposes each listed option at most once
        rng = np.random.default_rng(47)
        for _ in range(100):
            inst = random_game_instance(rng)
            prefs = M.build_preferences(inst)
            res = M.dynamic_match(inst, preferences=prefs)
            _, da = M.deferred_acceptance(inst, preferences=prefs)
            for trace in (res.trace, da):
                sent = Counter((p.stage, p.mue, p.plan)
                               for p in trace.proposals)
                assert max(sent.values(), default=1) == 1
            assert res.trace.restarts == 0
            for p in res.trace.proposals:
                if p.stage == 1:
                    assert p.plan in prefs.mue_profiles[p.mue].ranked_plans


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


def _proposals(trace, stage):
    """Multiset of the (user, plan) proposals of one stage."""
    return Counter((p.mue, p.plan) for p in trace.proposals
                   if p.stage == stage)


def _assert_same_matchings(game):
    """The serial dictatorships against the reference proposal processes.

    Preferences, held plans, both matchings and the single-period map must
    be equal; so must the proposals of stage two and of the single-period
    matcher, and those of stage one when the reference never restarted
    (a restart makes it propose plans again). Returns both sides' results.
    """
    prefs, ref_prefs = M.build_preferences(game), R.build_preferences(game)
    assert repr(prefs) == repr(ref_prefs)
    res = M.dynamic_match(game, preferences=prefs)
    ref = R.dynamic_match(game, preferences=ref_prefs)
    assert repr((res.ex_ante, res.matching)) == \
        repr((ref.ex_ante, ref.matching))
    assert _proposals(res.trace, 2) == _proposals(ref.trace, 2)
    if not ref.trace.restarts:
        assert _proposals(res.trace, 1) == _proposals(ref.trace, 1)
    mu, da = M.deferred_acceptance(game, preferences=prefs)
    ref_mu, ref_da = R.deferred_acceptance(game, preferences=ref_prefs)
    assert repr(mu) == repr(ref_mu)
    assert _proposals(da, 1) == _proposals(ref_da, 1)
    return (res, mu), (ref, ref_mu)


def _assert_same_outputs(game):
    """Every result the stability suite derives from one game."""
    (res, mu), (ref, ref_mu) = _assert_same_matchings(game)
    assert repr((M.find_single_period_blocking(mu, game),
                 _scan(res.matching, game), _scan(res.ex_ante, game))) == \
        repr((R.find_single_period_blocking(ref_mu, game),
              _reference_scan(ref.matching, game),
              _reference_scan(ref.ex_ante, game)))
    return ref.trace.restarts


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
    """The per-call score tables and serial dictatorships against the
    definitional path, which recomputes every utility, key and roster at
    each use and runs the original proposal processes."""

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
            _assert_same_outputs(game)
        assert clamped >= count // 20

    def test_large_games_match_definitional_path(self):
        # about 120 users x 10 SBSs, where stage one restarts most
        rng = np.random.default_rng(108)
        games = []
        while len(games) < 3:
            game = random_game_instance(rng, max_mues=125, max_sbss=10)
            if len(game.mues) >= 115 and len(game.sbss) == 10:
                games.append(game)
        for game in games:
            assert _assert_same_outputs(game) >= 20

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
                    _assert_same_outputs(variant)

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


class TestSerialDictatorship:
    """Serial dictatorship in the common priority order against the
    reference proposal processes (deferred acceptance with displacement,
    stage one with restarts)."""

    @pytest.mark.parametrize("users,sbss,count,seed", [
        (8, 4, 6000, 201), (12, 4, 3000, 202), (30, 6, 1000, 203)])
    def test_matches_proposal_processes(self, users, sbss, count, seed):
        rng = np.random.default_rng(seed)
        restarted = 0
        for i in range(count):
            game = random_game_instance(rng, max_mues=users, max_sbss=sbss)
            if i % 4 == 3:
                game = replace(game, phi_scale=float(rng.uniform(0.2, 4.0)),
                               phi_shift=float(rng.uniform(-2.0, 2.0)),
                               gamma_scale=float(rng.uniform(0.2, 4.0)),
                               gamma_shift=float(rng.uniform(-2.0, 2.0)),
                               cache_capacity=float(rng.uniform(0.0, 1e4)))
            elif i % 4 == 2:
                game = replace(game, allow_cross_sbs_plans=False)
            _, (ref, _) = _assert_same_matchings(game)
            restarted += ref.trace.restarts > 0
        # the reference restarts often enough for the comparison to count
        assert restarted >= count // 10

    def test_region_instances_match_proposal_processes(self):
        config = experiments._region_config(ScenarioConfig(seed=4))
        rng = np.random.default_rng(4)
        for n_mues in (10, 50, 120, 400):
            for speed in (2.0, 8.0, 16.0, None):
                game = experiments.build_region_instance(
                    config, n_mues, speed, rng).game
                _assert_same_matchings(game)

    def test_proposals_are_ranking_prefixes(self):
        # each user proposes its ranking down to the option it holds, or
        # all of it if it holds nothing; only the held option is accepted
        rng = np.random.default_rng(61)
        for _ in range(300):
            game = random_game_instance(rng, max_mues=12)
            prefs = M.build_preferences(game)
            res = M.dynamic_match(game, preferences=prefs)
            mu, da = M.deferred_acceptance(game, preferences=prefs)
            firsts = {u: [M.Plan(M.sbs_id(k), None)
                          for k in M._first_sbs_order(prof)]
                      for u, prof in enumerate(prefs.mue_profiles)}
            held = self._held(da, 1, firsts)
            for u, b in mu.items():
                assert b == held[u].first if u in held else \
                    b in (None, M.MBS)
            ranked = {u: list(prof.ranked_plans)
                      for u, prof in enumerate(prefs.mue_profiles)}
            held = self._held(res.trace, 1, ranked)
            for u in ranked:
                plan = held.get(u, M.SELF_PLAN)
                assert res.ex_ante.mu2[u] == plan.second
                # the period-1 macro fallback may take a cache slot
                assert res.ex_ante.mu1[u] == plan.first or \
                    (plan.first is None and res.ex_ante.mu1[u] == M.MBS)

    def test_overhead_below_restarting_process(self):
        # a restart makes the reference propose plans again, so stage one's
        # proposals are a sub-multiset of its own and the overhead no larger;
        # without a restart both are equal
        rng = np.random.default_rng(62)
        restarted = lower = 0
        for _ in range(600):
            game = random_game_instance(rng, max_mues=12)
            res, ref = M.dynamic_match(game), R.dynamic_match(game)
            ours, theirs = _proposals(res.trace, 1), _proposals(ref.trace, 1)
            assert not ours - theirs
            overhead = M.signaling_overhead(res.trace)
            ref_overhead = M.signaling_overhead(ref.trace)
            if ref.trace.restarts:
                restarted += 1
                assert overhead <= ref_overhead
                lower += overhead < ref_overhead
            else:
                assert overhead == ref_overhead
        assert restarted >= 60 and lower >= 1

    @staticmethod
    def _held(trace, stage, rankings):
        """Check the stage's proposals; return each user's accepted plan."""
        sent = {}
        for p in trace.proposals:
            if p.stage == stage:
                sent.setdefault(p.mue, []).append(p)
        held = {}
        for u, records in sent.items():
            plans = [p.plan for p in records]
            assert plans == rankings[u][:len(plans)]
            assert not any(p.accepted for p in records[:-1])
            if records[-1].accepted:
                held[u] = records[-1].plan
            else:
                assert len(plans) == len(rankings[u])
        return held
