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
        assert oracle._Payoffs(inst).bs_prefers(1, 2)


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
                    for u in R.users_of(res.matching, period,
                                        M.sbs_id(k)):
                        assert M.mue_utility(u, k, inst) >= 0
                        if period == 1:
                            assert M.sbs_utility(u, k, inst) >= 0

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
            broken = M.DynamicMatching(dict(res.matching.mu1),
                                       dict(res.matching.mu2))
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
        count = R.signaling_overhead(res.trace, sbs=0)
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
        assert R.signaling_overhead(res.trace) == 0
        assert all(res.matching.mu1[u] is None for u in range(5))

    def test_bounded_by_users_times_cells(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            inst = random_game_instance(rng)
            res = M.dynamic_match(inst)
            distinct = {(p.mue, p.plan) for p in res.trace.proposals}
            pairs = {(m, k) for m, pl in distinct
                     for k in R.sbs_targets(pl)}
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

    def test_matching_names_known_sbss(self):
        inst = example1_instance()
        for k in (len(inst.sbss), -1):
            bad = M.DynamicMatching(
                mu1={u: None for u in range(len(inst.mues))},
                mu2={u: M.sbs_id(k) if u == 0 else None
                     for u in range(len(inst.mues))})
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


def _profiles(prefs):
    """Every player's ranking: the users', the SBSs' and the macro cell's."""
    return prefs.mue_profiles, prefs.sbs_profiles, prefs.mbs_profile


def _assert_same_matchings(game):
    """The serial dictatorships against the reference proposal processes.

    Preferences, held plans, both matchings and the single-period map must
    be equal; so must the proposals of stage two and of the single-period
    matcher, and those of stage one when the reference never restarted
    (a restart makes it propose plans again). Returns both sides' results.
    """
    prefs, ref_prefs = M.build_preferences(game), R.build_preferences(game)
    assert repr(_profiles(prefs)) == repr(_profiles(ref_prefs))
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


def _matcher_outputs(game, prefs):
    """Both matchings, the period-1 map and its blocking pairs of a game."""
    res = M.dynamic_match(game, preferences=prefs)
    mu, da = M.deferred_acceptance(game, preferences=prefs)
    pairs = M.find_single_period_blocking(mu, game)
    return (res.ex_ante, res.matching, res.trace, mu, da, pairs)


def _out_of_domain(game):
    """Some user is too fast for some SBS: v*t_mts > 2a, HOF is 1."""
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
                # caches that may run dry in period 2 after an SBS period
                game = replace(game,
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
        config = ScenarioConfig(seed=seed)
        rng = np.random.default_rng(seed)
        for n_mues in (10, 50, 120):
            for speed in (2.0, 8.0, 16.0):
                _assert_same_outputs(experiments.build_region_instance(
                    config, n_mues, speed, rng).game)

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
                scores = M._Scores(game)
                own = scores.order(u, None, None)
                plans = R.plan_universe(game, u) + [M.SELF_PLAN]
                orders = {p: scores.order(u, p.first, p.second)
                          for p in plans}
                for p, order in orders.items():
                    assert -order[0] == \
                        R.plan_score(game, u, p.first, p.second)
                    assert (order < own) == \
                        R.mue_prefers(game, u, p, M.SELF_PLAN)
                assert sorted(plans, key=orders.__getitem__) == \
                    sorted(plans, key=lambda p: R.plan_key(game, u, p))
                universe_own, universe = scores._universe(u)
                assert universe_own == own
                assert [scores.entry(pair).plan for _, pair in universe] == \
                    R.plan_universe(game, u)
                # the oracle's own payoffs, over every pair of slots
                payoffs = oracle._Payoffs(game)
                slots = [M.sbs_id(k) for k in range(len(game.sbss))] + \
                    [M.MBS, None]
                every = [M.Plan(a, b) for a in slots for b in slots]
                for p in every:
                    assert -payoffs.key(u, *p)[0] == R.plan_score(game, u, *p)
                assert sorted(every, key=lambda p: payoffs.key(u, *p)) == \
                    sorted(every, key=lambda p: R.plan_key(game, u, p))
                for w in range(len(game.mues)):
                    assert payoffs.bs_prefers(u, w) == \
                        R.bs_prefers_mue(game, 0, u, w)

    def test_out_of_domain_game_touches_no_warning_state(self, monkeypatch):
        # u0 is too fast for the 6 m cell (16 m > 12 m), so its HOF is 1
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

    def test_matchers_read_the_table_of_the_preferences(self, monkeypatch):
        # build_preferences computes every phi the matchers need; after it,
        # a HOF evaluation means a matcher scores the game a second time
        rng = np.random.default_rng(109)
        games = [random_game_instance(rng, max_mues=12) for _ in range(300)]
        config = ScenarioConfig(seed=5)
        for n_mues in (10, 50, 200):
            for speed in (2.0, 16.0):
                games.append(experiments.build_region_instance(
                    config, n_mues, speed, rng).game)

        def hof(*args):
            raise AssertionError("a matcher evaluated HOF again")

        for game in games:
            expected = _matcher_outputs(game, None)
            prefs = M.build_preferences(game)
            with monkeypatch.context() as patch:
                patch.setattr(M, "hof_probability", hof)
                assert repr(_matcher_outputs(game, prefs)) == repr(expected)

    def test_hof_once_per_speed_and_sbs(self, monkeypatch):
        # the table evaluates HOF once per distinct (speed, SBS index)
        # among the users' candidates, however many users share them
        rng = np.random.default_rng(110)
        games = [random_game_instance(rng) for _ in range(200)]
        config = ScenarioConfig(seed=6)
        for n_mues in (10, 50, 200):
            for speed in (2.0, 8.0, 16.0):
                games.append(experiments.build_region_instance(
                    config, n_mues, speed, rng).game)
        calls = []

        def hof(*args):
            calls.append(args)
            return math.nan

        monkeypatch.setattr(M, "hof_probability", hof)
        for game in games:
            calls.clear()
            M.build_preferences(game)
            pairs = {(m.speed, k) for m in game.mues
                     for k in m.cand1 + m.cand2}
            assert len(calls) == len(pairs)
            assert sorted(calls) == sorted(
                (v, game.t_mts, game.sbss[k].radius) for v, k in pairs)

    def test_profiles_are_ranked_by_the_plan_key(self):
        # every ranked plan carries the order `_Scores.order` gives it, so
        # the preference pass and the scans share one plan order
        for game in _tabulated_games():
            prefs = M.build_preferences(game)
            scores = prefs.scores
            for u, profile in enumerate(prefs.mue_profiles):
                orders = [scores.order(u, p.first, p.second)
                          for p in profile.ranked_plans]
                assert orders == sorted(set(orders))
                own, universe = scores._universe(u)
                assert own == scores.order(u, None, None)
                assert all(order < own for order in orders)
                listed = {scores.entry(order[1]).plan: order
                          for order in universe}
                assert [listed[p] for p in profile.ranked_plans] == orders

    def test_bs_lists_are_the_definitional_lists(self):
        # the BS lists derived from the rankings are the reference's: the
        # users whose ranked plans name the BS, sorted by (-gamma, index),
        # an SBS listing none with gamma < 0
        listed = refused = reordered = 0
        for game in _tabulated_games():
            prefs = M.build_preferences(game)
            assert (prefs.sbs_profiles, prefs.mbs_profile) == \
                R.bs_preferences(game, prefs.mue_profiles)
            scores = prefs.scores
            listed += sum(len(bs.ranked_mues) for bs in prefs.sbs_profiles)
            refused += any(scores.gamma(u) < 0.0 and profile.ranked_plans
                           for u, profile in enumerate(prefs.mue_profiles))
            reordered += scores.priority() != list(range(len(game.mues)))
        assert listed and refused >= 1000 and reordered >= 1000


def _quota_respecting_matching(rng, game):
    """A random matching of `game`: each user draws a slot of each period,
    and a draw of a full SBS leaves it on its cache."""
    n_sbs, mus = len(game.sbss), []
    for _ in (1, 2):
        room, mu = [sbs.quota for sbs in game.sbss], {}
        for u in range(len(game.mues)):
            code = int(rng.integers(0, n_sbs + 2))
            mu[u] = M.MBS if code == n_sbs else None
            if code < n_sbs and room[code]:
                room[code] -= 1
                mu[u] = M.sbs_id(code)
        mus.append(mu)
    return M.DynamicMatching(*mus)


class TestArbitraryMatchings:
    """The oracle's checks against the definitional ones on matchings no
    matcher made, where users hold slots off their rankings."""

    def test_checks_match_definitional_path(self):
        rng = np.random.default_rng(114)
        blocked = off_list = 0
        for _ in range(400):
            game = random_game_instance(rng, max_mues=12, max_sbss=4)
            profiles = R.build_preferences(game).mue_profiles
            acceptable = [{p.first for p in profile.ranked_plans}
                          for profile in profiles]
            for _ in range(3):
                matching = _quota_respecting_matching(rng, game)
                assert repr(_scan(matching, game)) == \
                    repr(_reference_scan(matching, game))
                assert M.find_single_period_blocking(matching.mu1, game) == \
                    R.find_single_period_blocking(matching.mu1, game)
                blocked += not oracle.scan_all_blockings(matching, game).stable
                off_list += any(
                    slot is not None and slot.kind is M.PlayerKind.SBS
                    and slot not in acceptable[u]
                    for u, slot in matching.mu1.items())
        assert blocked >= 1000 and off_list >= 800


def _tabulated_games():
    """The random and region games of `TestTabulatedScores`."""
    for users, sbss, count, seed in ((8, 4, 2000, 101), (12, 4, 2000, 102),
                                     (20, 6, 1000, 103), (40, 8, 40, 104)):
        rng = np.random.default_rng(seed)
        for i in range(count):
            game = random_game_instance(rng, max_mues=users, max_sbss=sbss)
            if i % 4 == 3:
                game = replace(game,
                               cache_capacity=float(rng.uniform(0.0, 1e4)))
            yield game
    rng, large = np.random.default_rng(108), 0
    while large < 3:
        game = random_game_instance(rng, max_mues=125, max_sbss=10)
        if len(game.mues) >= 115 and len(game.sbss) == 10:
            large += 1
            yield game
    for seed in (1, 2, 3):
        config = ScenarioConfig(seed=seed)
        rng = np.random.default_rng(seed)
        for n_mues in (10, 50, 120):
            for speed in (2.0, 8.0, 16.0):
                yield experiments.build_region_instance(
                    config, n_mues, speed, rng).game


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
                game = replace(game,
                               cache_capacity=float(rng.uniform(0.0, 1e4)))
            elif i % 4 == 2:
                game = replace(game, allow_cross_sbs_plans=False)
            _, (ref, _) = _assert_same_matchings(game)
            restarted += ref.trace.restarts > 0
        # the reference restarts often enough for the comparison to count
        assert restarted >= count // 10

    def test_region_instances_match_proposal_processes(self):
        config = ScenarioConfig(seed=4)
        rng = np.random.default_rng(4)
        for n_mues in (10, 50, 120, 400):
            for speed in (2.0, 8.0, 16.0):
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
            overhead = R.signaling_overhead(res.trace)
            ref_overhead = R.signaling_overhead(ref.trace)
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


class TestRegionCost:
    """A region replication builds one instance and one table per speed,
    of the largest user count that speed needs."""

    @staticmethod
    def _count(monkeypatch, run):
        """The user counts of the instances and of the tables `run` builds."""
        instances, tables = [], []
        build, init = experiments.build_region_instance, M._Scores.__init__

        def counting_build(config, n_mues, speed, rng):
            instances.append(n_mues)
            return build(config, n_mues, speed, rng)

        def counting_init(self, instance):
            tables.append(len(instance.mues))
            init(self, instance)

        with monkeypatch.context() as patch:
            patch.setattr(experiments, "build_region_instance",
                          counting_build)
            patch.setattr(M._Scores, "__init__", counting_init)
            run()
        return Counter(instances), Counter(tables)

    def test_tables_per_replication(self, monkeypatch):
        cfg, reps = ScenarioConfig(seed=1), 2
        assert self._count(monkeypatch, lambda: experiments.run_experiment(
            "hof_multiuser", cfg, reps)) == \
            (Counter({20: reps}), Counter({20: 16 * reps}))
        # the user-sweep speeds rank all 50 users, the other 12 of
        # hof_multiuser's speeds only its 20
        assert self._count(monkeypatch, lambda: experiments.run_experiments(
            experiments.EXPERIMENT_NAMES, cfg, reps)) == \
            (Counter({50: reps}), Counter({50: 4 * reps, 20: 12 * reps}))


class TestScanCost:
    """The stability checks compare a user with the last holder of a full
    SBS only, so the oracle's BS comparisons stay linear in the users
    however large the quota."""

    @staticmethod
    def _full_sbs_game(n):
        """n users with empty caches who all find SBS 0 (quota n/2)
        acceptable: the first half hold it in period 1, the rest sit on
        their caches in both periods."""
        mue = M.MueState(speed=0.0, segments=0, p_th=0.2, cand1=(0,))
        game = M.GameInstance(mues=(mue,) * n,
                              sbss=(M.SbsState(radius=30.0, quota=n // 2),))
        mu1 = {u: M.sbs_id(0) if u < n // 2 else None for u in range(n)}
        return game, M.DynamicMatching(mu1, dict.fromkeys(range(n)))

    @staticmethod
    def _counted(monkeypatch):
        """A counter of the oracle's `_Payoffs.bs_prefers` calls made from
        now on."""
        calls = Counter()
        prefers = oracle._Payoffs.bs_prefers

        def counting(self, u, w):
            calls["bs_prefers"] += 1
            return prefers(self, u, w)

        monkeypatch.setattr(oracle._Payoffs, "bs_prefers", counting)
        return calls

    @pytest.mark.parametrize("n", [200, 400, 800])
    def test_blocking_scans(self, monkeypatch, n):
        game, matching = self._full_sbs_game(n)
        calls = self._counted(monkeypatch)
        report = oracle.scan_all_blockings(matching, game)
        assert 0 < calls["bs_prefers"] <= n
        # the full SBS prefers every holder: no waiting user pairs with it
        assert not [v for v in report.period1 if v.bs == M.sbs_id(0)]

    @pytest.mark.parametrize("n", [200, 400, 800])
    def test_single_period_blocking(self, monkeypatch, n):
        game, matching = self._full_sbs_game(n)
        calls = self._counted(monkeypatch)
        assert M.find_single_period_blocking(matching.mu1, game) == []
        assert 0 < calls["bs_prefers"] <= n


def _prefix_counts(prefs):
    """The user counts n whose first n users are the first n in priority."""
    priority = prefs.scores.priority()
    return [n for n in range(len(priority) + 1)
            if n == 0 or max(priority[:n]) == n - 1]


def _assert_heads_match_fresh_games(game, counts):
    """Each head of one `run_heads` pass over `game` against
    `dynamic_match` of the head game ranked afresh, and against the
    reference processes."""
    run = M.run_heads(M.build_preferences(game).scores, counts)
    assert set(run.heads) == set(counts)
    for n in counts:
        head = run.heads[n]
        head_game = replace(game, mues=game.mues[:n])
        theirs = M.dynamic_match(head_game, M.build_preferences(head_game))
        ex_ante, matching = theirs.ex_ante, theirs.matching
        assert run.firsts[:n] == [ex_ante.mu1[u] for u in range(n)]
        assert run.seconds[:n] == [ex_ante.mu2[u] for u in range(n)]
        assert matching.mu1 == ex_ante.mu1
        assert matching.mu2 == {
            u: head.repairs[u].second if u in head.repairs else ex_ante.mu2[u]
            for u in range(n)}
        assert run.stage1[:head.end] + head.stage2 == theirs.trace.proposals
        ref = R.dynamic_match(head_game)
        assert repr((ex_ante, matching)) == repr((ref.ex_ante, ref.matching))
        assert _proposals(theirs.trace, 2) == _proposals(ref.trace, 2)


class TestMatchHeads:
    """Each head of a `run_heads` pass against the game of the first n
    users matched on its own."""

    def test_random_games_match_fresh_heads(self):
        # gamma varies across users of a random game, so its priority is
        # often not index order and only some counts are heads; the same
        # users listed in priority order make every count a head. Without
        # cross-SBS plans, stage two gives plans stage one could not, so
        # a head's users compete there for what later users hold
        rng = np.random.default_rng(113)
        cases = partial = 0
        for i in range(600):
            game = random_game_instance(rng, max_mues=14)
            if i % 2:
                game = replace(game, allow_cross_sbs_plans=False)
            prefs = M.build_preferences(game)
            counts = _prefix_counts(prefs)
            partial += len(counts) < len(game.mues) + 1
            priority = prefs.scores.priority()
            ordered = replace(game, mues=tuple(game.mues[u]
                                               for u in priority))
            assert _prefix_counts(M.build_preferences(ordered)) == \
                list(range(len(game.mues) + 1))
            for g, cs in ((game, counts), (ordered, counts[::-1]),
                          (ordered, range(len(game.mues) + 1))):
                _assert_heads_match_fresh_games(g, list(cs))
                cases += len(cs)
        assert cases >= 8000 and partial >= 500

    def test_region_games_match_fresh_heads(self):
        counts = list(range(5, 55, 5))
        for seed in (1, 2, 3):
            config = ScenarioConfig(seed=seed)
            rng = np.random.default_rng(seed)
            for speed in (2.0, 8.0, 12.0):
                game = experiments.build_region_instance(
                    config, 50, speed, rng).game
                # every region user starts with a full cache: gamma ties
                assert _prefix_counts(M.build_preferences(game)) == \
                    list(range(51))
                _assert_heads_match_fresh_games(game, counts)

    def test_count_off_the_priority_prefix_raises(self):
        rng = np.random.default_rng(115)
        refused = 0
        for _ in range(200):
            game = random_game_instance(rng, max_mues=10)
            prefs = M.build_preferences(game)
            counts = _prefix_counts(prefs)
            n_mues = len(game.mues)
            for n in range(-1, n_mues + 2):
                if n in counts:
                    continue
                with pytest.raises(ValueError):
                    M.run_heads(prefs.scores, (n_mues, n))
                refused += 0 < n <= n_mues
        assert refused >= 700

    def test_full_table_is_left_as_it_was(self):
        rng = np.random.default_rng(114)
        for _ in range(100):
            game = random_game_instance(rng, max_mues=12)
            prefs = M.build_preferences(game)
            before = repr(_profiles(prefs)), prefs.scores.priority()[:]
            M.run_heads(prefs.scores, _prefix_counts(prefs))
            assert prefs.scores.instance is game
            assert (repr(_profiles(prefs)), prefs.scores.priority()) == before
            assert repr(M.dynamic_match(game, prefs)) == \
                repr(M.dynamic_match(game, M.build_preferences(game)))

    def test_one_pass_per_speed_of_a_region_replication(self, monkeypatch):
        calls = []
        run_heads = M.run_heads

        def counting(scores, counts):
            calls.append(tuple(counts))
            return run_heads(scores, counts)

        monkeypatch.setattr(M, "run_heads", counting)
        users = tuple(range(5, 55, 5))
        cfg = ScenarioConfig(seed=1)
        experiments._region_replication(
            cfg, (6, 0), [(v, users) for v in (2.0, 8.0, 10.0, 12.0)])
        assert calls == [users] * 4


def _assert_heads_equal_reference(cfg, key, points):
    """`_region_replication` against `R.region_metrics` of every head
    game, built afresh at each speed and matched on its own by
    `dynamic_match`. Returns how many users stage-two repairs muted, and
    at how many points the largest head's trace named SBS 0 more often
    than the head's."""
    ours = experiments._region_replication(cfg, key, points)
    assert set(ours) == {(v, n) for v, users in points for n in users}
    top = max(max(users) for _, users in points)
    muted = later = 0
    for v, users in points:
        region = experiments.build_region_instance(
            cfg, top, v, experiments._rep_rng(cfg.seed, *key))
        full = M.dynamic_match(region.game).trace
        for n in users:
            game = replace(region.game, mues=region.game.mues[:n])
            result = M.dynamic_match(game)
            theirs = R.region_metrics(cfg, game.mues,
                                      region.focal_chords[:n], result)
            assert ours[v, n] == theirs, (cfg, key, n, v)
            assert ours[v, n]["proposals"] == \
                R.signaling_overhead(result.trace, sbs=0)
            matching = result.matching
            muted += sum(
                result.ex_ante.mu2[u] is None and matching.mu1[u] is None
                and matching.mu2[u] is not None
                and matching.mu2[u].kind is M.PlayerKind.SBS
                for u in range(n))
            later += R.signaling_overhead(full, sbs=0) > \
                ours[v, n]["proposals"]
    return muted, later


class TestHeadMeasurement:
    """`_region_replication` measures each head from running counts; the
    reference measures each head game matched on its own."""

    USERS = (experiments.USER_COUNTS, (50, 5, 5, 23))
    # each of USERS at every speed, and 20 users at some speeds with every
    # user count at others, as a joint run of every region curve has them
    POINTS = tuple([(2.0, u), (8.0, u), (12.0, u)] for u in USERS) + (
        [(2.0, (20,)), (8.0, experiments.USER_COUNTS), (12.0, (20,))],)

    @pytest.mark.parametrize("overrides", [
        {"quota": 1}, {"quota": 2}, {"quota": 3},
        {"n_sbs": 1}, {"n_sbs": 1, "quota": 1}])
    def test_heads_equal_reference_metrics(self, overrides):
        later = 0
        for seed in (1, 2, 3):
            cfg = replace(ScenarioConfig(seed=seed), **overrides)
            for points in self.POINTS:
                muted, at = _assert_heads_equal_reference(
                    cfg, (4, seed), points)
                # a user refused a period-2 SBS in stage one finds no
                # more room there in stage two, so no repair mutes
                assert muted == 0
                later += at
        assert later > 0

    def test_repairs_that_mute_are_counted(self, monkeypatch):
        # give stage two one more place per SBS than it has, and lift the
        # quota check, so that repairs mute users refused in stage one
        serial_dictatorship = M._serial_dictatorship

        def roomier(scores, users, rankings, room, trace, stage):
            if stage == 2:
                room = {s: free + 1 for s, free in room.items()}
            return serial_dictatorship(scores, users, rankings, room, trace,
                                       stage=stage)

        monkeypatch.setattr(M, "_serial_dictatorship", roomier)
        monkeypatch.setattr(M, "_check_quotas", lambda *args: None)
        muted = 0
        for seed in (1, 2, 3):
            cfg = ScenarioConfig(seed=seed, quota=1)
            for points in self.POINTS:
                muted += _assert_heads_equal_reference(
                    cfg, (4, seed), points)[0]
        assert muted > 0


def _overfill_stage_two(monkeypatch, at, slot, spill):
    """Make stage-two call number `at` (from 0) also put `spill` users,
    users 0 to spill - 1, on `slot` in period 2."""
    calls = []
    serial_dictatorship = M._serial_dictatorship

    def overfilling(scores, users, rankings, room, trace, stage):
        held = serial_dictatorship(scores, users, rankings, room, trace,
                                   stage=stage)
        if stage == 2:
            if len(calls) == at:
                held.update({u: M.Plan(None, slot) for u in range(spill)})
            calls.append(users)
        return held

    monkeypatch.setattr(M, "_serial_dictatorship", overfilling)
    return calls


class TestHeadChecks:
    """Every head of a run is checked, as `DynamicMatching.validate`
    checks a matching: a period-2 load over quota and a slot naming an SBS
    outside the game raise ValueError."""

    CONFIG = ScenarioConfig(seed=1, quota=2)

    def _region(self):
        """The game `_region_replication(CONFIG, (4, 0), ((8.0, users),))`
        matches for 50 users."""
        return experiments.build_region_instance(
            self.CONFIG, 50, 8.0,
            experiments._rep_rng(self.CONFIG.seed, 4, 0)).game

    def test_every_head_of_run_heads(self, monkeypatch):
        game = self._region()
        scores = M.build_preferences(game).scores
        M.run_heads(scores, experiments.USER_COUNTS)
        for at in range(len(experiments.USER_COUNTS)):
            with monkeypatch.context() as patch:
                calls = _overfill_stage_two(patch, at, M.sbs_id(1), 3)
                with pytest.raises(ValueError,
                                   match="quota violated at SBS 1 period 2"):
                    M.run_heads(scores, experiments.USER_COUNTS)
                assert len(calls) == at + 1

    def test_dynamic_match(self, monkeypatch):
        game = self._region()
        M.dynamic_match(game)
        _overfill_stage_two(monkeypatch, 0, M.sbs_id(0), 3)
        with pytest.raises(ValueError,
                           match="quota violated at SBS 0 period 2"):
            M.dynamic_match(game)

    def test_region_replication(self, monkeypatch):
        # stage two runs once per head and speed: call 12 is the third
        # head at the second speed
        cfg, users = self.CONFIG, experiments.USER_COUNTS
        points = [(8.0, users), (12.0, users)]
        experiments._region_replication(cfg, (4, 0), points)
        calls = _overfill_stage_two(monkeypatch, 12, M.sbs_id(0), 3)
        with pytest.raises(ValueError,
                           match="quota violated at SBS 0 period 2"):
            experiments._region_replication(cfg, (4, 0), points)
        assert len(calls) == 13

    def test_unknown_sbs(self, monkeypatch):
        game = self._region()
        prefs = M.build_preferences(game)
        for k in (len(game.sbss), -1):
            for run in (lambda: M.run_heads(prefs.scores, (5, 50)),
                        lambda: M.dynamic_match(game, prefs),
                        lambda: experiments._region_replication(
                            self.CONFIG, (4, 0), ((8.0, (5, 50)),))):
                with monkeypatch.context() as patch:
                    _overfill_stage_two(patch, 0, M.sbs_id(k), 1)
                    with pytest.raises(ValueError, match=f"unknown SBS {k}"):
                        run()


class TestSharedLayout:
    """Every table with n SBSs shares the one layout `_layout(n)`."""

    def test_interleaved_games_match_reference(self):
        # 300 games of 1 to 6 SBSs, tables built first and then ranked and
        # matched in a shuffled order, from layouts that start empty
        M._layout.cache_clear()
        rng = np.random.default_rng(110)
        games = [random_game_instance(rng, max_mues=12, max_sbss=6)
                 for _ in range(300)]
        assert len({len(game.sbss) for game in games}) == 6
        tables = [M._Scores(game) for game in games]
        for i in rng.permutation(len(games)):
            game = games[i]
            tables[i].rank()
            prefs = M.Preferences(tuple(
                M.PreferenceProfile(tuple(e.plan for e in ranking))
                for ranking in tables[i].rankings), tables[i])
            ref_prefs = R.build_preferences(game)
            assert repr(_profiles(prefs)) == repr(_profiles(ref_prefs))
            res = M.dynamic_match(game, preferences=prefs)
            ref = R.dynamic_match(game, preferences=ref_prefs)
            assert repr((res.ex_ante, res.matching)) == \
                repr((ref.ex_ante, ref.matching))
            assert repr((_scan(res.matching, game),
                         _scan(res.ex_ante, game))) == \
                repr((_reference_scan(ref.matching, game),
                      _reference_scan(ref.ex_ante, game)))

    def test_equal_sbs_counts_share_plan_entries(self):
        rng = np.random.default_rng(111)
        games = []
        while len(games) < 2:
            game = random_game_instance(rng, max_mues=12, max_sbss=4)
            if len(game.sbss) == 4:
                games.append(game)
        a, b = (M.build_preferences(game).scores for game in games)
        assert a._plans is b._plans is M._layout(4).plans
        entries = {e.plan: e for ranking in b.rankings for e in ranking}
        shared = [e for ranking in a.rankings for e in ranking
                  if e.plan in entries]
        assert shared
        assert all(entries[e.plan] is e for e in shared)

    def test_interned_plans_bounded_by_pair_codes(self):
        rng = np.random.default_rng(112)
        for _ in range(200):
            game = random_game_instance(rng, max_mues=12, max_sbss=4)
            M.dynamic_match(game)
            M.deferred_acceptance(game)
        for n in range(1, 5):
            plans = M._layout(n).plans
            assert 0 < len(plans) <= (n + 2) ** 2
        # interning every pair code of the last game's SBS count fills its
        # dict and nothing more
        table = M._Scores(game)
        n = len(game.sbss)
        for _ in range(2):
            for pair in range((n + 2) ** 2):
                table.entry(pair)
            assert len(table._plans) == (n + 2) ** 2

    def test_stability_scan_equals_per_period_scans(self):
        rng = np.random.default_rng(113)
        blocked = 0
        for _ in range(300):
            game = random_game_instance(rng, max_mues=12, max_sbss=4)
            res = M.dynamic_match(game)
            for matching in (res.matching, res.ex_ante):
                report = oracle.scan_all_blockings(matching, game)
                assert repr((report.period1, report.period2)) == repr((
                    M.find_blocking_pairs(matching, game, period=1),
                    M.find_blocking_pairs(matching, game, period=2)))
                blocked += not report.stable
        assert blocked >= 10


class TestRecords:
    """The tuple-backed records keep their reprs and pickle."""

    def test_reprs(self):
        assert repr(M.sbs_id(3)) == "sbs3" and repr(M.MBS) == "mbs0"
        assert repr(plan(0, None)) == "(sbs0,self)"
        assert repr(plan(None, "mbs")) == "(self,mbs0)"
        assert repr(M.SELF_PLAN) == "(self,self)"
        assert repr(M.ProposalRecord(1, 2, plan(0, 1), True)) == \
            "ProposalRecord(stage=1, mue=2, plan=(sbs0,sbs1), accepted=True)"
        assert repr(M.MueState(8.0, 0.0, 0.15, cand1=(0,))) == \
            ("MueState(speed=8.0, segments=0.0, p_th=0.15, cand1=(0,), "
             "cand2=(), gap1=inf, gap2=inf)")

    def test_fields_defaults_and_methods(self):
        mue = M.MueState(speed=8.0, segments=0.0, p_th=0.15)
        assert (mue.cand1, mue.cand2, mue.gap1, mue.gap2) == \
            ((), (), math.inf, math.inf)
        assert M.sbs_id(2).kind is M.PlayerKind.SBS and M.sbs_id(2).index == 2
        assert tuple(plan(1, 1)) == (M.sbs_id(1), M.sbs_id(1))

    def test_pickle_round_trip(self):
        import pickle
        game = random_game_instance(np.random.default_rng(5), max_mues=8)
        result = M.dynamic_match(game)
        records = [M.sbs_id(1), M.MBS, plan(0, "mbs"), M.SELF_PLAN,
                   game.mues[0]] + list(result.trace.proposals)
        for record in records:
            copy = pickle.loads(pickle.dumps(record))
            assert type(copy) is type(record)
            assert copy == record and repr(copy) == repr(record)
        copy = pickle.loads(pickle.dumps(result))
        assert repr(copy) == repr(result)
