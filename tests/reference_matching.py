"""Test-only copy of the matching path before per-call score tables.

Every function here is the definitional version: each utility, plan key
and roster is recomputed at every use, HOF goes through the public
`geometry.hof_probability`, and rosters are rescanned from the matching.
The matchers are the original proposal processes: deferred acceptance with
displacement for the single-period matcher and stage two, and plan
proposals with restarts for stage one. `tests/test_matching.py` compares the production path (per-call
score tables, serial dictatorship) against it on random and region games.
The data types (plans, matchings, traces, violations) are the production
ones, so results compare by `repr`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from mmwcache.geometry import hof_probability
from mmwcache.matching import (MBS, SELF_PLAN, BsPreference, DynamicMatching,
                               GameInstance, MatchResult, MatchTrace, PlayerId,
                               PlayerKind, Plan, PreferenceProfile,
                               Preferences, ProposalRecord, Violation, sbs_id)


class ConvergenceError(RuntimeError):
    pass


def mue_utility(u: int, k: int, instance: GameInstance) -> float:
    """User-side utility of an SBS: threshold margin over HOF probability."""
    mue = instance.mues[u]
    sbs = instance.sbss[k]
    hof = hof_probability(mue.speed, instance.t_mts, sbs.radius)
    return mue.p_th - hof


def sbs_utility(u: int, k: int, instance: GameInstance) -> float:
    """BS-side utility of a user: scan interval minus cached playback time."""
    mue = instance.mues[u]
    return instance.scan_interval - mue.segments / instance.play_rate


def _coast_distance(instance: GameInstance, u: int) -> float:
    mue = instance.mues[u]
    return mue.segments / instance.play_rate * mue.speed


def _refill_distance(instance: GameInstance, u: int) -> float:
    return instance.cache_capacity / instance.play_rate * instance.mues[u].speed


def _covered_p1(instance: GameInstance, u: int) -> bool:
    return _coast_distance(instance, u) >= instance.mues[u].gap1


def _covered_p2(instance: GameInstance, u: int,
                first: Optional[PlayerId]) -> bool:
    mue = instance.mues[u]
    if first is not None and first.kind == PlayerKind.SBS:
        return _refill_distance(instance, u) >= mue.gap2
    if first is not None and first.kind == PlayerKind.MBS:
        return _coast_distance(instance, u) >= mue.gap2
    return _coast_distance(instance, u) >= mue.gap1 + mue.gap2


def _period_payoff(instance: GameInstance, u: int, slot: Optional[PlayerId],
                   covered: bool, period: int) -> float:
    if slot is None:
        if not covered:
            return instance.shortfall_penalty
        return (instance.covered_payoff if period == 1
                else instance.future_covered_payoff)
    if slot.kind == PlayerKind.SBS:
        return mue_utility(u, slot.index, instance)
    return instance.mbs_payoff


def plan_score(instance: GameInstance, u: int, first: Optional[PlayerId],
               second: Optional[PlayerId]) -> float:
    """Additive two-period score of an (attempted or realized) outcome.

    A certain, in-hand covered cache period may be valued differently from a
    projected period-2 one (the latter rides on the realized drain), hence
    the separate covered payoffs.
    """
    p1 = _period_payoff(instance, u, first, _covered_p1(instance, u), 1)
    p2 = _period_payoff(instance, u, second,
                        _covered_p2(instance, u, first), 2)
    return p1 + p2


def _slot_rank(slot: Optional[PlayerId]) -> Tuple[int, int]:
    if slot is None:
        return (2, 0)
    if slot.kind == PlayerKind.SBS:
        return (0, slot.index)
    return (1, slot.index)


def plan_key(instance: GameInstance, u: int, plan: Plan) -> tuple:
    """Total order over plans: higher score first, then SBS-early/low-index."""
    score = plan_score(instance, u, plan.first, plan.second)
    return (-score,) + _slot_rank(plan.first) + _slot_rank(plan.second)


def mue_prefers(instance: GameInstance, u: int, a: Plan, b: Plan) -> bool:
    """Strict preference of plan/outcome a over b for user u."""
    return plan_key(instance, u, a) < plan_key(instance, u, b)


def bs_prefers_mue(instance: GameInstance, k: int, u: int, w: int) -> bool:
    """Strict preference of SBS k for user u over user w."""
    gu, gw = sbs_utility(u, k, instance), sbs_utility(w, k, instance)
    return gu > gw or (gu == gw and u < w)


def plan_universe(instance: GameInstance, u: int) -> List[Plan]:
    """All geometrically feasible, individually rational plans of user u.

    SBS slots require a nonnegative threshold margin; SBS-then-macro plans
    are generated only when the margin is small enough for the macro to
    admit the user in period 2.
    """
    mue = instance.mues[u]
    cand1 = [k for k in mue.cand1 if mue_utility(u, k, instance) >= 0.0]
    cand2 = [k for k in mue.cand2 if mue_utility(u, k, instance) >= 0.0]
    plans: List[Plan] = []
    for k in cand1:
        plans.append(Plan(sbs_id(k), None))
        if mue_utility(u, k, instance) < instance.epsilon:
            plans.append(Plan(sbs_id(k), MBS))
        for k2 in cand2:
            if k2 == k or instance.allow_cross_sbs_plans:
                plans.append(Plan(sbs_id(k), sbs_id(k2)))
    for k2 in cand2:
        plans.append(Plan(None, sbs_id(k2)))
    plans.append(Plan(None, MBS))
    return plans


def build_preferences(instance: GameInstance) -> Preferences:
    """Rank every player's options; drop plans not beating the self plan."""
    mue_profiles = []
    for u in range(len(instance.mues)):
        self_key = plan_key(instance, u, SELF_PLAN)
        listed = [p for p in plan_universe(instance, u)
                  if plan_key(instance, u, p) < self_key]
        listed.sort(key=lambda p: plan_key(instance, u, p))
        mue_profiles.append(PreferenceProfile(ranked_plans=tuple(listed)))

    sbs_profiles = []
    for k in range(len(instance.sbss)):
        listed = [u for u, prof in enumerate(mue_profiles)
                  if not sbs_utility(u, k, instance) < 0.0
                  and any(sbs_id(k) in p.slots() for p in prof.ranked_plans)]
        ranked = sorted(listed,
                        key=lambda u: (-sbs_utility(u, k, instance), u))
        sbs_profiles.append(BsPreference(ranked_mues=tuple(ranked)))

    listed = [u for u, prof in enumerate(mue_profiles)
              if any(p.second == MBS for p in prof.ranked_plans)]
    mbs_ranked = sorted(listed,
                        key=lambda u: (-sbs_utility(u, 0, instance), u))
    mbs_profile = BsPreference(ranked_mues=tuple(mbs_ranked))
    return Preferences(tuple(mue_profiles), tuple(sbs_profiles), mbs_profile)


def deferred_acceptance(instance: GameInstance,
                        preferences: Optional[Preferences] = None,
                        ) -> Tuple[Dict[int, Optional[PlayerId]], MatchTrace]:
    """User-proposing deferred acceptance over period-1 preferences.

    Plans reduce to their first components; users left unmatched go to the
    cache when playback outlasts the scan interval, otherwise to the macro
    cell. The output admits no single-period blocking pair.
    """
    prefs = preferences or build_preferences(instance)
    trace = MatchTrace()
    rank_lists: List[List[int]] = []
    for u, prof in enumerate(prefs.mue_profiles):
        seen: List[int] = []
        for plan in prof.ranked_plans:
            if plan.first is not None and plan.first.kind == PlayerKind.SBS:
                if plan.first.index not in seen:
                    seen.append(plan.first.index)
        rank_lists.append(seen)

    pointers = [0] * len(instance.mues)
    held: Dict[int, List[int]] = {k: [] for k in range(len(instance.sbss))}
    matched: Dict[int, Optional[int]] = {u: None for u in range(len(instance.mues))}

    active = True
    while active:
        active = False
        for u in range(len(instance.mues)):
            if matched[u] is not None:
                continue
            while pointers[u] < len(rank_lists[u]):
                k = rank_lists[u][pointers[u]]
                pointers[u] += 1
                active = True
                accepted = _da_offer(instance, held, matched, u, k)
                trace.proposals.append(ProposalRecord(
                    stage=1, mue=u, plan=Plan(sbs_id(k), None),
                    accepted=accepted))
                if accepted:
                    break

    mu: Dict[int, Optional[PlayerId]] = {}
    for u in range(len(instance.mues)):
        if matched[u] is not None:
            mu[u] = sbs_id(matched[u])
        elif instance.mues[u].segments / instance.play_rate >= instance.scan_interval:
            mu[u] = None
        else:
            mu[u] = MBS
    return mu, trace


def _da_offer(instance: GameInstance, held: Dict[int, List[int]],
              matched: Dict[int, Optional[int]], u: int, k: int) -> bool:
    """Offer user u to SBS k; displace the worst member if it improves k."""
    if sbs_utility(u, k, instance) < 0.0:
        return False
    roster = held[k]
    if len(roster) < instance.sbss[k].quota:
        roster.append(u)
        matched[u] = k
        return True
    worst = min(roster, key=lambda w: (sbs_utility(w, k, instance), -w))
    if bs_prefers_mue(instance, k, u, worst):
        roster.remove(worst)
        matched[worst] = None
        roster.append(u)
        matched[u] = k
        return True
    return False


def find_single_period_blocking(mu: Dict[int, Optional[PlayerId]],
                                instance: GameInstance,
                                ) -> List[Tuple[int, int]]:
    """Classic blocking pairs (user, SBS) of a single-period matching."""
    prefs = build_preferences(instance)
    blocking = []
    for u in range(len(instance.mues)):
        acceptable = []
        for plan in prefs.mue_profiles[u].ranked_plans:
            if plan.first is not None and plan.first.kind == PlayerKind.SBS:
                if plan.first.index not in acceptable:
                    acceptable.append(plan.first.index)
        current = mu[u]
        current_rank = (acceptable.index(current.index)
                        if current is not None and current.kind == PlayerKind.SBS
                        else len(acceptable))
        for rank, k in enumerate(acceptable):
            if rank >= current_rank:
                break
            members = sorted(w for w, b in mu.items() if b == sbs_id(k))
            if len(members) < instance.sbss[k].quota:
                if sbs_utility(u, k, instance) > 0.0:
                    blocking.append((u, k))
            elif any(bs_prefers_mue(instance, k, u, w) for w in members):
                blocking.append((u, k))
    return blocking


def dynamic_match(instance: GameInstance,
                  preferences: Optional[Preferences] = None) -> MatchResult:
    """Two-stage plan matching: ex ante stage then period-2 repair."""
    prefs = preferences or build_preferences(instance)
    trace = MatchTrace()
    held = _stage_one(instance, prefs, trace)
    ex_ante = _matching_from_plans(instance, held)
    _period1_fallback(instance, ex_ante)
    matching = ex_ante.copy()
    _stage_two(instance, prefs, matching, trace)
    matching.validate(instance)
    return MatchResult(matching=matching, ex_ante=ex_ante, trace=trace)


def _stage_one(instance: GameInstance, prefs: Preferences,
               trace: MatchTrace) -> Dict[int, Plan]:
    """Plan proposals with tentative acceptance until no plan is rejected.

    Plans are atomic: a plan displaced at any requested slot dies entirely,
    freeing its other slots. Because the BS-side utility does not depend on
    the serving BS, all rosters rank users by one global priority order, so
    a displacement chain can only descend that order; whenever capacity is
    freed (a death, or a user upgrading away from its held plan), recorded
    rejections are cleared and users re-propose from the top. This converges
    to an assignment in which every standing rejection is justified against
    the final rosters.
    """
    n_mues = len(instance.mues)
    profiles = [list(p.ranked_plans) for p in prefs.mue_profiles]
    rejected: List[set] = [set() for _ in range(n_mues)]
    held: Dict[int, Plan] = {}
    held_idx: Dict[int, int] = {}

    total_plans = sum(len(p) for p in profiles)
    max_proposals = 200 * (total_plans + 1) * (n_mues + 2)
    proposals = 0

    def slot_members(k: int, period: int) -> List[int]:
        slot = sbs_id(k)
        return [w for w, plan in held.items()
                if plan.slots()[period - 1] == slot]

    def next_index(u: int) -> Optional[int]:
        limit = held_idx.get(u, len(profiles[u]))
        for idx in range(limit):
            if idx not in rejected[u]:
                return idx
        return None

    while True:
        active = None
        for u in range(n_mues):
            if next_index(u) is not None:
                active = u
                break
        if active is None:
            return held

        u = active
        idx = next_index(u)
        plan = profiles[u][idx]
        proposals += 1
        if proposals > max_proposals:
            raise ConvergenceError("stage 1 failed to converge")

        accepted = True
        victims: List[int] = []
        if any(slot is not None and slot.kind == PlayerKind.MBS
               for slot in plan.slots()):
            accepted = False   # the macro cell takes no stage-1 proposals
        else:
            for period in (1, 2):
                slot = plan.slots()[period - 1]
                if slot is None or slot.kind != PlayerKind.SBS:
                    continue
                k = slot.index
                if sbs_utility(u, k, instance) < 0.0:
                    accepted = False
                    break
                members = [w for w in slot_members(k, period) if w != u]
                if len(members) < instance.sbss[k].quota:
                    continue
                worst = min(members,
                            key=lambda w: (sbs_utility(w, k, instance), -w))
                if bs_prefers_mue(instance, k, u, worst):
                    victims.append(worst)
                else:
                    accepted = False
                    break

        trace.proposals.append(ProposalRecord(
            stage=1, mue=u, plan=plan, accepted=accepted))
        if not accepted:
            rejected[u].add(idx)
            continue

        freed = u in held or victims
        for w in set(victims):
            del held[w]
            del held_idx[w]
        held[u] = plan
        held_idx[u] = idx
        if freed:
            # capacity was released somewhere: earlier rejections may no
            # longer be justified, so everyone may re-propose from the top
            trace.restarts += 1
            for w in range(n_mues):
                rejected[w].clear()


def _matching_from_plans(instance: GameInstance,
                         held: Dict[int, Plan]) -> DynamicMatching:
    mu1: Dict[int, Optional[PlayerId]] = {}
    mu2: Dict[int, Optional[PlayerId]] = {}
    for u in range(len(instance.mues)):
        plan = held.get(u, SELF_PLAN)
        mu1[u] = plan.first
        mu2[u] = plan.second
    return DynamicMatching(mu1, mu2)


def _period1_fallback(instance: GameInstance,
                      matching: DynamicMatching) -> None:
    """Send cache-poor unmatched users to the macro cell for period 1."""
    for u in range(len(instance.mues)):
        if matching.mu1[u] is not None:
            continue
        playback = instance.mues[u].segments / instance.play_rate
        if playback >= instance.scan_interval:
            continue
        current = plan_score(instance, u, None, matching.mu2[u])
        rerouted = plan_score(instance, u, MBS, matching.mu2[u])
        if rerouted > current:
            matching.mu1[u] = MBS


def _mbs_admits_p2(instance: GameInstance, u: int,
                   first: Optional[PlayerId]) -> bool:
    """Macro period-2 admission rule."""
    if first is not None and first.kind == PlayerKind.SBS:
        mue = instance.mues[u]
        sbs = instance.sbss[first.index]
        hof = hof_probability(mue.speed, instance.t_mts, sbs.radius)
        return (mue.p_th - hof) < instance.epsilon
    if first is not None and first.kind == PlayerKind.MBS:
        return True
    playback = instance.mues[u].segments / instance.play_rate
    return playback < instance.scan_interval


def _stage_two(instance: GameInstance, prefs: Preferences,
               matching: DynamicMatching, trace: MatchTrace) -> None:
    """Period-2 deferred acceptance among users still unmatched in period 2.

    Options are the period-2 partners consistent with the realized period-1
    assignment: candidate SBSs with remaining quota and the macro cell under
    its admission rule. Period-2 members held from stage one are immutable.
    """
    participants = [u for u in range(len(instance.mues))
                    if matching.mu2[u] is None]
    options: Dict[int, List[PlayerId]] = {}
    for u in participants:
        first = matching.mu1[u]
        self_key = plan_key(instance, u, Plan(first, None))
        opts = []
        for k in instance.mues[u].cand2:
            if mue_utility(u, k, instance) < 0.0:
                continue
            opts.append(sbs_id(k))
        if _mbs_admits_p2(instance, u, first):
            opts.append(MBS)
        opts = [o for o in opts
                if plan_key(instance, u, Plan(first, o)) < self_key]
        opts.sort(key=lambda o: plan_key(instance, u, Plan(first, o)))
        options[u] = opts

    pointers = {u: 0 for u in participants}
    tentative: Dict[int, Optional[PlayerId]] = {u: None for u in participants}
    while True:
        progress = False
        for u in participants:
            if tentative[u] is not None:
                continue
            while pointers[u] < len(options[u]):
                target = options[u][pointers[u]]
                pointers[u] += 1
                progress = True
                accepted = _stage_two_offer(
                    instance, matching, tentative, u, target)
                trace.proposals.append(ProposalRecord(
                    stage=2, mue=u, plan=Plan(matching.mu1[u], target),
                    accepted=accepted))
                if accepted:
                    break
        if not progress:
            break

    for u, target in tentative.items():
        if target is not None:
            matching.mu2[u] = target


def _stage_two_offer(instance: GameInstance, matching: DynamicMatching,
                     tentative: Dict[int, Optional[PlayerId]], u: int,
                     target: PlayerId) -> bool:
    if target.kind == PlayerKind.MBS:
        tentative[u] = MBS
        return True
    k = target.index
    if sbs_utility(u, k, instance) < 0.0:
        return False
    fixed = matching.members(2, target)
    entrants = [w for w, t in tentative.items() if t == target]
    free = instance.sbss[k].quota - len(fixed)
    if free <= 0:
        return False
    if len(entrants) < free:
        tentative[u] = target
        return True
    worst = min(entrants, key=lambda w: (sbs_utility(w, k, instance), -w))
    if bs_prefers_mue(instance, k, u, worst):
        tentative[worst] = None
        tentative[u] = target
        return True
    return False


def _ir_ok(instance: GameInstance, u: int, first: Optional[PlayerId],
           second: Optional[PlayerId]) -> bool:
    """Individual rationality of a deviation: no SBS slot below threshold."""
    for slot in (first, second):
        if slot is not None and slot.kind == PlayerKind.SBS:
            if mue_utility(u, slot.index, instance) < 0.0:
                return False
    return True


def _bs_gains_strictly(instance: GameInstance, matching: DynamicMatching,
                       k: int, u: int, period: int) -> bool:
    """Would SBS k strictly improve by adding u in the given period?"""
    target = sbs_id(k)
    members = matching.members(period, target)
    if u in members:
        return False
    if sbs_utility(u, k, instance) < 0.0:
        return False
    if len(members) < instance.sbss[k].quota:
        return sbs_utility(u, k, instance) > 0.0
    return any(bs_prefers_mue(instance, k, u, w) for w in members)


def find_blocking_pairs(matching: DynamicMatching, instance: GameInstance,
                        period: int) -> List[Violation]:
    """Enumerate every blocking configuration of the requested period."""
    matching.validate(instance)
    if period == 1:
        return _scan_period1(matching, instance)
    if period == 2:
        return _scan_period2(matching, instance)
    raise ValueError("period must be 1 or 2")


def _current_plan(matching: DynamicMatching, u: int) -> Plan:
    return Plan(matching.mu1[u], matching.mu2[u])


def _scan_period1(matching: DynamicMatching,
                  instance: GameInstance) -> List[Violation]:
    out: List[Violation] = []

    for u in range(len(instance.mues)):
        current = _current_plan(matching, u)
        if mue_prefers(instance, u, SELF_PLAN, current):
            out.append(Violation(1, "unilateral-mue", u))

    for k in range(len(instance.sbss)):
        for period in (1, 2):
            for u in matching.members(period, sbs_id(k)):
                if sbs_utility(u, k, instance) < 0.0:
                    out.append(Violation(1, "unilateral-bs", u, sbs_id(k)))

    for u in range(len(instance.mues)):
        current = _current_plan(matching, u)
        mue = instance.mues[u]
        candidates = set(mue.cand1) | set(mue.cand2)
        for k in sorted(candidates):
            target = sbs_id(k)
            # 1) two-period plan kk against BS serving u both periods
            if k in mue.cand1 and k in mue.cand2 and \
                    _ir_ok(instance, u, target, target):
                if mue_prefers(instance, u, Plan(target, target), current):
                    gain1 = (u in matching.members(1, target)
                             or _bs_gains_strictly(instance, matching, k, u, 1))
                    gain2 = (u in matching.members(2, target)
                             or _bs_gains_strictly(instance, matching, k, u, 2))
                    strict = (_bs_gains_strictly(instance, matching, k, u, 1)
                              or _bs_gains_strictly(instance, matching, k, u, 2))
                    if gain1 and gain2 and strict:
                        out.append(Violation(1, "pair-kk", u, target))
            # 2) serve period 1 only
            if k in mue.cand1 and _ir_ok(instance, u, target, None):
                if mue_prefers(instance, u, Plan(target, None), current) and \
                        _bs_gains_strictly(instance, matching, k, u, 1):
                    out.append(Violation(1, "pair-ku", u, target))
            # 3) serve period 2 only
            if k in mue.cand2 and _ir_ok(instance, u, None, target):
                if mue_prefers(instance, u, Plan(None, target), current) and \
                        _bs_gains_strictly(instance, matching, k, u, 2):
                    out.append(Violation(1, "pair-uk", u, target))
            # 4) mutual divorce
            in_any = (u in matching.members(1, target)
                      or u in matching.members(2, target))
            if in_any and mue_prefers(instance, u, SELF_PLAN, current) and \
                    sbs_utility(u, k, instance) < 0.0:
                out.append(Violation(1, "pair-divorce", u, target))
    return out


def _scan_period2(matching: DynamicMatching,
                  instance: GameInstance) -> List[Violation]:
    out: List[Violation] = []

    for u in range(len(instance.mues)):
        current = _current_plan(matching, u)
        first = matching.mu1[u]
        if mue_prefers(instance, u, Plan(first, None), current):
            out.append(Violation(2, "unilateral-mue", u))

        for k in sorted(set(instance.mues[u].cand2)):
            target = sbs_id(k)
            if _ir_ok(instance, u, None, target) and \
                    mue_prefers(instance, u, Plan(first, target), current):
                members = matching.members(2, target)
                if len(members) >= instance.sbss[k].quota:
                    continue  # full BSs never period-2 block
                if _bs_gains_strictly(instance, matching, k, u, 2):
                    out.append(Violation(2, "pair-gain", u, target))
            if u in matching.members(2, target) and \
                    mue_prefers(instance, u, Plan(first, None), current) and \
                    sbs_utility(u, k, instance) < 0.0:
                out.append(Violation(2, "pair-divorce", u, target))

        if matching.mu2[u] != MBS and \
                mue_prefers(instance, u, Plan(first, MBS), current) and \
                _mbs_admits_p2(instance, u, first):
            out.append(Violation(2, "pair-mbs", u, MBS))
    return out
