"""Two-period dynamic matching between mobile users and base stations.

Mobile users rank two-period association plans (serve/cache/macro fallback
per period); small base stations rank users by how little cached playback
they hold. A single-period deferred-acceptance solver provides the classic
stable matching; the two-stage dynamic solver first reaches an ex ante
stable plan assignment through plan proposals and then repairs period-2
blocking through a constrained second-period deferred acceptance. Exhaustive
blocking scans over the same preference primitives verify both stability
notions.

The BS-side utility gamma depends only on the user's cached playback, never
on the base station ranking it, so every roster ranks users in one common
priority order, (gamma, -index). Under a common priority, user-proposing
deferred acceptance has the outcome of serial dictatorship: each user, best
first, takes its first option that still has room (Ergin, "Efficient
resource allocation on the basis of priorities", Econometrica 70(6), 2002;
Abdulkadiroglu and Sonmez, "School choice: a mechanism design approach",
AER 93(3), 2003). All three matchers run as one such pass after one sort.
For stage two and the single-period matcher (one slot per user) this is
the theorem; for stage one's atomic two-slot plans the equivalence with the
proposal-and-restart process is established by differential tests.

Scores are tabulated once per call: each public entry point builds a
private table (`_Scores`) of each user's payoffs (phi per SBS, the cache
payoffs) and gamma, fills it on first use and drops it when it returns.
Plan keys and ranked plan lists are both derived from these payoffs, and
the public utility functions compute through the same code, so a tabulated
value equals the direct one bit for bit.

Determinism: all tie-breaking is lexicographic in (utility, player index),
so identical instances yield identical matchings. One matching computation
owns its instance and its table, and touches no process-wide state (HOF
clamps silently instead of through the warnings machinery), so concurrent
games share nothing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .geometry import hof_probability_clamped


class PlayerKind(enum.Enum):
    MUE = "mue"
    SBS = "sbs"
    MBS = "mbs"


@dataclass(frozen=True)
class PlayerId:
    kind: PlayerKind
    index: int

    def __repr__(self):
        return f"{self.kind.value}{self.index}"


MBS = PlayerId(PlayerKind.MBS, 0)


def sbs_id(index: int) -> PlayerId:
    return PlayerId(PlayerKind.SBS, index)


def mue_id(index: int) -> PlayerId:
    return PlayerId(PlayerKind.MUE, index)


@dataclass(frozen=True)
class Plan:
    """Two-period association intention; None means cache use (self-match)."""

    first: Optional[PlayerId]
    second: Optional[PlayerId]

    def slots(self) -> Tuple[Optional[PlayerId], Optional[PlayerId]]:
        return (self.first, self.second)

    def sbs_targets(self) -> Tuple[int, ...]:
        out = []
        for slot in self.slots():
            if slot is not None and slot.kind == PlayerKind.SBS:
                if slot.index not in out:
                    out.append(slot.index)
        return tuple(out)

    def __repr__(self):
        def s(x):
            return "self" if x is None else repr(x)
        return f"({s(self.first)},{s(self.second)})"


SELF_PLAN = Plan(None, None)


@dataclass(frozen=True)
class MueState:
    """Matching-relevant snapshot of one mobile user.

    gap1 is the unassociated distance to the period-2 rendezvous when
    coasting through period 1; gap2 the residual stretch to cover in period 2
    after leaving the period-1 cell.
    """

    speed: float
    segments: float
    p_th: float
    cand1: Tuple[int, ...] = ()
    cand2: Tuple[int, ...] = ()
    gap1: float = math.inf
    gap2: float = math.inf


@dataclass(frozen=True)
class SbsState:
    radius: float
    quota: int

    def __post_init__(self):
        if self.quota < 1:
            raise ValueError("quota must be >= 1")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class GameInstance:
    """One dynamic matching game."""

    mues: Tuple[MueState, ...]
    sbss: Tuple[SbsState, ...]
    t_mts: float = 1.0
    scan_interval: float = 1.0          # baseline T_s used by SBS utilities
    epsilon: float = 0.05               # macro period-2 admission threshold
    play_rate: float = 1e3              # segments per second
    cache_capacity: float = 1e4         # refill target after a served period
    mbs_payoff: float = -0.5            # period payoff of a macro slot
    covered_payoff: float = 0.0         # covered cache slot, period 1
    future_covered_payoff: float = 0.0  # covered cache slot, period 2
    shortfall_penalty: float = -1.0     # cache slot without coverage
    allow_cross_sbs_plans: bool = True
    phi_scale: float = 1.0
    phi_shift: float = 0.0
    gamma_scale: float = 1.0
    gamma_shift: float = 0.0

    def __post_init__(self):
        if self.phi_scale <= 0.0 or self.gamma_scale <= 0.0:
            raise ValueError("utility scales must be positive")
        if not 0.0 <= self.epsilon:
            raise ValueError("epsilon must be nonnegative")


def mue_utility(u: int, k: int, instance: GameInstance) -> float:
    """User-side utility of an SBS: threshold margin over HOF probability."""
    return _Scores(instance).phi(u, k)


def sbs_utility(u: int, k: int, instance: GameInstance) -> float:
    """BS-side utility of a user: scan interval minus cached playback time."""
    return _Scores(instance).gamma(u)


def _coast_distance(instance: GameInstance, u: int) -> float:
    mue = instance.mues[u]
    return mue.segments / instance.play_rate * mue.speed


def _refill_distance(instance: GameInstance, u: int) -> float:
    return instance.cache_capacity / instance.play_rate * instance.mues[u].speed


def plan_score(instance: GameInstance, u: int, first: Optional[PlayerId],
               second: Optional[PlayerId]) -> float:
    """Additive two-period score of an (attempted or realized) outcome.

    A certain, in-hand covered cache period may be valued differently from a
    projected period-2 one (the latter rides on the realized drain), hence
    the separate covered payoffs.
    """
    return _Scores(instance).score(u, first, second)


def _slot_rank(slot: Optional[PlayerId]) -> Tuple[int, int]:
    if slot is None:
        return (2, 0)
    if slot.kind == PlayerKind.SBS:
        return (0, slot.index)
    return (1, slot.index)


_CACHE_RANK = _slot_rank(None)


def plan_key(instance: GameInstance, u: int, plan: Plan) -> tuple:
    """Total order over plans: higher score first, then SBS-early/low-index."""
    return _Scores(instance).key(u, plan.first, plan.second)


def mue_prefers(instance: GameInstance, u: int, a: Plan, b: Plan) -> bool:
    """Strict preference of plan/outcome a over b for user u."""
    scores = _Scores(instance)
    return scores.key(u, a.first, a.second) < scores.key(u, b.first, b.second)


def bs_prefers_mue(instance: GameInstance, k: int, u: int, w: int) -> bool:
    """Strict preference of SBS k for user u over user w."""
    return _Scores(instance).bs_prefers(u, w)


def _sbs_rosters(mu: Dict[int, Optional[PlayerId]]) -> Dict[int, List[int]]:
    """Sorted users per SBS index of one period's association map."""
    rosters: Dict[int, List[int]] = {}
    for u in sorted(mu):
        slot = mu[u]
        if slot is not None and slot.kind == PlayerKind.SBS:
            rosters.setdefault(slot.index, []).append(u)
    return rosters


class _Scores:
    """The payoffs and priorities of one game, tabulated for one call.

    Every public entry point builds its own table and drops it when it
    returns, so nothing outlives the call and concurrent games share
    nothing. Entries are filled on first use, so each is computed once.
    Per user the table holds its payoffs: phi per SBS, the period-1 cache
    payoff, and the period-2 cache payoff after each kind of first slot.
    Plan scores, plan keys and ranked plan lists are all derived from these
    payoffs, and the public utilities compute through a one-use table, so
    there is a single scoring definition. The table also holds gamma per
    user, the common priority order, the plans it has built (one object per
    plan) and, built with a matching, that matching's sorted per-(period,
    SBS) rosters.
    """

    def __init__(self, instance: GameInstance,
                 matching: Optional[DynamicMatching] = None):
        self.instance = instance
        self.sbs = [sbs_id(k) for k in range(len(instance.sbss))]
        self.sbs_ranks = [_slot_rank(s) for s in self.sbs]
        self.phi0 = instance.phi_shift       # phi of a zero margin
        self.gamma0 = instance.gamma_shift   # gamma of a zero margin
        scale, shift = instance.phi_scale, instance.phi_shift
        self.mbs_payoff = scale * instance.mbs_payoff + shift
        # cache slot payoffs: covered in period 1, covered in period 2, not
        self._cache = (scale * instance.covered_payoff + shift,
                       scale * instance.future_covered_payoff + shift,
                       scale * instance.shortfall_penalty + shift)
        self._payoffs: Dict[int, tuple] = {}
        self._gamma: Dict[int, float] = {}
        self._plans: Dict[tuple, Plan] = {}
        self._priority: Optional[List[int]] = None
        self._rosters = ({} if matching is None else
                         {1: _sbs_rosters(matching.mu1),
                          2: _sbs_rosters(matching.mu2)})

    def margin(self, u: int, k: int) -> float:
        """Threshold margin p_th - HOF of user u in SBS k, unscaled."""
        mue = self.instance.mues[u]
        return mue.p_th - hof_probability_clamped(
            mue.speed, self.instance.t_mts, self.instance.sbss[k].radius)

    def payoffs(self, u: int) -> Tuple[Dict[int, float], float,
                                       Tuple[float, float, float]]:
        """(phi per SBS, period-1 cache payoff, period-2 cache payoffs).

        phi is filled per SBS on first use (`phi`). The period-2 cache
        payoffs follow a first slot at an SBS (the cache was refilled), at
        the macro cell, and on the cache, the order of `_slot_rank`'s kinds.
        """
        value = self._payoffs.get(u)
        if value is None:
            instance = self.instance
            mue = instance.mues[u]
            covered1, covered2, short = self._cache
            coast = _coast_distance(instance, u)
            refill = _refill_distance(instance, u)
            value = self._payoffs[u] = (
                {},
                covered1 if coast >= mue.gap1 else short,
                (covered2 if refill >= mue.gap2 else short,
                 covered2 if coast >= mue.gap2 else short,
                 covered2 if coast >= mue.gap1 + mue.gap2 else short))
        return value

    def phi(self, u: int, k: int) -> float:
        phis = self.payoffs(u)[0]
        value = phis.get(k)
        if value is None:
            instance = self.instance
            value = phis[k] = (instance.phi_scale * self.margin(u, k)
                               + instance.phi_shift)
        return value

    def gamma(self, u: int) -> float:
        value = self._gamma.get(u)
        if value is None:
            instance = self.instance
            playback = instance.mues[u].segments / instance.play_rate
            value = self._gamma[u] = (
                instance.gamma_scale * (instance.scan_interval - playback)
                + instance.gamma_shift)
        return value

    def bs_prefers(self, u: int, w: int) -> bool:
        """Strict preference of any BS for user u over user w."""
        gu, gw = self.gamma(u), self.gamma(w)
        return gu > gw or (gu == gw and u < w)

    def priority(self) -> List[int]:
        """All users, best first in the order every BS ranks them."""
        if self._priority is None:
            # a stable sort by -gamma keeps ties in index order
            ranks = [-self.gamma(u) for u in range(len(self.instance.mues))]
            self._priority = sorted(range(len(ranks)), key=ranks.__getitem__)
        return self._priority

    def keys(self, u: int, first: Optional[PlayerId],
             seconds: Sequence[Optional[PlayerId]]) -> List[tuple]:
        """plan_key of the plan (first, second) for each of `seconds`.

        This is the one definition of a plan key: (-score,) followed by the
        ranks of both slots, which name the plan. The score adds the first
        slot's payoff and the second's; a period-2 cache slot's payoff
        depends on the kind of the first slot.
        """
        phis, cache1, cache2 = self.payoffs(u)
        if first is None:
            p1, r1 = cache1, _CACHE_RANK
        elif first.kind is PlayerKind.SBS:
            p1, r1 = self.phi(u, first.index), self.sbs_ranks[first.index]
        else:
            p1, r1 = self.mbs_payoff, _slot_rank(first)
        cache2 = cache2[r1[0]]
        out = []
        for second in seconds:
            if second is None:
                p2, r2 = cache2, _CACHE_RANK
            elif second.kind is PlayerKind.SBS:
                k = second.index
                p2 = phis[k] if k in phis else self.phi(u, k)
                r2 = self.sbs_ranks[k]
            else:
                p2, r2 = self.mbs_payoff, _slot_rank(second)
            out.append((-(p1 + p2),) + r1 + r2)
        return out

    def key(self, u: int, first: Optional[PlayerId],
            second: Optional[PlayerId]) -> tuple:
        """plan_key of the plan (first, second)."""
        return self.keys(u, first, (second,))[0]

    def score(self, u: int, first: Optional[PlayerId],
              second: Optional[PlayerId]) -> float:
        """plan_score of the plan (first, second)."""
        return -self.key(u, first, second)[0]

    def universe(self, u: int) -> List[Tuple[tuple, Plan]]:
        """(plan_key, plan) of each plan of `plan_universe`, in its order.

        The keys come from `keys`, one call per first slot. Plans are
        interned per table by the slot ranks that end each key.
        """
        instance, sbs, plans = self.instance, self.sbs, self._plans
        phi0 = self.phi0
        eps = instance.phi_scale * instance.epsilon + instance.phi_shift
        mue = instance.mues[u]
        cand2 = [sbs[k] for k in mue.cand2 if self.phi(u, k) >= phi0]
        groups = []
        for k in mue.cand1:
            p1 = self.phi(u, k)
            if p1 >= phi0:
                seconds: List[Optional[PlayerId]] = [None]
                if p1 < eps:
                    seconds.append(MBS)
                seconds += [s for s in cand2
                            if s.index == k or instance.allow_cross_sbs_plans]
                groups.append((sbs[k], seconds))
        groups.append((None, cand2 + [MBS]))
        out = []
        for first, seconds in groups:
            for key, second in zip(self.keys(u, first, seconds), seconds):
                ranks = key[1:]
                plan = plans.get(ranks)
                if plan is None:
                    plan = plans[ranks] = Plan(first, second)
                out.append((key, plan))
        return out

    def members(self, period: int, k: int) -> List[int]:
        """Sorted users of SBS k in the period, in the table's matching."""
        return self._rosters[period].get(k, [])


# ---------------------------------------------------------------------------
# Preference construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreferenceProfile:
    """Strictly ordered, individually rational plan ranking of one user."""

    owner: PlayerId
    ranked_plans: Tuple[Plan, ...]


@dataclass(frozen=True)
class BsPreference:
    """BS-side ranking over prospective users plus requestable periods."""

    owner: PlayerId
    ranked_mues: Tuple[int, ...]
    period_masks: Dict[int, Tuple[bool, bool]]


@dataclass(frozen=True)
class Preferences:
    mue_profiles: Tuple[PreferenceProfile, ...]
    sbs_profiles: Tuple[BsPreference, ...]
    mbs_profile: BsPreference


def plan_universe(instance: GameInstance, u: int) -> List[Plan]:
    """All geometrically feasible, individually rational plans of user u.

    SBS slots require a nonnegative threshold margin; SBS-then-macro plans
    are generated only when the margin is small enough for the macro to
    admit the user in period 2.
    """
    return [p for _, p in _Scores(instance).universe(u)]


def build_preferences(instance: GameInstance) -> Preferences:
    """Rank every player's options; drop plans not beating the self plan.

    One pass per user ranks its plans by the keys `_Scores.universe`
    derives from the user's payoffs and notes the SBSs of its listed plans;
    the BS-side lists then follow the common priority order.
    """
    scores = _Scores(instance)
    n_mues = len(instance.mues)
    position = [0] * n_mues
    for pos, u in enumerate(scores.priority()):
        position[u] = pos
    sbs_masks: List[Dict[int, Tuple[bool, bool]]] = [
        {} for _ in instance.sbss]
    mbs_masks: Dict[int, Tuple[bool, bool]] = {}
    mue_profiles = []
    for u in range(n_mues):
        self_key = scores.key(u, None, None)
        keyed = [pair for pair in scores.universe(u) if pair[0] < self_key]
        keyed.sort(key=itemgetter(0))
        mue_profiles.append(PreferenceProfile(
            owner=mue_id(u), ranked_plans=tuple([p for _, p in keyed])))
        firsts, seconds = set(), set()
        for _, plan in keyed:
            first, second = plan.first, plan.second
            if first is not None and first.kind is PlayerKind.SBS:
                firsts.add(first.index)
            if second is not None:
                if second.kind is PlayerKind.SBS:
                    seconds.add(second.index)
                else:
                    mbs_masks[u] = (False, True)
        if not scores.gamma(u) < scores.gamma0:
            for k in firsts | seconds:
                sbs_masks[k][u] = (k in firsts, k in seconds)

    by_priority = position.__getitem__
    sbs_profiles = tuple(
        BsPreference(owner=scores.sbs[k],
                     ranked_mues=tuple(sorted(masks, key=by_priority)),
                     period_masks=masks)
        for k, masks in enumerate(sbs_masks))
    mbs_profile = BsPreference(
        owner=MBS, ranked_mues=tuple(sorted(mbs_masks, key=by_priority)),
        period_masks=mbs_masks)
    return Preferences(tuple(mue_profiles), sbs_profiles, mbs_profile)


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

@dataclass
class DynamicMatching:
    """Realized two-period association map with per-BS inverse views."""

    mu1: Dict[int, Optional[PlayerId]]
    mu2: Dict[int, Optional[PlayerId]]

    def assigned(self, period: int, u: int) -> Optional[PlayerId]:
        return (self.mu1 if period == 1 else self.mu2)[u]

    def members(self, period: int, bs: PlayerId) -> List[int]:
        mu = self.mu1 if period == 1 else self.mu2
        return sorted(u for u, b in mu.items() if b == bs)

    def validate(self, instance: GameInstance) -> None:
        """Definition-1 consistency: quotas per period, known players."""
        for period in (1, 2):
            mu = self.mu1 if period == 1 else self.mu2
            if sorted(mu) != list(range(len(instance.mues))):
                raise ValueError("matching must cover every MUE exactly once")
            rosters = _sbs_rosters(mu)
            for k in range(len(instance.sbss)):
                if len(rosters.get(k, [])) > instance.sbss[k].quota:
                    raise ValueError(
                        f"quota violated at SBS {k} period {period}")

    def copy(self) -> "DynamicMatching":
        return DynamicMatching(dict(self.mu1), dict(self.mu2))


@dataclass(frozen=True)
class ProposalRecord:
    stage: int
    round: int
    mue: int
    plan: Plan
    accepted: bool


@dataclass
class MatchTrace:
    """Proposals of one matching run, in the order the users took turns.

    A round is one user's turn in the priority order, so `rounds` counts
    the turns of users with anything to propose. `restarts` is always 0:
    serial dictatorship never revisits a turn. It is kept for the readers
    of traces (perfbench's tracer sums it).
    """

    proposals: List[ProposalRecord] = field(default_factory=list)
    rounds: int = 0
    restarts: int = 0


@dataclass
class MatchResult:
    matching: DynamicMatching
    ex_ante: DynamicMatching
    trace: MatchTrace
    preferences: Preferences


def signaling_overhead(trace: MatchTrace, sbs: Optional[int] = None) -> int:
    """Count plan/DA proposals addressed to SBSs (optionally one SBS).

    The trace holds the proposals of the serial dictatorships: each user's
    ranking down to the plan it holds. This is what the paper's
    proposal-and-restart process sends whenever stage one never restarts.
    When freed capacity restarts that process, it proposes some plans again,
    and this count is lower than what that process would send.
    """
    count = 0
    for rec in trace.proposals:
        targets = rec.plan.sbs_targets()
        if sbs is None:
            count += len(targets)
        elif sbs in targets:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Serial dictatorship in the common priority order
# ---------------------------------------------------------------------------

# The (period, SBS index) slots a plan occupies: () when it occupies none
# and is always admitted, None when it is never admitted.
_Slots = Optional[Tuple[Tuple[int, int], ...]]


def _serial_dictatorship(scores: _Scores, rankings: Dict[int, Sequence[Plan]],
                         slots: Callable[[Plan], _Slots],
                         room: Dict[Tuple[int, int], int], trace: MatchTrace,
                         stage: int) -> Dict[int, Plan]:
    """Give each user, best first, the first plan of its ranking with room.

    `room` holds the free places per (period, SBS) slot, and a user with
    gamma below gamma0 is refused every SBS slot. Every BS ranks users in
    the same priority order `(gamma, -index)`, so this is the outcome of
    user-proposing deferred acceptance. Each user's proposals are recorded
    as that deferred acceptance makes them: its ranking up to and including
    the plan it holds, or its whole ranking if it holds nothing; only the
    held plan's record is accepted. Returns each holder's plan.
    """
    held: Dict[int, Plan] = {}
    proposals = trace.proposals
    for u in scores.priority():
        ranking = rankings.get(u)
        if not ranking:
            continue
        trace.rounds += 1
        may_serve = not scores.gamma(u) < scores.gamma0
        for plan in ranking:
            wanted = slots(plan)
            accepted = wanted is not None and (may_serve or not wanted)
            if accepted:
                for s in wanted:
                    if room[s] <= 0:
                        accepted = False
                        break
            proposals.append(
                ProposalRecord(stage, trace.rounds, u, plan, accepted))
            if accepted:
                for s in wanted:
                    room[s] -= 1
                held[u] = plan
                break
    return held


def _plan_slots(plan: Plan) -> _Slots:
    """Slots of both periods; the macro cell takes no stage-1 plan."""
    slots = []
    for period, slot in ((1, plan.first), (2, plan.second)):
        if slot is not None:
            if slot.kind == PlayerKind.MBS:
                return None
            slots.append((period, slot.index))
    return tuple(slots)


def _second_slot(plan: Plan) -> _Slots:
    """The period-2 slot; the macro cell always admits."""
    second = plan.second
    return () if second.kind == PlayerKind.MBS else ((2, second.index),)


# ---------------------------------------------------------------------------
# Algorithm 1: single-period deferred acceptance
# ---------------------------------------------------------------------------

def deferred_acceptance(instance: GameInstance,
                        preferences: Optional[Preferences] = None,
                        ) -> Tuple[Dict[int, Optional[PlayerId]], MatchTrace]:
    """User-proposing deferred acceptance over period-1 preferences.

    Plans reduce to their first components; users left unmatched go to the
    cache when playback outlasts the scan interval, otherwise to the macro
    cell. The output admits no single-period blocking pair. Run as serial
    dictatorship in the common priority order, which has the same outcome.
    """
    prefs = preferences or build_preferences(instance)
    scores = _Scores(instance)
    trace = MatchTrace()
    rankings = {u: [Plan(scores.sbs[k], None) for k in _first_sbs_order(prof)]
                for u, prof in enumerate(prefs.mue_profiles)}
    room = {(1, k): sbs.quota for k, sbs in enumerate(instance.sbss)}
    held = _serial_dictatorship(scores, rankings, _plan_slots, room, trace,
                                stage=1)

    mu: Dict[int, Optional[PlayerId]] = {}
    for u in range(len(instance.mues)):
        if u in held:
            mu[u] = held[u].first
        elif instance.mues[u].segments / instance.play_rate >= instance.scan_interval:
            mu[u] = None
        else:
            mu[u] = MBS
    return mu, trace


def _first_sbs_order(profile: PreferenceProfile) -> List[int]:
    """SBS indices in the first slots of a ranking, best first, no repeats."""
    seen: List[int] = []
    for plan in profile.ranked_plans:
        if plan.first is not None and plan.first.kind == PlayerKind.SBS:
            if plan.first.index not in seen:
                seen.append(plan.first.index)
    return seen


def find_single_period_blocking(mu: Dict[int, Optional[PlayerId]],
                                instance: GameInstance,
                                preferences: Optional[Preferences] = None,
                                ) -> List[Tuple[int, int]]:
    """Classic blocking pairs (user, SBS) of a single-period matching."""
    prefs = preferences or build_preferences(instance)
    scores = _Scores(instance)
    rosters = _sbs_rosters(mu)
    blocking = []
    for u in range(len(instance.mues)):
        acceptable = _first_sbs_order(prefs.mue_profiles[u])
        current = mu[u]
        current_rank = (acceptable.index(current.index)
                        if current is not None and current.kind == PlayerKind.SBS
                        else len(acceptable))
        for rank, k in enumerate(acceptable):
            if rank >= current_rank:
                break
            members = rosters.get(k, [])
            if len(members) < instance.sbss[k].quota:
                if scores.gamma(u) > scores.gamma0:
                    blocking.append((u, k))
            elif any(scores.bs_prefers(u, w) for w in members):
                blocking.append((u, k))
    return blocking


# ---------------------------------------------------------------------------
# Algorithm 2: two-stage dynamically stable matching
# ---------------------------------------------------------------------------

def dynamic_match(instance: GameInstance,
                  preferences: Optional[Preferences] = None) -> MatchResult:
    """Two-stage plan matching: ex ante stage then period-2 repair.

    Both stages are serial dictatorships in the common priority order.
    """
    prefs = preferences or build_preferences(instance)
    scores = _Scores(instance)
    trace = MatchTrace()
    held = _stage_one(scores, prefs, trace)
    ex_ante = _matching_from_plans(instance, held)
    _period1_fallback(scores, ex_ante)
    matching = ex_ante.copy()
    _stage_two(scores, prefs, matching, trace)
    matching.validate(instance)
    return MatchResult(matching=matching, ex_ante=ex_ante, trace=trace,
                       preferences=prefs)


def _stage_one(scores: _Scores, prefs: Preferences,
               trace: MatchTrace) -> Dict[int, Plan]:
    """Ex ante stage: each user, best first, holds its best admitted plan.

    Plans are atomic: a plan is admitted only if every SBS slot it requests
    has room, in period 1 and in period 2. The macro cell takes no stage-1
    plan, and a user with gamma below gamma0 is refused SBS slots. The
    original process, plan proposals with tentative acceptance in which a
    displaced plan dies entirely and freed capacity restarts the proposals,
    holds the same plans in every game of the differential tests.
    """
    rankings = {u: prof.ranked_plans
                for u, prof in enumerate(prefs.mue_profiles)}
    room = {(period, k): sbs.quota for period in (1, 2)
            for k, sbs in enumerate(scores.instance.sbss)}
    return _serial_dictatorship(scores, rankings, _plan_slots, room, trace,
                                stage=1)


def _matching_from_plans(instance: GameInstance,
                         held: Dict[int, Plan]) -> DynamicMatching:
    mu1: Dict[int, Optional[PlayerId]] = {}
    mu2: Dict[int, Optional[PlayerId]] = {}
    for u in range(len(instance.mues)):
        plan = held.get(u, SELF_PLAN)
        mu1[u] = plan.first
        mu2[u] = plan.second
    return DynamicMatching(mu1, mu2)


def _period1_fallback(scores: _Scores, matching: DynamicMatching) -> None:
    """Send cache-poor unmatched users to the macro cell for period 1."""
    instance = scores.instance
    for u in range(len(instance.mues)):
        if matching.mu1[u] is not None:
            continue
        playback = instance.mues[u].segments / instance.play_rate
        if playback >= instance.scan_interval:
            continue
        current = scores.score(u, None, matching.mu2[u])
        rerouted = scores.score(u, MBS, matching.mu2[u])
        if rerouted > current:
            matching.mu1[u] = MBS


def _mbs_admits_p2(scores: _Scores, u: int,
                   first: Optional[PlayerId]) -> bool:
    """Macro period-2 admission rule."""
    instance = scores.instance
    if first is not None and first.kind == PlayerKind.SBS:
        return scores.margin(u, first.index) < instance.epsilon
    if first is not None and first.kind == PlayerKind.MBS:
        return True
    playback = instance.mues[u].segments / instance.play_rate
    return playback < instance.scan_interval


def _stage_two(scores: _Scores, prefs: Preferences,
               matching: DynamicMatching, trace: MatchTrace) -> None:
    """Period-2 deferred acceptance among users still unmatched in period 2.

    Options are the period-2 partners consistent with the realized period-1
    assignment: candidate SBSs with remaining quota and the macro cell under
    its admission rule, which always admits. Period-2 members held from
    stage one are fixed, so an SBS's room is its quota less them. Run as
    serial dictatorship in the common priority order.

    A user on its cache in period 1 held no plan, and its options are the
    second slots of its listed (cache, x) plans, which passed the same
    filter against the same self plan; only the macro admission rule is
    applied on top. Taking them from `prefs` spares computing phi again in
    this call's table: on `match --users 3200`, where nearly every
    stage-two user is on its cache, matching otherwise takes longer than
    building the preferences.
    """
    instance = scores.instance
    room = {(2, k): sbs.quota for k, sbs in enumerate(instance.sbss)}
    for k, members in _sbs_rosters(matching.mu2).items():
        room[(2, k)] -= len(members)
    rankings: Dict[int, List[Plan]] = {}
    for u, second in matching.mu2.items():
        if second is not None:
            continue
        first = matching.mu1[u]
        admits = _mbs_admits_p2(scores, u, first)
        if first is None:
            rankings[u] = [
                p for p in prefs.mue_profiles[u].ranked_plans
                if p.first is None
                and (admits or p.second.kind != PlayerKind.MBS)]
            continue
        opts = [scores.sbs[k] for k in instance.mues[u].cand2
                if not scores.phi(u, k) < scores.phi0]
        if admits:
            opts.append(MBS)
        self_key, *keys = scores.keys(u, first, [None] + opts)
        keyed = [pair for pair in zip(keys, opts) if pair[0] < self_key]
        keyed.sort(key=itemgetter(0))
        rankings[u] = [Plan(first, o) for _, o in keyed]
    held = _serial_dictatorship(scores, rankings, _second_slot, room, trace,
                                stage=2)
    for u, plan in held.items():
        matching.mu2[u] = plan.second


# ---------------------------------------------------------------------------
# Blocking scans (Definitions 3 and 4)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    period: int
    clause: str
    mue: Optional[int]
    bs: Optional[PlayerId] = None

    def __repr__(self):
        who = f"u{self.mue}" if self.mue is not None else "-"
        other = repr(self.bs) if self.bs is not None else "-"
        return f"[period {self.period} {self.clause}: {who}, {other}]"


def _ir_ok(scores: _Scores, u: int, first: Optional[PlayerId],
           second: Optional[PlayerId]) -> bool:
    """Individual rationality of a deviation: no SBS slot below threshold."""
    for slot in (first, second):
        if slot is not None and slot.kind == PlayerKind.SBS:
            if scores.phi(u, slot.index) < scores.phi0:
                return False
    return True


def _bs_gains_strictly(scores: _Scores, k: int, u: int, period: int) -> bool:
    """Would SBS k strictly improve by adding u in the given period?"""
    members = scores.members(period, k)
    if u in members:
        return False
    if scores.gamma(u) < scores.gamma0:
        return False
    if len(members) < scores.instance.sbss[k].quota:
        return scores.gamma(u) > scores.gamma0
    return any(scores.bs_prefers(u, w) for w in members)


def find_blocking_pairs(matching: DynamicMatching, instance: GameInstance,
                        period: int) -> List[Violation]:
    """Enumerate every blocking configuration of the requested period."""
    matching.validate(instance)
    if period == 1:
        return _scan_period1(matching, _Scores(instance, matching))
    if period == 2:
        return _scan_period2(matching, _Scores(instance, matching))
    raise ValueError("period must be 1 or 2")


def _scan_period1(matching: DynamicMatching,
                  scores: _Scores) -> List[Violation]:
    out: List[Violation] = []
    instance, key, members = scores.instance, scores.key, scores.members
    gamma0 = scores.gamma0

    for u in range(len(instance.mues)):
        if key(u, None, None) < key(u, matching.mu1[u], matching.mu2[u]):
            out.append(Violation(1, "unilateral-mue", u))

    for k in range(len(instance.sbss)):
        for period in (1, 2):
            for u in members(period, k):
                if scores.gamma(u) < gamma0:
                    out.append(Violation(1, "unilateral-bs", u, scores.sbs[k]))

    for u in range(len(instance.mues)):
        current = key(u, matching.mu1[u], matching.mu2[u])
        mue = instance.mues[u]
        candidates = set(mue.cand1) | set(mue.cand2)
        for k in sorted(candidates):
            target = scores.sbs[k]
            # 1) two-period plan kk against BS serving u both periods
            if k in mue.cand1 and k in mue.cand2 and \
                    _ir_ok(scores, u, target, target):
                if key(u, target, target) < current:
                    gains1 = _bs_gains_strictly(scores, k, u, 1)
                    gains2 = _bs_gains_strictly(scores, k, u, 2)
                    gain1 = u in members(1, k) or gains1
                    gain2 = u in members(2, k) or gains2
                    if gain1 and gain2 and (gains1 or gains2):
                        out.append(Violation(1, "pair-kk", u, target))
            # 2) serve period 1 only
            if k in mue.cand1 and _ir_ok(scores, u, target, None):
                if key(u, target, None) < current and \
                        _bs_gains_strictly(scores, k, u, 1):
                    out.append(Violation(1, "pair-ku", u, target))
            # 3) serve period 2 only
            if k in mue.cand2 and _ir_ok(scores, u, None, target):
                if key(u, None, target) < current and \
                        _bs_gains_strictly(scores, k, u, 2):
                    out.append(Violation(1, "pair-uk", u, target))
            # 4) mutual divorce
            in_any = u in members(1, k) or u in members(2, k)
            if in_any and key(u, None, None) < current and \
                    scores.gamma(u) < gamma0:
                out.append(Violation(1, "pair-divorce", u, target))
    return out


def _scan_period2(matching: DynamicMatching,
                  scores: _Scores) -> List[Violation]:
    out: List[Violation] = []
    instance, key, members = scores.instance, scores.key, scores.members
    gamma0 = scores.gamma0

    for u in range(len(instance.mues)):
        first = matching.mu1[u]
        current = key(u, first, matching.mu2[u])
        stay = key(u, first, None)
        if stay < current:
            out.append(Violation(2, "unilateral-mue", u))

        for k in sorted(set(instance.mues[u].cand2)):
            target = scores.sbs[k]
            if _ir_ok(scores, u, None, target) and \
                    key(u, first, target) < current:
                if len(members(2, k)) >= instance.sbss[k].quota:
                    continue  # full BSs never period-2 block
                if _bs_gains_strictly(scores, k, u, 2):
                    out.append(Violation(2, "pair-gain", u, target))
            if u in members(2, k) and stay < current and \
                    scores.gamma(u) < gamma0:
                out.append(Violation(2, "pair-divorce", u, target))

        if matching.mu2[u] != MBS and key(u, first, MBS) < current and \
                _mbs_admits_p2(scores, u, first):
            out.append(Violation(2, "pair-mbs", u, MBS))
    return out
