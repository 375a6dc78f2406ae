"""Two-period dynamic matching between mobile users and base stations.

Mobile users rank two-period association plans (serve/cache/macro fallback
per period); small base stations rank users by how little cached playback
they hold. A single-period deferred-acceptance solver provides the classic
stable matching; the two-stage dynamic solver first reaches an ex ante
stable plan assignment through plan proposals and then repairs period-2
blocking through a constrained second-period deferred acceptance. Exhaustive
blocking scans over the same preference primitives verify both stability
notions.

Both utilities are the paper's, unscaled. A user's utility for SBS k is
its threshold margin phi = p_th - P(HOF in k): an SBS slot is
acceptable at phi >= 0, and after one the macro cell admits the user in
period 2 when phi < epsilon. Every BS's utility for a user is
gamma = T_s - cached playback: a user with gamma < 0 is refused SBS slots,
and gamma <= 0 is the rule "the cache outlasts the scan interval", which
keeps an unserved user on its cache. Macro and cache slots score the
instance's payoffs as given.

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

Scores are tabulated once per game: `build_preferences` builds the
game's table (`_Scores`) of each user's payoffs (phi per SBS, the cache
payoffs) and gamma, and the preferences carry it into every matcher, which
reads it instead of computing a utility again. Plan keys and ranked plan
lists are both derived from these payoffs, and the public utility
functions compute through the same code, so a tabulated value equals the
direct one bit for bit. The blocking scan builds its own table: a
stability check shares nothing with the matcher it checks.

Determinism: all tie-breaking is lexicographic in (utility, player index),
so identical instances yield identical matchings. One game owns its
instance and its table, which is read-only once `build_preferences`
returns, and touches no process-wide state, so concurrent games share
nothing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .geometry import hof_probability


class PlayerKind(enum.Enum):
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
    """One dynamic matching game, scored on the paper's scale.

    phi = p_th - HOF per (user, SBS): acceptable at phi >= 0, macro
    period-2 admission at phi < epsilon. gamma = scan_interval -
    segments / play_rate per user: gamma <= 0 when the cache outlasts the
    scan interval. The payoff fields score macro and cache slots as given.
    """

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

    def __post_init__(self):
        if not 0.0 <= self.epsilon:
            raise ValueError("epsilon must be nonnegative")


def mue_utility(u: int, k: int, instance: GameInstance) -> float:
    """User-side utility of an SBS: threshold margin over HOF probability."""
    return _Scores(instance).phi(u, k)


def sbs_utility(u: int, k: int, instance: GameInstance) -> float:
    """BS-side utility of a user: scan interval minus cached playback time."""
    return _Scores(instance).gamma(u)


def _slot_rank(slot: Optional[PlayerId]) -> Tuple[int, int]:
    if slot is None:
        return (2, 0)
    if slot.kind == PlayerKind.SBS:
        return (0, slot.index)
    return (1, slot.index)


_CACHE_RANK = _slot_rank(None)


def _sbs_rosters(mu: Dict[int, Optional[PlayerId]]) -> Dict[int, List[int]]:
    """Sorted users per SBS index of one period's association map."""
    rosters: Dict[int, List[int]] = {}
    for u in sorted(mu):
        slot = mu[u]
        if slot is not None and slot.kind == PlayerKind.SBS:
            rosters.setdefault(slot.index, []).append(u)
    return rosters


class _Scores:
    """The payoffs and priorities of one game, tabulated once.

    `build_preferences` builds the game's table and fills it while it ranks
    the plans; the preferences carry it into every matcher, which only
    reads it. `find_blocking_pairs` builds a table of its own, so a check
    shares nothing with what it checks.
    Entries are filled on first use, so each is computed once. Per user the
    table holds its payoffs: phi per SBS, the period-1 cache payoff, and
    the period-2 cache payoff after each kind of first slot. Plan scores,
    plan keys and ranked plan lists are all derived from these payoffs, and
    the public utilities compute through a one-use table, so there is a
    single scoring definition. The table also holds gamma per user, the
    common priority order and the plans it has built (one object per
    plan). Both utilities are unscaled, so the thresholds are literal: an
    SBS slot needs phi >= 0, the macro cell admits an SBS user in period 2
    at phi < epsilon (`mbs_admits_p2`), an SBS refuses gamma < 0, and
    gamma <= 0 means the cache outlasts the scan interval.
    """

    def __init__(self, instance: GameInstance):
        self.instance = instance
        self.sbs = [sbs_id(k) for k in range(len(instance.sbss))]
        self.sbs_ranks = [_slot_rank(s) for s in self.sbs]
        # cache slot payoffs: covered in period 1, covered in period 2, not
        self._cache = (instance.covered_payoff,
                       instance.future_covered_payoff,
                       instance.shortfall_penalty)
        self._payoffs: Dict[int, tuple] = {}
        self._gamma: Dict[int, float] = {}
        self._plans: Dict[tuple, Plan] = {}
        self._priority: Optional[List[int]] = None

    def payoffs(self, u: int) -> Tuple[Dict[int, float], float,
                                       Tuple[float, float, float]]:
        """(phi per SBS, period-1 cache payoff, period-2 cache payoffs).

        phi is filled per SBS on first use (`phi`). The period-2 cache
        payoffs follow a first slot at an SBS (the cache was refilled), at
        the macro cell, and on the cache, the order of `_slot_rank`'s kinds.
        A cache slot is covered when the distance the user coasts on its
        cache (or, after an SBS slot, on a refilled one) reaches the gap.
        """
        value = self._payoffs.get(u)
        if value is None:
            instance = self.instance
            mue = instance.mues[u]
            covered1, covered2, short = self._cache
            coast = mue.segments / instance.play_rate * mue.speed
            refill = instance.cache_capacity / instance.play_rate * mue.speed
            value = self._payoffs[u] = (
                {},
                covered1 if coast >= mue.gap1 else short,
                (covered2 if refill >= mue.gap2 else short,
                 covered2 if coast >= mue.gap2 else short,
                 covered2 if coast >= mue.gap1 + mue.gap2 else short))
        return value

    def phi(self, u: int, k: int) -> float:
        """Threshold margin p_th - HOF of user u in SBS k."""
        phis = self.payoffs(u)[0]
        value = phis.get(k)
        if value is None:
            instance = self.instance
            mue = instance.mues[u]
            hof = hof_probability(mue.speed, instance.t_mts,
                                  instance.sbss[k].radius)
            value = phis[k] = mue.p_th - hof
        return value

    def gamma(self, u: int) -> float:
        """Scan interval minus the cached playback time of user u.

        For finite doubles the rounded difference is 0.0 only when the two
        are equal and keeps the exact difference's sign, so `gamma(u) <= 0`
        is exactly "playback >= scan interval".
        """
        value = self._gamma.get(u)
        if value is None:
            instance = self.instance
            playback = instance.mues[u].segments / instance.play_rate
            value = self._gamma[u] = instance.scan_interval - playback
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
        """The key of the plan (first, second) for each of `seconds`.

        This is the one definition of a plan key, a total order over plans:
        (-score,) followed by the ranks of both slots (SBS before macro
        before cache, then by index), which name the plan. The score adds
        the first slot's payoff and the second's; a period-2 cache slot's
        payoff depends on the kind of the first slot, and a certain, in-hand
        covered cache period may be valued differently from a projected
        period-2 one, hence the separate covered payoffs.
        """
        phis, cache1, cache2 = self.payoffs(u)
        if first is None:
            p1, r1 = cache1, _CACHE_RANK
        elif first.kind is PlayerKind.SBS:
            p1, r1 = self.phi(u, first.index), self.sbs_ranks[first.index]
        else:
            p1, r1 = self.instance.mbs_payoff, _slot_rank(first)
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
                p2, r2 = self.instance.mbs_payoff, _slot_rank(second)
            out.append((-(p1 + p2),) + r1 + r2)
        return out

    def key(self, u: int, first: Optional[PlayerId],
            second: Optional[PlayerId]) -> tuple:
        """The key of the plan (first, second); lower is preferred."""
        return self.keys(u, first, (second,))[0]

    def score(self, u: int, first: Optional[PlayerId],
              second: Optional[PlayerId]) -> float:
        """Additive two-period score of the plan (first, second)."""
        return -self.key(u, first, second)[0]

    def universe(self, u: int) -> List[Tuple[tuple, Plan]]:
        """(key, plan) of every feasible, individually rational plan of u.

        SBS slots require phi >= 0; SBS-then-macro plans are listed only
        when the macro cell admits the user in period 2 (`mbs_admits_p2`).
        The keys come from `keys`, one call per first slot. Plans are
        interned per table by the slot ranks that end each key.
        """
        instance, sbs, plans = self.instance, self.sbs, self._plans
        mue = instance.mues[u]
        cand2 = [sbs[k] for k in mue.cand2 if self.phi(u, k) >= 0.0]
        groups = []
        for k in mue.cand1:
            if self.phi(u, k) >= 0.0:
                seconds: List[Optional[PlayerId]] = [None]
                if self.mbs_admits_p2(u, sbs[k]):
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

    def mbs_admits_p2(self, u: int, first: Optional[PlayerId]) -> bool:
        """Macro period-2 admission rule after the first slot `first`.

        After an SBS slot the macro cell admits u when phi < epsilon; after
        a macro slot it always admits; after a cache slot it admits only a
        user whose cache does not outlast the scan interval (gamma > 0).
        """
        if first is None:
            return self.gamma(u) > 0.0
        if first.kind is PlayerKind.SBS:
            return self.phi(u, first.index) < self.instance.epsilon
        return True


# ---------------------------------------------------------------------------
# Preference construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreferenceProfile:
    """Strictly ordered, individually rational plan ranking of one user."""

    ranked_plans: Tuple[Plan, ...]


@dataclass(frozen=True)
class BsPreference:
    """The users whose ranked plans name a BS, in the common priority order.

    An SBS lists only the users with gamma >= 0, whom it may serve.
    """

    ranked_mues: Tuple[int, ...]


@dataclass(frozen=True)
class Preferences:
    """Every player's ranking, and the score table they were ranked by.

    The matchers read `scores` instead of computing a utility again; it
    takes no part in equality or the repr, which show the rankings only.
    """

    mue_profiles: Tuple[PreferenceProfile, ...]
    sbs_profiles: Tuple[BsPreference, ...]
    mbs_profile: BsPreference
    scores: Optional[_Scores] = field(default=None, compare=False, repr=False)


def build_preferences(instance: GameInstance) -> Preferences:
    """Rank every player's options; drop plans not beating the self plan.

    This builds the game's one score table. One pass in the common priority
    order ranks each user's plans by the keys `_Scores.universe` derives
    from its payoffs and appends the user to the `BsPreference` list of
    each BS they name, so every such list comes out in priority order. The
    table, now holding every phi and gamma the matchers read, leaves too.
    """
    scores = _Scores(instance)
    profiles: List[Optional[PreferenceProfile]] = [None] * len(instance.mues)
    sbs_lists: List[List[int]] = [[] for _ in instance.sbss]
    mbs_list: List[int] = []
    for u in scores.priority():
        self_key = scores.key(u, None, None)
        keyed = [pair for pair in scores.universe(u) if pair[0] < self_key]
        keyed.sort(key=itemgetter(0))
        plans = tuple([p for _, p in keyed])
        profiles[u] = PreferenceProfile(plans)
        may_serve = not scores.gamma(u) < 0.0
        for plan in plans:
            for slot in plan.slots():
                if slot is None or (slot.kind is PlayerKind.SBS
                                    and not may_serve):
                    continue
                listed = (mbs_list if slot.kind is PlayerKind.MBS
                          else sbs_lists[slot.index])
                if not listed or listed[-1] != u:  # once per user
                    listed.append(u)
    return Preferences(tuple(profiles),
                       tuple(BsPreference(tuple(us)) for us in sbs_lists),
                       BsPreference(tuple(mbs_list)), scores)


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

@dataclass
class DynamicMatching:
    """Realized two-period association map with per-BS inverse views."""

    mu1: Dict[int, Optional[PlayerId]]
    mu2: Dict[int, Optional[PlayerId]]

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
    mue: int
    plan: Plan
    accepted: bool


@dataclass
class MatchTrace:
    """Proposals of one matching run, in the order the users took turns.

    Each user's proposals of a stage are consecutive, in its ranking's
    order. `restarts` is always 0: serial dictatorship never revisits a
    turn. It is kept for the readers of traces (perfbench's tracer sums it).
    """

    proposals: List[ProposalRecord] = field(default_factory=list)
    restarts: int = 0


@dataclass
class MatchResult:
    matching: DynamicMatching
    ex_ante: DynamicMatching
    trace: MatchTrace


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
    gamma below 0 is refused every SBS slot. Every BS ranks users in
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
        may_serve = not scores.gamma(u) < 0.0
        for plan in ranking:
            wanted = slots(plan)
            accepted = wanted is not None and (may_serve or not wanted)
            if accepted:
                for s in wanted:
                    if room[s] <= 0:
                        accepted = False
                        break
            proposals.append(ProposalRecord(stage, u, plan, accepted))
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
    scores = prefs.scores
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
        elif scores.gamma(u) <= 0.0:
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
    scores = prefs.scores
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
                if scores.gamma(u) > 0.0:
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
    scores = prefs.scores
    trace = MatchTrace()
    held = _stage_one(scores, prefs, trace)
    ex_ante = _matching_from_plans(instance, held)
    _period1_fallback(scores, ex_ante)
    matching = ex_ante.copy()
    _stage_two(scores, matching, trace)
    matching.validate(instance)
    return MatchResult(matching=matching, ex_ante=ex_ante, trace=trace)


def _stage_one(scores: _Scores, prefs: Preferences,
               trace: MatchTrace) -> Dict[int, Plan]:
    """Ex ante stage: each user, best first, holds its best admitted plan.

    Plans are atomic: a plan is admitted only if every SBS slot it requests
    has room, in period 1 and in period 2. The macro cell takes no stage-1
    plan, and a user with gamma below 0 is refused SBS slots. The
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
        if matching.mu1[u] is not None or scores.gamma(u) <= 0.0:
            continue
        current = scores.score(u, None, matching.mu2[u])
        rerouted = scores.score(u, MBS, matching.mu2[u])
        if rerouted > current:
            matching.mu1[u] = MBS


def _stage_two(scores: _Scores, matching: DynamicMatching,
               trace: MatchTrace) -> None:
    """Period-2 deferred acceptance among users still unmatched in period 2.

    Options are the period-2 partners consistent with the realized period-1
    assignment: candidate SBSs with remaining quota and the macro cell under
    its admission rule, which always admits. Period-2 members held from
    stage one are fixed, so an SBS's room is its quota less them. Each
    user ranks its options by the plan keys of the game's table, which
    already holds every phi they need. Run as serial dictatorship in the
    common priority order.
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
        opts = [scores.sbs[k] for k in instance.mues[u].cand2
                if not scores.phi(u, k) < 0.0]
        if scores.mbs_admits_p2(u, first):
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
            if scores.phi(u, slot.index) < 0.0:
                return False
    return True


# The sorted users per SBS index of a matching's period 1 and period 2.
_Rosters = Tuple[Dict[int, List[int]], Dict[int, List[int]]]


def _bs_gains_strictly(scores: _Scores, rosters: _Rosters, k: int, u: int,
                       period: int) -> bool:
    """Would SBS k strictly improve by adding u in the given period?"""
    members = rosters[period - 1].get(k, [])
    if u in members:
        return False
    if scores.gamma(u) < 0.0:
        return False
    if len(members) < scores.instance.sbss[k].quota:
        return scores.gamma(u) > 0.0
    return any(scores.bs_prefers(u, w) for w in members)


def find_blocking_pairs(matching: DynamicMatching, instance: GameInstance,
                        period: int) -> List[Violation]:
    """Enumerate every blocking configuration of the requested period."""
    matching.validate(instance)
    rosters = (_sbs_rosters(matching.mu1), _sbs_rosters(matching.mu2))
    if period == 1:
        return _scan_period1(matching, _Scores(instance), rosters)
    if period == 2:
        return _scan_period2(matching, _Scores(instance), rosters)
    raise ValueError("period must be 1 or 2")


def _scan_period1(matching: DynamicMatching, scores: _Scores,
                  rosters: _Rosters) -> List[Violation]:
    out: List[Violation] = []
    instance, key = scores.instance, scores.key

    for u in range(len(instance.mues)):
        if key(u, None, None) < key(u, matching.mu1[u], matching.mu2[u]):
            out.append(Violation(1, "unilateral-mue", u))

    for k in range(len(instance.sbss)):
        for roster in rosters:
            for u in roster.get(k, []):
                if scores.gamma(u) < 0.0:
                    out.append(Violation(1, "unilateral-bs", u, scores.sbs[k]))

    for u in range(len(instance.mues)):
        current = key(u, matching.mu1[u], matching.mu2[u])
        mue = instance.mues[u]
        candidates = set(mue.cand1) | set(mue.cand2)
        for k in sorted(candidates):
            target = scores.sbs[k]
            in1 = u in rosters[0].get(k, [])
            in2 = u in rosters[1].get(k, [])
            # 1) two-period plan kk against BS serving u both periods
            if k in mue.cand1 and k in mue.cand2 and \
                    _ir_ok(scores, u, target, target):
                if key(u, target, target) < current:
                    gains1 = _bs_gains_strictly(scores, rosters, k, u, 1)
                    gains2 = _bs_gains_strictly(scores, rosters, k, u, 2)
                    if (in1 or gains1) and (in2 or gains2) and \
                            (gains1 or gains2):
                        out.append(Violation(1, "pair-kk", u, target))
            # 2) serve period 1 only
            if k in mue.cand1 and _ir_ok(scores, u, target, None):
                if key(u, target, None) < current and \
                        _bs_gains_strictly(scores, rosters, k, u, 1):
                    out.append(Violation(1, "pair-ku", u, target))
            # 3) serve period 2 only
            if k in mue.cand2 and _ir_ok(scores, u, None, target):
                if key(u, None, target) < current and \
                        _bs_gains_strictly(scores, rosters, k, u, 2):
                    out.append(Violation(1, "pair-uk", u, target))
            # 4) mutual divorce
            if (in1 or in2) and key(u, None, None) < current and \
                    scores.gamma(u) < 0.0:
                out.append(Violation(1, "pair-divorce", u, target))
    return out


def _scan_period2(matching: DynamicMatching, scores: _Scores,
                  rosters: _Rosters) -> List[Violation]:
    out: List[Violation] = []
    instance, key = scores.instance, scores.key

    for u in range(len(instance.mues)):
        first = matching.mu1[u]
        current = key(u, first, matching.mu2[u])
        stay = key(u, first, None)
        if stay < current:
            out.append(Violation(2, "unilateral-mue", u))

        for k in sorted(set(instance.mues[u].cand2)):
            target = scores.sbs[k]
            members = rosters[1].get(k, [])
            if _ir_ok(scores, u, None, target) and \
                    key(u, first, target) < current:
                if len(members) >= instance.sbss[k].quota:
                    continue  # full BSs never period-2 block
                if _bs_gains_strictly(scores, rosters, k, u, 2):
                    out.append(Violation(2, "pair-gain", u, target))
            if u in members and stay < current and \
                    scores.gamma(u) < 0.0:
                out.append(Violation(2, "pair-divorce", u, target))

        if matching.mu2[u] != MBS and key(u, first, MBS) < current and \
                scores.mbs_admits_p2(u, first):
            out.append(Violation(2, "pair-mbs", u, MBS))
    return out
