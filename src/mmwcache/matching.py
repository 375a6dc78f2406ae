"""Two-period dynamic matching between mobile users and base stations.

Mobile users rank two-period association plans (serve/cache/macro fallback
per period); small base stations rank users by how little cached playback
they hold. A single-period deferred-acceptance solver provides the classic
stable matching; the two-stage dynamic solver first reaches an ex ante
stable plan assignment through plan proposals and then repairs period-2
blocking through a constrained second-period deferred acceptance. Exhaustive
blocking scans over the same preference primitives verify both stability
notions.

Scores are tabulated once per call: each public entry point builds a
private table (`_Scores`) of the game's utilities and plan keys, fills it on
first use and drops it when it returns. The public utility functions compute
through the same code, so a tabulated value equals the direct one bit for
bit.

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
from typing import Dict, List, Optional, Tuple

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
    """The utilities and plan keys of one game, tabulated for one call.

    Every public entry point builds its own table and drops it when it
    returns, so nothing outlives the call and concurrent games share
    nothing. Entries are filled on first use: the threshold margin
    p_th - HOF and phi per (user, SBS), gamma per user and the key of each
    (user, plan). The public utilities compute through a one-use table, so
    there is a single scoring definition. Built with a matching, the table
    also holds that matching's sorted per-(period, SBS) rosters.
    """

    def __init__(self, instance: GameInstance,
                 matching: Optional[DynamicMatching] = None):
        self.instance = instance
        self.sbs = [sbs_id(k) for k in range(len(instance.sbss))]
        self.phi0 = instance.phi_shift       # phi of a zero margin
        self.gamma0 = instance.gamma_shift   # gamma of a zero margin
        self.mbs_payoff = (instance.phi_scale * instance.mbs_payoff
                           + instance.phi_shift)
        self._margin: Dict[Tuple[int, int], float] = {}
        self._phi: Dict[Tuple[int, int], float] = {}
        self._gamma: Dict[int, float] = {}
        self._keys: Dict[tuple, tuple] = {}
        self._rosters = ({} if matching is None else
                         {1: _sbs_rosters(matching.mu1),
                          2: _sbs_rosters(matching.mu2)})

    def margin(self, u: int, k: int) -> float:
        """Threshold margin p_th - HOF of user u in SBS k, unscaled."""
        value = self._margin.get((u, k))
        if value is None:
            mue = self.instance.mues[u]
            hof = hof_probability_clamped(mue.speed, self.instance.t_mts,
                                          self.instance.sbss[k].radius)
            value = self._margin[(u, k)] = mue.p_th - hof
        return value

    def phi(self, u: int, k: int) -> float:
        value = self._phi.get((u, k))
        if value is None:
            instance = self.instance
            value = self._phi[(u, k)] = (
                instance.phi_scale * self.margin(u, k) + instance.phi_shift)
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

    def worst(self, members: List[int]) -> int:
        """The member every BS ranks last."""
        return min(members, key=lambda w: (self.gamma(w), -w))

    def _cache_payoff(self, covered: bool, period: int) -> float:
        instance = self.instance
        if covered:
            value = (instance.covered_payoff if period == 1
                     else instance.future_covered_payoff)
        else:
            value = instance.shortfall_penalty
        return instance.phi_scale * value + instance.phi_shift

    def _bs_payoff(self, u: int, slot: PlayerId) -> float:
        if slot.kind == PlayerKind.SBS:
            return self.phi(u, slot.index)
        return self.mbs_payoff

    def score(self, u: int, first: Optional[PlayerId],
              second: Optional[PlayerId]) -> float:
        """plan_score; a cache slot's coverage is evaluated only for it."""
        instance = self.instance
        if first is None:
            p1 = self._cache_payoff(_covered_p1(instance, u), 1)
        else:
            p1 = self._bs_payoff(u, first)
        if second is None:
            p2 = self._cache_payoff(_covered_p2(instance, u, first), 2)
        else:
            p2 = self._bs_payoff(u, second)
        return p1 + p2

    def key(self, u: int, first: Optional[PlayerId],
            second: Optional[PlayerId]) -> tuple:
        """plan_key of the plan (first, second); the ranks name the plan."""
        ranks = _slot_rank(first) + _slot_rank(second)
        memo = (u,) + ranks
        value = self._keys.get(memo)
        if value is None:
            value = self._keys[memo] = (
                (-self.score(u, first, second),) + ranks)
        return value

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
    return _plan_universe(_Scores(instance), u)


def _plan_universe(scores: _Scores, u: int) -> List[Plan]:
    instance, phi, sbs = scores.instance, scores.phi, scores.sbs
    mue = instance.mues[u]
    eps = instance.phi_scale * instance.epsilon + instance.phi_shift
    cand1 = [k for k in mue.cand1 if phi(u, k) >= scores.phi0]
    cand2 = [k for k in mue.cand2 if phi(u, k) >= scores.phi0]
    plans: List[Plan] = []
    for k in cand1:
        plans.append(Plan(sbs[k], None))
        if phi(u, k) < eps:
            plans.append(Plan(sbs[k], MBS))
        for k2 in cand2:
            if k2 == k or instance.allow_cross_sbs_plans:
                plans.append(Plan(sbs[k], sbs[k2]))
    for k2 in cand2:
        plans.append(Plan(None, sbs[k2]))
    plans.append(Plan(None, MBS))
    return plans


def build_preferences(instance: GameInstance) -> Preferences:
    """Rank every player's options; drop plans not beating the self plan."""
    scores = _Scores(instance)
    mue_profiles = []
    # per user: SBS indices in a first and a second slot of a listed plan
    firsts: List[set] = []
    seconds: List[set] = []
    for u in range(len(instance.mues)):
        self_key = scores.key(u, None, None)
        keyed = [(scores.key(u, p.first, p.second), p)
                 for p in _plan_universe(scores, u)]
        keyed = [pair for pair in keyed if pair[0] < self_key]
        keyed.sort(key=itemgetter(0))
        listed = [p for _, p in keyed]
        mue_profiles.append(PreferenceProfile(owner=mue_id(u),
                                              ranked_plans=tuple(listed)))
        firsts.append({p.first.index for p in listed
                       if p.first is not None
                       and p.first.kind == PlayerKind.SBS})
        seconds.append({p.second.index for p in listed
                        if p.second is not None
                        and p.second.kind == PlayerKind.SBS})

    acceptable = [u for u in range(len(instance.mues))
                  if not scores.gamma(u) < scores.gamma0]
    sbs_profiles = []
    for k in range(len(instance.sbss)):
        masks: Dict[int, Tuple[bool, bool]] = {}
        for u in acceptable:
            p1, p2 = k in firsts[u], k in seconds[u]
            if p1 or p2:
                masks[u] = (p1, p2)
        ranked = sorted(masks, key=lambda u: (-scores.gamma(u), u))
        sbs_profiles.append(BsPreference(owner=scores.sbs[k],
                                         ranked_mues=tuple(ranked),
                                         period_masks=masks))

    mbs_masks: Dict[int, Tuple[bool, bool]] = {}
    for u, prof in enumerate(mue_profiles):
        if any(p.second == MBS for p in prof.ranked_plans):
            mbs_masks[u] = (False, True)
    mbs_ranked = sorted(mbs_masks, key=lambda u: (-scores.gamma(u), u))
    mbs_profile = BsPreference(owner=MBS, ranked_mues=tuple(mbs_ranked),
                               period_masks=mbs_masks)
    return Preferences(tuple(mue_profiles), tuple(sbs_profiles), mbs_profile)


def game_to_text(instance: GameInstance) -> str:
    """Serialize a game instance to the line-oriented snapshot schema."""
    lines = [f"game t_mts={instance.t_mts!r} scan_interval={instance.scan_interval!r} "
             f"epsilon={instance.epsilon!r} play_rate={instance.play_rate!r} "
             f"cache_capacity={instance.cache_capacity!r} "
             f"mbs_payoff={instance.mbs_payoff!r} "
             f"covered_payoff={instance.covered_payoff!r} "
             f"future_covered_payoff={instance.future_covered_payoff!r} "
             f"shortfall_penalty={instance.shortfall_penalty!r} "
             f"cross={int(instance.allow_cross_sbs_plans)}"]
    for k, s in enumerate(instance.sbss):
        lines.append(f"sbs,{k},{s.radius!r},{s.quota}")
    for u, m in enumerate(instance.mues):
        c1 = ";".join(str(i) for i in m.cand1)
        c2 = ";".join(str(i) for i in m.cand2)
        lines.append(f"mue,{u},{m.speed!r},{m.segments!r},{m.p_th!r},"
                     f"{c1},{c2},{m.gap1!r},{m.gap2!r}")
    return "\n".join(lines) + "\n"


def game_from_text(text: str) -> GameInstance:
    """Parse the snapshot schema written by game_to_text."""
    header, *rows = [ln for ln in text.splitlines() if ln.strip()]
    fields = dict(item.split("=", 1) for item in header.split()[1:])
    sbss, mues = [], []
    for row in rows:
        parts = row.split(",")
        if parts[0] == "sbs":
            sbss.append(SbsState(radius=float(parts[2]), quota=int(parts[3])))
        elif parts[0] == "mue":
            cand1 = tuple(int(x) for x in parts[5].split(";") if x)
            cand2 = tuple(int(x) for x in parts[6].split(";") if x)
            mues.append(MueState(
                speed=float(parts[2]), segments=float(parts[3]),
                p_th=float(parts[4]), cand1=cand1, cand2=cand2,
                gap1=float(parts[7]), gap2=float(parts[8])))
    return GameInstance(
        mues=tuple(mues), sbss=tuple(sbss),
        t_mts=float(fields["t_mts"]),
        scan_interval=float(fields["scan_interval"]),
        epsilon=float(fields["epsilon"]),
        play_rate=float(fields["play_rate"]),
        cache_capacity=float(fields["cache_capacity"]),
        mbs_payoff=float(fields["mbs_payoff"]),
        covered_payoff=float(fields["covered_payoff"]),
        future_covered_payoff=float(fields["future_covered_payoff"]),
        shortfall_penalty=float(fields["shortfall_penalty"]),
        allow_cross_sbs_plans=bool(int(fields["cross"])))


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
    """Count plan/DA proposals addressed to SBSs (optionally one SBS)."""
    count = 0
    for rec in trace.proposals:
        targets = rec.plan.sbs_targets()
        if sbs is None:
            count += len(targets)
        elif sbs in targets:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Algorithm 1: single-period deferred acceptance
# ---------------------------------------------------------------------------

def deferred_acceptance(instance: GameInstance,
                        preferences: Optional[Preferences] = None,
                        ) -> Tuple[Dict[int, Optional[PlayerId]], MatchTrace]:
    """User-proposing deferred acceptance over period-1 preferences.

    Plans reduce to their first components; users left unmatched go to the
    cache when playback outlasts the scan interval, otherwise to the macro
    cell. The output admits no single-period blocking pair.
    """
    prefs = preferences or build_preferences(instance)
    scores = _Scores(instance)
    trace = MatchTrace()
    rank_lists = [_first_sbs_order(prof) for prof in prefs.mue_profiles]

    pointers = [0] * len(instance.mues)
    held: Dict[int, List[int]] = {k: [] for k in range(len(instance.sbss))}
    matched: Dict[int, Optional[int]] = {u: None for u in range(len(instance.mues))}

    active = True
    while active:
        trace.rounds += 1
        active = False
        for u in range(len(instance.mues)):
            if matched[u] is not None:
                continue
            while pointers[u] < len(rank_lists[u]):
                k = rank_lists[u][pointers[u]]
                pointers[u] += 1
                active = True
                accepted = _da_offer(scores, held, matched, u, k)
                trace.proposals.append(ProposalRecord(
                    stage=1, round=trace.rounds, mue=u,
                    plan=Plan(scores.sbs[k], None), accepted=accepted))
                if accepted:
                    break

    mu: Dict[int, Optional[PlayerId]] = {}
    for u in range(len(instance.mues)):
        if matched[u] is not None:
            mu[u] = scores.sbs[matched[u]]
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


def _da_offer(scores: _Scores, held: Dict[int, List[int]],
              matched: Dict[int, Optional[int]], u: int, k: int) -> bool:
    """Offer user u to SBS k; displace the worst member if it improves k."""
    if scores.gamma(u) < scores.gamma0:
        return False
    roster = held[k]
    if len(roster) < scores.instance.sbss[k].quota:
        roster.append(u)
        matched[u] = k
        return True
    worst = scores.worst(roster)
    if scores.bs_prefers(u, worst):
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

class ConvergenceError(RuntimeError):
    pass


def dynamic_match(instance: GameInstance,
                  preferences: Optional[Preferences] = None) -> MatchResult:
    """Two-stage plan matching: ex ante stage then period-2 repair."""
    prefs = preferences or build_preferences(instance)
    scores = _Scores(instance)
    trace = MatchTrace()
    held = _stage_one(scores, prefs, trace)
    ex_ante = _matching_from_plans(instance, held)
    _period1_fallback(scores, ex_ante)
    matching = ex_ante.copy()
    _stage_two(scores, matching, trace)
    matching.validate(instance)
    return MatchResult(matching=matching, ex_ante=ex_ante, trace=trace,
                       preferences=prefs)


def _stage_one(scores: _Scores, prefs: Preferences,
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

    The lowest-indexed user with a plan left to propose moves next; it
    proposes its best plan that is neither rejected nor ranked at or below
    the plan it holds. Invariant: between restarts, the rejected plans of
    each user u are exactly the prefix [0, next[u]) of its ranking. A
    rejection extends the prefix by the plan just proposed, and an
    acceptance that frees nothing comes only from a user holding no plan,
    whose limit then drops to next[u], leaving it nothing to propose. So
    one pointer per user stands for its rejections, and a user with
    nothing left to propose stays so until the next restart: the search
    for the lowest active user resumes where it stopped. A restart resets
    every pointer and the search. The per-(period, SBS) rosters are kept
    as sets, updated on every acceptance and displacement.
    """
    instance = scores.instance
    n_mues = len(instance.mues)
    profiles = [p.ranked_plans for p in prefs.mue_profiles]
    rosters = [[set() for _ in instance.sbss] for _ in (1, 2)]

    def claims(plan: Plan) -> Optional[tuple]:
        """(roster, quota) of each SBS slot, None for a macro plan."""
        if any(slot is not None and slot.kind == PlayerKind.MBS
               for slot in plan.slots()):
            return None
        return tuple((rosters[period][slot.index],
                      instance.sbss[slot.index].quota)
                     for period, slot in enumerate(plan.slots())
                     if slot is not None and slot.kind == PlayerKind.SBS)

    plan_claims = [[claims(plan) for plan in ranking] for ranking in profiles]
    held: Dict[int, Plan] = {}
    held_claims: Dict[int, tuple] = {}
    limit = [len(p) for p in profiles]   # index of the held plan, if any
    nxt = [0] * n_mues
    first = 0

    total_plans = sum(len(p) for p in profiles)
    max_proposals = 200 * (total_plans + 1) * (n_mues + 2)
    proposals = 0

    while True:
        while first < n_mues and nxt[first] >= limit[first]:
            first += 1
        if first == n_mues:
            return held

        u = first
        idx = nxt[u]
        plan = profiles[u][idx]
        proposals += 1
        trace.rounds += 1
        if proposals > max_proposals:
            raise ConvergenceError("stage 1 failed to converge")

        wanted = plan_claims[u][idx]
        # the macro cell takes no stage-1 proposals
        accepted = wanted is not None
        victims: List[int] = []
        if wanted and scores.gamma(u) < scores.gamma0:
            accepted = False
        elif wanted:
            for roster, quota in wanted:
                if len(roster) - (u in roster) < quota:
                    continue
                worst = scores.worst([w for w in roster if w != u])
                if scores.bs_prefers(u, worst):
                    victims.append(worst)
                else:
                    accepted = False
                    break

        trace.proposals.append(ProposalRecord(
            stage=1, round=trace.rounds, mue=u, plan=plan, accepted=accepted))
        if not accepted:
            nxt[u] = idx + 1
            continue

        freed = u in held or victims
        for w in set(victims):
            for roster, _ in held_claims.pop(w):
                roster.remove(w)
            del held[w]
            limit[w] = len(profiles[w])
        for roster, _ in held_claims.get(u, ()):
            roster.remove(u)
        for roster, _ in wanted:
            roster.add(u)
        held[u] = plan
        held_claims[u] = wanted
        limit[u] = idx
        if freed:
            # capacity was released somewhere: earlier rejections may no
            # longer be justified, so everyone may re-propose from the top
            trace.restarts += 1
            nxt = [0] * n_mues
            first = 0


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


def _stage_two(scores: _Scores, matching: DynamicMatching,
               trace: MatchTrace) -> None:
    """Period-2 deferred acceptance among users still unmatched in period 2.

    Options are the period-2 partners consistent with the realized period-1
    assignment: candidate SBSs with remaining quota and the macro cell under
    its admission rule. Period-2 members held from stage one are immutable.
    """
    instance = scores.instance
    participants = [u for u in range(len(instance.mues))
                    if matching.mu2[u] is None]
    options: Dict[int, List[PlayerId]] = {}
    for u in participants:
        first = matching.mu1[u]
        self_key = scores.key(u, first, None)
        opts = [scores.sbs[k] for k in instance.mues[u].cand2
                if not scores.phi(u, k) < scores.phi0]
        if _mbs_admits_p2(scores, u, first):
            opts.append(MBS)
        opts = [o for o in opts if scores.key(u, first, o) < self_key]
        opts.sort(key=lambda o: scores.key(u, first, o))
        options[u] = opts

    # stage-one period-2 members, fixed while the stage runs
    fixed = _sbs_rosters(matching.mu2)
    pointers = {u: 0 for u in participants}
    tentative: Dict[int, Optional[PlayerId]] = {u: None for u in participants}
    rounds = 0
    while True:
        rounds += 1
        trace.rounds += 1
        progress = False
        for u in participants:
            if tentative[u] is not None:
                continue
            while pointers[u] < len(options[u]):
                target = options[u][pointers[u]]
                pointers[u] += 1
                progress = True
                accepted = _stage_two_offer(
                    scores, fixed, tentative, u, target)
                trace.proposals.append(ProposalRecord(
                    stage=2, round=trace.rounds, mue=u,
                    plan=Plan(matching.mu1[u], target), accepted=accepted))
                if accepted:
                    break
        if not progress:
            break

    for u, target in tentative.items():
        if target is not None:
            matching.mu2[u] = target


def _stage_two_offer(scores: _Scores, fixed: Dict[int, List[int]],
                     tentative: Dict[int, Optional[PlayerId]], u: int,
                     target: PlayerId) -> bool:
    if target.kind == PlayerKind.MBS:
        tentative[u] = MBS
        return True
    k = target.index
    if scores.gamma(u) < scores.gamma0:
        return False
    entrants = [w for w, t in tentative.items() if t == target]
    free = scores.instance.sbss[k].quota - len(fixed.get(k, []))
    if free <= 0:
        return False
    if len(entrants) < free:
        tentative[u] = target
        return True
    worst = scores.worst(entrants)
    if scores.bs_prefers(u, worst):
        tentative[worst] = None
        tentative[u] = target
        return True
    return False


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
