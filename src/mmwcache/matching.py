"""Two-period dynamic matching between mobile users and base stations.

Users rank two-period association plans and base stations rank users, by
the utilities of `GameInstance`. The single-period matcher is deferred
acceptance; the dynamic matcher reaches an ex ante stable plan assignment
(stage one) and then repairs period-2 blocking (stage two). Every base
station ranks users by gamma, which does not depend on the base station,
so all three matchers run as serial dictatorship in that one priority
order (README, "matching"). The dynamic matcher is `run_heads`, which
matches the games of a game's first n users, for several n, in one pass
when those users lead the priority order, and keeps of each head only what
is its own: its stage-two repairs and proposals. `dynamic_match` is its
one-head case, spelled out as a `MatchResult`.

A game's payoffs are tabulated once, in its `_Scores` table, and every
matcher reads that table instead of computing a utility again. The
stability checks (`find_blocking_pairs`, `find_single_period_blocking`)
are the oracle's, which scores the game on payoffs of its own.

Determinism: ties break on (utility, player index), so equal instances
give equal matchings. The only process-wide state is the slot layout per
SBS count (`_layout`). It only grows, and each plan it interns is a
function of n and its pair code alone, so whichever game interned a plan
first, every table ranks as it would with a layout of its own. Two threads
that intern the same plan at once at worst build equal entries twice.

The records (`PlayerId`, `Plan`, `MueState`, `ProposalRecord`) are named
tuples: a game creates many of them, and tuples are built and compared in
C.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .geometry import hof_probability


class PlayerKind(enum.Enum):
    SBS = "sbs"
    MBS = "mbs"


class PlayerId(NamedTuple):
    kind: PlayerKind
    index: int

    def __repr__(self):
        return f"{self.kind.value}{self.index}"


MBS = PlayerId(PlayerKind.MBS, 0)


def sbs_id(index: int) -> PlayerId:
    return PlayerId(PlayerKind.SBS, index)


class Plan(NamedTuple):
    """Two-period association intention; None means cache use (self-match)."""

    first: Optional[PlayerId]
    second: Optional[PlayerId]

    def __repr__(self):
        def s(x):
            return "self" if x is None else repr(x)
        return f"({s(self.first)},{s(self.second)})"


SELF_PLAN = Plan(None, None)


class MueState(NamedTuple):
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
    mue = instance.mues[u]
    return mue.p_th - hof_probability(mue.speed, instance.t_mts,
                                      instance.sbss[k].radius)


def sbs_utility(u: int, k: int, instance: GameInstance) -> float:
    """BS-side utility of a user: scan interval minus cached playback time."""
    return instance.scan_interval - instance.mues[u].segments / \
        instance.play_rate


# The (period, SBS index) slots a plan occupies: () when it occupies none
# and is always admitted, None when it is never admitted.
_Slots = Optional[Tuple[Tuple[int, int], ...]]


class _PlanEntry(NamedTuple):
    """A plan interned by a score table, with the slots it occupies in
    each stage."""

    plan: Plan
    # stage one: the slots of both periods, None if it names the macro
    # cell (which takes no stage-one plan); stage two: its period-2 SBS
    # slot, () for the macro cell, which always admits
    slots: Tuple[_Slots, _Slots]


class _Layout(NamedTuple):
    """The game-free part of every score table with n SBSs."""

    sbs: List[PlayerId]                 # one PlayerId per SBS
    slots: List[Optional[PlayerId]]     # the slot of each code
    kinds: List[int]                    # 0 for an SBS, 1 macro, 2 cache
    # per period, the (period, SBS) slot each code holds: SBS codes hold
    # one, the macro cell and the cache none
    held: Dict[int, List[Tuple[Tuple[int, int], ...]]]
    plans: Dict[int, _PlanEntry]        # interned plans per pair code


@functools.lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    """The one layout of the tables with n SBSs in this process.

    Its plan dict starts empty and only grows: `_Scores.entry` interns a
    plan on first use, at most one per pair code, so it never holds more
    than (n + 2)^2 entries. An entry is a function of n and its pair code
    alone, so which games interned it cannot change a ranking.
    """
    sbs = [sbs_id(k) for k in range(n)]
    slots: List[Optional[PlayerId]] = sbs + [MBS, None]
    held = {period: [((period, k),) for k in range(n)] + [(), ()]
            for period in (1, 2)}
    return _Layout(sbs, slots, [0] * n + [1, 2], held, {})


class _Scores:
    """The payoffs and priorities of one game, tabulated in one pass.

    A table has two parts. The game-free part is the layout `_layout(n)`
    of its SBS count, shared by every table with n SBSs. Slot codes are
    integers: SBS k is k, the macro cell n and the cache n + 1. The
    constructor builds the game's own part: gamma per user, the common
    priority order, per user a payoff row keyed by slot code (HOF evaluated
    once per speed and SBS) and the period-2 cache payoffs. `rank` derives
    the rankings from them.

    Plans are ordered by `order`, (-score, pair code), lower first. The
    pair code `first * (n + 2) + second` names a plan, so plans of equal
    score are ordered by their first slot and then their second, SBSs by
    index before the macro cell before the cache. Plans are interned per
    pair code on first use (`entry`) with their slots, so ranking hashes no
    `PlayerId` and a proposal computes no slots. Every score comes from
    `_keyed`, and every slot it scores is one of the user's candidates, the
    macro cell or the cache.
    """

    def __init__(self, instance: GameInstance):
        self.instance = instance
        n = len(instance.sbss)
        self._n = n
        self.sbs, self._slots, self._kinds, self._held, self._plans = \
            _layout(n)
        play_rate, scan = instance.play_rate, instance.scan_interval
        self._playback = [mue.segments / play_rate for mue in instance.mues]
        self._gamma = [scan - playback for playback in self._playback]
        # a stable sort by -gamma keeps ties in index order
        ranks = [-g for g in self._gamma]
        self._priority = sorted(range(len(ranks)), key=ranks.__getitem__)
        covered1 = instance.covered_payoff
        covered2 = instance.future_covered_payoff
        short = instance.shortfall_penalty
        full = instance.cache_capacity / instance.play_rate
        mbs_payoff, cache = instance.mbs_payoff, n + 1
        hofs: Dict[Tuple[float, int], float] = {}
        self._rows: List[Dict[int, float]] = []
        self._cache2: List[Tuple[float, float, float]] = []
        self.rankings: List[Sequence[_PlanEntry]] = []
        for mue, playback in zip(instance.mues, self._playback):
            speed, p_th, gap1, gap2 = mue.speed, mue.p_th, mue.gap1, mue.gap2
            # the cache payoffs: a cache slot is covered when the distance
            # the user coasts on its cache (or, after an SBS slot, on a
            # refilled one) reaches the gap
            coast, refill = playback * speed, full * speed
            row = {n: mbs_payoff, cache: covered1 if coast >= gap1 else short}
            for k in mue.cand1 + mue.cand2:
                hof = hofs.get((speed, k))
                if hof is None:
                    hof = hofs[speed, k] = hof_probability(
                        speed, instance.t_mts, instance.sbss[k].radius)
                row[k] = p_th - hof
            self._rows.append(row)
            # after a first slot at an SBS (the cache was refilled), at the
            # macro cell, and on the cache: the order of the slot kinds
            self._cache2.append(
                (covered2 if refill >= gap2 else short,
                 covered2 if coast >= gap2 else short,
                 covered2 if coast >= gap1 + gap2 else short))

    def phi(self, u: int, k: int) -> float:
        """Threshold margin p_th - HOF of user u in its candidate SBS k."""
        return self._rows[u][k]

    def gamma(self, u: int) -> float:
        """Scan interval minus the cached playback time of user u.

        For finite doubles the rounded difference is 0.0 only when the two
        are equal and keeps the exact difference's sign, so `gamma(u) <= 0`
        is exactly "playback >= scan interval".
        """
        return self._gamma[u]

    def priority(self) -> List[int]:
        """All users, best first in the order every BS ranks them."""
        return self._priority

    def code(self, slot: Optional[PlayerId]) -> int:
        """The slot code of a BS, or of the cache for None."""
        if slot is None:
            return self._n + 1
        return slot.index if slot.kind is PlayerKind.SBS else self._n

    def _keyed(self, u: int, first: int, seconds: Sequence[int],
               ) -> List[Tuple[float, int]]:
        """The order (-score, pair code) of the plan (first, second) per
        second code.

        The score adds the first slot's payoff and the second's; a
        period-2 cache slot's payoff depends on the kind of the first slot,
        and a certain, in-hand covered cache period may be valued
        differently from a projected period-2 one, hence the separate
        covered payoffs.
        """
        row, n = self._rows[u], self._n
        p1 = row[first]
        base, cache = first * (n + 2), n + 1
        cache2 = self._cache2[u][self._kinds[first]]
        out = []
        for second in seconds:
            p2 = cache2 if second == cache else row[second]
            out.append((-(p1 + p2), base + second))
        return out

    def entry(self, pair: int) -> _PlanEntry:
        """The plan of a pair code, interned on first use."""
        entry = self._plans.get(pair)
        if entry is None:
            n, slots, held = self._n, self._slots, self._held
            first, second = divmod(pair, n + 2)
            # the macro cell takes no stage-one plan
            stage1 = None if n in (first, second) else \
                held[1][first] + held[2][second]
            entry = self._plans[pair] = _PlanEntry(
                Plan(slots[first], slots[second]), (stage1, held[2][second]))
        return entry

    def _beating(self, own: Tuple[float, int],
                 keyed: List[Tuple[float, int]]) -> List[_PlanEntry]:
        """The interned plans of `keyed` that beat `own`, best first."""
        keyed = [item for item in keyed if item < own]
        keyed.sort()
        interned, entry = self._plans.get, self.entry
        return [interned(pair) or entry(pair) for _, pair in keyed]

    def order(self, u: int, first: Optional[PlayerId],
              second: Optional[PlayerId]) -> Tuple[float, int]:
        """The (-score, pair code) of the plan (first, second); lower is
        preferred."""
        return self._keyed(u, self.code(first), (self.code(second),))[0]

    def _universe(self, u: int,
                  ) -> Tuple[Tuple[float, int], List[Tuple[float, int]]]:
        """The (-score, pair code) of the self plan and of u's other plans.

        The other plans are the feasible, individually rational ones: SBS
        slots require phi >= 0; SBS-then-macro plans are listed only when
        the macro cell admits the user in period 2 (`mbs_admits_p2`). One
        `_keyed` call per first slot; the cache-first call starts with the
        self plan.
        """
        instance = self.instance
        row, n = self._rows[u], self._n
        mue, macro, cache = instance.mues[u], n, n + 1
        cand2 = [k for k in mue.cand2 if row[k] >= 0.0]
        cross = instance.allow_cross_sbs_plans
        out = []
        for k in mue.cand1:
            phi = row[k]
            if phi >= 0.0:
                seconds = [cache, macro] if phi < instance.epsilon else [cache]
                seconds += cand2 if cross else [c for c in cand2 if c == k]
                out += self._keyed(u, k, seconds)
        own, *rest = self._keyed(u, cache, [cache] + cand2 + [macro])
        out += rest
        return own, out

    def mbs_admits_p2(self, u: int, first: Optional[PlayerId]) -> bool:
        """Macro period-2 admission rule after the first slot `first`.

        After an SBS slot the macro cell admits u when phi < epsilon; after
        a macro slot it always admits; after a cache slot it admits only a
        user whose cache does not outlast the scan interval (gamma > 0).
        """
        if first is None:
            return self._gamma[u] > 0.0
        if first.kind is PlayerKind.SBS:
            return self.phi(u, first.index) < self.instance.epsilon
        return True

    def rank(self) -> None:
        """Rank every user's plans from this table into `rankings`, which
        stage one reads; see `build_preferences`."""
        universe, beating = self._universe, self._beating
        self.rankings = [beating(*universe(u))
                         for u in range(len(self.instance.mues))]


# ---------------------------------------------------------------------------
# Preference construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreferenceProfile:
    """Strictly ordered, individually rational plan ranking of one user."""

    ranked_plans: Tuple[Plan, ...]


# the profile of every user that ranks no plan above its cache
_NO_PLANS = PreferenceProfile(())


@dataclass(frozen=True)
class BsPreference:
    """The users whose ranked plans name a BS, in the common priority order.

    An SBS lists only the users with gamma >= 0, whom it may serve.
    """

    ranked_mues: Tuple[int, ...]


@dataclass(frozen=True)
class Preferences:
    """Every user's ranking, and the score table it was ranked by.

    The matchers read `scores` instead of computing a utility again, and
    stage one takes the interned plans of each ranking from it; it takes
    no part in equality or the repr. No matcher reads the BS lists: they
    follow from the rankings and the table's priority, and are derived on
    demand.
    """

    mue_profiles: Tuple[PreferenceProfile, ...]
    scores: _Scores = field(compare=False, repr=False)

    @property
    def sbs_profiles(self) -> Tuple[BsPreference, ...]:
        scores = self.scores
        served = [u for u in scores.priority() if not scores.gamma(u) < 0.0]
        return tuple([self._naming(bs, served) for bs in scores.sbs])

    @property
    def mbs_profile(self) -> BsPreference:
        return self._naming(MBS, self.scores.priority())

    def _naming(self, bs: PlayerId, users: List[int]) -> BsPreference:
        """The `users` whose ranked plans name `bs`, in their order."""
        profiles = self.mue_profiles
        return BsPreference(tuple([
            u for u in users
            if any(bs in plan for plan in profiles[u].ranked_plans)]))


def build_preferences(instance: GameInstance) -> Preferences:
    """Rank every user's plans; drop plans not beating the self plan.

    This builds the game's one score table and ranks each user's plans
    from it: the orders `_Scores._universe` derives from the payoffs are
    filtered against the self plan's, sorted and interned. Users with no
    ranked plan share one empty profile.
    """
    scores = _Scores(instance)
    scores.rank()
    return Preferences(tuple([
        PreferenceProfile(tuple([e.plan for e in entries]))
        if entries else _NO_PLANS for entries in scores.rankings]), scores)


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

@dataclass
class DynamicMatching:
    """Realized two-period association map."""

    mu1: Dict[int, Optional[PlayerId]]
    mu2: Dict[int, Optional[PlayerId]]

    def validate(self, instance: GameInstance) -> None:
        """Definition-1 consistency: quotas per period, known players."""
        users = set(range(len(instance.mues)))
        for period, mu in ((1, self.mu1), (2, self.mu2)):
            if mu.keys() != users:
                raise ValueError("matching must cover every MUE exactly once")
            _check_quotas(_sbs_load(mu.values(), len(instance.sbss)),
                          instance.sbss, period)


def _sbs_load(slots: Iterable[Optional[PlayerId]], n_sbs: int) -> List[int]:
    """The number of `slots` at each of `n_sbs` SBSs; ValueError if one
    names an SBS outside the game."""
    load = [0] * n_sbs
    for slot in slots:
        if slot is not None and slot.kind is PlayerKind.SBS:
            if not 0 <= slot.index < n_sbs:
                raise ValueError(f"unknown SBS {slot.index}")
            load[slot.index] += 1
    return load


def _check_quotas(load: Sequence[int], sbss: Sequence[SbsState],
                  period: int) -> None:
    """ValueError if a per-SBS load of `period` exceeds its quota."""
    for k, sbs in enumerate(sbss):
        if load[k] > sbs.quota:
            raise ValueError(f"quota violated at SBS {k} period {period}")


class ProposalRecord(NamedTuple):
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


# ---------------------------------------------------------------------------
# Serial dictatorship in the common priority order
# ---------------------------------------------------------------------------

def _serial_dictatorship(scores: _Scores, users: Sequence[int],
                         rankings: Sequence[Sequence[_PlanEntry]],
                         room: Dict[Tuple[int, int], int], trace: MatchTrace,
                         stage: int) -> Dict[int, Plan]:
    """Give each of `users`, a run of the priority order, in turn the first
    plan of its ranking with room.

    `rankings[u]` holds user u's interned plans, best first, whose slots
    of this stage are checked. `room` holds the free places per (period,
    SBS) slot, and a user with gamma below 0 is refused every SBS slot.
    Every BS ranks users in the same priority order `(gamma, -index)`, so
    this is the outcome of user-proposing deferred acceptance. Each user's
    proposals are recorded as that deferred acceptance makes them: its
    ranking up to and including the plan it holds, or its whole ranking if
    it holds nothing; only the held plan's record is accepted. Returns
    each holder's plan.
    """
    held: Dict[int, Plan] = {}
    proposals = trace.proposals
    gamma = scores.gamma
    which = stage - 1
    for u in users:
        ranking = rankings[u]
        if not ranking:
            continue
        may_serve = not gamma(u) < 0.0
        for entry in ranking:
            wanted = entry.slots[which]
            accepted = wanted is not None and (may_serve or not wanted)
            if accepted:
                for s in wanted:
                    if room[s] <= 0:
                        accepted = False
                        break
            proposals.append(ProposalRecord(stage, u, entry.plan, accepted))
            if accepted:
                for s in wanted:
                    room[s] -= 1
                held[u] = entry.plan
                break
    return held


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
    entry, cache = scores.entry, scores.code(None)
    width = cache + 1   # pair code of (SBS k, cache): k * width + cache
    rankings = [[entry(k * width + cache) for k in _first_sbs_order(prof)]
                for prof in prefs.mue_profiles]
    room = {(1, k): sbs.quota for k, sbs in enumerate(instance.sbss)}
    held = _serial_dictatorship(scores, scores.priority(), rankings, room,
                                trace, stage=1)

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
                                ) -> List[Tuple[int, int]]:
    """The oracle's classic blocking pairs of a single-period matching."""
    from . import oracle
    return oracle.find_single_period_blocking(mu, instance)


# ---------------------------------------------------------------------------
# Algorithm 2: two-stage dynamically stable matching
# ---------------------------------------------------------------------------

def dynamic_match(instance: GameInstance,
                  preferences: Optional[Preferences] = None) -> MatchResult:
    """Two-stage plan matching: ex ante stage then period-2 repair.

    Both stages are serial dictatorships in the common priority order. The
    game is the one head of a `run_heads` pass: the ex ante matching holds
    each user's ex ante slots, the matching adds the head's stage-two
    repairs in period 2, and the trace is the stage-one proposals followed
    by the stage-two ones.
    """
    prefs = preferences or build_preferences(instance)
    n = len(instance.mues)
    run = run_heads(prefs.scores, (n,))
    head = run.heads[n]
    ex_ante = DynamicMatching(dict(enumerate(run.firsts)),
                              dict(enumerate(run.seconds)))
    mu2 = dict(ex_ante.mu2)
    mu2.update((u, plan.second) for u, plan in head.repairs.items())
    matching = DynamicMatching(dict(ex_ante.mu1), mu2)
    return MatchResult(matching, ex_ante, MatchTrace(run.stage1 + head.stage2))


class Head(NamedTuple):
    """What one head of a `HeadRun` holds of its own."""

    end: int                    # its stage-one proposals: stage1[:end]
    repairs: Dict[int, Plan]    # the plan each user took in stage two
    stage2: List[ProposalRecord]


class HeadRun(NamedTuple):
    """Every head of one game, matched in one pass (`run_heads`).

    User u holds the ex ante slots `firsts[u]` and `seconds[u]` in every
    head that has it. `stage1` holds the stage-one proposals of the
    largest head, and `heads[n]` the part of head n that is its own.
    """

    firsts: List[Optional[PlayerId]]
    seconds: List[Optional[PlayerId]]
    stage1: List[ProposalRecord]
    heads: Dict[int, Head]


def run_heads(scores: _Scores, counts: Sequence[int]) -> HeadRun:
    """Match the head game of n users, for every n in `counts`, in one
    pass over the game of the ranked table `scores` (`_Scores.rank`).

    The head of n users must be a prefix of the priority order: the first
    n users in priority are the users below n, which one running max over
    the priority order tests, else ValueError. The head game's priority is
    then that prefix, and its stage one is the first n turns of the full
    game's. So stage one runs once, and a head's stage-one trace is the
    proposals made up to its last turn. A user's period-1 fallback and
    stage-two ranking read only its own payoffs and stage-one plan, so
    they are made once per user, and so are the per-SBS loads of both
    periods, counted from the plans stage one holds and taken at each
    head's last turn. Per head remain stage two, over its users with a
    stage-two ranking in priority order and an SBS's room its quota less
    the head's period-2 load, and the check of the result: each SBS's load
    in either period, stage two's repairs included, is within its quota.
    Every user below n holds its slots, so the head is covered. A load
    over quota raises ValueError, as does a repair naming an SBS outside
    the game, as in `DynamicMatching.validate`; stage one holds no such
    slot, since its room has places only at the game's SBSs.

    In stage one, the ex ante stage, each user in turn holds its best
    admitted plan. Plans are atomic: a plan is admitted only if every SBS
    slot it requests has room, in period 1 and in period 2. The macro cell
    takes no stage-one plan, and a user with gamma below 0 is refused SBS
    slots. The original process, plan proposals with tentative acceptance
    in which a displaced plan dies entirely and freed capacity restarts the
    proposals, holds the same plans in every game of the differential
    tests.
    """
    sbss = scores.instance.sbss
    priority = scores.priority()
    # the users of the largest head; a count past the game raises below
    top = min(max(counts, default=0), len(priority))
    firsts: List[Optional[PlayerId]] = [None] * top
    seconds: List[Optional[PlayerId]] = [None] * top
    stage1 = MatchTrace()
    room = {(period, k): sbs.quota for period in (1, 2)
            for k, sbs in enumerate(sbss)}
    load1, load2 = [0] * len(sbss), [0] * len(sbss)
    # the stage-two ranking of each user that ranks something, in
    # priority order
    rankings: Dict[int, Sequence[_PlanEntry]] = {}
    # per head: its stage-one end, its number of rankings and its loads
    marks: Dict[int, Tuple[int, int, List[int], List[int]]] = {}
    start, peak = 0, -1
    for n in sorted(set(counts)):
        block = priority[start:n]
        peak = max(peak, max(block, default=peak))
        if not 0 <= n <= len(priority) or (n and peak != n - 1):
            raise ValueError(f"the first {n} users are not the first {n} "
                             f"in priority order")
        held = _serial_dictatorship(scores, block, scores.rankings, room,
                                    stage1, stage=1)
        # only a held plan puts a user on an SBS, and stage one holds
        # only plans of the game's SBSs and the cache
        for first, second in held.values():
            if first is not None:
                load1[first.index] += 1
            if second is not None:
                load2[second.index] += 1
        _ex_ante(scores, held, block, firsts, seconds, rankings)
        marks[n] = len(stage1.proposals), len(rankings), load1[:], load2[:]
        start = n
    movers = list(rankings)
    heads = {}
    for n, (end, moved, held1, held2) in marks.items():
        room = {(2, k): sbs.quota - load
                for k, (sbs, load) in enumerate(zip(sbss, held2))}
        trace = MatchTrace()
        repairs = _serial_dictatorship(scores, movers[:moved], rankings,
                                       room, trace, stage=2)
        _check_quotas(held1, sbss, 1)
        repaired = _sbs_load([plan.second for plan in repairs.values()],
                             len(sbss))
        _check_quotas([a + b for a, b in zip(held2, repaired)], sbss, 2)
        heads[n] = Head(end, repairs, trace.proposals)
    return HeadRun(firsts, seconds, stage1.proposals, heads)


def _ex_ante(scores: _Scores, held: Dict[int, Plan], users: Sequence[int],
             firsts: List[Optional[PlayerId]],
             seconds: List[Optional[PlayerId]],
             rankings: Dict[int, Sequence[_PlanEntry]]) -> None:
    """Set the ex ante slots of each of `users` in `firsts` and `seconds`,
    and its stage-two ranking in `rankings` if it ranks something.

    A user holds its stage-one plan in `held`, or the self plan. A
    cache-poor user left on its cache in period 1 goes to the macro cell
    instead when that scores strictly higher. A user with no period-2 slot
    then ranks its period-2 options consistent with its period-1 slot:
    candidate SBSs it finds acceptable and the macro cell under its
    admission rule. It ranks them by the plan orders of the table, which
    already holds every phi they need, and takes the plans it interns;
    other users rank nothing.
    """
    mues = scores.instance.mues
    macro, cache = scores.code(MBS), scores.code(None)
    for u in users:
        first, second = held.get(u, SELF_PLAN)
        # a strictly higher score: an order holds the exact negated score
        if first is None and scores.gamma(u) > 0.0 and \
                scores.order(u, MBS, second)[0] < \
                scores.order(u, None, second)[0]:
            first = MBS
        firsts[u], seconds[u] = first, second
        if second is None:
            opts = [k for k in mues[u].cand2 if not scores.phi(u, k) < 0.0]
            if scores.mbs_admits_p2(u, first):
                opts.append(macro)
            own, *keyed = scores._keyed(u, scores.code(first), [cache] + opts)
            ranking = scores._beating(own, keyed)
            if ranking:
                rankings[u] = ranking


# ---------------------------------------------------------------------------
# Blocking configurations (Definitions 3 and 4), found by the oracle
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


def find_blocking_pairs(matching: DynamicMatching, instance: GameInstance,
                        period: int) -> List[Violation]:
    """The blocking configurations of one period, by the oracle's scan."""
    from . import oracle
    if period not in (1, 2):
        raise ValueError("period must be 1 or 2")
    report = oracle.scan_all_blockings(matching, instance)
    return report.period1 if period == 1 else report.period2
