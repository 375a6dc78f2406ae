"""Independent verification engines.

Brute-force enumeration of the offload assignment problem, Monte Carlo
estimators for the geometric results, and an exhaustive stability report.
Everything here is deliberately simple and independent of the closed-form
code paths it checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import BeamGeometry, Pose
from .matching import (DynamicMatching, GameInstance, PlayerId, PlayerKind,
                       Violation)


class EnumerationBudgetExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Brute-force offload assignment (objective: fewest users on the macro cell)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IlpMue:
    speed: float
    segments: float
    p_th: float


@dataclass(frozen=True)
class IlpSbs:
    radius: float
    quota: int


@dataclass(frozen=True)
class IlpInstance:
    mues: Tuple[IlpMue, ...]
    sbss: Tuple[IlpSbs, ...]
    t_mts: float = 1.0
    scan_interval: float = 1.0
    play_rate: float = 1e3
    budget: int = 10_000_000

    def n_assignments(self) -> int:
        return (len(self.sbss) + 2) ** len(self.mues)


# Per-MUE choice encoding: 0..K-1 = SBS index, K = macro cell, K+1 = none.
MBS_CHOICE = -1
NONE_CHOICE = -2


@dataclass(frozen=True)
class IlpSolution:
    assignment: Tuple[int, ...]   # per MUE: SBS index, MBS_CHOICE or NONE_CHOICE
    objective: int                # number of users on the macro cell


def _hof(speed: float, t_mts: float, radius: float) -> float:
    ratio = speed * t_mts / (2.0 * radius)
    if ratio >= 1.0:
        return 1.0
    return (2.0 / math.pi) * math.asin(ratio)


def check_assignment(instance: IlpInstance,
                     assignment: Sequence[int]) -> bool:
    """Feasibility of one assignment vector against all constraints."""
    loads = [0] * len(instance.sbss)
    for u, choice in enumerate(assignment):
        mue = instance.mues[u]
        if choice >= 0:
            sbs = instance.sbss[choice]
            if _hof(mue.speed, instance.t_mts, sbs.radius) > mue.p_th:
                return False
            loads[choice] += 1
        elif choice == NONE_CHOICE:
            if mue.segments / instance.play_rate < instance.scan_interval:
                return False
    return all(loads[k] <= instance.sbss[k].quota
               for k in range(len(instance.sbss)))


def solve_offload_bruteforce(instance: IlpInstance) -> IlpSolution:
    """Exhaustively enumerate per-user choices and keep the best feasible.

    Ties resolve to the lexicographically smallest assignment vector in the
    canonical choice order (SBS 0..K-1, macro, none), making the result
    invariant to input reordering after normalization.
    """
    if instance.n_assignments() > instance.budget:
        raise EnumerationBudgetExceeded(
            f"{instance.n_assignments()} assignments exceed budget "
            f"{instance.budget}")
    k = len(instance.sbss)
    choice_values = list(range(k)) + [MBS_CHOICE, NONE_CHOICE]
    best: Optional[IlpSolution] = None
    for combo in itertools.product(choice_values, repeat=len(instance.mues)):
        if not check_assignment(instance, combo):
            continue
        objective = sum(1 for c in combo if c == MBS_CHOICE)
        if best is None or objective < best.objective:
            best = IlpSolution(assignment=tuple(combo), objective=objective)
    if best is None:
        # all-macro is always feasible
        combo = tuple([MBS_CHOICE] * len(instance.mues))
        best = IlpSolution(assignment=combo, objective=len(instance.mues))
    return best


def ilp_from_game(instance: GameInstance) -> IlpInstance:
    return IlpInstance(
        mues=tuple(IlpMue(m.speed, m.segments, m.p_th) for m in instance.mues),
        sbss=tuple(IlpSbs(s.radius, s.quota) for s in instance.sbss),
        t_mts=instance.t_mts,
        scan_interval=instance.scan_interval,
        play_rate=instance.play_rate,
    )


def assignment_from_period1(matching_: DynamicMatching,
                            instance: GameInstance) -> Tuple[int, ...]:
    out = []
    for u in range(len(instance.mues)):
        bs = matching_.mu1[u]
        if bs is None:
            out.append(NONE_CHOICE)
        elif bs.kind == PlayerKind.MBS:
            out.append(MBS_CHOICE)
        else:
            out.append(bs.index)
    return tuple(out)


# ---------------------------------------------------------------------------
# Monte Carlo geometric estimators
# ---------------------------------------------------------------------------

def mc_coverage_probability(n_beams: int, beamwidth: float, samples: int,
                            seed: int) -> Tuple[float, float]:
    """Simulate random perimeter entries and full-circle headings.

    A trajectory counts as covered when its entry point lies on a sector arc
    or its chord (an inward heading) sweeps a central-angle interval that
    touches a sector. Returns (mean, binomial standard error).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n_beams < 1 or not beamwidth > 0.0:
        raise ValueError("invalid beam layout")
    rng = np.random.default_rng(seed)
    two_pi = 2.0 * math.pi
    pitch = two_pi / n_beams

    phi = rng.uniform(0.0, two_pi, samples)      # entry azimuth
    psi = rng.uniform(0.0, two_pi, samples)      # heading

    covered = (phi % pitch) < beamwidth

    # inward headings: chord p -> p + t*d with t = -2 (p . d) > 0
    inward = np.cos(psi - phi) < 0.0
    t = -2.0 * np.cos(psi - phi)
    exit_x = np.cos(phi) + t * np.cos(psi)
    exit_y = np.sin(phi) + t * np.sin(psi)
    exit_az = np.arctan2(exit_y, exit_x)

    delta = np.mod(exit_az - phi + math.pi, two_pi) - math.pi  # (-pi, pi]
    lo = np.where(delta >= 0.0, phi, phi + delta)
    length = np.abs(delta)
    lo_mod = np.mod(lo, pitch)
    sweeps_arc = (lo_mod < beamwidth) | (lo_mod + length >= pitch)

    covered = covered | (inward & sweeps_arc)
    p = float(np.mean(covered))
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return p, stderr


@dataclass
class EmpiricalCdf:
    """Sorted samples with CDF queries and KS distance helpers."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.sort(np.asarray(self.samples, dtype=float))

    def __call__(self, t: float) -> float:
        return float(np.searchsorted(self.samples, t, side="right")
                     / len(self.samples))

    def ks_distance(self, cdf) -> float:
        """sup |F_emp - F| against a callable CDF, evaluated at the jumps."""
        n = len(self.samples)
        theory = np.array([cdf(t) for t in self.samples])
        upper = np.abs(np.arange(1, n + 1) / n - theory)
        lower = np.abs(np.arange(0, n) / n - theory)
        return float(max(upper.max(), lower.max()))


def mc_caching_duration(pose: Pose, beam: BeamGeometry, samples: int,
                        seed: int) -> EmpiricalCdf:
    """Sample admissible headings uniformly and collect crossing times.

    Headings span [anchor, anchor + pi - beamwidth], the sector-crossing
    directions; each sample's traverse distance comes from the far-edge
    intersection.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    lo = beam.anchor_angle
    hi = lo + math.pi - beam.beamwidth
    x = pose.x - beam.sbs_position[0]
    y = pose.y - beam.sbs_position[1]
    t0 = beam.anchor_angle
    num = y * math.cos(t0) - x * math.sin(t0)

    headings = rng.uniform(lo, hi, samples)
    den = np.sin(t0 - headings)
    with np.errstate(divide="ignore"):
        r = num / den
    r = np.where(r <= 0.0, np.inf, r)
    return EmpiricalCdf(r / pose.speed)


def sample_chords(radius: float, samples: int, seed: int) -> np.ndarray:
    """Chord lengths with one endpoint fixed and a uniform angle in [0, pi]."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, math.pi, samples)
    return 2.0 * radius * np.abs(np.sin(theta))


def mc_hof_frequency(speed: float, t_mts: float, cell_radius: float,
                     samples: int, seed: int) -> Tuple[float, float]:
    """Fraction of sampled chords crossed in less than the minimum stay."""
    chords = sample_chords(cell_radius, samples, seed)
    fails = chords < speed * t_mts
    p = float(np.mean(fails))
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / samples)


# ---------------------------------------------------------------------------
# Exhaustive stability report, on payoffs of its own
# ---------------------------------------------------------------------------

_MBS = PlayerId(PlayerKind.MBS, 0)


class _Payoffs:
    """One game's payoffs, scored from the definitions, not the matcher's.

    gamma = scan interval - cached playback; every BS ranks users by gamma,
    then index. An SBS pays phi = p_th - HOF (`_hof`). A cache slot is
    covered when cached playback carries the user over its gap: gap1 in
    period 1; in period 2 gap2 after an SBS (refilled cache) or macro slot,
    gap1 + gap2 after a cache slot. A plan's key is (-score, code1, code2),
    lower first; SBS k's code is k, the macro cell's n, the cache's n + 1."""

    def __init__(self, game: GameInstance):
        self.game, self.n = game, len(game.sbss)
        self.sbs = [PlayerId(PlayerKind.SBS, k) for k in range(self.n)]
        gamma = self.gamma = [game.scan_interval - m.segments / game.play_rate
                              for m in game.mues]
        # a stable sort keeps users of equal gamma in index order
        self.priority = sorted(range(len(gamma)), key=lambda u: -gamma[u])
        # per user, the payoff of each slot code: the macro cell's, the
        # cache's in period 1, and each SBS's phi from its first use
        self._rows: List[Dict[int, float]] = []
        # per user, the cache's payoff in period 2 after an SBS, a macro
        # and a cache slot
        self._cache2 = []
        later, short = game.future_covered_payoff, game.shortfall_penalty
        full = game.cache_capacity / game.play_rate
        for m in game.mues:
            coast = m.segments / game.play_rate * m.speed
            cache1 = game.covered_payoff if coast >= m.gap1 else short
            self._rows.append({self.n: game.mbs_payoff, self.n + 1: cache1})
            self._cache2.append([later if covered else short for covered in (
                full * m.speed >= m.gap2, coast >= m.gap2,
                coast >= m.gap1 + m.gap2)])

    def payoff(self, u: int, code: int) -> float:
        row = self._rows[u]
        if code not in row:
            mue = self.game.mues[u]
            row[code] = mue.p_th - _hof(mue.speed, self.game.t_mts,
                                        self.game.sbss[code].radius)
        return row[code]

    def key(self, u: int, first: Optional[PlayerId],
            second: Optional[PlayerId]) -> Tuple[float, int, int]:
        n, c1, c2 = self.n, self.code(first), self.code(second)
        # a period-2 cache slot pays by the kind of the first slot
        p2 = self._cache2[u][max(c1 - n + 1, 0)] if c2 > n else \
            self.payoff(u, c2)
        return -(self.payoff(u, c1) + p2), c1, c2

    def code(self, slot: Optional[PlayerId]) -> int:
        if slot is None:
            return self.n + 1
        return slot.index if slot.kind is PlayerKind.SBS else self.n

    def bs_prefers(self, u: int, w: int) -> bool:
        gu, gw = self.gamma[u], self.gamma[w]
        return gu > gw or (gu == gw and u < w)

    def mbs_admits_p2(self, u: int, first: Optional[PlayerId]) -> bool:
        """Macro admission in period 2 after the first slot `first`."""
        if first is None:
            return self.gamma[u] > 0.0
        if first.kind is PlayerKind.SBS:
            return self.payoff(u, first.index) < self.game.epsilon
        return True

    def summary(self, mu: Dict[int, Optional[PlayerId]]) -> tuple:
        """Each SBS's load in one period's map, and its holder last in
        priority (-1 if none)."""
        load, last = [0] * self.n, [-1] * self.n
        for u in self.priority:
            slot = mu[u]
            if slot is not None and slot.kind is PlayerKind.SBS:
                load[slot.index] += 1
                last[slot.index] = u
        return load, last

    def gains(self, slot, summary, k: int, u: int) -> bool:
        """Would SBS k strictly gain u, who holds `slot` in the period of
        `summary`? Priority is a total order, so a full SBS prefers u to a
        holder exactly when to its last: a scan is linear in the users."""
        if slot == self.sbs[k] or self.gamma[u] < 0.0:
            return False
        load, last = summary
        if load[k] < self.game.sbss[k].quota:
            return self.gamma[u] > 0.0
        return self.bs_prefers(u, last[k])


@dataclass
class StabilityReport:
    period1: List[Violation]
    period2: List[Violation]

    @property
    def stable(self) -> bool:
        return not self.period1 and not self.period2

    def lines(self) -> List[str]:
        if self.stable:
            return ["stable: no period-1 or period-2 blocking found"]
        return [f"{v!r}" for v in self.period1 + self.period2]


def scan_all_blockings(matching_: DynamicMatching,
                       instance: GameInstance) -> StabilityReport:
    """The blocking scans of both periods, on one check and one table."""
    return StabilityReport(*_scans(matching_, instance, (1, 2)))


def scan_blockings(matching_: DynamicMatching, instance: GameInstance,
                   period: int) -> List[Violation]:
    """The blocking configurations of one period; only its scan runs."""
    if period not in (1, 2):
        raise ValueError("period must be 1 or 2")
    return _scans(matching_, instance, (period,))[0]


def _scans(matching_: DynamicMatching, instance: GameInstance,
           periods: Sequence[int]) -> List[List[Violation]]:
    """Definition-1 consistency check, then the blocking scan of each of
    `periods` on one `_Payoffs` table: the check shares no payoff with the
    matcher. Period 1 reads both periods' summaries, period 2 its own."""
    matching_.validate(instance)
    pay = _Payoffs(instance)
    summary2 = pay.summary(matching_.mu2)
    return [_scan_period2(matching_, pay, summary2) if period == 2 else
            _scan_period1(matching_, pay,
                          (pay.summary(matching_.mu1), summary2))
            for period in periods]


def _scan_period1(matching_: DynamicMatching, pay: _Payoffs,
                  summaries) -> List[Violation]:
    """The unilateral user violations, then the unilateral BS ones by
    (SBS, period, user), then the pair ones by user and SBS."""
    unilateral: List[Violation] = []
    refused: List[Tuple[int, int, int]] = []
    pairs: List[Violation] = []
    key, gamma = pay.key, pay.gamma
    for u, mue in enumerate(pay.game.mues):
        slot1, slot2 = matching_.mu1[u], matching_.mu2[u]
        current = key(u, slot1, slot2)
        prefers_cache = key(u, None, None) < current
        if prefers_cache:
            unilateral.append(Violation(1, "unilateral-mue", u))
        if gamma[u] < 0.0:
            refused += [(slot.index, period, u)
                        for period, slot in ((1, slot1), (2, slot2))
                        if slot is not None and slot.kind is PlayerKind.SBS]
        for k in sorted(set(mue.cand1) | set(mue.cand2)):
            target = pay.sbs[k]
            in1, in2 = slot1 == target, slot2 == target
            gains1 = pay.gains(slot1, summaries[0], k, u)
            gains2 = pay.gains(slot2, summaries[1], k, u)
            if not pay.payoff(u, k) < 0.0:
                # 1) two-period plan kk against BS serving u both periods
                if k in mue.cand1 and k in mue.cand2 and \
                        key(u, target, target) < current and \
                        (in1 or gains1) and (in2 or gains2) and \
                        (gains1 or gains2):
                    pairs.append(Violation(1, "pair-kk", u, target))
                # 2) serve period 1 only
                if k in mue.cand1 and gains1 and \
                        key(u, target, None) < current:
                    pairs.append(Violation(1, "pair-ku", u, target))
                # 3) serve period 2 only
                if k in mue.cand2 and gains2 and \
                        key(u, None, target) < current:
                    pairs.append(Violation(1, "pair-uk", u, target))
            # 4) mutual divorce
            if (in1 or in2) and prefers_cache and gamma[u] < 0.0:
                pairs.append(Violation(1, "pair-divorce", u, target))
    refused.sort()
    return unilateral + [Violation(1, "unilateral-bs", u, pay.sbs[k])
                         for k, _, u in refused] + pairs


def _scan_period2(matching_: DynamicMatching, pay: _Payoffs,
                  summary) -> List[Violation]:
    out: List[Violation] = []
    key, load = pay.key, summary[0]
    for u, mue in enumerate(pay.game.mues):
        first, second = matching_.mu1[u], matching_.mu2[u]
        current = key(u, first, second)
        stay = key(u, first, None)
        if stay < current:
            out.append(Violation(2, "unilateral-mue", u))
        for k in sorted(set(mue.cand2)):
            target = pay.sbs[k]
            if not pay.payoff(u, k) < 0.0 and key(u, first, target) < current:
                if load[k] >= pay.game.sbss[k].quota:
                    continue  # full BSs never period-2 block
                if pay.gains(second, summary, k, u):
                    out.append(Violation(2, "pair-gain", u, target))
            if second == target and stay < current and pay.gamma[u] < 0.0:
                out.append(Violation(2, "pair-divorce", u, target))
        if second != _MBS and key(u, first, _MBS) < current and \
                pay.mbs_admits_p2(u, first):
            out.append(Violation(2, "pair-mbs", u, _MBS))
    return out


def find_single_period_blocking(mu: Dict[int, Optional[PlayerId]],
                                instance: GameInstance,
                                ) -> List[Tuple[int, int]]:
    """Classic blocking pairs (user, SBS) of a valid single-period map.

    User u's acceptable SBSs start a feasible plan it prefers to its cache,
    ranked by their best such plan; an SBS it holds off that list ranks
    below every listed one. A listed SBS above u's slot blocks with u if it
    has room and gamma(u) > 0, or prefers u to its last holder."""
    # the map as period 1 of a matching whose period 2 is all caches
    DynamicMatching(mu, dict.fromkeys(mu)).validate(instance)
    pay = _Payoffs(instance)
    load, last = pay.summary(mu)
    blocking = []
    for u, mue in enumerate(instance.mues):
        own, best = pay.key(u, None, None), {}
        cand2 = [pay.sbs[k] for k in mue.cand2 if pay.payoff(u, k) >= 0.0]
        for k in mue.cand1:
            target = pay.sbs[k]
            if pay.payoff(u, k) >= 0.0:
                seconds = [None] + [s for s in cand2 if s == target or
                                    instance.allow_cross_sbs_plans]
                if pay.mbs_admits_p2(u, target):
                    seconds.append(_MBS)
                plan = min(pay.key(u, target, s) for s in seconds)
                if plan < own:
                    best[k] = plan
        acceptable, held = sorted(best, key=best.__getitem__), pay.code(mu[u])
        if held in best:
            acceptable = acceptable[:acceptable.index(held)]
        blocking += [(u, k) for k in acceptable if (
            pay.gamma[u] > 0.0 if load[k] < instance.sbss[k].quota
            else pay.bs_prefers(u, last[k]))]
    return blocking
