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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import matching
from .geometry import BeamGeometry, Pose
from .matching import DynamicMatching, GameInstance, PlayerKind, Violation


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
# Exhaustive stability report
# ---------------------------------------------------------------------------

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
    """Definition-1 consistency check, then both-period blocking scans."""
    matching_.validate(instance)
    return StabilityReport(
        period1=matching.find_blocking_pairs(matching_, instance, period=1),
        period2=matching.find_blocking_pairs(matching_, instance, period=2),
    )
