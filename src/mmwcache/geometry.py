"""Planar geometry of cells, beams, trajectories and chords.

All functions are pure and operate on immutable value types, so they are safe
to evaluate from concurrent workers. Angles are radians, distances meters,
durations seconds.

Conventions
-----------
A small base station (SBS) forms N equidistant millimeter-wave sectors of
beamwidth theta_k. One sector is bounded by the rays at azimuths
(anchor_angle - beamwidth) and (anchor_angle); a terminal crossing the sector
enters on the first ray ("entry edge") and leaves through the second
("far edge"). Internally lines are represented in the form
x*sin(t0) - y*cos(t0) = 0 so that vertical far edges (t0 = +-pi/2) need no
special casing; the tan-based textbook formulas are recovered exactly
elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .numerics import clamp_unit, wrap_angle

TWO_PI = 2.0 * math.pi


def beam_span_exceeds_circle(n_beams: int, beamwidth: float) -> bool:
    """Whether n_beams sectors of the beamwidth (radians) overfill 2*pi.

    The span may exceed the full circle by 1e-4 of it, so rounded inputs
    like theta = 2.0944 for three sectors are accepted.
    """
    return n_beams * beamwidth > TWO_PI * (1.0 + 1e-4)


class NoBeamCrossing(ValueError):
    """The trajectory does not intersect the far beam edge ahead of the MUE."""


@dataclass(frozen=True)
class Pose:
    """Position, heading and speed of a mobile user (straight-line motion)."""

    x: float
    y: float
    heading: float
    speed: float

    def __post_init__(self):
        if self.speed <= 0.0:
            raise ValueError(f"speed must be positive, got {self.speed}")
        object.__setattr__(self, "heading", wrap_angle(self.heading))


@dataclass(frozen=True)
class BeamGeometry:
    """Fixed-azimuth sectorized beam layout of one SBS.

    n_beams equidistant sectors of width beamwidth; the reference sector
    spans azimuths [anchor_angle - beamwidth, anchor_angle].
    """

    sbs_position: Tuple[float, float] = (0.0, 0.0)
    n_beams: int = 3
    beamwidth: float = math.radians(10.0)
    anchor_angle: float = 0.0

    def __post_init__(self):
        if self.n_beams < 1:
            raise ValueError("n_beams must be >= 1")
        if not self.beamwidth > 0.0:
            raise ValueError("beamwidth must be positive")
        if beam_span_exceeds_circle(self.n_beams, self.beamwidth):
            raise ValueError("total beam span exceeds the full circle")

    @property
    def entry_edge_angle(self) -> float:
        return wrap_angle(self.anchor_angle - self.beamwidth)


def beam_coverage_probability(n_beams: int, beamwidth: float) -> float:
    """Probability that a randomly oriented crossing meets a mmW sector.

    Entry point uniform on the cell perimeter, heading uniform over the full
    circle; a terminal entering inside a sector arc counts as covered
    outright, otherwise it is covered when its chord sweeps into a sector.

    P = [N*t/2pi] + [1 - N*t/2pi] * [0.5*(1 - 1/N) + t/(4pi)]
    """
    if n_beams < 2:
        raise ValueError("coverage model requires n_beams >= 2")
    if not beamwidth > 0.0:
        raise ValueError("beamwidth must be positive")
    if beam_span_exceeds_circle(n_beams, beamwidth):
        raise ValueError("total beam span exceeds the full circle")
    frac = min(n_beams * beamwidth / TWO_PI, 1.0)
    inscribed = 0.5 * (1.0 - 1.0 / n_beams) + beamwidth / (2.0 * TWO_PI)
    p = frac + (1.0 - frac) * inscribed
    return min(max(p, 0.0), 1.0)


def _relative(pose: Pose, beam: BeamGeometry) -> Tuple[float, float]:
    return (pose.x - beam.sbs_position[0], pose.y - beam.sbs_position[1])


def min_exit_distance(pose: Pose, beam: BeamGeometry) -> float:
    """Perpendicular distance from the MUE to the far beam edge.

    Equals |x*tan(t0) - y| / sqrt(1 + tan(t0)^2) for non-vertical edges and
    |x| in the vertical limit; computed as |x*sin(t0) - y*cos(t0)|.
    """
    x, y = _relative(pose, beam)
    t0 = beam.anchor_angle
    return abs(x * math.sin(t0) - y * math.cos(t0))


def beam_traverse_distance(pose: Pose, beam: BeamGeometry) -> float:
    """Distance traversed across the sector until the far edge is reached.

    r_c = (y - x*tan(t0)) / (tan(t0)*cos(h) - sin(h)) in the textbook form;
    raises NoBeamCrossing when the heading is parallel to the far edge or the
    intersection lies behind the MUE.
    """
    x, y = _relative(pose, beam)
    t0 = beam.anchor_angle
    h = pose.heading
    den = math.sin(t0 - h)
    num = y * math.cos(t0) - x * math.sin(t0)
    if abs(den) < 1e-15:
        raise NoBeamCrossing("heading parallel to the far beam edge")
    r = num / den
    if r <= 0.0:
        raise NoBeamCrossing("far-edge intersection lies behind the MUE")
    return r


def entry_pose(beam: BeamGeometry, distance: float, heading: float,
               speed: float) -> Pose:
    """Pose located on the sector entry edge at the given SBS distance."""
    if distance <= 0.0:
        raise ValueError("distance must be positive")
    a = beam.entry_edge_angle
    return Pose(
        x=beam.sbs_position[0] + distance * math.cos(a),
        y=beam.sbs_position[1] + distance * math.sin(a),
        heading=heading,
        speed=speed,
    )


def _require_entry_edge(pose: Pose, beam: BeamGeometry, tol: float = 1e-6
                        ) -> Tuple[float, float]:
    """Validate the pose sits on the entry edge; return (r_uk, r_min)."""
    x, y = _relative(pose, beam)
    r = math.hypot(x, y)
    if r <= 0.0:
        raise ValueError("pose coincides with the SBS")
    az = math.atan2(y, x)
    if abs(math.sin(az - beam.entry_edge_angle)) > tol:
        raise ValueError(
            "pose is not on the beam entry edge; positions off the edge are "
            "rejected rather than silently projected")
    return r, min_exit_distance(pose, beam)


def caching_duration_cdf(pose: Pose, beam: BeamGeometry, t0: float) -> float:
    """CDF of the sector crossing time for a uniformly random heading.

    For a pose on the entry edge at distance r_uk with perpendicular far-edge
    distance r_min, crossing within time t0 requires the heading to fall in a
    cone of half-angle arccos(r_min/(v t0)) about the perpendicular, clipped
    to the admissible range of width pi - beamwidth:

        F(t0) = [A + min(B, A)] / (pi - beamwidth),
        A = arccos(r_min/(v t0)),  B = arccos(r_min/r_uk),

    and F = 0 whenever r_min > v*t0.
    """
    if t0 < 0.0:
        raise ValueError("t0 must be nonnegative")
    r_uk, r_min = _require_entry_edge(pose, beam)
    v = pose.speed
    if v * t0 <= 0.0 or r_min > v * t0:
        return 0.0
    a = math.acos(clamp_unit(r_min / (v * t0)))
    b = math.acos(clamp_unit(r_min / r_uk))
    f = (a + min(b, a)) / (math.pi - beam.beamwidth)
    return min(max(f, 0.0), 1.0)


def hof_probability(speed: float, t_mts: float, cell_radius: float) -> float:
    """Handover-failure probability (2/pi)*arcsin(v*t_mts / (2a)).

    The probability that a chord of the cell, with one end fixed and a
    uniform direction, is shorter than v*t_mts. When v*t_mts > 2a every
    chord is shorter, so the law is exactly 1.0 there.
    """
    if speed < 0.0 or t_mts < 0.0:
        raise ValueError("speed and t_mts must be nonnegative")
    if cell_radius <= 0.0:
        raise ValueError("cell_radius must be positive")
    ratio = speed * t_mts / (2.0 * cell_radius)
    if ratio > 1.0:
        return 1.0
    return (2.0 / math.pi) * math.asin(ratio)
