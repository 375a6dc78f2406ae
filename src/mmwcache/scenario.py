"""Scenario generation and trajectory geometry over a circular deployment.

SBS positions are rejection-sampled uniformly over the disk under a minimum
inter-cell spacing; transmit powers are drawn from the configured set and
cell radii derive from the microwave RSS detection threshold. Everything is
a pure function of (config, seed).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .config import ConfigError, ScenarioConfig
from .geometry import TWO_PI, BeamGeometry
from .radio import SPEED_OF_LIGHT


class PackingFailure(RuntimeError):
    pass


class SbsSite(NamedTuple):
    """One placed SBS: where it is, how strong, and where its sectors point.

    The beam layout's sector count and width are deployment-wide
    (`ScenarioConfig.n_beams`, `beamwidth_deg`), so a site keeps only its
    own anchor azimuth and `beams` builds the layout when one is needed.
    """

    index: int
    position: Tuple[float, float]
    power_dbm: float
    radius: float
    anchor_angle: float

    def beams(self, config: ScenarioConfig) -> BeamGeometry:
        """This site's sectorized beam layout under `config`."""
        return BeamGeometry(sbs_position=self.position,
                            n_beams=config.n_beams,
                            beamwidth=math.radians(config.beamwidth_deg),
                            anchor_angle=self.anchor_angle)


@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    seed: int                   # the seed the sites were drawn from
    sbss: Tuple[SbsSite, ...]

    def snapshot_text(self) -> str:
        """Deterministic serialization used for byte-identity checks."""
        lines = [f"# scenario seed={self.seed}"]
        for s in self.sbss:
            lines.append(
                f"sbs,{s.index},{s.position[0]:.9f},{s.position[1]:.9f},"
                f"{s.power_dbm:.1f},{s.radius:.9f},{s.anchor_angle:.9f}")
        return "\n".join(lines) + "\n"


def uw_cell_radius(power_dbm: float, config: ScenarioConfig) -> float:
    """Cell radius where the shadowing-free microwave RSS crosses threshold."""
    wavelength = SPEED_OF_LIGHT / config.uw_carrier_frequency
    free_space = 20.0 * math.log10(4.0 * math.pi / wavelength)
    margin = power_dbm - config.rss_threshold_dbm - free_space
    if margin <= 0.0:
        raise ConfigError(
            f"rss_threshold_dbm={config.rss_threshold_dbm!r} is unreachable "
            f"even at 1 m from a {power_dbm!r} dBm SBS (sbs_powers_dbm)")
    return 10.0 ** (margin / (10.0 * config.uw_pathloss_exponent))


def generate_scenario(config: ScenarioConfig, seed: Optional[int] = None,
                      max_tries: int = 20000) -> Scenario:
    """Place SBSs uniformly over the disk with min spacing enforced.

    Every number of a deployment comes from one stream: the doubles of
    `default_rng(seed)`, drawn in blocks with `rng.random` (which yields
    the doubles the scalar calls would, in the same order) and taken one
    at a time. Placement takes two per try, `u_radius` and `u_angle`:
    the candidate at radius `area_radius * sqrt(u_radius)` and angle
    `2*pi * u_angle` is kept when `math.hypot` to every placed site is at
    least `min_intercell`. `_place_sites` tests a candidate only against
    the sites of the grid cells around it, which are all the sites that
    can be that close. Placement ends at the `n_sbs`-th kept site, so the
    positions are those of the first `2 * tries` doubles. Then each site
    in turn takes two: its power `sbs_powers_dbm[int(k * u)]` for the k
    configured powers (k * u < k for every double u < 1, so the index is
    in range) and its anchor azimuth `2*pi * u`. The result is
    bit-for-bit a function of (config, seed). Sites hold their anchor
    azimuth only; `SbsSite.beams` builds a beam layout on demand.
    """
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    # an endless iterator over block-drawn doubles; at the defaults one
    # block holds every double of 99% of deployments
    block = 6 * config.n_sbs + 128
    draws = itertools.chain.from_iterable(
        iter(lambda: rng.random(block).tolist(), None))
    levels = [(float(p), uw_cell_radius(p, config))
              for p in config.sbs_powers_dbm]
    n_levels = len(levels)
    positions = _place_sites(config, draws, max_tries)
    sbss = []
    for i, (pos, u_power, u_anchor) in enumerate(zip(positions, draws,
                                                     draws)):
        power, radius = levels[int(n_levels * u_power)]
        sbss.append(SbsSite(i, pos, power, radius, TWO_PI * u_anchor))
    return Scenario(config=config, seed=seed, sbss=tuple(sbss))


def _place_sites(config: ScenarioConfig, draws: Iterator[float],
                 max_tries: int) -> List[Tuple[float, float]]:
    """Rejection-sample the SBS positions; see `generate_scenario`.

    A site can fail the spacing test only within `spacing` of the
    candidate in both coordinates. Grid cells have the integer keys
    `gx * width + gy`, and each accepted site is listed in its own cell and
    the 8 cells around it, whose keys are its own plus the offsets in
    `around`; a candidate is tested against the one list of its own cell,
    which holds every site of the 9 cells around it. Whether a candidate
    passes does not depend on the order of its tests, so the placement is
    that of an all-pairs test. `width` exceeds the number of cells across
    the disk (with a margin for the neighbours of its rim cells), so no two
    cells share a key. The cells are a hair wider than `spacing` (a margin
    far above the rounding of `x / cell` for coordinates up to
    area_radius), so a site two cells away is always `spacing` or more
    away in one coordinate and passes the test. With spacing 0 the cells
    are 1e-9 * area_radius wide and every candidate passes.
    """
    n_sbs, spacing = config.n_sbs, config.min_intercell
    positions: List[Tuple[float, float]] = []
    if n_sbs == 0:
        return positions
    # a try places at most one site; failing here also spares drawing a
    # block sized for more sites than max_tries could ever place
    if n_sbs > max_tries:
        max_tries = 0
    cell = spacing + 1e-9 * (config.area_radius + spacing)
    width = 2 * int(config.area_radius / cell) + 5
    around = tuple(i * width + j for i in (-1, 0, 1) for j in (-1, 0, 1))
    grid: Dict[int, List[Tuple[float, float]]] = {}
    listed = grid.get
    pairs = zip(draws, draws)
    for _ in range(max_tries):
        u_radius, u_angle = next(pairs)
        r = config.area_radius * math.sqrt(u_radius)
        phi = TWO_PI * u_angle
        x, y = r * math.cos(phi), r * math.sin(phi)
        key = math.floor(x / cell) * width + math.floor(y / cell)
        # an explicit loop: `all` over a generator costs more than the
        # tests themselves
        for px, py in listed(key, ()):
            if not math.hypot(x - px, y - py) >= spacing:
                break   # too close to a site: reject
        else:
            site = (x, y)
            positions.append(site)
            if len(positions) == n_sbs:
                return positions
            for offset in around:
                near = listed(key + offset)
                if near is None:
                    grid[key + offset] = [site]
                else:
                    near.append(site)
    raise PackingFailure(
        f"could not place {n_sbs} SBSs with spacing "
        f"{spacing} m in radius {config.area_radius} m")


# ---------------------------------------------------------------------------
# Ray/segment geometry against the deployment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellCrossing:
    """One cell traversal along a straight trajectory."""

    sbs: int
    entry: float   # path coordinate where the cell is entered
    exit: float
    chord: float


def ray_circle_crossings(origin: Tuple[float, float], heading: float,
                         sites: Sequence[SbsSite],
                         max_range: float) -> List[CellCrossing]:
    """All cell traversals of the ray within max_range, ordered by entry
    and then site index: the one-ray view of `ray_crossing_arrays`."""
    hit, entry, exit_, chord = ray_crossing_arrays(
        np.array([origin[0]]), np.array([origin[1]]),
        np.array([math.cos(heading)]), np.array([math.sin(heading)]),
        sites, max_range)
    entry, exit_, chord = (a[0].tolist() for a in (entry, exit_, chord))
    out = [CellCrossing(sbs=sites[j].index, entry=entry[j], exit=exit_[j],
                        chord=chord[j])
           for j in np.flatnonzero(hit[0]).tolist()]
    out.sort(key=lambda cr: (cr.entry, cr.sbs))
    return out


def ray_crossing_arrays(ox: np.ndarray, oy: np.ndarray, dx: np.ndarray,
                        dy: np.ndarray, sites: Sequence[SbsSite],
                        max_range: float,
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray]:
    """The cell traversals of many rays at once, as (rays x sites) arrays.

    Ray i starts at (ox[i], oy[i]) with unit direction (dx[i], dy[i]).
    Returns (hit, entry, exit, chord): hit[i, j] says whether ray i
    traverses site j's cell within max_range, and where it does, the
    path coordinates where it enters and leaves the cell (clipped to [0,
    max_range]) and the full chord of the ray's line through it. A
    tangent ray (discriminant exactly 0) does not traverse the cell.
    Entries where hit is False are meaningless. The one crossing kernel:
    walks read it through `ray_circle_crossings`, region users directly.
    """
    cx = np.array([s.position[0] for s in sites])
    cy = np.array([s.position[1] for s in sites])
    r2 = np.array([s.radius ** 2 for s in sites])
    fx = ox[:, None] - cx
    fy = oy[:, None] - cy
    b = fx * dx[:, None] + fy * dy[:, None]
    disc = b * b - (fx * fx + fy * fy - r2)
    hit = disc > 0.0
    root = np.sqrt(np.where(hit, disc, 0.0))
    t_in = -b - root
    t_out = -b + root
    hit &= (t_out > 0.0) & (t_in < max_range)
    return (hit, np.maximum(t_in, 0.0), np.minimum(t_out, max_range),
            t_out - t_in)


def beam_segments_in_cell(origin: Tuple[float, float], heading: float,
                          beams: BeamGeometry, entry: float, exit: float,
                          ) -> List[Tuple[float, float]]:
    """Sub-intervals of [entry, exit] lying inside the SBS's mmW sectors.

    Exact, by line clipping against the sector wedges (O'Rourke,
    *Computational Geometry in C*, ch. 7): a point of the path is inside
    when its azimuth from the SBS, taken relative to the first entry edge
    modulo the sector pitch, is at most the beamwidth. That can change
    only where the path meets one of the 2N sector-edge rays, or where it
    passes the SBS itself (the azimuth jumps by pi when the line runs
    through the apex). So the cuts are entry, exit, the closest approach
    to the SBS and every hit of the line with an edge ray (the line
    through the edge, on the edge's side of the apex: dot >= 0). Each
    interval between neighbouring cuts is classified by its midpoint, and
    inside intervals that touch are merged. Segments come out sorted,
    disjoint and within [entry, exit]; an empty list means no beam time.
    """
    ox, oy = origin
    dx, dy = math.cos(heading), math.sin(heading)
    cx, cy = beams.sbs_position
    fx, fy = ox - cx, oy - cy
    width = beams.beamwidth
    pitch = TWO_PI / beams.n_beams
    first_edge = beams.anchor_angle - width
    cuts = {entry, exit, -(fx * dx + fy * dy)}
    for k in range(beams.n_beams):
        for edge in (first_edge + k * pitch, beams.anchor_angle + k * pitch):
            ex, ey = math.cos(edge), math.sin(edge)
            # f + t*d on the edge's line: cross(f + t*d, e) = 0
            den = dx * ey - dy * ex
            if den == 0.0:
                continue    # parallel: the line never crosses this edge
            t = (fy * ex - fx * ey) / den
            if (fx + t * dx) * ex + (fy + t * dy) * ey >= 0.0:
                cuts.add(t)
    cuts = sorted(t for t in cuts if entry <= t <= exit)
    segments: List[Tuple[float, float]] = []
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        az = math.atan2(fy + mid * dy, fx + mid * dx) % TWO_PI
        if (az - first_edge) % pitch <= width:
            if segments and segments[-1][1] == a:
                segments[-1] = (segments[-1][0], b)
            else:
                segments.append((a, b))
    return segments
