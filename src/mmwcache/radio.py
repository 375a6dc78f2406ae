"""Link-level models: SNR, Shannon rate and the caching rate.

The achievable caching rate averages the Shannon rate along a sector-crossing
chord; with path-loss exponent 2 it reduces to a closed form, otherwise it is
evaluated by adaptive quadrature. No shadowing enters the rate, which keeps
every function here deterministic and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import geometry
from .geometry import BeamGeometry, Pose
from .numerics import adaptive_simpson, wrap_angle

SPEED_OF_LIGHT = 299792458.0
LN2 = math.log(2.0)
REFERENCE_DISTANCE = 1.0              # r0 of the path-gain law, meters


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Large-scale channel parameters for one band."""

    carrier_frequency: float = 73e9
    pathloss_exponent: float = 2.0

    def __post_init__(self):
        if self.carrier_frequency <= 0.0:
            raise ValueError("carrier_frequency must be positive")
        if self.pathloss_exponent <= 0.0:
            raise ValueError("pathloss_exponent must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @classmethod
    def los_mmw(cls) -> "ChannelParams":
        """73 GHz line-of-sight preset (exponent 2)."""
        return cls(carrier_frequency=73e9, pathloss_exponent=2.0)

    @classmethod
    def nlos_mmw(cls) -> "ChannelParams":
        """73 GHz non-line-of-sight preset (exponent 3.5)."""
        return cls(carrier_frequency=73e9, pathloss_exponent=3.5)


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power, combined beamforming gain, bandwidth and noise floor."""

    tx_power: float = 1.0                 # watts
    combined_gain: float = field(default=db_to_linear(36.0))  # (18 dB)^2, linear
    bandwidth: float = 5e9                # Hz
    noise_psd: float = field(default=dbm_to_watts(-174.0))    # W/Hz

    def __post_init__(self):
        for name in ("tx_power", "combined_gain", "bandwidth", "noise_psd"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_table(cls, tx_power_dbm: float = 30.0,
                   bandwidth: float = 5e9,
                   noise_psd_dbm_hz: float = -174.0) -> "LinkBudget":
        return cls(tx_power=dbm_to_watts(tx_power_dbm), bandwidth=bandwidth,
                   noise_psd=dbm_to_watts(noise_psd_dbm_hz))


def beta_constant(params: ChannelParams) -> float:
    """Path-gain constant (lambda / 4 pi r0)^2 * r0^alpha."""
    r0 = REFERENCE_DISTANCE
    return (params.wavelength / (4.0 * math.pi * r0)) ** 2 \
        * r0 ** params.pathloss_exponent


def snr(distance: float, budget: LinkBudget, params: ChannelParams) -> float:
    """Noise-limited SNR beta*P*psi*r^-alpha / (w*N0) at the given distance."""
    if distance < REFERENCE_DISTANCE:
        raise ValueError("distance below reference distance")
    beta = beta_constant(params)
    return (beta * budget.tx_power * budget.combined_gain
            * distance ** (-params.pathloss_exponent)
            / (budget.bandwidth * budget.noise_psd))


def instantaneous_rate(distance: float, budget: LinkBudget,
                       params: ChannelParams) -> float:
    """Shannon rate w*log2(1 + SNR(r)) in bits/second."""
    return budget.bandwidth * math.log2(1.0 + snr(distance, budget, params))


@dataclass(frozen=True)
class CrossingGeometry:
    """Derived quantities for a sector crossing starting on the entry edge."""

    theta_hat: float          # heading relative to the SBS-to-entry ray
    beamwidth: float
    chord_length: float       # full traverse distance across the sector
    perp_distance: float      # closest approach of the chord line to the SBS

    @property
    def f_start(self) -> float:
        return math.sin(self.theta_hat)

    @property
    def f_end(self) -> float:
        return math.sin(self.theta_hat - self.beamwidth)


def crossing_geometry(pose: Pose, beam: BeamGeometry) -> CrossingGeometry:
    """Validate and summarize the crossing; raises on invalid geometry.

    Requires the pose on the entry edge and a heading that actually crosses
    the sector: 0 < theta_hat - beamwidth and sin(theta_hat) > 0.
    """
    x = pose.x - beam.sbs_position[0]
    y = pose.y - beam.sbs_position[1]
    r_uk = math.hypot(x, y)
    az = math.atan2(y, x)
    if abs(math.sin(az - beam.entry_edge_angle)) > 1e-6:
        raise ValueError("pose is not on the beam entry edge")
    theta_hat = wrap_angle(pose.heading - az)
    if not (beam.beamwidth < theta_hat < math.pi):
        raise ValueError(
            "heading does not cross the sector: requires "
            "beamwidth < theta_hat < pi")
    chord = geometry.beam_traverse_distance(pose, beam)
    return CrossingGeometry(
        theta_hat=theta_hat,
        beamwidth=beam.beamwidth,
        chord_length=chord,
        perp_distance=r_uk * math.sin(theta_hat),
    )


def _delta1(geo: CrossingGeometry, budget: LinkBudget,
            params: ChannelParams) -> float:
    beta = beta_constant(params)
    return (beta * budget.tx_power * budget.combined_gain
            * geo.perp_distance ** (-params.pathloss_exponent)
            / (budget.bandwidth * budget.noise_psd))


def _delta2(geo: CrossingGeometry, budget: LinkBudget,
            coverage: float) -> float:
    return budget.bandwidth * geo.perp_distance * coverage / geo.chord_length


def _closed_form_integral(delta1: float, f_start: float, f_end: float) -> float:
    """Integral of log2(1 + d1*f^2)/f^2 over [f_end, f_start].

    Antiderivative G(f) = [2*sqrt(d1)*arctan(sqrt(d1)*f) - ln(1+d1*f^2)/f]/ln2
    evaluated start-minus-end, i.e. oriented to match the quadrature of the
    same integral.
    """
    s = math.sqrt(delta1)

    def g(f: float) -> float:
        return (2.0 * s * math.atan(s * f)
                - math.log1p(delta1 * f * f) / f) / LN2

    return g(f_start) - g(f_end)


def average_caching_rate(pose: Pose, beam: BeamGeometry, budget: LinkBudget,
                         params: ChannelParams) -> float:
    """Coverage-weighted crossing-average rate over a sector chord (bits/s).

    The Shannon rate is integrated in the SBS-distance variable over the
    chord and normalized by the chord length (an oblique crossing therefore
    carries a cosine-like obliquity factor relative to a plain arc-length
    average). Closed form for pathloss exponent 2, adaptive quadrature
    otherwise.
    """
    geo = crossing_geometry(pose, beam)
    coverage = geometry.beam_coverage_probability(beam.n_beams, beam.beamwidth)
    d1 = _delta1(geo, budget, params)
    d2 = _delta2(geo, budget, coverage)
    if params.pathloss_exponent == 2.0:
        return d2 * _closed_form_integral(d1, geo.f_start, geo.f_end)
    return _quadrature(geo, budget, params, coverage, tolerance=1e-9)


def quadrature_rate(pose: Pose, beam: BeamGeometry, budget: LinkBudget,
                    params: ChannelParams, tolerance: float = 1e-9) -> float:
    """Quadrature evaluation of the crossing-average rate, any exponent.

    Serves as the oracle for the exponent-2 closed form: both must agree to
    1e-6 relative.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    geo = crossing_geometry(pose, beam)
    coverage = geometry.beam_coverage_probability(beam.n_beams, beam.beamwidth)
    return _quadrature(geo, budget, params, coverage, tolerance)


def _quadrature(geo: CrossingGeometry, budget: LinkBudget,
                params: ChannelParams, coverage: float,
                tolerance: float) -> float:
    d1 = _delta1(geo, budget, params)
    d2 = _delta2(geo, budget, coverage)
    alpha = params.pathloss_exponent

    def integrand(f: float) -> float:
        return math.log2(1.0 + d1 * f ** alpha) / (f * f)

    lo, hi = geo.f_end, geo.f_start
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    scale = max(abs(integrand(lo)), abs(integrand(hi))) * (hi - lo)
    tol = max(tolerance, 1e-13 * scale)
    value = adaptive_simpson(integrand, lo, hi, tol=tol)
    return d2 * sign * value
