"""Scenario configuration: defaults, key=value config files, overrides."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

from .geometry import beam_span_exceeds_circle
from .radio import (REFERENCE_DISTANCE, SPEED_OF_LIGHT, ChannelParams,
                    LinkBudget, beta_constant, dbm_to_watts, snr)

# The largest cell radius, in area radii, that a config may give. The
# deployment geometry computes in coordinates as large as a cell, so its
# rounding errors grow with the radius; near 1e17 area radii they exceed
# the range of a walk. No deployment the model describes comes near a
# million.
_MAX_CELL_TO_AREA = 1e6

# The largest deployment extent, area radius plus the largest cell radius,
# in metres. The crossing kernel squares coordinate differences and cell
# radii of that size, and past about 1e154 m a square overflows a double:
# a cell radius raises OverflowError, an area radius makes the crossing
# tests read nan as a miss. Under 1e150 m the squares and their sums stay
# far inside the double range. No deployment the model describes comes
# near it.
_MAX_EXTENT = 1e150


class ConfigError(ValueError):
    """Malformed configuration input; carries the offending line when known."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameter set of a simulated deployment.

    Field names double as config-file keys. The link values follow the
    paper's simulation table: 73 GHz carrier, 5 GHz bandwidth, exponents
    2/3.5, 3 beams of 10 degrees, -174 dBm/Hz noise, 1 s minimum
    time-of-stay, 1k segments/s play rate, 1 Mbit segments, 1-16 m/s
    speeds, 3 mJ per scan. The rate model's 1 m reference distance
    (`radio.REFERENCE_DISTANCE`) and 36 dB combined beamforming gain (18 dB
    main lobe at each end, the `radio.LinkBudget` default) are constants.

    The deployment defaults describe dense small cells: a 190 m area, SBS
    powers of 24/27/30 dBm and a 5.8 GHz microwave band with path-loss
    exponent 4.3, which put the detection-threshold radii at 20-28 m. The
    table's wide-area values (2 GHz, exponent 3, 500 m, 20/27/30 dBm) give
    100+ m cells in which handover failures are vanishingly rare, so none
    of the multi-user results can be observed there. With the small cells
    come a 10 s scan interval (the playback horizon of a full cache),
    thresholds p_th in [0.13, 0.18], and a positive covered-cache payoff
    so that users with secured playback skip dispensable handover attempts.
    """

    area_radius: float = 190.0
    n_sbs: int = 50
    min_intercell: float = 30.0
    sbs_powers_dbm: Tuple[float, ...] = (24.0, 27.0, 30.0)
    speed_min: float = 1.0
    speed_max: float = 16.0
    frame: float = 60.0
    seed: int = 1

    # mmW channel / link
    carrier_frequency: float = 73e9
    pathloss_los: float = 2.0
    pathloss_nlos: float = 3.5
    bandwidth: float = 5e9
    noise_psd_dbm_hz: float = -174.0
    n_beams: int = 3
    beamwidth_deg: float = 10.0

    # microwave side, used only for the cell-radius derivation
    uw_carrier_frequency: float = 5.8e9
    uw_pathloss_exponent: float = 4.3
    rss_threshold_dbm: float = -80.0

    # caching / handover
    segment_size_bits: float = 1e6
    play_rate: float = 1e3
    cache_capacity: float = 1e4
    t_mts: float = 1.0
    scan_interval: float = 10.0
    energy_per_scan: float = 3e-3

    # matching
    quota: int = 10
    p_th_min: float = 0.13
    p_th_max: float = 0.18
    epsilon: float = 0.05
    mbs_payoff: float = -0.5
    covered_payoff: float = 0.25
    future_covered_payoff: float = 0.01
    shortfall_penalty: float = -1.0

    replications: int = 200

    def __post_init__(self):
        # inf passes the range checks below and fails deep inside a run
        for f in fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if any(isinstance(x, float) and not math.isfinite(x)
                   for x in items):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if not self.area_radius > 0.0:
            raise ConfigError(
                f"area_radius must be positive, got {self.area_radius!r}")
        if self.n_sbs < 0:
            raise ConfigError(f"n_sbs must be >= 0, got {self.n_sbs!r}")
        if not self.min_intercell >= 0.0:
            raise ConfigError(
                f"min_intercell must be >= 0, got {self.min_intercell!r}")
        if not self.speed_min >= 0.0:
            raise ConfigError(
                f"speed_min must be >= 0, got {self.speed_min!r}")
        if not self.speed_min <= self.speed_max:
            raise ConfigError(
                f"speed_min ({self.speed_min!r}) must not exceed speed_max "
                f"({self.speed_max!r})")
        if not self.play_rate > 0.0:
            raise ConfigError(
                f"play_rate must be positive, got {self.play_rate!r}")
        if self.quota < 1:
            raise ConfigError(f"quota must be >= 1, got {self.quota!r}")
        if self.n_beams < 1:
            raise ConfigError(f"n_beams must be >= 1, got {self.n_beams!r}")
        if not self.beamwidth_deg > 0.0:
            raise ConfigError(
                f"beamwidth_deg must be positive, got {self.beamwidth_deg!r}")
        if beam_span_exceeds_circle(self.n_beams,
                                    math.radians(self.beamwidth_deg)):
            raise ConfigError(
                f"n_beams * beamwidth_deg must not exceed 360, got "
                f"{self.n_beams!r} * {self.beamwidth_deg!r}")
        if not self.frame > 0.0:
            raise ConfigError(f"frame must be positive, got {self.frame!r}")
        if not self.sbs_powers_dbm:
            raise ConfigError("sbs_powers_dbm must list at least one power")
        if not self.segment_size_bits > 0.0:
            raise ConfigError(f"segment_size_bits must be positive, got "
                              f"{self.segment_size_bits!r}")
        if not self.cache_capacity >= 0.0:
            raise ConfigError(f"cache_capacity must be >= 0, got "
                              f"{self.cache_capacity!r}")
        if not self.scan_interval > 0.0:
            raise ConfigError(f"scan_interval must be positive, got "
                              f"{self.scan_interval!r}")
        if not self.energy_per_scan >= 0.0:
            raise ConfigError(f"energy_per_scan must be >= 0, got "
                              f"{self.energy_per_scan!r}")
        if not 0.0 <= self.p_th_min <= self.p_th_max <= 1.0:
            raise ConfigError(
                f"p_th_min ({self.p_th_min!r}) and p_th_max "
                f"({self.p_th_max!r}) must satisfy 0 <= p_th_min <= "
                f"p_th_max <= 1")
        if not self.t_mts >= 0.0:
            raise ConfigError(f"t_mts must be >= 0, got {self.t_mts!r}")
        if not self.epsilon >= 0.0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon!r}")
        for name in ("bandwidth", "carrier_frequency", "pathloss_los",
                     "pathloss_nlos", "uw_carrier_frequency",
                     "uw_pathloss_exponent"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(
                    f"{name} must be positive, got {getattr(self, name)!r}")
        # a wavelength, power or radius past the float range raises
        # OverflowError (or is inf, or 0) deep inside a run; scenario
        # imports this module
        from .scenario import uw_cell_radius
        for name in ("carrier_frequency", "uw_carrier_frequency"):
            if not math.isfinite(SPEED_OF_LIGHT / getattr(self, name)):
                raise ConfigError(f"{name} {getattr(self, name)!r} gives a "
                                  f"wavelength out of range")
        if not _finite(beta_constant, ChannelParams(self.carrier_frequency)):
            raise ConfigError(f"carrier_frequency {self.carrier_frequency!r} "
                              f"gives a path gain out of range")
        if not (_finite(dbm_to_watts, self.noise_psd_dbm_hz)
                and dbm_to_watts(self.noise_psd_dbm_hz) > 0.0):
            raise ConfigError(f"noise_psd_dbm_hz {self.noise_psd_dbm_hz!r} "
                              f"is out of range in watts")
        largest = 0.0
        for power in self.sbs_powers_dbm:
            if not (_finite(dbm_to_watts, power)
                    and dbm_to_watts(power) > 0.0):
                raise ConfigError(f"sbs_powers_dbm entry {power!r} is out "
                                  f"of range in watts")
            if not _finite(uw_cell_radius, power, self):
                raise ConfigError(
                    f"sbs_powers_dbm entry {power!r} gives a cell radius out "
                    f"of range (uw_pathloss_exponent="
                    f"{self.uw_pathloss_exponent!r})")
            radius = uw_cell_radius(power, self)
            if radius > _MAX_CELL_TO_AREA * self.area_radius:
                raise ConfigError(
                    f"sbs_powers_dbm entry {power!r} gives a cell radius of "
                    f"{radius:.3g} m, over {_MAX_CELL_TO_AREA:g} times "
                    f"area_radius (uw_carrier_frequency="
                    f"{self.uw_carrier_frequency!r}, uw_pathloss_exponent="
                    f"{self.uw_pathloss_exponent!r}, rss_threshold_dbm="
                    f"{self.rss_threshold_dbm!r})")
            largest = max(largest, radius)
        if not self.area_radius + largest <= _MAX_EXTENT:
            raise ConfigError(
                f"area_radius {self.area_radius!r} plus the largest cell "
                f"radius {largest:.3g} m is over {_MAX_EXTENT:g} m "
                f"(uw_pathloss_exponent={self.uw_pathloss_exponent!r})")
        # no link is stronger than the one at the reference distance from
        # the strongest SBS; past float range its SNR makes the closed-form
        # rate nan
        strongest = max(self.sbs_powers_dbm)
        budget = LinkBudget.from_table(strongest, self.bandwidth,
                                       self.noise_psd_dbm_hz)
        if not _finite(snr, REFERENCE_DISTANCE, budget,
                       ChannelParams(self.carrier_frequency)):
            raise ConfigError(
                f"the SNR {REFERENCE_DISTANCE:g} m from a {strongest!r} dBm "
                f"SBS is out of range (carrier_frequency="
                f"{self.carrier_frequency!r}, bandwidth={self.bandwidth!r}, "
                f"noise_psd_dbm_hz={self.noise_psd_dbm_hz!r})")

    def canonical_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _finite(fn, *args) -> bool:
    """Whether `fn(*args)` is a finite float, not inf, an overflow or a
    division by a product that underflowed to 0."""
    try:
        return math.isfinite(fn(*args))
    except (OverflowError, ZeroDivisionError):
        return False


def _parse_value(name: str, raw: str, line_no: Optional[int]):
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {name!r}", line_no)
    current = getattr(ScenarioConfig(), name)
    raw = raw.strip()
    try:
        if isinstance(current, tuple):
            return tuple(float(p) for p in raw.replace(",", " ").split())
        return type(current)(raw)     # every other field is int or float
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {name!r}: {exc}", line_no)


def load_config(path: str) -> ScenarioConfig:
    """Parse a `key = value` config file (# comments, blank lines allowed)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    values: Dict[str, object] = {}
    # read in universal-newline mode, so lines end in "\n" only
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}",
                              line_no)
        name, raw = stripped.split("=", 1)
        name = name.strip()
        values[name] = _parse_value(name, raw, line_no)
    return replace(ScenarioConfig(), **values)


def apply_overrides(config: ScenarioConfig,
                    overrides: List[str]) -> ScenarioConfig:
    """Apply repeatable `--set key=value` overrides after file parsing."""
    values: Dict[str, object] = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        name, raw = item.split("=", 1)
        name = name.strip()
        values[name] = _parse_value(name, raw, None)
    return replace(config, **values)
