"""System configuration, dB/dBm unit conversions, derived constants, and the
transmit-power checks shared by every analytic and simulated metric."""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0


class ConfigError(ValueError):
    """A configuration value violates one of its invariants."""


@dataclass(frozen=True)
class SystemConfig:
    """Physical, geometric, and protocol parameters of the two-user downlink.

    The service region is a rectangle of extent ``region_x_m`` along the
    waveguide axis. Each user is dropped uniformly in its own sub-region of
    depth ``region_y_m`` on one side of the axis, offset from the axis by
    ``region_y_offset_m`` (0 gives two adjacent sub-regions; a positive
    offset models dispersed deployments).

    Defaults reproduce the baseline experiment setup: 28 GHz carrier,
    antennas at 3 m height, 10 x 20 m sub-regions, -90 dBm noise, outage
    threshold 5, NOMA power split (0.05, 0.95).
    """

    carrier_freq_hz: float = 28e9
    pa_height_m: float = 3.0
    region_x_m: float = 10.0
    region_y_m: float = 20.0
    region_y_offset_m: float = 0.0
    noise_power_dbm_ue1: float = -90.0
    noise_power_dbm_ue2: float = -90.0
    outage_threshold: float = 5.0
    noma_alpha_near: float = 0.05
    noma_alpha_far: float = 0.95

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        # with the sum and order checks below, a positive near-user share
        # keeps noma_alpha_far in (0.5, 1)
        positive = ("carrier_freq_hz", "pa_height_m", "region_x_m", "region_y_m", "noma_alpha_near")
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if not self.region_y_offset_m >= 0.0:
            raise ConfigError(
                f"region_y_offset_m must be >= 0, got {self.region_y_offset_m!r}"
            )
        if not self.outage_threshold > 0.0:
            raise ConfigError(
                f"outage_threshold must be > 0, got {self.outage_threshold!r}"
            )
        a1, a2 = self.noma_alpha_near, self.noma_alpha_far
        if abs(a1 + a2 - 1.0) > 1e-12:
            raise ConfigError(
                f"noma_alpha_near + noma_alpha_far must equal 1, got {a1 + a2!r}"
            )
        if not a1 < a2:
            raise ConfigError(
                f"noma_alpha_near must be < noma_alpha_far, got ({a1!r}, {a2!r})"
            )
        # finite fields can still give derived quantities that overflow or
        # underflow; the metrics divide by and take logarithms of these
        derived = (
            ("noise_power_dbm_ue1", "a noise power in W",
             lambda: dbm_to_watts(self.noise_power_dbm_ue1)),
            ("noise_power_dbm_ue2", "a noise power in W",
             lambda: dbm_to_watts(self.noise_power_dbm_ue2)),
            ("carrier_freq_hz", "a path-gain factor eta in m^2",
             lambda: _path_gain_m2(self.carrier_freq_hz)),
            ("pa_height_m", "pa_height_m**2", lambda: self.pa_height_m**2),
            (
                "the geometry (region_x_m, region_y_m, region_y_offset_m, pa_height_m)",
                "a largest squared antenna-to-user distance in m^2",
                lambda: (self.region_x_m / 2.0) ** 2
                + (2.0 * (self.region_y_offset_m + self.region_y_m)) ** 2
                + self.pa_height_m**2,
            ),
        )
        for subject, quantity, compute in derived:
            try:
                value = compute()
                got = f"= {value!r}"
            except (OverflowError, ZeroDivisionError):
                value, got = math.inf, "out of float range"
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{subject} gives {quantity} {got}; it must be finite and > 0")


@dataclass(frozen=True)
class DerivedConstants:
    """Linearised quantities derived from a :class:`SystemConfig`."""

    eta_m2: float  # free-space path-gain factor, m^2
    noise_w_ue1: float
    noise_w_ue2: float


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    if value <= 0.0:
        raise ValueError(f"cannot express non-positive ratio {value!r} in dB")
    return 10.0 * math.log10(value)


def dbm_to_watts(value_dbm: float) -> float:
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def noise_w(cfg: SystemConfig, user: int) -> float:
    """Linear noise power of ``user`` (1 or 2) in watts."""
    if user == 1:
        return dbm_to_watts(cfg.noise_power_dbm_ue1)
    if user == 2:
        return dbm_to_watts(cfg.noise_power_dbm_ue2)
    raise ValueError(f"user must be 1 or 2, got {user!r}")


def _path_gain_m2(carrier_freq_hz: float) -> float:
    return SPEED_OF_LIGHT_M_S**2 / (16.0 * math.pi**2 * carrier_freq_hz**2)


def derive_constants(cfg: SystemConfig) -> DerivedConstants:
    """Path-gain factor c^2 / (16 pi^2 f^2) and linear noise powers."""
    return DerivedConstants(
        eta_m2=_path_gain_m2(cfg.carrier_freq_hz),
        noise_w_ue1=noise_w(cfg, 1),
        noise_w_ue2=noise_w(cfg, 2),
    )


def snr_db_to_power_w(snr_db: float, noise_w: float) -> float:
    """Transmit power realising a transmit SNR of ``snr_db`` over ``noise_w``.

    Raises ValueError naming ``snr_db`` unless the power is finite and > 0
    (NaN, or an SNR so high or low that the power overflows or underflows).
    """
    if noise_w <= 0.0:
        raise ValueError(f"noise_w must be > 0, got {noise_w!r}")
    try:
        power_w = db_to_linear(snr_db) * noise_w
    except OverflowError:
        power_w = math.inf
    if not (math.isfinite(power_w) and power_w > 0.0):
        raise ValueError(
            f"snr_db={snr_db!r} gives transmit power {power_w!r} W; it must be finite and > 0"
        )
    return power_w


def check_powers(power_w) -> np.ndarray:
    """``power_w`` as a float array of at most one dimension.

    Raises ValueError naming ``power_w`` unless every entry is finite and > 0.
    """
    powers = np.asarray(power_w, dtype=float)
    if powers.ndim > 1:
        raise ValueError(f"power_w must be a scalar or a 1-D array, got shape {powers.shape}")
    bad = ~(np.isfinite(powers) & (powers > 0.0))
    if bad.any():
        raise ValueError(f"power_w must be finite and > 0, got {powers[bad][0].item()!r}")
    return powers


def over_powers(metric):
    """Let ``metric(cfg, powers, ...)``, written for a 1-D array of transmit
    powers, take a scalar power or a 1-D array of them.

    Every power is checked with :func:`check_powers`. A scalar power gives a
    Python float (CSV cells are written with ``repr``), an array gives one
    value per power. The metric gets every power in one call; the metrics
    that build (powers x nodes) arrays split them into blocks where those
    arrays are built, in ``quadrature.integrate_rows``.
    """

    @functools.wraps(metric)
    def evaluate(cfg, power_w, *args, **kwargs):
        powers = check_powers(power_w)
        values = metric(cfg, np.atleast_1d(powers), *args, **kwargs)
        return float(values[0]) if powers.ndim == 0 else values

    return evaluate


def power_w_to_snr_db(power_w: float, noise_w: float) -> float:
    if noise_w <= 0.0:
        raise ValueError(f"noise_w must be > 0, got {noise_w!r}")
    return linear_to_db(power_w / noise_w)


def config_from_dict(data: dict) -> SystemConfig:
    """Build a config from a JSON-style mapping; unknown keys are rejected."""
    known = {f.name for f in fields(SystemConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, raw in data.items():
        if isinstance(raw, bool):
            raise ConfigError(f"{key} must be a number, got {raw!r}")
        try:
            values[key] = float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    return SystemConfig(**values)


def load_config(path) -> SystemConfig:
    """Load a :class:`SystemConfig` from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return config_from_dict(data)
