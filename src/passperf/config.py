"""System configuration, dB/dBm unit conversions, the reduced model that
every analytic metric reads, and the transmit-power checks they share.

:func:`derive_constants` is the one place where SI units are converted.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0
_NORMAL_MIN = sys.float_info.min  # smallest positive normal float
# Squared reduced lengths that the metrics divide by, and SNRs, lie within
# 2**+-1000, so that their products with a squared length or a logarithm
# (as in the log-moment kernel) stay in float range.
_REDUCED_RANGE = 2.0**1000


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
        positive = ("carrier_freq_hz", "pa_height_m", "region_x_m", "region_y_m",
                    "outage_threshold", "noma_alpha_near")
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if not self.region_y_offset_m >= 0.0:
            raise ConfigError(
                f"region_y_offset_m must be >= 0, got {self.region_y_offset_m!r}"
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
        derive_constants(self)  # names a field whose reduced quantity is out of range


LENGTH_FIELDS = ("region_x_m", "pa_height_m", "region_y_m", "region_y_offset_m")


@dataclass(frozen=True)
class ReducedModel:
    """A :class:`SystemConfig` in reduced units, from :func:`derive_constants`.

    Lengths are divided by L = 2**scale_exp m, the power of two just above
    the largest configured length, so reducing is exact and every reduced
    length is below 1; :func:`over_powers` divides the powers by L^2. The
    metrics then see the deployment only through length ratios and SNR
    coefficients (eta_m2 times a reduced power over a noise power).

    The reduced sub-region depth and offset give the triangular law of the
    y-separation u = y_ue1 - y_ue2: it is supported on [support_lo,
    support_hi] = [2*offset, 2*offset + 2*half_width] with its peak at the
    midpoint.

    The metrics square lengths as products, x * x, which round correctly and
    so equal the squares in metres over L^2 bit for bit; a Python float's
    x ** 2 goes through the C library's pow, which can be an ulp off.
    """

    scale_exp: int  # L = 2**scale_exp m
    region_x: float  # region_x_m / L
    half_width: float  # region_y_m / L
    pa_height_sq: float  # (pa_height_m / L)**2
    centre_sq: float  # (region_x / 2)**2, the largest squared x-offset
    support_lo: float
    peak: float
    support_hi: float
    eta_m2: float  # free-space path-gain factor c^2 / (16 pi^2 f^2), m^2
    noise_w_ue1: float
    noise_w_ue2: float

    def noise(self, user: int) -> float:
        """Linear noise power of ``user`` (1 or 2) in watts."""
        if user not in (1, 2):
            raise ValueError(f"user must be 1 or 2, got {user!r}")
        return self.noise_w_ue1 if user == 1 else self.noise_w_ue2


def _normal(field: str, quantity: str, compute) -> float:
    """``compute()``, or ConfigError naming ``field`` unless it is a normal float."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not _NORMAL_MIN <= value < math.inf:
        raise ConfigError(f"{field} gives {quantity} {value!r}; it must be a normal float")
    return value


@functools.lru_cache(maxsize=128)
def derive_constants(cfg: SystemConfig) -> ReducedModel:
    """The one conversion from SI units: ``cfg`` as a :class:`ReducedModel`,
    cached per config (the metrics call it once per call).

    Raises ConfigError naming the field whose reduced quantity is out of
    range: the squared reduced region width, antenna height and sub-region
    depth, which the metrics divide by, must be at least 2**-1000, and the
    path-gain factor and each noise power normal floats. The offset only
    adds to other lengths, so any offset is accepted.
    """
    lengths = [getattr(cfg, name) for name in LENGTH_FIELDS]
    largest = LENGTH_FIELDS[lengths.index(max(lengths))]
    scale_exp = math.frexp(max(lengths))[1]
    reduced = [math.ldexp(value, -scale_exp) for value in lengths]
    for name, value in zip(LENGTH_FIELDS[:3], reduced):  # not the offset
        if not value * value >= 1.0 / _REDUCED_RANGE:
            raise ConfigError(
                f"{name} over the length scale 2**{scale_exp} m (set by {largest}) gives a "
                f"squared reduced length {value * value!r}; it must be >= 2**-1000"
            )
    eta = _normal(
        "carrier_freq_hz",
        "a path-gain factor eta in m^2",
        # f * f, not f ** 2, so that scaling f by 2**j scales eta by 4**-j exactly
        lambda: SPEED_OF_LIGHT_M_S**2
        / (16.0 * math.pi**2 * (cfg.carrier_freq_hz * cfg.carrier_freq_hz)),
    )
    noise = [
        _normal(name, "a noise power in W", lambda: dbm_to_watts(getattr(cfg, name)))
        for name in ("noise_power_dbm_ue1", "noise_power_dbm_ue2")
    ]
    x, h, w, offset = reduced
    law = (2.0 * offset, 2.0 * offset + w, 2.0 * offset + 2.0 * w)
    return ReducedModel(scale_exp, x, w, h * h, 0.5 * x * (0.5 * x), *law, eta, *noise)


def dbm_to_watts(value_dbm: float) -> float:
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def snr_db_to_power_w(cfg: SystemConfig, snr_db):
    """Transmit power of a transmit SNR of ``snr_db`` dB in ``cfg``, the one
    place where the SNR reference, the user-1 noise power, is applied.

    A real number or a 0-d array gives a Python float, and a sequence or
    1-D array of SNRs a list of them, the powers of one call per entry.
    Raises ValueError naming the first ``snr_db`` whose power is not finite
    and > 0 (NaN, or an SNR so high or low that it overflows or underflows).
    """
    reference = derive_constants(cfg).noise_w_ue1
    scalar = isinstance(snr_db, numbers.Real) or np.ndim(snr_db) == 0
    powers = []
    for value in [snr_db] if scalar else snr_db:
        try:
            # a Python float's power, whatever the entry's type
            power_w = 10.0 ** float(value / 10.0) * reference
        except OverflowError:
            power_w = math.inf
        if not (math.isfinite(power_w) and power_w > 0.0):
            raise ValueError(
                f"snr_db={value!r} over the noise power {reference!r} W (the transmit SNR "
                f"reference, noise_power_dbm_ue1) gives transmit power {power_w!r} W; it must "
                "be finite and > 0"
            )
        powers.append(power_w)
    return powers[0] if scalar else powers


def check_powers(power_w):
    """``power_w`` as a float array of at most one dimension, with its
    smallest and largest entries (None for an empty array).

    Raises ValueError naming ``power_w``, and its first bad entry, unless
    every entry is finite and > 0. The test reads the two extremes only: a
    NaN entry makes both NaN, and every other entry lies between them. The
    elementwise test is made only on the error path.
    """
    powers = np.asarray(power_w, dtype=float)
    if powers.ndim > 1:
        raise ValueError(f"power_w must be a scalar or a 1-D array, got shape {powers.shape}")
    if not powers.size:
        return powers, None, None
    low, high = powers.min(), powers.max()
    if not (low > 0.0 and high < math.inf):
        bad = ~(np.isfinite(powers) & (powers > 0.0))
        raise ValueError(f"power_w must be finite and > 0, got {powers[bad][0].item()!r}")
    return powers, low, high


# A saturating metric takes its high-SNR limit at every row where an
# a-priori bound puts |value - limit| at most SATURATION_TOL times the
# limit: under half an ulp of it, so the row rounds to the limit anyway.
SATURATION_TOL = 2.0**-54


def saturation_power(noise_per_power: float, scale: float) -> float:
    """The reduced power p_sat = ``noise_per_power`` * ``scale`` from which a
    metric takes its limit, for a bound on |value - limit| that falls as
    ``noise_per_power`` / P: ``scale`` is the power at which the bound
    reaches SATURATION_TOL times the limit, per unit of ``noise_per_power``.

    inf, so that no row saturates, where either factor or the product is
    not a finite normal float: an underflowed threshold would admit rows
    that the bound does not.
    """
    p_sat = noise_per_power * scale
    # a factor of inf makes the product inf
    return p_sat if _NORMAL_MIN <= min(noise_per_power, scale, p_sat) and p_sat < math.inf else math.inf


def saturated(values_of, powers: np.ndarray, p_sat: float, limit: float) -> np.ndarray:
    """``values_of(powers)`` with ``limit`` put in at every power at or above
    ``p_sat``.

    Only the powers below ``p_sat`` reach ``values_of``, in their order; the
    metrics' values depend each on its own row only, so those rows are the
    same bit for bit as in a call over every power. A call with no power at
    or above ``p_sat`` builds no mask.
    """
    if not (powers.size and powers.max() >= p_sat):
        return values_of(powers)
    values = np.full(powers.shape, limit)
    below = np.flatnonzero(powers < p_sat)
    if below.size:
        values[below] = values_of(powers[below])
    return values


def over_powers(metric):
    """Let ``metric(cfg, model, powers, ...)``, written for the reduced model
    of ``cfg`` and a 1-D array of transmit powers over L^2, take a scalar
    power or a 1-D array of them in watts.

    Every power is checked with :func:`check_powers` and divided by L^2,
    exactly. ValueError names ``power_w`` unless every SNR stays within
    2**+-1000: each noise power over eta times the reduced power (the noise
    coefficient of a unit reduced squared distance) must be at most 2**1000,
    and times the squared antenna height, the smallest squared distance, at
    least 2**-1000. Both tests are monotone in the power, also as rounded,
    so they are made at the smallest and the largest power only, and
    elementwise only on the error path, to name the first power out of
    range. Float overflow and division by zero in the metric give inf,
    which the metric's own masks handle. A scalar power gives a Python float
    (CSV cells are written with ``repr``), an array gives one value per
    power. The metric gets every power in one call; the metrics that build
    (powers x nodes) arrays split them into blocks where those arrays are
    built, in ``quadrature.integrate_rows``. A metric with a high-SNR limit
    puts that limit in at its saturated powers through :func:`saturated`.
    """

    @functools.wraps(metric)
    def evaluate(cfg, power_w, *args, **kwargs):
        powers, low, high = check_powers(power_w)
        model = derive_constants(cfg)
        flat = np.atleast_1d(powers)
        quiet, loud = sorted((model.noise_w_ue1, model.noise_w_ue2))
        scale = -2 * model.scale_exp

        def in_range(gain):
            return ((quiet / gain * model.pa_height_sq >= 1.0 / _REDUCED_RANGE)
                    & (loud / gain <= _REDUCED_RANGE))

        with np.errstate(over="ignore", divide="ignore"):
            if powers.size:
                # eta times the reduced powers, as Python floats: a zero gain is out of
                # range, and so is one that overflows (to inf in np.ldexp, which does not raise)
                weak, strong = (model.eta_m2 * np.ldexp([low, high], scale)).tolist()
                if not (weak > 0.0 and in_range(weak) and in_range(strong)):
                    bad = ~in_range(model.eta_m2 * np.ldexp(flat, scale))
                    raise ValueError(
                        f"power_w={flat[bad][0].item()!r} W gives an SNR out of range with "
                        f"carrier_freq_hz, the noise powers and the lengths of this config"
                    )
            values = metric(cfg, model, np.ldexp(flat, scale), *args, **kwargs)
        return float(values[0]) if powers.ndim == 0 else values

    return evaluate


def power_w_to_snr_db(cfg: SystemConfig, power_w: float) -> float:
    """Transmit SNR in dB of ``power_w``, the inverse of :func:`snr_db_to_power_w`."""
    ratio = power_w / derive_constants(cfg).noise_w_ue1
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"power_w={power_w!r} W gives an SNR ratio {ratio!r}; it must be finite and > 0")
    return 10.0 * math.log10(ratio)


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
