"""Per-waveguide access: outage, average rate and their high-SNR limits.

Each user is served by a dedicated waveguide antenna pinned above it; the
other user's antenna interferes across waveguides. Outage and rate reduce
to one-dimensional integrals over the user's x-coordinate evaluated with
the Chebyshev rule. Their integrands depend on x only through the squared
offset (x - X/2)^2, so they are even in the rule's variable and are
evaluated on its nonnegative nodes only. The rate's inner average over the
y-separation is one closed form for adjacent and offset sub-regions alike.
High-SNR limits give an interference-only outage floor and rate ceiling.
Lengths and powers are in the reduced units of ``config.ReducedModel``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import ReducedModel, SystemConfig, derive_constants, over_powers
from .geometry import expected_log_excess, sq_diff_cdf
from .quadrature import integrate_rows

_LN2 = math.log(2.0)

# Relative slack under which 1 - gamma_th*B*G(x) is treated as zero: the
# threshold on the y-separation diverges there and the CDF saturates anyway.
_SINGULAR_SLACK = 1e-12


def _axis_distance_sq(t, model: ReducedModel):
    """Squared antenna-to-user distance projected on the axis plane,
    (x - X/2)^2 + h^2, at x = X (t + 1) / 2 for the unit-interval nodes t.

    The x-offset x - X/2 = X t / 2 is formed directly, without x: that
    avoids cancellation near the centre and makes the value exactly even
    in t, which ``_integrate_even`` relies on.
    """
    return (0.5 * model.region_x * np.asarray(t)) ** 2 + model.pa_height_sq


def _integrate_even(f, rows, n_nodes: int) -> np.ndarray:
    """``integrate_rows`` of an integrand ``f(t, rows)`` that is exactly even
    in t, evaluated on the nonnegative nodes only.

    The rule's nodes are exactly antisymmetric (``chebyshev_rule``), so the
    values on the first (N + 1) // 2 nodes mirrored onto the rest are the
    full-node values bit for bit, and the weighted sum over all N nodes is
    unchanged.
    """

    def mirrored(t, block):
        n = len(t)
        vals = f(t[: (n + 1) // 2], block)
        return np.concatenate([vals, vals[:, : n // 2][:, ::-1]], axis=1)

    return integrate_rows(mirrored, rows, n_nodes)


def _outage_given_x(t, gth: float, model: ReducedModel, b_noise: np.ndarray):
    """Conditional outage at the unit-interval nodes t of the x-coordinate,
    one row per entry of the 1-D noise coefficients ``b_noise``.

    Given x, the outage event caps the squared y-separation at
    g (gamma_th - 1 + e) / (1 - e) with e = gamma_th b_noise g; the cap is
    pushed through the separation CDF. Where 1 - e vanishes the noise term
    alone drives the SINR below threshold and the conditional outage is 1
    regardless of y. b_noise = 0 gives the interference-only integrand of
    the outage floor, which this never falls below.
    """
    g = _axis_distance_sq(t, model)
    e = gth * b_noise[:, None] * g
    saturated = 1.0 - e <= _SINGULAR_SLACK * e
    cap = g * (gth - 1.0 + e) / np.where(saturated, 1.0, 1.0 - e)
    return np.where(saturated, 1.0, sq_diff_cdf(cap, model))


def _average_outage(gth: float, model: ReducedModel, b_noise: np.ndarray, n_nodes: int):
    """Conditional outage averaged over x, per entry of the 1-D ``b_noise``."""
    # The conditional outage grows with the axis distance, whose minimum
    # (height squared, at t = 0) is reached inside the region, so saturation
    # there means the integrand is 1 everywhere and the integral is exactly 1.
    outage = np.ones_like(b_noise)
    live = _outage_given_x(0.0, gth, model, b_noise)[:, 0] < 1.0
    if live.any():
        value = 0.5 * _integrate_even(
            lambda t, rows: _outage_given_x(t, gth, model, rows), b_noise[live], n_nodes
        )
        outage[live] = np.minimum(np.maximum(value, 0.0), 1.0)
    return outage


@over_powers
def wdma_outage(cfg: SystemConfig, model: ReducedModel, powers, n_nodes: int = 64, user: int = 1):
    """Outage probability of ``user`` at transmit power ``power_w`` (a scalar
    or a 1-D array): the conditional outage averaged over the user's
    x-coordinate."""
    b_noise = 2.0 * model.noise(user) / (model.eta_m2 * powers)
    return _average_outage(cfg.outage_threshold, model, b_noise, n_nodes)


def _log_rate_coeffs(g, b_noise):
    """Quadratic coefficients of the instantaneous rate's log arguments.

    log2(1 + sinr) = (1/ln 2) ln((a + b u^2) / (c + d u^2)) with u the
    y-separation and g the squared axis distance.
    """
    d = b_noise * g
    noise_sq = b_noise * g**2
    return 2.0 * g + noise_sq, 1.0 + d, g + noise_sq, d


def _rate_nats(t, model: ReducedModel, b_noise: np.ndarray):
    """Mean of ln(1 + sinr) over the y-separation at the unit-interval nodes t,
    one row per entry of the 1-D noise coefficients ``b_noise``.

    ln(a/c) is taken as ln(1 + g/c), since a - c = g. With b_noise = 0 this
    is the interference-only integrand of the rate ceiling.
    """
    g = _axis_distance_sq(t, model)
    a, b, c, d = _log_rate_coeffs(g, b_noise[:, None])
    return np.log1p(g / c) + expected_log_excess(a, b, model) - expected_log_excess(c, d, model)


@over_powers
def wdma_avg_rate(cfg: SystemConfig, model: ReducedModel, powers, n_nodes: int = 64, user: int = 1):
    """Average achievable rate of ``user`` in bits/s/Hz at transmit power
    ``power_w`` (a scalar or a 1-D array).

    The inner average over the y-separation is closed-form for both region
    layouts; the outer x-average uses the Chebyshev rule. Where the rate
    meets its ceiling or zero, rounding in the two averages can leave it a
    few ulps outside; the value is clamped to [0, ceiling] there.
    """
    b_noise = 2.0 * model.noise(user) / (model.eta_m2 * powers)
    rate = 0.5 * _integrate_even(lambda t, rows: _rate_nats(t, model, rows), b_noise, n_nodes) / _LN2
    return np.clip(rate, 0.0, wdma_rate_ceiling(cfg, n_nodes))


def wdma_outage_floor(cfg: SystemConfig, n_nodes: int = 64) -> float:
    """High-SNR outage limit: interference-only outage averaged over x."""
    return _average_outage(cfg.outage_threshold, derive_constants(cfg), np.zeros(1), n_nodes).item()


@lru_cache(maxsize=128)
def wdma_rate_ceiling(cfg: SystemConfig, n_nodes: int = 64) -> float:
    """High-SNR rate limit in bits/s/Hz (at least 1: the interference-only
    SINR never falls below one; where the region is so long that the SINR
    is one almost everywhere, rounding is kept from leaving it below).

    Cached per (config, order): it does not depend on power, and every
    ``wdma_avg_rate`` call caps its value at it.
    """
    model = derive_constants(cfg)
    nats = _integrate_even(lambda t, rows: _rate_nats(t, model, rows), np.zeros(1), n_nodes)
    return max(1.0, (0.5 * nats / _LN2).item())
