"""Single-antenna power-domain access: outage, rates and high-SNR limits.

One antenna, pinned above the near user, serves both users through
superposition coding. The near user cancels the far user's signal before
decoding; the far user decodes under the near user's interference, which
caps its SINR at alpha_far / alpha_near. The far user's outage and its
average over the y-separation are closed forms for adjacent and offset
sub-regions alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, check_powers, derive_constants, over_powers
from .geometry import diff_distribution, expected_log_excess
from .quadrature import integrate_interval, j0, j1

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class NomaBreakpoints:
    """Clamped integration breakpoints of the far user's outage integral."""

    # one value (a float or a 1-D array) per power
    c2: object  # outage radius in squared metres (may be negative)
    m1: object
    m2: object
    m3: object
    m4: float


def noma_zero_outage_thresholds(cfg: SystemConfig):
    """Powers beyond which each user's outage is exactly zero.

    Returns ``(near_w, far_w)``; ``far_w`` is None when the power split
    cannot support the far user at the configured threshold
    (alpha_far <= gamma_th * alpha_near), in which case it is always in
    outage.
    """
    dc = derive_constants(cfg)
    gth = cfg.outage_threshold
    m4 = (0.5 * cfg.region_x_m) ** 2
    h_sq = cfg.pa_height_m**2
    near = gth * dc.noise_w_ue1 * (m4 + h_sq) / (dc.eta_m2 * cfg.noma_alpha_near)
    margin = cfg.noma_alpha_far - gth * cfg.noma_alpha_near
    if margin <= 0.0:
        return near, None
    max_sep = diff_distribution(cfg).support_hi
    far = gth * dc.noise_w_ue2 * (m4 + max_sep**2 + h_sq) / (dc.eta_m2 * margin)
    return near, far


def _c1(cfg: SystemConfig, power_w):
    dc = derive_constants(cfg)
    return (
        dc.eta_m2 * cfg.noma_alpha_near * power_w / (cfg.outage_threshold * dc.noise_w_ue1)
        - cfg.pa_height_m**2
    )


def _c2(cfg: SystemConfig, power_w):
    dc = derive_constants(cfg)
    return (
        dc.eta_m2 * cfg.noma_alpha_far * power_w / (cfg.outage_threshold * dc.noise_w_ue2)
        - dc.eta_m2 * cfg.noma_alpha_near * power_w / dc.noise_w_ue2
        - cfg.pa_height_m**2
    )


def noma_breakpoints(cfg: SystemConfig, power_w) -> NomaBreakpoints:
    """Squared x-offsets where the far user's outage radius sqrt(c2 - m)
    crosses the top, the peak and the bottom of the separation's support,
    at transmit power ``power_w`` (a scalar or a 1-D array)."""
    c2 = _c2(cfg, check_powers(power_w))
    m4 = (0.5 * cfg.region_x_m) ** 2
    dist = diff_distribution(cfg)

    def clamp(z):
        return np.minimum(np.maximum(z, 0.0), m4)

    return NomaBreakpoints(
        c2=c2,
        m1=clamp(c2 - dist.support_hi**2),
        m2=clamp(c2 - dist.peak**2),
        m3=clamp(c2 - dist.support_lo**2),
        m4=m4,
    )


@over_powers
def noma_outage_near(cfg: SystemConfig, power_w):
    """Closed-form outage probability of the near user at transmit power
    ``power_w`` (a scalar or a 1-D array); exactly zero from the zero-outage
    power on, and where the outage radius sqrt(c1) covers the whole region."""
    near_w, _ = noma_zero_outage_thresholds(cfg)
    c1 = _c1(cfg, power_w)
    dx = cfg.region_x_m
    # exact cases are masks, the last applied taking precedence; the clamped
    # base keeps the masked-out cells (c1 < 0) free of invalid math
    value = 1.0 - 4.0 * np.sqrt(np.maximum(c1, 0.0)) / dx + 4.0 * c1 / dx**2
    value = np.where(c1 >= (0.5 * dx) ** 2, 0.0, np.minimum(np.maximum(value, 0.0), 1.0))
    value = np.where(c1 <= 0.0, 1.0, value)
    return np.where(power_w >= near_w, 0.0, value)


@over_powers
def noma_outage_far(cfg: SystemConfig, power_w):
    """Outage probability of the far user at transmit power ``power_w`` (a
    scalar or a 1-D array).

    Closed-form segment integrals over the far user's squared x-offset m,
    split at the breakpoints of :func:`noma_breakpoints`, where the outage
    radius sqrt(c2 - m) crosses the top, the peak and the bottom of the
    separation's support. The no-coverage (radius below the smallest
    separation), zero-outage power and full-coverage (radius beyond the
    farthest region point) cases are exact, in that order of precedence.
    """
    _, far_w = noma_zero_outage_thresholds(cfg)
    bp = noma_breakpoints(cfg, power_w)
    c2 = bp.c2
    dist = diff_distribution(cfg)
    lo, hi, w = dist.support_lo, dist.support_hi, dist.half_width

    def radial(m, centre):
        # antiderivative in m of (sqrt(c2 - m) - centre)^2; c2 < m only in masked-out cells
        excess = np.maximum(c2 - m, 0.0)
        return c2 * m - 0.5 * m**2 + 4.0 * centre / 3.0 * excess**1.5 + centre**2 * m

    # outage given m: P(U > r) = (hi - r)^2 / (2 w^2) above the peak,
    # 1 - (r - lo)^2 / (2 w^2) below it, 1 below the support
    total = (
        (radial(bp.m2, hi) - radial(bp.m1, hi)) / (2.0 * w**2)
        + (bp.m3 - bp.m2)
        - (radial(bp.m3, lo) - radial(bp.m2, lo)) / (2.0 * w**2)
        + (bp.m4 - bp.m3)
    )
    value = np.minimum(np.maximum(4.0 / cfg.region_x_m**2 * total, 0.0), 1.0)
    # exact cases, the last applied taking precedence
    value = np.where(c2 >= bp.m4 + hi**2, 0.0, value)
    if far_w is not None:
        value = np.where(power_w >= far_w, 0.0, value)
    return np.where(c2 <= lo**2, 1.0, value)


@over_powers
def noma_rate_near(cfg: SystemConfig, power_w):
    """Closed-form average rate of the near user in bits/s/Hz at transmit
    power ``power_w`` (a scalar or a 1-D array)."""
    dc = derive_constants(cfg)
    k = dc.eta_m2 * cfg.noma_alpha_near * power_w / dc.noise_w_ue1
    dx = cfg.region_x_m
    centre = 0.5 * dx
    h_sq = cfg.pa_height_m**2
    term0 = j0(centre, h_sq + k, 1.0) - j0(centre, h_sq, 1.0)
    term1 = j1(centre, h_sq + k, 1.0) - j1(centre, h_sq, 1.0)
    return (4.0 / dx * term0 - 8.0 / dx**2 * term1) / _LN2


def noma_rate_far_ceiling(cfg: SystemConfig) -> float:
    """High-SNR limit of the far user's rate, log2(1 + alpha_far /
    alpha_near) in bits/s/Hz: the near user's signal caps the far user's
    SINR at the power split."""
    return math.log2(1.0 + cfg.noma_alpha_far / cfg.noma_alpha_near)


@over_powers
def noma_rate_far(cfg: SystemConfig, power_w, n_nodes: int = 64):
    """Average rate of the far user in bits/s/Hz (at most
    ``noma_rate_far_ceiling``) at transmit power ``power_w`` (a scalar or a
    1-D array).

    The average over the y-separation is closed-form for both region
    layouts; the outer average over the squared x-offset uses the Chebyshev
    rule, with powers on the leading axis and nodes on the last. Where the
    rate meets its ceiling, rounding can leave it an ulp above; the value is
    capped at the ceiling there.
    """
    dc = derive_constants(cfg)
    k1 = (dc.eta_m2 * cfg.noma_alpha_near * power_w)[:, None]
    k2 = (dc.eta_m2 * cfg.noma_alpha_far * power_w)[:, None]
    n2 = dc.noise_w_ue2
    h_sq = cfg.pa_height_m**2
    dx = cfg.region_x_m
    dist = diff_distribution(cfg)

    def delta(m):
        # E[ln(beta + k2 + n2 U^2) - ln(beta + n2 U^2)] given the x-offset m
        beta = k1 + n2 * (h_sq + np.asarray(m))
        excess = expected_log_excess(np.stack([beta + k2, beta]), n2, dist)
        return np.log1p(k2 / beta) + excess[0] - excess[1]

    integral = integrate_interval(delta, 0.0, (0.5 * dx) ** 2, n_nodes)
    return np.minimum(4.0 / (dx**2 * _LN2) * integral, noma_rate_far_ceiling(cfg))
