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

    c2: float  # outage radius in squared metres (may be negative)
    m1: float
    m2: float
    m3: float
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


def _c1(cfg: SystemConfig, power_w: float) -> float:
    dc = derive_constants(cfg)
    return (
        dc.eta_m2 * cfg.noma_alpha_near * power_w / (cfg.outage_threshold * dc.noise_w_ue1)
        - cfg.pa_height_m**2
    )


def _c2(cfg: SystemConfig, power_w: float) -> float:
    dc = derive_constants(cfg)
    return (
        dc.eta_m2 * cfg.noma_alpha_far * power_w / (cfg.outage_threshold * dc.noise_w_ue2)
        - dc.eta_m2 * cfg.noma_alpha_near * power_w / dc.noise_w_ue2
        - cfg.pa_height_m**2
    )


def noma_breakpoints(cfg: SystemConfig, power_w: float) -> NomaBreakpoints:
    """Squared x-offsets where the far user's outage radius sqrt(c2 - m)
    crosses the top, the peak and the bottom of the separation's support."""
    check_powers(power_w)
    c2 = _c2(cfg, power_w)
    m4 = (0.5 * cfg.region_x_m) ** 2
    dist = diff_distribution(cfg)

    def clamp(z):
        return min(max(z, 0.0), m4)

    return NomaBreakpoints(
        c2=c2,
        m1=clamp(c2 - dist.support_hi**2),
        m2=clamp(c2 - dist.peak**2),
        m3=clamp(c2 - dist.support_lo**2),
        m4=m4,
    )


def _outage_near(cfg: SystemConfig, power_w: float, near_threshold: float) -> float:
    if power_w >= near_threshold:
        return 0.0
    c1 = _c1(cfg, power_w)
    if c1 <= 0.0:
        return 1.0
    dx = cfg.region_x_m
    m4 = (0.5 * dx) ** 2
    if c1 >= m4:
        return 0.0
    value = 1.0 - 4.0 * math.sqrt(c1) / dx + 4.0 * c1 / dx**2
    return min(max(value, 0.0), 1.0)


@over_powers
def noma_outage_near(cfg: SystemConfig, power_w):
    """Closed-form outage probability of the near user at transmit power
    ``power_w`` (a scalar or a 1-D array).

    The closed form is evaluated on Python floats, one power at a time.
    """
    near_threshold, _ = noma_zero_outage_thresholds(cfg)
    return np.array([_outage_near(cfg, p, near_threshold) for p in power_w.tolist()])


def _outage_far(cfg: SystemConfig, power_w: float, far_threshold) -> float:
    dist = diff_distribution(cfg)
    c2 = _c2(cfg, power_w)
    if c2 <= dist.support_lo**2:
        return 1.0
    m4 = (0.5 * cfg.region_x_m) ** 2
    if power_w >= (far_threshold if far_threshold is not None else math.inf):
        return 0.0
    if c2 >= m4 + dist.support_hi**2:
        return 0.0

    bp = noma_breakpoints(cfg, power_w)
    lo, hi, w = dist.support_lo, dist.support_hi, dist.half_width

    def radial(m, centre):
        # antiderivative in m of (sqrt(c2 - m) - centre)^2
        return c2 * m - 0.5 * m**2 + 4.0 * centre / 3.0 * (c2 - m) ** 1.5 + centre**2 * m

    # outage given m: P(U > r) = (hi - r)^2 / (2 w^2) above the peak,
    # 1 - (r - lo)^2 / (2 w^2) below it, 1 below the support
    total = (
        (radial(bp.m2, hi) - radial(bp.m1, hi)) / (2.0 * w**2)
        + (bp.m3 - bp.m2)
        - (radial(bp.m3, lo) - radial(bp.m2, lo)) / (2.0 * w**2)
        + (bp.m4 - bp.m3)
    )
    value = 4.0 / cfg.region_x_m**2 * total
    return min(max(value, 0.0), 1.0)


@over_powers
def noma_outage_far(cfg: SystemConfig, power_w):
    """Outage probability of the far user at transmit power ``power_w`` (a
    scalar or a 1-D array).

    Closed-form segment integrals over the far user's squared x-offset m,
    split where the outage radius sqrt(c2 - m) crosses the top, the peak and
    the bottom of the separation's support. The no-coverage (radius below
    the smallest separation) and full-coverage (radius beyond the farthest
    region point) cases short circuit exactly. The closed form is evaluated
    on Python floats, one power at a time.
    """
    _, far_threshold = noma_zero_outage_thresholds(cfg)
    return np.array([_outage_far(cfg, p, far_threshold) for p in power_w.tolist()])


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
