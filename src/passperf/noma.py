"""Single-antenna power-domain access: outage, rates and high-SNR limits.

One antenna, pinned above the near user, serves both users through
superposition coding. The near user cancels the far user's signal before
decoding; the far user decodes under the near user's interference, which
caps its SINR at alpha_far / alpha_near. The far user's outage and its
average over the y-separation are closed forms for adjacent and offset
sub-regions alike. Both rates average positive logarithms, so they keep
their relative accuracy at low SNR. The near user's is a closed form. The
far user's averages the x-offset exactly: it is an integral over the
interference level of a positive log-ratio mean, taken by a fixed
Chebyshev rule over short spans of levels and in closed form over long
ones, so no metric here reads a node count. Lengths and powers are in the
reduced units of ``config.ReducedModel``.
"""

from __future__ import annotations

import math

import numpy as np

from .config import (
    _NORMAL_MIN,
    SATURATION_TOL,
    ReducedModel,
    SystemConfig,
    derive_constants,
    over_powers,
    saturated,
    saturation_power,
)
from .geometry import _hat_moment, _segment_sum, expected_log1p_ratio
from .quadrature import integrate_rows

_LN2 = math.log(2.0)
# ``noma_rate_far`` integrates over the interference level by the Chebyshev
# rule of _LEVEL_NODES nodes while the far share's SNR coefficient is below
# _LONG_LEVELS times k1 + h^2 + lo^2, the smallest interference plus distance
# term, and in closed form from there on. Both are fixed: with them the rule
# reaches rounding (its interval is at most ln(1 + _LONG_LEVELS) long), and
# the closed form cancels no more than about 1 + hi^2 / (_LONG_LEVELS
# (h^2 + lo^2)) units in the last place.
_LONG_LEVELS = 20.0
_LEVEL_NODES = 24


def _zero_outage_powers(cfg: SystemConfig, model: ReducedModel):
    """:func:`noma_zero_outage_thresholds` as reduced powers, ``inf`` where
    the path gain of a share underflows."""
    gth = cfg.outage_threshold
    m4, h_sq, hi = model.centre_sq, model.pa_height_sq, model.support_hi

    def power(noise, distance_sq, share):
        gain = model.eta_m2 * share
        if not gain:
            return math.inf
        if gth * noise >= _NORMAL_MIN:
            return gth * noise * distance_sq / gain
        return noise / gain * distance_sq * gth  # the product gth * noise underflows

    near = power(model.noise_w_ue1, m4 + h_sq, cfg.noma_alpha_near)
    margin = cfg.noma_alpha_far - gth * cfg.noma_alpha_near
    if margin <= 0.0:
        return near, None
    return near, power(model.noise_w_ue2, m4 + hi * hi + h_sq, margin)


def noma_zero_outage_thresholds(cfg: SystemConfig):
    """Transmit powers in W beyond which each user's outage is exactly zero.

    Returns ``(near_w, far_w)``; ``far_w`` is None when the power split
    cannot support the far user at the configured threshold
    (alpha_far <= gamma_th * alpha_near), in which case it is always in
    outage. A power beyond float range is ``inf``.
    """
    model = derive_constants(cfg)

    def in_watts(power):
        try:
            return math.ldexp(power, 2 * model.scale_exp)
        except OverflowError:
            return math.inf

    near, far = _zero_outage_powers(cfg, model)
    return in_watts(near), None if far is None else in_watts(far)


def _over_threshold(cfg: SystemConfig, model: ReducedModel, share, powers, noise):
    """The SNR of a power ``share`` over the outage threshold,
    eta * share * powers / (threshold * noise). Where the product
    threshold * noise underflows, the SNR coefficient eta * powers / noise,
    which :func:`config.over_powers` keeps within 2**+-1000, is formed first,
    so the quotient is never 0 / 0."""
    gth = cfg.outage_threshold
    if gth * noise >= _NORMAL_MIN:
        return model.eta_m2 * share * powers / (gth * noise)
    return model.eta_m2 * powers / noise * (share / gth)


@over_powers
def noma_outage_near(cfg: SystemConfig, model: ReducedModel, powers):
    """Closed-form outage probability of the near user at transmit power
    ``power_w`` (a scalar or a 1-D array), (1 - 2 sqrt(c1) / X)^2; exactly
    zero from the zero-outage power on, and where the outage radius sqrt(c1)
    covers the whole region."""
    near, _ = _zero_outage_powers(cfg, model)
    c1 = (
        _over_threshold(cfg, model, cfg.noma_alpha_near, powers, model.noise_w_ue1)
        - model.pa_height_sq
    )
    # centre_sq is the correctly rounded (X/2)^2, whose square root is X/2
    # exactly, so the square is exactly 0 and 1 at the ends of the clamp
    inside = np.minimum(np.maximum(c1, 0.0), model.centre_sq)
    value = (1.0 - 2.0 * np.sqrt(inside) / model.region_x) ** 2
    return np.where(powers >= near, 0.0, value)


@over_powers
def noma_outage_far(cfg: SystemConfig, model: ReducedModel, powers):
    """Outage probability of the far user at transmit power ``power_w`` (a
    scalar or a 1-D array).

    Closed-form segment integrals over the far user's squared x-offset m,
    split at the clamped breakpoints m1 <= m2 <= m3 <= m4 where the outage
    radius sqrt(c2 - m) crosses the top, the peak and the bottom of the
    separation's support. The no-coverage (radius below the smallest
    separation), zero-outage power and full-coverage (radius beyond the
    farthest region point) cases are exact, in that order of precedence.
    """
    _, far = _zero_outage_powers(cfg, model)
    c2 = (
        _over_threshold(cfg, model, cfg.noma_alpha_far, powers, model.noise_w_ue2)
        - model.eta_m2 * cfg.noma_alpha_near * powers / model.noise_w_ue2
        - model.pa_height_sq
    )
    m4 = model.centre_sq
    lo, hi, w = model.support_lo, model.support_hi, model.half_width
    # full coverage is masked out below; capping c2 there keeps those cells finite
    c2 = np.minimum(c2, m4 + hi * hi)
    m1, m2, m3 = (np.minimum(np.maximum(c2 - r * r, 0.0), m4) for r in (hi, model.peak, lo))

    def radial(m, centre):
        # antiderivative in m of (sqrt(c2 - m) - centre)^2; c2 < m only in masked-out cells
        excess = np.maximum(c2 - m, 0.0)
        return c2 * m - 0.5 * m**2 + 4.0 * centre / 3.0 * excess**1.5 + centre * centre * m

    # outage given m: P(U > r) = (hi - r)^2 / (2 w^2) above the peak,
    # 1 - (r - lo)^2 / (2 w^2) below it, 1 below the support
    total = _segment_sum(
        lambda u, v, centre: radial(v, centre) - radial(u, centre), m1, m2, m3, m4, hi, lo, w
    )
    value = np.minimum(np.maximum(4.0 / (model.region_x * model.region_x) * total, 0.0), 1.0)
    # exact cases, the last applied taking precedence
    value = np.where(c2 >= m4 + hi * hi, 0.0, value)
    if far is not None:
        value = np.where(powers >= far, 0.0, value)
    return np.where(c2 <= lo * lo, 1.0, value)


@over_powers
def noma_rate_near(cfg: SystemConfig, model: ReducedModel, powers):
    """Closed-form average rate of the near user in bits/s/Hz at transmit
    power ``power_w`` (a scalar or a 1-D array).

    With c = X/2 and the near user's x-offset t of density (2/c)(1 - t/c),
    the mean of ln(1 + k / (h^2 + t^2)) is 2 T(c) / c^2 with
    T(c) = int_0^c (c - t) ln(1 + k / (h^2 + t^2)) dt, the positive
    ``geometry._hat_moment`` at the single point c: no difference of
    logarithms, so the rate keeps its relative accuracy at low SNR.
    """
    k = model.eta_m2 * cfg.noma_alpha_near * powers / model.noise_w_ue1
    centre = 0.5 * model.region_x
    return 2.0 * _hat_moment(centre, model.pa_height_sq, k, centre) / _LN2


def noma_rate_far_ceiling(cfg: SystemConfig) -> float:
    """High-SNR limit of the far user's rate, log2(1 + alpha_far /
    alpha_near) in bits/s/Hz: the near user's signal caps the far user's
    SINR at the power split."""
    return math.log2(1.0 + cfg.noma_alpha_far / cfg.noma_alpha_near)


@over_powers
def noma_rate_far(cfg: SystemConfig, model: ReducedModel, powers):
    """Average rate of the far user in bits/s/Hz (at most
    ``noma_rate_far_ceiling``) at transmit power ``power_w`` (a scalar or a
    1-D array).

    With k1 and k2 the SNR coefficients of the near and far shares and the
    far user's squared x-offset m uniform on [0, C], C = (X/2)^2, the log
    ln(1 + k2 / (k1 + h^2 + m + U^2)) is the integral of 1 / (c + h^2 + m +
    U^2) over the interference level c from k1 to k1 + k2, so its mean over
    m is exactly

        R ln 2 = (1 / C) int_{a1}^{a2} F(b) db,  F(b) = E[ln(1 + C / (b + U^2))],

    with a1 = k1 + h^2 and a2 = a1 + k2: an integral of a positive function
    (``geometry.expected_log1p_ratio``), so nothing cancels at low SNR.
    - Below k2 = ``_LONG_LEVELS`` (a1 + lo^2), lo the smallest separation,
      the integral takes the Chebyshev rule of ``_LEVEL_NODES`` nodes in
      v = ln(b + lo^2). F is singular only at b <= -lo^2, so F is analytic
      in the strip |Im v| < pi, and the interval is at most
      ln(1 + _LONG_LEVELS) = 3.04 long: the rule reaches rounding.
    - From there on, the closed form. The antiderivative of
      ln(1 + C / (b + u)) is (x + C) ln(x + C) - x ln(x) at x = b + u, so
      R ln 2 = E[ln(1 + k2 / (a1 + C + U^2))] + (H(a2) - H(a1)) / C, with
      H(a) = E[(a + U^2) ln(1 + C / (a + U^2))]. Both terms are positive;
      the difference of H rounds to about eps (1 + U^2 / k2) relative,
      which the threshold keeps near eps unless the largest separation is
      many antenna heights.
    Where the rate meets its ceiling or zero, rounding can leave it an ulp
    outside; the value is clamped to [0, ceiling] there.

    With D = h^2 + m + U^2 <= v_max = (X/2)^2 + h^2 + hi^2, the log is
    ln(1 + alpha_far / (alpha_near + D / snr)), snr = k2 / alpha_far:
    convex and decreasing in D / snr, so it falls short of the ceiling by at
    most (v_max / snr) alpha_far / (alpha_near (alpha_near + alpha_far)).
    From the power where that over ln 2 is SATURATION_TOL times the ceiling
    on, the rate is the ceiling.
    """
    ceiling = noma_rate_far_ceiling(cfg)
    a_near, a_far = cfg.noma_alpha_near, cfg.noma_alpha_far
    hi = model.support_hi
    v_max = model.centre_sq + model.pa_height_sq + hi * hi
    snr_sat = v_max * a_far / (a_near * (a_near + a_far) * _LN2 * SATURATION_TOL * ceiling)
    p_sat = saturation_power(model.noise_w_ue2 / model.eta_m2, snr_sat)
    return saturated(lambda p: _far_rate(cfg, model, p, ceiling), powers, p_sat, ceiling)


def _far_rate(cfg: SystemConfig, model: ReducedModel, powers, ceiling: float):
    """``noma_rate_far`` at the reduced ``powers``, before saturation."""
    centre_sq, lo_sq = model.centre_sq, model.support_lo * model.support_lo
    snr = model.eta_m2 * powers / model.noise_w_ue2  # no noise x h^2 to underflow
    k1, k2 = cfg.noma_alpha_near * snr, cfg.noma_alpha_far * snr
    a1 = k1 + model.pa_height_sq
    base = a1 + lo_sq
    half_span = 0.5 * np.log1p(k2 / base)
    long = k2 >= _LONG_LEVELS * base
    nats = np.empty_like(powers)

    def level_mean(t, rows):
        # F(b) (b + lo^2) / C at b + lo^2 = (a1 + lo^2) e^v, v = half_span (t + 1):
        # the integrand in v; b = a1 + (a1 + lo^2)(e^v - 1) keeps a1 where a1 << lo^2
        b = base[rows, None] * np.expm1(half_span[rows, None] * (t + 1.0))
        b += a1[rows, None]
        mean = expected_log1p_ratio(b, centre_sq, model)
        mean /= centre_sq
        mean *= b + lo_sq
        return mean

    short = np.flatnonzero(~long)
    if short.size:
        nats[short] = half_span[short] * integrate_rows(level_mean, short, _LEVEL_NODES)
    if long.any():
        low, span = a1[long], k2[long]
        levels = np.stack([low, low + span])
        lower, upper = expected_log1p_ratio(levels, centre_sq, model, weighted=True)
        head = expected_log1p_ratio(low + centre_sq, span, model)
        nats[long] = head + (upper - lower) / centre_sq
    return np.clip(nats / _LN2, 0.0, ceiling)
