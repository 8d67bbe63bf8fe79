"""Analytic kernels of the geometry both access schemes share.

User x-coordinates are uniform along the service region, y-coordinates are
uniform in two disjoint sub-regions on either side of the waveguide axis.
The y-separation of the two users follows a triangular law. One driver,
``_triangular_mean``, takes both log-expectations over it from a hat
moment, or by a fixed rule where the sub-regions are narrow against their
offset: the WDMA rate ceiling's log excess, from the log moments
``_log1p_moments``, and the log ratio of the average rates, from the
positive kernel ``_hat_moment``, which also gives the NOMA near-user rate
at one point. The law also gives the segment sum of an outage quadratic in
a radius, shared by the WDMA outage, its floor and the NOMA far-user
outage. The kernels read the law from ``dist``, a ``config.ReducedModel``
in the analytic metrics: its ``half_width`` (the sub-region depth) and
``support_lo`` (twice the offset from the axis), in reduced units, and
return NumPy values of their inputs' broadcast shape, 0-d for scalar
inputs. Placements are drawn by ``montecarlo``, which imports nothing from
here.
"""

from __future__ import annotations

import numpy as np

from .config import _NORMAL_MIN
from .quadrature import _row_dots, chebyshev_rule


def _segment_sum(squares, b1, b2, b3, b4, k_rising, k_falling, w):
    """Integral over v of an outage that the triangular law makes piecewise
    quadratic in a radius rho(v), split at b1 <= b2 <= b3 <= b4: zero below
    b1, (rho - k_rising)^2 / (2 w^2) on [b1, b2], 1 - (rho - k_falling)^2 /
    (2 w^2) on [b2, b3] and one on [b3, b4]. ``squares(u, v, k)`` is the
    integral of (rho - k)^2 from u to v: in closed form for the WDMA outage
    floor and the NOMA far-user outage, by quadrature for the WDMA outage.
    """
    return (
        squares(b1, b2, k_rising) / (2.0 * w * w)
        + (b3 - b2)
        - squares(b2, b3, k_falling) / (2.0 * w * w)
        + (b4 - b3)
    )


# The triangular mean takes the Chebyshev rule of _NARROW_NODES nodes on each
# half of the support from lo = _NARROW w on. The second difference of T
# cancels about (hi / w)^2 / 2 of T's digits, under (6 w / w)^2 / 2 = 18
# below that; from there on, the branch points of every integrand here lie
# on the imaginary axis, at least 2 lo / w + 1 >= 9 half-lengths of a half
# support from its centre, so the rule's error falls as (9 + sqrt(80))^-N,
# under 1e-19 at 16 nodes.
_NARROW = 4.0
_NARROW_NODES = 16


def _triangular_mean(g, hat, dist, ndim):
    """E[g(U)] for the y-separation U ~ ``dist``.

    The triangular density is linear on each half of its support, so the
    mean is the second difference T(lo) - 2 T(lo + w) + T(lo + 2w) of the
    hat moment T(p) = int_0^p (p - t) g(t) dt over w^2; ``hat(p)`` gives
    T(p) / w^2. With zero offset the end lo = 0, where T is exactly +0.0,
    is not evaluated. Sub-regions narrow against their gap to the axis
    (lo >= ``_NARROW`` w) take the rule on each half instead: the density is
    (1 + sigma) / (2 w) on the rising half at lo + w (1 + sigma) / 2 and
    (1 - sigma) / (2 w) on the falling half, w further on, and ``g(t)``
    gives the integrand, whose sums over the separations are the stacked
    1-D dots of ``integrate_rows``, so that an element of an array call has
    the bits of its own scalar call. Either way the separations go on a
    leading axis ahead of the ``ndim`` axes of the operands, one array call
    per operation.
    """
    lo, w = dist.support_lo, dist.half_width
    if lo >= _NARROW * w:
        rule = chebyshev_rule(_NARROW_NODES)
        offsets = 0.5 * w * (1.0 + rule.nodes)
        t = np.concatenate([lo + offsets, lo + w + offsets])
        rising, falling = rule.weights * (1.0 + rule.nodes), rule.weights * (1.0 - rule.nodes)
        weights = 0.25 * np.concatenate([rising, falling])
        values = g(t.reshape(t.shape + (1,) * ndim))
        return _row_dots(np.ascontiguousarray(np.moveaxis(values, 0, -1)), weights)
    points = np.array([lo, lo + w, lo + 2.0 * w] if lo else [w, 2.0 * w])
    t = hat(points.reshape(points.shape + (1,) * ndim))
    t0 = t[0] if lo else 0.0
    return t0 - 2.0 * t[-2] + t[-1]


def _log1p_over(x):
    """ln(1 + x) / x for x >= 0, in place on a fresh array; 1 where x
    underflows to 0."""
    x = np.maximum(x, _NORMAL_MIN)
    return np.divide(np.log1p(x), x, out=x)


def _series(x, terms):
    """sum_{k=1}^{terms} (-x)^(k-1) / (2k + 1) by Horner, highest term first:
    the tail of arctan(v) / v in x = v^2, and with x = -u^2 that of
    atanh(u) / u."""
    total = np.full_like(x, 1.0 / (2 * terms + 1))
    for k in range(terms - 1, 0, -1):
        total *= -x
        total += 1.0 / (2 * k + 1)
    return total


def _log1p_deficit(x):
    """1 - ln(1 + x) / x for x >= 0, without cancellation at small x: with
    u = x / (2 + x) it is u - u^2 (1 - u) sum_{k>=1} u^(2k-2) / (2k + 1),
    from ln(1 + x) = 2 atanh(u); below x = 1/2, u^2 <= 1/25 and 11 terms
    reach rounding, and from there on the direct form loses under a digit."""
    x = np.asarray(x, dtype=float)
    u = np.minimum(x, 0.5)
    u /= 2.0 + u
    small = u - u * u * (1.0 - u) * _series(-(u * u), 11)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x < 0.5, small, 1.0 - np.log1p(x) / x)


def _atan_deficit(x):
    """1 - arctan(y) / y for x = y^2 >= 0, without cancellation at small y and
    without forming y^3. Two half-angle steps, 1 - arctan(y) / y =
    v^2 + (2 / c) (1 - arctan(v) / v) with c = 1 + sqrt(1 + y^2) and
    v = y / c, take y below 1 to v under tan(pi / 16) < 0.2, where 13 terms
    of v^2 / 3 - v^4 / 5 + ... reach rounding; from y = 1 on the direct form
    loses under a digit. c is taken as 2 + e, e = y^2 / c, and v^2 as
    (y^2 / 4) / (1 + e + e^2 / 4), so that no rounded c is squared."""
    x = np.asarray(x, dtype=float)
    v_sq = np.minimum(x, 1.0)
    head, scale = 0.0, 1.0
    for _ in range(2):
        e = v_sq / (np.sqrt(1.0 + v_sq) + 1.0)
        v_sq = 0.25 * v_sq / (1.0 + e * (1.0 + 0.25 * e))
        head += scale * v_sq
        scale = scale * (2.0 / (2.0 + e))
    small = head + scale * v_sq * _series(v_sq, 13)
    y = np.sqrt(np.maximum(x, 1.0))
    return np.where(x < 1.0, small, 1.0 - np.arctan(y) / y)


def _hat_moment(p, a, d, scale):
    """T(p) / scale^2 for T(p) = int_0^p (p - t) g(t) dt with
    g = ln(1 + d / (a + t^2)); p >= 0, a > 0 and d >= 0 broadcast against
    each other.

    g is positive, so no difference of two logarithms is formed, and T keeps
    its relative accuracy when d is tiny against a + t^2 (low SNR) and when
    it is huge. With b = a + d, q = p^2 and L = ln(1 + d / (a + q)),
    T = p I0 - I1 in the moments I0 and I1 of g:
    - p I0 = q L + 2 p D, where D = int_0^p d t^2 / ((a + t^2)(b + t^2)) dt
      = (rb - ra) arctan(p / rb) - ra arctan(p (rb - ra) / (ra rb + q)),
      ra = sqrt(a), rb = sqrt(b) and rb - ra = d / (ra + rb);
    - 2 I1 = q (L + r_b - r_z), with q r_b = d ln(1 + q / b) and
      q r_z = a ln(1 + z), z = d q / (a (b + q)); r_b >= r_z.
    Every logarithm is a log1p of a ratio of positive terms, and T >= p I0 / 2
    since g decreases. r_b and r_z are taken as d / b and d / (b + q) times
    ln(1 + x) / x, D as p times a difference of arctan(y) / y ratios near 1,
    and T over scale^2 as a multiple of (p / scale)^2, so that no product of
    small squares underflows where p is tiny against the antenna height or
    a is near the top of its range.
    """
    b = a + d
    # a scalar a (the near rate's h^2) takes d's shape, so that the log
    # formed in place below holds the whole broadcast shape
    a = np.broadcast_to(a, np.shape(b))
    q = p * p
    scaled = p / scale
    scaled_sq = scaled * scaled
    ra, rb = np.sqrt(a), np.sqrt(b)
    gap = d / (ra + rb)
    ratio_b = p / rb
    log = a + q
    log = np.log1p(np.divide(d, log, out=log), out=log)
    # in place from here on, on arrays of the broadcast shape. D / p is gap /
    # rb times arctan(y) / y at y = p / rb less the same at y = x, x = p gap /
    # (ra rb + q), times ra rb / (ra rb + q): ratios near 1, so that nothing
    # falls to a subnormal where a is near the top of its range
    rab = ra * rb
    den = rab + q
    swing = p * gap
    swing /= den
    swing = np.maximum(swing, _NORMAL_MIN, out=swing)
    swing = np.divide(np.arctan(swing), swing, out=swing)
    swing *= rab
    swing /= den
    per_p = np.arctan(ratio_b)
    per_p /= ratio_b
    per_p -= swing
    per_p *= gap / rb  # D / p
    over_bq = b + q
    over_bq = np.divide(d, over_bq, out=over_bq)
    r_z = _log1p_over(over_bq * (q / a))
    r_z *= over_bq
    r_b = _log1p_over(q / b)
    r_b *= d / b
    t = log - r_b
    t += r_z
    t += 4.0 * per_p
    t *= 0.5 * scaled_sq
    return t


def expected_log1p_ratio(a, d, dist):
    """E[ln(1 + d / (a + U^2))] for the y-separation U ~ ``dist``; a > 0,
    d >= 0, ``a`` broadcast against ``d``. The ``_triangular_mean`` of the
    positive ``_hat_moment``, so the mean keeps its relative accuracy at low
    SNR and at high.
    """
    a = np.asarray(a, dtype=float)

    def hat(p):
        return _hat_moment(p, a, d, dist.half_width)

    return _triangular_mean(
        lambda t: np.log1p(d / (a + t * t)), hat, dist, max(a.ndim, np.ndim(d))
    )


def _log1p_moments(u, r):
    """int_0^u ln(1 + r t^2) dt and int_0^u t ln(1 + r t^2) dt for u, r >= 0,
    broadcast against each other.

    With s = r u^2 these are u phi0(s) and (u^2 / 2) phi1(s), where
    phi0(s) = ln(1 + s) - 2 (1 - arctan(sqrt(s)) / sqrt(s)) and
    phi1(s) = ln(1 + s) - (1 - ln(1 + s) / s). Both brackets come from the
    deficit helpers, which keep them accurate where s is tiny, so each form
    holds at every s and both moments vanish at s = 0.
    """
    u = np.asarray(u, dtype=float)
    s = np.asarray(r, dtype=float) * (u * u)
    log = np.log1p(s)
    m0 = log - 2.0 * _atan_deficit(s)
    m0 *= u
    m1 = log - _log1p_deficit(s)
    m1 *= 0.5 * (u * u)
    return m0, m1


def expected_log_excess(a, b, dist):
    """E[ln(a + b U^2)] - ln(a) for the y-separation U ~ ``dist``; a > 0,
    b >= 0, broadcast against each other. ln(a) is left out, so that the
    excess keeps its relative accuracy when b/a is tiny.

    The ``_triangular_mean`` of ln(1 + (b/a) t^2), whose hat moment is
    T = p m0 - m1 in the two ``_log1p_moments``.
    """
    ratio = np.asarray(b, dtype=float) / np.asarray(a, dtype=float)
    scale_sq = dist.half_width**2

    def hat(p):
        t, m1 = _log1p_moments(p, ratio)
        t *= p
        t -= m1
        t /= scale_sq
        return t

    return _triangular_mean(lambda t: np.log1p(ratio * (t * t)), hat, dist, ratio.ndim)
