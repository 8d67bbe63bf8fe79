"""Per-waveguide access: outage, average rate and their high-SNR limits.

Each user is served by a dedicated waveguide antenna pinned above it; the
other user's antenna interferes across waveguides. Outage and rate reduce
to one-dimensional integrals over the user's x-offset s = |x - X/2|. The
outage and its interference-only floor are one segment sum over the
triangular law of the y-separation, split where the separation threshold
crosses its support: closed-form segments for the floor, the Chebyshev rule
on each segment for the outage. The rate's integrand is even in the rule's
variable and is evaluated on its nonnegative nodes only; its inner average
over the y-separation is one closed form for adjacent and offset
sub-regions alike, and its high-SNR limit is the rate ceiling. Lengths and
powers are in the reduced units of ``config.ReducedModel``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import ReducedModel, SystemConfig, derive_constants, over_powers
from .geometry import _segment_sum, expected_log_excess
from .quadrature import integrate_rows

_LN2 = math.log(2.0)


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


def _crossings(gth: float, b_noise, model: ReducedModel) -> np.ndarray:
    """The x-offsets s in [0, X/2] where the cap g (gamma_th - 1 + e) / (1 - e)
    on the squared y-separation (e = gamma_th b_noise g, g = s^2 + h^2)
    crosses lo^2, peak^2 and hi^2, in order: a row each, a column per b_noise.

    Where it is positive the cap grows with g, so each crossing is the
    positive root of A g^2 + B g - C with A = gamma_th b_noise,
    B = gamma_th - 1 + k^2 A and C = k^2: 2C / (B + sqrt(B^2 + 4AC)) where
    B > 0, else (sqrt(B^2 + 4AC) - B) / (2A), so neither cancels; with no
    noise it is k^2 / (gamma_th - 1) bit for bit. The cap diverges as e
    nears 1, past the crossing of hi^2.
    """
    c = np.square([[model.support_lo], [model.peak], [model.support_hi]])
    ac = c * gth * b_noise  # from c first: 0, not 0 * inf, where k = 0
    b = gth - 1.0 + ac
    root = np.hypot(b, 2.0 * np.sqrt(ac))
    rising = b > 0.0
    # root - min(b, 0) is root - b where it is taken, and never inf - inf
    numerator = np.where(rising, 2.0 * c, root - np.minimum(b, 0.0))
    g = numerator / np.where(rising, b + root, 2.0 * gth * b_noise)
    crossings = np.minimum(np.sqrt(np.maximum(g - model.pa_height_sq, 0.0)), 0.5 * model.region_x)
    return np.maximum.accumulate(crossings)  # in order, however they round


@over_powers
def wdma_outage(cfg: SystemConfig, model: ReducedModel, powers, n_nodes: int = 64, user: int = 1):
    """Outage probability of ``user`` at transmit power ``power_w`` (a scalar
    or a 1-D array): the floor's segment sum, with the separation threshold
    r(s) the square root of the cap of ``_crossings``; exactly 1 where the
    cap saturates at s = 0, and clamped to [floor, 1] against rounding.

    Each segment integral of (r - k)^2 takes ``n_nodes`` Chebyshev nodes in
    zeta, with s = h sinh(theta) and theta = pole tanh(zeta): the sinh moves
    the branch points of r at s = +-ih a quarter turn off the real axis, and
    the tanh moves the cap's pole at e = 1 (``pole`` in theta, but at most
    that of s = 1, beyond every reduced length, and past the last crossing
    however it rounds) to infinity, however near the segment they lie.
    """
    gth, hi, h = cfg.outage_threshold, model.support_hi, math.sqrt(model.pa_height_sq)
    b_noise = 2.0 * model.noise(user) / (model.eta_m2 * powers)
    crossings = _crossings(gth, b_noise, model)
    a = gth * b_noise  # e / g
    pole = np.arcsinh(np.minimum(np.sqrt(np.maximum(1.0 / a - h * h, 0.0)), 1.0) / h)
    pole = np.maximum(pole, np.nextafter(np.arcsinh(crossings[2] / h), np.inf))

    def squares(u, v, k):
        z_u, z_v = (np.arctanh(np.arcsinh(s / h) / pole) for s in (u, v))
        mid, radius = 0.5 * (z_u + z_v), 0.5 * (z_v - z_u)

        def segment(t, rows):
            z = mid[rows, None] + radius[rows, None] * t
            root_g = h * np.cosh(pole[rows, None] * np.tanh(z))
            g = root_g * root_g
            # where rounding carries e to 1 at a node, the cap is gth g / 0 = +inf and r is hi
            d = np.maximum(1.0 - a[rows, None] * g, 0.0)
            cap = g * (gth - d) / d
            r = np.sqrt(np.clip(cap, 0.0, hi * hi))
            return (r - k) ** 2 * (root_g * pole[rows, None] / np.cosh(z) ** 2)

        total = np.zeros_like(u)
        live = np.flatnonzero(u < v)
        if live.size:
            total[live] = radius[live] * integrate_rows(segment, live, n_nodes)
        return total

    half = 0.5 * model.region_x
    total = _segment_sum(squares, *crossings, half, model.support_lo, hi, model.half_width)
    return np.clip(total / half, _outage_floor(gth, model), 1.0)


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


# Taylor coefficients of delta**m, odd m from 39 down to 3, of the four
# shapes of _segment_shapes; all are nonnegative, and at delta < 2 the terms
# past m = 39 add less than 1e-17 relative.
_SHAPE_SERIES = tuple(
    tuple(
        c / math.factorial(m)
        for c in (2.0**m - 4.0, 2.0**m, (3.0**m - 3.0) / 2.0 - 2.0**m, 3.0**m / 6.0 - 2.0**m + 3.5)
    )
    for m in range(39, 2, -2)
)


def _segment_shapes(delta: float):
    """sinh(delta) and the shapes A, B, C, P: the integrals over t in
    [-delta, delta] of 2 (cosh t - 1) cosh t, 2 sinh(t)^2,
    sinh(t)^2 (3 cosh t - 2) and (cosh t - 1)^2 cosh t. With d = delta they
    are sinh 2d - 4 sinh d + 2d, sinh 2d - 2d, (sinh 3d - 3 sinh d) / 2 -
    sinh 2d + 2d and sinh 3d / 6 - sinh 2d + 7/2 sinh d - 2d.

    These closed forms cancel as delta shrinks (P by a factor of ~70 at
    delta = 1, ~5 at delta = 2), so below delta = 2 the shapes are summed
    from their Taylor series, whose terms are all nonnegative.
    """
    if delta >= 2.0:
        s1, s2, s3 = math.sinh(delta), math.sinh(2.0 * delta), math.sinh(3.0 * delta)
        return (
            s1,
            s2 - 4.0 * s1 + 2.0 * delta,
            s2 - 2.0 * delta,
            (s3 - 3.0 * s1) / 2.0 - s2 + 2.0 * delta,
            s3 / 6.0 - s2 + 3.5 * s1 - 2.0 * delta,
        )
    y = delta * delta
    a = b = c = p = 0.0
    for ca, cb, cc, cp in _SHAPE_SERIES:
        a, b, c, p = a * y + ca, b * y + cb, c * y + cc, p * y + cp
    cube = y * delta
    return math.sinh(delta), a * cube, b * cube, c * cube, p * cube


def _residual(s: float, k: float, a: float, h_sq: float) -> float:
    """a (s^2 + h^2) - k^2 rounded once: every float is an integer over a
    power of two, so the difference is formed exactly in integers."""
    (na, da), (ns, ds), (nh, dh), (nk, dk) = (v.as_integer_ratio() for v in (a, s, h_sq, k))
    numerator = na * (ns * ns * dh + nh * ds * ds) * dk * dk - nk * nk * da * ds * ds * dh
    return numerator / (da * ds * ds * dh * dk * dk)


def _squares(s1: float, s2: float, k: float, a: float, h_sq: float) -> float:
    """Integral of (r(s) - k)^2 over s in [s1, s2], r(s) = sqrt(a (s^2 + h^2)).

    Put s = h sinh(theta), so that r = R cosh(theta) with R = sqrt(a) h, and
    let mu and delta be the midpoint and the half-width of the segment in
    theta. With d = r(mu) - k, r - k = R (cosh theta - cosh mu) + d, and
    the integral of h (r - k)^2 cosh(theta) is

        (r_mid (r_mid^2 P + q^2 C) + d (r_mid^2 A + q^2 B)
         + 2 d^2 r_mid sinh(delta)) / sqrt(a)

    with r_mid = R cosh mu, q = R sinh mu and (A, B, C, P) the shapes of
    ``_segment_shapes``. Every factor but d is a nonnegative, relatively
    accurate length or shape, and d is the exact residual a (s1^2 + h^2) -
    k^2 plus a (s_mid^2 - s1^2) over r_mid + k. So the sum cancels no more
    than its integrand does, even where k is many sub-region depths: the
    expanded antiderivative a (s^3/3 + h^2 s) - 2 k int r ds + k^2 s loses
    a factor (k / w)^2 to cancellation there. With k = 0 the integrand
    a (s^2 + h^2) is a polynomial, integrated as one.
    """
    if s1 == s2:
        return 0.0
    if not k:
        return a * (s2 - s1) * (s1 * s1 + s1 * s2 + s2 * s2 + 3.0 * h_sq) / 3.0
    # h cosh(theta) at the ends; sinh(2 delta) from the ends without subtracting
    # two thetas, and h cosh(mu), h sinh(mu) by the half-angle formulas
    c1, c2 = math.sqrt(s1 * s1 + h_sq), math.sqrt(s2 * s2 + h_sq)
    ratio = s1 / s2
    delta = 0.5 * math.asinh((s2 - s1) * (1.0 + ratio) / (c1 + ratio * c2))
    c_mid = math.sqrt(0.5 * (h_sq + c1 * c2 + s1 * s2))
    s_mid = (s1 * c2 + s2 * c1) / (2.0 * c_mid)
    half = math.sinh(0.5 * delta)
    lift = 2.0 * (c1 * math.cosh(0.5 * delta) + s1 * half) * half  # s_mid - s1
    root_a = math.sqrt(a)
    r_mid, q = root_a * c_mid, root_a * s_mid
    d = (a * lift * (s_mid + s1) + _residual(s1, k, a, h_sq)) / (r_mid + k)
    sinh_delta, shape_a, shape_b, shape_c, shape_p = _segment_shapes(delta)
    r_sq, q_sq = r_mid * r_mid, q * q
    return (
        r_mid * (r_sq * shape_p + q_sq * shape_c)
        + d * (r_sq * shape_a + q_sq * shape_b)
        + 2.0 * d * d * r_mid * sinh_delta
    ) / root_a


def _outage_floor(gth: float, model: ReducedModel) -> float:
    """:func:`wdma_outage_floor` of the threshold ``gth`` on ``model``."""
    a = gth - 1.0
    if a <= 0.0:
        return 0.0
    h_sq, half = model.pa_height_sq, 0.5 * model.region_x
    total = _segment_sum(
        lambda u, v, k: _squares(u, v, k, a, h_sq), *_crossings(gth, 0.0, model)[:, 0].tolist(),
        half, model.support_lo, model.support_hi, model.half_width,
    )
    return min(max(total / half, 0.0), 1.0)


def wdma_outage_floor(cfg: SystemConfig) -> float:
    """High-SNR outage limit: the interference-only outage averaged over x,
    in closed form.

    Without noise, the outage event given the x-offset s = |x - X/2| caps
    the y-separation at r(s) = sqrt((gamma_th - 1)(s^2 + h^2)), and the
    separation CDF is quadratic in r on each half of its support. So the
    average over s in [0, X/2] is a sum of segment integrals, split at the
    noiseless ``_crossings``. A threshold gamma_th <= 1 gives exactly 0.
    """
    return _outage_floor(cfg.outage_threshold, derive_constants(cfg))


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
