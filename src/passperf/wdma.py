"""Per-waveguide access: outage, average rate and their high-SNR limits.

Each user is served by a dedicated waveguide antenna pinned above it; the
other user's antenna interferes across waveguides. Outage and rate reduce
to one-dimensional integrals over the user's x-offset s = |x - X/2|, taken
in theta = asinh(s/h): g = s^2 + h^2 is (h cosh theta)^2, and the branch
points at s = +-ih lie a quarter turn off the axis however long the region.
The outage and its interference-only floor are one segment sum over the
triangular law of the y-separation, split where the separation threshold
crosses its support: closed-form segments for the floor, the Chebyshev rule
on each segment for the outage. The rate's integrand is even in theta and
evaluated on the nonnegative nodes only. Its log is split into two positive
terms, the second averaged over the y-separation by the positive log-ratio
mean of ``geometry``, so the rate keeps its relative accuracy at low SNR.
Lengths and powers are in the reduced units of ``config.ReducedModel``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import (
    SATURATION_TOL,
    ReducedModel,
    SystemConfig,
    derive_constants,
    over_powers,
    saturated,
    saturation_power,
)
from .geometry import _segment_sum, expected_log1p_ratio, expected_log_excess
from .quadrature import integrate_rows

_LN2 = math.log(2.0)


def _integrate_even(f, rows, n_nodes: int) -> np.ndarray:
    """``integrate_rows`` of an integrand ``f(t, rows)`` that is exactly even
    in t, evaluated on the nonnegative nodes only.

    The rule's nodes are exactly antisymmetric (``chebyshev_rule``), so the
    values on the first (N + 1) // 2 nodes mirrored onto the rest are the
    full-node values bit for bit, and the rule's sum over all N nodes is
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

    Where it is positive the cap grows with g, so each crossing's s^2 is the
    larger root t of A t^2 + B t + C, with A = gamma_th b_noise,
    B = gamma_th - 1 + (k^2 + 2 h^2) A and C = (gamma_th - 1) h^2 - k^2 +
    A h^2 (h^2 + k^2), its noiseless part the exact ``_residual``: -2C / (B + D)
    where B > 0, else (D - B) / (2A), with D^2 = (B - 2 A h^2)^2 + 4 A k^2.
    So neither form cancels, no rounded g = t + h^2 loses t to h^2, and with
    no noise it is -C / (gamma_th - 1) bit for bit. A C >= 0 puts the
    crossing at s = 0. The cap diverges as e nears 1, past the crossing of hi^2.
    """
    h_sq = model.pa_height_sq
    k = [model.support_lo, model.peak, model.support_hi]
    c = np.square(np.array(k)[:, None])
    residual = np.array([[_residual(0.0, k_i, gth - 1.0, h_sq)] for k_i in k])
    a = gth * b_noise
    ac = c * gth * b_noise  # from c first: 0, not 0 * inf, where k = 0
    root = np.hypot(gth - 1.0 + ac, 2.0 * np.sqrt(ac))
    b = gth - 1.0 + ac + 2.0 * a * h_sq
    # a C >= 0, +inf where it overflows, puts the crossing at s = 0
    constant = np.minimum(residual + a * h_sq * (h_sq + c), 0.0)
    rising = b > 0.0
    # root - min(b, 0) is root - b where it is taken, and never inf - inf
    numerator = np.where(rising, -2.0 * constant, root - np.minimum(b, 0.0))
    t = numerator / np.where(rising, b + root, 2.0 * a)
    crossings = np.minimum(np.sqrt(np.maximum(t, 0.0)), 0.5 * model.region_x)
    return np.maximum.accumulate(crossings)  # in order, however they round


def _outage_saturation(gth: float, noise_per_power: float, model: ReducedModel, floor: float):
    """The reduced power from which ``wdma_outage`` is its ``floor`` to
    within SATURATION_TOL relative: the lower of two bounds' thresholds.

    With b = ``noise_per_power`` / P and e = gamma_th b g, the cap r^2
    exceeds its noiseless value r0^2 = g (gamma_th - 1) by
    gamma_th^2 b g^2 / (1 - e). Both bounds fall as 1/P:

    - where e <= 1/2 at the largest squared distance g_max = h^2 + (X/2)^2,
      r - r0 <= (r^2 - r0^2) / (2 r0), and the triangular density is at most
      1/w, so the outage less the floor is at most
      gamma_th^2 b g_max^(3/2) / (w sqrt(gamma_th - 1));
    - the density is also at most rho / w^2 on both halves, so the CDF
      grows from r0 to r by at most (r^2 - r0^2) / (2 w^2), and only the
      x-offsets below the noiseless crossing s3 of hi add to the excess,
      where e <= e3 = gamma_th b (s3^2 + h^2). So the excess is at most
      b K / (1 - e3), K = gamma_th^2 int_0^s3 g^2 ds / (X w^2), which is
      at most SATURATION_TOL times the floor where
      b K / (SATURATION_TOL floor) + e3 <= 1.

    No row saturates where gamma_th <= 1 or the floor is 0.
    """
    if not (gth > 1.0 and floor > 0.0):
        return math.inf
    h_sq, w = model.pa_height_sq, model.half_width
    g_max = h_sq + model.centre_sq
    bound = gth * math.sqrt(g_max) / (w * math.sqrt(gth - 1.0))
    s3 = _crossings(gth, 0.0, model)[2, 0].item()
    g3 = s3 * s3 + h_sq
    # int_0^s3 g^2 ds = s3 g3^2 (a^2 / 5 + 2 a c / 3 + c^2), a = s3^2 / g3, c = h^2 / g3
    a, c = s3 * s3 / g3, h_sq / g3
    # K's factors in falling order: no partial product underflows unless K does
    factors = (gth, gth, s3 / model.region_x, g3 / w, g3 / w, a * a / 5.0 + 2.0 * a * c / 3.0 + c * c)
    reach = math.prod(sorted(factors, reverse=True))
    scale = min(gth * g_max * max(bound / floor / SATURATION_TOL, 2.0),
                reach / floor / SATURATION_TOL + gth * g3)
    return saturation_power(noise_per_power, scale)


@over_powers
def wdma_outage(cfg: SystemConfig, model: ReducedModel, powers, n_nodes: int = 64, user: int = 1):
    """Outage probability of ``user`` at transmit power ``power_w`` (a scalar
    or a 1-D array): the floor's segment sum, with the separation threshold
    r(s) the square root of the cap of ``_crossings``; exactly 1 where the
    cap saturates at s = 0, and clamped to [floor, 1] against rounding.
    From the power of ``_outage_saturation`` on, it is the floor.

    Each segment integral of (r - k)^2 takes ``n_nodes`` Chebyshev nodes in
    zeta, with s = h sinh(theta) and theta = pole tanh(zeta): the sinh moves
    the branch points of r at s = +-ih a quarter turn off the real axis, and
    the tanh moves the cap's pole at e = 1 (``pole`` in theta, but at most
    that of s = 1, beyond every reduced length, and past the last crossing
    however it rounds) to infinity, however near the segment they lie.
    """
    gth, floor = cfg.outage_threshold, wdma_outage_floor(cfg)
    noise = 2.0 * model.noise(user)
    p_sat = _outage_saturation(gth, noise / model.eta_m2, model, floor)
    return saturated(
        lambda p: _outage(gth, noise / (model.eta_m2 * p), model, n_nodes, floor), powers, p_sat, floor
    )


def _outage(gth: float, b_noise, model: ReducedModel, n_nodes: int, floor: float):
    """``wdma_outage`` at the noise coefficients ``b_noise``, before saturation."""
    hi, h = model.support_hi, math.sqrt(model.pa_height_sq)
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
    return np.clip(total / half, floor, 1.0)


def _over_x(inner, rows, model: ReducedModel, n_nodes: int) -> np.ndarray:
    """The mean over the x-offset s of ``inner(g, rows)``, g = s^2 + h^2, one
    row per entry of the 1-D ``rows``: s = h sinh(theta t) with theta =
    asinh(X / 2h), so the mean is the integral over t of the integrand times
    ds/dt / X, and g is the product (h cosh(theta t))^2, a (1, nodes) row."""
    h = math.sqrt(model.pa_height_sq)
    theta = math.asinh(0.5 * model.region_x / h)

    def integrand(t, block):
        root_g = h * np.cosh(theta * t[None, :])
        return inner(root_g * root_g, block) * (root_g * theta / model.region_x)

    return _integrate_even(integrand, rows, n_nodes)


@over_powers
def wdma_avg_rate(cfg: SystemConfig, model: ReducedModel, powers, n_nodes: int = 64, user: int = 1):
    """Average achievable rate of ``user`` in bits/s/Hz at transmit power
    ``power_w`` (a scalar or a 1-D array).

    With the noise coefficient N = b_noise and g = s^2 + h^2, the SINR is
    (1/g) / (1/(g + U^2) + N), and exactly

        ln(1 + sinr) = ln(1 + 1/(N g)) - ln(1 + delta / (g' + U^2)),
        delta = 1 / (N (1 + N g)),  g' = g (2 + N g) / (1 + N g),

    two positive terms, the second averaged over the y-separation by
    ``expected_log1p_ratio``. Nothing cancels where the rate is tiny; at
    high SNR both terms grow like ln(1/N), and their difference keeps about
    eps ln(1/(N g)) absolute. The outer x-average uses the Chebyshev rule.
    Where the rate meets its ceiling or zero, rounding can leave it a few
    ulps outside; the value is clamped to [0, ceiling] there.

    With b = b_noise, ln(1 + sinr) = ln(1/v + 1/g + b) - ln(1/v + b) at
    v = g + U^2 is convex and decreasing in b, so it falls short of its
    ceiling's b = 0 value by at most b v^2 / (g + v) < b v_max, v_max =
    (X/2)^2 + h^2 + hi^2. From the power where b v_max / ln 2 is
    SATURATION_TOL times the ceiling on, the rate is the ceiling.
    """
    ceiling = wdma_rate_ceiling(cfg, n_nodes)
    noise, hi = 2.0 * model.noise(user), model.support_hi
    v_max = model.centre_sq + model.pa_height_sq + hi * hi
    p_sat = saturation_power(noise / model.eta_m2, v_max / (SATURATION_TOL * _LN2 * ceiling))

    def nats(g, b_noise):
        # ln(1 + 1/(N g)) less the mean of ln(1 + delta / (g' + U^2))
        n = b_noise[:, None]
        n_g = n * g
        plus = 1.0 + n_g
        mean = expected_log1p_ratio(g * (1.0 + plus) / plus, 1.0 / (n * plus), model)
        return np.log1p(1.0 / n_g) - mean

    def rate(powers):
        b_noise = noise / (model.eta_m2 * powers)
        return np.clip(_over_x(nats, b_noise, model, n_nodes) / _LN2, 0.0, ceiling)

    return saturated(rate, powers, p_sat, ceiling)


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


@lru_cache(maxsize=128)
def wdma_outage_floor(cfg: SystemConfig) -> float:
    """High-SNR outage limit: the interference-only outage averaged over x,
    in closed form.

    Without noise, the outage event given the x-offset s = |x - X/2| caps
    the y-separation at r(s) = sqrt((gamma_th - 1)(s^2 + h^2)), and the
    separation CDF is quadratic in r on each half of its support. So the
    average over s in [0, X/2] is a sum of segment integrals, split at the
    noiseless ``_crossings``. A threshold gamma_th <= 1 gives exactly 0.
    Cached per config: it does not depend on power, and every
    ``wdma_outage`` call clamps to it and saturates at it.
    """
    return _outage_floor(cfg.outage_threshold, derive_constants(cfg))


@lru_cache(maxsize=128)
def wdma_rate_ceiling(cfg: SystemConfig, n_nodes: int = 64) -> float:
    """High-SNR rate limit in bits/s/Hz (at least 1: the interference-only
    SINR never falls below one; where the region is so long that the SINR
    is one almost everywhere, rounding is kept from leaving it below).

    Without noise the first term of ``wdma_avg_rate``'s split is infinite,
    so the ceiling averages ln((2g + U^2) / g) = ln 2 + ln(1 + U^2 / (2g))
    instead, the second term by ``expected_log_excess``, which is accurate
    when U^2 / (2g) is tiny. Cached per (config, order): it does not depend
    on power, and every ``wdma_avg_rate`` call caps its value at it.
    """
    model = derive_constants(cfg)

    def nats(g, rows):
        return _LN2 + expected_log_excess(2.0 * g, 1.0, model)

    return max(1.0, (_over_x(nats, np.zeros(1), model, n_nodes) / _LN2).item())
