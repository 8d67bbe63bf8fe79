"""Independent numerical oracles shared across test modules.

This module holds the suite's one high-precision reference of each metric
and limit, in mpmath from the ``SystemConfig`` fields in metres (one
``mp_model``), with the float power that the package receives taken as
exact. ``mp_wdma_outage``, whose zero-noise case (``power_w = inf``) is the
outage floor, and ``mp_cap_root`` are read by ``test_wdma``'s floor, outage
and crossing tests. ``mp_wdma_rate``, whose zero-noise case is the rate
ceiling, generated ``test_wdma.MP_WDMA_RATES`` and reproduces
``MP_RATE_CEILINGS``. ``mp_noma_outages``, ``mp_near_rate`` and
``mp_far_rate`` are read by ``test_noma``, ``mp_far_rate`` and
``near_rate_series`` (two terms of the near rate's low-SNR expansion, with
a bound on the rest) by ``test_quadrature``.

Two float oracles recompute quantities from raw definitions for the
acceptance suite: ``far_outage_trapezoid`` by dense trapezoid grids, and
``wdma_rate_quad2d`` by nested adaptive scipy quadrature, which
``test_wdma`` and ``test_quadrature`` also read. The densities of the
separation and of the near and far users' x-coordinates, and the CDF of the
near user's squared x-offset, are the reference laws of the sampling tests,
with the CDFs of the separation and of its square.
``DiffDistribution``, ``g_axis`` and ``outage_radii_sq`` give the separation
law, the squared axis distance and the NOMA outage radii in metres, from
the config fields, where the package works in reduced units.
``sinr_trials`` addresses the simulator's per-trial SINRs by trial index.
``bisect_crossover`` is a plain scalar bisection with the end rule of
``find_crossover``, run to any tolerance: to 1e-9 dB it gives the root that
the grid-and-secant search of ``find_crossover`` must land within
``CROSSOVER_TOL_DB / 2`` of, and it raises ``NumericalError`` at a
non-finite difference at any SNR it reads, as the search does.
``table_rows`` expands a sweep table into one ``SweepRow`` per line, the
earlier row route of ``run_sweep``, and ``csv_writer_text`` writes such
rows through ``csv.writer``: the route that ``write_csv`` must match byte
for byte.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from passperf import (
    SystemConfig,
    derive_constants,
    sinr,
    snr_db_to_power_w,
)
from passperf.config import SPEED_OF_LIGHT_M_S
from passperf.montecarlo import _draw
from passperf.sweep import (
    CELLS,
    CROSSOVER_METRICS,
    CROSSOVER_TOL_DB,
    CSV_HEADER,
    NumericalError,
    SweepRow,
)


def _maybe_scalar(arr):
    arr = np.asarray(arr)
    return arr.item() if arr.ndim == 0 else arr


@dataclass(frozen=True)
class DiffDistribution:
    """Triangular law of the y-separation between the two users, in metres.

    The separation u = y_ue1 - y_ue2 is supported on
    [2*offset, 2*offset + 2*half_width] with its peak at the midpoint.
    """

    half_width: float  # sub-region depth (region_y_m)
    offset: float  # sub-region gap from the axis (region_y_offset_m)

    @property
    def support_lo(self) -> float:
        return 2.0 * self.offset

    @property
    def support_hi(self) -> float:
        return 2.0 * self.offset + 2.0 * self.half_width

    @property
    def peak(self) -> float:
        return 2.0 * self.offset + self.half_width


def diff_distribution(cfg: SystemConfig) -> DiffDistribution:
    return DiffDistribution(half_width=cfg.region_y_m, offset=cfg.region_y_offset_m)


def g_axis(x, cfg: SystemConfig):
    """Squared antenna-to-user distance projected on the axis plane in m^2,
    (x - region_x_m/2)^2 + pa_height_m^2; accepts arrays."""
    x = np.asarray(x, dtype=float)
    return _maybe_scalar((x - 0.5 * cfg.region_x_m) ** 2 + cfg.pa_height_m * cfg.pa_height_m)


def outage_radii_sq(cfg: SystemConfig, power_w):
    """The NOMA outage radii (c1, c2) in m^2 at ``power_w``, from the config
    fields: the near user is out when its squared distance exceeds c1 + h^2,
    the far user when it exceeds c2 + h^2. The arithmetic is the package's,
    in metres, so that the values agree to the last bit."""
    eta = SPEED_OF_LIGHT_M_S**2 / (16.0 * math.pi**2 * (cfg.carrier_freq_hz * cfg.carrier_freq_hz))
    dbm = (cfg.noise_power_dbm_ue1, cfg.noise_power_dbm_ue2)
    n1, n2 = (10.0 ** ((value - 30.0) / 10.0) for value in dbm)
    gth, h_sq = cfg.outage_threshold, cfg.pa_height_m * cfg.pa_height_m
    c1 = eta * cfg.noma_alpha_near * power_w / (gth * n1) - h_sq
    c2 = (
        eta * cfg.noma_alpha_far * power_w / (gth * n2)
        - eta * cfg.noma_alpha_near * power_w / n2
        - h_sq
    )
    return c1, c2


def random_config(rng: np.random.Generator) -> SystemConfig:
    """A geometrically diverse but otherwise sane configuration."""
    alpha_near = rng.uniform(0.05, 0.3)
    return SystemConfig(
        carrier_freq_hz=rng.uniform(6e9, 60e9),
        pa_height_m=rng.uniform(1.5, 6.0),
        region_x_m=rng.uniform(4.0, 20.0),
        region_y_m=rng.uniform(3.0, 30.0),
        outage_threshold=rng.uniform(1.2, 3.0),
        noma_alpha_near=alpha_near,
        noma_alpha_far=1.0 - alpha_near,
    )


def random_offset_config(rng: np.random.Generator) -> SystemConfig:
    """A random configuration with sub-regions dispersed 0.5-15 m off the axis."""
    return replace(random_config(rng), region_y_offset_m=rng.uniform(0.5, 15.0))


def diff_pdf(u, dist: DiffDistribution):
    """Density of the y-separation (triangular)."""
    w = dist.half_width
    v = np.asarray(u, dtype=float) - dist.support_lo
    rising = (v > 0.0) & (v <= w)
    falling = (v > w) & (v < 2.0 * w)
    out = np.zeros_like(v)
    out = np.where(rising, v / w**2, out)
    out = np.where(falling, (2.0 * w - v) / w**2, out)
    return _maybe_scalar(out)


def diff_cdf(u, dist):
    """CDF of the y-separation (triangular)."""
    w = dist.half_width
    v = np.asarray(u, dtype=float) - dist.support_lo
    lower = np.clip(v, 0.0, w)
    upper = np.clip(2.0 * w - v, 0.0, w)
    return np.where(v <= w, lower**2 / (2.0 * w * w), 1.0 - upper**2 / (2.0 * w * w))


def sq_diff_cdf(y, dist):
    """CDF of the squared y-separation.

    Equals the triangular CDF evaluated at sqrt(y); with zero offset this is
    the four-piece form y/(2 w^2) on (0, w^2], (4 w sqrt(y) - y)/(2 w^2) - 1
    on (w^2, 4 w^2], clamped to 0 and 1 outside.
    """
    y = np.asarray(y, dtype=float)
    r = np.sqrt(np.clip(y, 0.0, None))
    return np.where(y <= 0.0, 0.0, diff_cdf(r, dist))


def near_coord_cdf_g(g, cfg: SystemConfig):
    """CDF of the squared x-offset of the near (ordered) user."""
    dx = cfg.region_x_m
    m4 = (0.5 * dx) ** 2
    g = np.asarray(g, dtype=float)
    gc = np.clip(g, 0.0, m4)
    root = np.sqrt(gc)
    out = np.where(g <= 0.0, 0.0, np.where(g >= m4, 1.0, 4.0 * root / dx - 4.0 * gc / dx**2))
    return _maybe_scalar(out)


def near_pdf(x, cfg: SystemConfig):
    """Density of the near user's x-coordinate: 2/D - 4|x - D/2|/D^2 on [0, D]."""
    dx = cfg.region_x_m
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= dx)
    val = 2.0 / dx - 4.0 * np.abs(x - 0.5 * dx) / dx**2
    return _maybe_scalar(np.where(inside, val, 0.0))


def far_pdf(x, cfg: SystemConfig):
    """Density of the far user's x-coordinate: 4|x - D/2|/D^2 on [0, D]."""
    dx = cfg.region_x_m
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= dx)
    val = 4.0 * np.abs(x - 0.5 * dx) / dx**2
    return _maybe_scalar(np.where(inside, val, 0.0))


def _triangular_density(u: float, lo: float, w: float) -> float:
    v = u - lo
    return v / w**2 if v <= w else (2.0 * w - v) / w**2


def far_outage_trapezoid(cfg: SystemConfig, power_w: float, n_m: int = 4001, n_a: int = 4001) -> float:
    """Far-user outage by dense trapezoid integration over (x-offset, y-separation).

    The inner tail probability integrates the triangular separation density,
    supported on [lo, lo + 2w] with lo twice the sub-region offset, on a grid
    containing its kink; the outer integral runs over the squared x-offset
    with the analytical breakpoints added to the grid.
    """
    _, c2 = outage_radii_sq(cfg, power_w)
    m4 = (0.5 * cfg.region_x_m) ** 2
    w = cfg.region_y_m
    lo = 2.0 * cfg.region_y_offset_m
    hi = lo + 2.0 * w
    if c2 <= lo**2:
        return 1.0
    if c2 >= m4 + hi**2:
        return 0.0
    breakpoints = [v for v in (c2 - hi**2, c2 - (lo + w) ** 2, c2 - lo**2) if 0.0 < v < m4]
    m_grid = np.unique(np.concatenate([np.linspace(0.0, m4, n_m), np.asarray(breakpoints)]))

    def tail(m: float) -> float:
        r_sq = c2 - m
        if r_sq <= lo**2:
            return 1.0
        r = math.sqrt(r_sq)
        if r >= hi:
            return 0.0
        extra = [lo + w] if r < lo + w else []
        pts = np.unique(np.concatenate([np.linspace(r, hi, n_a), np.asarray(extra)]))
        density = np.where(pts <= lo + w, (pts - lo) / w**2, (hi - pts) / w**2)
        return float(np.trapezoid(density, pts))

    values = np.asarray([tail(m) for m in m_grid])
    return 4.0 / cfg.region_x_m**2 * float(np.trapezoid(values, m_grid))


def wdma_rate_quad2d(cfg: SystemConfig, power_w: float, user: int = 1) -> float:
    """WDMA average rate by nested adaptive quadrature from the SINR definition."""
    dc = derive_constants(cfg)
    sigma2 = dc.noise_w_ue1 if user == 1 else dc.noise_w_ue2
    b_noise = 2.0 * sigma2 / (dc.eta_m2 * power_w)
    w = cfg.region_y_m
    lo = 2.0 * cfg.region_y_offset_m
    dx = cfg.region_x_m
    h_sq = cfg.pa_height_m**2

    def inner(x: float) -> float:
        g = (x - 0.5 * dx) ** 2 + h_sq

        def f(u: float) -> float:
            sinr = (1.0 / g) / (1.0 / (g + u * u) + b_noise)
            return math.log2(1.0 + sinr) * _triangular_density(u, lo, w)

        value, _ = quad(f, lo, lo + 2.0 * w, points=[lo + w], limit=200, epsabs=1e-13, epsrel=1e-12)
        return value

    value, _ = quad(inner, 0.0, dx, limit=200, epsabs=1e-12, epsrel=1e-11)
    return value / dx


MpModel = namedtuple("MpModel", "eta noise h_sq half lo w peak hi")


def mp_model(cfg: SystemConfig) -> MpModel:
    """``cfg`` in mpmath at the working precision: the path-gain factor
    eta = (c / f)^2 / (16 pi^2) in m^2, both users' noise powers in W, h^2,
    X/2, and the separation's support lo, its half-width w, peak and hi."""
    import mpmath

    return _mp_model(cfg, mpmath.mp.prec)


@lru_cache(maxsize=64)
def _mp_model(cfg: SystemConfig, prec: int) -> MpModel:
    import mpmath

    mp = mpmath.mp
    with mpmath.workprec(prec):
        eta = (mp.mpf(SPEED_OF_LIGHT_M_S) / mp.mpf(cfg.carrier_freq_hz)) ** 2 / (16 * mp.pi**2)
        dbm = (cfg.noise_power_dbm_ue1, cfg.noise_power_dbm_ue2)
        noise = tuple(mp.mpf(10) ** ((mp.mpf(value) - 30) / 10) for value in dbm)
        lo, w = 2 * mp.mpf(cfg.region_y_offset_m), mp.mpf(cfg.region_y_m)
        h_sq, half = mp.mpf(cfg.pa_height_m) ** 2, mp.mpf(cfg.region_x_m) / 2
        return MpModel(eta, noise, h_sq, half, lo, w, lo + w, lo + 2 * w)


def mp_cap_root(gth, a, k_sq):
    """The squared distance g at which the WDMA outage's cap
    g (gamma_th - 1 + a g) / (1 - a g) on the squared separation reaches
    ``k_sq``, with a = gamma_th b: the positive root of
    a g^2 + (gamma_th - 1 + a k^2) g - k^2, in a form that does not cancel;
    inf where the cap never reaches it (a = 0 and gamma_th <= 1)."""
    import mpmath

    linear = gth - 1 + a * k_sq
    root = mpmath.sqrt(linear * linear + 4 * a * k_sq)
    if linear > 0:
        return 2 * k_sq / (linear + root)
    return (root - linear) / (2 * a) if a else mpmath.inf


def mp_wdma_outage(cfg: SystemConfig, power_w: float, user: int = 1, dps: int = 40):
    """The WDMA outage of ``user`` as an mpmath number with ``dps`` digits;
    at ``power_w`` = inf, without noise, the outage floor.

    ``mp.quad`` over the x-offset s in [0, X/2] of the triangular CDF at the
    separation threshold r(s) = sqrt(g (gamma_th - 1 + e) / (1 - e)), with
    g = s^2 + h^2, e = gamma_th b g and b = 2 sigma^2 / (eta P), and of 1
    where e >= 1. It is split where r crosses lo, the peak and hi, at the
    roots of ``mp_cap_root``.
    """
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(dps):
        m = mp_model(cfg)
        gth = mp.mpf(cfg.outage_threshold)
        a = gth * 2 * m.noise[user - 1] / (m.eta * mp.mpf(power_w))  # e / g

        def outage(s):
            g = s * s + m.h_sq
            if a * g >= 1:
                return mp.mpf(1)
            r = mp.sqrt(max(g * (gth - 1 + a * g) / (1 - a * g), 0))
            if r <= m.lo:
                return mp.mpf(0)
            if r <= m.peak:
                return (r - m.lo) ** 2 / (2 * m.w * m.w)
            return 1 - (m.hi - r) ** 2 / (2 * m.w * m.w) if r <= m.hi else mp.mpf(1)

        offsets = (mp_cap_root(gth, a, k * k) - m.h_sq for k in (m.lo, m.peak, m.hi))
        breaks = {mp.mpf(0), m.half, *(mp.sqrt(t) for t in offsets if 0 < t < m.half**2)}
        return mp.quad(outage, sorted(breaks)) / m.half


def _mp_hat_log1p(p, r):
    """int_0^p (p - t) ln(1 + r t^2) dt = p^2 phi(y), y = p sqrt(r), with
    phi(y) = ln(1 + y^2) (y^2 - 1) / (2 y^2) - 3/2 + 2 arctan(y) / y. phi
    cancels to y^2 / 12 as y falls, so it takes -2 log10(y) more digits."""
    import mpmath

    mp = mpmath.mp
    if not (p and r):
        return mp.mpf(0)
    with mpmath.extradps(5 + max(0, int(-mp.log10(r * p * p)))):
        y_sq = r * p * p
        y = mp.sqrt(y_sq)
        return p * p * (mp.log1p(y_sq) * (y_sq - 1) / (2 * y_sq) - mp.mpf(3) / 2 + 2 * mp.atan(y) / y)


def _mp_log_mean(r, m: MpModel):
    """E[ln(1 + r U^2)] over the triangular law of the separation U: the
    second difference of ``_mp_hat_log1p`` over lo, the peak and hi, over
    w^2."""
    hat = [_mp_hat_log1p(p, r) for p in (m.lo, m.peak, m.hi)]
    return (hat[0] - 2 * hat[1] + hat[2]) / (m.w * m.w)


def mp_wdma_rate(cfg: SystemConfig, power_w: float, user: int = 1, dps: int = 40):
    """The WDMA rate of ``user`` in bits/s/Hz as an mpmath number with
    ``dps`` digits; at ``power_w`` = inf, without noise, the rate ceiling.

    With the noise coefficient N = 2 sigma^2 / (eta P) and g = s^2 + h^2,
    1 + sinr = (A1 + B1 u^2) / (A2 + B2 u^2), with A1 = g (2 + N g),
    B1 = 1 + N g, A2 = g (1 + N g) and B2 = N g. So the separation mean of
    ln(1 + sinr) is ln(A1 / A2) + E[ln(1 + r1 U^2)] - E[ln(1 + r2 U^2)],
    r = B / A, each mean in closed form (``_mp_log_mean``). Where the rate is
    small its terms cancel about log10(1 + N g) digits, and the second
    differences 2 log10(hi / w), which the integrand's precision adds. One
    ``mp.quad`` over the x-offset s in [0, X/2], split at h, 4h, 16h and 64h
    inside it, where the integrand varies on the scale h of its branch
    points s = +-ih.
    """
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(dps):
        m = mp_model(cfg)
        n = 2 * m.noise[user - 1] / (m.eta * mp.mpf(power_w))
        lost = int(mp.log10(1 + n * (m.h_sq + m.half**2)) + 2 * mp.log10(m.hi / m.w))

        def nats(s):
            with mpmath.extradps(10 + lost):
                g = s * s + m.h_sq
                n_g = n * g
                return (mp.log((2 + n_g) / (1 + n_g)) + _mp_log_mean((1 + n_g) / (g * (2 + n_g)), m)
                        - _mp_log_mean(n / (1 + n_g), m))

        h = mp.sqrt(m.h_sq)
        splits = [mp.mpf(0), *(k * h for k in (1, 4, 16, 64) if k * h < m.half), m.half]
        return mp.quad(nats, splits) / m.half / mp.log(2)


def mp_noma_outages(cfg: SystemConfig, power_w: float, radii=None, dps: int = 50):
    """Both NOMA outages (near, far) as mpmath numbers with ``dps`` digits,
    at the outage radii (c1, c2) of ``outage_radii_sq``: formed in mpmath at
    ``power_w``, or the floats ``radii`` taken as exact, so that only the
    rounding of the closed forms is measured.

    The near user's x-offset t has the density 2 (c - t) / c^2 on [0, c],
    c = X/2, so its outage P(t^2 > c1) is (1 - sqrt(c1) / c)^2. The far
    user's squared x-offset m is uniform on [0, c^2], and it is out where
    U > r = sqrt(c2 - m), or m >= c2. In r, dm = 2 r dr, so each piece of the
    triangular law's tail integrates as a polynomial in r, a route apart from
    the package's antiderivative in m.
    """
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(dps):
        m = mp_model(cfg)
        if radii is None:
            gth = mp.mpf(cfg.outage_threshold)
            k1, k2 = (m.eta * mp.mpf(share) * mp.mpf(power_w)
                      for share in (cfg.noma_alpha_near, cfg.noma_alpha_far))
            radii = (k1 / (gth * m.noise[0]) - m.h_sq, (k2 / gth - k1) / m.noise[1] - m.h_sq)
        c1, c2 = (mp.mpf(c) for c in radii)
        c_sq = m.half**2
        near = (1 - mp.sqrt(min(max(c1, 0), c_sq)) / m.half) ** 2

        def squares(k, u, v):  # int_u^v 2 r (r - k)^2 dr
            return sum(sign * (r**4 / 2 - 4 * k * r**3 / 3 + k * k * r * r) for sign, r in ((1, v), (-1, u)))

        pieces = (
            (0, m.lo, lambda u, v: v * v - u * u),
            (m.lo, m.peak, lambda u, v: v * v - u * u - squares(m.lo, u, v) / (2 * m.w * m.w)),
            (m.peak, m.hi, lambda u, v: squares(m.hi, u, v) / (2 * m.w * m.w)),
        )
        top, bottom = mp.sqrt(max(c2, 0)), mp.sqrt(max(c2 - c_sq, 0))
        total = c_sq - min(max(c2, 0), c_sq)
        for a, b, piece in pieces:
            if max(a, bottom) < min(b, top):
                total += piece(max(a, bottom), min(b, top))
        return near, total / c_sq


def mp_near_rate(cfg: SystemConfig, power_w: float, dps: int = 40):
    """The NOMA near user's rate in bits/s/Hz as an mpmath number with
    ``dps`` digits.

    Its x-offset t has the density 2 (c - t) / c^2 on [0, c], c = X/2, so
    with k = eta alpha_near P / sigma_1^2 and A = h^2 + k the rate is
    (2 / c^2) int_0^c (c - t) ln((A + t^2) / (h^2 + t^2)) dt / ln 2 =
    (ln(A / h^2) + 2 (phi(c / sqrt(A)) - phi(c / h))) / ln 2, with the phi
    of ``_mp_hat_log1p``. The terms cancel about log10(1 + h^2 / k) digits
    where the rate is small, and log10(1 + c / h) on regions long against
    the antenna height, where the rate tends to 2 pi (sqrt(A) - h) / (c ln 2).
    """
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(dps):
        m = mp_model(cfg)
        k = m.eta * mp.mpf(cfg.noma_alpha_near) * mp.mpf(power_w) / m.noise[0]
        lost = int(mp.log10(1 + m.h_sq / k) + mp.log10(1 + m.half / mp.sqrt(m.h_sq)))
        with mpmath.extradps(10 + lost):
            a = m.h_sq + k
            hats = _mp_hat_log1p(m.half, 1 / a) - _mp_hat_log1p(m.half, 1 / m.h_sq)
            rate = (mp.log(a / m.h_sq) + 2 * hats / m.half**2) / mp.log(2)
        return +rate


def mp_far_rate(cfg: SystemConfig, power_w: float, dps: int = 40):
    """The far user's NOMA rate in bits/s/Hz as an mpmath number with
    ``dps`` correct digits.

    Its SINR is k2 / (k1 + h^2 + m + U^2), with k = eta * share * power /
    noise_ue2. The squared x-offset m is uniform on [0, C], C = (X/2)^2,
    and ln(1 + k2 / (a1 + m + u)) integrates over m in closed form: with
    Lambda(x) = (x + C) ln(x + C) - x ln(x), a1 = k1 + h^2 and a2 = a1 + k2,
    the rate is E[Lambda(a2 + U^2) - Lambda(a1 + U^2)] / (C ln 2). The mean
    over the triangular separation takes ``mp.quad`` on either side of its
    peak, split at the square roots of a1, a2, a1 + C and a2 + C and
    geometrically below them (``_splits``). The difference of Lambda
    values cancels up to ~log10 of its terms over k2 C digits, which the
    working precision adds to ``dps``. Where k2 and the squared lengths
    v = m + U^2 of the region are below 10^-dps of a1, ln(1 + k2 / (a1 + v))
    is k2 / a1 to ``dps`` digits, and so is the rate k2 / (a1 ln 2).
    """
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(dps):
        m = mp_model(cfg)
        snr, c = m.eta * mp.mpf(power_w) / m.noise[1], m.half**2
        a1, k2 = mp.mpf(cfg.noma_alpha_near) * snr + m.h_sq, mp.mpf(cfg.noma_alpha_far) * snr
        if (k2 + c + m.hi * m.hi) / a1 < mp.mpf(10) ** -dps:
            return k2 / (a1 * mp.log(2))
        top = snr + m.h_sq + c + m.hi * m.hi
        lost = mp.log10(top * top * (1 + abs(mp.log(top))) / (snr * mp.mpf(cfg.noma_alpha_far) * c))
    with mpmath.workdps(dps + max(0, int(mp.ceil(lost)))):
        m = mp_model(cfg)
        snr, c = m.eta * mp.mpf(power_w) / m.noise[1], m.half**2
        a1 = mp.mpf(cfg.noma_alpha_near) * snr + m.h_sq
        a2 = a1 + mp.mpf(cfg.noma_alpha_far) * snr

        def lam(x):
            return (x + c) * mp.log(x + c) - x * mp.log(x)

        def excess(u):
            return lam(a2 + u * u) - lam(a1 + u * u)

        # the integrand varies on the scales sqrt(a) of its branch points
        # +-i sqrt(a), which can lie decades below the sub-region depth
        scales = sorted({mp.sqrt(a) for a in (a1, a1 + c, a2, a2 + c)})
        rise = mp.quad(lambda u: (u - m.lo) * excess(u), _splits(m.lo, m.peak, scales))
        fall = mp.quad(lambda u: (m.hi - u) * excess(u), _splits(m.peak, m.hi, scales))
        rate = (rise + fall) / (m.w * m.w) / (c * mp.log(2))
    with mpmath.workdps(dps):
        return +rate


def near_rate_series(cfg: SystemConfig, power_w: float, dps: int = 30):
    """The near user's average rate in bits/s/Hz to two terms in its SNR
    coefficient k = eta alpha_near P / sigma_1^2, and a bound on the rest:
    ``(rate, remainder)`` as floats, from the config fields in mpmath.

    With D = h^2 + t^2 and the near user's x-offset t of density
    (2/c)(1 - t/c) on [0, c], c = X/2, ln(1 + k/D) = k/D - k^2/(2 D^2) +
    k^3/(3 D^3) - ... alternates with falling terms while k < h^2 <= D, so
    its mean is R ln 2 = k c1 - k^2 c2 to within k^3 E[1/D^3] / 3
    <= k^3 E[1/D] / (3 h^4), with c1 = E[1/D] and c2 = E[1/D^2] / 2. Over
    the density,
    - E[1/D] = (2/c) (arctan(c/h) / h - ln(1 + c^2/h^2) / (2c)), from
      int dt / (h^2 + t^2) = arctan(t/h) / h and
      int t dt / (h^2 + t^2) = ln(h^2 + t^2) / 2;
    - E[1/D^2] = arctan(c/h) / (c h^3): int_0^c dt / D^2 =
      c / (2 h^2 (h^2 + c^2)) + arctan(c/h) / (2 h^3) and
      int_0^c t dt / D^2 = c^2 / (2 h^2 (h^2 + c^2)), whose (1/c) multiple
      cancels the first part exactly.
    The two terms of E[1/D] cancel about (c/h)^2 of their digits on regions
    short against the antenna height, which the working precision covers.
    """
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(dps):
        m = mp_model(cfg)
        k = m.eta * mp.mpf(cfg.noma_alpha_near) * mp.mpf(power_w) / m.noise[0]
        h, c = mp.sqrt(m.h_sq), m.half
        mean_1 = 2 / c * (mp.atan(c / h) / h - mp.log1p((c / h) ** 2) / (2 * c))
        mean_2 = mp.atan(c / h) / (c * h**3)
        rate = (k * mean_1 - k * k * mean_2 / 2) / mp.log(2)
        remainder = k**3 * mean_1 / (3 * h**4 * mp.log(2))
        return float(rate), float(remainder)


def _splits(lo, hi, scales):
    """[lo, ..., hi] split at the ``scales`` inside (lo, hi). Where the
    smallest scale is far below hi - lo, also at lo + (hi - lo) / 2^k down
    to a quarter of it, so that ``mp.quad`` sees each octave of the
    integrand's 1/u-like tail on its own."""
    points = {x for x in scales if lo < x < hi}
    step, floor = hi - lo, min(scales) / 4
    if step > 64 * floor:
        while step > floor:
            step /= 2
            points.add(lo + step)
    return [lo, *sorted(points), hi]


def sinr_trials(
    scheme: str, user: int, cfg: SystemConfig, power_w: float, seed: int, start: int, count: int
) -> np.ndarray:
    """Instantaneous SINRs of trials [start, start + count): the simulator's draw plus ``sinr``.

    Deterministic in (seed, trial index): any contiguous range reproduces
    the same per-trial values as a slice of a longer run.
    """
    return sinr(scheme, user, cfg, power_w, _draw(cfg, seed, start, count))


def bisect_crossover(
    cfg: SystemConfig, metric: str, bracket_db: tuple, n_nodes: int = 64,
    tol_db: float = CROSSOVER_TOL_DB,
):
    """Bisection for the SNR where the ``metric`` difference changes sign,
    one scalar call per cell at each SNR it reads: the ends, then one
    midpoint per level until the bracket is at most ``tol_db`` wide; a
    midpoint with the high end's sign replaces the high end, any other
    (an exact zero included) the low end. None unless the ends have
    strictly opposite signs; NumericalError at the first non-finite
    difference read.
    """
    lo, hi = float(bracket_db[0]), float(bracket_db[1])
    added, subtracted = CROSSOVER_METRICS[metric]

    def sign(snr_db: float) -> int:
        power_w = snr_db_to_power_w(cfg, snr_db)
        value = 0.0
        for key in added:
            value += CELLS[key].value(cfg, power_w, n_nodes)
        for key in subtracted:
            value -= CELLS[key].value(cfg, power_w, n_nodes)
        if not math.isfinite(value):
            raise NumericalError(f"{metric} difference not finite at {snr_db} dB")
        return (value > 0.0) - (value < 0.0)

    s_lo = sign(lo)
    s_hi = sign(hi)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        return None
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if sign(mid) == s_hi:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def table_rows(table) -> list:
    """A sweep table as one ``SweepRow`` per (SNR, key), SNR outermost and
    keys in table order, with Python floats and None where a column is
    absent."""
    n = len(table.grid)
    mc_value, mc_error = (
        [[None] * n] * len(table.keys) if column is None else column.tolist()
        for column in (table.mc_value, table.mc_std_error)
    )
    analytic = table.analytic.tolist()
    return [
        SweepRow(snr_db, *key, analytic[k][j], table.asymptotes[k], mc_value[k][j], mc_error[k][j])
        for j, snr_db in enumerate(table.grid.tolist())
        for k, key in enumerate(table.keys)
    ]


def csv_writer_text(rows: list) -> str:
    """Sweep rows as CSV text through ``csv.writer``: the header, then one
    record per row of ``repr`` floats, with an empty field for None."""

    def cell(value) -> str:
        return "" if value is None else repr(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                repr(row.snr_db),
                row.scheme,
                str(row.user),
                row.metric,
                cell(row.analytic),
                cell(row.asymptote),
                cell(row.mc_value),
                cell(row.mc_std_error),
            ]
        )
    return buf.getvalue()
