"""Independent numerical oracles shared across test modules.

Most of these deliberately avoid the package's quadrature and antiderivative
code: brute-force trapezoid grids and adaptive scipy quadrature recompute
every quantity from raw definitions so closed forms are checked against a
second route. The nested Chebyshev routes instead integrate the separation
density numerically with the package's own rule, a route that shares no
formula with the closed forms they check. The densities of the separation
and of the near and far users' x-coordinates, and the CDF of the near
user's squared x-offset, are the reference laws those routes and the
sampling tests use, with the CDFs of the separation and of its square.
``sinr_trials`` addresses the simulator's per-trial SINRs by trial index. ``bisect_crossover`` is the plain scalar bisection
that ``find_crossover`` must reproduce exactly, and ``lookahead_crossover``
the earlier array search (the look-ahead tree alone, every cell called
once per array call) whose call count it must not exceed.
``table_rows`` expands a sweep table into one ``SweepRow`` per line, the
earlier row route of ``run_sweep``, and ``csv_writer_text`` writes such
rows through ``csv.writer``: the route that ``write_csv`` must match byte
for byte.
``DiffDistribution``, ``g_axis`` and ``outage_radii_sq`` give the separation
law, the squared axis distance and the NOMA outage radii in metres, from
the config fields, where the package works in reduced units. The
``*_stacked`` rates and ``log1p_moments_masked`` keep the earlier route of
the log-moment kernel (both log terms of a node in one stacked call, all
three support points, N-d boolean masks), and ``expected_log_excess_stacked``
its earlier layout (every support point of a call on one trailing axis), all
of which the package must match bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

from passperf import (
    SystemConfig,
    chebyshev_rule,
    derive_constants,
    sinr,
    snr_db_to_power_w,
)
from passperf.config import SPEED_OF_LIGHT_M_S
from passperf.montecarlo import _draw
from passperf.noma import noma_rate_far_ceiling
from passperf.quadrature import (
    _SERIES_S,
    _SERIES_TERMS,
    _log1p_moments,
    _phi_closed,
    _phi_series,
    integrate_rows,
)
from passperf.wdma import _log_rate_coeffs
from passperf.sweep import (
    CELLS,
    CROSSOVER_LOOKAHEAD,
    CROSSOVER_METRICS,
    CROSSOVER_TOL_DB,
    CSV_HEADER,
    NumericalError,
    SweepRow,
    _midpoints,
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
    eta = SPEED_OF_LIGHT_M_S**2 / (16.0 * math.pi**2 * cfg.carrier_freq_hz**2)
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


def noma_rate_far_quad2d(cfg: SystemConfig, power_w: float) -> float:
    """Far-user rate by nested adaptive quadrature from the SINR definition."""
    dc = derive_constants(cfg)
    k1 = dc.eta_m2 * cfg.noma_alpha_near * power_w
    k2 = dc.eta_m2 * cfg.noma_alpha_far * power_w
    n2 = dc.noise_w_ue2
    w = cfg.region_y_m
    lo = 2.0 * cfg.region_y_offset_m
    dx = cfg.region_x_m
    h_sq = cfg.pa_height_m**2
    m4 = (0.5 * dx) ** 2

    def inner(m: float) -> float:
        def f(a: float) -> float:
            sinr = k2 / (k1 + n2 * (h_sq + m + a * a))
            return math.log2(1.0 + sinr) * _triangular_density(a, lo, w)

        value, _ = quad(f, lo, lo + 2.0 * w, points=[lo + w], limit=200, epsabs=1e-13, epsrel=1e-12)
        return value

    value, _ = quad(inner, 0.0, m4, limit=200, epsabs=1e-12, epsrel=1e-11)
    return 4.0 / dx**2 * value


def interval_integral(f, a: float, b: float, n_nodes: int) -> float:
    """int_a^b f(x) dx by the Chebyshev rule through the affine map onto [-1, 1]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    rule = chebyshev_rule(n_nodes)
    vals = np.broadcast_to(f(half * rule.nodes + mid), rule.nodes.shape)
    return half * float(rule.weights @ vals)


def wdma_rate_nested(cfg: SystemConfig, power_w: float, n_nodes: int, user: int = 1) -> float:
    """WDMA rate by nested Chebyshev quadrature over the translated separation density."""
    dc = derive_constants(cfg)
    b_noise = 2.0 * dc.noise(user) / (dc.eta_m2 * power_w)
    dist = diff_distribution(cfg)
    half = 0.5 * cfg.region_x_m

    def inner(x):
        g = g_axis(x, cfg)
        a = 2.0 * g + b_noise * g**2
        b = 1.0 + b_noise * g
        c = g + b_noise * g**2
        d = b_noise * g

        def f(u):
            u = np.asarray(u)
            return np.log((a + b * u**2) / (c + d * u**2)) * diff_pdf(u, dist)

        # split at the density peak where the triangular kink sits
        return interval_integral(f, dist.support_lo, dist.peak, n_nodes) + interval_integral(
            f, dist.peak, dist.support_hi, n_nodes
        )

    rule = chebyshev_rule(n_nodes)
    outer = np.asarray([inner(xi) for xi in half * (rule.nodes + 1.0)])
    return 0.5 * float(rule.weights @ outer) / math.log(2.0)


def noma_outage_far_nested(cfg: SystemConfig, power_w: float, n_nodes: int) -> float:
    """Far-user outage by integrating the conditional tail over the squared x-offset."""
    _, c2 = outage_radii_sq(cfg, power_w)
    dist = diff_distribution(cfg)
    m4 = (0.5 * cfg.region_x_m) ** 2

    def conditional(m):
        m = np.asarray(m)
        radius = np.sqrt(np.clip(c2 - m, 0.0, None))
        return 1.0 - diff_cdf(radius, dist)

    value = 4.0 / cfg.region_x_m**2 * interval_integral(conditional, 0.0, m4, n_nodes)
    return min(max(value, 0.0), 1.0)


# Series coefficients of phi0 and phi1 side by side, highest power first.
_SERIES_PAIRS = np.array(
    [
        [(-1.0) ** (n + 1) / (n * (2 * n + 1)), (-1.0) ** (n + 1) / (n * (n + 1))]
        for n in range(_SERIES_TERMS, 0, -1)
    ]
)


def log1p_moments_both_forms(u, r):
    """The package's earlier log-moment kernel, kept as a bitwise reference.

    Evaluates the closed forms of phi0 and phi1 at every element (with s
    replaced by 1 where it is small) and the series for both at once over a
    trailing axis of two coefficients, then selects per element.
    """
    u = np.asarray(u, dtype=float)
    s = np.asarray(r, dtype=float) * u**2
    small = s < _SERIES_S
    s_big = np.where(small, 1.0, s)
    log = np.log1p(s_big)
    root = np.sqrt(s_big)
    phi0 = log - 2.0 * (1.0 - np.arctan(root) / root)
    phi1 = ((1.0 + s_big) * log - s_big) / s_big
    if np.any(small):
        s_small = np.where(small, s, 0.0)[..., None]
        series = 0.0
        for coef in _SERIES_PAIRS:
            series = s_small * (coef + series)
        phi0 = np.where(small, series[..., 0], phi0)
        phi1 = np.where(small, series[..., 1], phi1)
    return u * phi0, 0.5 * u**2 * phi1


def log1p_moments_masked(u, r):
    """The log-moment kernel with a mixed closed/series array split by N-d
    boolean masks, four indexings per call; a bitwise reference for the
    index-list split of ``_log1p_moments``."""
    u = np.asarray(u, dtype=float)
    s = np.asarray(r, dtype=float) * u**2
    small = s < _SERIES_S
    if not small.any():
        phi0, phi1 = _phi_closed(s)
    elif small.all():
        phi0, phi1 = _phi_series(s)
    else:
        phi0, phi1 = np.empty_like(s), np.empty_like(s)
        phi0[~small], phi1[~small] = _phi_closed(s[~small])
        phi0[small], phi1[small] = _phi_series(s[small])
    return u * phi0, 0.5 * u**2 * phi1


def expected_log_excess_stacked(a, b, dist):
    """``expected_log_excess`` with its support points on a short trailing
    axis: one ``_log1p_moments`` call for all of them, the end lo = 0 left
    out as in the package. ``dist`` is any law with ``support_lo`` and
    ``half_width`` (a ``DiffDistribution`` or a ``ReducedModel``)."""
    lo, w = dist.support_lo, dist.half_width
    ratio = np.asarray(b, dtype=float) / np.asarray(a, dtype=float)
    points = np.array([lo, lo + w, lo + 2.0 * w] if lo else [w, 2.0 * w])
    m0, m1 = _log1p_moments(points, ratio[..., None])
    t = points * m0 - m1
    t0 = t[..., 0] if lo else 0.0
    return (t0 - 2.0 * t[..., -2] + t[..., -1]) / (w * w)


def expected_log_excess_three_point(a, b, dist: DiffDistribution):
    """``expected_log_excess`` through all three support points, the end
    u = lo included also where lo = 0, on ``log1p_moments_masked``."""
    lo, w = dist.support_lo, dist.half_width
    ratio = np.asarray(b, dtype=float) / np.asarray(a, dtype=float)
    points = np.array([lo, lo + w, lo + 2.0 * w])
    m0, m1 = log1p_moments_masked(points, ratio[..., None])
    t = points * m0 - m1
    return (t[..., 0] - 2.0 * t[..., 1] + t[..., 2]) / (w * w)


def _wdma_rate_nats_stacked(t, cfg: SystemConfig, b_noise: np.ndarray):
    # the squared axis distance from the x-offset X t / 2, as the package
    # forms it; evaluated here on all N nodes, where the package mirrors
    g = (0.5 * cfg.region_x_m * np.asarray(t)) ** 2 + cfg.pa_height_m * cfg.pa_height_m
    a, b, c, d = _log_rate_coeffs(g, b_noise[:, None])
    stacked = expected_log_excess_three_point(
        np.stack([a, c]), np.stack([b, d]), diff_distribution(cfg)
    )
    return np.log1p(g / c) + stacked[0] - stacked[1]


def wdma_rate_ceiling_stacked(cfg: SystemConfig, n_nodes: int) -> float:
    """``wdma_rate_ceiling`` on the stacked three-point route."""
    nats = integrate_rows(lambda t, rows: _wdma_rate_nats_stacked(t, cfg, rows), np.zeros(1), n_nodes)
    return max(1.0, (0.5 * nats / math.log(2.0)).item())


def wdma_avg_rate_stacked(cfg: SystemConfig, powers: np.ndarray, n_nodes: int, user: int):
    """``wdma_avg_rate`` over the 1-D ``powers`` on the stacked three-point route."""
    dc = derive_constants(cfg)
    b_noise = 2.0 * dc.noise(user) / (dc.eta_m2 * powers)
    nats = integrate_rows(lambda t, rows: _wdma_rate_nats_stacked(t, cfg, rows), b_noise, n_nodes)
    return np.clip(0.5 * nats / math.log(2.0), 0.0, wdma_rate_ceiling_stacked(cfg, n_nodes))


def noma_rate_far_stacked(cfg: SystemConfig, powers: np.ndarray, n_nodes: int):
    """``noma_rate_far`` over the 1-D ``powers`` on the stacked three-point route."""
    dc = derive_constants(cfg)
    n2 = dc.noise_w_ue2
    dx = cfg.region_x_m
    half = 0.5 * (0.5 * dx * (0.5 * dx))

    def delta(t, block):
        k1 = (dc.eta_m2 * cfg.noma_alpha_near * block)[:, None]
        k2 = (dc.eta_m2 * cfg.noma_alpha_far * block)[:, None]
        beta = k1 + n2 * (cfg.pa_height_m * cfg.pa_height_m + (half * t + half))
        stacked = expected_log_excess_three_point(
            np.stack([beta + k2, beta]), n2, diff_distribution(cfg)
        )
        return np.log1p(k2 / beta) + stacked[0] - stacked[1]

    integral = half * integrate_rows(delta, powers, n_nodes)
    return np.clip(4.0 / (dx * dx * math.log(2.0)) * integral, 0.0, noma_rate_far_ceiling(cfg))


def sinr_trials(
    scheme: str, user: int, cfg: SystemConfig, power_w: float, seed: int, start: int, count: int
) -> np.ndarray:
    """Instantaneous SINRs of trials [start, start + count): the simulator's draw plus ``sinr``.

    Deterministic in (seed, trial index): any contiguous range reproduces
    the same per-trial values as a slice of a longer run.
    """
    return sinr(scheme, user, cfg, power_w, _draw(cfg, seed, start, count))


def bisect_crossover(cfg: SystemConfig, metric: str, bracket_db: tuple, n_nodes: int = 64):
    """Bisection for the SNR where the ``metric`` difference changes sign,
    one scalar call per cell at each SNR it reads: the ends, then one
    midpoint per level until the bracket is at most ``CROSSOVER_TOL_DB``
    wide. None unless the ends have strictly opposite signs; NumericalError
    at the first non-finite difference read.
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
    while hi - lo > CROSSOVER_TOL_DB:
        mid = 0.5 * (lo + hi)
        if sign(mid) == s_hi:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def lookahead_crossover(cfg: SystemConfig, metric: str, bracket_db: tuple, n_nodes: int = 64):
    """The bisection of ``bisect_crossover`` replayed against a cache that
    array calls fill: the ends with the first ``CROSSOVER_LOOKAHEAD`` levels
    of midpoints, then, at each midpoint not yet evaluated, the next
    ``CROSSOVER_LOOKAHEAD`` levels below the current bracket. Every cell of
    the metric, WDMA user 2 included, is called once per array call.

    Returns (crossover SNR or None, array calls per cell).
    """
    lo, hi = float(bracket_db[0]), float(bracket_db[1])
    added, subtracted = CROSSOVER_METRICS[metric]
    differences = {}
    calls = 0

    def evaluate(grid_db: list) -> None:
        nonlocal calls
        calls += 1
        powers = np.array(snr_db_to_power_w(cfg, grid_db))
        value = np.zeros(len(grid_db))
        for key in added:
            value = value + CELLS[key].value(cfg, powers, n_nodes)
        for key in subtracted:
            value = value - CELLS[key].value(cfg, powers, n_nodes)
        differences.update(zip(grid_db, value.tolist()))

    def sign(snr_db: float) -> int:
        value = differences[snr_db]
        if not math.isfinite(value):
            raise NumericalError(f"{metric} difference not finite at {snr_db} dB")
        return (value > 0.0) - (value < 0.0)

    evaluate([lo, hi, *_midpoints(lo, hi, CROSSOVER_LOOKAHEAD)])
    s_lo = sign(lo)
    s_hi = sign(hi)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        return None, calls
    while hi - lo > CROSSOVER_TOL_DB:
        mid = 0.5 * (lo + hi)
        if mid not in differences:
            evaluate(_midpoints(lo, hi, CROSSOVER_LOOKAHEAD))
        if sign(mid) == s_hi:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), calls


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
