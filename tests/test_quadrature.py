import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.integrate import quad

from passperf import (
    IntegrationError,
    SystemConfig,
    chebyshev_rule,
    noma_rate_far,
    noma_rate_near,
    snr_db_to_power_w,
    wdma_avg_rate,
    wdma_outage,
    wdma_rate_ceiling,
)
from passperf.cli import main
from passperf.config import _NORMAL_MIN, SPEED_OF_LIGHT_M_S
from passperf.geometry import (
    _atan_deficit,
    _hat_moment,
    _log1p_deficit,
    _log1p_moments,
    expected_log1p_ratio,
    expected_log_excess,
)
from passperf.quadrature import integrate_rows
from passperf.sweep import omega_two

from oracles import (
    DiffDistribution,
    interval_integral,
    near_rate_series,
    noma_rate_far_quad2d,
    random_config,
    wdma_rate_quad2d,
)


def test_single_node_rule():
    rule = chebyshev_rule(1)
    assert rule.nodes[0] == 0.0


def test_two_node_rule():
    rule = chebyshev_rule(2)
    assert rule.nodes[0] == pytest.approx(math.sqrt(2) / 2, rel=1e-15)
    assert rule.nodes[1] == pytest.approx(-math.sqrt(2) / 2, rel=1e-15)


def test_nodes_match_cosine_formula_and_decrease():
    for n in (3, 7, 64):
        rule = chebyshev_rule(n)
        k = np.arange(1, n + 1)
        expected = np.cos((2 * k - 1) * np.pi / (2 * n))
        assert np.allclose(rule.nodes, expected, rtol=0, atol=1e-15)
        assert np.all(np.diff(rule.nodes) < 0)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 63, 64, 127])
def test_node_symmetry_exact(n):
    # the WDMA integrals mirror their values on the nonnegative nodes onto
    # the rest, which is exact only while all of this holds bit for bit
    rule = chebyshev_rule(n)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    if n % 2:
        assert rule.nodes[n // 2] == 0.0


def test_rejects_zero_order():
    with pytest.raises(ValueError):
        chebyshev_rule(0)


@pytest.mark.parametrize("n_nodes", [-3, 2.5, 64.0, True, False, "64"])
def test_rejects_orders_that_are_not_integers_of_at_least_one(n_nodes):
    chebyshev_rule(1)  # a cached order-1 rule must not answer for True
    with pytest.raises(ValueError, match="n_nodes"):
        chebyshev_rule(n_nodes)


def test_metrics_name_a_bad_node_count():
    with pytest.raises(ValueError, match="n_nodes"):
        wdma_outage(SystemConfig(), 1.0, 2.5)
    with pytest.raises(ValueError, match="n_nodes"):
        wdma_avg_rate(SystemConfig(), 1.0, True)


def unit_integral(f, n_nodes):
    """int_{-1}^{1} f(t) dt as a one-row ``integrate_rows`` call."""
    return integrate_rows(lambda t, rows: f(t)[None, :], np.zeros(1), n_nodes)[0]


def test_constant_integral():
    assert unit_integral(lambda t: np.ones_like(t), 64) == pytest.approx(2.0, abs=1e-3)
    assert interval_integral(lambda x: 3.0, -2.0, 5.0, 64) == pytest.approx(21.0, rel=1e-3)


def test_sine_integral():
    assert interval_integral(np.sin, 0.0, math.pi, 64) == pytest.approx(2.0, abs=1e-4)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 128])
def test_weights_are_positive_and_exact_below_the_order(n):
    rule = chebyshev_rule(n)
    assert np.all(rule.weights > 0.0)
    assert abs(rule.weights.sum() - 2.0) <= 4 * np.spacing(2.0)
    for k in range(n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert rule.weights @ rule.nodes**k == pytest.approx(exact, abs=1e-14)


def test_rule_is_exact_to_rounding_on_smooth_integrals():
    assert unit_integral(lambda t: np.ones_like(t), 64) == pytest.approx(2.0, abs=1e-14)
    assert interval_integral(np.sin, 0.0, math.pi, 64) == pytest.approx(2.0, abs=1e-14)
    # doubling the order moves an analytic integrand's integral by rounding only
    f = lambda t: 1.0 / (2.0 + t)
    assert unit_integral(f, 64) == pytest.approx(unit_integral(f, 128), rel=1e-14)
    assert unit_integral(f, 64) == pytest.approx(math.log(3.0), rel=1e-14)


DOUBLING_CONFIGS = {
    "default": SystemConfig(),
    "omega_two": omega_two(),
    "split": SystemConfig(noma_alpha_near=0.2, noma_alpha_far=0.8),
    "narrow": SystemConfig(region_y_m=1.0, region_y_offset_m=50.0),
    "long_300": SystemConfig(region_x_m=300.0),
    "long_1000": SystemConfig(region_x_m=1000.0),
}


@pytest.mark.parametrize("name", sorted(DOUBLING_CONFIGS))
def test_doubling_nodes_moves_smooth_metrics_by_rounding_only(name):
    # the README's promise for doubling --nodes, on the integrals whose
    # integrands are smooth in the integration variable, from -50 dB. On
    # the 1000 m region, 333 antenna heights long, N = 64 does not resolve
    # the x-integrand at low SNR (5.9e-12 relative at -15 dB; ROADMAP item
    # 10), so there the check starts at 90 dB
    cfg = DOUBLING_CONFIGS[name]
    grid = np.arange(90.0 if name == "long_1000" else -50.0, 151.0, 1.0)
    powers = np.array(snr_db_to_power_w(cfg, grid))
    coarse, fine = wdma_avg_rate(cfg, powers, 64), wdma_avg_rate(cfg, powers, 128)
    assert np.allclose(coarse, fine, rtol=1e-12, atol=0.0)
    ceiling = wdma_rate_ceiling(cfg, 128)
    assert wdma_rate_ceiling(cfg, 64) == pytest.approx(ceiling, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("overrides", [{}, {"region_y_m": 10.0, "region_y_offset_m": 10.0}],
                         ids=["default", "omega_two"])
def test_nodes_flag_does_not_reach_the_noma_cells(overrides, tmp_path):
    # --nodes sets the order of the WDMA outage, the WDMA rate and its
    # ceiling; every NOMA cell, the far-user rate included, has a fixed method
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overrides), encoding="utf-8")
    lines = {}
    for nodes in ("16", "64"):
        out = tmp_path / f"sweep_{nodes}.csv"
        argv = ["sweep", "--config", str(config), "--nodes", nodes, "--asymptotes",
                "--start", "-50", "--stop", "400", "--step", "5", "--out", str(out)]
        assert main(argv) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        lines[nodes] = {
            scheme: [row for row in rows if f",{scheme}," in row] for scheme in ("noma", "wdma")
        }
    assert len(lines["64"]["noma"]) == 91 * 4
    assert lines["16"]["noma"] == lines["64"]["noma"]
    assert lines["16"]["wdma"] != lines["64"]["wdma"]


def test_non_finite_integrand_reports_node():
    with pytest.raises(IntegrationError, match="node"):
        unit_integral(lambda t: np.where(t > 0, 1.0, np.inf), 16)


def test_j_vanish_at_zero_and_are_continuous_as_b_vanishes():
    # J0/J1(u; a, b) = ln(a) terms + _log1p_moments(u, r = b / a)
    for r in (0.0, 1e-9, 0.7, 1e6):
        assert _log1p_moments(0.0, r) == (0.0, 0.0)
    # leading terms of the r -> 0+ expansion, from s = r u^2 = 0.5 down to
    # 1e-300
    u = 2.5
    assert _log1p_moments(u, 0.0) == (0.0, 0.0)
    for s in (0.5, 1.01e-2, 0.99e-2, 1e-4, 1e-12, 1e-300):
        r = s / u**2
        m0, m1 = _log1p_moments(u, r)
        assert m0 == pytest.approx(r * u**3 / 3 * (1 - 3 * s / 10), rel=2 * s**2 + 1e-13, abs=0)
        assert m1 == pytest.approx(r * u**4 / 4 * (1 - s / 3), rel=2 * s**2 + 1e-13, abs=0)


def _mp_moments(u, r, mp):
    """u phi0(s) and (u^2 / 2) phi1(s) at s = r u^2, formed exactly in
    mpmath from the floats u and r, as floats: at 40 digits plus the
    -log10(s) digits that 1 - arctan(sqrt(s)) / sqrt(s) and 1 - ln(1 + s) / s
    lose where s is small."""
    if u == 0.0 or r == 0.0:
        return 0.0, 0.0
    with mp.workdps(40 + max(0, -int(math.log10(r) + 2.0 * math.log10(u)))):
        u, s = mp.mpf(u), mp.mpf(r) * mp.mpf(u) ** 2
        y, log = mp.sqrt(s), mp.log1p(s)
        return float(u * (log - 2 * (1 - mp.atan(y) / y))), float(u * u / 2 * (log - (1 - log / s)))


def _assert_moments_match_mpmath(u, r, mp):
    # 2e-15 relative, taken at least at the least normal number: where a
    # moment is subnormal it has no relative accuracy to keep
    m0, m1 = _log1p_moments(u, r)
    assert np.shape(m0) == np.shape(m1) == np.broadcast_shapes(np.shape(u), np.shape(r))
    u, r = np.broadcast_arrays(u, r)
    want = np.array([_mp_moments(x, y, mp) for x, y in zip(u.ravel().tolist(), r.ravel().tolist())])
    for got, col in ((m0, want[:, 0]), (m1, want[:, 1])):
        got = np.ravel(got)
        assert np.all(np.abs(got - col) <= 2e-15 * np.maximum(col, _NORMAL_MIN)), (u, r, got, col)


def test_log_moments_at_one_match_mpmath_within_2e_15():
    # the moments at u = 1 are phi0(s) and phi1(s) / 2: within 2e-15 of
    # mpmath from s = 1e-300 to 1e300, and densely around 1e-2 and around
    # the switches of the deficit helpers at s = 1/2 and s = 1
    mp = pytest.importorskip("mpmath").mp
    assert _log1p_moments(1.0, 0.0) == (0.0, 0.0)
    dense = [centre * np.linspace(0.9, 1.1, 201) for centre in (1e-2, 0.5, 1.0)]
    s = np.concatenate([np.logspace(-300.0, 300.0, 1201), *dense, np.nextafter([0.5, 1.0], 0.0)])
    m0, m1 = _log1p_moments(1.0, s)
    want = np.array([_mp_moments(1.0, x, mp) for x in s.tolist()])
    assert np.all(np.abs(m0 - want[:, 0]) <= 2e-15 * want[:, 0])
    assert np.all(np.abs(m1 - want[:, 1]) <= 2e-15 * want[:, 1])


@pytest.mark.parametrize(
    "u, r",
    [
        (0.0, 0.3),  # u = 0
        (2.0, 0.0),  # s = 0
        (1.0, 1e-2),  # s at and either side of 1e-2, where a series once took over
        (1.0, np.nextafter(1e-2, 0.0)),
        (1.0, np.nextafter(1e-2, 1.0)),
        (3.0, 1e-14),
        (3.0, 40.0),
        (1.0, 5e-324),  # the least subnormal
        (1.0, 2.0**-53),
        (1.0, 2e-16),  # where phi1's first term s / 2 alone is an ulp off
    ],
)
def test_log_moments_match_mpmath_on_scalars(u, r):
    _assert_moments_match_mpmath(u, r, pytest.importorskip("mpmath").mp)


@given(
    shape=array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_log_moments_match_mpmath_on_drawn_shapes(shape, data):
    # u and r of one shape, a scalar u, and three points broadcast against r
    mp = pytest.importorskip("mpmath").mp
    edges = st.sampled_from([0.0, 1e-2, 0.5, 1.0, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)])
    u = data.draw(arrays(float, shape, elements=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 30.0)))
    r = data.draw(arrays(float, shape, elements=edges | st.floats(1e-300, 1e-3) | st.floats(1e-3, 1e4)))
    for args in [(u, r), (1.0, r), (np.array([0.0, 1.0, 3.0]), r[..., None])]:
        _assert_moments_match_mpmath(*args, mp)


def test_log_moment_kernel_keeps_its_nan_handling():
    # a NaN s gives NaN moments, alone or beside s on either side of the
    # deficit helpers' switches, and leaves the moments beside it as they
    # are without it
    nan = math.nan
    for r in (nan, [nan, 1e-20], [nan, 1e-5], [nan, 5.0], [1e-20, 1e-5, nan, 0.7, 5.0]):
        r = np.array(r)
        for got, want in zip(_log1p_moments(1.0, r), _log1p_moments(1.0, r[~np.isnan(r)])):
            assert np.shape(got) == np.shape(r)
            assert np.all(np.isnan(got[np.isnan(r)]))
            assert np.array_equal(got[~np.isnan(r)], want)


def test_j0_zero_curvature_limit():
    # b = 0: the moments vanish and J0/J1, as noma_rate_near forms them, are the ln(a) terms
    u, a = 2.5, 4.0
    m0, m1 = _log1p_moments(u, 0.0 / a)
    assert m0 + u * np.log(a) == pytest.approx(2.5 * math.log(4.0), rel=1e-14)
    assert m1 + 0.5 * u**2 * np.log(a) == pytest.approx(0.5 * 2.5**2 * math.log(4.0), rel=1e-14)


def test_derivative_matches_integrand_by_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = rng.uniform(0.1, 50.0)
        b = rng.uniform(0.0, 10.0)
        u = rng.uniform(0.1, 20.0)
        r = b / a
        h = 1e-5 * max(u, 1.0)
        (up0, up1), (down0, down1) = _log1p_moments(u + h, r), _log1p_moments(u - h, r)
        assert (up0 - down0) / (2 * h) == pytest.approx(math.log1p(r * u**2), rel=1e-6, abs=1e-6)
        assert (up1 - down1) / (2 * h) == pytest.approx(u * math.log1p(r * u**2), rel=1e-6, abs=1e-6)


@given(
    st.floats(min_value=0.1, max_value=30.0),
    st.floats(min_value=1e-3, max_value=5.0),
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=0.05, max_value=8.0),
)
@settings(max_examples=40, deadline=None)
def test_fundamental_theorem(a, b, u1, width):
    u2, r = u1 + width, b / a
    (lo0, lo1), (hi0, hi1) = _log1p_moments(u1, r), _log1p_moments(u2, r)
    numeric, _ = quad(lambda u: math.log1p(r * u * u), u1, u2, limit=200, epsrel=1e-12)
    assert hi0 - lo0 == pytest.approx(numeric, rel=1e-8, abs=1e-10)
    numeric1, _ = quad(lambda u: u * math.log1p(r * u * u), u1, u2, limit=200, epsrel=1e-12)
    assert hi1 - lo1 == pytest.approx(numeric1, rel=1e-8, abs=1e-10)


@st.composite
def _layouts(draw):
    """Configs with adjacent (offset 0) and dispersed sub-regions, and regions
    from under one to 10^3 antenna heights long, log-uniformly."""
    alpha_near = draw(st.floats(0.05, 0.3))
    pa_height_m = draw(st.floats(1.5, 6.0))
    return SystemConfig(
        pa_height_m=pa_height_m,
        region_x_m=pa_height_m * 10.0 ** draw(st.floats(-0.5, 3.0)),
        region_y_m=draw(st.floats(3.0, 30.0)),
        region_y_offset_m=draw(st.just(0.0) | st.floats(0.5, 15.0)),
        noma_alpha_near=alpha_near,
        noma_alpha_far=1.0 - alpha_near,
    )


_WIDE_DB = np.arange(-50.0, 401.0, 5.0).tolist()
# k / h^2 at which the near rate's low-SNR series is checked: the series'
# k^3 term is at most (k / h^2)^2 / 3 of the rate, under 3.4e-15
_SERIES_RATIOS = (1e-7, 1e-13)
_RANDOM_CONFIGS = st.integers(0, 2**32 - 1).map(lambda seed: random_config(np.random.default_rng(seed)))


@given(cfg=_layouts() | _RANDOM_CONFIGS)
@example(cfg=SystemConfig())
@example(cfg=SystemConfig(region_x_m=1000.0))
@example(cfg=SystemConfig(region_x_m=0.01))  # c << h: the terms of E[1/D] cancel in the oracle
@settings(max_examples=40, deadline=None)
def test_near_rate_meets_its_low_snr_series(cfg):
    # where the near user's SNR coefficient k is small enough against h^2,
    # two terms of the series in k pin the rate to 1e-14, so the rate must
    # keep its relative accuracy there
    pytest.importorskip("mpmath")
    eta = (SPEED_OF_LIGHT_M_S / cfg.carrier_freq_hz) ** 2 / (16.0 * math.pi**2)
    noise = 10.0 ** ((cfg.noise_power_dbm_ue1 - 30.0) / 10.0)
    k_per_w = eta * cfg.noma_alpha_near / noise
    powers = [ratio * cfg.pa_height_m**2 / k_per_w for ratio in _SERIES_RATIOS]
    for power, value in zip(powers, noma_rate_near(cfg, np.array(powers)).tolist()):
        series, remainder = near_rate_series(cfg, power)
        assert remainder <= 1e-14 * series
        assert abs(value - series) <= 1e-13 * series, (power, value, series)


@given(cfg=_layouts(), snrs_db=st.lists(st.floats(60.0, 400.0), min_size=1, max_size=20))
@example(cfg=SystemConfig(region_x_m=1000.0, pa_height_m=1.0), snrs_db=_WIDE_DB[22:])
@example(cfg=omega_two(SystemConfig(region_x_m=1000.0, pa_height_m=1.0)), snrs_db=_WIDE_DB[22:])
@settings(max_examples=25, deadline=None)
def test_rates_on_long_regions_converge_at_the_default_order(cfg, snrs_db):
    # N = 64 against N = 2048 in the x-variable s = h sinh(theta t), however
    # many antenna heights the region spans: 1e-10 relative from 60 dB and
    # 1e-12 from 100 dB, or 2e-12 bits/s/Hz. The absolute term covers tiny
    # rates: the WDMA rate at X = 10^3 h converges to about 1e-12 bits/s/Hz
    # at N = 64 (2e-11 relative at 100 dB with h = 6 m).
    powers = np.array(snr_db_to_power_w(cfg, snrs_db))
    rtol = np.where(np.array(snrs_db) >= 100.0, 1e-12, 1e-10)
    for metric in (
        lambda n: wdma_avg_rate(cfg, powers, n, user=1),
        lambda n: wdma_avg_rate(cfg, powers, n, user=2),
        lambda n: np.full(len(powers), wdma_rate_ceiling(cfg, n)),
    ):
        coarse, fine = metric(64), metric(2048)
        assert np.all(np.abs(coarse - fine) <= np.maximum(rtol * np.abs(fine), 2e-12)), (coarse, fine)


@pytest.mark.parametrize("offset", [0.0, 10.0])
@pytest.mark.parametrize("region_x_m", [300.0, 1000.0])
def test_rates_on_long_regions_match_the_scipy_oracles(region_x_m, offset):
    cfg = SystemConfig(region_x_m=region_x_m, region_y_m=10.0, region_y_offset_m=offset)
    for snr_db in (80.0, 120.0):
        power = snr_db_to_power_w(cfg, snr_db)
        assert wdma_avg_rate(cfg, power) == pytest.approx(wdma_rate_quad2d(cfg, power), rel=1e-11)
        assert noma_rate_far(cfg, power) == pytest.approx(noma_rate_far_quad2d(cfg, power), rel=1e-11)


def test_j_functions_broadcast_over_arrays():
    r = 0.3 / np.array([1.0, 2.0, 5.0])
    m0, m1 = _log1p_moments(1.5, r)
    assert m0.shape == m1.shape == (3,)
    assert m0[1] == pytest.approx(_log1p_moments(1.5, 0.3 / 2.0)[0], rel=1e-15)
    mixed = _log1p_moments(np.array([0.5, 1.0]), np.array([0.0, 0.5]))[1]
    assert mixed[0] == pytest.approx(_log1p_moments(0.5, 0.0)[1])
    assert mixed[1] == pytest.approx(_log1p_moments(1.0, 0.5)[1])


def _read_only(values):
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _kernel_calls():
    """(name, kernel, args) over read-only arrays, numpy scalars and
    size-0 arrays; u from ``chebyshev_rule``'s read-only weights."""
    u, r = chebyshev_rule(8).weights, _read_only([0.0, 1e-6, 1e-3, 0.5, 3.0, 40.0, 1e4, 1e-300])
    a, b = _read_only([[1.0, 2.0, 5.0], [0.5, 1e3, 7.0]]), _read_only([0.0, 1e-3, 40.0])
    # s from 0 to the least subnormal (the weights are below 1), and three
    # support points on a leading axis
    tiny_r = _read_only([0.0, 5e-324, 1e-20, 1e-17])
    points = _read_only([[1.0], [2.0], [3.0]])
    empty = _read_only([])
    calls = [
        ("_log1p_moments", _log1p_moments, (u, r[:, None])),
        ("_log1p_moments", _log1p_moments, (np.float64(1.5), np.float64(0.3))),
        ("_log1p_moments", _log1p_moments, (u, empty[:, None])),
    ]
    for offset in (0.0, 3.0):
        dist = DiffDistribution(half_width=7.0, offset=offset)
        calls += [
            ("expected_log_excess", expected_log_excess, (a, b, dist)),
            ("expected_log_excess", expected_log_excess, (np.float64(2.0), np.float64(1e-4), dist)),
            ("expected_log_excess", expected_log_excess, (empty, empty, dist)),
        ]
    calls += [
        ("_log1p_moments", _log1p_moments, (u, tiny_r[:, None])),
        ("_log1p_moments", _log1p_moments, (points, r)),
        ("_log1p_moments", _log1p_moments, (points, tiny_r)),
    ]
    for offset in (0.0, 3.0):
        dist = DiffDistribution(half_width=7.0, offset=offset)
        calls.append(("expected_log_excess", expected_log_excess, (a, tiny_r[:3], dist)))
    # the positive kernel of the rates, with a broadcast against d and points
    # on a leading axis, as the near rate and ``expected_log1p_ratio`` call it
    calls += [
        ("_hat_moment", _hat_moment, (1.5, 2.0, b, 1.5)),
        ("_hat_moment", _hat_moment, (points[:, None], a, b, 3.0, True)),
    ]
    # the deficit helpers on either side of their switches at 1/2 and 1, and
    # the triangular mean of both kernels on a narrow offset (lo = 60 >= 4 w)
    s = _read_only([0.0, 5e-324, 1e-20, 0.25, 0.5, 1.0, 40.0, 1e300])
    for name, kernel in (("_atan_deficit", _atan_deficit), ("_log1p_deficit", _log1p_deficit)):
        calls += [(name, kernel, (s,)), (name, kernel, (np.float64(0.7),)), (name, kernel, (empty,))]
    for offset in (0.0, 3.0, 30.0):
        dist = DiffDistribution(half_width=7.0, offset=offset)
        calls += [
            ("expected_log1p_ratio", expected_log1p_ratio, (a, b, dist)),
            ("expected_log1p_ratio", expected_log1p_ratio, (a, b, dist, True)),
        ]
    narrow = DiffDistribution(half_width=7.0, offset=30.0)
    calls.append(("expected_log_excess", expected_log_excess, (a, b, narrow)))
    return calls


@pytest.mark.parametrize(
    "kernel, args",
    [
        pytest.param(kernel, args, id=f"{name}-{i}")
        for i, (name, kernel, args) in enumerate(_kernel_calls())
    ],
)
def test_log_kernels_leave_read_only_inputs_unchanged(kernel, args):
    # the kernels work in place on arrays of their own: read-only inputs are
    # accepted and come back unchanged, and the result equals the result on
    # writable copies bit for bit
    arrays_in = [arg for arg in args if isinstance(arg, np.ndarray)]
    before = [arr.tobytes() for arr in arrays_in]
    got = kernel(*args)
    assert [arr.tobytes() for arr in arrays_in] == before
    want = kernel(*[arg.copy() if isinstance(arg, np.ndarray) else arg for arg in args])
    if not isinstance(got, tuple):
        got, want = (got,), (want,)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w) == np.broadcast_shapes(*map(np.shape, args))
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_integrate_rows_gives_each_row_its_dot_with_the_weights():
    # each row's integral is its 1-D dot with the weights, bit for bit, in
    # and across ROW_BLOCK-row blocks
    rng = np.random.default_rng(13)
    for n in (1, 17, 64, 1024):
        weights = chebyshev_rule(n).weights
        for count in (0, 1, 64, 65, 451):
            scale = 10.0 ** rng.integers(-12, 13, size=(count, 1))
            vals = rng.standard_normal((count, n)) * scale
            expected = np.array([weights @ row for row in vals])
            integrals = integrate_rows(lambda t, rows: vals[rows], np.arange(count), n)
            assert integrals.shape == (count,)
            assert integrals.tobytes() == expected.tobytes()


def test_integrate_rows_names_a_non_finite_node_in_a_later_block():
    nodes = chebyshev_rule(16).nodes
    vals = np.ones((100, 16))
    vals[70, 5] = np.nan  # row 70 sits in the second 64-row block
    with pytest.raises(IntegrationError, match=rf"node t={re.escape(repr(nodes[5]))}"):
        integrate_rows(lambda t, rows: vals[rows], np.arange(100), 16)
