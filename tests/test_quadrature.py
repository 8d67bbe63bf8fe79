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
    wdma_rate_ceiling,
)
from passperf import noma
from passperf.geometry import expected_log_excess
from passperf.quadrature import (
    _ONE_TERM_S,
    _SERIES_S,
    _log1p_moments,
    _phi_closed,
    _phi_series,
    integrate_rows,
)
from passperf.sweep import omega_two

from oracles import (
    DiffDistribution,
    interval_integral,
    log1p_moments_both_forms,
    log1p_moments_masked,
    noma_rate_far_stacked,
    wdma_avg_rate_stacked,
    wdma_rate_ceiling_stacked,
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
        noma_rate_far(SystemConfig(), 1.0, 2.5)
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
}


@pytest.mark.parametrize("name", sorted(DOUBLING_CONFIGS))
def test_doubling_nodes_moves_smooth_metrics_by_rounding_only(name):
    # the README's promise for doubling --nodes, on the integrals whose
    # integrands are smooth in the integration variable
    cfg = DOUBLING_CONFIGS[name]
    grid = np.arange(90.0, 151.0, 1.0)
    powers = np.array(snr_db_to_power_w(cfg, grid))
    for metric in (wdma_avg_rate, noma_rate_far):
        coarse, fine = metric(cfg, powers, 64), metric(cfg, powers, 128)
        assert np.allclose(coarse, fine, rtol=1e-12, atol=0.0), metric.__name__
    ceiling = wdma_rate_ceiling(cfg, 128)
    assert wdma_rate_ceiling(cfg, 64) == pytest.approx(ceiling, rel=1e-12, abs=0.0)


def test_non_finite_integrand_reports_node():
    with pytest.raises(IntegrationError, match="node"):
        unit_integral(lambda t: np.where(t > 0, 1.0, np.inf), 16)


def test_j_vanish_at_zero_and_are_continuous_as_b_vanishes():
    # J0/J1(u; a, b) = ln(a) terms + _log1p_moments(u, r = b / a)
    for r in (0.0, 1e-9, 0.7, 1e6):
        assert _log1p_moments(0.0, r) == (0.0, 0.0)
    # leading terms of the r -> 0+ expansion, down to r = 1e-300 and on both
    # sides of the switch from the closed form to its series (s = r u^2 = 1e-2)
    u = 2.5
    assert _log1p_moments(u, 0.0) == (0.0, 0.0)
    for s in (0.5, 1.01e-2, 0.99e-2, 1e-4, 1e-12, 1e-300):
        r = s / u**2
        m0, m1 = _log1p_moments(u, r)
        assert m0 == pytest.approx(r * u**3 / 3 * (1 - 3 * s / 10), rel=2 * s**2 + 1e-13, abs=0)
        assert m1 == pytest.approx(r * u**4 / 4 * (1 - s / 3), rel=2 * s**2 + 1e-13, abs=0)


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


def _assert_kernel_matches_reference(u, r):
    new = _log1p_moments(u, r)
    old = log1p_moments_both_forms(u, r)
    for got, want in zip(new, old):
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "u, r",
    [
        (0.0, 0.3),  # u = 0
        (2.0, 0.0),  # s = 0
        (1.0, _SERIES_S),  # s exactly at the switch
        (1.0, np.nextafter(_SERIES_S, 0.0)),  # just below: series
        (1.0, np.nextafter(_SERIES_S, 1.0)),  # just above: closed form
        (3.0, 1e-14),
        (3.0, 40.0),
        (1.0, 5e-324),  # the least subnormal: first term only
        (1.0, np.nextafter(_ONE_TERM_S, 0.0)),  # the last s of the first-term range
        (1.0, _ONE_TERM_S),  # the first s of the whole series
        (1.0, 2e-16),  # the first term of phi1 is an ulp off here
    ],
)
def test_log_moment_kernel_equals_reference_on_scalars(u, r):
    _assert_kernel_matches_reference(u, r)


def test_log_moment_kernel_equals_reference_on_arrays():
    below, above = np.nextafter(_SERIES_S, 0.0), np.nextafter(_SERIES_S, 1.0)
    edge = np.array([0.0, below, _SERIES_S, above, 1.0])
    _assert_kernel_matches_reference(1.0, edge)  # 1-d, mixed forms
    _assert_kernel_matches_reference(np.array([0.0, 0.5, 1.0]), edge[:, None])  # (5, 3)
    _assert_kernel_matches_reference(1.0, np.full(4, 1e-6))  # 1-d, series only
    _assert_kernel_matches_reference(1.0, np.full(4, 5.0))  # 1-d, closed form only
    _assert_kernel_matches_reference(1.0, np.full(4, 1e-17))  # 1-d, first term only
    rng = np.random.default_rng(7)
    s = 10.0 ** rng.uniform(-300.0, 2.0, 10_000)
    points = np.array([0.0, 1.0, 3.0])
    _assert_kernel_matches_reference(points, (s / 9.0)[:, None])  # broadcast (..., 3)
    _assert_kernel_matches_reference(points, (s / 9.0).reshape(2, 50, 100, 1))
    _assert_kernel_matches_reference(points[:, None], s / 9.0)  # points on a leading axis
    tiny = s[s < _ONE_TERM_S]
    _assert_kernel_matches_reference(1.0, tiny)  # every s in the first-term range
    _assert_kernel_matches_reference(points[:, None], tiny / 9.0)
    # the ends of the first-term range, and s = 2e-16, where the first term
    # of phi1 is an ulp off the whole series: a range reaching 2**-52 fails
    assert _phi_series(2e-16)[1] != 0.5 * 2e-16
    for edge in (0.0, 5e-324, np.nextafter(_ONE_TERM_S, 0.0), _ONE_TERM_S, 2e-16):
        _assert_kernel_matches_reference(1.0, np.full(3, edge))
        _assert_kernel_matches_reference(1.0, np.array([1e-20, edge]))


def test_log_moment_kernel_keeps_its_nan_handling():
    # a NaN s takes the closed form, alone or beside s of every form
    nan = math.nan
    for r in (nan, [nan, 1e-20], [nan, 1e-5], [nan, 5.0], [1e-20, 1e-5, nan, 5.0]):
        got, want = _log1p_moments(1.0, r), log1p_moments_both_forms(1.0, r)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w, equal_nan=True)


# s = r u^2 at, just below and just above the switch to the series (u = 1),
# and r = 0
_EDGE_R = st.sampled_from([0.0, np.nextafter(_SERIES_S, 0.0), _SERIES_S, np.nextafter(_SERIES_S, 1.0)])


@given(
    shape=array_shapes(min_dims=0, max_dims=4, min_side=1, max_side=5),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_log_moment_kernel_equals_masked_split_bitwise(shape, data):
    u = data.draw(arrays(float, shape, elements=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 30.0)))
    r = data.draw(
        arrays(float, shape, elements=_EDGE_R | st.floats(1e-300, 1e-3) | st.floats(1e-3, 1e4))
    )
    for args in [(u, r), (1.0, r), (np.array([0.0, 1.0, 3.0]), r[..., None])]:
        got, want = _log1p_moments(*args), log1p_moments_masked(*args)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@st.composite
def _layouts(draw):
    """Configs with adjacent (offset 0) and dispersed sub-regions."""
    alpha_near = draw(st.floats(0.05, 0.3))
    return SystemConfig(
        pa_height_m=draw(st.floats(1.5, 6.0)),
        region_x_m=draw(st.floats(4.0, 20.0)),
        region_y_m=draw(st.floats(3.0, 30.0)),
        region_y_offset_m=draw(st.just(0.0) | st.floats(0.5, 15.0)),
        noma_alpha_near=alpha_near,
        noma_alpha_far=1.0 - alpha_near,
    )


_WIDE_DB = np.arange(-50.0, 401.0, 5.0).tolist()


@given(
    cfg=_layouts(),
    snrs_db=st.lists(st.floats(-50.0, 400.0), min_size=1, max_size=80),
    n_nodes=st.sampled_from([16, 64]),
)
@example(cfg=SystemConfig(), snrs_db=_WIDE_DB, n_nodes=64)
@example(cfg=omega_two(), snrs_db=_WIDE_DB, n_nodes=64)
@example(  # a rate that rounds below zero, which the package clamps to 0
    cfg=SystemConfig(pa_height_m=2.0, region_x_m=4.0, region_y_m=3.0, region_y_offset_m=9.5,
                     noma_alpha_near=0.0625, noma_alpha_far=0.9375),
    snrs_db=[-49.0],
    n_nodes=16,
)
@settings(max_examples=25, deadline=None)
def test_rates_equal_the_stacked_three_point_route_bitwise(cfg, snrs_db, n_nodes):
    powers = np.array(snr_db_to_power_w(cfg, snrs_db))
    ceiling = np.float64(wdma_rate_ceiling(cfg, n_nodes))
    assert ceiling.tobytes() == np.float64(wdma_rate_ceiling_stacked(cfg, n_nodes)).tobytes()
    for user in (1, 2):
        rate = wdma_avg_rate(cfg, powers, n_nodes, user=user)
        assert rate.tobytes() == wdma_avg_rate_stacked(cfg, powers, n_nodes, user).tobytes()
    far = noma_rate_far(cfg, powers, n_nodes)
    assert far.tobytes() == noma_rate_far_stacked(cfg, powers, n_nodes).tobytes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(noma, "_log1p_moments", log1p_moments_masked)
        masked_near = noma_rate_near(cfg, powers)
    assert noma_rate_near(cfg, powers).tobytes() == masked_near.tobytes()


def test_j_functions_broadcast_over_arrays():
    r = 0.3 / np.array([1.0, 2.0, 5.0])
    m0, m1 = _log1p_moments(1.5, r)
    assert m0.shape == m1.shape == (3,)
    assert m0[1] == pytest.approx(_log1p_moments(1.5, 0.3 / 2.0)[0], rel=1e-15)
    _assert_kernel_matches_reference(1.5, r)  # scalar u, 1-d r
    mixed = _log1p_moments(np.array([0.5, 1.0]), np.array([0.0, 0.5]))[1]
    assert mixed[0] == pytest.approx(_log1p_moments(0.5, 0.0)[1])
    assert mixed[1] == pytest.approx(_log1p_moments(1.0, 0.5)[1])
    _assert_kernel_matches_reference(np.array([0.5, 1.0]), np.array([0.0, 0.5]))  # elementwise


def _read_only(values):
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _kernel_calls():
    """(name, kernel, args) over read-only arrays, numpy scalars and
    size-0 arrays; u from ``chebyshev_rule``'s read-only weights."""
    closed_s = _read_only([_SERIES_S, 0.5, 40.0, 1e12])
    series_s = _read_only([0.0, 1e-12, 1e-4, np.nextafter(_SERIES_S, 0.0)])
    u, r = chebyshev_rule(8).weights, _read_only([0.0, 1e-6, 1e-3, 0.5, 3.0, 40.0, 1e4, 1e-300])
    a, b = _read_only([[1.0, 2.0, 5.0], [0.5, 1e3, 7.0]]), _read_only([0.0, 1e-3, 40.0])
    # every s under _ONE_TERM_S (the weights are below 1), and three support
    # points on a leading axis
    tiny_r = _read_only([0.0, 5e-324, 1e-20, np.nextafter(_ONE_TERM_S, 0.0)])
    points = _read_only([[1.0], [2.0], [3.0]])
    empty = _read_only([])
    calls = [
        ("_phi_closed", _phi_closed, (closed_s,)),
        ("_phi_series", _phi_series, (series_s,)),
        ("_log1p_moments", _log1p_moments, (u, r[:, None])),
        ("_phi_closed", _phi_closed, (np.float64(0.5),)),
        ("_phi_series", _phi_series, (np.float64(1e-3),)),
        ("_log1p_moments", _log1p_moments, (np.float64(1.5), np.float64(0.3))),
        ("_phi_closed", _phi_closed, (empty,)),
        ("_phi_series", _phi_series, (empty,)),
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
        assert np.shape(g) == np.shape(w) == np.broadcast_shapes(*map(np.shape, args[:2]))
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
