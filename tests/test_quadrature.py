import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from passperf import (
    IntegrationError,
    SystemConfig,
    chebyshev_rule,
    integrate_interval,
    integrate_unit,
    j0,
    j1,
    noise_w,
    noma_rate_far,
    snr_db_to_power_w,
    wdma_avg_rate,
    wdma_outage_floor,
    wdma_rate_ceiling,
)
from passperf.quadrature import _SERIES_S, _log1p_moments
from passperf.sweep import omega_two

from oracles import log1p_moments_both_forms


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


@pytest.mark.parametrize("n", [2, 8, 64])
def test_node_symmetry_exact(n):
    rule = chebyshev_rule(n)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])


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


def test_constant_integral():
    assert integrate_unit(lambda t: np.ones_like(t), 64) == pytest.approx(2.0, abs=1e-3)
    assert integrate_interval(lambda x: 3.0, -2.0, 5.0, 64) == pytest.approx(21.0, rel=1e-3)


def test_sine_integral():
    assert integrate_interval(np.sin, 0.0, math.pi, 64) == pytest.approx(2.0, abs=1e-4)


def test_empty_interval_is_exactly_zero():
    for n in (1, 64, 128):
        assert integrate_interval(np.exp, 1.3, 1.3, n) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 128])
def test_weights_are_positive_and_exact_below_the_order(n):
    rule = chebyshev_rule(n)
    assert np.all(rule.weights > 0.0)
    assert abs(rule.weights.sum() - 2.0) <= 4 * np.spacing(2.0)
    for k in range(n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert rule.weights @ rule.nodes**k == pytest.approx(exact, abs=1e-14)


def test_rule_is_exact_to_rounding_on_smooth_integrals():
    assert integrate_unit(lambda t: np.ones_like(t), 64) == pytest.approx(2.0, abs=1e-14)
    assert integrate_interval(np.sin, 0.0, math.pi, 64) == pytest.approx(2.0, abs=1e-14)
    # doubling the order moves an analytic integrand's integral by rounding only
    f = lambda t: 1.0 / (2.0 + t)
    assert integrate_unit(f, 64) == pytest.approx(integrate_unit(f, 128), rel=1e-14)
    assert integrate_unit(f, 64) == pytest.approx(math.log(3.0), rel=1e-14)


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
    powers = np.array([snr_db_to_power_w(s, noise_w(cfg, 1)) for s in grid])
    for metric in (wdma_avg_rate, noma_rate_far):
        coarse, fine = metric(cfg, powers, 64), metric(cfg, powers, 128)
        assert np.allclose(coarse, fine, rtol=1e-12, atol=0.0), metric.__name__
    for limit in (wdma_rate_ceiling, wdma_outage_floor):
        assert limit(cfg, 64) == pytest.approx(limit(cfg, 128), rel=1e-12, abs=0.0)


def test_non_finite_integrand_reports_node():
    with pytest.raises(IntegrationError, match="node"):
        integrate_unit(lambda t: np.where(t > 0, 1.0, np.inf), 16)


def test_j_vanish_at_zero_and_are_continuous_as_b_vanishes():
    for a in (3.0, 1.0):
        for b in (0.0, 1e-9, 0.7, 1e6):
            assert j0(0.0, a, b) == 0.0
            assert j1(0.0, a, b) == 0.0
    # With a = 1 the ln(a) terms vanish, so the leading terms of the b -> 0+
    # expansion can be checked down to b = 1e-300 and on both sides of the
    # switch from the closed form to its series (s = b u^2 / a = 1e-2).
    u = 2.5
    assert j0(u, 1.0, 0.0) == 0.0
    assert j1(u, 1.0, 0.0) == 0.0
    for s in (0.5, 1.01e-2, 0.99e-2, 1e-4, 1e-12, 1e-300):
        b = s / u**2
        assert j0(u, 1.0, b) == pytest.approx(b * u**3 / 3 * (1 - 3 * s / 10), rel=2 * s**2 + 1e-13, abs=0)
        assert j1(u, 1.0, b) == pytest.approx(b * u**4 / 4 * (1 - s / 3), rel=2 * s**2 + 1e-13, abs=0)


def test_j0_zero_curvature_limit():
    assert j0(2.5, 4.0, 0.0) == pytest.approx(2.5 * math.log(4.0), rel=1e-14)
    assert j1(2.5, 4.0, 0.0) == pytest.approx(0.5 * 2.5**2 * math.log(4.0), rel=1e-14)


def test_j_rejects_bad_arguments():
    with pytest.raises(ValueError):
        j0(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        j1(1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        j0(1.0, 1.0, -1.0)


def test_derivative_matches_integrand_by_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = rng.uniform(0.1, 50.0)
        b = rng.uniform(0.0, 10.0)
        u = rng.uniform(0.1, 20.0)
        h = 1e-5 * max(u, 1.0)
        d0 = (j0(u + h, a, b) - j0(u - h, a, b)) / (2 * h)
        assert d0 == pytest.approx(math.log(a + b * u**2), rel=1e-6, abs=1e-6)
        d1 = (j1(u + h, a, b) - j1(u - h, a, b)) / (2 * h)
        assert d1 == pytest.approx(u * math.log(a + b * u**2), rel=1e-6, abs=1e-6)


@given(
    st.floats(min_value=0.1, max_value=30.0),
    st.floats(min_value=1e-3, max_value=5.0),
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=0.05, max_value=8.0),
)
@settings(max_examples=40, deadline=None)
def test_fundamental_theorem(a, b, u1, width):
    u2 = u1 + width
    numeric, _ = quad(lambda u: math.log(a + b * u * u), u1, u2, limit=200, epsrel=1e-12)
    closed = j0(u2, a, b) - j0(u1, a, b)
    assert closed == pytest.approx(numeric, rel=1e-8, abs=1e-10)
    numeric1, _ = quad(lambda u: u * math.log(a + b * u * u), u1, u2, limit=200, epsrel=1e-12)
    closed1 = j1(u2, a, b) - j1(u1, a, b)
    assert closed1 == pytest.approx(numeric1, rel=1e-8, abs=1e-10)


def test_j_functions_broadcast_over_arrays():
    a = np.array([1.0, 2.0, 5.0])
    out = j0(1.5, a, 0.3)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(j0(1.5, 2.0, 0.3), rel=1e-15)
    mixed = j1(np.array([0.5, 1.0]), 2.0, np.array([0.0, 1.0]))
    assert mixed[0] == pytest.approx(j1(0.5, 2.0, 0.0))
    assert mixed[1] == pytest.approx(j1(1.0, 2.0, 1.0))


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
    rng = np.random.default_rng(7)
    s = 10.0 ** rng.uniform(-12.0, 2.0, 10_000)
    points = np.array([0.0, 1.0, 3.0])
    _assert_kernel_matches_reference(points, (s / 9.0)[:, None])  # broadcast (..., 3)
    _assert_kernel_matches_reference(points, (s / 9.0).reshape(2, 50, 100, 1))


def test_integrate_unit_gives_one_integral_per_leading_index():
    scales = np.array([[0.5], [1.0], [3.0]])
    rows = integrate_unit(lambda t: np.exp(scales * t), 64)
    assert rows.shape == (3,)
    for scale, value in zip(scales[:, 0], rows):
        assert value == integrate_unit(lambda t, s=scale: np.exp(s * t), 64)
    assert type(integrate_unit(np.cos, 64)) is float
