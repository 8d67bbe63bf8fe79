import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from passperf import (
    IntegrationError,
    SystemConfig,
    chebyshev_rule,
    sample_placements,
)
from passperf.geometry import expected_log_excess
from passperf.quadrature import integrate_rows

from oracles import (
    DiffDistribution,
    diff_cdf,
    diff_distribution,
    diff_pdf,
    far_pdf,
    g_axis,
    near_coord_cdf_g,
    near_pdf,
    sq_diff_cdf,
)

CFG = SystemConfig()
N_SAMPLES = 100_000


def test_g_axis_examples():
    assert g_axis(CFG.region_x_m / 2, CFG) == pytest.approx(9.0, rel=1e-15)
    assert g_axis(0.0, CFG) == pytest.approx(34.0, rel=1e-15)
    assert g_axis(CFG.region_x_m, CFG) == g_axis(0.0, CFG)


@given(st.floats(min_value=5.0, max_value=10.0))
def test_g_axis_symmetric_about_centre(x):
    mirrored = CFG.region_x_m - x
    assert g_axis(x, CFG) == g_axis(mirrored, CFG)


def test_wdma_sample_marginals():
    rng = np.random.default_rng(1)
    p = sample_placements(CFG, rng, size=N_SAMPLES)
    # law of large numbers: mean within 4 standard errors
    for x in (p.x_ue1, p.x_ue2):
        se = CFG.region_x_m / math.sqrt(12 * N_SAMPLES)
        assert abs(np.mean(x) - CFG.region_x_m / 2) < 4 * se
    assert np.all((p.y_ue1 >= 0) & (p.y_ue1 <= CFG.region_y_m))
    assert np.all((p.y_ue2 >= -CFG.region_y_m) & (p.y_ue2 <= 0))


def test_wdma_sample_offset_region():
    cfg = SystemConfig(region_y_m=10.0, region_y_offset_m=10.0)
    p = sample_placements(cfg, np.random.default_rng(2), size=N_SAMPLES)
    assert np.all((p.y_ue1 >= 10.0) & (p.y_ue1 <= 20.0))
    assert np.all((p.y_ue2 >= -20.0) & (p.y_ue2 <= -10.0))


def test_samplers_deterministic_bitwise():
    a = sample_placements(CFG, np.random.default_rng(7), size=1000)
    b = sample_placements(CFG, np.random.default_rng(7), size=1000)
    for field in ("x_ue1", "x_ue2", "y_ue1", "y_ue2"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("offset", [0.0, 10.0])
def test_y_separation_matches_cdf_ks(offset):
    cfg = SystemConfig(region_y_m=10.0, region_y_offset_m=offset)
    dist = diff_distribution(cfg)
    p = sample_placements(cfg, np.random.default_rng(5), size=N_SAMPLES)
    sep = np.abs(p.y_ue1 - p.y_ue2)
    result = kstest(sep, lambda u: diff_cdf(u, dist))
    assert result.statistic < 0.01


def test_near_coord_cdf_matches_samples_ks():
    p = sample_placements(CFG, np.random.default_rng(6), size=N_SAMPLES)
    centre = CFG.region_x_m / 2
    g1 = np.minimum((p.x_ue1 - centre) ** 2, (p.x_ue2 - centre) ** 2)
    result = kstest(g1, lambda g: near_coord_cdf_g(g, CFG))
    assert result.statistic < 0.01


def test_diff_pdf_examples():
    dist = diff_distribution(CFG)
    dy = CFG.region_y_m
    assert diff_pdf(dy, dist) == pytest.approx(1.0 / dy, rel=1e-12)
    assert diff_pdf(0.0, dist) == 0.0
    assert diff_pdf(2 * dy, dist) == 0.0


@given(
    st.floats(min_value=0.5, max_value=30.0),
    st.floats(min_value=0.0, max_value=20.0),
)
@settings(max_examples=25, deadline=None)
def test_diff_pdf_normalised(half_width, offset):
    cfg = SystemConfig(region_y_m=half_width, region_y_offset_m=offset)
    dist = diff_distribution(cfg)
    mass, _ = quad(
        lambda u: diff_pdf(u, dist),
        dist.support_lo,
        dist.support_hi,
        points=[dist.peak],
        limit=100,
    )
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_sq_diff_cdf_examples():
    dist = diff_distribution(CFG)
    dy = CFG.region_y_m
    assert sq_diff_cdf(dy**2, dist) == pytest.approx(0.5, rel=1e-12)
    assert sq_diff_cdf(4 * dy**2, dist) == pytest.approx(1.0, rel=1e-12)
    # second piece at y = 2 dy^2 evaluates to 2 sqrt(2) - 2
    assert sq_diff_cdf(2 * dy**2, dist) == pytest.approx(2 * math.sqrt(2) - 2, rel=1e-12)
    assert sq_diff_cdf(-1.0, dist) == 0.0
    assert sq_diff_cdf(5 * dy**2, dist) == 1.0


def test_sq_diff_cdf_is_pushforward_of_density():
    rng = np.random.default_rng(11)
    for offset in (0.0, 7.0):
        cfg = SystemConfig(region_y_m=10.0, region_y_offset_m=offset)
        dist = diff_distribution(cfg)
        for y in rng.uniform(0.0, dist.support_hi**2 * 1.1, size=25):
            mass, _ = quad(
                lambda u: diff_pdf(u, dist),
                dist.support_lo,
                min(math.sqrt(y), dist.support_hi),
                points=[dist.peak],
                limit=100,
            )
            assert sq_diff_cdf(y, dist) == pytest.approx(mass, abs=1e-9)


@pytest.mark.parametrize("offset", [0.0, 4.0])
def test_cdfs_monotone_with_correct_limits(offset):
    cfg = SystemConfig(region_y_m=10.0, region_y_offset_m=offset)
    dist = diff_distribution(cfg)
    grid = np.linspace(-1.0, dist.support_hi**2 * 1.2, 1000)
    values = sq_diff_cdf(grid, dist)
    assert np.all(np.diff(values) >= 0.0)
    assert values[0] == 0.0
    assert values[-1] == 1.0
    g_grid = np.linspace(-1.0, (cfg.region_x_m / 2) ** 2 * 1.2, 1000)
    g_values = near_coord_cdf_g(g_grid, cfg)
    assert np.all(np.diff(g_values) >= 0.0)
    assert g_values[0] == 0.0
    assert g_values[-1] == 1.0


def test_near_coord_cdf_examples():
    dx = CFG.region_x_m
    assert near_coord_cdf_g((dx / 2) ** 2, CFG) == pytest.approx(1.0, rel=1e-12)
    assert near_coord_cdf_g((dx / 4) ** 2, CFG) == pytest.approx(0.75, rel=1e-12)


def test_ordered_coordinate_densities():
    dx = CFG.region_x_m
    centre = dx / 2
    assert near_pdf(centre, CFG) == pytest.approx(2.0 / dx, rel=1e-12)
    assert far_pdf(centre, CFG) == 0.0
    assert near_pdf(0.0, CFG) == pytest.approx(0.0, abs=1e-15)
    for pdf in (near_pdf, far_pdf):
        mass, _ = quad(lambda x: pdf(x, CFG), 0.0, dx, points=[centre], limit=100)
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert np.all(pdf(np.linspace(0, dx, 500), CFG) >= 0.0)


@pytest.mark.parametrize("offset", [0.0, 0.3, 10.0])
def test_expected_log_excess_matches_numeric_integration(offset):
    dist = DiffDistribution(half_width=7.0, offset=offset)
    lo, peak, hi = dist.support_lo, dist.peak, dist.support_hi
    a = 3.0
    for ratio in (1e-30, 1e-12, 1e-5, 1e-2, 0.7, 1e4):
        b = ratio * a

        def f(u):
            return math.log1p(ratio * u * u) * diff_pdf(u, dist)

        oracle = quad(f, lo, peak, epsabs=0, epsrel=1e-13, limit=200)[0]
        oracle += quad(f, peak, hi, epsabs=0, epsrel=1e-13, limit=200)[0]
        assert expected_log_excess(a, b, dist) == pytest.approx(oracle, rel=1e-11, abs=0)
    out = expected_log_excess(np.array([1.0, 2.0]), 0.5, dist)
    assert out.shape == (2,)
    assert out[1] == expected_log_excess(2.0, 0.5, dist)


def test_expected_log_excess_on_a_narrow_offset_matches_mpmath():
    # sub-regions 1 deep, 100 from each other (lo >= _NARROW w): the mean
    # takes the rule on each half of the support, where the second
    # difference of T would cancel about (102 / 1)^2 / 2 = 5202-fold
    mp = pytest.importorskip("mpmath").mp
    dist = DiffDistribution(half_width=1.0, offset=50.0)
    lo, peak, hi = dist.support_lo, dist.peak, dist.support_hi
    for ratio in (1e-30, 1e-12, 1e-5, 1e-2, 0.7, 1e4):
        with mp.workdps(50):
            r = mp.mpf(ratio)
            rise = mp.quad(lambda u: (u - lo) * mp.log1p(r * u * u), [lo, peak])
            fall = mp.quad(lambda u: (hi - u) * mp.log1p(r * u * u), [peak, hi])
            want = float(rise + fall)
        assert abs(expected_log_excess(1.0, ratio, dist) - want) <= 1e-15 * want


@pytest.mark.parametrize("offset", [0.0, 3.0])
def test_expected_log_excess_on_a_stacked_axis_equals_its_slices_bitwise(offset):
    # operands stacked on a leading axis give each slice the bits of its own
    # call: with w = 7 the slices' ratios put s = r u^2 at the support points
    # below 2^-53, below the deficit helpers' switches, above them, and all
    # of these
    dist = DiffDistribution(half_width=7.0, offset=offset)
    rng = np.random.default_rng(3)
    ranges = [(-300.0, -19.0), (-15.0, -6.0), (-2.0, 4.0), (-300.0, 4.0)]
    ratio = np.stack([10.0 ** rng.uniform(lo, hi, (5, 16)) for lo, hi in ranges])
    a = 10.0 ** rng.uniform(-3.0, 3.0, ratio.shape)
    b = ratio * a
    stacked = expected_log_excess(a, b, dist)
    assert stacked.shape == ratio.shape
    for i in range(len(ranges)):
        assert stacked[i].tobytes() == expected_log_excess(a[i], b[i], dist).tobytes()
    pair = expected_log_excess(a[:2], b[:2], dist)
    assert pair.tobytes() == stacked[:2].tobytes()


@pytest.mark.parametrize("offset", [0.0, 3.0])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("rows", [[1e-25, 1e-24, 1e-23], [1e-25, 1e-5, 1.0]], ids=["tiny", "mixed"])
def test_a_non_finite_ratio_ends_in_an_error_naming_its_node(offset, bad, rows):
    # a NaN or inf ratio beside tiny ratios or ratios of every size gives a
    # non-finite integrand at its node; inf takes inf / inf in 1 - ln(1 + s)
    # / s, which numpy reports as an invalid operation
    dist = DiffDistribution(half_width=7.0, offset=offset)
    nodes = chebyshev_rule(16).nodes

    def integrand(t, block):
        b = block[:, None] * (t + 2.0)
        b[1, 5] = bad
        return expected_log_excess(1.0, b, dist)

    with np.errstate(invalid="ignore"):
        with pytest.raises(IntegrationError, match=rf"node t={re.escape(repr(nodes[5]))}"):
            integrate_rows(integrand, np.array(rows), 16)
