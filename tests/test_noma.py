import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from passperf import (
    Placement,
    SystemConfig,
    derive_constants,
    mc_cell_estimates,
    noma_outage_far,
    noma_outage_near,
    noma_rate_far,
    noma_rate_far_ceiling,
    noma_rate_near,
    noma_zero_outage_thresholds,
    sinr,
    snr_db_to_power_w,
)
from passperf.geometry import expected_log_excess
from passperf.sweep import omega_two

from oracles import (
    diff_distribution,
    mp_far_rate,
    mp_near_rate,
    mp_noma_outages,
    near_pdf,
    outage_radii_sq,
    random_config,
    random_offset_config,
)

CFG = SystemConfig()


def power_at(snr_db, cfg=CFG):
    return snr_db_to_power_w(cfg, snr_db)


def test_far_sinr_interference_limited():
    p = Placement(5.0, 1.0, 2.0, -3.0)
    sinr_far = sinr("noma", 2, CFG, 1e6, p)
    cap = CFG.noma_alpha_far / CFG.noma_alpha_near
    assert sinr_far == pytest.approx(cap, rel=1e-3)
    assert sinr_far < cap


def test_near_sinr_at_centre():
    dc = derive_constants(CFG)
    p = Placement(5.0, 0.0, 4.0, -6.0)
    power = 1e-3
    assert sinr("noma", 1, CFG, power, p) == pytest.approx(
        dc.eta_m2 * CFG.noma_alpha_near * power / (dc.noise_w_ue1 * 9.0), rel=1e-12
    )


def test_near_user_is_picked_by_x_from_either_index():
    dc = derive_constants(CFG)
    power = power_at(100.0)
    # user 2's x is 1 m from the centre, user 1's is 4 m
    p = Placement(x_ue1=1.0, x_ue2=6.0, y_ue1=2.0, y_ue2=-3.0)
    near_gain = dc.eta_m2 * CFG.noma_alpha_near * power
    assert sinr("noma", 1, CFG, power, p) == pytest.approx(
        near_gain / (dc.noise_w_ue1 * (1.0 + 9.0)), rel=1e-12
    )
    assert sinr("noma", 2, CFG, power, p) == pytest.approx(
        dc.eta_m2 * CFG.noma_alpha_far * power / (near_gain + dc.noise_w_ue2 * (16.0 + 25.0 + 9.0)),
        rel=1e-12,
    )
    swapped = Placement(x_ue1=6.0, x_ue2=1.0, y_ue1=-3.0, y_ue2=2.0)
    for user in (1, 2):
        assert sinr("noma", user, CFG, power, swapped) == sinr("noma", user, CFG, power, p)


def test_sinr_depends_on_y_only_through_separation():
    power = power_at(100.0)
    a = Placement(4.0, 8.0, 1.0, -4.0)
    b = Placement(4.0, 8.0, 3.0, -2.0)
    for user in (2, 1):
        assert sinr("noma", user, CFG, power, a) == pytest.approx(
            sinr("noma", user, CFG, power, b), rel=1e-14
        )


def test_near_outage_quarter_point():
    # pick the power that puts the outage radius at (Dx/4)^2
    dc = derive_constants(CFG)
    c1_target = (CFG.region_x_m / 4) ** 2
    power = (
        CFG.outage_threshold
        * dc.noise_w_ue1
        * (c1_target + CFG.pa_height_m**2)
        / (dc.eta_m2 * CFG.noma_alpha_near)
    )
    assert outage_radii_sq(CFG, power)[0] == pytest.approx(c1_target, rel=1e-12)
    assert noma_outage_near(CFG, power) == pytest.approx(0.25, rel=1e-9)


def test_near_outage_zero_at_and_beyond_threshold():
    near_w, _ = noma_zero_outage_thresholds(CFG)
    assert noma_outage_near(CFG, near_w) == 0.0
    assert noma_outage_near(CFG, 1.0001 * near_w) == 0.0
    assert noma_outage_near(CFG, 0.99 * near_w) > 0.0


@pytest.mark.parametrize(
    "cfg, expected",
    [
        (CFG, (0.00468352995146371, 0.01607749567372207)),
        (omega_two(), (0.00468352995146371, 0.01607749567372207)),
        (replace(CFG, region_y_m=10.0), (0.00468352995146371, 0.004270277308687501)),
        (replace(CFG, noma_alpha_near=0.1, noma_alpha_far=0.9, pa_height_m=5.0),
         (0.0034437720231350814, 0.028411119190864424)),
        (replace(CFG, noma_alpha_near=0.2, noma_alpha_far=0.8), (0.0011708824878659276, None)),
    ],
    ids=["default", "omega_two", "compact", "split-tall", "unsupported-far"],
)
def test_zero_outage_thresholds_keep_their_values(cfg, expected):
    assert noma_zero_outage_thresholds(cfg) == expected


def test_outages_exactly_zero_at_and_beyond_zero_outage_power_on_random_configs():
    rng = np.random.default_rng(2024)
    factors = np.array([1.0, 1.0001, 10.0])
    for draw in range(200):
        cfg = random_config(rng) if draw % 2 == 0 else random_offset_config(rng)
        near_w, far_w = noma_zero_outage_thresholds(cfg)
        for metric, zero_w in ((noma_outage_near, near_w), (noma_outage_far, far_w)):
            if zero_w is None:
                continue
            assert np.all(metric(cfg, factors * zero_w) == 0.0)
            for factor in factors:
                assert metric(cfg, factor * zero_w) == 0.0


def test_near_outage_continuity_at_branch_edges():
    dc = derive_constants(CFG)

    def power_for_c1(c1):
        return (
            CFG.outage_threshold
            * dc.noise_w_ue1
            * (c1 + CFG.pa_height_m**2)
            / (dc.eta_m2 * CFG.noma_alpha_near)
        )

    m4 = (CFG.region_x_m / 2) ** 2
    # square-root behaviour at the lower edge, flat tangency at the upper one
    assert noma_outage_near(CFG, power_for_c1(1e-19)) == pytest.approx(1.0, abs=1e-9)
    assert noma_outage_near(CFG, power_for_c1(m4 - 1e-10)) == pytest.approx(0.0, abs=1e-9)


def test_near_outage_keeps_its_relative_accuracy_near_zero():
    # expanded, (1 - 2 sqrt(c1)/X)^2 cancels O(1) terms down to the outage:
    # 1 - 4 sqrt(c1)/X + 4 c1/X^2 was 5e-4 relative off at an outage of 4.6e-13
    pytest.importorskip("mpmath")
    dc = derive_constants(CFG)
    half_x = 0.5 * CFG.region_x_m
    for target in (10.0 ** -np.arange(7, 16)).tolist():
        c1_target = ((1.0 - math.sqrt(target)) * half_x) ** 2
        power = (
            CFG.outage_threshold
            * dc.noise_w_ue1
            * (c1_target + CFG.pa_height_m**2)
            / (dc.eta_m2 * CFG.noma_alpha_near)
        )
        # the 50-digit value from the same float c1 as the package's
        exact, _ = mp_noma_outages(CFG, power, radii=outage_radii_sq(CFG, power))
        assert 0.5 * target < exact < 2.0 * target
        assert abs(noma_outage_near(CFG, power) - exact) <= 1e-8 * exact, target


@pytest.mark.parametrize("snr_db", [90.0, 93.0, 95.0, 96.5, 97.0])
def test_near_outage_matches_monte_carlo(snr_db):
    power = power_at(snr_db)
    analytic = noma_outage_near(CFG, power)
    [[value]], [[std_error]] = mc_cell_estimates(100_000, 12345, [("noma", 1, "outage")], CFG, [power])
    assert abs(analytic - value) <= 3 * max(std_error, 1e-12) + 1e-9


def test_outage_closed_forms_round_within_bounds_of_a_50_digit_evaluation():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    named = [
        CFG,
        omega_two(),
        replace(CFG, noma_alpha_near=0.2, noma_alpha_far=0.8),
        replace(CFG, region_y_offset_m=3.0, pa_height_m=6.0),
    ]
    drawn = [random_config(rng) if i % 2 == 0 else random_offset_config(rng) for i in range(8)]

    def max_error(cfg, metric, zero_w, user):
        # from the same float radii as the package's
        powers = np.geomspace(1e-3, 1.0, 400) * zero_w
        references = (mp_noma_outages(cfg, power, radii=outage_radii_sq(cfg, power))[user - 1]
                      for power in powers.tolist())
        return max(abs(float(mpmath.mpf(value) - reference))
                   for value, reference in zip(metric(cfg, powers).tolist(), references))

    for index, cfg in enumerate(named + drawn):
        near_w, far_w = noma_zero_outage_thresholds(cfg)
        assert max_error(cfg, noma_outage_near, near_w, 1) <= 4e-15
        if far_w is None:
            continue
        far_error = max_error(cfg, noma_outage_far, far_w, 2)
        if index < len(named):
            assert far_error <= 5e-13
        # near full coverage the far closed form cancels terms as large
        # as (2/3) hi (m4 + hi^2)^1.5 / (w^2 m4); its rounding error
        # scales with them, not with the outage
        hi = 2.0 * (cfg.region_y_offset_m + cfg.region_y_m)
        m4 = (0.5 * cfg.region_x_m) ** 2
        largest_term = 2.0 / 3.0 * hi * (m4 + hi**2) ** 1.5 / (cfg.region_y_m**2 * m4)
        assert far_error <= 4.0 * np.finfo(float).eps * largest_term


def test_far_outage_certain_when_threshold_exceeds_power_split_cap():
    for threshold in (19.5, 25.0):
        cfg = replace(CFG, outage_threshold=threshold)
        for snr_db in (90.0, 150.0, 250.0):
            assert noma_outage_far(cfg, power_at(snr_db, cfg)) == 1.0
        assert outage_radii_sq(cfg, power_at(150.0, cfg))[1] < 0.0


def test_far_outage_threshold_bracketing():
    _, far_w = noma_zero_outage_thresholds(CFG)
    assert far_w is not None
    assert noma_outage_far(CFG, 0.99 * far_w) > 0.0
    assert noma_outage_far(CFG, far_w) == 0.0
    assert noma_outage_far(CFG, 1.01 * far_w) == 0.0


@pytest.mark.parametrize("snr_db", [90.0, 95.0, 98.0, 100.0, 101.5])
def test_far_outage_matches_monte_carlo(snr_db):
    power = power_at(snr_db)
    analytic = noma_outage_far(CFG, power)
    [[value]], [[std_error]] = mc_cell_estimates(100_000, 12345, [("noma", 2, "outage")], CFG, [power])
    assert abs(analytic - value) <= 3 * max(std_error, 1e-12) + 1e-9


@pytest.mark.parametrize("seed, draws", [(31, 5), (32, 10)])
def test_far_outage_matches_mpmath_on_drawn_configs(seed, draws):
    # within 4e-14 on these draws: the closed form cancels terms near full coverage
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        cfg = random_config(rng)
        _, far_w = noma_zero_outage_thresholds(cfg)
        assert far_w is not None
        power = rng.uniform(0.1, 0.95) * far_w
        assert abs(noma_outage_far(cfg, power) - mp_noma_outages(cfg, power)[1]) <= 1e-12


def test_offset_layout_far_user_matches_mpmath():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(43)
    for _ in range(6):
        cfg = random_offset_config(rng)
        power = snr_db_to_power_w(CFG, rng.uniform(85.0, 160.0))
        reference = mp_far_rate(cfg, power)
        assert abs(noma_rate_far(cfg, power) - reference) <= 1e-12 * reference
        # place the outage radius inside the range where the outage moves
        lo = 2.0 * cfg.region_y_offset_m
        hi = lo + 2.0 * cfg.region_y_m
        c2 = rng.uniform(lo**2, (0.5 * cfg.region_x_m) ** 2 + hi**2)
        dc = derive_constants(cfg)
        kappa = (
            dc.eta_m2
            * (cfg.noma_alpha_far / cfg.outage_threshold - cfg.noma_alpha_near)
            / dc.noise_w_ue2
        )
        if kappa <= 0.0:
            continue
        power = (c2 + cfg.pa_height_m**2) / kappa
        assert abs(noma_outage_far(cfg, power) - mp_noma_outages(cfg, power)[1]) <= 1e-12


def test_far_outage_continuous_across_breakpoint_activations():
    dc = derive_constants(CFG)
    dy_sq = CFG.region_y_m**2
    m4 = (CFG.region_x_m / 2) ** 2
    kappa = (
        dc.eta_m2
        * (CFG.noma_alpha_far / CFG.outage_threshold - CFG.noma_alpha_near)
        / dc.noise_w_ue2
    )
    events_c2 = [0.0, dy_sq, 4 * dy_sq, m4, m4 + dy_sq, m4 + 4 * dy_sq]
    for c2 in events_c2:
        power = (c2 + CFG.pa_height_m**2) / kappa
        below = noma_outage_far(CFG, power * (1 - 1e-9))
        above = noma_outage_far(CFG, power * (1 + 1e-9))
        assert abs(above - below) < 1e-6


def test_near_rate_zero_power_limit():
    assert noma_rate_near(CFG, 1e-30) == pytest.approx(0.0, abs=1e-9)


def test_near_rate_matches_numeric_integration():
    dc = derive_constants(CFG)
    centre = CFG.region_x_m / 2
    for snr_db in (90.0, 110.0, 130.0):
        power = power_at(snr_db)
        k = dc.eta_m2 * CFG.noma_alpha_near * power / dc.noise_w_ue1

        def integrand(x):
            g = (x - centre) ** 2 + CFG.pa_height_m**2
            return math.log2(1.0 + k / g) * near_pdf(x, CFG)

        oracle, _ = quad(integrand, 0.0, CFG.region_x_m, points=[centre], limit=200, epsrel=1e-12)
        assert noma_rate_near(CFG, power) == pytest.approx(oracle, abs=1e-8)


def test_near_rate_keeps_full_precision_at_high_snr():
    # the closed form must not lose the rate to cancelling ln(h^2 + k) terms
    cfg = SystemConfig(noma_alpha_near=0.2, noma_alpha_far=0.8)
    dc = derive_constants(cfg)
    centre = cfg.region_x_m / 2
    for snr_db in (150.0, 250.0, 400.0):
        power = power_at(snr_db, cfg)
        k = dc.eta_m2 * cfg.noma_alpha_near * power / dc.noise_w_ue1

        def integrand(x):
            g = (x - centre) ** 2 + cfg.pa_height_m**2
            return math.log2(1.0 + k / g) * near_pdf(x, cfg)

        oracle, _ = quad(
            integrand, 0.0, cfg.region_x_m, points=[centre], limit=200, epsabs=0, epsrel=1e-13
        )
        assert noma_rate_near(cfg, power) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"noma_alpha_near": 0.2, "noma_alpha_far": 0.8},
     {"region_y_m": 10.0, "region_y_offset_m": 10.0}, {"region_x_m": 1000.0},
     {"region_y_m": 1.0, "region_y_offset_m": 50.0}],
    ids=["default", "split", "omega_two", "long_1000", "narrow"],
)
def test_near_rate_matches_a_40_digit_evaluation_from_minus_50_db(overrides):
    # the rate is the positive kernel's T at one point, so it keeps its
    # relative accuracy where it is tiny (4.4e-14 bits/s/Hz at -50 dB on the
    # default config)
    pytest.importorskip("mpmath")
    cfg = SystemConfig(**overrides)
    snrs_db = np.arange(-50.0, 401.0, 10.0)
    powers = np.array([power_at(snr_db, cfg) for snr_db in snrs_db])
    for power, value in zip(powers.tolist(), noma_rate_near(cfg, powers).tolist()):
        reference = mp_near_rate(cfg, power)
        assert abs(value - reference) <= 1e-12 * reference, (power, value)


def test_near_rate_keeps_its_value_on_a_region_1e150_m_long():
    # c = X/2 is ~1e150 antenna heights: the rate is
    # (2/c) int_0^inf ln(1 + k / (h^2 + t^2)) dt = (2 pi / c)(sqrt(h^2 + k) - h)
    # less terms of relative order h / c and sqrt(k) / c, ~1e-150, over ln 2
    pytest.importorskip("mpmath")
    cfg = SystemConfig(region_x_m=1e150)
    power = power_at(90.0, cfg)
    reference = mp_near_rate(cfg, power)
    assert abs(noma_rate_near(cfg, power) - reference) <= 1e-12 * reference


def test_near_rate_full_multiplexing_gain():
    dc = derive_constants(CFG)
    power = 1e6 * dc.noise_w_ue1 * CFG.pa_height_m**2 / dc.eta_m2
    slope = noma_rate_near(CFG, 10 * power) - noma_rate_near(CFG, power)
    assert slope == pytest.approx(math.log2(10.0), abs=1e-2)


def test_far_rate_below_power_split_ceiling_on_grid():
    ceiling = noma_rate_far_ceiling(CFG)
    assert ceiling == pytest.approx(math.log2(20.0), rel=1e-15)
    for snr_db in np.linspace(90.0, 150.0, 13):
        assert noma_rate_far(CFG, power_at(snr_db)) < ceiling


def test_far_rate_approaches_ceiling():
    power = 1e20 * derive_constants(CFG).noise_w_ue2
    assert noma_rate_far(CFG, power) == pytest.approx(math.log2(20.0), abs=1e-3)
    assert noma_rate_far(CFG, power_at(400.0)) == pytest.approx(
        noma_rate_far_ceiling(CFG), rel=1e-14
    )


def test_far_rate_zero_power_limit():
    assert noma_rate_far(CFG, 1e-30) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("snr_db", [90.0, 105.0, 120.0, 135.0, 150.0])
def test_far_rate_matches_monte_carlo(snr_db):
    power = power_at(snr_db)
    analytic = noma_rate_far(CFG, power)
    [[value]], [[std_error]] = mc_cell_estimates(100_000, 12345, [("noma", 2, "rate")], CFG, [power])
    assert abs(analytic - value) <= max(3 * std_error, 0.01 * analytic)


def test_far_rate_matches_mpmath_on_drawn_configs():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(33)
    for _ in range(5):
        cfg = random_config(rng)
        power = snr_db_to_power_w(CFG, rng.uniform(90.0, 125.0))
        reference = mp_far_rate(cfg, power)
        assert abs(noma_rate_far(cfg, power) - reference) <= 1e-12 * reference


_EVERY_SNR_DB = [-50.0, -20.0, 20.0, 60.0, 100.0, 160.0, 400.0]
# sub-regions 600 antenna heights deep, with a far share near 1000 times the
# near share: the level integral takes up to three pieces
_DEEP = {"pa_height_m": 0.5, "region_y_m": 300.0, "noma_alpha_near": 1e-3, "noma_alpha_far": 0.999}


@pytest.mark.parametrize(
    "overrides, snrs_db",
    [
        # the rate integrates a positive log ratio over the interference
        # level, so it keeps its relative accuracy at low SNR, where it is
        # ~1e-14
        ({}, _EVERY_SNR_DB),
        ({"region_y_m": 10.0, "region_y_offset_m": 10.0}, _EVERY_SNR_DB),
        # sub-regions narrow against their offset: the separation mean takes
        # its rule, where the closed form's second difference would cancel
        ({"region_y_m": 1.0, "region_y_offset_m": 50.0}, [-50.0, 60.0, 150.0]),
        # far shares beyond 20 times the near share: the level integral
        # takes up to four pieces, on a region 333 antenna heights long
        ({"region_x_m": 1000.0, "noma_alpha_near": 1e-4, "noma_alpha_far": 1 - 1e-4},
         [70.0, 88.0, 94.0, 200.0]),
        # a far share 10^8 times the near share on a region 2100 antenna
        # heights long: C >> k1 + h^2 on the lowest levels
        ({"pa_height_m": 1.4, "region_x_m": 2939.0, "region_y_m": 2.8, "region_y_offset_m": 0.23,
          "noma_alpha_near": 1e-8, "noma_alpha_far": 1 - 1e-8}, [78.0, 90.0]),
        # and separations up to 60 antenna heights
        ({"pa_height_m": 1.5, "region_y_m": 30.0, "region_y_offset_m": 15.0,
          "noma_alpha_near": 1e-4, "noma_alpha_far": 1 - 1e-4}, [80.0, 120.0]),
        # SNR coefficients near 1e209 in reduced units, over 20 pieces: p (rb
        # - ra) / (ra rb + q), formed directly, is subnormal there
        ({"carrier_freq_hz": 2.2424637011999602e36, "pa_height_m": 7.271534072513419e-154,
          "region_x_m": 1.5545916903527123e-143, "region_y_m": 1.541962003575878e-150,
          "noise_power_dbm_ue2": 325.0026343623912, "noma_alpha_near": 1.1153128404227371e-26,
          "noma_alpha_far": 1.0}, [235.0, 240.0]),
        (_DEEP, [20.0, 120.0, 160.0]),
        # a 1e150 m antenna: the region's squared lengths and the SNR
        # coefficients are ~1e-298 in reduced units, and the rate ~1e-297
        ({"pa_height_m": 1e150}, [90.0, 150.0, 400.0]),
    ],
    ids=["default", "omega_two", "narrow", "long_split", "long_offset_split", "wide_offset_split",
         "huge_snr_coefficient", "deep", "tall_antenna"],
)
def test_far_rate_matches_a_40_digit_evaluation(overrides, snrs_db):
    pytest.importorskip("mpmath")
    cfg = SystemConfig(**overrides)
    powers = snr_db_to_power_w(cfg, snrs_db)
    for power, value in zip(powers, noma_rate_far(cfg, np.array(powers)).tolist()):
        reference = mp_far_rate(cfg, power)
        assert abs(value - reference) <= 1e-12 * reference, (power, value, reference)


def test_far_rate_on_sub_regions_many_antenna_heights_deep_is_within_1e_14():
    # a closed-form antiderivative of the level integral lost digits here
    # (8.4e-13 relative off at 74 dB); the rule on each piece does not
    pytest.importorskip("mpmath")
    cfg = SystemConfig(**_DEEP)
    power = power_at(74.0, cfg)
    reference = mp_far_rate(cfg, power)
    assert abs(noma_rate_far(cfg, power) - reference) <= 1e-14 * reference


def _piece_boundary_w(cfg, pieces):
    """The power in W where the far rate's level integral on the adjacent
    sub-regions of ``cfg`` goes from ``pieces`` to ``pieces + 1`` pieces:
    where k2 / (k1 + h^2) = 21^pieces - 1."""
    model = derive_constants(cfg)
    ratio = 21.0**pieces - 1.0
    snr = ratio * cfg.pa_height_m**2 / (cfg.noma_alpha_far - ratio * cfg.noma_alpha_near)
    return snr * model.noise_w_ue2 / model.eta_m2


@pytest.mark.parametrize("pieces", [1, 2])
def test_far_rate_keeps_its_accuracy_on_either_side_of_a_piece_boundary(pieces):
    pytest.importorskip("mpmath")
    cfg = SystemConfig(noma_alpha_near=1e-4, noma_alpha_far=1 - 1e-4)
    boundary = _piece_boundary_w(cfg, pieces)
    for power in (boundary * (1.0 - 1e-6), boundary * (1.0 + 1e-6)):
        reference = mp_far_rate(cfg, power)
        assert abs(noma_rate_far(cfg, power) - reference) <= 1e-14 * reference, power


def test_delta_log_gap_nonnegative_over_offsets():
    # the rate integrand: adding the far-user power always increases the log
    dc = derive_constants(CFG)
    power = power_at(110.0)
    k1 = dc.eta_m2 * CFG.noma_alpha_near * power
    k2 = dc.eta_m2 * CFG.noma_alpha_far * power
    n2 = dc.noise_w_ue2
    dist = diff_distribution(CFG)

    def expected_log(beta):
        return math.log(beta) + expected_log_excess(beta, n2, dist)

    for m in np.linspace(0.0, (CFG.region_x_m / 2) ** 2, 200):
        beta1 = k1 + n2 * (CFG.pa_height_m**2 + m)
        assert expected_log(beta1 + k2) - expected_log(beta1) >= 0.0


def test_thresholds():
    near_w, far_w = noma_zero_outage_thresholds(CFG)
    dc = derive_constants(CFG)
    m4 = (CFG.region_x_m / 2) ** 2
    assert near_w == pytest.approx(
        CFG.outage_threshold * dc.noise_w_ue1 * (m4 + 9.0) / (dc.eta_m2 * 0.05), rel=1e-12
    )
    assert far_w == pytest.approx(
        CFG.outage_threshold * dc.noise_w_ue2 * (m4 + 1600.0 + 9.0) / (dc.eta_m2 * 0.7),
        rel=1e-12,
    )
    # power split too tight for the threshold: far user unsupportable
    assert noma_zero_outage_thresholds(replace(CFG, outage_threshold=19.0))[1] is None
    assert (
        noma_zero_outage_thresholds(
            replace(CFG, noma_alpha_near=0.2, noma_alpha_far=0.8)
        )[1]
        is None
    )


def test_offset_region_far_user_against_monte_carlo():
    cfg = omega_two()
    for snr_db in (98.0, 100.5):
        power = power_at(snr_db, cfg)
        analytic = noma_outage_far(cfg, power)
        [[value]], [[std_error]] = mc_cell_estimates(100_000, 17, [("noma", 2, "outage")], cfg, [power])
        assert abs(analytic - value) <= 3 * max(std_error, 1e-12) + 1e-4
        rate = noma_rate_far(cfg, power)
        [[value]], [[std_error]] = mc_cell_estimates(100_000, 17, [("noma", 2, "rate")], cfg, [power])
        assert abs(rate - value) <= max(3 * std_error, 0.01 * rate)


def test_monotone_in_power():
    outages_near, outages_far, rates_near, rates_far = [], [], [], []
    for snr_db in np.linspace(90.0, 150.0, 30):
        power = power_at(snr_db)
        outages_near.append(noma_outage_near(CFG, power))
        outages_far.append(noma_outage_far(CFG, power))
        rates_near.append(noma_rate_near(CFG, power))
        rates_far.append(noma_rate_far(CFG, power))
    assert np.all(np.diff(outages_near) <= 1e-12)
    assert np.all(np.diff(outages_far) <= 1e-12)
    assert np.all(np.diff(rates_near) >= -1e-12)
    assert np.all(np.diff(rates_far) >= -1e-12)


def test_rejects_non_positive_power():
    with pytest.raises(ValueError):
        noma_outage_near(CFG, 0.0)
    with pytest.raises(ValueError):
        noma_rate_far(CFG, -1.0)
