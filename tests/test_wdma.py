import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passperf import (
    Placement,
    SystemConfig,
    derive_constants,
    mc_cell_estimates,
    sample_placements,
    sinr,
    snr_db_to_power_w,
    wdma_avg_rate,
    wdma_outage,
    wdma_outage_floor,
    wdma_rate_ceiling,
)
from passperf import geometry, wdma
from passperf.config import SPEED_OF_LIGHT_M_S
from passperf.quadrature import _ONE_TERM_S, _SERIES_S, integrate_rows
from passperf.sweep import omega_one, omega_two
from passperf.wdma import _log_rate_coeffs

from oracles import (
    g_axis,
    random_config,
    random_offset_config,
    wdma_rate_nested,
    wdma_rate_quad2d,
)

CFG = SystemConfig()
NOISE = derive_constants(CFG).noise_w_ue1


def power_at(snr_db, cfg=CFG):
    return snr_db_to_power_w(cfg, snr_db)


def test_sinr_noise_limited_when_users_far_apart():
    cfg = SystemConfig(region_y_m=1e9)
    dc = derive_constants(cfg)
    p = Placement(x_ue1=5.0, x_ue2=5.0, y_ue1=1e9, y_ue2=-1e9)
    power = 1e-3
    sinr_ue1 = sinr("wdma", 1, cfg, power, p)
    expected = (dc.eta_m2 / 9.0) * power / (2 * dc.noise_w_ue1)
    assert sinr_ue1 == pytest.approx(expected, rel=1e-3)


def test_sinr_colocated_y_is_below_one():
    p = Placement(x_ue1=3.0, x_ue2=3.0, y_ue1=0.0, y_ue2=0.0)
    sinr_ue1 = sinr("wdma", 1, CFG, 1e-3, p)
    g = derive_constants(CFG).eta_m2 / g_axis(p.x_ue1, CFG)
    assert sinr_ue1 == pytest.approx(g / (g + 2e-12 / 1e-3), rel=1e-12)
    assert sinr_ue1 < 1.0


def test_sinr_matches_symbolic_rederivation():
    dc = derive_constants(CFG)
    power = power_at(100.0)
    p = sample_placements(CFG, np.random.default_rng(0), size=100)
    sinr_ue1 = sinr("wdma", 1, CFG, power, p)
    g = g_axis(p.x_ue1, CFG)
    y_sq = (p.y_ue1 - p.y_ue2) ** 2
    expected = (1.0 / g) / (1.0 / (g + y_sq) + 2 * dc.noise_w_ue1 / (dc.eta_m2 * power))
    assert sinr_ue1 == pytest.approx(expected, rel=1e-12)


def test_sinr_never_exceeds_interference_free_bound():
    power = power_at(120.0)
    p = sample_placements(CFG, np.random.default_rng(1), size=100)
    signal_gain = derive_constants(CFG).eta_m2 / g_axis(p.x_ue1, CFG)
    bound = signal_gain * power / (2 * 1e-12)
    assert np.all(sinr("wdma", 1, CFG, power, p) < bound)


def test_instantaneous_rate_log_form_identity():
    dc = derive_constants(CFG)
    power = power_at(105.0)
    b_noise = 2 * dc.noise_w_ue1 / (dc.eta_m2 * power)
    p = sample_placements(CFG, np.random.default_rng(2), size=100)
    sinr_ue1 = sinr("wdma", 1, CFG, power, p)
    u = np.abs(p.y_ue1 - p.y_ue2)
    a, b, c, d = _log_rate_coeffs(g_axis(p.x_ue1, CFG), b_noise)
    log_form = np.log((a + b * u**2) / (c + d * u**2)) / math.log(2)
    assert log_form == pytest.approx(np.log2(1 + sinr_ue1), abs=1e-10)


def test_outage_saturates_to_one_at_vanishing_power():
    assert wdma_outage(CFG, power_at(-100.0)) == pytest.approx(1.0, abs=1e-12)


def test_outage_limits_in_threshold():
    # threshold too high for the region geometry: separation CDF saturates
    cfg = SystemConfig(outage_threshold=1e9)
    assert wdma_outage(cfg, power_at(150.0, cfg)) == pytest.approx(1.0, abs=1e-9)
    # threshold at or below one costs nothing at high power
    cfg = SystemConfig(outage_threshold=1.0)
    assert wdma_outage(cfg, power_at(200.0, cfg)) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("snr_db", [90.0, 105.0, 120.0, 135.0, 150.0])
def test_outage_matches_monte_carlo(snr_db):
    power = power_at(snr_db)
    analytic = wdma_outage(CFG, power)
    est = mc_cell_estimates(100_000, 12345, [("wdma", 1)], CFG, [power])[("wdma", 1)]["outage"][0]
    assert abs(analytic - est.value) <= 3 * max(est.std_error, 1e-12)


@pytest.mark.parametrize("snr_db", [90.0, 105.0, 120.0, 135.0, 150.0])
def test_rate_matches_monte_carlo(snr_db):
    power = power_at(snr_db)
    analytic = wdma_avg_rate(CFG, power)
    est = mc_cell_estimates(100_000, 12345, [("wdma", 1)], CFG, [power])[("wdma", 1)]["rate"][0]
    assert abs(analytic - est.value) <= max(3 * est.std_error, 0.01 * analytic)


def test_rate_vanishes_with_power():
    assert wdma_avg_rate(CFG, 1e-30) == pytest.approx(0.0, abs=1e-9)


def test_user_two_mirrors_user_one_with_equal_noise():
    power = power_at(110.0)
    assert wdma_outage(CFG, power, user=2) == wdma_outage(CFG, power, user=1)
    cfg = SystemConfig(noise_power_dbm_ue2=-80.0)
    assert wdma_outage(cfg, power, user=2) > wdma_outage(cfg, power, user=1)


def test_floor_examples():
    assert wdma_outage_floor(SystemConfig(outage_threshold=1.0)) == 0.0
    assert wdma_outage_floor(SystemConfig(outage_threshold=1e12)) == pytest.approx(1.0, abs=1e-9)
    # default geometry keeps (gamma_th - 1) G(x) inside the linear CDF piece,
    # so the floor reduces to (gamma_th - 1) E[G] / (2 Dy^2) exactly
    gth, h, dx, dy = 5.0, 3.0, 10.0, 20.0
    assert (gth - 1) * (h**2 + dx**2 / 4) < dy**2
    exact = (gth - 1) * (h**2 + dx**2 / 12) / (2 * dy**2)
    assert wdma_outage_floor(CFG) == pytest.approx(exact, abs=1e-8)
    assert wdma_outage_floor(CFG) == pytest.approx(exact, rel=1e-14)
    assert wdma_outage_floor(CFG) > 0.0  # non-zero floor whenever gamma_th > 1


def test_floor_is_high_snr_limit_of_outage():
    assert wdma_outage(CFG, power_at(200.0)) == pytest.approx(wdma_outage_floor(CFG), abs=1e-4)


def test_ceiling_examples():
    cfg = SystemConfig(region_y_m=1e-4)
    assert wdma_rate_ceiling(cfg) == pytest.approx(1.0, abs=1e-3)
    assert wdma_rate_ceiling(CFG) >= 1.0


def test_ceiling_is_high_snr_limit_of_rate():
    assert wdma_avg_rate(CFG, power_at(200.0)) == pytest.approx(wdma_rate_ceiling(CFG), rel=1e-3)


def test_dispersed_regions_relax_interference_limits():
    compact, dispersed = omega_one(), omega_two()
    assert wdma_outage_floor(dispersed) < wdma_outage_floor(compact)
    assert wdma_rate_ceiling(dispersed) > wdma_rate_ceiling(compact)


def test_monotone_in_power_with_floor_and_ceiling_domination():
    floor = wdma_outage_floor(CFG)
    ceiling = wdma_rate_ceiling(CFG)
    outages = []
    rates = []
    for snr_db in np.linspace(90.0, 150.0, 30):
        power = power_at(snr_db)
        outages.append(wdma_outage(CFG, power))
        rates.append(wdma_avg_rate(CFG, power))
    assert np.all(np.diff(outages) <= 1e-12)
    assert np.all(np.diff(rates) >= -1e-12)
    assert all(o >= floor - 1e-9 for o in outages)
    assert all(r <= ceiling + 1e-9 for r in rates)
    assert outages[-1] - floor < outages[0] - floor
    assert ceiling - rates[-1] < ceiling - rates[0]


def test_closed_form_equals_quadrature_path_at_zero_offset():
    rng = np.random.default_rng(8)
    for _ in range(10):
        cfg = random_config(rng)
        power = snr_db_to_power_w(CFG, rng.uniform(85.0, 135.0))
        closed = wdma_avg_rate(cfg, power)
        quadrature = wdma_rate_nested(cfg, power, 64)
        assert closed == pytest.approx(quadrature, rel=1e-6)


def test_offset_layout_rate_matches_scipy_oracle():
    rng = np.random.default_rng(41)
    for _ in range(6):
        cfg = random_offset_config(rng)
        power = snr_db_to_power_w(CFG, rng.uniform(85.0, 160.0))
        for user in (1, 2):
            assert wdma_avg_rate(cfg, power, user=user) == pytest.approx(
                wdma_rate_quad2d(cfg, power, user), rel=5e-9, abs=1e-12
            )


def test_offset_region_metrics_match_monte_carlo():
    # the outage transition of the dispersed deployment sits at 80-90 dB
    cfg = omega_two()
    for snr_db in (84.0, 86.0, 88.0):
        power = power_at(snr_db, cfg)
        analytic = wdma_outage(cfg, power)
        est = mc_cell_estimates(100_000, 99, [("wdma", 1)], cfg, [power])[("wdma", 1)]["outage"][0]
        assert abs(analytic - est.value) <= 3 * max(est.std_error, 1e-12)
    for snr_db in (90.0, 105.0, 120.0):
        power = power_at(snr_db, cfg)
        rate = wdma_avg_rate(cfg, power)
        rate_est = mc_cell_estimates(100_000, 99, [("wdma", 1)], cfg, [power])[("wdma", 1)]["rate"][0]
        assert abs(rate - rate_est.value) <= max(3 * rate_est.std_error, 0.01 * rate)


def test_rejects_non_positive_power():
    with pytest.raises(ValueError):
        wdma_outage(CFG, 0.0)
    with pytest.raises(ValueError):
        wdma_avg_rate(CFG, -1.0)


def test_doubling_nodes_moves_outage_less_than_1e_6_across_kinks():
    # the README's promise for doubling --nodes, next to a segment end
    cfg = omega_two()
    power = power_at(83.0, cfg)
    coarse = wdma_outage(cfg, power, n_nodes=64)
    fine = wdma_outage(cfg, power, n_nodes=128)
    assert abs(fine - coarse) <= 1e-6 * abs(fine)


# configs whose separation threshold sqrt(gamma_th - 1) sqrt(s^2 + h^2) crosses
# a kink of the triangular CDF inside the region
KINKED_FLOOR_CONFIGS = {
    "threshold_30": SystemConfig(outage_threshold=30.0),
    "omega_two_threshold_40": omega_two(SystemConfig(outage_threshold=40.0)),
}
# Explicit floor examples, besides the kinked ones:
# - thresholds at and around 1 and one far above (floors of exactly 0 and 1);
# - far_offset: sub-regions ~75 depths off the axis, where the expanded
#   antiderivative of (r - k)^2 is 7.1e-13 relative off;
# - edge_crossing: a separation threshold that passes lo only at the region's
#   edge, by 1e-4 relative, for a floor of 5.1e-13 that a rounded residual
#   a (s^2 + h^2) - k^2 misses by 1.1e-12 relative;
# - wide_angle: an offset 1/200 of the depth and a low antenna, whose lower
#   segment spans 4.6 in the hyperbolic angle (the closed-form shapes).
FLOOR_EXAMPLES = {
    **KINKED_FLOOR_CONFIGS,
    "omega_one": omega_one(),
    **{f"threshold_{gth!r}": SystemConfig(outage_threshold=gth) for gth in (0.5, 1.0, 1.0001, 1e12)},
    "far_offset": SystemConfig(
        pa_height_m=7.97, region_x_m=92.4, region_y_m=1.11, region_y_offset_m=82.7, outage_threshold=72.1
    ),
    "edge_crossing": SystemConfig(region_y_offset_m=15.0, outage_threshold=27.47588261764706),
    "wide_angle": SystemConfig(
        pa_height_m=0.01, region_x_m=50.0, region_y_m=20.0, region_y_offset_m=0.1, outage_threshold=2.0
    ),
}


def _mp_floor(cfg, mp):
    """The outage floor at 40 digits: mp.quad of the triangular CDF at the
    separation threshold r(s) = sqrt((gamma_th - 1)(s^2 + h^2)) over the
    x-offset s in [0, X/2], split where r crosses lo, the peak and hi. It
    takes the reduced model's doubles as exact, so that it measures the
    closed form and not the rounding of the reduction."""
    model = derive_constants(cfg)
    with mp.workdps(40):
        a = mp.mpf(cfg.outage_threshold) - 1
        if a <= 0:
            return mp.mpf(0)
        h_sq, half, w = mp.mpf(model.pa_height_sq), mp.mpf(model.region_x) / 2, mp.mpf(model.half_width)
        lo, peak, hi = (mp.mpf(k) for k in (model.support_lo, model.peak, model.support_hi))

        def outage(s):
            r = mp.sqrt(a * (s * s + h_sq))
            if r <= lo:
                return mp.mpf(0)
            if r <= peak:
                return (r - lo) ** 2 / (2 * w * w)
            return 1 - (hi - r) ** 2 / (2 * w * w) if r <= hi else mp.mpf(1)

        roots = (mp.sqrt(k * k / a - h_sq) for k in (lo, peak, hi) if k * k / a > h_sq)
        breaks = sorted({mp.mpf(0), half, *(s for s in roots if s < half)})
        return mp.quad(outage, breaks) / half


@st.composite
def floor_configs(draw):
    """Lengths log-uniform over 1e-2..1e2 m; the threshold either over
    0.5..100, or set so that the separation threshold at a drawn point of the
    region lies within a depth of the support, which puts its crossings of
    lo, the peak or hi inside the region."""
    length = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
    h, x, depth = draw(length), draw(length), draw(length)
    offset = draw(st.just(0.0) | length)
    if draw(st.booleans()):
        gth = draw(st.floats(0.5, 100.0))
    else:
        k = draw(st.floats(max(2.0 * offset - depth, 0.0), 2.0 * offset + 3.0 * depth))
        s = draw(st.floats(0.0, x / 2))
        gth = 1.0 + k * k / (h * h + s * s)
    return SystemConfig(
        pa_height_m=h, region_x_m=x, region_y_m=depth, region_y_offset_m=offset, outage_threshold=gth
    )


def _assert_floor_matches_reference(cfg):
    mp = pytest.importorskip("mpmath").mp
    reference = _mp_floor(cfg, mp)
    floor = wdma_outage_floor(cfg)
    if reference in (0, 1):  # no segment is live, and the floor is exact
        assert floor == reference
    assert abs(floor - reference) <= 1e-13 * reference, (floor, reference)


@pytest.mark.parametrize("cfg", FLOOR_EXAMPLES.values(), ids=FLOOR_EXAMPLES.keys())
def test_floor_examples_match_a_40_digit_mpmath_reference(cfg):
    _assert_floor_matches_reference(cfg)


@given(cfg=floor_configs())
@settings(max_examples=50, deadline=None)
def test_floor_matches_a_40_digit_mpmath_reference(cfg):
    _assert_floor_matches_reference(cfg)


def test_floor_calls_no_quadrature(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the outage floor reached integrate_rows")

    monkeypatch.setattr(wdma, "integrate_rows", unreachable)
    for cfg in FLOOR_EXAMPLES.values():
        assert 0.0 <= wdma_outage_floor(cfg) <= 1.0


def _mp_outage(cfg, power_w, mp):
    """The WDMA outage of user 1 at 40 digits, in metres from the config
    fields: mp.quad over the x-offset s in [0, X/2] of the triangular CDF at the
    separation threshold r(s) = sqrt(g (gamma_th - 1 + e) / (1 - e)), with
    g = s^2 + h^2, e = gamma_th b g and b = 2 sigma^2 / (eta P), and of 1
    where e >= 1. It is split where r crosses lo, the peak and hi, at the
    positive roots g of gamma_th b g^2 + (gamma_th - 1 + k^2 gamma_th b) g -
    k^2 = 0. eta and sigma^2 are formed in mpmath from the fields, and the
    power P in watts is taken as exact."""
    with mp.workdps(40):
        freq = mp.mpf(cfg.carrier_freq_hz)
        eta = mp.mpf(SPEED_OF_LIGHT_M_S) ** 2 / (16 * mp.pi**2 * freq**2)
        noise = mp.mpf(10) ** ((mp.mpf(cfg.noise_power_dbm_ue1) - 30) / 10)
        gth = mp.mpf(cfg.outage_threshold)
        a = gth * 2 * noise / (eta * mp.mpf(power_w))  # e / g
        h_sq, half, w = mp.mpf(cfg.pa_height_m) ** 2, mp.mpf(cfg.region_x_m) / 2, mp.mpf(cfg.region_y_m)
        lo = 2 * mp.mpf(cfg.region_y_offset_m)
        peak, hi = lo + w, lo + 2 * w

        def outage(s):
            g = s * s + h_sq
            if a * g >= 1:
                return mp.mpf(1)
            r = mp.sqrt(max(g * (gth - 1 + a * g) / (1 - a * g), 0))
            if r <= lo:
                return mp.mpf(0)
            if r <= peak:
                return (r - lo) ** 2 / (2 * w * w)
            return 1 - (hi - r) ** 2 / (2 * w * w) if r <= hi else mp.mpf(1)

        breaks = {mp.mpf(0), half}
        for k in (lo, peak, hi):
            b = gth - 1 + k * k * a
            root = mp.sqrt(b * b + 4 * a * k * k)
            g = 2 * k * k / (b + root) if b > 0 else (root - b) / (2 * a)
            if h_sq < g < h_sq + half * half:
                breaks.add(mp.sqrt(g - h_sq))
        return mp.quad(outage, sorted(breaks)) / half


def _assert_outage_matches_reference(cfg, powers):
    mp = pytest.importorskip("mpmath").mp
    values = wdma_outage(cfg, np.array(powers))
    for power, value in zip(powers, values.tolist()):
        reference = _mp_outage(cfg, power, mp)
        assert abs(value - reference) <= max(1e-12 * reference, 1e-300), (power, value, reference)


# (config, transmit SNRs in dB) across each outage transition
MP_OUTAGE_EXAMPLES = {
    "default": (CFG, np.arange(78.0, 93.0)),
    "omega_two": (omega_two(), np.arange(78.0, 93.0)),
    "threshold_30": (KINKED_FLOOR_CONFIGS["threshold_30"], [90.0, 95.0, 100.0]),
    "omega_two_threshold_40": (KINKED_FLOOR_CONFIGS["omega_two_threshold_40"], [95.0, 100.0, 110.0]),
    "far_offset": (FLOOR_EXAMPLES["far_offset"], [105.0, 120.0, 250.0]),
    "threshold_0.5": (FLOOR_EXAMPLES["threshold_0.5"], [72.0, 75.0, 78.0]),
}


@pytest.mark.parametrize("name", MP_OUTAGE_EXAMPLES)
def test_outage_examples_match_a_40_digit_mpmath_reference(name):
    cfg, snrs_db = MP_OUTAGE_EXAMPLES[name]
    _assert_outage_matches_reference(cfg, power_at(list(snrs_db), cfg))


@st.composite
def outage_points(draw):
    """A config of ``floor_configs`` and a transmit power from 10^-0.5 to
    10^3 times the power at which noise alone puts a user at a drawn
    x-offset in outage (e = 1)."""
    cfg = draw(floor_configs())
    s = draw(st.floats(0.0, cfg.region_x_m / 2))
    eta = SPEED_OF_LIGHT_M_S**2 / (16.0 * math.pi**2 * cfg.carrier_freq_hz**2)
    noise = 10.0 ** ((cfg.noise_power_dbm_ue1 - 30.0) / 10.0)
    g = s * s + cfg.pa_height_m * cfg.pa_height_m
    return cfg, 2.0 * noise * cfg.outage_threshold * g / eta * 10.0 ** draw(st.floats(-0.5, 3.0))


@given(point=outage_points())
@example(  # the cap's pole lies 1e-3 of the segment past the peak's crossing
    point=(SystemConfig(pa_height_m=0.01460541124725414, region_x_m=1.586705538486338,
                        region_y_m=79.93239772406136, outage_threshold=20.23652539607774),
           1.7267384823136162e-05)
)
@example(  # an antenna 1e-3 of the region low: r's branch points at s = +-ih
    point=(SystemConfig(pa_height_m=0.025098439406168634, region_x_m=25.799962620979194,
                        region_y_m=23.076001270833196, region_y_offset_m=0.01703978387766369,
                        outage_threshold=5.996178963481494), 0.01774418571306843)
)
@settings(max_examples=50, deadline=None)
def test_outage_matches_a_40_digit_mpmath_reference(point):
    cfg, power = point
    _assert_outage_matches_reference(cfg, [power])


@pytest.mark.parametrize("cfg", KINKED_FLOOR_CONFIGS.values(), ids=KINKED_FLOOR_CONFIGS.keys())
def test_outage_meets_its_floor_at_300_and_400_db(cfg):
    floor = wdma_outage_floor(cfg)
    for value in wdma_outage(cfg, np.array(power_at([300.0, 400.0], cfg))).tolist():
        assert abs(value - floor) <= 1e-12 * floor


# (config overrides, power in W) where rounding puts a node of a segment at
# or past saturation, e = 1, which the segment excludes in exact arithmetic
ROUNDING_AT_SATURATION = {
    # every crossing lies within 1e-15 of saturation, and the peak's rounds past the top's
    "crossings_out_of_order": (
        dict(carrier_freq_hz=9.96623249789381e-97, pa_height_m=1.7204044120612385e122,
             region_x_m=5.0213303962139e132, region_y_m=1.536330562239425e132,
             region_y_offset_m=1.7932924253660516e120, noise_power_dbm_ue1=-96.57864067055255,
             outage_threshold=5.64535470151303e-26),
        69524.18922831815,
    ),
    "e_rounds_to_one": (
        dict(carrier_freq_hz=32867.84339488589, pa_height_m=635891805858.4966,
             region_x_m=1.392998025291176e17, region_y_m=314466115989487.1,
             region_y_offset_m=900519125.698421, noise_power_dbm_ue1=365.66001797298884,
             outage_threshold=7.846183852482285e-21),
        3.6813049712300165e33,
    ),
    "e_rounds_past_one": (
        dict(carrier_freq_hz=1.40122013937539e36, pa_height_m=1.203199209200871e-16,
             region_x_m=0.0005231143003985381, region_y_m=0.00011941551193582948,
             region_y_offset_m=7.244128876858134e-14, noise_power_dbm_ue1=381.820217621702,
             outage_threshold=35061.662829187626),
        4.80863443551912e67,
    ),
}


@pytest.mark.parametrize("name", ROUNDING_AT_SATURATION)
def test_outage_is_bounded_where_segments_round_to_saturation(name):
    overrides, power = ROUNDING_AT_SATURATION[name]
    cfg = SystemConfig(**overrides)
    assert wdma_outage_floor(cfg) <= wdma_outage(cfg, power) <= 1.0


# unequal noise powers, so that the two WDMA users differ
UNEQUAL = SystemConfig(noise_power_dbm_ue2=-80.0)


def _wdma_values(cfg, powers, n_nodes):
    """Every mirrored WDMA integral of ``cfg``: both users' rates over
    ``powers``, and the rate ceiling."""
    wdma_rate_ceiling.cache_clear()
    values = [wdma_rate_ceiling(cfg, n_nodes)]
    for user in (1, 2):
        values.append(wdma_avg_rate(cfg, powers, n_nodes, user=user))
    wdma_rate_ceiling.cache_clear()
    return np.hstack(values)


@pytest.mark.parametrize("cfg", [UNEQUAL, omega_two(UNEQUAL)], ids=["adjacent", "offset"])
@pytest.mark.parametrize("n_nodes", [1, 2, 3, 7, 16, 63, 64, 128])
def test_mirrored_integrals_equal_the_full_node_evaluation_bitwise(cfg, n_nodes, monkeypatch):
    """The WDMA rate integrands are even in t, so their values on the
    nonnegative nodes mirrored onto the rest equal an evaluation on every
    node bit for bit. The grids are separate calls: -50:110 dB takes the
    closed-form log-moment kernel, 130:250 dB the series and 280:400 dB its
    first term alone."""
    grids = [np.arange(-50.0, 111.0, 2.0), np.arange(130.0, 251.0, 10.0), np.arange(280.0, 401.0, 10.0)]
    forms = set()
    kernel = geometry._log1p_moments

    def recording(u, r):
        top = (np.asarray(r) * np.asarray(u) ** 2).max()
        forms.add("one term" if top < _ONE_TERM_S else "series" if top < _SERIES_S else "closed")
        return kernel(u, r)

    monkeypatch.setattr(geometry, "_log1p_moments", recording)
    powers = [np.array(power_at(grid, cfg)) for grid in grids]
    mirrored = [_wdma_values(cfg, p, n_nodes) for p in powers]
    with monkeypatch.context() as patch:
        patch.setattr(wdma, "_integrate_even", integrate_rows)
        full = [_wdma_values(cfg, p, n_nodes) for p in powers]
    assert forms == {"one term", "series", "closed"}
    for got, expected in zip(mirrored, full):
        assert got.tobytes() == expected.tobytes()


# wdma_avg_rate of user 1 to 25 digits, per config and transmit SNR in dB
MP_WDMA_RATES = {
    "default": {
        60.0: "0.03540055139605127972220701",
        90.0: "3.528874460421518338667069",
        120.0: "4.578064454962609951623581",
        150.0: "4.579920631547130389677051",
        200.0: "4.579922491459360929782021",
    },
    "omega_two": {
        60.0: "0.03544928564407529620886969",
        90.0: "4.112413271106738933220446",
        120.0: "5.854335182745352780387514",
        150.0: "5.857971444924578276174346",
        200.0: "5.857975089885624565827039",
    },
}


@pytest.mark.parametrize("name", sorted(MP_WDMA_RATES))
def test_rate_matches_a_25_digit_mpmath_value_at_high_snr(name):
    """Within 1e-13 relative of ``MP_WDMA_RATES``, 25-digit values that
    mpmath 1.3.0 generated at 40 digits, without passperf, as a nested
    ``mp.quad``: the outer one over t in [0, 1] with the x-offset X t / 2
    (g = (X t / 2)^2 + h^2), the inner one over the triangular law of the
    y-separation u on [lo, lo + 2w], split at its peak lo + w, of
    log1p(sinr) with sinr = (1/g) / (1/(g + u^2) + 2 sigma^2 / (eta P));
    eta, sigma^2 and P are formed in mpmath from the config fields and the
    SNR, and the result is divided by ln 2. Rerun at 55 digits, the default
    at 120 dB and omega_two at 200 dB gave the same 25 digits."""
    cfg = {"default": CFG, "omega_two": omega_two()}[name]
    recorded = MP_WDMA_RATES[name]
    rates = wdma_avg_rate(cfg, power_at(list(recorded), cfg))
    for rate, reference in zip(rates.tolist(), recorded.values()):
        assert abs(rate - float(reference)) <= 1e-13 * float(reference)
