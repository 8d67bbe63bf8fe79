"""Saturated rows: the three cells that tend to a high-SNR limit take it
from the power p_sat on, where an a-priori bound puts |value - limit| at
most SATURATION_TOL = 2**-54 times the limit.

The bounds are restated here from the config fields, in the reduced units
of ``derive_constants``, with b = 2 sigma^2 / (eta P) and snr = eta P /
sigma_2:

- ``wdma_avg_rate``: ceiling - rate <= b v_max / ln 2, v_max = (X/2)^2 +
  h^2 + hi^2;
- ``noma_rate_far``: ceiling - rate <= (v_max / snr) a_far / (a_near
  (a_near + a_far)) / ln 2;
- ``wdma_outage``, where gamma_th > 1 and the floor is > 0, the lower of
  two bounds on outage - floor: gamma_th^2 b g_max^(3/2) / (w sqrt(gamma_th
  - 1)) where e = gamma_th b g_max <= 1/2 (g_max = h^2 + (X/2)^2), and
  b K / (1 - e3) where e3 = gamma_th b g3 < 1, with K = gamma_th^2
  int_0^s3 g^2 ds / (X w^2), s3 the noiseless crossing of hi and g3 = s3^2
  + h^2.
"""

import math
import re
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passperf import (
    SystemConfig,
    derive_constants,
    noma_rate_far,
    noma_rate_far_ceiling,
    snr_db_to_power_w,
    wdma_avg_rate,
    wdma_outage,
    wdma_outage_floor,
    wdma_rate_ceiling,
)
from passperf import config, noma, wdma
from passperf.sweep import omega_two

from oracles import random_config, random_offset_config

TOL = 2.0**-54
LN2 = math.log(2.0)
SPLIT = SystemConfig(noma_alpha_near=0.2, noma_alpha_far=0.8)
NAMED = {"default": SystemConfig(), "omega_two": omega_two(), "split": SPLIT,
         "ue2_-80dBm": SystemConfig(noise_power_dbm_ue2=-80.0),
         "long_region": SystemConfig(region_x_m=300.0)}
# (name, metric, its limit, the sign of value - limit below p_sat)
CELLS = [
    ("wdma_rate", lambda cfg, p, user: wdma_avg_rate(cfg, p, 64, user),
     lambda cfg: wdma_rate_ceiling(cfg, 64), -1),
    ("wdma_outage", lambda cfg, p, user: wdma_outage(cfg, p, 64, user), wdma_outage_floor, 1),
    ("noma_far_rate", lambda cfg, p, user: noma_rate_far(cfg, p), noma_rate_far_ceiling, -1),
]
CELL_IDS = [name for name, *_ in CELLS]
# bound / deficit stays below this at 110-200 dB: on 60 drawn configs it was
# 1.6-4.2 (WDMA rate), 1.5-4.1 (far rate) and 1.0-2.7e3 (outage)
LOOSENESS = {"wdma_rate": 10.0, "noma_far_rate": 10.0, "wdma_outage": 1e4}
# The outage's second bound is tight to first order in e where the cap stays
# on the rising half of the law, so the computed deficit, which carries the
# rounding of the outage and its floor, can pass it: by up to 8.1e-16 times the
# floor on 800 drawn configs. The rates' bounds, 1.2 times their deficits or
# more, take none.
ROUNDING = {"wdma_rate": 0.0, "noma_far_rate": 0.0, "wdma_outage": 8 * 2.0**-52}


def _v_max(model):
    return model.centre_sq + model.pa_height_sq + model.support_hi * model.support_hi


def _b(model, user, power_w):
    """The noise coefficient 2 sigma^2 / (eta P) at ``power_w`` W."""
    return 2.0 * model.noise(user) / (model.eta_m2 * math.ldexp(power_w, -2 * model.scale_exp))


def _unit_bound(name, cfg, user):
    """The rates' bound on |limit - value| times the reduced power: each
    falls as 1/P."""
    model = derive_constants(cfg)
    if name == "wdma_rate":
        return _b(model, user, math.ldexp(1.0, 2 * model.scale_exp)) * _v_max(model) / LN2
    a_near, a_far = cfg.noma_alpha_near, cfg.noma_alpha_far
    snr = 2.0 / _b(model, 2, math.ldexp(1.0, 2 * model.scale_exp))
    return _v_max(model) / snr * a_far / (a_near * (a_near + a_far)) / LN2


def _outage_terms(cfg, user):
    """The outage bounds' terms per unit reduced power: the noise
    coefficient, g_max, gamma_th^2 g_max^(3/2) / (w sqrt(gamma_th - 1)),
    g3 and K."""
    model = derive_constants(cfg)
    gth, h_sq, w = cfg.outage_threshold, model.pa_height_sq, model.half_width
    hi, half = model.support_hi, 0.5 * model.region_x
    s3 = min(math.sqrt(max(hi * hi / (gth - 1.0) - h_sq, 0.0)), half)
    moment = s3**5 / 5.0 + 2.0 * h_sq * s3**3 / 3.0 + h_sq * h_sq * s3
    g_max = h_sq + model.centre_sq
    return (_b(model, user, math.ldexp(1.0, 2 * model.scale_exp)), g_max,
            gth * gth * g_max**1.5 / (w * math.sqrt(gth - 1.0)), s3 * s3 + h_sq,
            gth * gth * moment / (model.region_x * w * w))


def bound(name, cfg, user, power_w):
    """The a-priori bound on |value - limit| at ``power_w`` W, or None where
    it does not apply (the outage without a floor, or with e > 1/2 and
    e3 >= 1)."""
    model = derive_constants(cfg)
    reduced = math.ldexp(power_w, -2 * model.scale_exp)
    if name != "wdma_outage":
        return _unit_bound(name, cfg, user) / reduced
    gth = cfg.outage_threshold
    if not (gth > 1.0 and wdma_outage_floor(cfg) > 0.0):
        return None
    unit_b, g_max, peak_density, g3, reach = _outage_terms(cfg, user)
    b = unit_b / reduced
    bounds = [b * peak_density] if gth * b * g_max <= 0.5 else []
    bounds += [b * reach / (1.0 - gth * b * g3)] if gth * b * g3 < 1.0 else []
    return min(bounds, default=None)


def threshold(name, cfg, user):
    """The power in W where ``bound`` reaches TOL times the limit: for the
    outage, the lower of its two bounds' powers."""
    limit = dict((n, lim) for n, _, lim, _ in CELLS)[name](cfg)
    model = derive_constants(cfg)
    if name != "wdma_outage":
        p_sat = _unit_bound(name, cfg, user) / (TOL * limit)
    else:
        unit_b, g_max, peak_density, g3, reach = _outage_terms(cfg, user)
        gth = cfg.outage_threshold
        p_sat = min(max(unit_b * peak_density / (TOL * limit), 2.0 * gth * g_max * unit_b),
                    unit_b * (reach / (TOL * limit) + gth * g3))
    return math.ldexp(p_sat, 2 * model.scale_exp)


@contextmanager
def unsaturated():
    """Every metric on its quadrature path at every power, as before
    saturated rows took their limit."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (wdma, noma):
            mp.setattr(module, "saturated", lambda values_of, powers, p_sat, limit: values_of(powers))
        yield


@contextmanager
def recorded_thresholds():
    """The (p_sat, limit) pairs that the metrics hand to ``saturated``, in
    reduced units, appended to the yielded list."""
    found = []

    def spy(values_of, powers, p_sat, limit):
        found.append((p_sat, limit))
        return config.saturated(values_of, powers, p_sat, limit)

    with pytest.MonkeyPatch.context() as mp:
        for module in (wdma, noma):
            mp.setattr(module, "saturated", spy)
        yield found


@given(
    seed=st.integers(0, 2**32 - 1),
    offset=st.booleans(),
    noise_ue2_dbm=st.floats(-100.0, -80.0),
    snr_db=st.floats(110.0, 200.0),
)
# the peak density and the largest squared distance at every x-offset put
# the first outage bound 1.85e5 times over the deficit here
@example(seed=100000, offset=False, noise_ue2_dbm=-80.0, snr_db=110.0)
# a floor of 1: the noiseless cap passes hi at every x-offset
@example(seed=1321361843, offset=False, noise_ue2_dbm=-84.94044992804493, snr_db=182.94741472855208)
@settings(max_examples=60, deadline=None)
def test_each_bound_covers_the_quadrature_deficit(seed, offset, noise_ue2_dbm, snr_db):
    # the deficit is far above rounding here: at least 7e-14 relative at 200 dB,
    # against the outage's ROUNDING of 1.8e-15
    rng = np.random.default_rng(seed)
    cfg = (random_offset_config if offset else random_config)(rng)
    cfg = replace(cfg, noise_power_dbm_ue2=noise_ue2_dbm)
    power_w = snr_db_to_power_w(cfg, snr_db)
    checked = 0
    for name, metric, limit, sign in CELLS:
        for user in (1, 2):
            with unsaturated():
                value = metric(cfg, power_w, user)
            deficit = sign * (value - limit(cfg))
            if name == "wdma_outage" and limit(cfg) == 1.0:
                # a floor of 1 leaves the outage no excess: the row is the floor
                assert value == 1.0
                continue
            covering = bound(name, cfg, user, power_w)
            if covering is None:
                continue
            assert 0.0 < deficit <= covering + ROUNDING[name] * limit(cfg)
            # and the bound is not vacuous: the outage's take the largest
            # density, or the largest ratio of density to separation, at
            # every x-offset
            assert covering < LOOSENESS[name] * deficit
            checked += 1
    assert checked >= 4


@pytest.mark.parametrize("name, metric, limit, sign", CELLS, ids=CELL_IDS)
@pytest.mark.parametrize("cfg", list(NAMED.values()) + [random_config(np.random.default_rng(s))
                                                      for s in range(3)],
                         ids=list(NAMED) + [f"random_{s}" for s in range(3)])
@pytest.mark.parametrize("user", [1, 2])
def test_rows_from_p_sat_on_are_the_limit_and_the_row_below_is_on_its_side(
    name, metric, limit, sign, cfg, user
):
    model = derive_constants(cfg)
    with recorded_thresholds() as found:
        metric(cfg, 1.0, user)
    [(p_sat, recorded_limit)] = found
    assert recorded_limit == limit(cfg)
    if name == "wdma_outage" and recorded_limit == 0.0:
        # no floor (omega_two: the separation never falls under the cap), no bound
        assert p_sat == math.inf
        return
    assert p_sat == pytest.approx(math.ldexp(threshold(name, cfg, user), -2 * model.scale_exp),
                                  rel=1e-12)
    at = math.ldexp(p_sat, 2 * model.scale_exp)
    powers_w = np.array([at, at * 1.5, snr_db_to_power_w(cfg, 400.0)])
    assert metric(cfg, powers_w, user).tobytes() == np.full(3, limit(cfg)).tobytes()
    # the largest power below p_sat takes the quadrature path
    below = math.ldexp(np.nextafter(p_sat, 0.0), 2 * model.scale_exp)
    with unsaturated():
        expected = metric(cfg, below, user)
    assert metric(cfg, below, user) == expected
    assert sign * (expected - limit(cfg)) >= 0.0
    # and a grid across the switch: every row below it as before, the limit from it on
    grid = np.geomspace(at / 4.0, at * 4.0, 25)
    with unsaturated():
        before = metric(cfg, grid, user)
    values = metric(cfg, grid, user)
    assert values.tobytes() == np.where(grid >= at, limit(cfg), before).tobytes()


def test_default_thresholds_lie_where_the_readme_states():
    cfg = SystemConfig()
    snr_db = {name: 10.0 * math.log10(threshold(name, cfg, 1) / derive_constants(cfg).noise_w_ue1)
              for name in CELL_IDS}
    assert snr_db == pytest.approx({"wdma_rate": 254.1, "wdma_outage": 248.0,
                                    "noma_far_rate": 264.1}, abs=0.05)


def test_a_call_with_no_saturated_row_passes_its_powers_through():
    powers = np.array([1.0, 2.0])
    seen = []
    values = config.saturated(lambda p: seen.append(p) or p * 3.0, powers, 2.5, 9.0)
    assert seen[0] is powers and values.tolist() == [3.0, 6.0]
    assert config.saturated(lambda p: p, np.array([]), 0.0, 9.0).shape == (0,)
    assert config.saturated(lambda p: p, powers, 1.0, 9.0).tolist() == [9.0, 9.0]


@pytest.mark.parametrize(
    "noise_per_power, scale",
    [(1e-300, 1e-300), (5e-324, 1e300), (1e300, 1e300), (math.inf, 1.0), (1.0, 0.0)],
    ids=["product-underflows", "subnormal-factor", "product-overflows", "inf-factor", "zero-scale"],
)
def test_a_threshold_out_of_normal_range_saturates_no_row(noise_per_power, scale):
    assert config.saturation_power(noise_per_power, scale) == math.inf


def test_power_checks_name_the_first_bad_power():
    with pytest.raises(ValueError, match=r"got -2\.0"):
        config.check_powers([1.0, -2.0, math.nan, 0.0])
    with pytest.raises(ValueError, match=r"got nan"):
        config.check_powers(np.array([3.0, math.nan, -1.0]))
    cfg = SystemConfig()
    ok = snr_db_to_power_w(cfg, 100.0)
    # a noise coefficient above 2**1000, and one below 2**-1000 at the
    # antenna height
    low = 1e-306
    with pytest.raises(ValueError, match=re.escape(f"power_w={low!r} W")):
        wdma_outage(cfg, np.array([ok, low, low * 0.5]))
    high = 1e300
    with pytest.raises(ValueError, match=re.escape(f"power_w={high!r} W")):
        noma_rate_far(cfg, np.array([ok, high, ok]))
