"""Physical bounds and monotonicity of every analytic metric over -50:400 dB,
on the default, compact and dispersed configs and on random ones."""

import math

import numpy as np
import pytest

from passperf import (
    SystemConfig,
    noma_outage_far,
    noma_outage_near,
    noma_rate_far,
    noma_rate_near,
    snr_db_to_power_w,
    wdma_avg_rate,
    wdma_outage,
    wdma_outage_floor,
    wdma_rate_ceiling,
)
from passperf.sweep import omega_one, omega_two

from oracles import random_config, random_offset_config

GRID_DB = np.arange(-50.0, 401.0, 1.0)

# Absolute slack, in bits, for a rate step against the grid direction (and,
# as a probability, for an outage step). Rounding alone moves values by a few
# ulps: below -40 dB the rates are about 1e-14 bits, and on a 0.1 dB grid
# backward steps of up to 5.4e-15 bits occur. The cancellation defects this
# guards against moved rates by 1e-9 bits and more.
STEP_SLACK = 1e-13

CONFIGS = {
    "default": SystemConfig(),
    "omega_one": omega_one(),
    "omega_two": omega_two(),
    # thresholds whose separation cap crosses a kink of the CDF inside the region
    "threshold_30": SystemConfig(outage_threshold=30.0),
    "omega_two_threshold_40": omega_two(SystemConfig(outage_threshold=40.0)),
}
_rng = np.random.default_rng(7)
for _i in range(8):
    CONFIGS[f"random_{_i}"] = (random_offset_config if _i % 2 else random_config)(_rng)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bounds_and_monotonicity_over_wide_snr_range(name):
    cfg = CONFIGS[name]
    floor = wdma_outage_floor(cfg)
    ceiling = wdma_rate_ceiling(cfg)
    far_cap = math.log2(1.0 + cfg.noma_alpha_far / cfg.noma_alpha_near)
    # both WDMA users see the same noise in these configs, so user 1 stands for both
    metrics = {
        ("wdma", 1, "outage"): lambda p: wdma_outage(cfg, p),
        ("wdma", 1, "rate"): lambda p: wdma_avg_rate(cfg, p),
        ("noma", 1, "outage"): lambda p: noma_outage_near(cfg, p),
        ("noma", 2, "outage"): lambda p: noma_outage_far(cfg, p),
        ("noma", 1, "rate"): lambda p: noma_rate_near(cfg, p),
        ("noma", 2, "rate"): lambda p: noma_rate_far(cfg, p),
    }
    previous = {}
    for snr_db in GRID_DB:
        power = snr_db_to_power_w(cfg, snr_db)
        for key, metric in metrics.items():
            scheme, user, kind = key
            value = metric(power)
            where = f"{name} {scheme} user {user} {kind} at {snr_db} dB: {value!r}"
            assert math.isfinite(value), where
            if kind == "outage":
                assert 0.0 <= value <= 1.0, where
                if scheme == "wdma":
                    assert value >= floor, f"{where} below floor {floor!r}"
                if key in previous:
                    assert value <= previous[key] + STEP_SLACK, where
            else:
                assert value >= 0.0, where
                if scheme == "wdma":
                    assert value <= ceiling, f"{where} above ceiling {ceiling!r}"
                if key == ("noma", 2, "rate"):
                    assert value <= far_cap, f"{where} above {far_cap!r}"
                if key in previous:
                    assert value >= previous[key] - STEP_SLACK, where
            previous[key] = value
