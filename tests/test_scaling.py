"""Metamorphic scaling relations of the analytic metrics.

The channel model depends on the deployment only through length ratios and
the received SNR. Multiplying every length by 2**j and the transmit power by
4**j, or the carrier frequency by 2**j and the power by 4**j, leaves every
SNR unchanged; scaling by powers of two is exact in floating point, so every
``CELLS`` value and limit must be unchanged bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passperf import (
    SystemConfig,
    noma_zero_outage_thresholds,
    omega_two,
    snr_db_to_power_w,
)
from passperf.sweep import CELLS

LENGTHS = ("pa_height_m", "region_x_m", "region_y_m", "region_y_offset_m")
SCALES = (-30, -1, 1, 30)
GRID_DB = np.arange(-50.0, 401.0, 25.0)


def _scale_lengths(cfg, j):
    return replace(cfg, **{name: getattr(cfg, name) * 2.0**j for name in LENGTHS})


def _scale_frequency(cfg, j):
    return replace(cfg, carrier_freq_hz=cfg.carrier_freq_hz * 2.0**j)


def _cells_bytes(cfg, powers, n_nodes):
    out = {}
    for key, cell in CELLS.items():
        limit = None if cell.limit is None else np.float64(cell.limit(cfg, n_nodes)).tobytes()
        out[key] = (np.asarray(cell.value(cfg, powers, n_nodes)).tobytes(), limit)
    return out


@st.composite
def configs(draw):
    alpha_near = draw(st.floats(0.01, 0.45))
    return SystemConfig(
        carrier_freq_hz=draw(st.floats(1e9, 1e11)),
        pa_height_m=draw(st.floats(0.5, 20.0)),
        region_x_m=draw(st.floats(1.0, 100.0)),
        region_y_m=draw(st.floats(1.0, 100.0)),
        region_y_offset_m=draw(st.just(0.0) | st.floats(0.1, 50.0)),
        noise_power_dbm_ue1=draw(st.floats(-120.0, -60.0)),
        noise_power_dbm_ue2=draw(st.floats(-120.0, -60.0)),
        outage_threshold=draw(st.floats(0.5, 50.0)),
        noma_alpha_near=alpha_near,
        noma_alpha_far=1.0 - alpha_near,
    )


@given(cfg=configs(), n_nodes=st.sampled_from([16, 64]))
@example(cfg=SystemConfig(), n_nodes=64)
@example(cfg=omega_two(), n_nodes=64)
# a frequency whose square the C library's pow rounds an ulp off f * f
@example(cfg=SystemConfig(carrier_freq_hz=29028228895.251686), n_nodes=16)
@settings(max_examples=15, deadline=None)
def test_cells_are_bitwise_invariant_under_power_of_two_scaling(cfg, n_nodes):
    powers = np.array(snr_db_to_power_w(cfg, GRID_DB))
    reference = _cells_bytes(cfg, powers, n_nodes)
    for j in SCALES:
        for scaled in (_scale_lengths(cfg, j), _scale_frequency(cfg, j)):
            assert _cells_bytes(scaled, powers * 4.0**j, n_nodes) == reference, (j, scaled)


@pytest.mark.parametrize("j", SCALES)
def test_zero_outage_powers_scale_with_the_squared_length(j):
    near_w, far_w = noma_zero_outage_thresholds(omega_two())
    scaled = noma_zero_outage_thresholds(_scale_lengths(omega_two(), j))
    assert scaled == (near_w * 4.0**j, far_w * 4.0**j)
