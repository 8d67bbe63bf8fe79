import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from passperf import (
    ConfigError,
    SystemConfig,
    derive_constants,
    load_config,
    power_w_to_snr_db,
    snr_db_to_power_w,
)
from passperf.config import SPEED_OF_LIGHT_M_S, config_from_dict, dbm_to_watts

# Evaluated independently: c^2/(16 pi^2 f^2) at 28 GHz, cross-checked against
# (c/f)^2 / (16 pi^2); the two routes agree to the last float digit.
ETA_28GHZ = 7.259481705540116e-07


def test_eta_default_config():
    dc = derive_constants(SystemConfig())
    assert dc.eta_m2 == pytest.approx(ETA_28GHZ, rel=1e-14)
    wavelength = SPEED_OF_LIGHT_M_S / 28e9
    assert dc.eta_m2 == pytest.approx(wavelength**2 / (16 * math.pi**2), rel=1e-14)


def test_noise_conversion_examples():
    assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-14)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-14)
    dc = derive_constants(SystemConfig())
    assert dc.noise_w_ue1 == pytest.approx(1e-12, rel=1e-14)
    assert dc.noise_w_ue2 == pytest.approx(1e-12, rel=1e-14)


def test_snr_to_power_examples():
    cfg = SystemConfig()
    assert snr_db_to_power_w(cfg, 0.0) == pytest.approx(1e-12, rel=1e-14)
    assert snr_db_to_power_w(cfg, 30.0) == pytest.approx(1e-9, rel=1e-12)
    assert snr_db_to_power_w(cfg, 120.0) == pytest.approx(1.0, rel=1e-12)
    # the reference is the user-1 noise power; the user-2 one plays no part
    quiet_ue2 = SystemConfig(noise_power_dbm_ue1=-60.0, noise_power_dbm_ue2=-120.0)
    assert snr_db_to_power_w(quiet_ue2, 30.0) == pytest.approx(1e-6, rel=1e-12)


@given(st.floats(min_value=-50.0, max_value=200.0))
def test_snr_round_trip(snr_db):
    cfg = SystemConfig()
    power = snr_db_to_power_w(cfg, snr_db)
    assert power_w_to_snr_db(cfg, power) == pytest.approx(snr_db, abs=1e-9)


@pytest.mark.parametrize("noise_dbm", [-90.0, -60.0])
@pytest.mark.parametrize("snr_db", [-50.0, 0.0, 150.0, 400.0])
def test_snr_round_trip_across_the_sweep_range(snr_db, noise_dbm):
    cfg = SystemConfig(noise_power_dbm_ue1=noise_dbm)
    power = snr_db_to_power_w(cfg, snr_db)
    assert power == pytest.approx(10.0 ** ((snr_db + noise_dbm - 30.0) / 10.0), rel=1e-12)
    assert power_w_to_snr_db(cfg, power) == pytest.approx(snr_db, abs=1e-9)


def test_snr_sequence_equals_one_scalar_call_per_entry():
    cfg = SystemConfig(noise_power_dbm_ue1=-73.0)
    mixed = [90.0, np.float64(90.1), -50.0, np.float64(-49.9), 0.0, 400.0, 123.456]
    for grid in (mixed, tuple(mixed), np.linspace(-50.0, 400.0, 37)):
        powers = snr_db_to_power_w(cfg, grid)
        assert isinstance(powers, list)
        expected = [snr_db_to_power_w(cfg, snr_db) for snr_db in grid]
        assert list(map(float.hex, powers)) == list(map(float.hex, expected))
    assert snr_db_to_power_w(cfg, []) == []


def test_snr_conversion_gives_python_floats_for_every_input_kind():
    # a 0-d array is a scalar, and a numpy entry's power is a Python float
    # (repr 1e-09, not np.float64(1e-09)) with the bits of a float's call
    cfg = SystemConfig(noise_power_dbm_ue1=-73.0)
    grid = np.linspace(-50.0, 400.0, 37)
    expected = [snr_db_to_power_w(cfg, float(snr_db)) for snr_db in grid]
    assert {type(power) for power in expected} == {float}
    for snr_db, want in zip(grid, expected):
        for arg in (snr_db, np.asarray(snr_db)):  # np.float64 and a 0-d array
            got = snr_db_to_power_w(cfg, arg)
            assert type(got) is float
            assert got.hex() == want.hex()
    for arg in (grid, list(grid)):
        powers = snr_db_to_power_w(cfg, arg)
        assert [type(power) for power in powers] == [float] * len(grid)
        assert list(map(float.hex, powers)) == list(map(float.hex, expected))
    assert repr(snr_db_to_power_w(SystemConfig(), np.array([30.0, 120.0]))) == "[1e-09, 1.0]"
    assert repr(snr_db_to_power_w(SystemConfig(), np.asarray(30.0))) == "1e-09"
    with pytest.raises(ValueError, match=re.escape("snr_db=array(4000.) ")):
        snr_db_to_power_w(cfg, np.asarray(4000.0))


@pytest.mark.parametrize("bad", [math.nan, 4000.0, -4000.0])
def test_snr_sequence_names_its_bad_entry(bad):
    with pytest.raises(ValueError, match=re.escape(f"snr_db={bad!r} ")):
        snr_db_to_power_w(SystemConfig(), [90.0, 100.0, bad, 110.0])


@pytest.mark.parametrize("power_w", [0.0, -1e-3, 1e300, math.nan])
def test_power_to_snr_rejects_a_ratio_out_of_range(power_w):
    with pytest.raises(ValueError, match=re.escape(f"power_w={power_w!r} W")):
        power_w_to_snr_db(SystemConfig(), power_w)


@given(st.floats(min_value=1e9, max_value=300e9))
def test_eta_quadratic_in_frequency(freq):
    eta_f = derive_constants(SystemConfig(carrier_freq_hz=freq)).eta_m2
    eta_2f = derive_constants(SystemConfig(carrier_freq_hz=2 * freq)).eta_m2
    assert eta_2f == pytest.approx(eta_f / 4.0, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        ({"carrier_freq_hz": 0.0}, "carrier_freq_hz"),
        ({"pa_height_m": -1.0}, "pa_height_m"),
        ({"region_x_m": 0.0}, "region_x_m"),
        ({"region_y_m": 0.0}, "region_y_m"),
        ({"region_y_offset_m": -0.1}, "region_y_offset_m"),
        ({"outage_threshold": 0.0}, "outage_threshold"),
        ({"noma_alpha_near": 0.3, "noma_alpha_far": 0.8}, "noma_alpha"),
        ({"noma_alpha_near": 0.6, "noma_alpha_far": 0.4}, "noma_alpha_near"),
        ({"noise_power_dbm_ue1": math.nan}, "noise_power_dbm_ue1"),
        ({"noise_power_dbm_ue2": math.inf}, "noise_power_dbm_ue2"),
        ({"noise_power_dbm_ue1": -math.inf}, "noise_power_dbm_ue1"),
        ({"carrier_freq_hz": math.inf}, "carrier_freq_hz"),
        ({"region_x_m": math.inf}, "region_x_m"),
        ({"outage_threshold": math.inf}, "outage_threshold"),
        ({"region_y_offset_m": math.nan}, "region_y_offset_m"),
        ({"pa_height_m": True}, "pa_height_m"),
        ({"noma_alpha_near": 0.0, "noma_alpha_far": 1.0}, "noma_alpha_near"),
        ({"noma_alpha_near": -0.1, "noma_alpha_far": 1.1}, "noma_alpha_near"),
    ],
)
def test_invariant_violations_name_the_field(kwargs, needle):
    with pytest.raises(ConfigError, match=needle):
        SystemConfig(**kwargs)


# Finite fields whose reduced quantities leave range: a noise power in W and
# the path-gain factor must be normal floats, and the squared region width,
# antenna height and sub-region depth over the power-of-two length scale set
# by the largest length at least 2**-1000; the error names the field, or the
# field that sets the scale.
DERIVED_OUT_OF_RANGE = [
    ("noise_power_dbm_ue1", 4000.0),
    ("noise_power_dbm_ue1", -4000.0),
    ("noise_power_dbm_ue2", 4000.0),
    ("noise_power_dbm_ue2", -4000.0),
    ("carrier_freq_hz", 1e300),
    ("carrier_freq_hz", 1e-170),
    ("carrier_freq_hz", 1e-160),
    ("pa_height_m", 1e300),
    ("pa_height_m", 1e-200),
    ("region_x_m", 1e300),
    ("region_y_m", 1e200),
    ("region_y_offset_m", 1e200),
]


@pytest.mark.parametrize("field, value", DERIVED_OUT_OF_RANGE)
def test_derived_quantities_out_of_float_range_name_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        SystemConfig(**{field: value})
    with pytest.raises(ConfigError, match=field):
        config_from_dict({field: value})


def test_noise_access_per_user():
    cfg = SystemConfig(noise_power_dbm_ue1=-90.0, noise_power_dbm_ue2=-87.0)
    dc = derive_constants(cfg)
    assert dc.noise(1) == pytest.approx(1e-12)
    assert dc.noise(2) == pytest.approx(10 ** (-87 / 10 - 3))
    with pytest.raises(ValueError, match="user"):
        dc.noise(3)


def test_json_round_trip(tmp_path):
    cfg = SystemConfig(region_y_m=10.0, region_y_offset_m=10.0, outage_threshold=2.0)
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "carrier_freq_hz": cfg.carrier_freq_hz,
                "pa_height_m": cfg.pa_height_m,
                "region_x_m": cfg.region_x_m,
                "region_y_m": cfg.region_y_m,
                "region_y_offset_m": cfg.region_y_offset_m,
                "noise_power_dbm_ue1": cfg.noise_power_dbm_ue1,
                "noise_power_dbm_ue2": cfg.noise_power_dbm_ue2,
                "outage_threshold": cfg.outage_threshold,
                "noma_alpha_near": cfg.noma_alpha_near,
                "noma_alpha_far": cfg.noma_alpha_far,
            }
        )
    )
    assert load_config(path) == cfg


def test_json_defaults_apply_for_missing_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"outage_threshold": 2.0}))
    cfg = load_config(path)
    assert cfg.outage_threshold == 2.0
    assert cfg.carrier_freq_hz == 28e9


def test_json_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="carrier_frequency"):
        config_from_dict({"carrier_frequency": 28e9})


def test_json_non_numeric_rejected():
    with pytest.raises(ConfigError, match="pa_height_m"):
        config_from_dict({"pa_height_m": "tall"})


def test_json_booleans_rejected():
    with pytest.raises(ConfigError, match="pa_height_m"):
        config_from_dict({"pa_height_m": True})
