"""The command line at every accepted config: a result or a named input error.

Each field is drawn log-uniformly over its accepted range, up to 1e+-300
(the noise powers, already logarithmic, uniformly in dBm): all fields at
once, one field of the default config, or the lengths around one common
scale, so that many drawn configs pass the config boundary. Every analytic
subcommand must either succeed with finite, physically bounded output or
exit 2 with an ``error:`` line that names a config field; ``validate`` may
also report failed cells (exit 1). It must never raise.
"""

import csv
import io
import json
import math
from dataclasses import fields

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from passperf import SystemConfig
from passperf.cli import main
from passperf.sweep import read_csv

FIELDS = [f.name for f in fields(SystemConfig)]


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@st.composite
def independent_fields(draw):
    """Every field drawn on its own: mostly configs the boundary rejects."""
    alpha_near = draw(_log_uniform(-300.0, math.log10(0.499)))
    return {
        "carrier_freq_hz": draw(_log_uniform(-300.0, 300.0)),
        "pa_height_m": draw(_log_uniform(-300.0, 300.0)),
        "region_x_m": draw(_log_uniform(-300.0, 300.0)),
        "region_y_m": draw(_log_uniform(-300.0, 300.0)),
        "region_y_offset_m": draw(st.just(0.0) | _log_uniform(-300.0, 300.0)),
        "noise_power_dbm_ue1": draw(st.floats(-3200.0, 3200.0)),
        "noise_power_dbm_ue2": draw(st.floats(-3200.0, 3200.0)),
        "outage_threshold": draw(_log_uniform(-300.0, 300.0)),
        "noma_alpha_near": alpha_near,
        "noma_alpha_far": 1.0 - alpha_near,
    }


@st.composite
def one_field(draw):
    """The default config with one field drawn over its whole range."""
    name = draw(st.sampled_from(FIELDS[:8]))
    if name.startswith("noise_power_dbm"):
        return {name: draw(st.floats(-3200.0, 3200.0))}
    return {name: draw(_log_uniform(-300.0, 300.0))}


@st.composite
def one_length_scale(draw):
    """Lengths within 1e+-8 of a common scale anywhere in 1e+-150, so that
    most configs reach the metrics; the other fields over wide ranges."""
    scale = draw(st.floats(-150.0, 150.0))
    length = st.floats(-8.0, 8.0).map(lambda e: 10.0 ** (scale + e))
    alpha_near = draw(_log_uniform(-30.0, math.log10(0.499)))
    return {
        "carrier_freq_hz": draw(_log_uniform(-100.0, 150.0)),
        "pa_height_m": draw(length),
        "region_x_m": draw(length),
        "region_y_m": draw(length),
        "region_y_offset_m": draw(st.just(0.0) | length),
        "noise_power_dbm_ue1": draw(st.floats(-400.0, 400.0)),
        "noise_power_dbm_ue2": draw(st.floats(-400.0, 400.0)),
        "outage_threshold": draw(_log_uniform(-30.0, 30.0)),
        "noma_alpha_near": alpha_near,
        "noma_alpha_far": 1.0 - alpha_near,
    }


def _run(argv, tmp_path, overrides, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides), encoding="utf-8")
    capsys.readouterr()
    code = main([*argv, "--config", str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:") and any(name in err for name in FIELDS), err
    return code, out, err


def _check_asymptote(out):
    values = dict(line.split(",") for line in out.splitlines()[1:])
    numbers = {key: float(text) for key, text in values.items() if text}
    assert all(math.isfinite(value) for value in numbers.values()), values
    assert 0.0 <= numbers["wdma_outage_floor"] <= 1.0
    assert numbers["wdma_rate_ceiling_bits"] >= 1.0
    assert numbers["noma_far_rate_ceiling_bits"] > 0.0


def _check_sweep(out):
    rows = read_csv(io.StringIO(out))
    assert len(rows) == 10 * 3 * 2
    for row in rows:
        assert math.isfinite(row.analytic), row
        if row.metric == "outage":
            assert 0.0 <= row.analytic <= 1.0, row
        else:
            assert row.analytic >= 0.0, row
        if (row.scheme, row.user, row.metric) == ("noma", 2, "rate"):
            assert row.analytic <= row.asymptote, row


def _check_crossover(out):
    record = dict(csv.reader(io.StringIO(out)))
    if record["crossover_snr_db"]:
        assert 90.0 <= float(record["crossover_snr_db"]) <= 150.0


COMMANDS = [
    (["asymptote"], _check_asymptote),
    (["sweep", "--asymptotes", "--start", "-50", "--stop", "400", "--step", "50"], _check_sweep),
    (["crossover"], _check_crossover),
    (["validate", "--trials", "100"], None),
]


@given(overrides=st.one_of(independent_fields(), one_field(), one_length_scale()))
@example(overrides={"pa_height_m": 1e150})
@example(overrides={"region_x_m": 1e150})
@example(overrides={"region_x_m": 1e-300})
@example(  # outage_threshold * noise_w_ue1 underflows
    overrides={"carrier_freq_hz": 1.0, "pa_height_m": 1.0, "region_x_m": 1.0, "region_y_m": 1.0,
               "noise_power_dbm_ue1": -2318.0, "noise_power_dbm_ue2": 0.0,
               "outage_threshold": 1e-89, "noma_alpha_near": 1e-98, "noma_alpha_far": 1.0}
)
@example(  # the reduced power of the sweep's 400 dB overflows the float range
    overrides={"carrier_freq_hz": 1.0, "pa_height_m": 1e-136, "region_x_m": 1e-136,
               "region_y_m": 1e-136, "noise_power_dbm_ue1": 0.0, "noise_power_dbm_ue2": 0.0,
               "outage_threshold": 1.0, "noma_alpha_near": 0.1, "noma_alpha_far": 0.9}
)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_every_subcommand_succeeds_or_names_a_field(overrides, tmp_path, capsys):
    for argv, check in COMMANDS:
        code, out, _ = _run(argv, tmp_path, overrides, capsys)
        if code == 1:
            assert argv[0] == "validate"
        if code == 0 and check is not None:
            check(out)


def test_huge_lengths_succeed_and_tiny_region_is_named(tmp_path, capsys):
    for overrides in ({"pa_height_m": 1e150}, {"region_x_m": 1e150}):
        for argv in (["asymptote"], ["sweep"], ["crossover"]):
            assert _run(argv, tmp_path, overrides, capsys)[0] == 0, (overrides, argv)
    for argv in (["asymptote"], ["sweep"], ["crossover"]):
        code, _, err = _run(argv, tmp_path, {"region_x_m": 1e-300}, capsys)
        assert code == 0 or (code == 2 and "region_x_m" in err)
