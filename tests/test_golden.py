"""Sweep CSVs and the validate report must reproduce the recorded ones byte
for byte.

The CSV files under tests/data were written by ``passperf sweep
--asymptotes``, ``validate_default.txt`` by ``passperf validate --trials
20000 --seed 12345``.
A change that moves values on purpose re-records them and says so in
CHANGES.md.

The Monte Carlo checks compare only the key and simulation columns, so a
re-recording of the analytic columns leaves them alone. The crossover checks
pin the ``passperf crossover`` output of the six (metric, config) pairs the
benchmark's crossover workload runs.
"""

import csv
import json
from pathlib import Path

import pytest

from passperf.cli import main

DATA = Path(__file__).parent / "data"
BENCH_REFERENCE = Path(__file__).parent.parent / "perfbench" / "reference"
OMEGA_TWO = {"region_y_m": 10.0, "region_y_offset_m": 10.0}
SPLIT = {"noma_alpha_near": 0.2, "noma_alpha_far": 0.8}

GOLDEN = {
    "sweep_default.csv": ({}, ("-50", "400", "10")),
    "sweep_omega_two.csv": (OMEGA_TWO, ("90", "150", "2")),
    "sweep_split.csv": (SPLIT, ("60", "160", "5")),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_reproduces_recorded_csv(name, tmp_path):
    overrides, (start, stop, step) = GOLDEN[name]
    out = _sweep(tmp_path, overrides, ["--asymptotes", "--start", start, "--stop", stop, "--step", step])
    assert out.read_bytes() == (DATA / name).read_bytes()


# recorded file -> (config overrides, sweep flags after ``--mc``)
GOLDEN_MC = {
    DATA / "sweep_mc_default.csv": (
        {},
        ("--asymptotes", "--trials", "40000", "--seed", "12345",
         "--start", "90", "--stop", "150", "--step", "10"),
    ),
    BENCH_REFERENCE / "sweep_dispersed_mc.csv": (
        OMEGA_TWO,
        ("--trials", "100000", "--seed", "12345", "--start", "90", "--stop", "150", "--step", "2"),
    ),
}


def _sweep(tmp_path, overrides, flags):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overrides), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *flags, "--config", str(config), "--out", str(out)]) == 0
    return out


def _mc_columns(path):
    """(snr_db, scheme, user, metric, mc_value, mc_std_error) text of each row."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [tuple(row[:4] + row[6:8]) for row in csv.reader(fh)]


@pytest.mark.parametrize("recorded", sorted(GOLDEN_MC), ids=lambda path: path.name)
def test_sweep_reproduces_recorded_mc_columns(recorded, tmp_path):
    overrides, flags = GOLDEN_MC[recorded]
    out = _sweep(tmp_path, overrides, ["--mc", *flags])
    assert _mc_columns(out) == _mc_columns(recorded)


# (metric, bracket low end in dB, config) -> recorded crossover SNR; every
# bracket ends at 160 dB. Each SNR is the midpoint of the search's final
# bracket, whose ends depend on secant roots of the cell values, so a change
# in the last bit of any rate or outage cell can change its string.
GOLDEN_CROSSOVER = {
    ("rate_sum", "60", "default"): "101.52464721594811",
    ("rate_sum", "60", "split"): "99.75825783154795",
    ("rate_sum", "60", "omega_two"): "108.5370004698771",
    ("outage_ue", "90", "default"): "99.99450095775155",
    ("outage_ue", "90", "split"): "",
    ("outage_ue", "90", "omega_two"): "",
}
CONFIGS = {"default": {}, "split": SPLIT, "omega_two": OMEGA_TWO}


@pytest.mark.parametrize("key", list(GOLDEN_CROSSOVER), ids=lambda key: f"{key[0]}-{key[2]}")
def test_crossover_reproduces_recorded_snr(key, tmp_path, capsys):
    metric, lo, name = key
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
    argv = ["crossover", "--metric", metric, "--lo", lo, "--hi", "160", "--config", str(config)]
    assert main(argv) == 0
    expected = f"metric,{metric}\ncrossover_snr_db,{GOLDEN_CROSSOVER[key]}\n"
    assert capsys.readouterr().out == expected


def test_validate_reproduces_recorded_report(tmp_path):
    out = tmp_path / "validate.txt"
    assert main(["validate", "--trials", "20000", "--seed", "12345", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "validate_default.txt").read_bytes()
