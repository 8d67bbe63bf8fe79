"""Sweep CSVs must reproduce the recorded ones byte for byte.

The files under tests/data were written by ``passperf sweep --asymptotes``.
A change that moves values on purpose re-records them and says so in
CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from passperf.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "sweep_default.csv": ({}, ("-50", "400", "10")),
    "sweep_omega_two.csv": ({"region_y_m": 10.0, "region_y_offset_m": 10.0}, ("90", "150", "2")),
    "sweep_split.csv": ({"noma_alpha_near": 0.2, "noma_alpha_far": 0.8}, ("60", "160", "5")),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_reproduces_recorded_csv(name, tmp_path):
    overrides, (start, stop, step) = GOLDEN[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overrides), encoding="utf-8")
    out = tmp_path / name
    argv = ["sweep", "--asymptotes", "--start", start, "--stop", stop, "--step", step]
    assert main(argv + ["--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
