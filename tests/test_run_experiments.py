"""End-to-end run of ``scripts/run_experiments.py`` in a subprocess."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from passperf.sweep import read_csv

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_experiments.py"
TAGS = (
    "height_3m",
    "height_6m",
    "regions_compact",
    "regions_dispersed",
    "alpha_near_0.05",
    "alpha_near_0.2",
)


def run_script(outdir, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--outdir", str(outdir), *flags],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_writes_every_csv_and_prints_crossovers(tmp_path):
    outdir = tmp_path / "results"
    done = run_script(outdir, "--trials", "2000", "--start", "100", "--stop", "104", "--step", "2")
    assert done.returncode == 0, done.stderr
    assert sorted(path.name for path in outdir.iterdir()) == sorted(f"{tag}.csv" for tag in TAGS)
    for tag in TAGS:
        rows = read_csv(io.StringIO((outdir / f"{tag}.csv").read_text()))
        # 3 grid points x (wdma user 1 + noma users 1,2) x 2 metrics
        assert len(rows) == 3 * 3 * 2
        assert all(row.mc_value is not None for row in rows)
    # the baseline is both the 3 m height and the (0.05, 0.95) power split
    assert (outdir / "height_3m.csv").read_bytes() == (outdir / "alpha_near_0.05.csv").read_bytes()
    crossovers = [line for line in done.stdout.splitlines() if "crossover" in line]
    assert len(crossovers) == 2
    assert crossovers[0].startswith("alpha_near=0.05: sum-rate crossover = ")
    assert crossovers[1].startswith("alpha_near=0.2: sum-rate crossover = ")


@pytest.mark.parametrize(
    "flags,flag",
    [
        (("--nodes", "0"), "--nodes"),
        (("--trials", "0"), "--trials"),
        (("--start", "100", "--stop", "90"), "--start"),
        (("--step", "1e-9"), "--step"),
    ],
)
def test_bad_flags_exit_2_before_writing(tmp_path, flags, flag):
    outdir = tmp_path / "results"
    done = run_script(outdir, *flags)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert f"error: {flag}" in done.stderr or f"error: argument {flag}" in done.stderr
    assert not outdir.exists()
