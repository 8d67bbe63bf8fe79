import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from passperf import SystemConfig, sweep
from passperf.cli import build_parser, main
from passperf.quadrature import IntegrationError
from passperf.sweep import CSV_HEADER, read_csv

from test_config import DERIVED_OUT_OF_RANGE

SRC = Path(__file__).resolve().parent.parent / "src"


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--start",
            "100",
            "--stop",
            "104",
            "--step",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    rows = read_csv(io.StringIO(text))
    # 3 grid points x (wdma user 1 + noma users 1,2) x 2 metrics
    assert len(rows) == 3 * 3 * 2


def test_sweep_to_stdout_with_subsets(capsys):
    code = main(
        ["sweep", "--start", "100", "--stop", "100", "--step", "1", "--schemes", "noma", "--metrics", "rate"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 2  # header + both users


def test_sweep_with_mc_and_asymptotes(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--start",
            "100",
            "--stop",
            "100",
            "--step",
            "1",
            "--mc",
            "--asymptotes",
            "--trials",
            "2000",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(io.StringIO(out.read_text()))
    assert all(r.mc_value is not None for r in rows)
    wdma_rows = [r for r in rows if r.scheme == "wdma"]
    assert all(r.asymptote is not None for r in wdma_rows)


def test_validate_exit_codes(capsys):
    code = main(
        ["validate", "--start", "100", "--stop", "120", "--step", "10", "--trials", "20000", "--seed", "12345"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_passes_at_low_snr_on_sub_regions_narrow_against_their_offset(tmp_path, capsys):
    # at -50 dB the rates are ~1e-13 and their simulation standard errors
    # ~1e-16, so every rate must keep its relative accuracy to pass
    config = tmp_path / "narrow.json"
    config.write_text(json.dumps({"region_y_m": 1.0, "region_y_offset_m": 50.0}))
    code = main(["validate", "--config", str(config), "--start", "-50", "--stop", "-20", "--step", "10"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out


def test_config_file_flow(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"outage_threshold": 2.0}))
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--config", str(cfg_path), "--start", "100", "--stop", "100", "--step", "1", "--out", str(out)]
    )
    assert code == 0


def test_unknown_config_key_is_input_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bandwidth_hz": 1e6}))
    code = main(["sweep", "--config", str(cfg_path)])
    assert code == 2
    assert "bandwidth_hz" in capsys.readouterr().err


def test_non_positive_near_share_is_input_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"noma_alpha_near": -0.1, "noma_alpha_far": 1.1}))
    code = main(["sweep", "--config", str(cfg_path)])
    assert code == 2
    assert "noma_alpha_near" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", DERIVED_OUT_OF_RANGE)
def test_config_with_derived_quantity_out_of_range_is_input_error(field, value, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: value}))
    code = main(["asymptote", "--config", str(cfg_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def test_integration_error_is_reported_with_exit_2(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise IntegrationError("integrand not finite at node t=0.5")

    monkeypatch.setattr(sweep, "noma_rate_near", failing)
    assert main(["sweep", "--start", "100", "--stop", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: integrand not finite at node t=0.5\n"


def test_missing_config_file_is_input_error(tmp_path):
    code = main(["sweep", "--config", str(tmp_path / "nope.json")])
    assert code == 2


def test_bad_flag_is_input_error(capsys):
    assert main(["sweep", "--step", "zero"]) == 2


def test_invalid_spec_is_input_error(capsys):
    assert main(["sweep", "--step", "-1"]) == 2
    assert "snr_db_step" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_grid_step_with_infinite_point_count_is_input_error(command, capsys):
    assert main([command, "--step", "1e-310"]) == 2
    assert "snr_db_step" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_grid_step_with_too_many_points_is_input_error(command, capsys):
    assert main([command, "--step", "1e-9"]) == 2
    assert "snr_db_step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep"],
        ["sweep", "--schemes", "noma", "--metrics", "outage"],
        ["validate"],
        ["crossover"],
        ["asymptote"],
    ],
)
@pytest.mark.parametrize("nodes", ["0", "-1", "2.5"])
def test_nodes_below_one_or_not_an_integer_is_input_error(argv, nodes, capsys):
    assert main(argv + ["--nodes", nodes]) == 2
    assert "--nodes" in capsys.readouterr().err


@pytest.mark.parametrize("nodes", ["1", "3"])
def test_sweep_with_one_or_three_nodes_gives_finite_values(nodes, tmp_path):
    # odd orders put a node at the region centre, which the WDMA integrals
    # evaluate once and do not mirror
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--asymptotes", "--start", "-50", "--stop", "400", "--step", "50"]
    assert main(argv + ["--nodes", nodes, "--out", str(out)]) == 0
    rows = read_csv(io.StringIO(out.read_text()))
    assert {row.scheme for row in rows} == {"wdma", "noma"}
    assert all(math.isfinite(row.analytic) for row in rows)
    assert all(math.isfinite(row.asymptote) for row in rows if row.asymptote is not None)


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--schemes", "wdma,wdma"], "schemes"),
        (["--metrics", "outage,outage"], "metrics"),
        (["--schemes", ""], "schemes"),
        (["--metrics", ","], "metrics"),
    ],
    ids=["duplicate-schemes", "duplicate-metrics", "empty-schemes", "empty-metrics"],
)
def test_duplicate_or_empty_selection_is_input_error(flags, field, capsys):
    assert main(["sweep", "--start", "100", "--stop", "100", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def test_crossover_output(capsys):
    code = main(["crossover", "--metric", "rate_sum", "--lo", "60", "--hi", "160"])
    assert code == 0
    out = capsys.readouterr().out
    value = out.strip().splitlines()[-1].split(",")[1]
    assert 90.0 < float(value) < 120.0


def test_crossover_none_prints_empty(capsys):
    code = main(["crossover", "--metric", "rate_sum", "--lo", "120", "--hi", "150"])
    assert code == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "crossover_snr_db,"


def test_asymptote_listing(capsys):
    code = main(["asymptote"])
    assert code == 0
    out = capsys.readouterr().out
    assert "wdma_outage_floor" in out
    assert "noma_far_rate_ceiling_bits" in out


def test_asymptote_floor_does_not_depend_on_nodes(tmp_path, capsys):
    # a threshold whose separation cap crosses a kink of the CDF inside the
    # region, where a quadrature of the floor moved with the node count
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"outage_threshold": 30.0}), encoding="utf-8")
    lines = []
    for nodes in ("8", "128"):
        assert main(["asymptote", "--nodes", nodes, "--config", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        lines.append([line for line in out if line.startswith("wdma_outage_floor,")])
    assert len(lines[0]) == 1 and lines[0] == lines[1]


def test_mc_subcommand(capsys):
    code = main(
        [
            "mc",
            "--scheme",
            "wdma",
            "--user",
            "1",
            "--metric",
            "outage",
            "--snr-db",
            "100",
            "--trials",
            "10000",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    # the estimate's and its standard error's reprs, and the trial count
    assert capsys.readouterr().out.splitlines() == [
        "value,std_error,trials",
        "0.0859,0.00280216327147438,10000",
    ]


@pytest.mark.parametrize("sigma_tol", ["nan", "-1"])
def test_validate_rejects_non_positive_or_non_finite_sigma_tol(sigma_tol, capsys):
    argv = ["validate", "--sigma-tol", sigma_tol, "--start", "100", "--stop", "100", "--trials", "1000"]
    assert main(argv) == 2
    assert "sigma_tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["asymptote", "--seed", "1"],
        ["asymptote", "--trials", "10"],
        ["crossover", "--seed", "1"],
        ["crossover", "--trials", "10"],
        ["mc", "--scheme", "wdma", "--user", "1", "--metric", "rate", "--snr-db", "100", "--nodes", "32"],
    ],
)
def test_flags_a_subcommand_ignores_are_input_errors(argv):
    assert main(argv) == 2


@pytest.mark.parametrize("argv", [["asymptote"], ["crossover", "--lo", "60", "--hi", "160"]])
def test_out_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == printed
    assert capsys.readouterr().out == ""


def fresh_run(argv) -> subprocess.CompletedProcess:
    """``argv`` through the command line in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "passperf.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


REUSE_SEQUENCE = [
    ["sweep", "--start", "100", "--stop", "104", "--step", "2", "--mc", "--trials", "2000"],
    ["sweep", "--start", "100", "--stop", "104", "--step", "2"],
    ["sweep", "--step", "zero"],
    ["crossover", "--lo", "60", "--hi", "160"],
    ["asymptote"],
]


def test_one_parser_serves_a_sequence_of_calls(monkeypatch, capsys):
    # the same usage width in this process and in the fresh ones
    monkeypatch.setenv("COLUMNS", "80")
    build_parser.cache_clear()
    results = []
    for argv in REUSE_SEQUENCE:
        code = main(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert build_parser.cache_info().misses == 1
    assert build_parser() is build_parser()
    assert [code for code, _, _ in results] == [0, 0, 2, 0, 0]
    # --mc from the first call does not carry over to the second
    with_mc, without_mc = (read_csv(io.StringIO(out)) for _, out, _ in results[:2])
    assert all(row.mc_value is not None for row in with_mc)
    assert all(row.mc_value is None and row.mc_std_error is None for row in without_mc)
    for argv, result in zip(REUSE_SEQUENCE, results):
        fresh = fresh_run(argv)
        assert result == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_validate_fail_lines_end_with_the_z_score(tmp_path, capsys):
    # a band of 1e-6 standard errors fails every outage cell whose estimate
    # is not exactly its analytic value; rates keep their 1% band
    out = tmp_path / "validate.txt"
    argv = ["validate", "--start", "90", "--stop", "100", "--step", "10", "--trials", "2000",
            "--sigma-tol", "1e-6", "--out", str(out)]
    assert main(argv) == 1
    report = sweep.validate(SystemConfig(), [90.0, 100.0], 2000, 12345, sigma_tol=1e-6)
    lines = out.read_text(encoding="utf-8").splitlines()[:-1]
    expected = []
    for j in range(2):
        for k in range(len(report.table.keys)):
            z = report.z_scores[k, j]
            expected.append(None if report.within[k, j] else f" z={z:.3g}")
    assert expected.count(None) < len(expected)
    for line, tail in zip(lines, expected, strict=True):
        if tail is None:
            assert line.startswith("PASS ") and " z=" not in line
        else:
            assert line.startswith("FAIL ") and line.endswith(tail)
            assert float(line.rsplit("z=", 1)[1]) != 0.0
