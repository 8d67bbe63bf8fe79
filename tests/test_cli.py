import io
import json

import pytest

from passperf.cli import main
from passperf.sweep import CSV_HEADER, read_csv


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
    lines = capsys.readouterr().out.strip().splitlines()
    value = float(lines[1].split(",")[0])
    assert 0.0 <= value <= 1.0


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
