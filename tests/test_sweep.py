import io
from dataclasses import replace

import numpy as np
import pytest

from passperf import (
    ConfigError,
    SystemConfig,
    SweepSpec,
    find_crossover,
    read_csv,
    run_sweep,
    snr_grid,
    to_csv_text,
    validate,
)
from passperf.sweep import (
    CSV_HEADER,
    cell_tolerance,
    omega_one,
    omega_two,
)

CFG = SystemConfig()


def test_spec_validation_names_fields():
    with pytest.raises(ConfigError, match="snr_db_step"):
        SweepSpec(snr_db_step=0.0)
    with pytest.raises(ConfigError, match="snr_db_start"):
        SweepSpec(snr_db_start=100.0, snr_db_stop=90.0)
    # grids whose point count overflows to infinity
    with pytest.raises(ConfigError, match="snr_db_step"):
        SweepSpec(snr_db_step=1e-310)
    with pytest.raises(ConfigError, match="snr_db_step"):
        SweepSpec(snr_db_start=-1e308, snr_db_stop=1e308, snr_db_step=1.0)
    with pytest.raises(ConfigError, match="schemes"):
        SweepSpec(schemes=("wdma", "cdma"))
    with pytest.raises(ConfigError, match="metrics"):
        SweepSpec(metrics=("outage", "goodput"))
    for name, entries in (("schemes", ("wdma", "wdma")), ("metrics", ("outage", "outage"))):
        with pytest.raises(ConfigError, match=f"{name} contains duplicate"):
            SweepSpec(**{name: entries})
        with pytest.raises(ConfigError, match=f"{name} must name at least one"):
            SweepSpec(**{name: ()})
    with pytest.raises(ConfigError, match="mc_trials"):
        SweepSpec(mc_trials=0)
    for trials in (2.5, True, 100_000.0):
        with pytest.raises(ConfigError, match="mc_trials"):
            SweepSpec(include_mc=True, mc_trials=trials)
    for seed in (1.5, False, "12345", -1, 2**64):
        with pytest.raises(ConfigError, match="mc_seed"):
            SweepSpec(include_mc=True, mc_seed=seed)


def test_grid_is_inclusive():
    spec = SweepSpec(snr_db_start=90.0, snr_db_stop=150.0, snr_db_step=2.0)
    grid = snr_grid(spec)
    assert grid[0] == 90.0
    assert grid[-1] == 150.0
    assert len(grid) == 31


def test_single_point_single_row():
    spec = SweepSpec(
        snr_db_start=100.0, snr_db_stop=100.0, snr_db_step=1.0, schemes=("wdma",), metrics=("outage",)
    )
    rows = run_sweep(spec, CFG)
    # wdma reports user 1 (the symmetric twin adds nothing)
    assert len(rows) == 1
    row = rows[0]
    assert (row.scheme, row.user, row.metric) == ("wdma", 1, "outage")
    assert row.mc_value is None
    assert row.asymptote is None


def test_sweep_columns_monotone_on_default_grid():
    spec = SweepSpec(snr_db_start=90.0, snr_db_stop=150.0, snr_db_step=2.0)
    rows = run_sweep(spec, CFG)
    wdma_outage_col = [
        r.analytic for r in rows if (r.scheme, r.user, r.metric) == ("wdma", 1, "outage")
    ]
    noma_rate_col = [r.analytic for r in rows if (r.scheme, r.user, r.metric) == ("noma", 1, "rate")]
    assert np.all(np.diff(wdma_outage_col) <= 1e-12)
    assert np.all(np.diff(noma_rate_col) >= -1e-12)


def test_rows_sorted_deterministically():
    spec = SweepSpec(snr_db_start=100.0, snr_db_stop=104.0, snr_db_step=2.0)
    keys = [(r.snr_db, r.scheme, r.user, r.metric) for r in run_sweep(spec, CFG)]
    assert keys == sorted(keys)


def test_asymptote_column_constant_and_region_dependent():
    spec = SweepSpec(
        snr_db_start=100.0, snr_db_stop=120.0, snr_db_step=10.0, include_asymptotes=True
    )
    compact = run_sweep(spec, omega_one())
    dispersed = run_sweep(spec, omega_two())

    def floor_column(rows):
        return {r.asymptote for r in rows if (r.scheme, r.user, r.metric) == ("wdma", 1, "outage")}

    floors_compact = floor_column(compact)
    floors_dispersed = floor_column(dispersed)
    assert len(floors_compact) == 1 and len(floors_dispersed) == 1
    assert floors_dispersed.pop() < floors_compact.pop()
    # near-user NOMA rate grows unbounded: no asymptote cell
    near_rate = [
        r.asymptote for r in compact if (r.scheme, r.user, r.metric) == ("noma", 1, "rate")
    ]
    assert all(v is None for v in near_rate)


def test_csv_round_trip_exact():
    spec = SweepSpec(
        snr_db_start=95.0,
        snr_db_stop=105.0,
        snr_db_step=5.0,
        include_mc=True,
        include_asymptotes=True,
        mc_trials=2_000,
        mc_seed=99,
    )
    rows = run_sweep(spec, CFG)
    text = to_csv_text(rows)
    assert read_csv(io.StringIO(text)) == rows
    assert text.splitlines()[0] == ",".join(CSV_HEADER)


def test_csv_output_is_reproducible():
    spec = SweepSpec(
        snr_db_start=95.0, snr_db_stop=100.0, snr_db_step=5.0, include_mc=True, mc_trials=2_000
    )
    assert to_csv_text(run_sweep(spec, CFG)) == to_csv_text(run_sweep(spec, CFG))


def test_validate_small_grid_passes():
    report = validate(CFG, [95.0, 110.0, 130.0], trials=20_000, seed=12345, sigma_tol=3.0)
    assert report.passed
    assert len(report.cells) == 3 * 8
    assert "PASS" in report.summary()


def test_validate_rejects_zero_trials():
    with pytest.raises(ConfigError, match="trials"):
        validate(CFG, [100.0], trials=0, seed=1)


def test_corrupted_analytic_value_fails_cell():
    report = validate(CFG, [110.0], trials=20_000, seed=12345, sigma_tol=3.0)
    cell = report.cells[0]
    corrupted = cell.analytic + 0.1
    band = cell_tolerance(cell.metric, corrupted, cell.mc_std_error, 3.0)
    assert abs(corrupted - cell.mc_value) > band


def test_rate_tolerance_includes_relative_band():
    assert cell_tolerance("rate", 10.0, 0.001, 3.0) == pytest.approx(0.1)
    assert cell_tolerance("rate", 10.0, 1.0, 3.0) == pytest.approx(3.0)
    assert cell_tolerance("outage", 10.0, 0.001, 3.0) == pytest.approx(0.003)


def test_crossover_requires_bracket_and_metric():
    with pytest.raises(ConfigError, match="bracket"):
        find_crossover(CFG, "rate_sum", (100.0, 100.0))
    with pytest.raises(ConfigError, match="metric"):
        find_crossover(CFG, "throughput", (90.0, 150.0))


def test_crossover_none_without_sign_change():
    # single-antenna access dominates the sum rate over this high bracket
    assert find_crossover(CFG, "rate_sum", (120.0, 150.0)) is None


def test_crossover_bracketing_property():
    snr = find_crossover(CFG, "rate_sum", (60.0, 160.0))
    assert snr is not None

    from passperf.config import snr_db_to_power_w
    from passperf.noma import noma_rate_far, noma_rate_near
    from passperf.wdma import wdma_avg_rate

    def diff(s):
        p = snr_db_to_power_w(s, 1e-12)
        return (
            noma_rate_near(CFG, p)
            + noma_rate_far(CFG, p)
            - wdma_avg_rate(CFG, p, user=1)
            - wdma_avg_rate(CFG, p, user=2)
        )

    assert abs(diff(snr)) < abs(diff(snr - 1.0))
    assert abs(diff(snr)) < abs(diff(snr + 1.0))
    assert diff(snr - 1.0) * diff(snr + 1.0) < 0.0


def test_power_allocation_shifts_crossovers():
    high_near = replace(CFG, noma_alpha_near=0.2, noma_alpha_far=0.8)
    base_rate = find_crossover(CFG, "rate_sum", (60.0, 160.0))
    shifted_rate = find_crossover(high_near, "rate_sum", (60.0, 160.0))
    assert shifted_rate < base_rate

    low_threshold = replace(CFG, outage_threshold=2.0)
    low_threshold_high_near = replace(high_near, outage_threshold=2.0)
    base_out = find_crossover(low_threshold, "outage_ue", (90.0, 160.0))
    shifted_out = find_crossover(low_threshold_high_near, "outage_ue", (90.0, 160.0))
    assert shifted_out > base_out
