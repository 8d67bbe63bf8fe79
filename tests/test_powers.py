"""Analytic metrics over arrays of transmit powers, and rejection of bad powers
and SNRs at every entry point."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import random_config, random_offset_config

from passperf import (
    ConfigError,
    SystemConfig,
    SweepSpec,
    mc_cell_estimates,
    noma_outage_far,
    noma_rate_far,
    run_sweep,
    snr_db_to_power_w,
    snr_grid,
    validate,
    wdma_avg_rate,
    wdma_outage,
)
from passperf import config, noma, quadrature, wdma
from passperf.cli import main
from passperf.quadrature import ROW_BLOCK
from passperf.sweep import CELLS, SWEEP_USERS, Cell, omega_two

CFG = SystemConfig()
SPLIT = SystemConfig(noma_alpha_near=0.2, noma_alpha_far=0.8)
CELL_IDS = ["-".join(map(str, cell)) for cell in CELLS]


def analytic(cell, cfg, power_w):
    return CELLS[cell].value(cfg, power_w, 64)


def grid_powers(cfg, start, stop, step):
    grid = snr_grid(SweepSpec(snr_db_start=start, snr_db_stop=stop, snr_db_step=step))
    return snr_db_to_power_w(cfg, grid)


@pytest.mark.parametrize("cfg", [CFG, omega_two(), SPLIT], ids=["default", "omega_two", "split"])
@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_grid_call_equals_scalar_calls(cfg, cell):
    # -50:400 dB spans saturated, short-circuit and high-SNR cells
    powers = grid_powers(cfg, -50.0, 400.0, 1.0)
    grid = analytic(cell, cfg, np.array(powers))
    assert isinstance(grid, np.ndarray) and grid.shape == (len(powers),)
    scalar = [analytic(cell, cfg, p) for p in powers]
    assert all(type(v) is float for v in scalar)
    assert grid.tolist() == scalar


@pytest.mark.parametrize("start, stop", [(90.0, 150.0), (100.0, 100.0)], ids=["31", "1"])
def test_sweep_blocks_equal_scalar_calls(start, stop):
    spec = SweepSpec(snr_db_start=start, snr_db_stop=stop, snr_db_step=2.0)
    powers = grid_powers(CFG, start, stop, 2.0)
    assert len(powers) == 1 or len(powers) % ROW_BLOCK != 0
    table = run_sweep(spec, CFG)
    swept = [cell for cell in CELLS if cell[1] in SWEEP_USERS[cell[0]]]
    assert table.keys == tuple(sorted(swept))
    assert table.grid.tolist() == snr_grid(spec)
    assert table.analytic.dtype == np.float64 and table.analytic.shape == (len(swept), len(powers))
    for cell, column in zip(table.keys, table.analytic.tolist()):
        assert column == [analytic(cell, CFG, p) for p in powers]


def count_value_calls(monkeypatch) -> dict:
    """Wrap every CELLS value with a counter; returns key -> list of the
    number of powers of each call."""
    calls = {}

    def counted(key, original):
        def value(cfg, power_w, n_nodes):
            calls.setdefault(key, []).append(np.size(power_w))
            return original(cfg, power_w, n_nodes)

        return value

    for key, cell in list(CELLS.items()):
        monkeypatch.setitem(CELLS, key, Cell(counted(key, cell.value), cell.limit))
    return calls


def test_sweep_and_validate_make_one_value_call_per_key(monkeypatch):
    spec = SweepSpec(snr_db_start=90.0, snr_db_stop=150.0, snr_db_step=0.5)
    grid = snr_grid(spec)
    # one call per block of ROW_BLOCK powers would make two or more
    assert len(grid) > ROW_BLOCK
    calls = count_value_calls(monkeypatch)
    run_sweep(spec, CFG)
    swept = [key for key in CELLS if key[1] in SWEEP_USERS[key[0]]]
    assert calls == {key: [len(grid)] for key in swept}
    calls.clear()
    validate(CFG, grid, trials=200, seed=1, sigma_tol=1e9)
    # equal noise powers: the WDMA user-2 cells take user 1's arrays
    assert calls == {key: [len(grid)] for key in CELLS if key[:2] != ("wdma", 2)}


@given(seed=st.integers(0, 2**32 - 1), offset=st.booleans())
@settings(max_examples=10, deadline=None)
def test_wdma_user_two_equals_user_one_bitwise_at_equal_noise_powers(seed, offset):
    rng = np.random.default_rng(seed)
    cfg = random_offset_config(rng) if offset else random_config(rng)
    assert cfg.noise_power_dbm_ue1 == cfg.noise_power_dbm_ue2
    powers = np.array(grid_powers(cfg, -50.0, 400.0, 1.0))
    for metric in ("outage", "rate"):
        user_1 = analytic(("wdma", 1, metric), cfg, powers)
        assert analytic(("wdma", 2, metric), cfg, powers).tobytes() == user_1.tobytes()


def test_validate_evaluates_both_wdma_users_at_unequal_noise_powers(monkeypatch):
    cfg = SystemConfig(noise_power_dbm_ue2=-80.0)
    grid = [90.0, 120.0, 150.0]
    calls = count_value_calls(monkeypatch)
    report = validate(cfg, grid, trials=200, seed=1, sigma_tol=1e9)
    assert calls == {key: [len(grid)] for key in CELLS}
    by_snr = dict(zip(grid, grid_powers(cfg, 90.0, 150.0, 30.0)))
    for cell in report.cells:
        key = (cell.scheme, cell.user, cell.metric)
        assert cell.analytic == analytic(key, cfg, by_snr[cell.snr_db])
    # user 2's noise is 10 dB above the SNR reference, so its rate is lower
    rates = {
        (cell.user, cell.snr_db): cell.analytic
        for cell in report.cells
        if (cell.scheme, cell.metric) == ("wdma", "rate")
    }
    assert rates[(2, 120.0)] < rates[(1, 120.0)]


# (metric, extra arguments): the metrics that build (powers x nodes) arrays
BLOCKED = [(wdma_outage, (64, 2)), (wdma_avg_rate, (64, 1)), (noma_rate_far, (64,))]
BLOCKED_IDS = [m.__name__ for m, _ in BLOCKED]
# tracemalloc peak of one call over 4096 powers; these measure 0.44-1.21 MB
# in blocks of ROW_BLOCK = 64 rows and 9.3-55 MB in one block of every power
# (numpy 2.4)
BLOCKED_PEAK_BOUND_B = 4_000_000


@pytest.mark.parametrize("metric, args", BLOCKED, ids=BLOCKED_IDS)
def test_blocked_metric_equals_its_block_calls_in_bounded_memory(metric, args, monkeypatch):
    # the WDMA outage integrates only the rows whose segments are not empty,
    # which on omega_two are too few to build large arrays in one block
    cfg = CFG if metric is wdma_outage else omega_two()
    powers = np.array(snr_db_to_power_w(cfg, np.linspace(-50.0, 400.0, 4096)))
    metric(cfg, powers[:ROW_BLOCK], *args)  # fill the per-config caches outside the trace

    def traced_peak():
        tracemalloc.start()
        try:
            values = metric(cfg, powers, *args)
            return values, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    values, peak = traced_peak()
    blocks = [
        metric(cfg, powers[first : first + ROW_BLOCK], *args)
        for first in range(0, powers.size, ROW_BLOCK)
    ]
    assert values.tobytes() == np.concatenate(blocks).tobytes()
    assert peak < BLOCKED_PEAK_BOUND_B
    # one block of every power builds the whole (powers x nodes) arrays and breaks the bound
    monkeypatch.setattr(quadrature, "ROW_BLOCK", powers.size)
    unblocked, unblocked_peak = traced_peak()
    assert unblocked_peak > BLOCKED_PEAK_BOUND_B
    assert unblocked.tobytes() == values.tobytes()


@pytest.mark.parametrize("metric, args", BLOCKED, ids=BLOCKED_IDS)
def test_blocked_metric_sets_up_once_per_call(metric, args, monkeypatch):
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*a, **kw):
            calls[name] += 1
            return original(*a, **kw)

        monkeypatch.setattr(module, name, counted)

    powers = np.array(grid_powers(CFG, -50.0, 400.0, 1.0))
    assert powers.size == 451  # 8 blocks of ROW_BLOCK rows
    metric(CFG, powers[:1], *args)  # fill the per-config caches before counting
    # config.over_powers derives the reduced model; the metric modules import it too
    count(config, "derive_constants")
    count(wdma, "derive_constants")
    count(noma, "derive_constants")
    count(wdma, "wdma_rate_ceiling")
    metric(CFG, powers, *args)
    assert calls["derive_constants"] == 1
    assert calls["wdma_rate_ceiling"] == (1 if metric is wdma_avg_rate else 0)


@pytest.mark.parametrize("n_powers", [451, 4096])
def test_cell_values_do_not_depend_on_the_block_size(n_powers, monkeypatch):
    # 451 is the sweep_wide grid, -50:400:1 dB
    powers = np.array(snr_db_to_power_w(CFG, np.linspace(-50.0, 400.0, n_powers)))
    values = {}
    for block in (1, 17, 64, n_powers):
        monkeypatch.setattr(quadrature, "ROW_BLOCK", block)
        for key, cell in CELLS.items():
            values.setdefault(key, set()).add(cell.value(CFG, powers, 64).tobytes())
    assert {key: len(found) for key, found in values.items()} == {key: 1 for key in CELLS}


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_scalar_power_gives_float_and_length_one_array_gives_array(cell):
    assert type(analytic(cell, CFG, 1.0)) is float
    one = analytic(cell, CFG, np.array([1.0]))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == analytic(cell, CFG, 1.0)


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_empty_power_array_gives_empty_array(cell):
    assert analytic(cell, CFG, np.array([])).shape == (0,)


BAD_POWERS = [0.0, -1.0, math.nan, math.inf, np.array([1.0, math.nan]), np.array([1.0, 0.0])]
BAD_IDS = ["zero", "negative", "nan", "inf", "nan-in-array", "zero-in-array"]


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
@pytest.mark.parametrize("power", BAD_POWERS, ids=BAD_IDS)
def test_analytic_metrics_reject_bad_powers(cell, power):
    with pytest.raises(ValueError, match="power_w"):
        analytic(cell, CFG, power)


def test_analytic_metrics_reject_two_dimensional_powers():
    with pytest.raises(ValueError, match="power_w"):
        wdma_outage(CFG, np.ones((2, 2)))


@pytest.mark.parametrize("power", [math.nan, math.inf, 0.0])
def test_breakpoints_and_estimates_reject_bad_powers(power):
    # the breakpoints of the far user's outage live inside noma_outage_far
    with pytest.raises(ValueError, match="power_w"):
        noma_outage_far(CFG, power)
    with pytest.raises(ValueError, match="power_w"):
        mc_cell_estimates(10, 1, [("noma", 2)], CFG, [1.0, power])


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, 4000.0, -4000.0])
def test_snr_conversion_rejects_non_finite_or_zero_power(snr_db):
    with pytest.raises(ValueError, match="snr_db"):
        snr_db_to_power_w(CFG, snr_db)


@pytest.mark.parametrize("field", ["snr_db_start", "snr_db_stop", "snr_db_step"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sweep_spec_rejects_non_finite_grid(field, value):
    with pytest.raises(ConfigError, match=field):
        SweepSpec(**{field: value})


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["mc", "--scheme", "wdma", "--user", "1", "--metric", "outage", "--snr-db", "nan"], "snr_db"),
        (["mc", "--scheme", "noma", "--user", "2", "--metric", "rate", "--snr-db", "4000"], "snr_db"),
        (["sweep", "--start", "90", "--stop", "4000", "--step", "1000"], "snr_db"),
        (["sweep", "--start", "nan"], "snr_db_start"),
        (["validate", "--stop", "inf"], "snr_db_stop"),
        (["crossover", "--lo", "nan"], "bracket_db"),
        (["crossover", "--hi", "nan"], "bracket_db"),
        (["crossover", "--lo", "90", "--hi", "inf"], "bracket_db"),
    ],
)
def test_cli_rejects_bad_snr_as_input_error(argv, needle, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in captured.err
