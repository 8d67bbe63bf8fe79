import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import csv_writer_text, table_rows

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
    write_csv,
)
from passperf import sweep
from passperf.sweep import (
    CSV_HEADER,
    METRICS,
    SweepTable,
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
    # finite point counts too large to build
    for step in (1e-300, 1e-9):
        with pytest.raises(ConfigError, match="snr_db_step"):
            SweepSpec(snr_db_step=step)
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
    rows = table_rows(run_sweep(spec, CFG))
    # wdma reports user 1 (the symmetric twin adds nothing)
    assert len(rows) == 1
    row = rows[0]
    assert (row.scheme, row.user, row.metric) == ("wdma", 1, "outage")
    assert row.mc_value is None
    assert row.asymptote is None


def test_sweep_columns_monotone_on_default_grid():
    spec = SweepSpec(snr_db_start=90.0, snr_db_stop=150.0, snr_db_step=2.0)
    table = run_sweep(spec, CFG)
    wdma_outage_col = table.analytic[table.keys.index(("wdma", 1, "outage"))]
    noma_rate_col = table.analytic[table.keys.index(("noma", 1, "rate"))]
    assert np.all(np.diff(wdma_outage_col) <= 1e-12)
    assert np.all(np.diff(noma_rate_col) >= -1e-12)


def test_rows_sorted_deterministically():
    spec = SweepSpec(snr_db_start=100.0, snr_db_stop=104.0, snr_db_step=2.0)
    rows = read_csv(io.StringIO(to_csv_text(run_sweep(spec, CFG))))
    keys = [(r.snr_db, r.scheme, r.user, r.metric) for r in rows]
    assert keys == sorted(keys)


def test_asymptote_column_constant_and_region_dependent():
    spec = SweepSpec(
        snr_db_start=100.0, snr_db_stop=120.0, snr_db_step=10.0, include_asymptotes=True
    )
    compact, dispersed = (
        read_csv(io.StringIO(to_csv_text(run_sweep(spec, cfg)))) for cfg in (omega_one(), omega_two())
    )

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
    table = run_sweep(spec, CFG)
    text = to_csv_text(table)
    assert read_csv(io.StringIO(text)) == table_rows(table)
    assert text.splitlines()[0] == ",".join(CSV_HEADER)


# zeros of both signs, infinities, NaN, the smallest subnormal and normal,
# the largest float, and floats whose repr switches to or from exponent form
EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e-05, 0.0001, 1e16, 1e15, 0.1, -123.456,
]


def edge_table() -> SweepTable:
    """Every edge float as an SNR, and in every key's analytic and
    simulation columns, at shifted positions; every edge float and None as
    an asymptote."""
    asymptotes = (None, *EDGE_FLOATS)
    keys = tuple(
        (("wdma", "noma")[k % 2], 1 + k // 2 % 2, METRICS[k // 4 % 2]) for k in range(len(asymptotes))
    )

    def shifted(shift):
        return np.array([np.roll(EDGE_FLOATS, shift + k) for k in range(len(keys))])

    return SweepTable(np.array(EDGE_FLOATS), keys, shifted(3), asymptotes, shifted(5), shifted(11))


def without_mc(table: SweepTable) -> SweepTable:
    return table._replace(mc_value=None, mc_std_error=None)


def assert_written_as_csv_writer_rows(table: SweepTable) -> None:
    text = to_csv_text(table)
    rows = table_rows(table)
    assert text == csv_writer_text(rows)
    # NaN != NaN, so the round trip is compared through repr
    read = read_csv(io.StringIO(text))
    assert [tuple(map(repr, row)) for row in read] == [tuple(map(repr, row)) for row in rows]


def test_write_csv_matches_csv_writer_bytes():
    spec = SweepSpec(
        snr_db_start=95.0,
        snr_db_stop=105.0,
        snr_db_step=5.0,
        include_mc=True,
        include_asymptotes=True,
        mc_trials=2_000,
    )
    edges = edge_table()
    empty = edges._replace(
        grid=edges.grid[:0],
        analytic=edges.analytic[:, :0],
        mc_value=edges.mc_value[:, :0],
        mc_std_error=edges.mc_std_error[:, :0],
    )
    tables = (edges, run_sweep(spec, CFG), run_sweep(SweepSpec(), CFG), empty)
    for table in (*tables, *map(without_mc, tables)):
        assert_written_as_csv_writer_rows(table)
    assert to_csv_text(empty) == ",".join(CSV_HEADER) + "\n"


def _table(snrs, asymptotes) -> SweepTable:
    analytic = 0.25 * np.arange(len(asymptotes) * len(snrs)).reshape(len(asymptotes), len(snrs))
    return SweepTable(np.array(snrs), (("noma", 2, "rate"),) * len(asymptotes), analytic, tuple(asymptotes))


def _read_back(table: SweepTable) -> SweepTable:
    """``table`` rebuilt from the rows of its CSV text, read back."""
    rows, n_keys = read_csv(io.StringIO(to_csv_text(table))), len(table.keys)
    return table._replace(
        grid=np.array([row.snr_db for row in rows[::n_keys]]),
        analytic=np.array([[row.analytic for row in rows[k::n_keys]] for k in range(n_keys)]),
        asymptotes=tuple(row.asymptote for row in rows[:n_keys]),
    )


_MEMO_CASES = {
    # 0.0 == -0.0, but the two print differently
    "zero-then-negative-zero": _table([0.0, 0.0, -0.0, -0.0, 0.0], [0.0, -0.0, 0.0, -0.0, None]),
    "equal-valued-distinct-snrs": _table([100.5] * 3 + [-0.0] * 3 + [100.5], [1.5] * 2),
    "shared-nan-asymptote": _table([95.0, 95.0, 100.0, 100.0], [math.nan, None, math.nan, math.nan]),
    "rows-read-back-share-no-objects": _read_back(
        run_sweep(SweepSpec(snr_db_step=20.0, include_asymptotes=True), CFG)
    ),
}


@pytest.mark.parametrize("table", list(_MEMO_CASES.values()), ids=list(_MEMO_CASES))
def test_write_csv_formats_by_object_not_by_value(table):
    # write_csv formats each SNR and asymptote from its own float, so values
    # that compare equal but print differently (0.0 and -0.0) or compare
    # unequal to themselves (NaN) keep their own text
    assert_written_as_csv_writer_rows(table)


@pytest.fixture(scope="module")
def chunked_table() -> SweepTable:
    # three write chunks of the default size, the last one short; MC columns
    # from few trials
    n = 2 * sweep._WRITE_CHUNK + 3
    spec = SweepSpec(
        snr_db_start=-50.0,
        snr_db_stop=-50.0 + 0.1 * (n - 1),
        snr_db_step=0.1,
        include_mc=True,
        include_asymptotes=True,
        mc_trials=16,
    )
    table = run_sweep(spec, CFG)
    assert len(table.grid) == n
    return table


@pytest.mark.parametrize("mc", [True, False], ids=["mc", "analytic"])
def test_write_csv_bytes_do_not_depend_on_the_chunk_size(chunked_table, mc, monkeypatch):
    table = chunked_table if mc else without_mc(chunked_table)
    expected = csv_writer_text(table_rows(table))
    for chunk in (1, 7, sweep._WRITE_CHUNK):
        monkeypatch.setattr(sweep, "_WRITE_CHUNK", chunk)
        assert to_csv_text(table) == expected


class _Sink:
    def write(self, text: str) -> None:
        pass


def test_sweep_memory_grows_only_by_its_numeric_columns():
    # a default analytic sweep over four write chunks, written to a sink
    n = 4 * sweep._WRITE_CHUNK
    spec = SweepSpec(snr_db_start=-50.0, snr_db_stop=400.0, snr_db_step=450.0 / (n - 1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = run_sweep(spec, CFG)
        write_csv(table, _Sink())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(table.grid) == n
    # The table holds 8 bytes per SNR for the grid and for each key's analytic
    # column. Evaluation adds the SNR and power lists and a few arrays of the
    # grid's length inside one metric call, and writing adds one chunk of
    # text: 315 bytes per SNR in all on this grid (5.6 times the columns'
    # 56), against 2.0 kB when each line was a row object.
    column_bytes = 8 * (1 + len(table.keys))
    assert peak < 8 * column_bytes * n


def test_csv_output_is_reproducible():
    spec = SweepSpec(
        snr_db_start=95.0, snr_db_stop=100.0, snr_db_step=5.0, include_mc=True, mc_trials=2_000
    )
    assert to_csv_text(run_sweep(spec, CFG)) == to_csv_text(run_sweep(spec, CFG))


def test_validate_small_grid_passes():
    report = validate(CFG, [95.0, 110.0, 130.0], trials=20_000, seed=12345, sigma_tol=3.0)
    assert report.passed
    assert report.table.keys == tuple(sweep.CELLS)
    assert report.table.grid.tolist() == [95.0, 110.0, 130.0]
    assert report.tolerance.shape == report.within.shape == report.table.analytic.shape == (8, 3)
    assert "24/24 cells" in report.summary() and "PASS" in report.summary()


def test_validate_rejects_zero_trials():
    with pytest.raises(ConfigError, match="trials"):
        validate(CFG, [100.0], trials=0, seed=1)


def test_validate_rejects_an_empty_grid():
    # no cell to check is not a pass
    with pytest.raises(ConfigError, match="grid_db"):
        validate(CFG, [], trials=100, seed=1)


def test_corrupted_analytic_value_fails_cell():
    report = validate(CFG, [110.0], trials=20_000, seed=12345, sigma_tol=3.0)
    table, metric = report.table, report.table.keys[0][2]
    corrupted = table.analytic[0, 0] + 0.1
    band = cell_tolerance(
        metric, corrupted, table.mc_value[0, 0], table.mc_std_error[0, 0], 3.0, 20_000
    )
    assert abs(corrupted - table.mc_value[0, 0]) > band


def _failures(report):
    table = report.table
    return [(table.keys[k], table.grid[j]) for k, j in zip(*np.nonzero(~report.within))]


def test_validate_passes_on_a_long_region():
    # 300 m is 100 antenna heights: the rate quadratures stay exact there
    report = validate(replace(CFG, region_x_m=300.0), snr_grid(SweepSpec(60.0, 160.0, 10.0)),
                      trials=100_000, seed=12345)
    assert report.passed, _failures(report)


def test_validate_bands_a_unanimous_outage_estimate_by_the_analytic_value(monkeypatch):
    # at 80 dB on a 300 m region every trial leaves the far user in outage;
    # the analytic outage is 1 - 3.8e-8, not 1, and still passes
    cfg, key = replace(CFG, region_x_m=300.0), ("noma", 2, "outage")
    k = list(sweep.CELLS).index(key)
    report = validate(cfg, [80.0], trials=200_000, seed=12345)
    analytic = report.table.analytic[k, 0]
    assert (report.table.mc_value[k, 0], report.table.mc_std_error[k, 0]) == (1.0, 0.0)
    assert 0.0 < 1.0 - analytic < 1e-7 and report.within[k, 0]
    assert report.tolerance[k, 0] == pytest.approx(
        3.0 * math.sqrt(analytic * (1.0 - analytic) / 200_000)
    )
    # a value a binomial count of 200 000 trials rules out still fails
    monkeypatch.setitem(sweep.CELLS, key, sweep.Cell(lambda c, p, n: np.full(len(p), 0.99), None))
    corrupted = validate(cfg, [80.0], trials=200_000, seed=12345)
    assert corrupted.table.mc_value[k, 0] == 1.0 and not corrupted.within[k, 0]
    assert _failures(corrupted) == [(key, 80.0)]


def test_validate_bands_every_row_by_cell_tolerance():
    # unanimous outage estimates occur at 80 dB on a 300 m region
    trials = 100_000
    report = validate(replace(CFG, region_x_m=300.0), [80.0, 120.0], trials=trials, seed=12345)
    table = report.table
    outages = [k for k, key in enumerate(table.keys) if key[2] == "outage"]
    assert np.isin(table.mc_value[outages, 0], (0.0, 1.0)).any()
    for k, (_, _, metric) in enumerate(table.keys):
        row = (table.analytic[k], table.mc_value[k], table.mc_std_error[k])
        band = cell_tolerance(metric, *row, 3.0, trials)
        assert report.tolerance[k].tobytes() == band.tobytes(), table.keys[k]
    distance = np.abs(table.analytic - table.mc_value)
    assert np.array_equal(report.within, distance <= report.tolerance)


def test_rate_tolerance_includes_relative_band():
    assert cell_tolerance("rate", 10.0, 10.05, 0.001, 3.0, 1000) == pytest.approx(0.1)
    assert cell_tolerance("rate", 10.0, 12.0, 1.0, 3.0, 1000) == pytest.approx(3.0)
    assert cell_tolerance("outage", 10.0, 0.5, 0.001, 3.0, 1000) == pytest.approx(0.003)


def test_cell_tolerance_takes_one_band_per_kind_of_cell():
    trials = 10_000
    binomial = 3.0 * math.sqrt(0.2 * 0.8 / trials)
    # an outage estimate of exactly 0 or 1: the binomial band at the analytic value
    assert cell_tolerance("outage", 0.2, 0.0, 0.0, 3.0, trials) == pytest.approx(binomial)
    assert cell_tolerance("outage", 0.2, 1.0, 0.0, 3.0, trials) == pytest.approx(binomial)
    # ... which is zero, not invalid, for an analytic value outside [0, 1]
    assert cell_tolerance("outage", 1.5, 1.0, 0.0, 3.0, trials) == 0.0
    # an interior estimate: 3 sigma, however far the analytic value is
    assert cell_tolerance("outage", 0.2, 0.5, 0.005, 3.0, trials) == pytest.approx(0.015)
    # a rate: the 1% floor over a smaller 3 sigma band
    assert cell_tolerance("rate", 2.0, 2.01, 1e-4, 3.0, trials) == pytest.approx(0.02)
    # a row takes each cell's band
    row = cell_tolerance(
        "outage", np.array([0.2, 0.2, 0.2]), np.array([0.0, 0.5, 1.0]),
        np.array([0.0, 0.005, 0.0]), 3.0, trials,
    )
    assert row.tolist() == pytest.approx([binomial, 0.015, binomial])


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
        p = snr_db_to_power_w(CFG, s)
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
