"""find_crossover: the array-call bisection against the plain scalar one and
against the look-ahead-only search it replaced."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import bisect_crossover, lookahead_crossover, random_config, random_offset_config

from passperf import SystemConfig, find_crossover, snr_db_to_power_w
from passperf.quadrature import ROW_BLOCK
from passperf.sweep import (
    CELLS,
    CROSSOVER_LOOKAHEAD,
    CROSSOVER_METRICS,
    CROSSOVER_TOL_DB,
    Cell,
    NumericalError,
)

CFG = SystemConfig()
RATE_BRACKET = (60.0, 160.0)


def power_at(snr_db: float) -> float:
    return snr_db_to_power_w(CFG, snr_db)


def visited_midpoints(lo: float, hi: float, result: float) -> list:
    """The midpoints a bisection of [lo, hi] reads on its way to ``result``:
    the result lies strictly inside every bracket it keeps."""
    visited = []
    while hi - lo > CROSSOVER_TOL_DB:
        mid = 0.5 * (lo + hi)
        visited.append(mid)
        if result < mid:
            hi = mid
        else:
            lo = mid
    return visited


@st.composite
def brackets(draw):
    """Narrower than the tolerance anywhere in -50:400 dB, or wide enough
    to hold the crossovers (about 78-110 dB on random configs)."""
    if draw(st.booleans()):
        lo = draw(st.floats(-50.0, 399.0))
        return lo, lo + draw(st.floats(1e-6, CROSSOVER_TOL_DB))
    lo = draw(st.floats(-50.0, 110.0))
    return lo, draw(st.floats(max(lo, 75.0) + 1e-3, 400.0))


@given(
    seed=st.integers(0, 2**32 - 1),
    offset=st.booleans(),
    metric=st.sampled_from(tuple(CROSSOVER_METRICS)),
    bracket=brackets(),
)
@example(seed=0, offset=False, metric="rate_sum", bracket=(-50.0, 400.0))
# the low end sits on the plateau where both outages are exactly one
@example(seed=0, offset=False, metric="outage_ue", bracket=(-50.0, 400.0))
@example(seed=1, offset=True, metric="outage_ue", bracket=(90.0, 160.0))
@example(seed=2, offset=False, metric="rate_sum", bracket=(100.0, 100.005))
@settings(max_examples=60, deadline=None)
def test_find_crossover_returns_the_plain_bisection_midpoint(seed, offset, metric, bracket):
    rng = np.random.default_rng(seed)
    cfg = random_offset_config(rng) if offset else random_config(rng)
    expected = bisect_crossover(cfg, metric, bracket)
    found = find_crossover(cfg, metric, bracket)
    assert found == expected
    assert type(found) is type(expected)


def count_array_calls(monkeypatch, keys) -> dict:
    """Wrap the ``CELLS`` values of ``keys`` with a counter; returns key ->
    the shape of the powers of each call."""
    calls = {}

    def counted(key, original):
        def value(cfg, power_w, n_nodes):
            calls.setdefault(key, []).append(np.shape(power_w))
            return original(cfg, power_w, n_nodes)

        return value

    for key in keys:
        monkeypatch.setitem(CELLS, key, Cell(counted(key, CELLS[key].value), CELLS[key].limit))
    return calls


@given(
    seed=st.integers(0, 2**32 - 1),
    offset=st.booleans(),
    metric=st.sampled_from(tuple(CROSSOVER_METRICS)),
    bracket=brackets(),
)
@example(seed=0, offset=False, metric="rate_sum", bracket=(-50.0, 400.0))
@example(seed=0, offset=False, metric="outage_ue", bracket=(-50.0, 400.0))
@example(seed=1, offset=True, metric="outage_ue", bracket=(90.0, 160.0))
@example(seed=2, offset=False, metric="rate_sum", bracket=(100.0, 100.005))
@settings(max_examples=60, deadline=None)
def test_find_crossover_makes_no_more_array_calls_than_the_look_ahead_search(
    seed, offset, metric, bracket
):
    rng = np.random.default_rng(seed)
    cfg = random_offset_config(rng) if offset else random_config(rng)
    expected, oracle_calls = lookahead_crossover(cfg, metric, bracket)
    added, subtracted = CROSSOVER_METRICS[metric]
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_array_calls(monkeypatch, added + subtracted)
        assert find_crossover(cfg, metric, bracket) == expected
    assert all(len(shapes) <= oracle_calls for shapes in calls.values())


@pytest.mark.parametrize(
    "metric, bracket",
    [("rate_sum", RATE_BRACKET), ("outage_ue", (90.0, 160.0)), ("outage_ue", (50.0, 160.0))],
    ids=["rate_sum", "outage_ue", "outage_ue-plateau"],
)
def test_find_crossover_matches_plain_bisection_on_the_default_config(metric, bracket):
    expected = bisect_crossover(CFG, metric, bracket)
    assert find_crossover(CFG, metric, bracket) == expected
    assert (expected is None) == (bracket[0] == 50.0)


def patch_nan_at(monkeypatch, snr_db: float, key=("noma", 2, "rate")) -> list:
    """Make one rate_sum cell NaN at ``snr_db``'s power; returns the powers
    the cell is asked for, scalar and array calls alike."""
    original = CELLS[key].value
    target = power_at(snr_db)
    asked = []

    def value(cfg, power_w, n_nodes):
        asked.extend(np.atleast_1d(power_w).tolist())
        out = np.where(np.asarray(power_w) == target, math.nan, original(cfg, power_w, n_nodes))
        return out if np.ndim(power_w) else float(out)

    monkeypatch.setitem(CELLS, key, Cell(value, CELLS[key].limit))
    return asked


@pytest.mark.parametrize("end", [0, 1], ids=["lo", "hi"])
def test_non_finite_difference_at_a_bracket_end_raises(monkeypatch, end):
    snr_db = RATE_BRACKET[end]
    patch_nan_at(monkeypatch, snr_db)
    message = f"rate_sum difference not finite at {snr_db} dB"
    with pytest.raises(NumericalError, match=re.escape(message)):
        bisect_crossover(CFG, "rate_sum", RATE_BRACKET)
    with pytest.raises(NumericalError, match=re.escape(message)):
        find_crossover(CFG, "rate_sum", RATE_BRACKET)


@pytest.mark.parametrize("level", [0, 4, 13], ids=["first", "fifth", "last"])
def test_non_finite_difference_at_a_visited_midpoint_raises(monkeypatch, level):
    visited = visited_midpoints(*RATE_BRACKET, find_crossover(CFG, "rate_sum", RATE_BRACKET))
    assert len(visited) == 14
    snr_db = visited[level]
    patch_nan_at(monkeypatch, snr_db)
    message = f"rate_sum difference not finite at {snr_db} dB"
    with pytest.raises(NumericalError, match=re.escape(message)):
        bisect_crossover(CFG, "rate_sum", RATE_BRACKET)
    with pytest.raises(NumericalError, match=re.escape(message)):
        find_crossover(CFG, "rate_sum", RATE_BRACKET)


def test_non_finite_difference_at_an_unread_look_ahead_point_is_ignored(monkeypatch):
    expected = find_crossover(CFG, "rate_sum", RATE_BRACKET)
    # the crossover is below 110 dB, so the bisection never reads 135 dB
    assert expected < 110.0
    asked = patch_nan_at(monkeypatch, 135.0)
    assert find_crossover(CFG, "rate_sum", RATE_BRACKET) == expected
    assert power_at(135.0) in asked
    assert bisect_crossover(CFG, "rate_sum", RATE_BRACKET) == expected


def test_rate_sum_crossover_makes_at_most_three_array_calls_per_cell(monkeypatch):
    added, subtracted = CROSSOVER_METRICS["rate_sum"]
    calls = count_array_calls(monkeypatch, added + subtracted)
    assert CROSSOVER_LOOKAHEAD == 4
    assert find_crossover(CFG, "rate_sum", RATE_BRACKET) is not None
    # equal noise powers: WDMA user 2 takes user 1's array
    assert set(calls) == set(added + subtracted) - {("wdma", 2, "rate")}
    for shapes in calls.values():
        # one scalar call per power would be 16, the look-ahead tree alone 4
        assert 1 <= len(shapes) <= 3
        assert all(len(shape) == 1 for shape in shapes)
        # the first call (two ends, 15 midpoints) is not split into blocks
        assert shapes[0] == (2 + 2**CROSSOVER_LOOKAHEAD - 1,)
        assert shapes[0][0] <= ROW_BLOCK


@pytest.mark.parametrize(
    "metric, bracket", [("rate_sum", RATE_BRACKET), ("outage_ue", (90.0, 160.0))]
)
def test_unequal_noise_powers_evaluate_both_wdma_users(monkeypatch, metric, bracket):
    cfg = SystemConfig(noise_power_dbm_ue2=-80.0)
    expected, _ = lookahead_crossover(cfg, metric, bracket)
    assert expected is not None
    assert bisect_crossover(cfg, metric, bracket) == expected
    added, subtracted = CROSSOVER_METRICS[metric]
    calls = count_array_calls(monkeypatch, added + subtracted)
    assert find_crossover(cfg, metric, bracket) == expected
    assert set(calls) == set(added + subtracted)
