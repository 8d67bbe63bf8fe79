"""find_crossover: the grid-and-secant search against a plain scalar
bisection run to 1e-9 dB, and its array calls per cell."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import bisect_crossover, random_config, random_offset_config

from passperf import SystemConfig, find_crossover, snr_db_to_power_w, sweep
from passperf.quadrature import ROW_BLOCK
from passperf.sweep import (
    CELLS,
    CROSSOVER_METRICS,
    CROSSOVER_TOL_DB,
    Cell,
    NumericalError,
    omega_two,
)

CFG = SystemConfig()
RATE_BRACKET = (60.0, 160.0)
OUTAGE_BRACKET = (90.0, 160.0)
# the reference root: a bisection to this width lies within half of it of its root
ROOT_TOL_DB = 1e-9


def power_at(snr_db: float) -> float:
    return snr_db_to_power_w(CFG, snr_db)


def assert_near_root(found, cfg, metric, bracket):
    """``found`` is None where the reference bisection is, else within
    ``CROSSOVER_TOL_DB / 2`` of its root (plus the reference's own width)."""
    root = bisect_crossover(cfg, metric, bracket, tol_db=ROOT_TOL_DB)
    assert (found is None) == (root is None), (found, root)
    if root is not None:
        assert type(found) is float
        assert abs(found - root) <= 0.5 * CROSSOVER_TOL_DB + ROOT_TOL_DB, (found, root)


@st.composite
def cases(draw):
    """A metric and a bracket: narrower than the tolerance anywhere in
    -50:400 dB; or wide, from anywhere in -50:110 dB to anywhere above
    75 dB; or wide enough to hold the crossovers of random configs
    (rate_sum about 78-110 dB, outage_ue about 90-105 dB where there is
    one), an outage_ue bracket then starting at 80-90 dB, mostly above the
    low-SNR plateau where both outages are exactly one."""
    metric = draw(st.sampled_from(tuple(CROSSOVER_METRICS)))
    kind = draw(st.sampled_from(("narrow", "wide", "crossing")))
    if kind == "narrow":
        lo = draw(st.floats(-50.0, 399.0))
        return metric, (lo, lo + draw(st.floats(1e-6, CROSSOVER_TOL_DB)))
    if kind == "wide":
        lo = draw(st.floats(-50.0, 110.0))
        return metric, (lo, draw(st.floats(max(lo, 75.0) + 1e-3, 400.0)))
    lo = draw(st.floats(-50.0, 78.0) if metric == "rate_sum" else st.floats(80.0, 90.0))
    return metric, (lo, draw(st.floats(110.0, 400.0)))


def drawn_config(seed: int, offset: bool) -> SystemConfig:
    rng = np.random.default_rng(seed)
    return random_offset_config(rng) if offset else random_config(rng)


@given(
    seed=st.integers(0, 2**32 - 1),
    offset=st.booleans(),
    case=cases(),
)
@example(seed=0, offset=False, case=("rate_sum", (-50.0, 400.0)))
# the low end sits on the plateau where both outages are exactly one
@example(seed=0, offset=False, case=("outage_ue", (-50.0, 400.0)))
@example(seed=1, offset=True, case=("outage_ue", (90.0, 160.0)))
@example(seed=2, offset=False, case=("rate_sum", (100.0, 100.005)))
# the outage difference kinks near the crossover, so secant roots miss it
@example(seed=16, offset=False, case=("outage_ue", (90.0, 160.0)))
@settings(max_examples=120, deadline=None)
def test_find_crossover_lands_within_half_the_tolerance_of_the_root(seed, offset, case):
    cfg, (metric, bracket) = drawn_config(seed, offset), case
    assert_near_root(find_crossover(cfg, metric, bracket), cfg, metric, bracket)


@pytest.mark.parametrize(
    "metric, bracket",
    [("rate_sum", RATE_BRACKET), ("outage_ue", OUTAGE_BRACKET), ("outage_ue", (50.0, 160.0))],
    ids=["rate_sum", "outage_ue", "outage_ue-plateau"],
)
def test_find_crossover_lands_near_the_root_on_the_default_config(metric, bracket):
    found = find_crossover(CFG, metric, bracket)
    assert (found is None) == (bracket[0] == 50.0)
    assert_near_root(found, CFG, metric, bracket)


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


def call_bound(bracket) -> int:
    """Array calls per cell that cutting the first call's 1/16 bracket
    16-fold per call until it is at most ``CROSSOVER_TOL_DB`` wide needs:
    each later call evaluates 15 evenly spaced points of its bracket."""
    width = (bracket[1] - bracket[0]) / 16.0
    return 1 + max(0, math.ceil(math.log(width / CROSSOVER_TOL_DB, 16)))


@given(
    seed=st.integers(0, 2**32 - 1),
    offset=st.booleans(),
    case=cases(),
)
@example(seed=0, offset=False, case=("rate_sum", (-50.0, 400.0)))
@example(seed=0, offset=False, case=("outage_ue", (-50.0, 400.0)))
@example(seed=16, offset=False, case=("outage_ue", (90.0, 160.0)))
@example(seed=2, offset=False, case=("rate_sum", (100.0, 100.005)))
@settings(max_examples=120, deadline=None)
def test_each_call_after_the_first_cuts_the_bracket_sixteenfold(seed, offset, case):
    cfg, (metric, bracket) = drawn_config(seed, offset), case
    added, subtracted = CROSSOVER_METRICS[metric]
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_array_calls(monkeypatch, added + subtracted)
        find_crossover(cfg, metric, bracket)
    first = 2 if bracket[1] - bracket[0] <= CROSSOVER_TOL_DB else 17
    for shapes in calls.values():
        assert 1 <= len(shapes) <= call_bound(bracket)
        assert shapes[0] == (first,)


@pytest.mark.parametrize("end", [0, 1], ids=["lo", "hi"])
def test_non_finite_difference_at_a_bracket_end_raises(monkeypatch, end):
    snr_db = RATE_BRACKET[end]
    patch_nan_at(monkeypatch, snr_db)
    message = f"rate_sum difference not finite at {snr_db} dB"
    with pytest.raises(NumericalError, match=re.escape(message)):
        bisect_crossover(CFG, "rate_sum", RATE_BRACKET)
    with pytest.raises(NumericalError, match=re.escape(message)):
        find_crossover(CFG, "rate_sum", RATE_BRACKET)


def patch_nan_at(monkeypatch, snr_db: float, key=("noma", 2, "rate")) -> None:
    """Make one rate_sum cell NaN at ``snr_db``'s power, in scalar and array
    calls alike."""
    original = CELLS[key].value
    target = power_at(snr_db)

    def value(cfg, power_w, n_nodes):
        out = np.where(np.asarray(power_w) == target, math.nan, original(cfg, power_w, n_nodes))
        return out if np.ndim(power_w) else float(out)

    monkeypatch.setitem(CELLS, key, Cell(value, CELLS[key].limit))


def evaluated_grids(metric: str, bracket) -> list:
    """The SNRs of each array call ``find_crossover`` makes on ``CFG``."""
    grids = []
    convert = sweep.snr_db_to_power_w

    def recorded(cfg, snr_db):
        grids.append(list(snr_db))
        return convert(cfg, snr_db)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(sweep, "snr_db_to_power_w", recorded)
        find_crossover(CFG, metric, bracket)
    return grids


@pytest.mark.parametrize(
    "call, index", [(0, 1), (0, 8), (1, 0), (1, -1)],
    ids=["first-lowest", "first-middle", "second-lowest", "second-highest"],
)
def test_non_finite_difference_at_any_evaluated_snr_raises(monkeypatch, call, index):
    grids = evaluated_grids("rate_sum", RATE_BRACKET)
    assert len(grids) == 2
    snr_db = grids[call][index]
    assert snr_db not in RATE_BRACKET
    patch_nan_at(monkeypatch, snr_db)
    message = f"rate_sum difference not finite at {snr_db} dB"
    with pytest.raises(NumericalError, match=re.escape(message)):
        find_crossover(CFG, "rate_sum", RATE_BRACKET)


def test_rate_sum_crossover_makes_at_most_three_array_calls_per_cell(monkeypatch):
    added, subtracted = CROSSOVER_METRICS["rate_sum"]
    calls = count_array_calls(monkeypatch, added + subtracted)
    assert find_crossover(CFG, "rate_sum", RATE_BRACKET) is not None
    # equal noise powers: WDMA user 2 takes user 1's array
    assert set(calls) == set(added + subtracted) - {("wdma", 2, "rate")}
    for shapes in calls.values():
        # one scalar call per power would be 16
        assert 1 <= len(shapes) <= 3
        assert all(len(shape) == 1 for shape in shapes)
        # the first call (two ends, 15 points between) is not split into blocks
        assert shapes[0] == (17,)
        assert shapes[0][0] <= ROW_BLOCK


@pytest.mark.parametrize(
    "metric, cfg, most",
    [
        ("rate_sum", CFG, 2),
        ("rate_sum", SystemConfig(noma_alpha_near=0.2, noma_alpha_far=0.8), 3),
        ("rate_sum", omega_two(), 3),
        ("outage_ue", CFG, 3),
        ("outage_ue", SystemConfig(noma_alpha_near=0.2, noma_alpha_far=0.8), 1),
        ("outage_ue", omega_two(), 1),
    ],
    ids=["rate_sum-default", "rate_sum-split", "rate_sum-omega_two",
         "outage_ue-default", "outage_ue-split", "outage_ue-omega_two"],
)
def test_benchmark_crossovers_make_fixed_array_calls_per_cell(monkeypatch, metric, cfg, most):
    """The six searches of the benchmark's crossover workload; one call per
    cell is the first call of a bracket without a crossover."""
    bracket = RATE_BRACKET if metric == "rate_sum" else OUTAGE_BRACKET
    added, subtracted = CROSSOVER_METRICS[metric]
    calls = count_array_calls(monkeypatch, added + subtracted)
    found = find_crossover(cfg, metric, bracket)
    assert (found is None) == (most == 1)
    assert all(len(shapes) <= most for shapes in calls.values())
    assert_near_root(found, cfg, metric, bracket)


@pytest.mark.parametrize("metric", tuple(CROSSOVER_METRICS))
def test_a_bracket_within_the_tolerance_evaluates_only_its_ends(monkeypatch, metric):
    added, subtracted = CROSSOVER_METRICS[metric]
    calls = count_array_calls(monkeypatch, added + subtracted)
    # the crossovers on the default config lie near 101.53 and 99.99 dB
    near = {"rate_sum": (101.526, 101.535), "outage_ue": (99.99, 99.999)}[metric]
    for bracket in (near, (60.0, 60.001)):
        found = find_crossover(CFG, metric, bracket)
        assert (found is None) == (bracket[0] == 60.0)
        if found is not None:
            assert found == 0.5 * (bracket[0] + bracket[1])
    assert all(shapes == [(2,), (2,)] for shapes in calls.values())


@pytest.mark.parametrize("metric, bracket", [("rate_sum", RATE_BRACKET), ("outage_ue", OUTAGE_BRACKET)])
def test_unequal_noise_powers_evaluate_both_wdma_users(monkeypatch, metric, bracket):
    cfg = SystemConfig(noise_power_dbm_ue2=-80.0)
    added, subtracted = CROSSOVER_METRICS[metric]
    calls = count_array_calls(monkeypatch, added + subtracted)
    found = find_crossover(cfg, metric, bracket)
    assert found is not None
    assert set(calls) == set(added + subtracted)
    assert_near_root(found, cfg, metric, bracket)
