import math

import numpy as np
import pytest

from passperf import (
    ConfigError,
    SweepSpec,
    SystemConfig,
    mc_cell_estimates,
    run_sweep,
    sample_placements,
    sinr,
    snr_db_to_power_w,
)
from passperf import montecarlo
from passperf.montecarlo import METRICS, TRIAL_BLOCK
from passperf.sweep import snr_grid, validate

from oracles import sinr_trials

CFG = SystemConfig()
POWER = snr_db_to_power_w(CFG, 100.0)
LN2 = math.log(2.0)
PAIRS = (("wdma", 1), ("wdma", 2), ("noma", 1), ("noma", 2))
KEYS = tuple((scheme, user, metric) for scheme, user in PAIRS for metric in METRICS)


def estimate(trials, seed, scheme, user, metric, powers=(POWER,), cfg=CFG):
    """One key's estimates and standard errors: two arrays, one entry per power."""
    value, std_error = mc_cell_estimates(trials, seed, [(scheme, user, metric)], cfg, powers)
    return value[0], std_error[0]


def bits(arrays) -> list:
    """The bytes of each array, which compare equal only bit for bit."""
    return [array.tobytes() for array in arrays]


def test_spec_validation():
    with pytest.raises(ConfigError, match="trials"):
        estimate(0, 1, "wdma", 1, "rate")
    with pytest.raises(ConfigError, match="seed"):
        estimate(10, -1, "wdma", 1, "rate")
    with pytest.raises(ConfigError, match="scheme"):
        estimate(10, 1, "tdma", 1, "rate")
    with pytest.raises(ConfigError, match="user"):
        estimate(10, 1, "noma", 3, "rate")
    with pytest.raises(ConfigError, match="metric"):
        estimate(10, 1, "noma", 1, "ber")
    for trials in (True, 2.5, 10.0):
        with pytest.raises(ConfigError, match="trials"):
            estimate(trials, 1, "wdma", 1, "rate")
    for seed in (1.5, True, "1"):
        with pytest.raises(ConfigError, match="seed"):
            estimate(10, seed, "wdma", 1, "rate")
    value, std_error = mc_cell_estimates(np.int64(10), np.uint64(2**63), KEYS, CFG, [POWER, 2.0 * POWER])
    assert value.shape == std_error.shape == (len(KEYS), 2)
    assert value.dtype == std_error.dtype == np.float64


def test_impossible_outage_event_is_exactly_zero():
    # SINR is strictly positive, so a vanishing threshold is never hit
    cfg = SystemConfig(outage_threshold=1e-300)
    value, std_error = estimate(20_000, 5, "wdma", 1, "outage", cfg=cfg)
    assert value[0] == 0.0
    assert std_error[0] == 0.0


def test_certain_outage_at_vanishing_power():
    value, _ = estimate(20_000, 5, "wdma", 1, "outage", [1e-300])
    assert value[0] == 1.0


def test_rate_vanishes_with_power():
    value, _ = estimate(20_000, 5, "noma", 1, "rate", [1e-300])
    assert value[0] == pytest.approx(0.0, abs=1e-15)


def test_same_seed_is_bitwise_identical():
    a = estimate(50_000, 123, "noma", 2, "outage")
    b = estimate(50_000, 123, "noma", 2, "outage")
    assert bits(a) == bits(b)
    c = estimate(50_000, 123, "wdma", 2, "rate")
    d = estimate(50_000, 123, "wdma", 2, "rate")
    assert bits(c) == bits(d)


def test_trials_are_addressable_by_index():
    full = sinr_trials("wdma", 1, CFG, POWER, 42, 0, 30_000)
    head = sinr_trials("wdma", 1, CFG, POWER, 42, 0, 10_000)
    tail = sinr_trials("wdma", 1, CFG, POWER, 42, 10_000, 20_000)
    assert np.array_equal(full, np.concatenate([head, tail]))
    middle = sinr_trials("wdma", 1, CFG, POWER, 42, 7_000, 1_000)
    assert np.array_equal(full[7_000:8_000], middle)


def test_partitioned_reduction_matches_sequential():
    # two workers own alternating blocks; partial sums folded in block order
    trials = 100_000
    blocks = [(s, min(TRIAL_BLOCK, trials - s)) for s in range(0, trials, TRIAL_BLOCK)]

    def block_sums(start, count):
        gamma = sinr_trials("wdma", 1, CFG, POWER, 42, start, count)
        r = np.log1p(gamma) / LN2
        return float(np.sum(r)), float(np.sum(r * r))

    worker_even = {i: block_sums(*b) for i, b in enumerate(blocks) if i % 2 == 0}
    worker_odd = {i: block_sums(*b) for i, b in enumerate(blocks) if i % 2 == 1}
    merged = {**worker_odd, **worker_even}
    total = total_sq = 0.0
    for i in range(len(blocks)):
        s, s2 = merged[i]
        total += s
        total_sq += s2
    mean = total / trials
    variance = max(0.0, (total_sq - trials * mean**2) / (trials - 1))
    value, std_error = estimate(trials, 42, "wdma", 1, "rate")
    assert mean == value[0]
    assert math.sqrt(variance / trials) == std_error[0]

    counts = 0
    for start, count in blocks:
        gamma = sinr_trials("wdma", 1, CFG, POWER, 42, start, count)
        counts += int(np.count_nonzero(gamma <= CFG.outage_threshold))
    assert counts / trials == estimate(trials, 42, "wdma", 1, "outage")[0][0]


@pytest.mark.parametrize("power", [1e-300, 1e-12, 1.0, 1e30])
def test_estimates_finite_over_extreme_powers(power):
    value, std_error = mc_cell_estimates(5_000, 9, KEYS, CFG, [power])
    assert np.isfinite(value).all() and np.isfinite(std_error).all()
    outages = [k for k, (_, _, metric) in enumerate(KEYS) if metric == "outage"]
    assert ((0.0 <= value[outages]) & (value[outages] <= 1.0)).all()


def test_std_error_scales_with_trials():
    # doubling the trial count shrinks the standard error by about sqrt(2)
    ratios = []
    for seed in range(10):
        small = estimate(20_000, seed, "wdma", 1, "rate")[1][0]
        large = estimate(40_000, seed, "wdma", 1, "rate")[1][0]
        ratios.append(large / small)
    assert np.mean(ratios) == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)


def test_outage_std_error_is_binomial():
    [value], [std_error] = estimate(50_000, 3, "noma", 2, "outage")
    assert std_error == pytest.approx(math.sqrt(value * (1 - value) / 50_000), rel=1e-12)


def test_noma_mc_respects_ordering_every_trial():
    # the far user's SINR can never exceed the near-geometry bound
    gamma_near = sinr_trials("noma", 1, CFG, POWER, 11, 0, 10_000)
    assert np.all(gamma_near > 0)
    gamma_far = sinr_trials("noma", 2, CFG, POWER, 11, 0, 10_000)
    cap = CFG.noma_alpha_far / CFG.noma_alpha_near
    assert np.all(gamma_far < cap)


@pytest.mark.parametrize("scheme,user", PAIRS)
def test_grid_estimates_equal_one_power_calls(scheme, user):
    # each power's sums are folded in block order whatever powers share the call
    grid = snr_grid(SweepSpec(snr_db_start=90.0, snr_db_stop=150.0, snr_db_step=2.0))
    powers = [1e-300, 1e-12, 1.0, 1e30] + snr_db_to_power_w(CFG, grid)
    keys = [(scheme, user, metric) for metric in METRICS]
    together = mc_cell_estimates(37_777, 2024, keys, CFG, powers)
    for i, power in enumerate(powers):
        alone = mc_cell_estimates(37_777, 2024, keys, CFG, [power])
        assert bits(column[:, i] for column in together) == bits(column[:, 0] for column in alone)


THREE_BLOCKS = 2 * TRIAL_BLOCK + 1


@pytest.fixture
def draws(monkeypatch):
    """Names of the placement samplers the simulator calls, one per draw."""
    names = []

    def counting(sample):
        def wrapper(*args, **kwargs):
            names.append(sample.__name__)
            return sample(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(montecarlo, "sample_placements", counting(montecarlo.sample_placements))
    return names


def test_sweep_draws_each_block_once_per_run(draws):
    spec = SweepSpec(include_mc=True, mc_trials=THREE_BLOCKS, mc_seed=7)
    assert len(snr_grid(spec)) > 1
    run_sweep(spec, CFG)
    # every (scheme, user) shares each draw, with no factor for grid points
    assert draws == ["sample_placements"] * 3


def test_validate_draws_each_block_once_per_run(draws):
    # validate checks both users of both schemes
    validate(CFG, [100.0, 120.0], THREE_BLOCKS, 7)
    assert draws == ["sample_placements"] * 3


def test_users_sharing_a_draw_match_one_user_calls():
    # keys shuffled and repeated: row k is keys[k]'s estimate, bit for bit
    powers = snr_db_to_power_w(CFG, (90.0, 110.0, 130.0))
    keys = [KEYS[i] for i in (5, 0, 7, 2, 2, 6, 1, 4, 3, 5, 0)]
    value, std_error = montecarlo.mc_cell_estimates(THREE_BLOCKS, 11, keys, CFG, powers)
    for k, key in enumerate(keys):
        alone = estimate(THREE_BLOCKS, 11, *key, powers)
        assert bits((value[k], std_error[k])) == bits(alone)


def test_scheme_estimates_validate_through_spec():
    with pytest.raises(ValueError, match="trials"):
        montecarlo.mc_cell_estimates(2.5, 1, KEYS, CFG, [POWER])
    with pytest.raises(ValueError, match="scheme"):
        montecarlo.mc_cell_estimates(10, 1, (("wdma", 1, "rate"), ("tdma", 1, "rate")), CFG, [POWER])
    with pytest.raises(ValueError, match="user"):
        montecarlo.mc_cell_estimates(10, 1, (("noma", 1, "rate"), ("noma", 3, "rate")), CFG, [POWER])
    with pytest.raises(ValueError, match="keys"):
        montecarlo.mc_cell_estimates(10, 1, (), CFG, [POWER])


def test_sinr_checks_the_cell_like_the_estimator():
    placement = sample_placements(CFG, np.random.default_rng(0), size=4)
    # neither an unknown user nor an unknown scheme falls back to a known one
    for scheme, user in (("wdma", 3), ("noma", 0)):
        with pytest.raises(ConfigError, match="user"):
            sinr(scheme, user, CFG, 1e-3, placement)
    with pytest.raises(ConfigError, match="scheme"):
        sinr("tdma", 1, CFG, 1e-3, placement)


def test_estimates_reject_non_positive_power():
    with pytest.raises(ValueError, match="power_w"):
        estimate(10, 1, "wdma", 1, "rate", [1.0, 0.0])
