"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion. Every expected value is either exact, derived from an
independent oracle in ``oracles.py``, or a direction check between two full
evaluations.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from passperf import (
    SystemConfig,
    derive_constants,
    noma_outage_far,
    noma_outage_near,
    noma_rate_far,
    noma_rate_near,
    noma_zero_outage_thresholds,
    sample_placements,
    snr_db_to_power_w,
    validate,
    wdma_avg_rate,
    wdma_outage,
    wdma_outage_floor,
    wdma_rate_ceiling,
)
from passperf.geometry import _log1p_moments
from passperf.sweep import find_crossover, omega_one, omega_two

from oracles import (
    diff_cdf,
    diff_distribution,
    far_outage_trapezoid,
    near_coord_cdf_g,
    random_config,
    sq_diff_cdf,
    wdma_rate_quad2d,
)

DEFAULTS = SystemConfig()
NOISE_W = derive_constants(DEFAULTS).noise_w_ue1
GRID_10 = [90.0 + i * (60.0 / 9.0) for i in range(10)]  # 90 .. 150 dB inclusive
MC_TRIALS = 100_000
MC_SEED = 12345


def power_at(snr_db, cfg=DEFAULTS):
    return snr_db_to_power_w(cfg, snr_db)


def _report(name):
    print(f"\nPASS {name}")


def test_criterion_1_analytic_mc_equivalence():
    started = time.time()
    report = validate(DEFAULTS, GRID_10, trials=MC_TRIALS, seed=MC_SEED, sigma_tol=3.0, n_nodes=64)
    elapsed = time.time() - started
    table = report.table
    assert report.within.shape == (2 * 2 * 2, 10)
    for k, j in zip(*np.nonzero(~report.within)):
        (scheme, user, metric), snr_db = table.keys[k], table.grid[j]
        pytest.fail(
            f"{scheme} user {user} {metric} at {snr_db:.2f} dB: analytic {table.analytic[k, j]} "
            f"vs mc {table.mc_value[k, j]} +- {table.mc_std_error[k, j]}"
        )
    assert elapsed < 120.0
    _report(
        f"criterion 1: 80/80 analytic cells within tolerance of {MC_TRIALS}-trial "
        f"estimates in {elapsed:.1f} s"
    )


def test_criterion_2_wdma_interference_limits():
    power_200 = power_at(200.0)
    floor = wdma_outage_floor(DEFAULTS)
    assert wdma_outage(DEFAULTS, power_200) == pytest.approx(floor, abs=1e-4)
    ceiling = wdma_rate_ceiling(DEFAULTS)
    assert wdma_avg_rate(DEFAULTS, power_200) == pytest.approx(ceiling, rel=1e-3)
    assert wdma_outage_floor(replace(DEFAULTS, outage_threshold=1.0)) == 0.0
    assert wdma_outage_floor(replace(DEFAULTS, outage_threshold=0.5)) == 0.0
    _report(
        f"criterion 2: outage(200 dB)={wdma_outage(DEFAULTS, power_200):.6f} vs "
        f"floor={floor:.6f}; rate(200 dB) vs ceiling={ceiling:.6f}; floor=0 for "
        "threshold <= 1"
    )


def test_criterion_3_noma_high_snr_behaviour():
    near_w, far_w = noma_zero_outage_thresholds(DEFAULTS)
    assert far_w is not None
    for factor in (1.0, 1.0001, 10.0):
        assert noma_outage_near(DEFAULTS, factor * near_w) == 0.0
        assert noma_outage_far(DEFAULTS, factor * far_w) == 0.0

    ceiling = math.log2(1.0 + DEFAULTS.noma_alpha_far / DEFAULTS.noma_alpha_near)
    assert ceiling == pytest.approx(math.log2(20.0), rel=1e-15)
    rate_far_limit = noma_rate_far(DEFAULTS, 1e20 * derive_constants(DEFAULTS).noise_w_ue2)
    assert rate_far_limit == pytest.approx(ceiling, abs=1e-3)

    dc = derive_constants(DEFAULTS)
    power_high = 1e6 * dc.noise_w_ue1 * DEFAULTS.pa_height_m**2 / dc.eta_m2
    slope = noma_rate_near(DEFAULTS, 10.0 * power_high) - noma_rate_near(DEFAULTS, power_high)
    assert slope == pytest.approx(math.log2(10.0), abs=1e-2)
    _report(
        f"criterion 3: zero outage at thresholds; far rate {rate_far_limit:.5f} vs "
        f"log2(20)={ceiling:.5f}; near slope/decade {slope:.5f} vs {math.log2(10.0):.5f}"
    )


def test_criterion_4_region_separation_tradeoff():
    compact, dispersed = omega_one(), omega_two()
    floor_compact = wdma_outage_floor(compact)
    floor_dispersed = wdma_outage_floor(dispersed)
    assert floor_dispersed < floor_compact
    ceiling_compact = wdma_rate_ceiling(compact)
    ceiling_dispersed = wdma_rate_ceiling(dispersed)
    assert ceiling_dispersed > ceiling_compact
    for snr_db in GRID_10:
        power = power_at(snr_db)
        assert noma_rate_far(dispersed, power) < noma_rate_far(compact, power)
    _report(
        f"criterion 4: floor {floor_compact:.4f} -> {floor_dispersed:.4f}, ceiling "
        f"{ceiling_compact:.4f} -> {ceiling_dispersed:.4f}, far-user rate lower at "
        "all 10 grid points under dispersion"
    )


def test_criterion_5_power_allocation_shifts_crossovers():
    rate_bracket = (60.0, 160.0)
    outage_bracket = (90.0, 160.0)  # below 90 dB both outage curves saturate
    high_near = replace(DEFAULTS, noma_alpha_near=0.2, noma_alpha_far=0.8)

    rate_base = find_crossover(DEFAULTS, "rate_sum", rate_bracket)
    rate_shifted = find_crossover(high_near, "rate_sum", rate_bracket)
    assert rate_base is not None and rate_shifted is not None
    assert rate_shifted < rate_base

    outage_base = find_crossover(DEFAULTS, "outage_ue", outage_bracket)
    assert outage_base is not None
    # at threshold 5 the (0.2, 0.8) split leaves the far user in permanent
    # outage: its curve never drops below the per-waveguide one, i.e. the
    # crossover moved beyond any finite SNR
    outage_shifted = find_crossover(high_near, "outage_ue", outage_bracket)
    assert outage_shifted is None
    # with a threshold both splits can support, the shift is finite and strict
    base_t2 = find_crossover(replace(DEFAULTS, outage_threshold=2.0), "outage_ue", outage_bracket)
    shifted_t2 = find_crossover(replace(high_near, outage_threshold=2.0), "outage_ue", outage_bracket)
    assert base_t2 is not None and shifted_t2 is not None
    assert shifted_t2 > base_t2
    _report(
        f"criterion 5: rate crossover {rate_base:.2f} -> {rate_shifted:.2f} dB (down); "
        f"outage crossover {outage_base:.2f} dB -> none (threshold 5) and "
        f"{base_t2:.2f} -> {shifted_t2:.2f} dB (threshold 2, up)"
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(606)
    for _ in range(5):
        cfg = random_config(rng)
        _, far_w = noma_zero_outage_thresholds(cfg)
        assert far_w is not None
        power = rng.uniform(0.1, 0.95) * far_w
        closed = noma_outage_far(cfg, power)
        brute = far_outage_trapezoid(cfg, power)
        assert closed == pytest.approx(brute, abs=1e-5)
    for _ in range(10):
        cfg = random_config(rng)
        power = snr_db_to_power_w(DEFAULTS, rng.uniform(85.0, 135.0))
        closed = wdma_avg_rate(cfg, power)
        assert closed == pytest.approx(wdma_rate_quad2d(cfg, power), rel=1e-6)
    _report(
        "criterion 6: far-user outage closed form within 1e-5 of dense trapezoid "
        "(5 configs); rate closed form within 1e-6 of 2-D numeric integration "
        "(10 configs)"
    )


def _relative_gap(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def test_criterion_7_numerical_kernel_properties():
    # antiderivatives against central finite differences
    rng = np.random.default_rng(707)
    for _ in range(50):
        a = rng.uniform(0.1, 50.0)
        b = rng.uniform(1e-4, 10.0)
        u = rng.uniform(0.1, 20.0)
        r = b / a
        h = 1e-5 * max(u, 1.0)
        (up0, up1), (down0, down1) = _log1p_moments(u + h, r), _log1p_moments(u - h, r)
        assert (up0 - down0) / (2 * h) == pytest.approx(math.log1p(r * u * u), rel=1e-6)
        assert (up1 - down1) / (2 * h) == pytest.approx(u * math.log1p(r * u * u), rel=1e-6)

    # doubling the quadrature order leaves every analytic metric that reads
    # it in place (the outage floor and the NOMA cells have no node count)
    worst = 0.0
    configs = (DEFAULTS, omega_one(), omega_two())
    for cfg in configs:
        worst = max(worst, _relative_gap(wdma_rate_ceiling(cfg, 64), wdma_rate_ceiling(cfg, 128)))
        for snr_db in GRID_10:
            power = power_at(snr_db, cfg)
            for metric in (wdma_outage, wdma_avg_rate):
                worst = max(worst, _relative_gap(metric(cfg, power, 64), metric(cfg, power, 128)))
    assert worst < 1e-6

    # distribution CDFs: monotone, correct limits, consistent with sampling
    for cfg in (DEFAULTS, omega_two()):
        dist = diff_distribution(cfg)
        grid = np.linspace(-1.0, dist.support_hi**2 * 1.2, 1000)
        values = sq_diff_cdf(grid, dist)
        assert np.all(np.diff(values) >= 0.0) and values[0] == 0.0 and values[-1] == 1.0
        placements = sample_placements(cfg, np.random.default_rng(MC_SEED), size=MC_TRIALS)
        separation = np.abs(placements.y_ue1 - placements.y_ue2)
        assert kstest(separation, lambda u: diff_cdf(u, dist)).statistic < 0.01

    g_grid = np.linspace(-1.0, (DEFAULTS.region_x_m / 2) ** 2 * 1.2, 1000)
    g_values = near_coord_cdf_g(g_grid, DEFAULTS)
    assert np.all(np.diff(g_values) >= 0.0) and g_values[0] == 0.0 and g_values[-1] == 1.0
    placements = sample_placements(DEFAULTS, np.random.default_rng(MC_SEED), size=MC_TRIALS)
    centre = DEFAULTS.region_x_m / 2
    g_samples = np.minimum((placements.x_ue1 - centre) ** 2, (placements.x_ue2 - centre) ** 2)
    assert kstest(g_samples, lambda g: near_coord_cdf_g(g, DEFAULTS)).statistic < 0.01

    _report(
        f"criterion 7: antiderivative checks at 1e-6; worst 64->128 doubling gap "
        f"{worst:.2e}; CDFs monotone with KS < 0.01 at {MC_TRIALS} samples"
    )
