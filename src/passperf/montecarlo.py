"""Independent Monte Carlo estimator for outage probability and average rate.

A trial drops both users: x uniform along the service region, y uniform in
the sub-regions on either side of the waveguide axis. Its draws are
addressed by (seed, trial index) through a counter-based generator: one
Philox counter tick supplies exactly the four uniforms a placement consumes,
so trial ranges can be recomputed or split across workers without changing
any value. Reductions are performed block by block in index order, making
partitioned runs bitwise identical to a single sequential run as long as
workers are assigned whole blocks.

``sinr`` is the package's one SINR formula. It recomputes SINRs from the
raw distance expressions on purpose: this module imports nothing from the
analytic modules it validates. It runs in two steps: a placement step
computes the power-independent distance and noise terms, and returns the
power step, which finishes the SINR from them with a few divisions.

Both schemes serve the same drop, and NOMA picks its near user from it.
``mc_cell_estimates``, the one estimator, draws each trial block once per
call for all the (scheme, user, metric) keys it is given, runs the
placement step once per block and (scheme, user), and the power step at
every requested power, so WDMA and NOMA estimates at one seed are paired on
the same drops (common random numbers). Its two (keys x powers) arrays are
the simulation columns of ``sweep.SweepTable``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, SystemConfig, check_powers, derive_constants

TRIAL_BLOCK = 1 << 14  # reduction granularity; partition only at multiples
_LN2 = math.log(2.0)

SCHEMES = ("wdma", "noma")
METRICS = ("outage", "rate")


@dataclass
class Placement:
    """One drop of the two users, served by either scheme.

    Under WDMA the antenna serving user i sits at (region_x_m / 2, y_ue_i,
    pa_height_m). Under NOMA the near user is the one whose x is nearer the
    region centre, and one antenna at (region_x_m / 2, y_near, pa_height_m)
    serves both users. Antennas are never stored because they are pinned to
    the users. Fields are equally shaped arrays, one entry per trial.
    """

    x_ue1: np.ndarray
    x_ue2: np.ndarray
    y_ue1: np.ndarray
    y_ue2: np.ndarray


def sample_placements(cfg: SystemConfig, rng: np.random.Generator, size: int) -> Placement:
    """Draw ``size`` uniform placements of both users.

    Consumes exactly four uniforms per trial in the fixed order
    (x_ue1, x_ue2, y_ue1, y_ue2), which keeps counter-based trial
    partitioning reproducible.
    """
    u = rng.random((int(size), 4))
    x1 = cfg.region_x_m * u[:, 0]
    x2 = cfg.region_x_m * u[:, 1]
    y1 = cfg.region_y_offset_m + cfg.region_y_m * u[:, 2]
    y2 = -(cfg.region_y_offset_m + cfg.region_y_m * u[:, 3])
    return Placement(x1, x2, y1, y2)


def _draw(cfg: SystemConfig, seed: int, start: int, count: int) -> Placement:
    """Placements of trials [start, start + count), shared by both schemes."""
    bit_gen = np.random.Philox(key=seed)
    bit_gen.advance(start)  # one counter tick == one trial's four uniforms
    return sample_placements(cfg, np.random.Generator(bit_gen), size=count)


def _check_trials_and_seed(trials, seed, names: tuple) -> None:
    """Reject a trial count or a seed that is not an integer, a trial count
    below one and a seed outside [0, 2^64); the errors name ``names``, the
    caller's (trials, seed) field names."""
    for name, value in zip(names, (trials, seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if trials < 1:
        raise ConfigError(f"{names[0]} must be >= 1, got {trials!r}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{names[1]} must be an unsigned 64-bit integer, got {seed!r}")


def _check_cell(scheme: str, user: int) -> None:
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if user not in (1, 2):
        raise ConfigError(f"user must be 1 or 2, got {user!r}")


def _sinr_step(scheme: str, user: int, cfg: SystemConfig, dc, placement):
    """The power step of ``user``'s SINR on each placement.

    Computes the power-independent terms once and returns a function of the
    transmit power that finishes the SINR from them with a few divisions
    (a new array, or a float). WDMA keeps the squared signal and
    interference distances and the user's noise power. NOMA keeps the noise
    power times the user's squared distance, where the near user (user 1)
    takes the smaller and the far user (user 2) the larger of the two
    squared x-offsets from the region centre.
    """
    centre = 0.5 * cfg.region_x_m
    h_sq = np.float64(cfg.pa_height_m) ** 2  # may overflow to inf, with no exception
    p = placement

    if scheme == "wdma":
        if user == 1:
            x_own, y_own, y_other, sigma2 = p.x_ue1, p.y_ue1, p.y_ue2, dc.noise_w_ue1
        else:
            x_own, y_own, y_other, sigma2 = p.x_ue2, p.y_ue2, p.y_ue1, dc.noise_w_ue2
        dx_sq = (x_own - centre) ** 2
        d_sig_sq, d_int_sq = dx_sq + h_sq, dx_sq + (y_own - y_other) ** 2 + h_sq

        def step(power_w):
            gain = 0.5 * power_w * dc.eta_m2
            interference = gain / d_int_sq
            interference += sigma2
            signal = gain / d_sig_sq
            signal /= interference
            return signal

        return step

    dx1_sq, dx2_sq = (p.x_ue1 - centre) ** 2, (p.x_ue2 - centre) ** 2
    # eta * alpha * power rounds as (eta * alpha) * power
    near_gain = dc.eta_m2 * cfg.noma_alpha_near
    if user == 1:
        noise_near = dc.noise_w_ue1 * (np.minimum(dx1_sq, dx2_sq) + h_sq)
        return lambda power_w: near_gain * power_w / noise_near
    far_gain = dc.eta_m2 * cfg.noma_alpha_far
    noise_far = dc.noise_w_ue2 * (np.maximum(dx1_sq, dx2_sq) + (p.y_ue1 - p.y_ue2) ** 2 + h_sq)
    return lambda power_w: far_gain * power_w / (near_gain * power_w + noise_far)


def sinr(scheme: str, user: int, cfg: SystemConfig, power_w: float, placement: Placement):
    """Instantaneous SINR of ``user`` of ``scheme`` for each placement.

    The WDMA users split ``power_w`` equally across their waveguides and
    interfere across them; the NOMA near user decodes after cancelling the
    far user's signal, and the far user decodes under the near user's.
    """
    _check_cell(scheme, user)
    check_powers(power_w)
    return _sinr_step(scheme, user, cfg, derive_constants(cfg), placement)(power_w)


def mc_cell_estimates(trials: int, seed: int, keys, cfg: SystemConfig, powers) -> tuple:
    """Estimates of each (scheme, user, metric) of ``keys`` at every power.

    Returns ``(value, std_error)``, two float arrays of shape
    ``(len(keys), len(powers))``: row k belongs to ``keys[k]`` and column j
    to ``powers[j]``, as in ``SweepTable.mc_value`` and ``mc_std_error``.
    Each trial block is drawn once for all keys and powers (common random
    numbers); the power-independent SINR terms of each distinct (scheme,
    user) are computed once per block, and its sums at each power are folded
    in block order, so an estimate does not depend on which other keys or
    powers share the call. The outage is the empirical probability that the
    SINR falls at or below the threshold, with its binomial standard error;
    the rate is the sample mean of log2(1 + SINR).
    """
    if not keys:
        raise ConfigError("keys must name at least one (scheme, user, metric)")
    _check_trials_and_seed(trials, seed, ("trials", "seed"))
    for scheme, user, metric in keys:
        _check_cell(scheme, user)
        if metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {metric!r}")
    powers = check_powers(list(powers))[0].tolist()
    dc = derive_constants(cfg)
    gth = cfg.outage_threshold
    # per (scheme, user): outage hits, rate sum and rate sum of squares, one per power
    sums = {
        (scheme, user): ([0] * len(powers), [0.0] * len(powers), [0.0] * len(powers))
        for scheme, user, _ in keys
    }
    # squared metres can overflow or underflow at extreme configs; the inf,
    # zero or NaN SINRs that result show in the estimates
    with np.errstate(all="ignore"):
        for start in range(0, trials, TRIAL_BLOCK):
            placement = _draw(cfg, seed, start, min(TRIAL_BLOCK, trials - start))
            for (scheme, user), (hits, total, total_sq) in sums.items():
                step = _sinr_step(scheme, user, cfg, dc, placement)
                for i, power_w in enumerate(powers):
                    gamma = step(power_w)
                    hits[i] += int(np.count_nonzero(gamma <= gth))
                    rate = np.log1p(gamma, out=gamma)
                    rate /= _LN2
                    total[i] += float(rate.sum())
                    rate *= rate
                    total_sq[i] += float(rate.sum())
    rows = [_summarise(trials, metric, *sums[scheme, user]) for scheme, user, metric in keys]
    return tuple(np.array(column) for column in zip(*rows))


def _summarise(n: int, metric: str, hits: list, total: list, total_sq: list) -> tuple:
    """``metric``'s estimates over ``n`` trials and their standard errors,
    two arrays with one entry per power, from its (scheme, user)'s sums."""
    if metric == "outage":
        value = [h / n for h in hits]
        return np.array(value), np.array([math.sqrt(p * (1.0 - p) / n) for p in value])
    value = [t / n for t in total]
    # mean**2, not the array square: CPython's float power calls the C
    # library's pow, which can round one ulp away from mean * mean
    variance = [
        max(0.0, (t2 - n * mean**2) / (n - 1)) if n > 1 else 0.0 for mean, t2 in zip(value, total_sq)
    ]
    return np.array(value), np.array([math.sqrt(v / n) for v in variance])
