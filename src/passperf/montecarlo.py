"""Independent Monte Carlo estimator for outage probability and average rate.

Every trial's random draws are addressed by (seed, trial index) through a
counter-based generator: one Philox counter tick supplies exactly the four
uniforms a placement consumes, so trial ranges can be recomputed or split
across workers without changing any value. Reductions are performed block
by block in index order, making partitioned runs bitwise identical to a
single sequential run as long as workers are assigned whole blocks.

``sinr`` is the package's one SINR formula. It recomputes SINRs from the
raw distance expressions on purpose, so the estimator stays independent of
the analytic modules it validates. ``mc_estimates`` draws each trial block
once and evaluates it at every requested power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, check_powers, derive_constants
from .geometry import NomaPlacement, WdmaPlacement, sample_noma, sample_wdma

TRIAL_BLOCK = 1 << 14  # reduction granularity; partition only at multiples
_LN2 = math.log(2.0)

SCHEMES = ("wdma", "noma")


@dataclass(frozen=True)
class McSpec:
    """What to simulate: trial count, stream seed, scheme, and user index."""

    trials: int
    seed: int
    scheme: str
    user: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.user not in (1, 2):
            raise ValueError(f"user must be 1 or 2, got {self.user!r}")


@dataclass(frozen=True)
class MetricEstimate:
    """A simulated metric value and its standard error."""

    value: float
    std_error: float
    trials: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error!r}")


def _trial_rng(seed: int, start: int) -> np.random.Generator:
    bit_gen = np.random.Philox(key=seed)
    bit_gen.advance(start)  # one counter tick == one trial's four uniforms
    return np.random.Generator(bit_gen)


def _draw(scheme: str, cfg: SystemConfig, seed: int, start: int, count: int):
    """Placements of trials [start, start + count) of ``scheme``."""
    rng = _trial_rng(seed, start)
    if scheme == "wdma":
        return sample_wdma(cfg, rng, size=count)
    if scheme == "noma":
        return sample_noma(cfg, rng, size=count)
    raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")


def sinr(
    scheme: str,
    user: int,
    cfg: SystemConfig,
    power_w: float,
    placement: WdmaPlacement | NomaPlacement,
):
    """Instantaneous SINR of ``user`` for each placement of ``scheme``.

    The WDMA users split ``power_w`` equally across their waveguides and
    interfere across them; the NOMA near user decodes after cancelling the
    far user's signal, and the far user decodes under the near user's.
    """
    check_powers(power_w)
    dc = derive_constants(cfg)
    centre = 0.5 * cfg.region_x_m
    h_sq = cfg.pa_height_m**2
    p = placement

    if scheme == "wdma":
        if user == 1:
            x_own, y_own, y_other, sigma2 = p.x_ue1, p.y_ue1, p.y_ue2, dc.noise_w_ue1
        else:
            x_own, y_own, y_other, sigma2 = p.x_ue2, p.y_ue2, p.y_ue1, dc.noise_w_ue2
        d_sig_sq = (x_own - centre) ** 2 + h_sq
        d_int_sq = (x_own - centre) ** 2 + (y_own - y_other) ** 2 + h_sq
        signal = 0.5 * power_w * dc.eta_m2 / d_sig_sq
        interference = 0.5 * power_w * dc.eta_m2 / d_int_sq
        return signal / (interference + sigma2)

    if scheme == "noma":
        if user == 1:
            d_sq = (p.x_near - centre) ** 2 + h_sq
            return dc.eta_m2 * cfg.noma_alpha_near * power_w / (dc.noise_w_ue1 * d_sq)
        d_sq = (p.x_far - centre) ** 2 + (p.y_near - p.y_far) ** 2 + h_sq
        return (
            dc.eta_m2
            * cfg.noma_alpha_far
            * power_w
            / (dc.eta_m2 * cfg.noma_alpha_near * power_w + dc.noise_w_ue2 * d_sq)
        )

    raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")


def sinr_trials(
    scheme: str,
    user: int,
    cfg: SystemConfig,
    power_w: float,
    seed: int,
    start: int,
    count: int,
) -> np.ndarray:
    """Instantaneous SINRs of trials [start, start + count).

    Deterministic in (seed, trial index): any contiguous range reproduces
    the same per-trial values as a slice of a longer run.
    """
    return sinr(scheme, user, cfg, power_w, _draw(scheme, cfg, seed, start, count))


def _blocks(trials: int):
    for start in range(0, trials, TRIAL_BLOCK):
        yield start, min(TRIAL_BLOCK, trials - start)


def mc_estimates(spec: McSpec, cfg: SystemConfig, powers) -> dict:
    """Outage and rate estimates of ``spec`` at every transmit power.

    Returns ``{"outage": [...], "rate": [...]}`` with one
    :class:`MetricEstimate` per power. Each trial block is drawn once and
    evaluated at every power (common random numbers), and each power's sums
    are folded in block order, so an estimate does not depend on which
    other powers share the call. The outage is the empirical probability
    that the SINR falls at or below the threshold; the rate is the sample
    mean of log2(1 + SINR).
    """
    powers = check_powers(list(powers)).tolist()
    gth = cfg.outage_threshold
    hits = [0] * len(powers)
    total = [0.0] * len(powers)
    total_sq = [0.0] * len(powers)
    for start, count in _blocks(spec.trials):
        placement = _draw(spec.scheme, cfg, spec.seed, start, count)
        for i, power_w in enumerate(powers):
            gamma = sinr(spec.scheme, spec.user, cfg, power_w, placement)
            hits[i] += int(np.count_nonzero(gamma <= gth))
            rate = np.log1p(gamma) / _LN2
            total[i] += float(np.sum(rate))
            total_sq[i] += float(np.sum(rate * rate))

    n = spec.trials
    outage, rate = [], []
    for i in range(len(powers)):
        p_hat = hits[i] / n
        outage.append(MetricEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n), n))
        mean = total[i] / n
        if n > 1:
            variance = max(0.0, (total_sq[i] - n * mean**2) / (n - 1))
        else:
            variance = 0.0
        rate.append(MetricEstimate(mean, math.sqrt(variance / n), n))
    return {"outage": outage, "rate": rate}
