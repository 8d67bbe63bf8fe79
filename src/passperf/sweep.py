"""SNR sweeps, analytic-vs-simulation validation, and crossover search.

Produces long-format rows (one per grid point x scheme x user x metric)
ready for CSV emission, with optional simulation estimates and constant
asymptote columns (outage floors, rate ceilings).
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .config import ConfigError, SystemConfig, noise_w, snr_db_to_power_w
from .montecarlo import SCHEMES, mc_scheme_estimates
from .noma import (
    noma_outage_far,
    noma_outage_near,
    noma_rate_far,
    noma_rate_far_ceiling,
    noma_rate_near,
    noma_zero_outage_thresholds,
)
from .wdma import wdma_avg_rate, wdma_outage, wdma_outage_floor, wdma_rate_ceiling

METRICS = ("outage", "rate")
# Powers per analytic call in a sweep: each (scheme, user, metric) cell is
# evaluated over blocks of this many grid powers at once, which keeps the
# (powers x nodes) arrays of one call small.
POWER_BLOCK = 16
CSV_HEADER = ("snr_db", "scheme", "user", "metric", "analytic", "asymptote", "mc_value", "mc_std_error")


class Cell(NamedTuple):
    """One (scheme, user, metric) cell: its value over transmit powers and
    its high-SNR limit (None where the metric grows without bound)."""

    value: Callable  # (cfg, power_w, n_nodes) -> float or array
    limit: Callable | None  # (cfg, n_nodes) -> float


# Every analytic cell, in validation order. The entries look each metric up
# by its module-level name at call time, so a name rebound after import
# (a wrapper, a patch) is the one called.
CELLS = {
    ("wdma", 1, "outage"): Cell(
        lambda c, p, n: wdma_outage(c, p, n, user=1), lambda c, n: wdma_outage_floor(c, n)
    ),
    ("wdma", 1, "rate"): Cell(
        lambda c, p, n: wdma_avg_rate(c, p, n, user=1), lambda c, n: wdma_rate_ceiling(c, n)
    ),
    ("wdma", 2, "outage"): Cell(
        lambda c, p, n: wdma_outage(c, p, n, user=2), lambda c, n: wdma_outage_floor(c, n)
    ),
    ("wdma", 2, "rate"): Cell(
        lambda c, p, n: wdma_avg_rate(c, p, n, user=2), lambda c, n: wdma_rate_ceiling(c, n)
    ),
    ("noma", 1, "outage"): Cell(lambda c, p, n: noma_outage_near(c, p), lambda c, n: 0.0),
    ("noma", 1, "rate"): Cell(lambda c, p, n: noma_rate_near(c, p), None),
    ("noma", 2, "outage"): Cell(
        lambda c, p, n: noma_outage_far(c, p),
        # zero beyond the far user's threshold, one where no power reaches it
        lambda c, n: 1.0 if noma_zero_outage_thresholds(c)[1] is None else 0.0,
    ),
    ("noma", 2, "rate"): Cell(
        lambda c, p, n: noma_rate_far(c, p, n), lambda c, n: noma_rate_far_ceiling(c)
    ),
}
# The two per-waveguide users are symmetric (indices swapped), so sweeps
# report user 1 for wdma; the noma users are genuinely distinct.
SWEEP_USERS = {"wdma": (1,), "noma": (1, 2)}


class NumericalError(RuntimeError):
    """A metric evaluated to a non-finite value during a search."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid and column selection for one sweep run."""

    snr_db_start: float = 90.0
    snr_db_stop: float = 150.0
    snr_db_step: float = 2.0
    schemes: tuple = SCHEMES
    metrics: tuple = METRICS
    include_mc: bool = False
    include_asymptotes: bool = False
    mc_trials: int = 100_000
    mc_seed: int = 12345

    def __post_init__(self):
        for name in ("snr_db_start", "snr_db_stop", "snr_db_step"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        # a step too small for the grid gives an infinite point count
        span = self.snr_db_stop - self.snr_db_start
        if not (self.snr_db_step > 0.0 and math.isfinite(span / self.snr_db_step)):
            raise ConfigError(
                f"snr_db_step must be > 0 and give a finite point count, got {self.snr_db_step!r}"
            )
        if self.snr_db_start > self.snr_db_stop:
            raise ConfigError(
                f"snr_db_start must be <= snr_db_stop, got "
                f"({self.snr_db_start!r}, {self.snr_db_stop!r})"
            )
        for name, known in (("schemes", SCHEMES), ("metrics", METRICS)):
            entries = getattr(self, name)
            if not entries:
                raise ConfigError(f"{name} must name at least one entry")
            unknown = sorted(set(entries) - set(known))
            if unknown:
                raise ConfigError(f"{name} contains unknown entries: {unknown}")
            if len(set(entries)) != len(entries):
                raise ConfigError(f"{name} contains duplicate entries: {list(entries)}")
        for name in ("mc_trials", "mc_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.mc_trials < 1:
            raise ConfigError(f"mc_trials must be >= 1, got {self.mc_trials!r}")
        if not 0 <= self.mc_seed < 2**64:
            raise ConfigError(f"mc_seed must be an unsigned 64-bit integer, got {self.mc_seed!r}")


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    scheme: str
    user: int
    metric: str
    analytic: float
    asymptote: float | None = None
    mc_value: float | None = None
    mc_std_error: float | None = None


def snr_grid(spec: SweepSpec) -> list:
    """Inclusive dB grid start, start + step, ... up to stop."""
    count = int(math.floor((spec.snr_db_stop - spec.snr_db_start) / spec.snr_db_step + 1e-9)) + 1
    return [spec.snr_db_start + i * spec.snr_db_step for i in range(count)]


def _cells(cfg, grid_db, keys, n_nodes, mc_trials=None, mc_seed=None):
    """Yield (snr_db, scheme, user, metric, analytic, estimate) per cell, SNR outermost.

    Transmit SNR is referenced to the user-1 noise power. Each
    (scheme, user, metric) key of ``CELLS`` gets one call per block of
    ``POWER_BLOCK`` grid powers. With ``mc_trials`` each scheme gets one
    ``mc_scheme_estimates`` call over the whole grid for all its users;
    otherwise ``estimate`` is None.
    """
    reference_noise = noise_w(cfg, 1)
    grid = [float(snr_db) for snr_db in grid_db]
    powers = [snr_db_to_power_w(snr_db, reference_noise) for snr_db in grid]
    estimates = {}
    if mc_trials is not None:
        for scheme in dict.fromkeys(scheme for scheme, _, _ in keys):
            users = list(dict.fromkeys(user for s, user, _ in keys if s == scheme))
            by_user = mc_scheme_estimates(mc_trials, mc_seed, scheme, users, cfg, powers)
            for user, est in by_user.items():
                estimates[(scheme, user)] = est
    for first in range(0, len(grid), POWER_BLOCK):
        block = np.array(powers[first : first + POWER_BLOCK])
        analytic = {key: CELLS[key].value(cfg, block, n_nodes).tolist() for key in keys}
        for j, snr_db in enumerate(grid[first : first + POWER_BLOCK]):
            for key in keys:
                scheme, user, metric = key
                est = estimates[(scheme, user)][metric][first + j] if estimates else None
                yield snr_db, scheme, user, metric, analytic[key][j], est


def run_sweep(spec: SweepSpec, cfg: SystemConfig, n_nodes: int = 64) -> list:
    """Fill every requested cell of the SNR grid: a list of :class:`SweepRow`.

    Transmit SNR is referenced to the user-1 noise power. Rows come out
    sorted by (snr_db, scheme, user, metric).
    """
    keys = [
        (scheme, user, metric)
        for scheme in spec.schemes
        for user in SWEEP_USERS[scheme]
        for metric in spec.metrics
    ]
    asymptotes = {}
    if spec.include_asymptotes:
        for key in keys:
            limit = CELLS[key].limit
            asymptotes[key] = None if limit is None else limit(cfg, n_nodes)
    mc_trials = spec.mc_trials if spec.include_mc else None
    rows = []
    for snr_db, scheme, user, metric, analytic, est in _cells(
        cfg, snr_grid(spec), keys, n_nodes, mc_trials, spec.mc_seed
    ):
        rows.append(
            SweepRow(
                snr_db=snr_db,
                scheme=scheme,
                user=user,
                metric=metric,
                analytic=analytic,
                asymptote=asymptotes.get((scheme, user, metric)),
                mc_value=None if est is None else est.value,
                mc_std_error=None if est is None else est.std_error,
            )
        )
    rows.sort(key=lambda r: (r.snr_db, r.scheme, r.user, r.metric))
    return rows


def _format_cell(value) -> str:
    return "" if value is None else repr(value)


def _parse_cell(text: str) -> float | None:
    return None if text == "" else float(text)


def write_csv(rows: list, fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                repr(row.snr_db),
                row.scheme,
                str(row.user),
                row.metric,
                _format_cell(row.analytic),
                _format_cell(row.asymptote),
                _format_cell(row.mc_value),
                _format_cell(row.mc_std_error),
            ]
        )


def to_csv_text(rows: list) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


def read_csv(fileobj) -> list:
    reader = csv.reader(fileobj)
    header = next(reader)
    if tuple(header) != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header: {header!r}")
    rows = []
    for record in reader:
        rows.append(
            SweepRow(
                snr_db=float(record[0]),
                scheme=record[1],
                user=int(record[2]),
                metric=record[3],
                analytic=float(record[4]),
                asymptote=_parse_cell(record[5]),
                mc_value=_parse_cell(record[6]),
                mc_std_error=_parse_cell(record[7]),
            )
        )
    return rows


# Crossover metric -> (cells added, cells subtracted), summed in this order.
CROSSOVER_METRICS = {
    "rate_sum": (
        (("noma", 1, "rate"), ("noma", 2, "rate")),
        (("wdma", 1, "rate"), ("wdma", 2, "rate")),
    ),
    "outage_ue": ((("noma", 2, "outage"),), (("wdma", 1, "outage"),)),
}


def find_crossover(
    cfg: SystemConfig,
    metric: str,
    bracket_db: tuple,
    n_nodes: int = 64,
    tol_db: float = 0.01,
) -> float | None:
    """Bisect for the SNR where the scheme difference changes sign.

    ``rate_sum`` compares the NOMA sum rate against the WDMA sum rate (both
    users each); ``outage_ue`` compares the NOMA far-user outage against the
    WDMA user-1 outage. Returns None when the difference has one sign over
    the whole bracket.
    """
    if metric not in CROSSOVER_METRICS:
        raise ConfigError(f"metric must be one of {tuple(CROSSOVER_METRICS)}, got {metric!r}")
    lo, hi = float(bracket_db[0]), float(bracket_db[1])
    if not hi > lo:
        raise ConfigError(f"bracket width must be > 0, got {bracket_db!r}")
    reference_noise = noise_w(cfg, 1)
    added, subtracted = CROSSOVER_METRICS[metric]

    def difference(snr_db: float) -> float:
        power_w = snr_db_to_power_w(snr_db, reference_noise)
        value = 0.0
        for key in added:
            value += CELLS[key].value(cfg, power_w, n_nodes)
        for key in subtracted:
            value -= CELLS[key].value(cfg, power_w, n_nodes)
        if not math.isfinite(value):
            raise NumericalError(f"{metric} difference not finite at {snr_db} dB")
        return value

    def sign(value: float) -> int:
        return (value > 0.0) - (value < 0.0)

    # A crossover needs strictly opposite signs at the bracket ends. An
    # exactly zero difference (e.g. both outage probabilities saturated at
    # one on a low-SNR plateau) carries no sign information and yields None;
    # pick a bracket whose ends sit outside such plateaus.
    s_lo = sign(difference(lo))
    s_hi = sign(difference(hi))
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        return None
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if sign(difference(mid)) == s_hi:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ValidationCell:
    scheme: str
    user: int
    metric: str
    snr_db: float
    analytic: float
    mc_value: float
    mc_std_error: float
    tolerance: float
    passed: bool


@dataclass
class ValidationReport:
    cells: list
    sigma_tol: float

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    @property
    def failures(self) -> list:
        return [cell for cell in self.cells if not cell.passed]

    def summary(self) -> str:
        n_fail = len(self.failures)
        return (
            f"{len(self.cells) - n_fail}/{len(self.cells)} cells within "
            f"{self.sigma_tol} sigma ({'PASS' if n_fail == 0 else f'{n_fail} FAIL'})"
        )


def cell_tolerance(metric: str, analytic: float, mc_std_error: float, sigma_tol: float) -> float:
    """Acceptance band: sigma_tol standard errors, widened to 1% relative for rates."""
    band = sigma_tol * mc_std_error
    if metric == "rate":
        band = max(band, 0.01 * abs(analytic))
    return band


def validate(
    cfg: SystemConfig,
    grid_db,
    trials: int,
    seed: int,
    sigma_tol: float = 3.0,
    n_nodes: int = 64,
) -> ValidationReport:
    """Check every analytic cell against its simulation estimate."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials!r}")
    if not (math.isfinite(sigma_tol) and sigma_tol > 0.0):
        raise ConfigError(f"sigma_tol must be finite and > 0, got {sigma_tol!r}")
    cells = []
    for snr_db, scheme, user, metric, analytic, est in _cells(
        cfg, grid_db, tuple(CELLS), n_nodes, trials, seed
    ):
        tolerance = cell_tolerance(metric, analytic, est.std_error, sigma_tol)
        cells.append(
            ValidationCell(
                scheme=scheme,
                user=user,
                metric=metric,
                snr_db=snr_db,
                analytic=analytic,
                mc_value=est.value,
                mc_std_error=est.std_error,
                tolerance=tolerance,
                passed=abs(analytic - est.value) <= tolerance,
            )
        )
    return ValidationReport(cells=cells, sigma_tol=sigma_tol)


def omega_one(cfg: SystemConfig | None = None) -> SystemConfig:
    """Compact deployment: 10 m deep sub-regions adjacent to the axis."""
    base = cfg if cfg is not None else SystemConfig()
    return replace(base, region_y_m=10.0, region_y_offset_m=0.0)


def omega_two(cfg: SystemConfig | None = None) -> SystemConfig:
    """Dispersed deployment: 10 m deep sub-regions offset 10 m from the axis."""
    base = cfg if cfg is not None else SystemConfig()
    return replace(base, region_y_m=10.0, region_y_offset_m=10.0)
