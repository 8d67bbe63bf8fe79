"""SNR sweeps, analytic-vs-simulation validation, and crossover search.

A sweep produces a columnar table: the SNR grid, and per (scheme, user,
metric) its analytic values, its constant asymptote (outage floor or rate
ceiling) and optional simulation estimates. ``write_csv`` emits it in long
format, one line per grid point x scheme x user x metric. ``validate``
evaluates every cell of ``CELLS`` with simulation columns into the same
table, and bands each key's row by ``cell_tolerance``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .config import ConfigError, SystemConfig, derive_constants, snr_db_to_power_w
from .montecarlo import METRICS, SCHEMES, _check_trials_and_seed, mc_cell_estimates
from .noma import (
    noma_outage_far,
    noma_outage_near,
    noma_rate_far,
    noma_rate_far_ceiling,
    noma_rate_near,
    noma_zero_outage_thresholds,
)
from .wdma import wdma_avg_rate, wdma_outage, wdma_outage_floor, wdma_rate_ceiling

CSV_HEADER = ("snr_db", "scheme", "user", "metric", "analytic", "asymptote", "mc_value", "mc_std_error")


class Cell(NamedTuple):
    """One (scheme, user, metric) cell: its value over transmit powers and
    its high-SNR limit (None where the metric grows without bound)."""

    value: Callable  # (cfg, power_w, n_nodes) -> float or array
    limit: Callable | None  # (cfg, n_nodes) -> float


# Every analytic cell, in validation order. The entries look each metric up
# by its module-level name at call time, so a name rebound after import
# (a wrapper, a patch) is the one called. Sweeps, validate and find_crossover
# evaluate them through _cell_values, which does not call a user-2 WDMA entry
# (patched or not) when the two noise powers are equal.
CELLS = {
    ("wdma", 1, "outage"): Cell(
        lambda c, p, n: wdma_outage(c, p, n, user=1), lambda c, n: wdma_outage_floor(c)
    ),
    ("wdma", 1, "rate"): Cell(
        lambda c, p, n: wdma_avg_rate(c, p, n, user=1), lambda c, n: wdma_rate_ceiling(c, n)
    ),
    ("wdma", 2, "outage"): Cell(
        lambda c, p, n: wdma_outage(c, p, n, user=2), lambda c, n: wdma_outage_floor(c)
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
        lambda c, p, n: noma_rate_far(c, p), lambda c, n: noma_rate_far_ceiling(c)
    ),
}
# Sweeps always omit WDMA user 2 (validate and the metric functions report
# it); it differs from user 1 only through its noise power.
SWEEP_USERS = {"wdma": (1,), "noma": (1, 2)}
# SweepSpec rejects grids of more SNRs than this: a default sweep and its
# CSV writing peak at about 0.25 kB of RSS per SNR (measured in process on
# 2*10^4 and 10^5 SNRs), and a step mistyped by orders of magnitude would
# start building a list of up to ~1e300 SNRs and never return.
_MAX_GRID_POINTS = 10**6


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
        # a step too small for the grid gives an infinite or too large point count
        span = self.snr_db_stop - self.snr_db_start
        if not (self.snr_db_step > 0.0 and math.isfinite(span / self.snr_db_step)
                and _grid_count(self) <= _MAX_GRID_POINTS):
            raise ConfigError(
                f"snr_db_step must be > 0 and give at most {_MAX_GRID_POINTS} grid points, "
                f"got {self.snr_db_step!r}"
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
        _check_trials_and_seed(self.mc_trials, self.mc_seed, ("mc_trials", "mc_seed"))


class SweepTable(NamedTuple):
    """A sweep's values, column by column, as :func:`run_sweep` returns
    them and :func:`write_csv` writes them.

    Row k of ``analytic``, ``mc_value`` and ``mc_std_error`` and entry k of
    ``asymptotes`` belong to ``keys[k]``, and column j to ``grid[j]``.
    ``mc_value`` and ``mc_std_error`` are None without simulation columns.
    """

    grid: np.ndarray  # (n,) SNRs in dB
    keys: tuple  # (scheme, user, metric) per row
    analytic: np.ndarray  # (len(keys), n)
    asymptotes: tuple  # float, or None for no asymptote, per key
    mc_value: np.ndarray | None = None  # (len(keys), n)
    mc_std_error: np.ndarray | None = None  # (len(keys), n)


class SweepRow(NamedTuple):
    """One CSV line, as :func:`read_csv` returns it."""

    snr_db: float
    scheme: str
    user: int
    metric: str
    analytic: float
    asymptote: float | None = None
    mc_value: float | None = None
    mc_std_error: float | None = None


def _grid_count(spec: SweepSpec) -> int:
    return int(math.floor((spec.snr_db_stop - spec.snr_db_start) / spec.snr_db_step + 1e-9)) + 1


def snr_grid(spec: SweepSpec) -> list:
    """Inclusive dB grid start, start + step, ... up to stop."""
    return [spec.snr_db_start + i * spec.snr_db_step for i in range(_grid_count(spec))]


def _cell_values(cfg, keys, powers: np.ndarray, n_nodes: int) -> dict:
    """Each key of ``keys`` -> its ``CELLS`` value over ``powers``, one array
    call per distinct cell.

    The WDMA metrics see the user only through ``model.noise(user)``, so
    when the two noise powers are equal a user-2 WDMA key takes the user-1
    array of the same metric, which is the same computation bit for bit.
    """
    model = derive_constants(cfg)
    same_noise = model.noise_w_ue1 == model.noise_w_ue2
    computed = {}
    for key in keys:
        scheme, user, metric = key
        cell = ("wdma", 1, metric) if same_noise and (scheme, user) == ("wdma", 2) else key
        if cell not in computed:
            computed[cell] = CELLS[cell].value(cfg, powers, n_nodes)
        computed[key] = computed[cell]
    return {key: computed[key] for key in keys}


def _cells(cfg, grid_db, keys, asymptotes, n_nodes, mc=None) -> SweepTable:
    """The :class:`SweepTable` of ``keys``, with ``asymptotes``, over the
    SNRs of ``grid_db``.

    One ``snr_db_to_power_w`` call converts the grid. Each distinct cell of
    ``keys`` gets one call over the whole grid (:func:`_cell_values`); the
    metrics that build (powers x nodes) arrays evaluate their integrands in
    blocks of powers (``quadrature.integrate_rows``). With ``mc`` = (trials,
    seed) one ``mc_cell_estimates`` call covers every key over the whole
    grid, so each trial block is drawn once per run and WDMA and NOMA
    estimates are paired on the same drops.
    """
    grid = [float(snr_db) for snr_db in grid_db]
    powers = snr_db_to_power_w(cfg, grid)
    mc_value = mc_std_error = None
    if mc is not None:
        mc_value, mc_std_error = mc_cell_estimates(*mc, keys, cfg, powers)
    values = _cell_values(cfg, keys, np.array(powers), n_nodes)
    analytic = np.array([values[key] for key in keys])
    return SweepTable(np.array(grid), tuple(keys), analytic, tuple(asymptotes), mc_value, mc_std_error)


def run_sweep(spec: SweepSpec, cfg: SystemConfig, n_nodes: int = 64) -> SweepTable:
    """Fill every requested cell of the SNR grid: a :class:`SweepTable`.

    SNRs are transmit SNRs (see ``snr_db_to_power_w``). Each cell is one
    array call over the whole grid (see :func:`_cells`). The keys are taken
    in sorted order and the grid ascends, so :func:`write_csv` emits lines
    sorted by (snr_db, scheme, user, metric). The table holds only numeric
    columns, about 8 bytes per SNR and column.
    """
    keys = sorted(
        (scheme, user, metric)
        for scheme in spec.schemes
        for user in SWEEP_USERS[scheme]
        for metric in spec.metrics
    )
    limits = [CELLS[key].limit if spec.include_asymptotes else None for key in keys]
    asymptotes = [None if limit is None else limit(cfg, n_nodes) for limit in limits]
    mc = (spec.mc_trials, spec.mc_seed) if spec.include_mc else None
    return _cells(cfg, snr_grid(spec), keys, asymptotes, n_nodes, mc)


def _parse_cell(text: str) -> float | None:
    return None if text == "" else float(text)


# SNRs that write_csv formats per fileobj.write, which bounds the text held
# at once to that many grid points whatever the grid's length
_WRITE_CHUNK = 2048


def write_csv(table: SweepTable, fileobj) -> None:
    """Write ``table`` under ``CSV_HEADER``: one line per (SNR, key), SNR
    outermost, keys in table order.

    Lines are joined directly, not through ``csv.writer``: no field can
    need quoting (floats are written with ``repr``, None as an empty field,
    the scheme and metric names and the user index are fixed words and
    digits). Formatting goes column by column: each key's head and
    asymptote text is made once, and each SNR and each value is formatted
    once, from its own float, so 0.0 and -0.0 keep their signs. The text is
    written ``_WRITE_CHUNK`` SNRs at a time.
    """
    fileobj.write(",".join(CSV_HEADER) + "\n")
    n_keys = len(table.keys)
    heads = [f",{scheme},{user},{metric}," for scheme, user, metric in table.keys]
    tails = [f",{'' if asymptote is None else repr(asymptote)}," for asymptote in table.asymptotes]
    for start in range(0, len(table.grid), _WRITE_CHUNK):
        chunk = slice(start, start + _WRITE_CHUNK)
        snrs = list(map(repr, table.grid[chunk].tolist()))
        lines = [""] * (len(snrs) * n_keys)
        for k, (head, tail) in enumerate(zip(heads, tails)):
            values = map(repr, table.analytic[k, chunk].tolist())
            if table.mc_value is None:
                estimates = repeat(",")
            else:
                columns = (table.mc_value[k, chunk].tolist(), table.mc_std_error[k, chunk].tolist())
                estimates = map("{!r},{!r}".format, *columns)
            lines[k::n_keys] = [
                f"{snr}{head}{value}{tail}{estimate}\n"
                for snr, value, estimate in zip(snrs, values, estimates)
            ]
        fileobj.write("".join(lines))


def to_csv_text(table: SweepTable) -> str:
    buf = io.StringIO()
    write_csv(table, buf)
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


# Crossover metric -> (cells added, cells subtracted).
CROSSOVER_METRICS = {
    "rate_sum": (
        (("noma", 1, "rate"), ("noma", 2, "rate")),
        (("wdma", 1, "rate"), ("wdma", 2, "rate")),
    ),
    "outage_ue": ((("noma", 2, "outage"),), (("wdma", 1, "outage"),)),
}
# find_crossover narrows its bracket until it is at most this wide, in dB.
CROSSOVER_TOL_DB = 0.01


def find_crossover(
    cfg: SystemConfig,
    metric: str,
    bracket_db: tuple,
    n_nodes: int = 64,
) -> float | None:
    """The SNR where the scheme difference changes sign.

    ``rate_sum`` compares the NOMA sum rate against the WDMA sum rate (both
    users each); ``outage_ue`` compares the NOMA far-user outage against the
    WDMA user-1 outage. Returns the midpoint of a final bracket at most
    ``CROSSOVER_TOL_DB`` wide across which the difference changes sign, so
    within ``CROSSOVER_TOL_DB / 2`` of a root; None when the ends of
    ``bracket_db`` do not have strictly opposite signs.

    Each step is one array call per cell (:func:`_cell_values`). The first
    evaluates the bracket ends and 15 evenly spaced points between them
    (only the ends if the bracket is at most ``CROSSOVER_TOL_DB`` wide),
    and brackets the lowest interval whose far end has the high end's sign;
    an exact zero counts with the low end. Each later call evaluates 15
    evenly spaced points of the current bracket, its secant root r and the
    points r +- 2^k ``CROSSOVER_TOL_DB`` / 4 closer to r than that spacing,
    and the first of them with the high end's sign closes the new bracket.
    So a bracket shrinks at least 16-fold per call, and a bracket W dB wide
    takes at most 1 + ceil(log16(W / (16 ``CROSSOVER_TOL_DB``))) calls (4
    for 100 dB); the secant often saves one. A non-finite difference at any
    evaluated SNR raises :class:`NumericalError`.
    """
    if metric not in CROSSOVER_METRICS:
        raise ConfigError(f"metric must be one of {tuple(CROSSOVER_METRICS)}, got {metric!r}")
    lo, hi = float(bracket_db[0]), float(bracket_db[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"bracket_db ends must be finite, got {bracket_db!r}")
    if not hi > lo:
        raise ConfigError(f"bracket width must be > 0, got {bracket_db!r}")
    added, subtracted = CROSSOVER_METRICS[metric]

    def differences(grid_db: list) -> list:
        powers = np.array(snr_db_to_power_w(cfg, grid_db))
        values = _cell_values(cfg, added + subtracted, powers, n_nodes)
        value = sum(values[key] for key in added) - sum(values[key] for key in subtracted)
        bad = np.flatnonzero(~np.isfinite(value))
        if bad.size:
            raise NumericalError(f"{metric} difference not finite at {grid_db[bad[0]]} dB")
        return value.tolist()

    grid = [lo, hi] if hi - lo <= CROSSOVER_TOL_DB else np.linspace(lo, hi, 17).tolist()
    values = differences(grid)
    # A crossover needs strictly opposite signs at the bracket ends. An
    # exactly zero difference (e.g. both outage probabilities saturated at
    # one on a low-SNR plateau) carries no sign information and yields None;
    # pick a bracket whose ends sit outside such plateaus.
    s_hi = (values[-1] > 0.0) - (values[-1] < 0.0)
    if s_hi == 0 or s_hi * values[0] >= 0.0:
        return None
    while True:
        i = next(i for i, value in enumerate(values) if s_hi * value > 0.0)
        (a, b), (fa, fb) = grid[i - 1 : i + 1], values[i - 1 : i + 1]
        if b - a <= CROSSOVER_TOL_DB:
            return 0.5 * (a + b)
        root = a + (b - a) * (fa / (fa - fb))
        window, step = {root, *np.linspace(a, b, 17)[1:-1].tolist()}, 0.25 * CROSSOVER_TOL_DB
        while step < (b - a) / 16.0:
            window.update((root - step, root + step))
            step *= 2.0
        window = sorted(snr_db for snr_db in window if a < snr_db < b)
        grid, values = [a, *window, b], [fa, *differences(window), fb]


class ValidationReport(NamedTuple):
    """What :func:`validate` found: the :class:`SweepTable` it evaluated,
    simulation columns included, and two arrays shaped like
    ``table.analytic``: each cell's acceptance band (:func:`cell_tolerance`)
    and whether the analytic value lies within it."""

    table: SweepTable
    tolerance: np.ndarray  # (len(table.keys), len(table.grid))
    within: np.ndarray  # bool, (len(table.keys), len(table.grid))
    sigma_tol: float

    @property
    def passed(self) -> bool:
        return bool(self.within.all())

    @property
    def z_scores(self) -> np.ndarray:
        """(analytic - mc_value) / mc_std_error per cell, shaped like
        ``tolerance``: +-inf where the standard error is 0 and the values
        differ, NaN where they agree."""
        table = self.table
        with np.errstate(divide="ignore", invalid="ignore"):
            return (table.analytic - table.mc_value) / table.mc_std_error

    def summary(self) -> str:
        n_fail = self.within.size - int(np.count_nonzero(self.within))
        return (
            f"{self.within.size - n_fail}/{self.within.size} cells within "
            f"{self.sigma_tol} sigma ({'PASS' if n_fail == 0 else f'{n_fail} FAIL'})"
        )


def cell_tolerance(metric: str, analytic, mc_value, mc_std_error, sigma_tol: float, trials: int):
    """Acceptance band of one key's cells, elementwise over its values
    (scalars or arrays): ``sigma_tol`` standard errors of the simulation
    estimate, widened to 1% relative for rates. An outage estimate of
    exactly 0 or 1 (every trial agreed) has a standard error of 0; it takes
    the binomial standard error at the analytic value,
    sqrt(a (1 - a) / trials), instead; an analytic value outside [0, 1]
    gets a zero band there."""
    if metric == "rate":
        return np.maximum(sigma_tol * mc_std_error, 0.01 * np.abs(analytic))
    unanimous = (mc_value == 0.0) | (mc_value == 1.0)
    binomial = np.sqrt(np.maximum(analytic * (1.0 - analytic), 0.0) / trials)
    return sigma_tol * np.where(unanimous, binomial, mc_std_error)


def validate(
    cfg: SystemConfig,
    grid_db,
    trials: int,
    seed: int,
    sigma_tol: float = 3.0,
    n_nodes: int = 64,
) -> ValidationReport:
    """Check every analytic cell against its simulation estimate at each SNR
    of ``grid_db``, which must hold at least one.

    ``trials`` and ``seed`` are checked by ``mc_cell_estimates``, which runs
    before any analytic cell is evaluated.
    """
    if not (math.isfinite(sigma_tol) and sigma_tol > 0.0):
        raise ConfigError(f"sigma_tol must be finite and > 0, got {sigma_tol!r}")
    grid_db = list(grid_db)
    if not grid_db:
        raise ConfigError("grid_db must hold at least one SNR")
    table = _cells(cfg, grid_db, tuple(CELLS), (None,) * len(CELLS), n_nodes, (trials, seed))
    rows = zip(table.keys, table.analytic, table.mc_value, table.mc_std_error)
    tolerance = np.array(
        [cell_tolerance(metric, *row, sigma_tol, trials) for (_, _, metric), *row in rows]
    )
    within = np.abs(table.analytic - table.mc_value) <= tolerance
    return ValidationReport(table, tolerance, within, sigma_tol)


def omega_one(cfg: SystemConfig | None = None) -> SystemConfig:
    """Compact deployment: 10 m deep sub-regions adjacent to the axis."""
    base = cfg if cfg is not None else SystemConfig()
    return replace(base, region_y_m=10.0, region_y_offset_m=0.0)


def omega_two(cfg: SystemConfig | None = None) -> SystemConfig:
    """Dispersed deployment: 10 m deep sub-regions offset 10 m from the axis."""
    base = cfg if cfg is not None else SystemConfig()
    return replace(base, region_y_m=10.0, region_y_offset_m=10.0)
