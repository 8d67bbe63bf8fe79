"""Output checks for the passperf benchmark.

The checks read the CLI's output files with the standard library only, so
they stay independent of the package they judge. Two kinds of finding come
out of them:

* integrity problems (missing, malformed or unexpected rows), which make a
  run incorrect, and
* cell failures (a value that is not finite, outside its physical bounds,
  not monotone along the grid, or away from its Monte Carlo or recorded
  reference), which are counted per cell and reported as the failure
  fraction.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

CSV_HEADER = ["snr_db", "scheme", "user", "metric", "analytic", "asymptote", "mc_value", "mc_std_error"]
SWEEP_CELLS = (("noma", 1, "outage"), ("noma", 1, "rate"), ("noma", 2, "outage"),
               ("noma", 2, "rate"), ("wdma", 1, "outage"), ("wdma", 1, "rate"))
SIGMA_TOL = 3.0

# Slack, relative to the previous grid value, before a step against the
# expected direction counts. Rounding moves an O(1) value computed in a few
# dozen operations by a few ulps (~1e-15); the defects this check exists to
# catch move values by 1e-9 and more.
MONOTONE_RTOL = 1e-12

# find_crossover bisects until the bracket is at most tol_db = 0.01 dB wide and
# returns its midpoint, so each result lies within tol_db / 2 of the root it
# brackets. Two correct bisections of the same root (say, one that brackets
# on a grid first) can therefore differ by up to tol_db.
CROSSOVER_TOL_DB = 0.01


@dataclass
class CheckReport:
    checked: int = 0
    failures: list = field(default_factory=list)  # (cell, reason) pairs
    integrity: list = field(default_factory=list)  # reasons the output is unusable

    @property
    def failed(self) -> int:
        return len(self.failures)


def cell_tolerance(metric: str, analytic: float, mc_std_error: float) -> float:
    """Band for analytic vs simulation agreement.

    The same rule as ``passperf.sweep.cell_tolerance`` at 3 sigma: three
    standard errors, widened to 1% relative for rates. It is restated here
    so that the program under test cannot widen its own acceptance band.
    """
    band = SIGMA_TOL * mc_std_error
    if metric == "rate":
        band = max(band, 0.01 * abs(analytic))
    return band


def _number(text: str):
    return None if text == "" else float(text)


def parse_sweep(text: str, report: CheckReport) -> dict:
    """Map (snr_db, scheme, user, metric) to (analytic, asymptote, mc, se)."""
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != CSV_HEADER:
        report.integrity.append("sweep CSV header is missing or unexpected")
        return {}
    cells = {}
    for record in reader:
        try:
            key = (float(record[0]), record[1], int(record[2]), record[3])
            cells[key] = tuple(_number(v) for v in record[4:8])
        except (IndexError, ValueError):
            report.integrity.append(f"unparsable sweep row {record!r}")
            return {}
    return cells


def check_sweep(text: str, grid: list, noma_far_ceiling: float, report: CheckReport,
                mc_reference: dict | None = None) -> None:
    """Check one sweep CSV cell by cell.

    ``grid`` is the expected list of SNRs in dB; every cell of
    ``SWEEP_CELLS`` must be present at every grid point. Where
    ``mc_reference`` is given, it supplies the simulation value and
    standard error for each cell in place of the CSV's own columns.
    """
    cells = parse_sweep(text, report)
    if report.integrity:
        return
    expected = {(snr, *cell) for snr in grid for cell in SWEEP_CELLS}
    if set(cells) != expected:
        report.integrity.append(
            f"sweep has {len(cells)} cells, {len(set(cells) & expected)} of the "
            f"{len(expected)} expected"
        )
        return
    previous = {}
    for snr in grid:
        for scheme, user, metric in SWEEP_CELLS:
            key = (snr, scheme, user, metric)
            analytic, asymptote, mc_value, mc_se = cells[key]
            if mc_reference is not None:
                mc_value, mc_se = mc_reference[key]
            report.checked += 1
            reason = _cell_failure(scheme, user, metric, analytic, asymptote, mc_value, mc_se,
                                   previous.get((scheme, user, metric)), noma_far_ceiling)
            if reason:
                report.failures.append((key, reason))
            previous[(scheme, user, metric)] = analytic


def _cell_failure(scheme, user, metric, analytic, asymptote, mc_value, mc_se, before,
                  noma_far_ceiling):
    values = [v for v in (analytic, asymptote, mc_value, mc_se) if v is not None]
    if not all(math.isfinite(v) for v in values):
        return "not finite"
    if metric == "outage" and not 0.0 <= analytic <= 1.0:
        return "probability outside [0, 1]"
    if metric == "rate" and analytic < 0.0:
        return "negative rate"
    if scheme == "wdma" and metric == "rate" and asymptote is not None and analytic > asymptote:
        return "rate above the WDMA ceiling"
    if scheme == "noma" and user == 2 and metric == "rate" and analytic > noma_far_ceiling:
        return "rate above log2(1 + alpha_far / alpha_near)"
    if scheme == "wdma" and metric == "outage" and asymptote is not None and analytic < asymptote:
        return "outage below the WDMA floor"
    if before is not None:
        slack = MONOTONE_RTOL * abs(before)
        if metric == "rate" and analytic < before - slack:
            return "rate decreases along the grid"
        if metric == "outage" and analytic > before + slack:
            return "outage increases along the grid"
    if mc_value is not None and abs(analytic - mc_value) > cell_tolerance(metric, analytic, mc_se):
        return "analytic value outside the simulation band"
    return None


def read_mc_reference(text: str) -> dict:
    """Simulation columns of a recorded ``sweep --mc`` CSV, keyed by cell."""
    report = CheckReport()
    cells = parse_sweep(text, report)
    if report.integrity:
        raise ValueError(f"bad Monte Carlo reference: {report.integrity[0]}")
    return {key: (mc_value, mc_se) for key, (_, _, mc_value, mc_se) in cells.items()}


def check_crossover(text: str, label: str, reference, report: CheckReport) -> None:
    """Check one ``crossover`` output against its recorded SNR (None: no crossover)."""
    lines = text.splitlines()
    if len(lines) != 2 or not lines[1].startswith("crossover_snr_db,"):
        report.integrity.append(f"{label}: unexpected crossover output {text!r}")
        return
    field_text = lines[1].split(",", 1)[1]
    try:
        value = _number(field_text)
    except ValueError:
        report.integrity.append(f"{label}: unparsable crossover SNR {field_text!r}")
        return
    report.checked += 1
    if value is None or reference is None:
        if value is not reference:
            report.failures.append((label, f"crossover {value!r}, recorded {reference!r}"))
    elif not (math.isfinite(value) and abs(value - reference) <= CROSSOVER_TOL_DB):
        report.failures.append((label, f"crossover {value!r} dB, recorded {reference!r} dB"))
