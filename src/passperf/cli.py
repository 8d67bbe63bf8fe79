"""Batch command-line front end.

Subcommands: sweep (SNR grid to CSV), validate (analytic vs simulation),
crossover (scheme-comparison SNR search), asymptote (floors, ceilings,
thresholds), and mc (a single simulation estimate). Exit status: 0 on
success, 1 when validation failures are present, 2 on input errors and on
numerical failures (a non-finite quadrature integrand or search value).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from .config import SystemConfig, load_config, power_w_to_snr_db, snr_db_to_power_w
from .montecarlo import METRICS, SCHEMES, mc_cell_estimates
from .noma import noma_rate_far_ceiling, noma_zero_outage_thresholds
from .quadrature import IntegrationError
from .sweep import (
    CROSSOVER_METRICS,
    NumericalError,
    SweepSpec,
    find_crossover,
    run_sweep,
    snr_grid,
    validate,
    write_csv,
)
from .wdma import wdma_outage_floor, wdma_rate_ceiling

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_INPUT_ERROR = 2


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON system configuration")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")


def _quadrature_order(text: str) -> int:
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _nodes_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--nodes", type=_quadrature_order, default=64,
        help="quadrature order of the WDMA outage, the WDMA rate and its ceiling (default 64)",
    )


def _simulation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=SweepSpec.mc_seed, help="simulation seed")
    parser.add_argument("--trials", type=int, default=SweepSpec.mc_trials, help="simulation trials")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later :func:`main` call in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="passperf",
        description="Outage and rate analysis of two-user pinching-antenna downlinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate metrics over an SNR grid, emit CSV")
    _common_flags(p_sweep)
    _nodes_flag(p_sweep)
    _simulation_flags(p_sweep)
    p_sweep.add_argument("--start", type=float, default=SweepSpec.snr_db_start, help="grid start, dB")
    p_sweep.add_argument("--stop", type=float, default=SweepSpec.snr_db_stop, help="grid stop, dB")
    p_sweep.add_argument("--step", type=float, default=SweepSpec.snr_db_step, help="grid step, dB")
    p_sweep.add_argument("--schemes", default="wdma,noma", help="comma list from {wdma,noma}")
    p_sweep.add_argument("--metrics", default="outage,rate", help="comma list from {outage,rate}")
    p_sweep.add_argument("--mc", action="store_true", help="add simulation columns")
    p_sweep.add_argument("--asymptotes", action="store_true", help="add asymptote column")

    p_val = sub.add_parser("validate", help="check analytic values against simulation")
    _common_flags(p_val)
    _nodes_flag(p_val)
    _simulation_flags(p_val)
    p_val.add_argument("--start", type=float, default=SweepSpec.snr_db_start)
    p_val.add_argument("--stop", type=float, default=SweepSpec.snr_db_stop)
    p_val.add_argument("--step", type=float, default=10.0)
    p_val.add_argument("--sigma-tol", type=float, default=3.0, help="allowed standard errors")

    p_cross = sub.add_parser("crossover", help="search for a scheme crossover SNR")
    _common_flags(p_cross)
    _nodes_flag(p_cross)
    p_cross.add_argument("--metric", choices=CROSSOVER_METRICS, default="rate_sum")
    p_cross.add_argument("--lo", type=float, default=90.0, help="bracket low end, dB")
    p_cross.add_argument("--hi", type=float, default=150.0, help="bracket high end, dB")

    p_asym = sub.add_parser("asymptote", help="print floors, ceilings, and thresholds")
    _common_flags(p_asym)
    _nodes_flag(p_asym)

    p_mc = sub.add_parser("mc", help="one simulation estimate")
    _common_flags(p_mc)
    _simulation_flags(p_mc)
    p_mc.add_argument("--scheme", choices=SCHEMES, required=True)
    p_mc.add_argument("--user", type=int, choices=(1, 2), required=True)
    p_mc.add_argument("--metric", choices=METRICS, required=True)
    p_mc.add_argument("--snr-db", type=float, required=True)

    return parser


def _load(args) -> SystemConfig:
    if args.config is None:
        return SystemConfig()
    return load_config(args.config)


@contextlib.contextmanager
def _output(args):
    """The ``--out`` file, closed on exit, or stdout, left open."""
    if args.out is None:
        yield sys.stdout
        return
    with open(args.out, "w", encoding="utf-8", newline="") as out:
        yield out


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    spec = SweepSpec(
        snr_db_start=args.start,
        snr_db_stop=args.stop,
        snr_db_step=args.step,
        schemes=tuple(s for s in args.schemes.split(",") if s),
        metrics=tuple(m for m in args.metrics.split(",") if m),
        include_mc=args.mc,
        include_asymptotes=args.asymptotes,
        mc_trials=args.trials,
        mc_seed=args.seed,
    )
    table = run_sweep(spec, cfg, n_nodes=args.nodes)
    with _output(args) as out:
        write_csv(table, out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _load(args)
    spec = SweepSpec(snr_db_start=args.start, snr_db_stop=args.stop, snr_db_step=args.step)
    report = validate(
        cfg, snr_grid(spec), args.trials, args.seed, sigma_tol=args.sigma_tol, n_nodes=args.nodes
    )
    table = report.table
    z_scores = report.z_scores
    with _output(args) as out:
        for j, snr_db in enumerate(table.grid.tolist()):
            for k, (scheme, user, metric) in enumerate(table.keys):
                passed = report.within[k, j]
                print(
                    f"{'PASS' if passed else 'FAIL'} snr={snr_db:g} scheme={scheme} user={user} "
                    f"metric={metric} analytic={table.analytic[k, j]:.6g} "
                    f"mc={table.mc_value[k, j]:.6g} se={table.mc_std_error[k, j]:.3g}"
                    f"{'' if passed else f' z={z_scores[k, j]:.3g}'}",
                    file=out,
                )
        print(report.summary(), file=out)
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAILED


def _cmd_crossover(args) -> int:
    cfg = _load(args)
    snr = find_crossover(cfg, args.metric, (args.lo, args.hi), n_nodes=args.nodes)
    with _output(args) as out:
        print(f"metric,{args.metric}", file=out)
        print(f"crossover_snr_db,{'' if snr is None else repr(snr)}", file=out)
    return EXIT_OK


def _cmd_asymptote(args) -> int:
    cfg = _load(args)
    lines = [
        ("wdma_outage_floor", repr(wdma_outage_floor(cfg))),
        ("wdma_rate_ceiling_bits", repr(wdma_rate_ceiling(cfg, args.nodes))),
    ]
    for user, power_w in zip(("near", "far"), noma_zero_outage_thresholds(cfg)):
        try:
            snr_db = None if power_w is None else power_w_to_snr_db(cfg, power_w)
        except ValueError:
            raise ValueError(
                f"the noma {user}-user zero-outage power {power_w!r} W is out of float range "
                "with outage_threshold, noma_alpha_near, carrier_freq_hz, the noise powers "
                "and the lengths of this config"
            ) from None
        lines.append((f"noma_{user}_zero_outage_power_w", "" if power_w is None else repr(power_w)))
        lines.append((f"noma_{user}_zero_outage_snr_db", "" if snr_db is None else repr(snr_db)))
    lines.append(("noma_far_rate_ceiling_bits", repr(noma_rate_far_ceiling(cfg))))
    with _output(args) as out:
        print("quantity,value", file=out)
        for key, value in lines:
            print(f"{key},{value}", file=out)
    return EXIT_OK


def _cmd_mc(args) -> int:
    cfg = _load(args)
    power_w = snr_db_to_power_w(cfg, args.snr_db)
    key = (args.scheme, args.user, args.metric)
    value, std_error = mc_cell_estimates(args.trials, args.seed, [key], cfg, [power_w])
    with _output(args) as out:
        print("value,std_error,trials", file=out)
        print(f"{value[0, 0].item()!r},{std_error[0, 0].item()!r},{args.trials}", file=out)
    return EXIT_OK


_HANDLERS = {
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "crossover": _cmd_crossover,
    "asymptote": _cmd_asymptote,
    "mc": _cmd_mc,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT_ERROR
    try:
        return _HANDLERS[args.command](args)
    # ConfigError and json.JSONDecodeError are ValueErrors
    except (ValueError, NumericalError, IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
