"""Batch command-line front end.

Subcommands: sweep (SNR grid to CSV), validate (analytic vs simulation),
crossover (scheme-comparison SNR search), asymptote (floors, ceilings,
thresholds), and mc (a single simulation estimate). Exit status: 0 on
success, 1 when validation failures are present, 2 on input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .config import (
    SystemConfig,
    load_config,
    noise_w,
    power_w_to_snr_db,
    snr_db_to_power_w,
)
from .montecarlo import McSpec, mc_estimates
from .noma import noma_rate_far_ceiling, noma_zero_outage_thresholds
from .sweep import (
    CROSSOVER_METRICS,
    METRICS,
    SCHEMES,
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
        "--nodes", type=_quadrature_order, default=64, help="quadrature order (default 64)"
    )


def _simulation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=12345, help="simulation seed")
    parser.add_argument("--trials", type=int, default=100_000, help="simulation trials")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passperf",
        description="Outage and rate analysis of two-user pinching-antenna downlinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate metrics over an SNR grid, emit CSV")
    _common_flags(p_sweep)
    _nodes_flag(p_sweep)
    _simulation_flags(p_sweep)
    p_sweep.add_argument("--start", type=float, default=90.0, help="grid start, dB")
    p_sweep.add_argument("--stop", type=float, default=150.0, help="grid stop, dB")
    p_sweep.add_argument("--step", type=float, default=2.0, help="grid step, dB")
    p_sweep.add_argument("--schemes", default="wdma,noma", help="comma list from {wdma,noma}")
    p_sweep.add_argument("--metrics", default="outage,rate", help="comma list from {outage,rate}")
    p_sweep.add_argument("--mc", action="store_true", help="add simulation columns")
    p_sweep.add_argument("--asymptotes", action="store_true", help="add asymptote column")

    p_val = sub.add_parser("validate", help="check analytic values against simulation")
    _common_flags(p_val)
    _nodes_flag(p_val)
    _simulation_flags(p_val)
    p_val.add_argument("--start", type=float, default=90.0)
    p_val.add_argument("--stop", type=float, default=150.0)
    p_val.add_argument("--step", type=float, default=10.0)
    p_val.add_argument("--sigma-tol", type=float, default=3.0, help="allowed standard errors")

    p_cross = sub.add_parser("crossover", help="bisect for a scheme crossover SNR")
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
    rows = run_sweep(spec, cfg, n_nodes=args.nodes)
    with _output(args) as out:
        write_csv(rows, out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _load(args)
    spec = SweepSpec(snr_db_start=args.start, snr_db_stop=args.stop, snr_db_step=args.step)
    report = validate(
        cfg, snr_grid(spec), args.trials, args.seed, sigma_tol=args.sigma_tol, n_nodes=args.nodes
    )
    with _output(args) as out:
        for cell in report.cells:
            status = "PASS" if cell.passed else "FAIL"
            print(
                f"{status} snr={cell.snr_db:g} scheme={cell.scheme} user={cell.user} "
                f"metric={cell.metric} analytic={cell.analytic:.6g} "
                f"mc={cell.mc_value:.6g} se={cell.mc_std_error:.3g}",
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
    reference_noise = noise_w(cfg, 1)
    near_w, far_w = noma_zero_outage_thresholds(cfg)
    lines = [
        ("wdma_outage_floor", repr(wdma_outage_floor(cfg, args.nodes))),
        ("wdma_rate_ceiling_bits", repr(wdma_rate_ceiling(cfg, args.nodes))),
        ("noma_near_zero_outage_power_w", repr(near_w)),
        ("noma_near_zero_outage_snr_db", repr(power_w_to_snr_db(near_w, reference_noise))),
        ("noma_far_zero_outage_power_w", "" if far_w is None else repr(far_w)),
        (
            "noma_far_zero_outage_snr_db",
            "" if far_w is None else repr(power_w_to_snr_db(far_w, reference_noise)),
        ),
        ("noma_far_rate_ceiling_bits", repr(noma_rate_far_ceiling(cfg))),
    ]
    with _output(args) as out:
        print("quantity,value", file=out)
        for key, value in lines:
            print(f"{key},{value}", file=out)
    return EXIT_OK


def _cmd_mc(args) -> int:
    cfg = _load(args)
    power_w = snr_db_to_power_w(args.snr_db, noise_w(cfg, 1))
    spec = McSpec(args.trials, args.seed, args.scheme, args.user)
    est = mc_estimates(spec, cfg, [power_w])[args.metric][0]
    with _output(args) as out:
        print("value,std_error,trials", file=out)
        print(f"{est.value!r},{est.std_error!r},{est.trials}", file=out)
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
    except (ValueError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
