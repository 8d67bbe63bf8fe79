#!/usr/bin/env python3
"""Reproduce the three SNR-sweep experiments as plot-ready CSV files.

Writes one long-format CSV per configuration into --outdir:

  heights:    baseline geometry at antenna heights 3 m and 6 m
  regions:    compact (adjacent 10 m sub-regions) vs dispersed (offset 10 m)
  power split: NOMA allocation (0.05, 0.95) vs (0.2, 0.8)

Every file carries analytic, asymptote, and Monte Carlo columns; crossover
SNRs for the power-split comparison are printed to stdout. Bad flag values
exit with status 2 before any file is written.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from passperf import ConfigError, SystemConfig, SweepSpec, find_crossover, run_sweep, write_csv
from passperf.cli import _nodes_flag, _simulation_flags
from passperf.sweep import omega_one, omega_two

# SweepSpec field -> the flag that sets it, so that errors name the flag
SPEC_FLAGS = {
    "snr_db_start": "--start",
    "snr_db_stop": "--stop",
    "snr_db_step": "--step",
    "mc_trials": "--trials",
    "mc_seed": "--seed",
}


def write_result(tag, table, outdir):
    path = outdir / f"{tag}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(table, fh)
    print(f"wrote {path} ({len(table.grid) * len(table.keys)} rows)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    _simulation_flags(parser)
    _nodes_flag(parser)
    parser.add_argument("--start", type=float, default=SweepSpec.snr_db_start)
    parser.add_argument("--stop", type=float, default=SweepSpec.snr_db_stop)
    parser.add_argument("--step", type=float, default=SweepSpec.snr_db_step)
    args = parser.parse_args()
    try:
        spec = SweepSpec(
            snr_db_start=args.start,
            snr_db_stop=args.stop,
            snr_db_step=args.step,
            include_mc=True,
            include_asymptotes=True,
            mc_trials=args.trials,
            mc_seed=args.seed,
        )
    except ConfigError as exc:
        message = str(exc)
        for field, flag in SPEC_FLAGS.items():
            message = message.replace(field, flag)
        parser.error(message)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def sweep(cfg):
        return run_sweep(spec, cfg, n_nodes=args.nodes)

    # the baseline is both the 3 m height and the (0.05, 0.95) power split
    baseline = SystemConfig()
    baseline_table = sweep(baseline)
    write_result("height_3m", baseline_table, outdir)
    write_result("height_6m", sweep(replace(baseline, pa_height_m=6.0)), outdir)

    write_result("regions_compact", sweep(omega_one()), outdir)
    write_result("regions_dispersed", sweep(omega_two()), outdir)

    split_low = baseline
    split_high = replace(baseline, noma_alpha_near=0.2, noma_alpha_far=0.8)
    write_result("alpha_near_0.05", baseline_table, outdir)
    write_result("alpha_near_0.2", sweep(split_high), outdir)

    rate_bracket = (60.0, 160.0)
    outage_bracket = (90.0, 160.0)  # below ~85 dB both outage curves saturate at 1
    for tag, cfg in (("alpha_near=0.05", split_low), ("alpha_near=0.2", split_high)):
        rate_x = find_crossover(cfg, "rate_sum", rate_bracket, n_nodes=args.nodes)
        outage_x = find_crossover(cfg, "outage_ue", outage_bracket, n_nodes=args.nodes)
        print(
            f"{tag}: sum-rate crossover = "
            f"{'none' if rate_x is None else f'{rate_x:.2f} dB'}, "
            f"far-user outage crossover = "
            f"{'none' if outage_x is None else f'{outage_x:.2f} dB'}"
        )


if __name__ == "__main__":
    main()
