#!/usr/bin/env python3
"""Benchmark of the passperf command-line workflows.

Run from a source checkout of passperf (the package is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload sweep_wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs per process, single-threaded. The process times its own
set-up (importing passperf, writing the workload's config files, one
warm-up call) and then repeats the workload's job through
``passperf.cli.main([...])`` for ``--seconds`` seconds, checking the output
of every pass outside the timed region. Set-up and pass times are scaled
to a reference host speed, sampled while they run (``HostTimer``).
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` adds two passes traced from outside the package and reports
its per-layer metrics. The last line of standard output is the result as
one JSON object; the line before it (``run {...}``) records the versions,
parameters and raw samples. ``--workload all`` runs every workload,
untraced and traced, each in a fresh process, and prints a table of both.

Exit status: 0 with a result; 2 when the sources or a reference are
missing; 3 when the benchmark's own self-check fails.
"""

import os

# Single-threaded numerics; must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # run artefacts: configs, outputs, span dumps
REFERENCE = HERE / "reference"

NODES = 64
TRIALS = 100_000
# Set-up is timed in this process and in SETUP_SAMPLES - 1 fresh processes
# started at even intervals during the run, so that the samples see the same
# mix of fast and slow host phases as the passes do.
SETUP_SAMPLES = 11
MIN_PASSES = 5
SELF_TIME_TOLERANCE = 0.05
# The CPU speed of a shared host changes from second to second by up to
# 1.7x, and process CPU time changes with it, so raw times of the same code
# spread past any useful bound. While a pass is timed, a SIGALRM every
# HOST_SAMPLE_INTERVAL_S runs a fixed job (no passperf code) and times it.
# The region's time, less the time spent in the job, is reported at the host
# speed where the job takes HOST_JOB_REF_S. A change of host speed cancels;
# a change in passperf's own cost does not.
HOST_SAMPLE_INTERVAL_S = 0.03
HOST_JOB_REF_S = 0.0013  # a typical time of the job on 2 shared cores, Python 3.11.7, numpy 2.4.6

CONFIGS = {
    # NOMA power split (0.2, 0.8) instead of the default (0.05, 0.95)
    "split": {"noma_alpha_near": 0.2, "noma_alpha_far": 0.8},
    # dispersed layout: 10 m deep sub-regions 10 m off the axis (sweep.omega_two)
    "omega_two": {"region_y_m": 10.0, "region_y_offset_m": 10.0},
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or references)."""


class SelfCheckError(Exception):
    """The benchmark's own consistency check failed."""


@dataclass(frozen=True)
class Call:
    """One CLI invocation: config name (None: defaults) and its arguments."""

    config: str | None
    argv: tuple

    @property
    def label(self) -> str:
        return " ".join((self.config or "default",) + self.argv)


@dataclass(frozen=True)
class Workload:
    calls: tuple  # one pass runs these in order
    warmup: Call
    grid: tuple = ()  # (start, stop, step) of a sweep workload

    def grid_db(self) -> list:
        start, stop, step = self.grid
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(count)]


def _grid_args(start, stop, step) -> tuple:
    return ("--start", repr(start), "--stop", repr(stop), "--step", repr(step))


def workloads(seed: int) -> dict:
    """The benchmark's workloads; only the simulation uses the seed."""
    mc = ("--mc", "--trials", str(TRIALS), "--seed", str(seed % 2**64))
    compact = (90.0, 150.0, 2.0)
    wide = (-50.0, 400.0, 1.0)
    crossover = tuple(
        Call(config, ("crossover", "--metric", metric, "--lo", lo, "--hi", "160"))
        for metric, lo in (("rate_sum", "60"), ("outage_ue", "90"))
        for config in (None, "split", "omega_two")
    )
    return {
        "sweep_compact_mc": Workload(
            calls=(Call(None, ("sweep", "--asymptotes", *mc, *_grid_args(*compact))),),
            warmup=Call(None, ("sweep", "--asymptotes", *mc, *_grid_args(90.0, 90.0, 2.0))),
            grid=compact),
        "sweep_dispersed": Workload(
            calls=(Call("omega_two", ("sweep", "--asymptotes", *_grid_args(*compact))),),
            warmup=Call("omega_two", ("sweep", "--asymptotes", *_grid_args(90.0, 90.0, 2.0))),
            grid=compact),
        "sweep_wide": Workload(
            calls=(Call(None, ("sweep", "--asymptotes", *_grid_args(*wide))),),
            warmup=Call(None, ("sweep", "--asymptotes", *_grid_args(-50.0, -50.0, 1.0))),
            grid=wide),
        "crossover": Workload(
            calls=crossover,
            # equal signs at both ends of a bracket narrower than tol_db: two evaluations
            warmup=Call(None, ("crossover", "--metric", "rate_sum", "--lo", "60", "--hi", "60.001"))),
    }


WORKLOAD_NAMES = tuple(workloads(0))


# -- set-up ---------------------------------------------------------------


def _argv(call: Call, out: Path, tmp: Path) -> list:
    argv = list(call.argv) + ["--nodes", str(NODES), "--out", str(out)]
    if call.config is not None:
        argv += ["--config", str(tmp / f"{call.config}.json")]
    return argv


def setup(workload: Workload, tmp: Path):
    """Import passperf from src/, write the config files, make the warm-up call.

    Returns (the ``HostTimer`` of the set-up, the ``passperf`` modules by short name).
    """
    with HostTimer("after") as timer:
        sys.path.insert(0, str(SRC))
        modules = {name: importlib.import_module(f"passperf.{name}")
                   for name in spans.PACKAGE_MODULES}
        package = sys.modules["passperf"]
        if SRC.resolve() not in Path(package.__file__).resolve().parents:
            raise BenchError(f"passperf was imported from {package.__file__}, not from {SRC}")
        for name in {call.config for call in workload.calls + (workload.warmup,)} - {None}:
            (tmp / f"{name}.json").write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
        code = modules["cli"].main(_argv(workload.warmup, tmp / "warmup.out", tmp))
    if code != 0:
        raise BenchError(f"warm-up call exited with {code}")
    return timer, modules


def _host_job() -> float:
    """Short numpy calls on quadrature-sized arrays, then Python arithmetic.

    Either half alone follows some workloads' pass times worse than the two
    together do.
    """
    import numpy as np  # imported by passperf during set-up, which is sampled after it

    small = np.linspace(0.01, 0.99, NODES)
    acc = 0.0
    for i in range(150):
        acc += float(np.dot(np.sqrt(1.0 - small * small), np.log1p(small * (1.0 + i % 97))))
    for i in range(1, 3001):
        acc += math.exp(-i / 97.0) * math.sqrt(i)
    return acc


class HostTimer:
    """Times a region and samples the host's speed while it runs.

    ``seconds`` is the region's wall time less the time spent in the
    sampling job; ``scaled_s`` is that time at the reference host speed.
    ``sample`` says when the job runs: "during" the region on SIGALRM ticks,
    plus once after it (passes); "after" it, for as long as the region took
    (set-up, which imports numpy, so the job cannot run inside it); or
    "never" (traced passes, whose self-check must see no job).
    """

    def __init__(self, sample: str):
        self.sample = sample
        self.samples = []
        self.seconds = math.nan

    def __enter__(self):
        if self.sample == "during":
            # left installed: a tick that lands after the region only adds a sample
            signal.signal(signal.SIGALRM, self._take_sample)
            signal.setitimer(signal.ITIMER_REAL, HOST_SAMPLE_INTERVAL_S, HOST_SAMPLE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        if self.sample == "during":
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.seconds = time.perf_counter() - self._start - sum(self.samples)
        if self.sample != "never":
            self._take_sample()
        while self.sample == "after" and sum(self.samples) < self.seconds:
            self._take_sample()
        return False

    def _take_sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        _host_job()
        self.samples.append(time.perf_counter() - t0)

    @property
    def scaled_s(self) -> float:
        return self.seconds * HOST_JOB_REF_S / statistics.fmean(self.samples)


def probe_setup(name: str, seed: int) -> tuple:
    """Raw and scaled set-up time of a fresh process, measured by that process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--probe-setup"],
        capture_output=True, text=True, timeout=60, check=False)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


# -- passes and checks ----------------------------------------------------


def run_pass(main, argvs: list, outs: list, sample_host: str = "during"):
    """One timed pass. Returns (its HostTimer, operations failed, output texts)."""
    failed = 0
    with HostTimer(sample_host) as timer:
        for argv in argvs:
            try:
                failed += main(argv) != 0
            except Exception:  # noqa: BLE001 - a crash is a failed operation, reported below
                failed += 1
    texts = [out.read_text(encoding="utf-8") if out.exists() else "" for out in outs]
    for out in outs:
        out.unlink(missing_ok=True)
    return timer, failed, texts


def load_references(name: str) -> dict:
    try:
        if name == "sweep_dispersed":
            text = (REFERENCE / "sweep_dispersed_mc.csv").read_text(encoding="utf-8")
            return {"mc": checks.read_mc_reference(text)}
        if name == "crossover":
            return {"crossover": json.loads((REFERENCE / "crossover.json").read_text("utf-8"))}
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read the reference for {name}: {exc}") from None
    return {}


def check_pass(name: str, workload: Workload, texts: list, refs: dict) -> checks.CheckReport:
    report = checks.CheckReport()
    if name == "crossover":
        for call, text in zip(workload.calls, texts):
            if call.label not in refs["crossover"]:
                report.integrity.append(f"no recorded crossover for {call.label}")
                continue
            checks.check_crossover(text, call.label, refs["crossover"][call.label], report)
        return report
    alpha = {"noma_alpha_near": 0.05, "noma_alpha_far": 0.95}  # SystemConfig defaults
    alpha.update(CONFIGS.get(workload.calls[0].config, {}))
    ceiling = math.log2(1.0 + alpha["noma_alpha_far"] / alpha["noma_alpha_near"])
    checks.check_sweep(texts[0], workload.grid_db(), ceiling, report, refs.get("mc"))
    return report


# -- run record -----------------------------------------------------------


def git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "passperf").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args, timers, report, setup_samples) -> dict:
    import numpy

    reasons = Counter(reason for _, reason in report.failures)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nodes": NODES, "trials": TRIALS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "git_revision": git_revision(),
        "src_sha256": source_digest(), "passes": len(timers),
        "host_job_ref_s": HOST_JOB_REF_S,
        "pass_s": [round(t.seconds, 6) for t in timers],
        "pass_host_job_s": [round(statistics.fmean(t.samples), 7) for t in timers],
        "pass_scaled_s": [round(t.scaled_s, 6) for t in timers],
        "raw_wall_s": statistics.median(t.seconds for t in timers),
        "setup_s": [round(raw, 6) for raw, _ in setup_samples],
        "setup_scaled_s": [round(scaled, 6) for _, scaled in setup_samples],
        "cells_checked_per_pass": report.checked, "cells_failed_per_pass": report.failed,
        "failures_by_reason": dict(reasons),
        "failing_cells": [str(cell) for cell, _ in report.failures[:8]],
    }


# -- one workload ---------------------------------------------------------


def measure(args) -> int:
    if not (SRC / "passperf" / "__init__.py").is_file():
        raise BenchError(f"passperf sources not found under {SRC}")
    name = args.workload
    workload = workloads(args.seed)[name]
    refs = load_references(name)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        setup_timer, modules = setup(workload, tmp)
        if args.probe_setup:
            print(json.dumps([setup_timer.seconds, setup_timer.scaled_s]))
            return 0
        setup_samples = [(setup_timer.seconds, setup_timer.scaled_s)]
        outs = [tmp / f"out{i}" for i in range(len(workload.calls))]
        argvs = [_argv(call, out, tmp) for call, out in zip(workload.calls, outs)]
        cli = modules["cli"]

        times, first_texts, report = [], None, None
        attempted = failed = checked = passed = 0
        consistent = True
        begin = time.perf_counter()
        probe_at = [] if args.trace else [begin + args.seconds * (i + 0.5) / (SETUP_SAMPLES - 1)
                                          for i in range(SETUP_SAMPLES - 1)]
        while len(times) < MIN_PASSES or time.perf_counter() < begin + args.seconds:
            if probe_at and time.perf_counter() >= probe_at[0]:
                setup_samples.append(probe_setup(name, args.seed))
                probe_at.pop(0)
                continue
            timer, pass_failed, texts = run_pass(cli.main, argvs, outs)
            times.append(timer)
            attempted += len(argvs)
            failed += pass_failed
            if first_texts is None:
                first_texts = texts
                report = check_pass(name, workload, texts, refs)
            else:
                consistent &= texts == first_texts
            # identical bytes give identical findings, so every pass counts the first's
            checked += report.checked
            passed += report.checked - report.failed
        setup_samples += [probe_setup(name, args.seed) for _ in probe_at]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct = failed == 0 and consistent and not report.integrity and report.checked > 0
        for problem in report.integrity:
            print(f"integrity: {problem}", file=sys.stderr)
        if not consistent:
            print("integrity: output differs between passes", file=sys.stderr)

        values = {
            "wall_s": statistics.median(t.scaled_s for t in times),
            "setup_s": statistics.median(scaled for _, scaled in setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": passed / checked if checked else 0.0,
        }
        if args.trace:
            values = traced_metrics(name, modules, argvs, outs, first_texts,
                                    [t.seconds for t in times])
        metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in metric_specs}
        record = run_record(args, times, report, setup_samples)
        print("run " + json.dumps(record))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def traced_metrics(name, modules, argvs, outs, untraced_texts, untraced_times) -> dict:
    """Two traced passes: per-layer metrics, with the benchmark's self-check."""
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        passes = []
        for _ in range(2):
            first = tracer.mark()
            timer, pass_failed, texts = run_pass(modules["cli"].main, argvs, outs,
                                                 sample_host="never")
            passes.append((first, tracer.mark(), timer.seconds, pass_failed, texts))
    finally:
        tracer.uninstall()

    summaries = [tracer.summarize(first, last) for first, last, *_ in passes]
    if summaries[0].counts() != summaries[1].counts():
        raise SelfCheckError("per-layer counts differ between the two traced passes")
    for first, last, elapsed, pass_failed, texts in passes:
        if pass_failed or texts != untraced_texts:
            raise SelfCheckError("traced output differs from the untraced output")
    for summary, (_, _, elapsed, *_rest) in zip(summaries, passes):
        layer_sum = sum(summary.layer_self_s().values())
        if abs(layer_sum - elapsed) > SELF_TIME_TOLERANCE * elapsed:
            raise SelfCheckError(
                f"layer self times sum to {layer_sum:.4f} s, traced pass took {elapsed:.4f} s")

    first, last = passes[0][:2]
    tracer.dump(WORK / f"spans-{name}.npz", first, last)
    per_pass = [summary.layer_metrics() for summary in summaries]
    metrics = {key: statistics.fmean(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["sweep.csv_bytes"] = (float(sum(len(t.encode()) for t in untraced_texts))
                                  if name.startswith("sweep") else 0.0)
    metrics["trace.overhead"] = (statistics.median(p[2] for p in passes)
                                 / statistics.median(untraced_times))
    layers = summaries[0].layer_self_s()
    print("layers " + json.dumps({k: round(v, 6) for k, v in sorted(layers.items())}))
    return metrics


# -- all workloads --------------------------------------------------------


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process; print a table."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}")
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"   failed (exit {done.returncode}): {done.stderr.strip()}")
                status = 1
                continue
            result = json.loads(lines[-1])
            record = json.loads(next(l for l in lines if l.startswith("run "))[4:])
            if not trace:
                checked, bad = record["cells_checked_per_pass"], record["cells_failed_per_pass"]
                print(f"   correct {result['correct']}, {result['failed']}/{result['attempted']}"
                      f" calls failed, {record['passes']} passes")
                print(f"   fail_frac = {bad}/{checked} = {bad / max(checked, 1):.4f} "
                      f"(cells failing a check / cells checked) {record['failures_by_reason']}")
            for key, metric in result["metrics"].items():
                print(f"   {key:36s} {metric['value']:>16.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    default_seconds = json.loads(spec_path.read_text())["run_seconds"] if spec_path.exists() else 10
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=12345, help="simulation seed")
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="how long to repeat the job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
