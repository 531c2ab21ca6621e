"""Benchmark for gutzmc: one workload per run, correctness-checked.

    python3 perfbench/run.py --workload mc-desk --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload's set-up (importing gutzmc and
building its lattices, trials and operators) is timed in fresh
interpreters, several times; then identical rounds of the workload's fixed
job run until ``--seconds`` have passed.  Every time is divided by the
host's slowness, read from a frozen calibration kernel next to it
(``hostspeed.py``), so it is in seconds at the reference speed.
``--trace 0`` prints the end-to-end metrics (medians over rounds);
``--trace 1`` wraps the gutzmc layers' public functions, traces every other
round and prints per-layer metrics.  Every operation is checked against an independent exact route
after the timed rounds.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread.  OpenBLAS's default, one per vCPU, ran the oracle workload
# no faster, burned half as much CPU again spinning, and let contention on
# either vCPU stall every call.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("mc-desk", "oracle-desk", "cli-small")
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 120


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of each workload, for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this interpreter; print the seconds "
                             "and the host's slowness after it")
    return parser.parse_args(argv)


def _make(args: argparse.Namespace, workdir: str):
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, args.smoke, Path(workdir))


def _workdir() -> tempfile.TemporaryDirectory:
    """Scratch space inside the checkout for the files the program writes."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def _setup_probe(args: argparse.Namespace) -> tuple[float, float]:
    """The kernel is read after the set-up, because it imports numpy."""
    with _workdir() as workdir:
        start = time.perf_counter()
        _make(args, workdir)
        seconds = time.perf_counter() - start
    import hostspeed

    return seconds, hostspeed.warm_up()


def _setup_seconds(args: argparse.Namespace) -> list[tuple[float, float]]:
    """(seconds, slowness) of set-ups in fresh interpreters, so each pays the import."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True)
        seconds, slowness = done.stdout.split()[-2:]
        times.append((float(seconds), float(slowness)))
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or f"default ({os.cpu_count()})",
        "cli_workers": f"auto ({os.cpu_count()})",
    }


@dataclass
class Round:
    """One timed round: raw seconds, and seconds at the reference speed."""

    wall: float
    cpu: float
    wall_ref: float
    cpu_ref: float
    traced: bool


def _run_rounds(bench, seconds: float, tracer) -> tuple[list[Round], list]:
    """Round 0 warms caches and lazy set-up: it is checked but not timed.
    Timed rounds follow until ``seconds`` pass; with a tracer, every other
    one is traced (round 1 first) and at least two run.  A round's time is
    the sum of its operations' times, without the kernel readings."""
    ops = bench.run_round(0)
    rounds = []
    deadline = time.perf_counter() + seconds
    r = 1
    while True:
        traced = tracer is not None and r % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        done = bench.run_round(r)
        ops.extend(done)
        rounds.append(Round(sum(op.seconds for op in done), sum(op.cpu_seconds for op in done),
                            sum(op.seconds / op.slowness for op in done),
                            sum(op.cpu_seconds / op.slowness for op in done), traced))
        if tracer is not None:
            tracer.enabled = False
        r += 1
        if time.perf_counter() >= deadline and (tracer is None or len(rounds) >= 2):
            return rounds, ops


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gutzmc" / "__init__.py").is_file():
        print(f"error: gutzmc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(*map(repr, _setup_probe(args)))
        return 0

    setup_times = _setup_seconds(args)
    import spans
    import workloads

    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.enabled = True
    with _workdir() as workdir:
        bench = _make(args, workdir)
        setup_spans = []
        if tracer is not None:
            tracer.enabled = False
            setup_spans, tracer.spans = tracer.spans, []
        rounds, ops = _run_rounds(bench, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        report = workloads.Report()
        for op in ops:
            if op.error is None:
                try:
                    op.check(op, report)
                except Exception as err:  # malformed output fails its operation
                    op.misses.append(f"check raised {type(err).__name__}: {err}")

    failed = sum(1 for op in ops if op.failed)
    attempted = len(ops)
    for op in ops:
        for reason in [op.error] if op.error else filter(None, op.misses):
            print(f"FAILED {op.label}: {reason}")
    for defect in report.defects:
        print(f"DEFECT {defect}")
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"setup probes {len(setup_times)}")
    print(f"fail_frac {failed}/{attempted}")
    print("setup_raw_s " + " ".join(f"{t:.4f}" for t, _ in setup_times))
    print("setup_slowness " + " ".join(f"{s:.3f}" for _, s in setup_times))
    print("round_wall_raw_s " + " ".join(f"{r.wall:.4f}" for r in rounds))
    print("round_cpu_raw_s " + " ".join(f"{r.cpu:.4f}" for r in rounds))
    print("round_wall_s " + " ".join(f"{r.wall_ref:.4f}" for r in rounds))
    print("round_cpu_s " + " ".join(f"{r.cpu_ref:.4f}" for r in rounds))
    print("slowness " + " ".join(f"{op.slowness:.3f}" for op in ops))

    if args.trace:
        traced = [r for r in rounds if r.traced]
        untraced = [r for r in rounds if not r.traced]
        metrics = spans.layer_metrics(setup_spans, tracer.spans, len(traced),
                                      sum(r.wall for r in traced))
        metrics["sampler.pull_gt3"] = (sum(1 for p in report.pulls if p > 3.0), "count")
        metrics["sampler.d_gross"] = (report.d_gross, "count")
        metrics["sampler.pull_max"] = (max(report.pulls, default=0.0), "sigma")
        metrics["sampler.stderr_E.max"] = (max(report.stderr_e, default=0.0), "J")
        metrics["sampler.time_x_var.max"] = (max(report.time_x_var, default=0.0), "s.J2")
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall_ref for r in traced)
            - statistics.median(r.wall_ref for r in untraced),
            "s")
        metrics["trace.rounds"] = (len(traced), "count")
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"machine": machine, "setup_spans": setup_spans,
                       "spans": tracer.spans}, fh)
        print(f"sampler pulls over rounds 0-{workloads.PULL_ROUNDS - 1}: "
              f"{len(report.pulls)} compared")
    else:
        metrics = {
            "setup_s": (statistics.median(t / s for t, s in setup_times), "s"),
            "wall_s": (statistics.median(r.wall_ref for r in rounds), "s"),
            "cpu_s": (statistics.median(r.cpu_ref for r in rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
