"""Span recording from outside the program, and the per-layer summary.

Each traced function is replaced at the module attribute where its callers
look it up (``gutzmc.cli.sample_kinetic_interaction`` as well as
``gutzmc.sampler.sample_kinetic_interaction``), so nothing under ``src/``
changes.  A span holds its id, the id of the span that was open on the
same thread when it started, its name, start and end, and the counts an
optional hook reads off the call's arguments and result.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("sampler", "statevector", "pauli", "gutzwiller", "lcu", "hadamard",
          "cli", "io_utils", "slater")


def _sweep_counts(args, kwargs, result):
    chain, accepted = result
    return {"accepted": accepted, "proposals": 2 * args[1].lattice.n_sites,
            "sites": args[1].lattice.n_sites, "drift": chain.max_drift}


def _sample_counts(args, kwargs, result):
    return {"measured": result.n_sweeps}


def _sector_dim(args, kwargs, result):
    n_qubits = args[1]
    sector = args[2] if len(args) > 2 else kwargs.get("particle_sector")
    if sector is None:
        return {"dim": 1 << n_qubits}
    if isinstance(sector, int):
        return {"dim": math.comb(n_qubits, sector)}
    half = n_qubits // 2
    return {"dim": math.comb(half, sector[0]) * math.comb(half, sector[1])}


def _pauli_bytes(args, kwargs, result):
    amps, op = args[0], args[1]
    # read + write of the input and the accumulator per term, complex128
    return {"bytes": len(op.terms) * amps.size * 16 * 3}


def _file_bytes(path_arg):
    def hook(args, kwargs, result):
        path = Path(result if result is not None else args[path_arg])
        return {"bytes": path.stat().st_size}
    return hook


def _command_name(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0], "rc": result}


# (module, attribute, span name, count hook).  Each function is wrapped at
# every module that imports it under its own name and calls it from there.
TARGETS = [
    ("gutzmc.sampler", "metropolis_sweep", "sampler.sweep", _sweep_counts),
    ("gutzmc.sampler", "sample_kinetic_interaction", "sampler.sample", _sample_counts),
    ("gutzmc.cli", "sample_kinetic_interaction", "sampler.sample", _sample_counts),
    ("gutzmc.statevector", "apply_gate", "statevector.gate", None),
    ("gutzmc.statevector", "expectation", "statevector.expectation", None),
    ("gutzmc.cli", "expectation", "statevector.expectation", None),
    ("gutzmc.statevector", "exact_ground_state", "statevector.ed", _sector_dim),
    ("gutzmc.cli", "exact_ground_state", "statevector.ed", _sector_dim),
    ("gutzmc.statevector", "apply_pauli_sum", "pauli.apply", _pauli_bytes),
    ("gutzmc.gutzwiller", "apply_pauli_sum", "pauli.apply", _pauli_bytes),
    ("gutzmc.hadamard", "apply_pauli_sum", "pauli.apply", _pauli_bytes),
    ("gutzmc.sampler", "apply_pauli_sum", "pauli.apply", _pauli_bytes),
    ("gutzmc.gutzwiller", "apply_gutzwiller_exact", "gutzwiller.project", None),
    ("gutzmc.cli", "apply_gutzwiller_exact", "gutzwiller.project", None),
    ("gutzmc.gutzwiller", "full_sum_expectation", "gutzwiller.fullsum", None),
    ("gutzmc.cli", "full_sum_expectation", "gutzwiller.fullsum", None),
    ("gutzmc.lcu", "pair_distance_weights", "lcu.pair_weights", None),
    ("gutzmc.lcu", "success_probability_curve", "lcu.curve", None),
    ("gutzmc.cli", "success_probability_curve", "lcu.curve", None),
    ("gutzmc.lcu", "build_lcu_state", "lcu.circuit", None),
    ("gutzmc.hadamard", "two_site_energy_from_primitives", "hadamard.assembly", None),
    ("gutzmc.cli", "two_site_energy_from_primitives", "hadamard.assembly", None),
    ("gutzmc.cli", "main", "cli.command", _command_name),
    ("gutzmc.cli", "write_csv", "io_utils.write", _file_bytes(0)),
    ("gutzmc.cli", "write_metadata", "io_utils.write", _file_bytes(0)),
    ("gutzmc.slater", "half_filled_trial", "slater.trial", None),
    ("gutzmc.sampler", "half_filled_trial", "slater.trial", None),
    ("gutzmc.lcu", "half_filled_trial", "slater.trial", None),
    ("gutzmc.cli", "half_filled_trial", "slater.trial", None),
    ("gutzmc.slater", "slater_to_statevector", "slater.to_statevector", None),
    ("gutzmc.sampler", "slater_to_statevector", "slater.to_statevector", None),
    ("gutzmc.cli", "slater_to_statevector", "slater.to_statevector", None),
]


class Tracer:
    """In-memory span recorder; spans are kept only while ``enabled``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, original, name, hook):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._record(span_id, parent, name, start, stack, {})
                raise
            self._record(span_id, parent, name, start, stack,
                         hook(args, kwargs, result) if hook else {})
            return result
        return traced

    def _record(self, span_id, parent, name, start, stack, counts) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans.append((span_id, parent, name, start, end, threading.get_ident(), counts))


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(setup_spans: list[tuple], spans: list[tuple], n_rounds: int,
                  traced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``n_rounds`` traced rounds.

    Per-call figures (medians, percentiles) also use the spans recorded
    while the workload was set up; per-round figures (counts, self time,
    share of wall time) use only the rounds.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in setup_spans + spans:
        by_name[span[2]].append(span)

    def durations(name: str, scale: float = 1.0) -> list[float]:
        return [(s[4] - s[3]) * scale for s in by_name[name]]

    round_spans = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span in setup_spans + spans:
        if span[1] is not None:
            child_time[span[1]] += span[4] - span[3]
    self_time: dict[str, float] = defaultdict(float)
    cover: dict[str, float] = defaultdict(float)
    for span in spans:
        layer = span[2].split(".")[0]
        duration = span[4] - span[3]
        self_time[layer] += duration - child_time[span[0]]
        # A layer covers its outermost spans: those not opened inside the same layer.
        ancestor = round_spans.get(span[1])
        while ancestor is not None and ancestor[2].split(".")[0] != layer:
            ancestor = round_spans.get(ancestor[1])
        if ancestor is None:
            cover[layer] += duration

    per_round = 1.0 / n_rounds
    sweeps = [s for s in by_name["sampler.sweep"] if s[6]]  # a raising sweep has no counts
    round_sweeps = [s for s in spans if s[2] == "sampler.sweep"]
    proposals = sum(s[6]["proposals"] for s in sweeps)
    measured = sum(s[6].get("measured", 0) for s in by_name["sampler.sample"])
    commands = defaultdict(list)
    for span in by_name["cli.command"]:
        commands[span[6].get("command")].append(span[4] - span[3])
    pool_commands = sum(sum(commands[c]) for c in ("mc", "sweep"))
    sample_time = sum(durations("sampler.sample"))
    io_spans = [s for s in spans if s[2] == "io_utils.write"]

    def count(name: str) -> float:
        return sum(1 for s in spans if s[2] == name) * per_round

    metrics: dict[str, tuple[float, str]] = {
        "sampler.sweep_us.p50": (_median(durations("sampler.sweep", 1e6)), "us"),
        "sampler.sweep_us.p99": (_percentile(durations("sampler.sweep", 1e6), 99), "us"),
        "sampler.sweeps": (count("sampler.sweep"), "count"),
        "sampler.proposal_us": (
            _median([(s[4] - s[3]) * 1e6 / s[6]["proposals"] for s in sweeps]), "us"),
        "sampler.measure_us": (
            sum(s[4] - s[3] - child_time[s[0]] for s in by_name["sampler.sample"]) * 1e6
            / measured
            if measured else 0.0, "us"),
        "sampler.sweeps_per_s": (
            len(round_sweeps) / traced_wall if traced_wall > 0 else 0.0, "1/s"),
        "sampler.accept_ratio": (
            sum(s[6]["accepted"] for s in sweeps) / proposals if proposals else 0.0,
            "ratio"),
        "sampler.max_drift": (max((s[6]["drift"] for s in sweeps), default=0.0),
                              "ratio"),
        "statevector.ed_s": (_median(durations("statevector.ed")), "s"),
        "statevector.ed_dim": (
            max((s[6].get("dim", 0) for s in by_name["statevector.ed"]), default=0), "states"),
        "statevector.expectation_ms": (_median(durations("statevector.expectation", 1e3)), "ms"),
        "statevector.gate_us.p50": (_median(durations("statevector.gate", 1e6)), "us"),
        "statevector.gates": (count("statevector.gate"), "count"),
        "pauli.apply_ms": (_median(durations("pauli.apply", 1e3)), "ms"),
        "pauli.calls": (count("pauli.apply"), "count"),
        "pauli.bytes_computed": (
            sum(s[6].get("bytes", 0) for s in spans if s[2] == "pauli.apply") * per_round, "B"),
        "gutzwiller.project_ms": (_median(durations("gutzwiller.project", 1e3)), "ms"),
        "gutzwiller.fullsum_ms": (_median(durations("gutzwiller.fullsum", 1e3)), "ms"),
        "lcu.pair_weights_ms": (_median(durations("lcu.pair_weights", 1e3)), "ms"),
        "lcu.curve_ms": (_median(durations("lcu.curve", 1e3)), "ms"),
        "lcu.circuit_ms": (_median(durations("lcu.circuit", 1e3)), "ms"),
        "hadamard.assembly_ms": (_median(durations("hadamard.assembly", 1e3)), "ms"),
        "hadamard.calls": (count("hadamard.assembly"), "count"),
        "cli.command_s.sweep": (_median(commands["sweep"]), "s"),
        "cli.command_s.mc": (_median(commands["mc"]), "s"),
        "cli.command_s.two-site": (_median(commands["two-site"]), "s"),
        "cli.point_s.p50": (
            _median(durations("sampler.sample")) if by_name["cli.command"] else 0.0, "s"),
        "cli.parallel_ratio": (sample_time / pool_commands if pool_commands else 0.0, "ratio"),
        "io_utils.write_ms": (_median(durations("io_utils.write", 1e3)), "ms"),
        "io_utils.bytes_written": (sum(s[6].get("bytes", 0) for s in io_spans) * per_round, "B"),
        "slater.trial_ms": (_median(durations("slater.trial", 1e3)), "ms"),
        "slater.to_statevector_ms": (_median(durations("slater.to_statevector", 1e3)), "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_time[layer] * per_round, "s")
        metrics[f"{layer}.share"] = (
            cover[layer] / traced_wall if traced_wall > 0 else 0.0, "ratio")
    metrics["trace.spans"] = (len(spans) * per_round, "count")
    return metrics

