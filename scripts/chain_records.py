#!/usr/bin/env python3
"""Reference sampler records: write the chain outputs of a fixed set of runs,
as exact float.hex text, into one directory, so that two source trees can be
compared with a single `diff -r`.

Usage: scripts/chain_records.py SRC OUT
  SRC  root of a gutzmc checkout (the directory holding src/gutzmc)
  OUT  directory for the records; created if missing, must be empty

Example, a change against its parent commit:
  git archive HEAD~1 | tar -x -C /tmp/parent
  python3 scripts/chain_records.py /tmp/parent /tmp/rec-parent
  python3 scripts/chain_records.py .           /tmp/rec-change
  diff -r /tmp/rec-parent /tmp/rec-change

Only the public API is used (sample_kinetic_interaction, phase_problem_check,
weight_numerator, local_estimator, build_lcu_state, measure_ancillas_success),
so this script can read an older tree.
The records are:
  chains_determinant.txt  k_bins, d_bins, acceptance_rate and max_drift on
                          chain:2-7, 9-12, 16 and ladder:6, 8
  chains_statevector.txt  the same on chain:3-6
  phase_check.txt         phase_problem_check on chain:2-5
  one_config.txt          weight_numerator and local_estimator on fixed
                          random configurations, both backends
  lcu_circuit.txt         the LCU circuit on the half-filled trial, both
                          circuit forms, on chain:2-6 and ladder:6: the
                          success probability and every amplitude of the
                          ancilla-|0...0> block
each at g in {0.6, 1.0, 1.5}.  Every chain runs 130 burn-in and 380
measured sweeps, so both phases end on a partial stack.  The whole set
takes ~7 s on a 2 vCPU host.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

G_VALUES = (0.6, 1.0, 1.5)
SEEDS = (11, 12)
DETERMINANT_LATTICES = [("chain", n) for n in (2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 16)] + [
    ("ladder", 6), ("ladder", 8)]
STATEVECTOR_LATTICES = [("chain", n) for n in (3, 4, 5, 6)]
ONE_CONFIG_LATTICES = [("chain", n) for n in (2, 3, 4, 5, 6)] + [("ladder", 6)]
ONE_CONFIG_COUNT = 8
LCU_LATTICES = [("chain", n) for n in (2, 3, 4, 5, 6)] + [("ladder", 6)]


def hexes(values) -> str:
    return " ".join(float(v).hex() for v in values)


def complex_hex(value) -> str:
    return f"{float(value.real).hex()} {float(value.imag).hex()}"


def chain_records(gutzmc, lattices, backend: str) -> list[str]:
    lines = []
    for kind, n in lattices:
        lattice = gutzmc.build_lattice(kind, n)
        for g in G_VALUES:
            for seed in SEEDS:
                params = gutzmc.McParams(n_sweeps=380, n_burnin=130, n_bins=10,
                                         rng_seed=seed, backend=backend)
                samples = gutzmc.sample_kinetic_interaction(lattice, 1.0, g, params)
                label = f"{kind}:{n} g={g} seed={seed}"
                lines += [
                    f"{label} k_bins {hexes(samples.k_bins)}",
                    f"{label} d_bins {hexes(samples.d_bins)}",
                    f"{label} acceptance_rate {float(samples.acceptance_rate).hex()}",
                    f"{label} max_drift {float(samples.max_drift).hex()}",
                ]
    return lines


def phase_check_records(gutzmc) -> list[str]:
    lines = []
    for n in (2, 3, 4, 5):
        for g in G_VALUES:
            report = gutzmc.phase_problem_check(gutzmc.build_lattice("chain", n), g)
            lines.append(f"chain:{n} g={g} n_configs {report.n_configs} max_imag "
                         f"{report.max_imag.hex()} min_real {report.min_real.hex()}")
    return lines


def one_config_records(gutzmc, np) -> list[str]:
    lines = []
    for kind, n in ONE_CONFIG_LATTICES:
        trial = gutzmc.half_filled_trial(gutzmc.build_lattice(kind, n))
        configs = np.random.default_rng(100 + n).choice([-1, 1], size=(ONE_CONFIG_COUNT, n, 2))
        for g in G_VALUES:
            params = gutzmc.hs_params(g)
            for backend in ("determinant", "statevector"):
                for index, config in enumerate(configs):
                    label = f"{kind}:{n} g={g} {backend} config={index}"
                    weight = gutzmc.weight_numerator(config, trial, params, backend)
                    lines.append(f"{label} weight {complex_hex(weight)}")
                    for observable in ("kinetic", "interaction"):
                        try:
                            value = complex_hex(gutzmc.local_estimator(
                                config, observable, trial, params, backend, J=1.3))
                        except ArithmeticError as exc:
                            value = type(exc).__name__
                        lines.append(f"{label} {observable} {value}")
    return lines


def lcu_circuit_records(gutzmc) -> list[str]:
    lines = []
    for kind, n in LCU_LATTICES:
        trial = gutzmc.half_filled_trial(gutzmc.build_lattice(kind, n))
        layout = gutzmc.QubitLayout(n)
        state = gutzmc.slater_to_statevector(trial.up, trial.down, layout)
        for g in G_VALUES:
            for simplified in (True, False):
                whole = gutzmc.build_lcu_state(state, g, layout, simplified=simplified)
                outcome = gutzmc.measure_ancillas_success(whole)
                block = whole.amplitudes[:whole.support.size]
                label = f"{kind}:{n} g={g} simplified={simplified}"
                lines += [
                    f"{label} success_probability {outcome.success_probability.hex()}",
                    f"{label} branch {' '.join(map(complex_hex, block))}",
                ]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {sys.argv[0]} SRC OUT", file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve() / "src"
    if not (src / "gutzmc").is_dir():
        print(f"error: {src / 'gutzmc'} not found", file=sys.stderr)
        return 1
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    import numpy as np

    import gutzmc

    records = {
        "chains_determinant.txt": chain_records(gutzmc, DETERMINANT_LATTICES, "determinant"),
        "chains_statevector.txt": chain_records(gutzmc, STATEVECTOR_LATTICES, "statevector"),
        "phase_check.txt": phase_check_records(gutzmc),
        "one_config.txt": one_config_records(gutzmc, np),
        "lcu_circuit.txt": lcu_circuit_records(gutzmc),
    }
    for name, lines in records.items():
        (out / name).write_text("\n".join(lines) + "\n")
    print(f"{sum(map(len, records.values()))} records in {len(records)} files in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
