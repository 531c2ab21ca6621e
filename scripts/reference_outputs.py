#!/usr/bin/env python3
"""Reference outputs: the CSVs and sidecars of a fixed set of gutzmc
commands, and the sampler and circuit records below the CLI as exact
float.hex text, all written into one directory, so that two source trees
can be compared with a single `diff -r`.

Usage: scripts/reference_outputs.py SRC OUT
  SRC  root of a gutzmc checkout (the directory holding src/gutzmc)
  OUT  directory for the outputs; created if missing, must be empty

Example, a change against its parent commit:
  git archive HEAD~1 | tar -x -C /tmp/parent
  python3 scripts/reference_outputs.py /tmp/parent /tmp/ref-parent
  python3 scripts/reference_outputs.py .           /tmp/ref-change
  diff -r /tmp/ref-parent /tmp/ref-change

CLI runs: each command of COMMANDS runs in its own interpreter and writes
NAME.csv and NAME.json with a relative --out inside OUT, so the sidecars'
config echo is the same whatever OUT is.  The reference config file lives
in a temporary directory, so OUT holds only outputs.

Records: written in-process, from the public API only
(sample_kinetic_interaction, phase_problem_check, weight_numerator,
local_estimator, build_lcu_state, measure_ancillas_success,
exact_ground_state, expectation), so this script can read an older tree:
  chains_determinant.txt  k_bins, d_bins, acceptance_rate and max_drift on
                          chain:2-7, 9-12, 16 and ladder:6, 8
  chains_statevector.txt  the same on chain:3-6
  phase_check.txt         phase_problem_check on chain:2-5
  one_config.txt          weight_numerator and local_estimator on fixed
                          random configurations, both backends
  lcu_circuit.txt         the LCU circuit on the half-filled trial, both
                          circuit forms, on chain:2-6, 8 and ladder:6, 8:
                          the success probability and every amplitude of
                          the ancilla-|0...0> block
each at g in {0.6, 1.0, 1.5}.  Every chain runs 130 burn-in and 380
measured sweeps, so both phases end on a partial stack.
  expectation.txt         expectation of K and D on the half-filled ground
                          state of chain:4 and ladder:6 at U in {1, 4}, and
                          of a seeded complex operator whose strings all
                          carry a Y on whole 8- and 10-qubit registers and
                          on seeded scattered supports of both widths

GUTZMC_* settings in the environment are ignored.  The BLAS thread count
is inherited from the caller's environment (OPENBLAS_NUM_THREADS and the
like): the outputs are the same bytes at any count, on a fixed CPU feature
set.  A tree whose slater_to_statevector still builds the 2^(2N) register
follows the count through that register's BLAS norm; to compare against
one, set OPENBLAS_NUM_THREADS=1 for both runs.  The whole set (56 files,
1,394 records) takes ~12 s on a 2 vCPU host, ~0.8 s of it the circuit
records (~2.1 s on a tree whose circuit carries every ancilla row from
the first gate).
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Stands for the reference config file's path in a command's arguments.
CONFIG = "{config}"
CONFIG_TEXT = """\
# reference config: every setting but the seed comes from this file
lattice = chain:4
U = 2,4
g_min = 0.5
g_max = 1.0
g_step = 0.5
nmc = 1000
bins = 10
burnin = 200
seed = 99  # --seed on the command line wins
"""

GRID = ["--g-min", "0.5", "--g-max", "1.5", "--g-step", "0.5"]
SHORT = ["--nmc", "1000", "--bins", "10", "--burnin", "200"]

# (output name, gutzmc arguments without --out), in run order
COMMANDS: list[tuple[str, list[str]]] = [
    ("mc_chain4_determinant", ["mc", "--lattice", "chain:4", *GRID, *SHORT]),
    ("mc_chain4_statevector", ["mc", "--lattice", "chain:4", "--backend", "statevector",
                               *GRID, *SHORT]),
    ("mc_ladder6_statevector", ["mc", "--lattice", "ladder:6", "--backend", "statevector",
                                *GRID, *SHORT]),
    ("mc_chain8", ["mc", "--lattice", "chain:8", *GRID, *SHORT]),
    # the 4,900-state statevector engine: basis_matrix, diagonal_eigenvalues
    # and the chain bookkeeping it shares with the determinant engine
    ("mc_chain8_statevector", ["mc", "--lattice", "chain:8", "--backend", "statevector",
                               "--g-min", "1.0", "--g-max", "1.0", "--nmc", "200",
                               "--burnin", "100"]),
    ("sweep_chain6", ["sweep", "--lattice", "chain:6", *GRID, *SHORT]),
    ("sweep_ladder6", ["sweep", "--lattice", "ladder:6", *GRID, *SHORT]),
    ("sweep_ladder8", ["sweep", "--lattice", "ladder:8", *GRID, *SHORT]),
    ("sweep_chain10", ["sweep", "--lattice", "chain:10", *GRID, *SHORT]),
    ("sweep_chain7", ["sweep", "--lattice", "chain:7", *GRID, *SHORT]),
    # chain:4 (36 states) and chain:5 (100 states, odd N) reach the dense ED branch
    ("sweep_chain4", ["sweep", "--lattice", "chain:4", *GRID, *SHORT]),
    ("sweep_chain5", ["sweep", "--lattice", "chain:5", *GRID, *SHORT]),
    ("mc_config", ["mc", "--config", CONFIG, "--seed", "7"]),
    ("two_site_shots", ["two-site", "--shots", "512", "--reps", "4", "--bias", "0.9,0.05"]),
    ("two_site_exact", ["two-site", "--shots", "0"]),
    ("two_site_default", ["two-site"]),
    ("lcu_default", ["lcu"]),
    ("lcu_ladder8", ["lcu", "--lattice", "ladder:8"]),
    ("lcu_chain5", ["lcu", "--lattice", "chain:5"]),
    ("hst_verify", ["hst-verify"]),
    ("hst_verify_coupling", ["hst-verify", "--J", "-0.7"]),
    ("phase_check_chain4", ["phase-check", "--lattice", "chain:4"]),
    ("phase_check_chain3_grid", ["phase-check", "--lattice", "chain:3", "--g-min", "0.25",
                                 "--g-max", "1.75", "--g-step", "0.75"]),
]

G_VALUES = (0.6, 1.0, 1.5)
SEEDS = (11, 12)
DETERMINANT_LATTICES = [("chain", n) for n in (2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 16)] + [
    ("ladder", 6), ("ladder", 8)]
STATEVECTOR_LATTICES = [("chain", n) for n in (3, 4, 5, 6)]
ONE_CONFIG_LATTICES = [("chain", n) for n in (2, 3, 4, 5, 6)] + [("ladder", 6)]
ONE_CONFIG_COUNT = 8
LCU_LATTICES = [("chain", n) for n in (2, 3, 4, 5, 6, 8)] + [("ladder", 6), ("ladder", 8)]
EXPECTATION_LATTICES = [("chain", 4), ("ladder", 6)]
EXPECTATION_U = (1.0, 4.0)
# (qubits, sizes of the scattered supports); each state is also kept on
# its whole register
EXPECTATION_REGISTERS = [(8, (40, 150)), (10, (60, 400))]


def cli_argv(name: str, args: list[str], config: Path) -> list[str]:
    """One command's full gutzmc arguments: the config path filled in, --out NAME.csv."""
    return [str(config) if arg == CONFIG else arg for arg in args] + ["--out", f"{name}.csv"]


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


def y_bearing_operator(gutzmc, rng, n: int):
    """Complex-weighted strings that each carry a Y: six on the high half of
    the register, six on the low half, six across both, and one Z-Z pair
    across the halves, so every gather and sign-mask shape occurs."""
    half = n // 2
    spans = [range(half)] * 6 + [range(half, n)] * 6 + [range(n)] * 6
    terms = []
    for span in spans:
        chars = ["I"] * n
        for q in span:
            chars[q] = str(rng.choice(list("IXYZ")))
        chars[int(rng.choice(span))] = "Y"
        terms.append(gutzmc.PauliTerm(complex(*rng.standard_normal(2)), "".join(chars)))
    return gutzmc.PauliSum.from_terms(terms) + gutzmc.PauliSum.from_ops(
        n, {0: "Z", n - 1: "Z"}, complex(*rng.standard_normal(2)))


def expectation_records(gutzmc, np) -> list[str]:
    lines = []
    for kind, n in EXPECTATION_LATTICES:
        lattice = gutzmc.build_lattice(kind, n)
        kinetic, interaction = gutzmc.hubbard_terms(lattice, 1.0, 1.0)
        for u in EXPECTATION_U:
            hamiltonian = gutzmc.hubbard_hamiltonian(lattice, 1.0, u)
            state = gutzmc.exact_ground_state(hamiltonian, 2 * n, (n // 2, n // 2)).state
            for name, op in (("kinetic", kinetic), ("interaction", interaction)):
                value = gutzmc.expectation(state, op)
                lines.append(f"{kind}:{n} U={u} ground_state {name} {complex_hex(value)}")
    for n, sizes in EXPECTATION_REGISTERS:
        rng = np.random.default_rng(200 + n)
        op = y_bearing_operator(gutzmc, rng, n)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        states = [("register", gutzmc.StateVector(n, amps))]
        for size in sizes:
            support = np.sort(rng.choice(1 << n, size, replace=False))
            states.append((f"scattered={size}", gutzmc.SupportState(n, 0, support, amps[support])))
        for label, state in states:
            lines.append(f"{n} qubits {label} y_bearing {complex_hex(gutzmc.expectation(state, op))}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {sys.argv[0]} SRC OUT", file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve() / "src"
    if not (src / "gutzmc").is_dir():
        print(f"error: {src / 'gutzmc'} not found", file=sys.stderr)
        return 1
    out = Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 1

    # Before gutzmc loads here, and inherited by every command's interpreter.
    for var in [var for var in os.environ if var.startswith("GUTZMC_")]:
        del os.environ[var]
    os.environ["PYTHONPATH"] = str(src)

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "reference.conf"
        config.write_text(CONFIG_TEXT)
        for name, args in COMMANDS:
            print(f"== {name}: gutzmc {' '.join(args)}", flush=True)
            run = subprocess.run([sys.executable, "-m", "gutzmc.cli", *cli_argv(name, args, config)],
                                 cwd=out, stdout=subprocess.DEVNULL)
            if run.returncode:
                print(f"error: {name} exited with status {run.returncode}", file=sys.stderr)
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
        "expectation.txt": expectation_records(gutzmc, np),
    }
    for name, lines in records.items():
        (out / name).write_text("\n".join(lines) + "\n")
    print(f"{sum(map(len, records.values()))} records; "
          f"{sum(1 for _ in out.iterdir())} files in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
