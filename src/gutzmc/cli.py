"""Command-line front end: config handling, sweeps, CSV/JSON emission.

Setting precedence is flags > GUTZMC_* environment variables > config
file (flat ``key = value`` lines, '#' comments) > built-in defaults.
Every command returns its tables and writes nothing; ``main`` writes
each as a CSV (17-significant-digit cells) plus a JSON sidecar echoing
the effective configuration, seed, and generator identity, so a command
that raises leaves no file.  Identical config and seed reproduce the
files byte for byte at a fixed BLAS thread count; the reference gate pins
OPENBLAS_NUM_THREADS=1 (ROADMAP item 10).
The ``mc`` and ``sweep`` sidecars also carry ``max_drift``, each chain's
largest relative gap between a sweep's tracked weight and its
from-scratch value, keyed by the g cell as written in the CSV; per-U
entries (``exact_ground_energy``, ``analytic_minimum``) are keyed by the
U cell the same way.  An ``--out`` ending in ``.json`` is a config error,
since the sidecar would replace the CSV, and so is one with no file name.
Before the first write ``main`` checks every output path, so a CSV or
sidecar path that names a directory leaves no file either.

Exit codes: 0 success, 1 usage/config error (a lattice whose half-filled
shell is degenerate included), 2 numerical check failure (any floating
overflow, invalid operation, division by zero or failed eigensolve included).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .gutzwiller import (
    FULL_SUM_MAX_SITES,
    apply_gutzwiller_exact,
    full_sum_expectation,
    two_site_curves,
)
from .hadamard import BiasModel, two_site_energy_from_primitives
from .io_utils import (
    ConfigError,
    format_cell,
    load_config_file,
    sidecar_path,
    write_csv,
    write_metadata,
)
from .lattice import Lattice, QubitLayout, build_lattice, hubbard_hamiltonian, hubbard_terms
from .lcu import success_probability_curve
from .sampler import (
    BACKENDS,
    PHASE_CHECK_MAX_SITES,
    STATEVECTOR_MAX_SITES,
    McParams,
    phase_problem_check,
    results_from_samples,
    sample_kinetic_interaction,
)
from .slater import DegenerateFillingError, half_filled_trial, slater_to_statevector
from .statevector import exact_ground_state, expectation
from .zz_decomp import decompose_zz, verify_variant

_MC_COLUMNS = [
    "g", "U", "E_mean", "E_err", "K_mean", "K_err", "UD_mean", "UD_err",
    "acceptance", "n_mc", "seed",
]


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI uses 1."""

    def error(self, message):
        raise ConfigError(message)


def _number(kind: type, minimum: float | None = None):
    """Parser for a finite int or float, optionally bounded below."""

    def parse(key: str, text: str):
        try:
            value = kind(text)
        except ValueError as err:
            name = "integer" if kind is int else "number"
            raise ConfigError(f"invalid {name} for {key}: {text!r}") from err
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {text!r}")
        if minimum is not None and value < minimum:
            bound = "nonnegative" if minimum == 0 else f">= {minimum}"
            raise ConfigError(f"{key} must be {bound}, got {value}")
        return value

    return parse


def _unless(word: str, parse):
    """Blank text or ``word`` (any case) resolves to None; else ``parse``."""

    def parse_or_none(key: str, text: str):
        text = text.strip()
        return None if text.lower() in ("", word) else parse(key, text)

    return parse_or_none


def _positive(key: str, text: str) -> float:
    value = _number(float)(key, text)
    if value <= 0:
        raise ConfigError(f"{key} must be positive, got {value}")
    return value


def _verbatim(key: str, text: str) -> str:
    return text


# Largest lattice any command accepts, checked before the lattice is built.
# lcu's closed form holds every occupation's determinant at once: ~370 MB
# at 20 sites, ~1.5 GB at 22 and ~6.4 GB at 24.
MAX_LATTICE_SITES = 20


def _lattice_spec(key: str, text: str) -> str:
    """The spec text itself, once it names a lattice build_lattice accepts."""
    kind, _, size = text.partition(":")
    if not size:
        raise ConfigError(f"lattice spec {text!r} is not of the form chain:N or ladder:N")
    n_sites = _number(int)(key, size)
    if n_sites > MAX_LATTICE_SITES:
        raise ConfigError(f"gutzmc supports at most {MAX_LATTICE_SITES} sites, got {n_sites}")
    try:
        build_lattice(kind, n_sites)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return text


def _u_list(key: str, text: str) -> tuple[float, ...]:
    if not text.strip():
        raise ConfigError("U list is empty")
    parse = _number(float, 0)
    values: list[float] = []
    for u in (parse(key, part) for part in text.split(",")):
        if u in values:
            print(f"warning: duplicate U value {u:g} ignored", file=sys.stderr)
        else:
            values.append(u)
    return tuple(values)


def _backend(key: str, text: str) -> str:
    if text not in BACKENDS:
        raise ConfigError(f"backend must be {' or '.join(BACKENDS)}, got {text!r}")
    return text


def _bias(key: str, text: str) -> BiasModel:
    parts = [_number(float)(key, part) for part in text.split(",")]
    if len(parts) == 1:
        parts.append(0.0)
    if len(parts) != 2:
        raise ConfigError(f"bias must be 'scale,phase', got {text!r}")
    try:
        return BiasModel(scale=parts[0], phase_offset=parts[1])
    except ValueError as err:
        raise ConfigError(str(err)) from err


class Option(NamedTuple):
    default: str
    help: str
    parse: Callable[[str, str], object]


# One entry per setting, in --help order.  The key is the config-file key
# and the RunConfig attribute; the flag is --key with '_' as '-', and the
# environment variable is GUTZMC_KEY.
OPTIONS = {
    "lattice": Option("chain:4", "chain:N or ladder:N", _lattice_spec),
    "J": Option("1.0", "hopping amplitude", _number(float)),
    "U": Option("1,2,3,4", "comma-separated interaction strengths", _u_list),
    "g_min": Option("0.0", "first g of the grid (>= 0)", _number(float, 0)),
    "g_max": Option("2.0", "last g of the grid", _number(float)),
    "g_step": Option("0.1", "g grid spacing (> 0)", _positive),
    "nmc": Option("20000", "measurement sweeps per point", _number(int)),
    "bins": Option("20", "error-analysis bins", _number(int)),
    "burnin": Option("auto", "burn-in sweeps ('auto' = max(500, nmc/10))",
                     _unless("auto", _number(int))),
    "seed": Option("12345", "master RNG seed", _number(int, 0)),
    "backend": Option("determinant", " or ".join(BACKENDS), _backend),
    "shots": Option("8192", "shots per primitive (0 disables sampling)", _number(int, 0)),
    "reps": Option("16", "independent repetitions for error bars", _number(int, 1)),
    "bias": Option("none", "synthetic bias 'scale,phase' ('none' disables)",
                   _unless("none", _bias)),
    "out": Option("auto", "output CSV path ('auto' = the command's default name)",
                  _unless("auto", _verbatim)),
}


# Largest g grid any command accepts.
MAX_G_POINTS = 10_000


class RunConfig(SimpleNamespace):
    """Fully resolved settings: ``command`` plus one attribute per OPTIONS key."""

    def g_grid(self) -> list[float]:
        if self.g_max < self.g_min:
            raise ConfigError("empty g grid (g-max below g-min)")
        span = (self.g_max - self.g_min) / self.g_step + 1e-9
        if not span < MAX_G_POINTS:  # also an overflow to inf
            raise ConfigError(f"g grid has more than {MAX_G_POINTS} points")
        return [self.g_min + i * self.g_step for i in range(int(np.floor(span)) + 1)]

    def build_lattice(self) -> Lattice:
        kind, _, size = self.lattice.partition(":")
        return build_lattice(kind, int(size))

    def echo(self) -> dict:
        config = dict(vars(self))
        if self.bias is not None:
            config["bias"] = [self.bias.scale, self.bias.phase_offset]
        return config


def _resolve(command: str, strings: dict[str, str]) -> RunConfig:
    cfg = RunConfig(command=command,
                    **{key: opt.parse(key, strings[key]) for key, opt in OPTIONS.items()})
    if cfg.out is None:
        cfg.out = COMMANDS[command].out
    if not Path(cfg.out).name or sidecar_path(cfg.out) == Path(cfg.out):
        raise ConfigError(f"--out {cfg.out} names no file apart from its .json sidecar")
    if cfg.out.endswith(("/", os.sep)) or Path(cfg.out).is_dir():
        raise ConfigError(f"--out {cfg.out} names a directory, not a CSV file")
    if cfg.J <= 0 and command != "hst-verify":
        raise ConfigError(f"J must be positive, got {cfg.J}")
    return cfg


def build_parser() -> _Parser:
    width = max(map(len, COMMANDS)) + 2
    commands = "".join(f"  {name:<{width}}{command.help}\n" for name, command in COMMANDS.items())
    parser = _Parser(prog="gutzmc", description=__doc__.splitlines()[0],
                     epilog="commands:\n" + commands,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", help="flat key=value config file")
    for key, opt in OPTIONS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            help=f"{opt.help} [default: {opt.default}]")
    return parser


def merge_settings(args: argparse.Namespace) -> tuple[RunConfig, set[str]]:
    """Apply flag > environment > config file > default precedence."""
    strings = {key: opt.default for key, opt in OPTIONS.items()}
    provided: set[str] = set()
    from_file = load_config_file(args.config) if args.config is not None else {}
    for key in from_file:
        if key not in OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
    from_env = {key: os.environ.get(f"GUTZMC_{key.upper()}") for key in OPTIONS}
    from_flags = {key: getattr(args, key, None) for key in OPTIONS}
    for layer in (from_file, from_env, from_flags):
        for key, value in layer.items():
            if value is not None:
                strings[key] = value
                provided.add(key)
    return _resolve(args.command, strings), provided


class Table(NamedTuple):
    """One output file: CSV path, header and rows, and the sidecar's own keys."""

    path: str | Path
    header: list[str]
    rows: list
    meta: dict


def _mc_point(cfg: RunConfig, lattice: Lattice, params: McParams, g_index: int, g: float):
    """CSV rows for one g point, and the chain's max_drift."""
    point_seed = cfg.seed + 1000003 * g_index
    samples = sample_kinetic_interaction(lattice, cfg.J, g, replace(params, rng_seed=point_seed))
    rows = []
    for u in cfg.U:
        energy, kinetic, interaction = results_from_samples(samples, u)
        rows.append([
            g, u, energy.mean, energy.stderr, kinetic.mean, kinetic.stderr,
            interaction.mean, interaction.stderr, samples.acceptance_rate,
            cfg.nmc, point_seed,
        ])
    return rows, samples.max_drift


def _mc_params(cfg: RunConfig, lattice: Lattice) -> McParams:
    """Chain parameters shared by every g point, after the MC size checks."""
    if lattice.n_sites > 12:
        raise ConfigError(f"MC supports at most 12 sites, got {lattice.n_sites}")
    if cfg.backend == "statevector" and lattice.n_sites > STATEVECTOR_MAX_SITES:
        raise ConfigError(f"statevector backend supports at most {STATEVECTOR_MAX_SITES} sites")
    try:
        return McParams(n_sweeps=cfg.nmc, n_burnin=cfg.burnin, n_bins=cfg.bins,
                        backend=cfg.backend)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def cmd_mc(cfg: RunConfig, provided: set[str]) -> tuple[int, list[Table]]:
    lattice = cfg.build_lattice()
    params = _mc_params(cfg, lattice)
    rows = []
    drifts: dict = {}
    for gi, g in enumerate(cfg.g_grid()):
        point_rows, drifts[format_cell(g)] = _mc_point(cfg, lattice, params, gi, g)
        rows.extend(point_rows)
    return 0, [Table(cfg.out, _MC_COLUMNS, rows, {"max_drift": drifts})]


def cmd_sweep(cfg: RunConfig, provided: set[str]) -> tuple[int, list[Table]]:
    lattice = cfg.build_lattice()
    params = _mc_params(cfg, lattice)
    grid = cfg.g_grid()
    n = lattice.n_sites
    layout = QubitLayout(n)
    kinetic_op, interaction_op = hubbard_terms(lattice, cfg.J, 1.0)
    trial_sv = None
    if n <= 10:
        trial = half_filled_trial(lattice)
        trial_sv = slater_to_statevector(trial.up, trial.down, layout)

    rows = []
    drifts: dict = {}
    for gi, g in enumerate(grid):
        point_rows, drifts[format_cell(g)] = _mc_point(cfg, lattice, params, gi, g)
        rows.extend(["mc"] + row for row in point_rows)
        oracles = []  # (method, K, D) of each exact route that fits
        if n <= FULL_SUM_MAX_SITES:
            oracles.append(("fullsum", full_sum_expectation(kinetic_op, g, trial_sv, layout),
                            full_sum_expectation(interaction_op, g, trial_sv, layout)))
        if trial_sv is not None:
            projected = apply_gutzwiller_exact(trial_sv, g, interaction_op).normalized()
            oracles.append(("exact-gutzwiller", expectation(projected, kinetic_op).real,
                            expectation(projected, interaction_op).real))
        for method, k_val, d_val in oracles:
            for u in cfg.U:
                rows.append([method, g, u, k_val + u * d_val, 0.0, k_val, 0.0,
                             u * d_val, 0.0, 0.0, 0, cfg.seed])

    meta: dict = {"max_drift": drifts}
    if n <= 8:
        sector = (trial.up.n_particles, trial.down.n_particles)
        meta["exact_ground_energy"] = {
            format_cell(u): exact_ground_state(
                hubbard_hamiltonian(lattice, cfg.J, u), layout.n_register, sector
            ).energy
            for u in cfg.U
        }
    return 0, [Table(cfg.out, ["method"] + _MC_COLUMNS, rows, meta)]


def cmd_two_site(cfg: RunConfig, provided: set[str]) -> tuple[int, list[Table]]:
    if cfg.shots and cfg.reps < 2:
        raise ConfigError(f"reps must be at least 2 with shots (the error bars are their "
                          f"spread), got {cfg.reps}")
    grid = cfg.g_grid()
    header = ["method", "g", "U", "E", "E_err", "K", "K_err", "UD", "UD_err"]
    rows = []
    primitive_rows = []
    minima = {}
    for ui, u in enumerate(cfg.U):
        curves = two_site_curves(cfg.J, u, np.array(grid))
        minima[format_cell(u)] = {
            "g_at_grid_minimum": grid[int(np.argmin(curves.E))],
            "g_opt": curves.g_opt,
            "E_opt": curves.E_opt,
        }
        for gi, g in enumerate(grid):
            rows.append(["analytic", g, u, curves.E[gi], 0.0, curves.K[gi], 0.0,
                         curves.UD[gi], 0.0])
            exact_est = two_site_energy_from_primitives(g, cfg.J, u)
            rows.append(["assembly", g, u, exact_est.E, 0.0, exact_est.K, 0.0,
                         exact_est.UD, 0.0])
            if cfg.shots == 0:
                continue
            raw = two_site_energy_from_primitives(
                g, cfg.J, u, shots=cfg.shots, reps=cfg.reps, bias=cfg.bias,
                rng=np.random.default_rng([cfg.seed, ui, gi, 0]), mitigate=False,
            )
            rows.append(["shots-raw", g, u, raw.E, raw.E_err, raw.K, raw.K_err,
                         raw.UD, raw.UD_err])
            pas = two_site_energy_from_primitives(
                g, cfg.J, u, shots=cfg.shots, reps=cfg.reps, bias=cfg.bias,
                rng=np.random.default_rng([cfg.seed, ui, gi, 1]), mitigate=True,
            )
            rows.append(["shots-pas", g, u, pas.E, pas.E_err, pas.K, pas.K_err,
                         pas.UD, pas.UD_err])
            if ui == 0:
                sources = (raw.primitives, pas.primitives, exact_est.primitives)
                for name in ("denominator", "zz_numerator", "xx_numerator"):
                    primitive_rows.append([g, name, *(getattr(p, name) for p in sources)])

    tables = [Table(cfg.out, header, rows, {"analytic_minimum": minima})]
    if primitive_rows:
        out = Path(cfg.out)
        tables.append(Table(out.with_name(out.stem + "_primitives" + (out.suffix or ".csv")),
                            ["g", "quantity", "raw", "mitigated", "exact"], primitive_rows, {}))
    return 0, tables


def cmd_lcu(cfg: RunConfig, provided: set[str]) -> tuple[int, list[Table]]:
    grid = np.array(cfg.g_grid())
    if "lattice" in provided:
        lattices = [cfg.build_lattice()]
    else:
        lattices = [build_lattice("chain", n) for n in (2, 4, 6, 8, 10, 12)]
    rows = []
    for lattice in lattices:
        for n_site, g, p in success_probability_curve(lattice, grid):
            rows.append([n_site, g, p, float(np.log(p))])
    names = [lat.kind + ":" + str(lat.n_sites) for lat in lattices]
    return 0, [Table(cfg.out, ["N_site", "g", "p", "log_p"], rows, {"lattices": names})]


def cmd_hst_verify(cfg: RunConfig, provided: set[str]) -> tuple[int, list[Table]]:
    couplings = [cfg.J] if "J" in provided else [0.1, 0.5, 2.0, -0.1, -0.5, -2.0]
    rows = []
    worst = 0.0
    passed = True
    for coupling in couplings:
        # roundoff scales with the target's largest entry, e^{|J|} >= 1
        tolerance = 1e-12 * np.exp(abs(coupling))
        for variant in decompose_zz(coupling):
            deviation = verify_variant(variant, coupling)
            worst = max(worst, deviation)
            passed = passed and deviation < tolerance
            rows.append([variant.label, coupling, variant.gamma, variant.alpha, deviation])
    print(f"{len(rows)} decompositions verified, worst deviation {worst:.3e}")
    header = ["variant", "J", "gamma", "alpha", "max_deviation"]
    return (0 if passed else 2), [Table(cfg.out, header, rows, {"worst_deviation": worst})]


def cmd_phase_check(cfg: RunConfig, provided: set[str]) -> tuple[int, list[Table]]:
    lattice = cfg.build_lattice()
    if lattice.n_sites > PHASE_CHECK_MAX_SITES:
        raise ConfigError(
            f"phase check enumerates 4^N configs; {lattice.n_sites} sites is above "
            f"the {PHASE_CHECK_MAX_SITES}-site cap"
        )
    if provided & {"g_min", "g_max", "g_step"}:
        g_values = cfg.g_grid()
    else:
        g_values = [0.5, 1.0, 2.0]
    rows = []
    all_passed = True
    for g in g_values:
        report = phase_problem_check(lattice, g)
        all_passed = all_passed and report.passed
        rows.append([report.n_sites, g, report.n_configs, report.max_imag,
                     report.min_real, report.passed])
    status = "pass" if all_passed else "FAIL"
    print(f"phase check on {cfg.lattice}: {status} over {len(g_values)} g values")
    header = ["n_sites", "g", "n_configs", "max_imag", "min_real", "passed"]
    return (0 if all_passed else 2), [Table(cfg.out, header, rows, {"all_passed": all_passed})]


class Command(NamedTuple):
    run: Callable[[RunConfig, set[str]], tuple[int, list[Table]]]
    help: str
    out: str


COMMANDS = {
    "two-site": Command(cmd_two_site, "closed-form, assembled, and shot-sampled two-site curves",
                        "two_site.csv"),
    "sweep": Command(cmd_sweep, "MC energy sweep with oracle routes where feasible", "sweep.csv"),
    "lcu": Command(cmd_lcu, "success-probability tables for the ancilla preparation", "lcu.csv"),
    "mc": Command(cmd_mc, "Monte Carlo energies over the (g, U) grid", "mc.csv"),
    "hst-verify": Command(cmd_hst_verify, "verify the catalog of two-qubit decompositions",
                          "hst_verify.csv"),
    "phase-check": Command(cmd_phase_check, "exhaustive weight positivity scan",
                           "phase_check.csv"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        cfg, provided = merge_settings(args)
        # An overflow or NaN anywhere is a numerical failure, not a result.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            code, tables = COMMANDS[args.command].run(cfg, provided)
        # all files or none: a path that names a directory fails before any write
        for path in (p for t in tables for p in (Path(t.path), sidecar_path(t.path))):
            if path.is_dir():
                raise ConfigError(f"output {path} names a directory, not a file")
        for path, header, rows, meta in tables:
            write_csv(path, header, rows)
            write_metadata(path, {"config": cfg.echo(), "seed": cfg.seed, **meta})
        return code
    except (ConfigError, DegenerateFillingError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ArithmeticError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
