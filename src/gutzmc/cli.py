"""Command-line front end: config handling, sweeps, CSV/JSON emission.

Setting precedence is flags > GUTZMC_* environment variables > config
file (flat ``key = value`` lines, '#' comments) > built-in defaults.
Every command writes a CSV (17-significant-digit cells) plus a JSON
sidecar echoing the effective configuration, seed, and generator
identity; identical config and seed reproduce the files byte for byte.
The ``mc`` and ``sweep`` sidecars also carry ``max_drift``, each chain's
largest relative gap between its tracked and rebuilt weight, keyed by
the g cell as written in the CSV.

Exit codes: 0 success, 1 usage/config error, 2 numerical check failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gutzwiller import (
    apply_gutzwiller_exact,
    full_sum_expectation,
    two_site_curves,
)
from .hadamard import BiasModel, two_site_energy_from_primitives
from .io_utils import ConfigError, format_cell, load_config_file, write_csv, write_metadata
from .lattice import Lattice, QubitLayout, build_lattice, hubbard_hamiltonian, hubbard_terms
from .lcu import success_probability_curve
from .sampler import (
    McParams,
    phase_problem_check,
    results_from_samples,
    sample_kinetic_interaction,
)
from .slater import half_filled_trial, slater_to_statevector
from .statevector import exact_ground_state, expectation
from .zz_decomp import decompose_zz, verify_variant

_OPTION_KEYS = (
    "lattice", "J", "U", "g_min", "g_max", "g_step", "nmc", "bins", "burnin",
    "seed", "backend", "shots", "reps", "bias", "out",
)

_DEFAULTS = {
    "lattice": "chain:4",
    "J": "1.0",
    "U": "1,2,3,4",
    "g_min": "0.0",
    "g_max": "2.0",
    "g_step": "0.1",
    "nmc": "20000",
    "bins": "20",
    "burnin": "auto",
    "seed": "12345",
    "backend": "determinant",
    "shots": "8192",
    "reps": "16",
    "bias": "none",
    "out": "auto",
}

_DEFAULT_OUT = {
    "two-site": "two_site.csv",
    "sweep": "sweep.csv",
    "lcu": "lcu.csv",
    "mc": "mc.csv",
    "hst-verify": "hst_verify.csv",
    "phase-check": "phase_check.csv",
}

_MC_COLUMNS = [
    "g", "U", "E_mean", "E_err", "K_mean", "K_err", "UD_mean", "UD_err",
    "acceptance", "n_mc", "seed",
]


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI uses 1."""

    def error(self, message):
        raise ConfigError(message)


def _parse_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as err:
        raise ConfigError(f"invalid number for {key}: {text!r}") from err


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as err:
        raise ConfigError(f"invalid integer for {key}: {text!r}") from err


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one command invocation."""

    command: str
    lattice_spec: str
    J: float
    u_values: tuple[float, ...]
    g_min: float
    g_max: float
    g_step: float
    nmc: int
    bins: int
    burnin: int | None
    seed: int
    backend: str
    shots: int
    reps: int
    bias: BiasModel | None
    out: str

    def g_grid(self) -> list[float]:
        if self.g_step <= 0:
            raise ConfigError(f"g-step must be positive, got {self.g_step}")
        n = int(np.floor((self.g_max - self.g_min) / self.g_step + 1e-9)) + 1
        if self.g_max < self.g_min or n < 1:
            raise ConfigError("empty g grid (g-max below g-min)")
        return [self.g_min + i * self.g_step for i in range(n)]

    def lattice(self) -> Lattice:
        kind, _, size = self.lattice_spec.partition(":")
        if not size:
            raise ConfigError(
                f"lattice spec {self.lattice_spec!r} is not of the form chain:N or ladder:N"
            )
        n = _parse_int("lattice", size)
        try:
            return build_lattice(kind, n)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def echo(self) -> dict:
        return {
            "command": self.command,
            "lattice": self.lattice_spec,
            "J": self.J,
            "U": list(self.u_values),
            "g_min": self.g_min,
            "g_max": self.g_max,
            "g_step": self.g_step,
            "nmc": self.nmc,
            "bins": self.bins,
            "burnin": self.burnin,
            "seed": self.seed,
            "backend": self.backend,
            "shots": self.shots,
            "reps": self.reps,
            "bias": None if self.bias is None else [self.bias.scale, self.bias.phase_offset],
            "out": self.out,
        }


def _resolve(command: str, strings: dict[str, str]) -> RunConfig:
    u_text = strings["U"].strip()
    if not u_text:
        raise ConfigError("U list is empty")
    u_raw = [_parse_float("U", part) for part in u_text.split(",")]
    u_values = []
    for u in u_raw:
        if u < 0:
            raise ConfigError(f"U must be nonnegative, got {u}")
        if u in u_values:
            print(f"warning: duplicate U value {u:g} ignored", file=sys.stderr)
        else:
            u_values.append(u)

    bias_text = strings["bias"].strip()
    if bias_text.lower() in ("", "none"):
        bias = None
    else:
        parts = [_parse_float("bias", p) for p in bias_text.split(",")]
        if len(parts) == 1:
            parts.append(0.0)
        if len(parts) != 2:
            raise ConfigError(f"bias must be 'scale,phase', got {bias_text!r}")
        try:
            bias = BiasModel(scale=parts[0], phase_offset=parts[1])
        except ValueError as err:
            raise ConfigError(str(err)) from err

    backend = strings["backend"]
    if backend not in ("statevector", "determinant"):
        raise ConfigError(f"backend must be statevector or determinant, got {backend!r}")

    burnin_text = strings["burnin"].strip().lower()
    burnin = None if burnin_text in ("", "auto") else _parse_int("burnin", burnin_text)

    seed = _parse_int("seed", strings["seed"])
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")

    out_text = strings["out"].strip()
    out = _DEFAULT_OUT[command] if out_text.lower() in ("", "auto") else out_text

    J = _parse_float("J", strings["J"])
    if J <= 0 and command != "hst-verify":
        raise ConfigError(f"J must be positive, got {J}")

    cfg = RunConfig(
        command=command,
        lattice_spec=strings["lattice"],
        J=J,
        u_values=tuple(u_values),
        g_min=_parse_float("g_min", strings["g_min"]),
        g_max=_parse_float("g_max", strings["g_max"]),
        g_step=_parse_float("g_step", strings["g_step"]),
        nmc=_parse_int("nmc", strings["nmc"]),
        bins=_parse_int("bins", strings["bins"]),
        burnin=burnin,
        seed=seed,
        backend=backend,
        shots=_parse_int("shots", strings["shots"]),
        reps=_parse_int("reps", strings["reps"]),
        bias=bias,
        out=out,
    )
    if cfg.shots < 0:
        raise ConfigError(f"shots must be >= 0, got {cfg.shots}")
    if cfg.reps < 1:
        raise ConfigError(f"reps must be >= 1, got {cfg.reps}")
    return cfg


def build_parser() -> _Parser:
    parser = _Parser(prog="gutzmc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    specs = {
        "two-site": "closed-form, assembled, and shot-sampled two-site curves",
        "sweep": "MC energy sweep with oracle routes where feasible",
        "lcu": "success-probability tables for the ancilla preparation",
        "mc": "Monte Carlo energies over the (g, U) grid",
        "hst-verify": "verify the catalog of two-qubit decompositions",
        "phase-check": "exhaustive weight positivity scan",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--lattice", default=None, help="chain:N or ladder:N")
        p.add_argument("--J", default=None, help="hopping amplitude")
        p.add_argument("--U", default=None, help="comma-separated interaction strengths")
        p.add_argument("--g-min", dest="g_min", default=None)
        p.add_argument("--g-max", dest="g_max", default=None)
        p.add_argument("--g-step", dest="g_step", default=None)
        p.add_argument("--nmc", default=None, help="measurement sweeps per point")
        p.add_argument("--bins", default=None, help="error-analysis bins")
        p.add_argument("--burnin", default=None, help="burn-in sweeps ('auto' = max(500, nmc/10))")
        p.add_argument("--seed", default=None, help="master RNG seed")
        p.add_argument("--backend", default=None, help="statevector or determinant")
        p.add_argument("--shots", default=None, help="shots per primitive (0 disables sampling)")
        p.add_argument("--reps", default=None, help="independent repetitions for error bars")
        p.add_argument("--bias", default=None, help="synthetic bias 'scale,phase' ('none' disables)")
        p.add_argument("--out", default=None, help="output CSV path")
    return parser


def merge_settings(args: argparse.Namespace) -> tuple[RunConfig, set[str]]:
    """Apply flag > environment > config file > default precedence."""
    strings = dict(_DEFAULTS)
    provided: set[str] = set()
    if args.config is not None:
        for key, value in load_config_file(args.config).items():
            if key not in _OPTION_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            strings[key] = value
            provided.add(key)
    for key in _OPTION_KEYS:
        env = os.environ.get(f"GUTZMC_{key.upper()}")
        if env is not None:
            strings[key] = env
            provided.add(key)
    for key in _OPTION_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            strings[key] = flag
            provided.add(key)
    return _resolve(args.command, strings), provided


def _mc_point(cfg: RunConfig, lattice: Lattice, g_index: int, g: float):
    """CSV rows for one g point, and the chain's max_drift."""
    point_seed = cfg.seed + 1000003 * g_index
    mc_params = McParams(
        n_sweeps=cfg.nmc,
        n_burnin=cfg.burnin,
        n_bins=cfg.bins,
        rng_seed=point_seed,
        backend=cfg.backend,
    )
    samples = sample_kinetic_interaction(lattice, cfg.J, g, mc_params)
    rows = []
    for u in cfg.u_values:
        energy, kinetic, interaction = results_from_samples(samples, u)
        rows.append([
            g, u, energy.mean, energy.stderr, kinetic.mean, kinetic.stderr,
            interaction.mean, interaction.stderr, samples.acceptance_rate,
            cfg.nmc, point_seed,
        ])
    return rows, samples.max_drift


def _check_mc_limits(cfg: RunConfig, lattice: Lattice) -> None:
    if lattice.n_sites > 12:
        raise ConfigError(f"MC supports at most 12 sites, got {lattice.n_sites}")
    if cfg.backend == "statevector" and lattice.n_sites > 8:
        raise ConfigError("statevector backend supports at most 8 sites")
    try:
        McParams(n_sweeps=cfg.nmc, n_burnin=cfg.burnin, n_bins=cfg.bins,
                 rng_seed=cfg.seed, backend=cfg.backend)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def cmd_mc(cfg: RunConfig, provided: set[str]) -> int:
    lattice = cfg.lattice()
    _check_mc_limits(cfg, lattice)
    rows = []
    drifts: dict = {}
    for gi, g in enumerate(cfg.g_grid()):
        point_rows, drifts[format_cell(g)] = _mc_point(cfg, lattice, gi, g)
        rows.extend(point_rows)
    write_csv(cfg.out, _MC_COLUMNS, rows)
    write_metadata(cfg.out, {"config": cfg.echo(), "seed": cfg.seed, "max_drift": drifts})
    return 0


def cmd_sweep(cfg: RunConfig, provided: set[str]) -> int:
    lattice = cfg.lattice()
    _check_mc_limits(cfg, lattice)
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
        point_rows, drifts[format_cell(g)] = _mc_point(cfg, lattice, gi, g)
        rows.extend(["mc"] + row for row in point_rows)
        if n <= 7:
            k_val = full_sum_expectation(kinetic_op, g, trial_sv, layout)
            d_val = full_sum_expectation(interaction_op, g, trial_sv, layout)
            for u in cfg.u_values:
                rows.append(["fullsum", g, u, k_val + u * d_val, 0.0, k_val, 0.0,
                             u * d_val, 0.0, 0.0, 0, cfg.seed])
        if trial_sv is not None:
            projected = apply_gutzwiller_exact(trial_sv, g, interaction_op).normalized()
            k_val = expectation(projected, kinetic_op).real
            d_val = expectation(projected, interaction_op).real
            for u in cfg.u_values:
                rows.append(["exact-gutzwiller", g, u, k_val + u * d_val, 0.0, k_val,
                             0.0, u * d_val, 0.0, 0.0, 0, cfg.seed])

    meta: dict = {"config": cfg.echo(), "seed": cfg.seed, "max_drift": drifts}
    if n <= 8:
        sector = ((n + 1) // 2, n // 2)
        meta["exact_ground_energy"] = {
            "%g" % u: exact_ground_state(
                hubbard_hamiltonian(lattice, cfg.J, u), layout.n_register, sector
            ).energy
            for u in cfg.u_values
        }
    write_csv(cfg.out, ["method"] + _MC_COLUMNS, rows)
    write_metadata(cfg.out, meta)
    return 0


def cmd_two_site(cfg: RunConfig, provided: set[str]) -> int:
    grid = cfg.g_grid()
    header = ["method", "g", "U", "E", "E_err", "K", "K_err", "UD", "UD_err"]
    rows = []
    primitive_rows = []
    minima = {}
    for ui, u in enumerate(cfg.u_values):
        curves = two_site_curves(cfg.J, u, np.array(grid))
        minima["%g" % u] = {
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
                for name, raw_v, pas_v, exact_v in (
                    ("denominator", raw.primitives_raw.denominator,
                     pas.primitives.denominator, exact_est.primitives_exact.denominator),
                    ("zz_numerator", raw.primitives_raw.zz_numerator,
                     pas.primitives.zz_numerator, exact_est.primitives_exact.zz_numerator),
                    ("xx_numerator", raw.primitives_raw.xx_numerator,
                     pas.primitives.xx_numerator, exact_est.primitives_exact.xx_numerator),
                ):
                    primitive_rows.append([g, name, raw_v, pas_v, exact_v])

    write_csv(cfg.out, header, rows)
    write_metadata(cfg.out, {"config": cfg.echo(), "seed": cfg.seed,
                             "analytic_minimum": minima})
    if primitive_rows:
        out = Path(cfg.out)
        prim_path = out.with_name(out.stem + "_primitives" + (out.suffix or ".csv"))
        write_csv(prim_path, ["g", "quantity", "raw", "mitigated", "exact"], primitive_rows)
        write_metadata(prim_path, {"config": cfg.echo(), "seed": cfg.seed})
    return 0


def cmd_lcu(cfg: RunConfig, provided: set[str]) -> int:
    grid = np.array(cfg.g_grid())
    if "lattice" in provided:
        lattices = [cfg.lattice()]
    else:
        lattices = [build_lattice("chain", n) for n in (2, 4, 6, 8, 10, 12)]
    rows = []
    for lattice in lattices:
        for n_site, g, p in success_probability_curve(lattice, grid):
            rows.append([n_site, g, p, float(np.log(p))])
    write_csv(cfg.out, ["N_site", "g", "p", "log_p"], rows)
    write_metadata(cfg.out, {"config": cfg.echo(), "seed": cfg.seed,
                             "lattices": [lat.kind + ":" + str(lat.n_sites) for lat in lattices]})
    return 0


def cmd_hst_verify(cfg: RunConfig, provided: set[str]) -> int:
    couplings = [cfg.J] if "J" in provided else [0.1, 0.5, 2.0, -0.1, -0.5, -2.0]
    rows = []
    worst = 0.0
    for coupling in couplings:
        for variant in decompose_zz(coupling):
            deviation = verify_variant(variant, coupling)
            worst = max(worst, deviation)
            rows.append([variant.label, coupling, variant.gamma, variant.alpha, deviation])
    write_csv(cfg.out, ["variant", "J", "gamma", "alpha", "max_deviation"], rows)
    write_metadata(cfg.out, {"config": cfg.echo(), "seed": cfg.seed,
                             "worst_deviation": worst})
    print(f"{len(rows)} decompositions verified, worst deviation {worst:.3e}")
    return 0 if worst < 1e-12 else 2


def cmd_phase_check(cfg: RunConfig, provided: set[str]) -> int:
    lattice = cfg.lattice()
    if lattice.n_sites > 5:
        raise ConfigError(
            f"phase check enumerates 4^N configs; {lattice.n_sites} sites is above the 5-site cap"
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
    write_csv(cfg.out, ["n_sites", "g", "n_configs", "max_imag", "min_real", "passed"], rows)
    write_metadata(cfg.out, {"config": cfg.echo(), "seed": cfg.seed,
                             "all_passed": all_passed})
    status = "pass" if all_passed else "FAIL"
    print(f"phase check on {cfg.lattice_spec}: {status} over {len(g_values)} g values")
    return 0 if all_passed else 2


_COMMANDS = {
    "two-site": cmd_two_site,
    "sweep": cmd_sweep,
    "lcu": cmd_lcu,
    "mc": cmd_mc,
    "hst-verify": cmd_hst_verify,
    "phase-check": cmd_phase_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        cfg, provided = merge_settings(args)
        return _COMMANDS[args.command](cfg, provided)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ArithmeticError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
