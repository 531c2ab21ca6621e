"""The benchmark's workloads: set-up, one round of the fixed job, and checks.

Each workload object is built from the workload seed alone; it then runs
identical rounds (round ``r`` draws its random inputs from ``(seed, r)``)
and afterwards checks every operation of every round against an
independent exact route.  An operation is one g point, one oracle call or
one CLI command; it fails when it raises, returns a non-finite value,
exits nonzero, or misses its check by a gross margin.

The sampler's <D> estimator is a ratio whose denominator weight can come
near zero, so its chain means are heavy-tailed: a few hundred sweeps can
land outside the physical range [-N/4, N/4].  A gross miss of a <D> mean is
therefore reported as a defect and tallied (``sampler.d_gross``) instead of
failing the operation; pulls beyond 3 sigma are tallied too.  Where the
bins are at hand, their median, which the tail does not move, must still
meet the gross margin.  <K> means are well behaved and must meet it.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import hostspeed
from gutzmc import cli, gutzwiller, lattice, lcu, sampler, slater, statevector

J = 1.0
U_STDERR = 4.0          # U at which sampler.stderr_E.max is read
PULL_ROUNDS = 2         # sampler statistics are tallied over rounds 0 and 1 only
EXACT_TOL = 1e-8        # agreement between two exact routes


@dataclass
class Op:
    """One attempted operation of a round."""

    round: int
    label: str
    check: Callable[["Op", "Report"], None]
    value: object = None
    error: str | None = None
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    slowness: float = 1.0
    misses: list[str | None] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or any(self.misses)


@dataclass
class Report:
    """Sampler statistics gathered by the checks."""

    pulls: list[float] = field(default_factory=list)
    stderr_e: list[float] = field(default_factory=list)
    time_x_var: list[float] = field(default_factory=list)
    defects: list[str] = field(default_factory=list)
    d_gross: int = 0

    def d_estimate(self, op: Op, mean: float, exact: float, margin: float) -> None:
        """Record a gross miss of a <D> mean as a defect, not a failure."""
        miss = _gross("<D> mean", mean, exact, margin)
        if miss:
            self.defects.append(f"{op.label}: {miss}")
            if op.round < PULL_ROUNDS:
                self.d_gross += 1


class _Gauge:
    """The host's slowness, read between operations: each reading serves
    the operation before it and the one after it."""

    def __init__(self) -> None:
        self.last: float | None = None

    def before(self) -> float:
        if self.last is None:
            self.last = hostspeed.warm_up()
        return self.last

    def after(self) -> float:
        self.last = hostspeed.slowness()
        return self.last


_GAUGE = _Gauge()


def _attempt(round_index: int, label: str, check, fn) -> Op:
    """Run one operation; ``check(op, report)`` verifies it after the rounds."""
    slowness = _GAUGE.before()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        op = Op(round_index, label, check, fn())
    except Exception as err:  # a failed operation is counted, the run goes on
        op = Op(round_index, label, check, error=f"{type(err).__name__}: {err}")
    op.seconds = time.perf_counter() - wall0
    op.cpu_seconds = time.process_time() - cpu0
    op.slowness = (slowness + _GAUGE.after()) / 2
    return op


def _round_seed(seed: int, round_index: int, index: int = 0) -> int:
    return int(np.random.SeedSequence([seed, round_index, index]).generate_state(1)[0])


def _free_fermion(lat: lattice.Lattice) -> tuple[float, float]:
    """Ground energy of the hopping term at half filling and the trial's <D>.

    Computed from the hopping matrix alone, independently of the slater,
    statevector and pauli modules.
    """
    levels, orbitals = np.linalg.eigh(lattice.hopping_matrix(lat, J))
    n_up, n_down = (lat.n_sites + 1) // 2, lat.n_sites // 2
    dens_up = np.sum(np.abs(orbitals[:, :n_up]) ** 2, axis=1)
    dens_down = np.sum(np.abs(orbitals[:, :n_down]) ** 2, axis=1)
    energy = float(levels[:n_up].sum() + levels[:n_down].sum())
    return energy, float(np.sum((dens_up - 0.5) * (dens_down - 0.5)))


class _ProjectionOracle:
    """Exact-projection <K> and <D> per (lattice, g), computed once each."""

    def __init__(self) -> None:
        self._cache: dict = {}

    def __call__(self, lat: lattice.Lattice, g: float) -> tuple[float, float]:
        key = (lat, g)
        if key not in self._cache:
            layout = lattice.QubitLayout(lat.n_sites)
            kinetic, interaction = lattice.hubbard_terms(lat, J, 1.0)
            trial = slater.half_filled_trial(lat)
            psi = slater.slater_to_statevector(trial.up, trial.down, layout)
            projected = gutzwiller.apply_gutzwiller_exact(psi, g, interaction).normalized()
            self._cache[key] = (statevector.expectation(projected, kinetic).real,
                                statevector.expectation(projected, interaction).real)
        return self._cache[key]


def _gross(what: str, value: float, exact: float, margin: float) -> str | None:
    if not math.isfinite(value) or abs(value - exact) > margin:
        return f"{what} {value!r} misses exact {exact!r} by more than {margin:g}"
    return None


class McDesk:
    """Determinant-engine Metropolis chains above the N<=6 memo cut-off."""

    n_sweeps, n_burnin, n_bins = 400, 100, 10

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        sizes = ([("chain", 8, (0.8,))] if smoke else
                 [("chain", 10, (0.5, 1.0)), ("ladder", 8, (0.5, 1.0, 1.5)),
                  ("chain", 12, (1.0,))])
        self.points = [(lattice.build_lattice(kind, n), g)
                       for kind, n, gs in sizes for g in gs]
        self.oracle = _ProjectionOracle()

    def run_round(self, r: int) -> list[Op]:
        ops = []
        for i, (lat, g) in enumerate(self.points):
            params = sampler.McParams(n_sweeps=self.n_sweeps, n_burnin=self.n_burnin,
                                      n_bins=self.n_bins, rng_seed=_round_seed(self.seed, r, i))
            ops.append(_attempt(r, f"mc {lat.kind}:{lat.n_sites} g={g:g} round {r}", self.check,
                                lambda: (lat, g, sampler.sample_kinetic_interaction(
                                    lat, J, g, params))))
        return ops

    def check(self, op: Op, report: Report) -> None:
        lat, g, samples = op.value
        if not (np.all(np.isfinite(samples.k_bins)) and np.all(np.isfinite(samples.d_bins))):
            op.misses.append("non-finite bins")
            return
        margin = lat.n_sites / 4
        d_exact = lcu.exact_double_occupancy(lat, g)
        op.misses.append(_gross("<D> bin median", float(np.median(samples.d_bins)), d_exact,
                                margin))
        report.d_estimate(op, float(np.mean(samples.d_bins)), d_exact, margin)
        compared = [(samples.d_bins, d_exact)]
        if lat.n_sites <= 10:
            k_exact = self.oracle(lat, g)[0]
            op.misses.append(_gross("<K>", float(np.mean(samples.k_bins)), k_exact, margin))
            compared.append((samples.k_bins, k_exact))
        for bins, exact in compared:
            stderr = float(np.std(bins, ddof=1) / np.sqrt(bins.size))
            if op.round < PULL_ROUNDS and stderr > 0:
                report.pulls.append(abs(float(np.mean(bins)) - exact) / stderr)
        if op.round < PULL_ROUNDS:
            stderr_e = sampler.results_from_samples(samples, U_STDERR)[0].stderr
            report.stderr_e.append(stderr_e)
            report.time_x_var.append(op.seconds * stderr_e**2)


class OracleDesk:
    """The exact statevector, pauli, gutzwiller and lcu routes at desk scale."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        ed_n, proj_n, sum_n, circ_n = (6, 4, 4, 2) if smoke else (8, 10, 6, 6)
        self.weight_sizes = (4, 6) if smoke else (12, 14)
        self.ed_lattice = lattice.build_lattice("ladder", ed_n)
        self.proj_lattice = lattice.build_lattice("chain", proj_n)
        self.sum_lattice = lattice.build_lattice("chain", sum_n)
        self.circ_lattice = lattice.build_lattice("chain", circ_n)
        self.ed_terms = lattice.hubbard_terms(self.ed_lattice, J, 1.0)
        self.proj_terms = lattice.hubbard_terms(self.proj_lattice, J, 1.0)
        self.sum_terms = lattice.hubbard_terms(self.sum_lattice, J, 1.0)
        self.layouts = {lat: lattice.QubitLayout(lat.n_sites)
                        for lat in (self.proj_lattice, self.sum_lattice, self.circ_lattice)}
        self.trial_sv = {}
        for lat, layout in self.layouts.items():
            trial = slater.half_filled_trial(lat)
            self.trial_sv[lat] = slater.slater_to_statevector(trial.up, trial.down, layout)
        self.weight_lattices = [lattice.build_lattice("chain", n) for n in self.weight_sizes]
        self.weight_trials = [slater.half_filled_trial(lat) for lat in self.weight_lattices]
        self.curve_grid = np.linspace(0.0, 2.0, 21)
        self.oracle = _ProjectionOracle()
        self.free = {}

    def run_round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        u = float(rng.uniform(1.0, 4.0))
        g_proj, g_sum, g_circ = (float(x) for x in rng.uniform(0.2, 1.6, size=3))
        n = self.ed_lattice.n_sites
        kinetic, interaction = self.ed_terms
        ops = [_attempt(r, f"ed ladder:{n} U={u:.4f} round {r}", self._check_ed,
                        lambda: (u, statevector.exact_ground_state(
                            kinetic + u * interaction, 2 * n, ((n + 1) // 2, n // 2)).energy))]

        def project():
            lat = self.proj_lattice
            psi = gutzwiller.apply_gutzwiller_exact(self.trial_sv[lat], g_proj, self.proj_terms[1])
            psi = psi.normalized()
            return (g_proj, statevector.expectation(psi, self.proj_terms[0]).real,
                    statevector.expectation(psi, self.proj_terms[1]).real)
        ops.append(_attempt(r, f"projection chain:{self.proj_lattice.n_sites} round {r}",
                            self._check_projection, project))

        def full_sum():
            lat = self.sum_lattice
            return (g_sum, *(gutzwiller.full_sum_expectation(op, g_sum, self.trial_sv[lat],
                                                             self.layouts[lat])
                             for op in self.sum_terms))
        ops.append(_attempt(r, f"full sum chain:{self.sum_lattice.n_sites} round {r}",
                            self._check_full_sum, full_sum))
        for lat, trial in zip(self.weight_lattices, self.weight_trials):
            ops.append(_attempt(r, f"pair weights N={lat.n_sites} round {r}",
                                self._check_pair_weights,
                                lambda: (lat, lcu.pair_distance_weights(trial))))
        lat = self.weight_lattices[-1]
        ops.append(_attempt(r, f"curve N={lat.n_sites} round {r}", self._check_curve,
                            lambda: lcu.success_probability_curve(lat, self.curve_grid)))

        def circuit():
            lat = self.circ_lattice
            whole = lcu.build_lcu_state(self.trial_sv[lat], g_circ, self.layouts[lat])
            return g_circ, lcu.measure_ancillas_success(whole).success_probability
        ops.append(_attempt(r, f"lcu circuit chain:{self.circ_lattice.n_sites} round {r}",
                            self._check_circuit, circuit))
        return ops

    def _check_ed(self, op: Op, report: Report) -> None:
        """free-fermion energy - U*N/4 <= E0 <= the trial's energy"""
        u, energy = op.value
        k0, d0 = self._free_fermion(self.ed_lattice)
        n = self.ed_lattice.n_sites
        lower, upper = k0 - u * n / 4 - EXACT_TOL, k0 + u * d0 + EXACT_TOL
        if not (math.isfinite(energy) and lower <= energy <= upper):
            op.misses.append(f"E0 {energy!r} outside [{lower!r}, {upper!r}]")

    def _check_projection(self, op: Op, report: Report) -> None:
        g, k_val, d_val = op.value
        lat = self.proj_lattice
        op.misses.append(_gross(f"<D> at g={g!r}", d_val, lcu.exact_double_occupancy(lat, g),
                                EXACT_TOL))
        k0 = self._free_fermion(lat)[0]
        if not (math.isfinite(k_val) and k0 - EXACT_TOL <= k_val <= EXACT_TOL):
            op.misses.append(f"<K> at g={g!r}: {k_val!r} outside [{k0!r}, 0]")

    def _check_full_sum(self, op: Op, report: Report) -> None:
        g, k_val, d_val = op.value
        k_exact, d_exact = self.oracle(self.sum_lattice, g)
        op.misses.append(_gross(f"<K> at g={g!r}", k_val, k_exact, EXACT_TOL))
        op.misses.append(_gross(f"<D> at g={g!r}", d_val, d_exact, EXACT_TOL))

    def _check_pair_weights(self, op: Op, report: Report) -> None:
        """Normalized, and the g=0 moment is the trial's <D> from the densities."""
        lat, weights = op.value
        n = lat.n_sites
        d0 = float(np.sum(weights * (n - 2 * np.arange(n + 1)) / 4))
        op.misses.append(_gross("total weight", float(np.sum(weights)), 1.0, EXACT_TOL))
        op.misses.append(_gross("<D> at g=0", d0, self._free_fermion(lat)[1], EXACT_TOL))

    def _check_curve(self, op: Op, report: Report) -> None:
        p = np.array([row[2] for row in op.value])
        if not (np.all(np.isfinite(p)) and abs(p[0] - 1.0) <= EXACT_TOL
                and np.all((p > 0) & (p <= 1.0 + EXACT_TOL))):
            op.misses.append("p(g) not in (0, 1] or p(0) != 1")

    def _check_circuit(self, op: Op, report: Report) -> None:
        g, p = op.value
        op.misses.append(_gross(f"success probability at g={g!r}", p,
                                lcu.success_probability(self.circ_lattice, g), EXACT_TOL))

    def _free_fermion(self, lat: lattice.Lattice) -> tuple[float, float]:
        if lat not in self.free:
            self.free[lat] = _free_fermion(lat)
        return self.free[lat]


class CliSmall:
    """``gutzmc.cli.main`` in-process on small commands, default worker pool."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        if smoke:
            self.commands = [
                ("sweep", ["--lattice", "chain:2", "--g-min", "0.5", "--g-max", "0.5",
                           "--nmc", "500", "--burnin", "100", "--bins", "10", "--U", "2,4"]),
                ("mc", ["--lattice", "chain:4", "--g-min", "0.4", "--g-max", "0.8",
                        "--g-step", "0.4", "--nmc", "400", "--burnin", "100", "--bins", "10",
                        "--U", "2,4"]),
                ("two-site", ["--g-min", "0.5", "--g-max", "0.5", "--U", "2",
                              "--shots", "64", "--reps", "2", "--bias", "0.9,0.05"]),
            ]
        else:
            self.commands = [
                ("sweep", ["--lattice", "chain:6", "--g-min", "0.5", "--g-max", "1.0",
                           "--g-step", "0.5", "--nmc", "500", "--burnin", "100",
                           "--bins", "10", "--U", "2,4"]),
                ("mc", ["--lattice", "chain:8", "--g-min", "0.4", "--g-max", "0.8",
                        "--g-step", "0.4", "--nmc", "400", "--burnin", "100",
                        "--bins", "10", "--U", "2,4"]),
                ("two-site", ["--g-min", "0.5", "--g-max", "1.0", "--g-step", "0.5",
                              "--U", "2", "--shots", "1024", "--reps", "4",
                              "--bias", "0.9,0.05"]),
            ]

    def run_round(self, r: int) -> list[Op]:
        ops = []
        for i, (name, args) in enumerate(self.commands):
            out = self.workdir / f"round{r}" / f"{name}.csv"
            argv = [name, *args, "--seed", str(_round_seed(self.seed, r, i) % 2**31),
                    "--out", str(out)]
            ops.append(_attempt(r, f"gutzmc {name} round {r}", self.check,
                                lambda: (cli.main(argv), argv, out)))
        return ops

    def check(self, op: Op, report: Report) -> None:
        rc, argv, out = op.value
        if rc != 0:
            op.misses.append(f"exit code {rc}")
            return
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        numeric = [v for row in rows for k, v in row.items() if k != "method"]
        if not rows or not all(math.isfinite(float(v)) for v in numeric):
            op.misses.append("empty CSV or non-finite cell")
            return
        if argv[0] in ("sweep", "mc"):
            self._check_mc_rows(op, rows, report)

    def _check_mc_rows(self, op: Op, rows: list[dict], report: Report) -> None:
        """MC rows: <D> against the closed form and, from ``sweep``, <K>
        against the command's own exact-projection rows."""
        argv = op.value[1]
        kind, _, size = argv[argv.index("--lattice") + 1].partition(":")
        lat = lattice.build_lattice(kind, int(size))
        margin = lat.n_sites / 4
        exact = {(r["g"], r["U"]): r for r in rows if r.get("method") == "exact-gutzwiller"}
        seen = set()
        for row in rows:
            if row.get("method", "mc") != "mc":
                continue
            g, u = float(row["g"]), float(row["U"])
            if op.round < PULL_ROUNDS and u == U_STDERR:
                report.stderr_e.append(float(row["E_err"]))
            if row["g"] in seen:  # one chain per g serves every U
                continue
            seen.add(row["g"])
            d_exact = lcu.exact_double_occupancy(lat, g)
            d_mean = float(row["UD_mean"]) / u
            report.d_estimate(op, d_mean, d_exact, margin)
            compared = [(d_mean, float(row["UD_err"]) / u, d_exact)]
            ref = exact.get((row["g"], row["U"]))
            if ref is not None:
                k_mean, k_exact = float(row["K_mean"]), float(ref["K_mean"])
                op.misses.append(_gross(f"<K> at g={g:g}", k_mean, k_exact, margin))
                compared.append((k_mean, float(row["K_err"]), k_exact))
            if op.round < PULL_ROUNDS:
                report.pulls.extend(abs(m - x) / e for m, e, x in compared if e > 0)

WORKLOADS = {"mc-desk": McDesk, "oracle-desk": OracleDesk, "cli-small": CliSmall}
