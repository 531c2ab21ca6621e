"""Importance sampling over auxiliary-field configurations.

A sampled configuration holds two ±1 fields per site (one for the ket
dressing, one for the bra dressing).  Its unnormalized weight is

    W(s) = <psi0| u(s_:,2) u(s_:,1) |psi0>,

which factorizes over spin sectors for a spin-separable trial state and,
for the half-filled bipartite case, is real and nonnegative — the regime
this sampler requires.  Metropolis-Hastings proposes single-field flips
in a fixed order (one sweep proposes every field exactly once), always
consuming one uniform draw per proposal so that runs with different
weight backends share the same random stream.

Two weight backends are provided.  The determinant backend carries one
N x N matrix P = phi G^{-1} phi^H per spin sector (G the k x k dressed
overlap, k = particles per spin): a proposal ratio is a scalar read off
P's diagonal, and a site whose total field changed applies one rank-one
update of P.  The chain runs on this tracked weight; every
_ANCHOR_STACK sweeps one stacked rebuild re-derives the weight of each
of those sweeps from scratch, records the largest drift, re-anchors the
chain on the last one and yields the kinetic and double-occupancy
estimators of all of them.  The statevector backend sums diagonal
dressing phases over the trial state's occupation support, for a whole
stack at once; the one-configuration weight_numerator and
local_estimator are its stack of one.  The backends are required to
agree to 1e-10 and are cross-checked in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gutzwiller import (
    HSParams,
    _validate_config,
    all_field_vectors,
    field_coupling_matrix,
    hs_params,
)
from .lattice import Lattice, QubitLayout, hopping_matrix, hubbard_terms
# apply_pauli_sum is unused here but stays importable: the benchmark's tracer
# wraps gutzmc.sampler.apply_pauli_sum by name.
from .pauli import apply_pauli_sum, diagonal_eigenvalues  # noqa: F401
from .slater import (
    TrialState,
    dressed_green_function,
    dressed_overlap,
    half_filled_trial,
    slater_to_statevector,
)
from .statevector import _compile_actions

BACKENDS = ("statevector", "determinant")

# Weights are mathematically real positive in the supported regime;
# these relative tolerances separate roundoff from a genuine violation.
_IMAG_TOL = 1e-8
_NEG_TOL = 1e-8

# Sweeps per stacked rebuild: the chain runs on its tracked weight for at
# most this many sweeps before every one of them is checked from scratch.
_ANCHOR_STACK = 50


class PhaseProblemError(ArithmeticError):
    """A sampled weight turned complex or negative beyond tolerance."""


@dataclass(frozen=True)
class McParams:
    """Monte Carlo run parameters."""

    n_sweeps: int
    n_burnin: int | None = None
    n_bins: int = 20
    rng_seed: int = 0
    backend: str = "determinant"

    def __post_init__(self) -> None:
        if self.n_bins < 10:
            raise ValueError(f"need at least 10 bins, got {self.n_bins}")
        if self.n_sweeps < self.n_bins:
            raise ValueError(
                f"n_sweeps={self.n_sweeps} leaves a bin empty (n_bins={self.n_bins})"
            )
        if self.n_sweeps % self.n_bins != 0:
            raise ValueError(
                f"n_sweeps={self.n_sweeps} not divisible by n_bins={self.n_bins}"
            )
        if self.n_burnin is not None and self.n_burnin < 0:
            raise ValueError(f"n_burnin must be nonnegative, got {self.n_burnin}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")

    @property
    def burnin(self) -> int:
        """Burn-in sweep count: 10% of the run, floored at 500."""
        if self.n_burnin is not None:
            return self.n_burnin
        return max(500, self.n_sweeps // 10)


@dataclass(frozen=True)
class EstimatorResult:
    observable: str
    mean: float
    stderr: float
    n_samples: int
    acceptance_rate: float


@dataclass
class McSamples:
    """Per-bin kinetic and double-occupancy means from one chain.

    Both observables are sampled jointly and are independent of U, so a
    single chain serves every interaction strength.  max_drift is the
    largest relative gap, over every burn-in and measured sweep, between
    the tracked weight at the sweep's end and its from-scratch value from
    the stacked rebuild.
    """

    k_bins: np.ndarray
    d_bins: np.ndarray
    acceptance_rate: float
    n_sweeps: int
    max_drift: float


class _DeterminantEngine:
    """Fast-update weights from one N x N matrix per spin sector.

    Only the per-site total field t_i = s_{i,1} + s_{i,2} enters the
    weight: W_sector = e^{-i*alpha*sum(t)/2} det(G) with
    G = phi^H diag(e^{i*alpha*t}) phi.  The engine carries
    P = phi G^{-1} phi^H.  A single flip changes one phase by dphase, a
    rank-one change of G, so by the matrix-determinant lemma the sector
    ratio is e^{-i*alpha*dt/2} (1 + dphase * P[i, i]) (Blankenbecler,
    Scalapino & Sugar, PRD 24, 2278).  Both proposals at a site read
    P[i, i]; an accepted flip only moves that scalar to
    P[i, i] / (1 + dphase * P[i, i]), its exact Sherman-Morrison value,
    and settle applies the site's net phase change to P as one rank-one
    update.  anchor rebuilds a whole stack of configurations from scratch
    in one batched det and solve, re-anchors P on the last of them and
    keeps the stack for measure.
    """

    def __init__(self, trial: TrialState, params: HSParams):
        self.alpha = params.alpha
        self.lattice = trial.lattice
        if trial.spin_symmetric:
            self.phis = [trial.up.phi]
            self.symmetric = True
        else:
            self.phis = [trial.up.phi, trial.down.phi]
            self.symmetric = False
        self._phase = phase = {t: complex(np.exp(1j * self.alpha * t)) for t in (-2, 0, 2)}
        # (old t, new t) -> (dphase, prefactor ratio) for every single flip
        self._steps = {
            (t, u): (phase[u] - phase[t], complex(np.exp(-0.5j * self.alpha * (u - t))))
            for t in phase
            for u in phase
            if abs(u - t) == 2
        }
        self.total: list[int] = []
        self.projectors: list[np.ndarray] = []
        self.diagonals: list[list[complex]] = []
        self._pending: tuple | None = None
        self._anchored: tuple | None = None

    def anchor(self, configs: np.ndarray) -> np.ndarray:
        """From-scratch weights of a (B, N, 2) configuration stack."""
        totals = configs.sum(axis=2)
        phases = np.exp(1j * self.alpha * totals)
        prefactor = np.exp(-0.5j * self.alpha * totals.sum(axis=1))
        weights = np.ones(len(configs), dtype=complex)
        stacks = []
        for phi in self.phis:
            grams = np.einsum("ia,ci,ib->cab", phi.conj(), phases, phi)
            weights *= prefactor * np.linalg.det(grams)
            stacks.append(phi @ np.linalg.solve(grams, phi.conj().T))
        if self.symmetric:
            weights = weights * weights
        self._anchored = (configs, phases, stacks)
        self.total = totals[-1].tolist()
        self.projectors = [stack[-1].copy() for stack in stacks]
        self.diagonals = [p.diagonal().tolist() for p in self.projectors]
        self._pending = None
        return weights

    def measure(self, J: float) -> np.ndarray:
        """Real K and D estimators of the last anchored stack, shape (2, B).

        They come straight from the stack's P and the ket and bra phases:
        the Green matrix is M = diag(ket) P diag(bra), so the hopping sum
        is tr(T·M) = sum_ij T_ij bra_i ket_j P_ji per spin, and M's
        diagonal is the total-field phase times P's.
        """
        configs, phases, stacks = self._anchored
        ket = np.exp(1j * self.alpha * configs[:, :, 0])
        bra = np.exp(1j * self.alpha * configs[:, :, 1])
        hop = hopping_matrix(self.lattice, J) * bra[:, :, None] * ket[:, None, :]
        kinetic = sum(np.einsum("cij,cji->c", hop, p) for p in stacks)
        diags = [phases * np.diagonal(p, axis1=1, axis2=2) - 0.5 for p in stacks]
        if self.symmetric:
            kinetic = 2.0 * kinetic
            diags.append(diags[0])
        docc = np.sum(diags[0] * diags[1], axis=1)
        return np.array([kinetic.real, docc.real])

    def proposal_ratio(self, site: int, new_total: int) -> complex:
        """W(t with t_site -> new_total) / W(t) from the diagonal of P."""
        dphase, pref = self._steps[self.total[site], new_total]
        factors = [1.0 + dphase * diag[site] for diag in self.diagonals]
        self._pending = (site, new_total, factors)
        ratio = pref * factors[0]
        if self.symmetric:
            return ratio * ratio
        return ratio * pref * factors[1]

    def commit(self) -> None:
        site, new_total, factors = self._pending
        self.total[site] = new_total
        self._pending = None
        for diag, factor in zip(self.diagonals, factors):
            diag[site] /= factor

    def settle(self, site: int, old_total: int) -> None:
        """Apply the site's net change old_total -> total[site] to P."""
        dphase = self._phase[self.total[site]] - self._phase[old_total]
        for p in self.projectors:
            p -= (p[:, site] * (dphase / (1.0 + dphase * p[site, site])))[:, None] * p[site]
        self.diagonals = [p.diagonal().tolist() for p in self.projectors]


class _StatevectorEngine:
    """Weights and estimators from the trial state's occupation support.

    Both dressings are diagonal: u(s) multiplies basis state b by
    e^{i*alpha*m(b)·s}, with m(b) the per-site charge imbalance.  So
    W(s) = sum_b |psi0(b)|^2 e^{i*alpha*m(b)·t} over the trial's support
    b, and <psi0|u(s2) Ô u(s1)|psi0> needs Ô only between support states:
    the hopping operator is compiled onto the support once, and the
    double occupancy is its diagonal there.  estimators returns K and D
    of a whole anchored stack in one vectorized pass.
    """

    def __init__(self, trial: TrialState, params: HSParams):
        self.alpha = params.alpha
        layout = QubitLayout(trial.lattice.n_sites)
        amps = slater_to_statevector(trial.up, trial.down, layout).amplitudes
        prob = np.abs(amps) ** 2
        support = np.flatnonzero(prob > 1e-28)
        self.amps, self.prob = amps[support], prob[support]
        self.m_support = field_coupling_matrix(layout, support).astype(np.float64)
        kinetic, interaction = hubbard_terms(trial.lattice, 1.0, 1.0)
        self.hop = _compile_actions(kinetic, support)
        self.docc = diagonal_eigenvalues(interaction, support)
        self.total = np.zeros(trial.lattice.n_sites, dtype=np.int64)
        self.current = 1.0 + 0.0j
        self._pending: tuple | None = None
        self._anchored: np.ndarray | None = None

    def _weight_of(self, total: np.ndarray) -> complex:
        return complex(self.prob @ np.exp(1j * self.alpha * (self.m_support @ total)))

    def anchor(self, configs: np.ndarray) -> np.ndarray:
        totals = configs.sum(axis=2)
        weights = np.exp(1j * self.alpha * (totals @ self.m_support.T)) @ self.prob
        self._anchored = (configs, weights)
        self.total = totals[-1].copy()
        self.current = complex(weights[-1])
        self._pending = None
        return weights

    def estimators(self, J: float) -> np.ndarray:
        """Complex K and D ratios of the last anchored stack, shape (2, B)."""
        configs, weights = self._anchored
        if np.min(np.abs(weights)) < 1e-300:
            raise ArithmeticError("vanishing weight denominator")
        ket = self.amps * np.exp(1j * self.alpha * (configs[:, :, 0] @ self.m_support.T))
        bra = self.amps.conj() * np.exp(1j * self.alpha * (configs[:, :, 1] @ self.m_support.T))
        kinetic = J * np.sum(bra * (self.hop @ ket.T).T, axis=1)
        docc = (bra * ket) @ self.docc
        return np.array([kinetic, docc]) / weights

    def measure(self, J: float) -> np.ndarray:
        return self.estimators(J).real

    def proposal_ratio(self, site: int, new_total: int) -> complex:
        trial_total = self.total.astype(np.float64)
        trial_total[site] = new_total
        w_new = self._weight_of(trial_total)
        self._pending = (site, new_total, w_new)
        return complex(w_new / self.current)

    def commit(self) -> None:
        site, new_total, w_new = self._pending
        self.total[site] = new_total
        self.current = w_new
        self._pending = None

    def settle(self, site: int, old_total: int) -> None:
        """Nothing to do: every ratio is a from-scratch weight."""


@dataclass
class ChainState:
    """One Markov chain: configuration, tracked weight, weight engine.

    pending holds each sweep's end configuration and tracked weight since
    the last stacked rebuild.
    """

    config: np.ndarray
    weight: complex
    engine: _DeterminantEngine | _StatevectorEngine
    max_drift: float = 0.0
    pending: list[tuple[list, complex]] = field(default_factory=list)


def make_chain(trial: TrialState, params: HSParams, backend: str = "determinant") -> ChainState:
    """Fresh chain at the all-(+1) configuration."""
    n = trial.lattice.n_sites
    config = np.ones((n, 2), dtype=np.int64)
    if backend == "determinant":
        engine: _DeterminantEngine | _StatevectorEngine = _DeterminantEngine(trial, params)
    elif backend == "statevector":
        if n > 8:
            raise ValueError("statevector backend supports at most 8 sites")
        engine = _StatevectorEngine(trial, params)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    weight = complex(engine.anchor(config[None])[0])
    _check_weight(weight, weight)
    return ChainState(config=config, weight=weight, engine=engine)


def _check_weight(w: complex, current: complex) -> None:
    """Raise unless ``w`` is real and nonnegative to within roundoff.

    The tolerances are relative to the larger of |w| and the chain's
    current weight |current|, so they do not loosen after the chain has
    passed through a region of larger weights.
    """
    scale = max(abs(current), abs(w))
    if abs(w.imag) > _IMAG_TOL * scale or w.real < -_NEG_TOL * scale:
        raise PhaseProblemError(
            f"weight {w!r} is not real nonnegative (scale {scale:.3e}); "
            "the trial state is outside the sign-free regime"
        )


def metropolis_sweep(
    chain: ChainState,
    trial: TrialState,
    params: HSParams,
    rng: np.random.Generator,
) -> tuple[ChainState, int]:
    """Propose one flip of every field; return the chain and accept count.

    Proposal order is site-major (site 0 copy 1, site 0 copy 2, site 1
    copy 1, …).  One uniform variate is consumed per proposal whether or
    not the ratio decides deterministically, keeping random streams
    aligned across weight backends; the sweep's variates are drawn as
    one block, which yields the same stream as one draw per proposal.
    The sweep's end configuration and tracked weight join the chain's
    pending stack; the sweep that fills it runs the stacked rebuild
    (_anchor), which checks every stacked weight from scratch and
    re-anchors the chain.
    """
    accepted = 0
    engine = chain.engine
    weight = chain.weight
    config = chain.config.tolist()
    draws = iter(rng.random(2 * len(config)).tolist())
    for site, fields in enumerate(config):
        start = fields[0] + fields[1]
        for copy in (0, 1):
            u = next(draws)
            new_total = fields[0] + fields[1] - 2 * fields[copy]
            w_new = weight * engine.proposal_ratio(site, new_total)
            _check_weight(w_new, weight)
            r = w_new.real / weight.real
            if r >= 1.0 or u < r:
                fields[copy] = -fields[copy]
                weight = w_new
                engine.commit()
                accepted += 1
        if fields[0] + fields[1] != start:
            engine.settle(site, start)
    chain.config[:] = config
    chain.weight = weight
    chain.pending.append((config, weight))
    if len(chain.pending) == _ANCHOR_STACK:
        _anchor(chain)
    return chain, accepted


def _anchor(chain: ChainState) -> None:
    """One stacked rebuild of every pending sweep.

    Each sweep's tracked weight is compared with its from-scratch value
    (max_drift keeps the largest relative gap), and the chain re-anchors
    its weight, and the engine its P, on the last configuration.  The
    engine keeps the stack for measure.
    """
    if not chain.pending:
        return
    configs = np.array([config for config, _ in chain.pending])
    tracked = np.array([weight for _, weight in chain.pending])
    fresh = chain.engine.anchor(configs)
    drift = np.abs(fresh - tracked) / np.maximum(np.abs(fresh), 1e-300)
    chain.max_drift = max(chain.max_drift, float(drift.max()))
    chain.weight = complex(fresh[-1])
    chain.pending.clear()


def weight_numerator(
    config: np.ndarray,
    trial: TrialState,
    params: HSParams,
    backend: str = "determinant",
) -> complex:
    """Unnormalized weight W(s) of one configuration.

    The determinant backend multiplies the two sector overlaps; the
    statevector backend anchors its engine on a stack of one.
    """
    config = _validate_config(config, trial.lattice.n_sites)
    if backend == "determinant":
        w = dressed_overlap(trial.up, config, params.alpha)
        if trial.spin_symmetric:
            return w * w
        return w * dressed_overlap(trial.down, config, params.alpha)
    if backend == "statevector":
        return complex(_StatevectorEngine(trial, params).anchor(config[None])[0])
    raise ValueError(f"unknown backend {backend!r}")


def local_estimator(
    config: np.ndarray,
    observable: str,
    trial: TrialState,
    params: HSParams,
    backend: str = "determinant",
    J: float = 1.0,
) -> complex:
    """Ratio <psi0|u(s2) Ô u(s1)|psi0> / W(s) for one configuration.

    observable is "kinetic" or "interaction" on either backend.  The
    determinant backend evaluates the hopping sum as tr(T·M) per spin
    sector and the double-occupancy sum from the Green diagonals; both
    derive from the same per-spin Green matrices.  The statevector
    backend anchors its engine on a stack of one and reads both off its
    support sums.
    """
    if observable not in ("kinetic", "interaction"):
        raise ValueError(f"unknown observable {observable!r}")
    config = _validate_config(config, trial.lattice.n_sites)
    if backend == "determinant":
        greens = [
            dressed_green_function(trial.up, config[:, 1], config[:, 0], params.alpha)
        ]
        if trial.spin_symmetric:
            greens.append(greens[0])
        else:
            greens.append(
                dressed_green_function(trial.down, config[:, 1], config[:, 0], params.alpha)
            )
        kinetic, docc = _kd_sums(greens, hopping_matrix(trial.lattice, J))
    elif backend == "statevector":
        engine = _StatevectorEngine(trial, params)
        engine.anchor(config[None])
        kinetic, docc = engine.estimators(J)[:, 0]
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return complex(kinetic if observable == "kinetic" else docc)


def _kd_sums(greens: list[np.ndarray], t_mat: np.ndarray) -> tuple[complex, complex]:
    """Hopping sum tr(T·M) over both spins and sum_i (M_up[i,i]-1/2)(M_dn[i,i]-1/2)."""
    kinetic = sum(np.sum(t_mat * m.T) for m in greens)
    docc = np.sum((np.diagonal(greens[0]) - 0.5) * (np.diagonal(greens[1]) - 0.5))
    return complex(kinetic), complex(docc)


def sample_kinetic_interaction(
    lattice: Lattice, J: float, g: float, mc_params: McParams
) -> McSamples:
    """Run one chain and bin the kinetic and double-occupancy samples.

    Neither observable depends on U, so the returned bins can be combined
    with any interaction strength afterwards.  Each measured sweep's
    estimators come from the stacked rebuild that checks its weight; the
    burn-in ends with a rebuild of its own, so no stack mixes the two.
    The real parts are kept: the exact weighted averages are real, and
    the per-sample imaginary parts average to zero by symmetry.
    """
    trial = half_filled_trial(lattice)
    params = hs_params(g)
    rng = np.random.default_rng(mc_params.rng_seed)
    chain = make_chain(trial, params, mc_params.backend)
    for _ in range(mc_params.burnin):
        metropolis_sweep(chain, trial, params, rng)
    _anchor(chain)
    measured = []
    accepted = 0
    for _ in range(mc_params.n_sweeps):
        _, n_acc = metropolis_sweep(chain, trial, params, rng)
        accepted += n_acc
        if not chain.pending:
            measured.append(chain.engine.measure(J))
    if chain.pending:
        _anchor(chain)
        measured.append(chain.engine.measure(J))
    k_samples, d_samples = np.concatenate(measured, axis=1)
    per_bin = mc_params.n_sweeps // mc_params.n_bins
    return McSamples(
        k_bins=k_samples.reshape(mc_params.n_bins, per_bin).mean(axis=1),
        d_bins=d_samples.reshape(mc_params.n_bins, per_bin).mean(axis=1),
        acceptance_rate=accepted / (mc_params.n_sweeps * 2 * lattice.n_sites),
        n_sweeps=mc_params.n_sweeps,
        max_drift=chain.max_drift,
    )


def _binned(name: str, bins: np.ndarray, samples: McSamples) -> EstimatorResult:
    n_bins = bins.size
    stderr = float(np.std(bins, ddof=1) / np.sqrt(n_bins)) if n_bins > 1 else 0.0
    return EstimatorResult(
        observable=name,
        mean=float(np.mean(bins)),
        stderr=stderr,
        n_samples=samples.n_sweeps,
        acceptance_rate=samples.acceptance_rate,
    )


def results_from_samples(samples: McSamples, U: float) -> list[EstimatorResult]:
    """Assemble E, K, U<D> estimates (E combined per-bin, so correlations count)."""
    ud_bins = U * samples.d_bins
    return [
        _binned("energy", samples.k_bins + ud_bins, samples),
        _binned("kinetic", samples.k_bins, samples),
        _binned("interaction", ud_bins, samples),
    ]


def run_mc(
    lattice: Lattice, J: float, U: float, g: float, mc_params: McParams
) -> list[EstimatorResult]:
    """Full MC estimate of E = <K> + U<D> at one (g, U) point."""
    if U < 0:
        raise ValueError(f"U must be nonnegative, got {U}")
    samples = sample_kinetic_interaction(lattice, J, g, mc_params)
    return results_from_samples(samples, U)


@dataclass(frozen=True)
class PhaseCheckReport:
    """Exhaustive weight scan: is the sign-free assumption satisfied?"""

    n_sites: int
    g: float
    n_configs: int
    max_imag: float
    min_real: float

    @property
    def passed(self) -> bool:
        return self.max_imag < 1e-10 and self.min_real >= -1e-12


def phase_problem_check(
    lattice: Lattice, g: float, trial: TrialState | None = None
) -> PhaseCheckReport:
    """Enumerate all 4^N weights and report the worst imaginary/negative parts."""
    n = lattice.n_sites
    if n > 5:
        raise ValueError(f"{n} sites is too large for 4^N weight enumeration (max 5)")
    if trial is None:
        trial = half_filled_trial(lattice)
    singles = all_field_vectors(n)
    # every ordered pair (ket vector, bra vector) of single-copy fields
    configs = np.stack(np.broadcast_arrays(singles[:, None], singles[None, :]), axis=-1)
    weights = _DeterminantEngine(trial, hs_params(g)).anchor(configs.reshape(-1, n, 2))
    return PhaseCheckReport(
        n_sites=n,
        g=float(g),
        n_configs=weights.size,
        max_imag=float(np.max(np.abs(weights.imag))),
        min_real=float(np.min(weights.real)),
    )
