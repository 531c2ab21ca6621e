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

Two weight engines are provided, each a pure kernel over (trial, alpha)
that holds no chain: weights(configs) gives a stack's from-scratch
weights, estimators(configs, J) its weights and K and D estimators from
the same pass, start(config, weight) builds one chain's state and
sweep(state, config, weight, draws) runs one Metropolis pass on it.  A
ChainState holds the configuration, the tracked weight and that state.
The live configuration is kept as the nested [[s1, s2], ...] lists that
sweep flips in place; each sweep snapshots it once, flattened, and a
stacked rebuild turns its snapshots into one (B, N, 2) array.
The determinant engine's state carries one N x N matrix
P = phi G^{-1} phi^H per spin sector (G the k x k dressed overlap,
k = particles per spin): a proposal ratio is a scalar read off P's
diagonal, and a site whose total field changed applies one rank-one
update of P.  The statevector engine sums diagonal dressing phases over
the trial state's occupation support.  Every _ANCHOR_STACK sweeps one
stacked rebuild re-derives each of those sweeps' weights from scratch,
records the largest drift (a run raises past _MAX_DRIFT), restarts the
chain's state on the last one and, while the chain measures, yields the
stack's estimators.  The one-configuration weight_numerator and
local_estimator are the engine's stack of one.  The backends must agree
to 1e-10; the tests cross-check them.
"""
from __future__ import annotations

import itertools
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
from .pauli import apply_pauli_sum, basis_matrix, diagonal_eigenvalues  # noqa: F401
from .slater import TrialState, half_filled_trial, slater_to_statevector

# The statevector engine re-sums each proposal over the trial's support,
# C(N, N/2)^2 states, at O(support x N): one sweep took 0.2-0.3 ms at
# chain:6, 1.7-2.7 ms at chain:8 and 37-50 ms at chain:10 (one BLAS thread,
# 2 vCPU Xeon), so a default 22,000-sweep point would take ~15 min at chain:10.
STATEVECTOR_MAX_SITES = 8
PHASE_CHECK_MAX_SITES = 5  # phase_problem_check enumerates all 4^N field pairs

# Weights are mathematically real positive in the supported regime;
# these relative tolerances separate roundoff from a genuine violation.
_IMAG_TOL = 1e-8
_NEG_TOL = 1e-8
_INF = float("inf")
# A sector Gram with sigma_min below this (times max(1, sigma_max)) is singular.
_SINGULAR_TOL = 1e-12

# Sweeps per stacked rebuild: the chain runs on its tracked weight for at
# most this many sweeps before every one of them is checked from scratch.
_ANCHOR_STACK = 50
# A run whose max_drift passes this relative bound raises: the worst drift
# measured at g <= 8 is 5.5e-13 (chain:10-16), so roundoff stays 1.8e4 below.
_MAX_DRIFT = 1e-8

_flatten = itertools.chain.from_iterable


class PhaseProblemError(ArithmeticError):
    """A sampled weight turned complex or negative beyond tolerance."""


class SingularOverlapError(ArithmeticError):
    """A dressed sector overlap matrix is numerically singular."""


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
    mean: float
    stderr: float
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
    G = phi^H diag(e^{i*alpha*t}) phi.  A chain's state carries
    P = phi G^{-1} phi^H.  A single flip changes one phase by dphase, a
    rank-one change of G, so by the matrix-determinant lemma the sector
    ratio is e^{-i*alpha*dt/2} (1 + dphase * P[i, i]) (Blankenbecler,
    Scalapino & Sugar, PRD 24, 2278).  Both proposals at a site read
    P[i, i]; an accepted flip only moves that scalar to
    P[i, i] / (1 + dphase * P[i, i]), its exact Sherman-Morrison value,
    and a site whose total changed applies its net phase change to P as
    one rank-one update.  The engine itself holds no chain: start builds
    a chain's state (site totals, P per sector, P's tracked diagonals).
    """

    def __init__(self, trial: TrialState, params: HSParams):
        self.alpha = params.alpha
        self.lattice = trial.lattice
        self.symmetric = trial.spin_symmetric
        self.phis = [trial.up.phi] if self.symmetric else [trial.up.phi, trial.down.phi]
        self._phase = phase = {t: complex(np.exp(1j * self.alpha * t)) for t in (-2, 0, 2)}
        # (old t, new t) -> (dphase, prefactor ratio) for every single flip
        self._steps = {
            (t, u): (phase[u] - phase[t], complex(np.exp(-0.5j * self.alpha * (u - t))))
            for t in phase
            for u in phase
            if abs(u - t) == 2
        }

    def _grams(self, phases: np.ndarray) -> list[np.ndarray]:
        """Sector Grams phi^H diag(phases) phi of a (B, N) phase stack, shape (B, k, k)."""
        return [np.einsum("ia,ci,ib->cab", phi.conj(), phases, phi) for phi in self.phis]

    def _stack(self, configs: np.ndarray) -> tuple:
        """Total-field phases, sector Grams, their dets and the weights of a stack."""
        totals = configs.sum(axis=2)
        phases = np.exp(1j * self.alpha * totals)
        prefactor = np.exp(-0.5j * self.alpha * totals.sum(axis=1))
        weights = np.ones(len(configs), dtype=complex)
        grams = self._grams(phases)
        dets = [np.linalg.det(gram) for gram in grams]
        for det in dets:
            weights *= prefactor * det
        if self.symmetric:
            weights = weights * weights
        return phases, grams, dets, weights

    def weights(self, configs: np.ndarray) -> np.ndarray:
        """From-scratch weights of a (B, N, 2) configuration stack: batched dets, no P."""
        return self._stack(configs)[3]

    def estimators(self, configs: np.ndarray, J: float) -> tuple[np.ndarray, np.ndarray]:
        """A stack's weights and complex K and D estimators, shapes (B,) and (2, B).

        Both come from one pass over the stack's Grams.  K and D come
        straight from each configuration's P and its ket and bra phases:
        the Green matrix is M = diag(ket) P diag(bra), so the hopping sum
        is tr(T·M) = sum_ij T_ij bra_i ket_j P_ji per spin, and M's
        diagonal is the total-field phase times P's.

        P is noise where a sector Gram is numerically singular
        (sigma_min < _SINGULAR_TOL * max(1, sigma_max)), so such a stack
        raises SingularOverlapError.  Every singular value of G is at most
        one, so |det G| <= sigma_min: only the Grams whose |det| falls
        below twice the threshold (a margin for roundoff) need an SVD.
        """
        phases, grams, dets, weights = self._stack(configs)
        for gram, det in zip(grams, dets):
            suspect = gram[np.abs(det) < 2 * _SINGULAR_TOL]
            if len(suspect):
                sv = np.linalg.svd(suspect, compute_uv=False)
                if np.any(sv[:, -1] < _SINGULAR_TOL * np.maximum(1.0, sv[:, 0])):
                    raise SingularOverlapError("dressed overlap matrix near singular")
        stacks = self._projectors(grams)
        ket = np.exp(1j * self.alpha * configs[:, :, 0])
        bra = np.exp(1j * self.alpha * configs[:, :, 1])
        hop = hopping_matrix(self.lattice, J) * bra[:, :, None] * ket[:, None, :]
        kinetic = sum(np.einsum("cij,cji->c", hop, p) for p in stacks)
        diags = [phases * np.diagonal(p, axis1=1, axis2=2) - 0.5 for p in stacks]
        if self.symmetric:
            kinetic = 2.0 * kinetic
            diags.append(diags[0])
        docc = np.sum(diags[0] * diags[1], axis=1)
        return weights, np.array([kinetic, docc])

    def _projectors(self, grams: list[np.ndarray]) -> list[np.ndarray]:
        """P = phi G^{-1} phi^H per sector of a Gram stack, shape (B, N, N)."""
        return [phi @ np.linalg.solve(gram, phi.conj().T) for phi, gram in zip(self.phis, grams)]

    def start(self, config: np.ndarray, weight: complex) -> list:
        """A chain's state at one (N, 2) configuration: [totals, P per sector, P's diagonals]."""
        total = config.sum(axis=1)
        ps = [p[0] for p in self._projectors(self._grams(np.exp(1j * self.alpha * total)[None]))]
        return [total.tolist(), ps, [p.diagonal().tolist() for p in ps]]

    def sweep(self, state, config: list, weight: complex, draws: list) -> tuple[complex, int]:
        """One Metropolis pass over config's fields and state, in place; see metropolis_sweep.

        Returns the tracked weight and the accept count.  Each proposal
        reads its sector factors 1 + dphase * P[i, i] off the tracked
        diagonals, an accepted flip divides each tracked P[i, i] by its
        factor, and a site whose total changed gets its one rank-one
        update of P.
        """
        steps, phase = self._steps, self._phase
        total, projectors, diagonals = state
        diag = diagonals[0]
        diag_dn = None if self.symmetric else diagonals[1]
        accepted = 0
        draw = iter(draws)
        for site, fields in enumerate(config):
            start = total[site]
            for copy in (0, 1):
                u = next(draw)
                old = total[site]
                new = old - 2 * fields[copy]
                dphase, pref = steps[old, new]
                f = 1.0 + dphase * diag[site]
                if diag_dn is None:
                    ratio = pref * f
                    w_new = weight * (ratio * ratio)
                else:
                    f_dn = 1.0 + dphase * diag_dn[site]
                    w_new = weight * (pref * f * pref * f_dn)
                _check_weight(w_new, weight)
                r = w_new.real / weight.real
                if r >= 1.0 or u < r:
                    fields[copy] = -fields[copy]
                    total[site] = new
                    weight = w_new
                    accepted += 1
                    diag[site] /= f
                    if diag_dn is not None:
                        diag_dn[site] /= f_dn
            if total[site] != start:
                dphase = phase[total[site]] - phase[start]
                for p, tracked in zip(projectors, diagonals):
                    coef = dphase / (1.0 + dphase * p[site, site])
                    p -= np.multiply.outer(p[:, site] * coef, p[site])
                    tracked[:] = p.diagonal().tolist()
        return weight, accepted


class _StatevectorEngine:
    """Weights and estimators from the trial state's occupation support.

    Both dressings are diagonal: u(s) multiplies basis state b by
    e^{i*alpha*m(b)·s}, with m(b) the per-site charge imbalance.  So
    W(s) = sum_b |psi0(b)|^2 e^{i*alpha*m(b)·t} over the trial's support
    b, and <psi0|u(s2) Ô u(s1)|psi0> needs Ô only between support states:
    the hopping operator is compiled onto the support once, and the
    double occupancy is its diagonal there.  weights and estimators take
    a whole stack in one vectorized pass; a chain's state is its fields
    as floats and its configuration's from-scratch weight.
    """

    def __init__(self, trial: TrialState, params: HSParams):
        self.alpha = params.alpha
        layout = QubitLayout(trial.lattice.n_sites)
        psi = slater_to_statevector(trial.up, trial.down, layout)
        prob = np.abs(psi.amplitudes) ** 2
        # ladder roundoff (|amp|² ≤ 1.2e-33) is 1,300 of ladder:8's 4,900 sector states
        kept = prob > 1e-28
        support = psi.support[kept]
        self.amps, self.prob = psi.amplitudes[kept], prob[kept]
        self.m_support = field_coupling_matrix(layout, support).astype(np.float64)
        kinetic, interaction = hubbard_terms(trial.lattice, 1.0, 1.0)
        self.hop = basis_matrix(kinetic, support)
        self.docc = diagonal_eigenvalues(interaction, support)

    def weights(self, configs: np.ndarray) -> np.ndarray:
        """Weights of a (..., N, 2) configuration stack, shape (...): one (N, 2) gives a scalar."""
        return np.exp(1j * self.alpha * (configs.sum(axis=-1) @ self.m_support.T)) @ self.prob

    def estimators(self, configs: np.ndarray, J: float) -> tuple[np.ndarray, np.ndarray]:
        """A stack's weights and complex K and D ratios, shapes (B,) and (2, B)."""
        weights = self.weights(configs)
        if np.min(np.abs(weights)) < 1e-300:
            raise ArithmeticError("vanishing weight denominator")
        ket = self.amps * np.exp(1j * self.alpha * (configs[:, :, 0] @ self.m_support.T))
        bra = self.amps.conj() * np.exp(1j * self.alpha * (configs[:, :, 1] @ self.m_support.T))
        kinetic = J * np.sum(bra * (self.hop @ ket.T).T, axis=1)
        docc = (bra * ket) @ self.docc
        return weights, np.array([kinetic, docc]) / weights

    def start(self, config: np.ndarray, weight: complex) -> list:
        """A chain's state at one configuration: [its fields as floats, its from-scratch weight]."""
        return [config.astype(np.float64), complex(weight)]

    def sweep(self, state, config: list, weight: complex, draws: list) -> tuple[complex, int]:
        """One Metropolis pass over config's fields and state, in place; see metropolis_sweep.

        Every proposal's ratio is its from-scratch weight (weights) over the current one.
        """
        floats, current = state
        accepted = 0
        draw = iter(draws)
        for site, fields in enumerate(config):
            for copy in (0, 1):
                u = next(draw)
                floats[site, copy] = -fields[copy]
                w_fresh = complex(self.weights(floats))
                w_new = weight * complex(w_fresh / current)
                _check_weight(w_new, weight)
                r = w_new.real / weight.real
                if r >= 1.0 or u < r:
                    fields[copy] = -fields[copy]
                    current = w_fresh
                    weight = w_new
                    accepted += 1
                else:
                    floats[site, copy] = fields[copy]
        state[1] = current
        return weight, accepted


_ENGINES = {"statevector": _StatevectorEngine, "determinant": _DeterminantEngine}
BACKENDS = tuple(_ENGINES)


def _engine(
    trial: TrialState, params: HSParams, backend: str
) -> _DeterminantEngine | _StatevectorEngine:
    if backend not in _ENGINES:
        raise ValueError(f"unknown backend {backend!r}")
    return _ENGINES[backend](trial, params)


@dataclass
class ChainState:
    """One Markov chain: configuration, tracked weight, weight engine and state.

    config is the live configuration as N [s1, s2] lists, the form the
    engine's sweep flips in place.  The engine is a pure kernel that
    chains may share; state is this chain's own, built by the engine's
    start and advanced by its sweep.  pending holds each sweep's end
    configuration, flattened to [s_01, s_02, s_11, ...], and tracked weight
    since the last stacked rebuild.  While J is set, each rebuild appends
    the real K and D estimators of its stack, shape (2, B), to measured.
    """

    config: list[list[int]]
    weight: complex
    engine: _DeterminantEngine | _StatevectorEngine
    state: list
    max_drift: float = 0.0
    pending: list[tuple[list[int], complex]] = field(default_factory=list)
    J: float | None = None
    measured: list[np.ndarray] = field(default_factory=list)


def make_chain(trial: TrialState, params: HSParams, backend: str = "determinant") -> ChainState:
    """Fresh chain at the all-(+1) configuration."""
    n = trial.lattice.n_sites
    if backend == "statevector" and n > STATEVECTOR_MAX_SITES:
        raise ValueError(f"statevector backend supports at most {STATEVECTOR_MAX_SITES} sites")
    engine = _engine(trial, params, backend)
    config = np.ones((n, 2), dtype=np.int64)
    weight = complex(engine.weights(config[None])[0])
    _check_weight(weight, weight)
    return ChainState(config.tolist(), weight, engine, engine.start(config, weight))


def _check_weight(w: complex, current: complex) -> None:
    """Raise unless ``w`` is finite, and real and nonnegative to within roundoff.

    The tolerances are relative to the larger of |w| and the chain's
    current weight |current|, so they do not loosen after the chain has
    passed through a region of larger weights.  A NaN part fails a
    comparison and an infinite |w| the finite-scale test, so neither can
    be accepted or silently rejected.
    """
    scale = abs(current)
    size = abs(w)
    if size > scale:
        scale = size
    if not (abs(w.imag) <= _IMAG_TOL * scale and w.real >= -_NEG_TOL * scale and scale < _INF):
        raise PhaseProblemError(
            f"weight {w!r} is not finite, real and nonnegative (scale {scale:.3e}); "
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
    The chain's engine runs the proposals on the chain's state (its
    sweep method).  The sweep's end configuration and tracked weight
    join the chain's pending stack; the sweep that fills it runs the
    stacked rebuild (_anchor), which checks every stacked weight from
    scratch and re-anchors the chain.
    """
    config = chain.config
    draws = rng.random(2 * len(config)).tolist()
    weight, accepted = chain.engine.sweep(chain.state, config, chain.weight, draws)
    chain.weight = weight
    chain.pending.append((list(_flatten(config)), weight))
    if len(chain.pending) == _ANCHOR_STACK:
        _anchor(chain)
    return chain, accepted


def _anchor(chain: ChainState) -> None:
    """One stacked rebuild of every pending sweep.

    Each sweep's tracked weight is compared with its from-scratch value
    (max_drift keeps the largest relative gap), and the chain re-anchors
    its weight and state on the last configuration.  While chain.J is
    set, the same pass over the stack yields its estimators.  A
    non-finite from-scratch weight raises ArithmeticError: its drift
    would be NaN, which max_drift cannot hold.
    """
    if not chain.pending:
        return
    flats, tracked = zip(*chain.pending)
    configs = np.fromiter(_flatten(flats), np.int64).reshape(len(flats), -1, 2)
    if chain.J is None:
        fresh = chain.engine.weights(configs)
    else:
        fresh, estimates = chain.engine.estimators(configs, chain.J)
        chain.measured.append(estimates.real)
    if not np.isfinite(fresh).all():
        raise ArithmeticError("stacked rebuild gave a non-finite weight")
    drift = np.abs(fresh - np.array(tracked)) / np.maximum(np.abs(fresh), 1e-300)
    chain.max_drift = max(chain.max_drift, float(drift.max()))
    # the stacked weight, not a stack of one: the two can differ in the last bit
    chain.weight = complex(fresh[-1])
    chain.state = chain.engine.start(configs[-1], chain.weight)
    chain.pending.clear()


def weight_numerator(
    config: np.ndarray,
    trial: TrialState,
    params: HSParams,
    backend: str = "determinant",
) -> complex:
    """Unnormalized weight W(s) of one configuration: the engine's stack of one."""
    config = _validate_config(config, (trial.lattice.n_sites, 2))
    return complex(_engine(trial, params, backend).weights(config[None])[0])


def local_estimator(
    config: np.ndarray,
    observable: str,
    trial: TrialState,
    params: HSParams,
    backend: str = "determinant",
    J: float = 1.0,
) -> complex:
    """Ratio <psi0|u(s2) Ô u(s1)|psi0> / W(s) for one configuration.

    observable is "kinetic" or "interaction" on either backend; both are
    read off the engine's estimators for a stack of one.
    """
    if observable not in ("kinetic", "interaction"):
        raise ValueError(f"unknown observable {observable!r}")
    config = _validate_config(config, (trial.lattice.n_sites, 2))
    kinetic, docc = _engine(trial, params, backend).estimators(config[None], J)[1][:, 0]
    return complex(kinetic if observable == "kinetic" else docc)


def sample_kinetic_interaction(
    lattice: Lattice, J: float, g: float, mc_params: McParams
) -> McSamples:
    """Run one chain and bin the kinetic and double-occupancy samples.

    Neither observable depends on U, so the returned bins can be combined
    with any interaction strength afterwards.  Each measured sweep's
    estimators come from the stacked rebuild that checks its weight; the
    burn-in ends with a rebuild of its own, so no stack mixes the two.
    The real parts are kept: the exact weighted averages are real, and
    the per-sample imaginary parts average to zero by symmetry.  A chain
    whose max_drift passes _MAX_DRIFT raises ArithmeticError.
    """
    trial = half_filled_trial(lattice)
    params = hs_params(g)
    rng = np.random.default_rng(mc_params.rng_seed)
    chain = make_chain(trial, params, mc_params.backend)
    for _ in range(mc_params.burnin):
        metropolis_sweep(chain, trial, params, rng)
    _anchor(chain)
    chain.J = J
    accepted = 0
    for _ in range(mc_params.n_sweeps):
        _, n_acc = metropolis_sweep(chain, trial, params, rng)
        accepted += n_acc
    _anchor(chain)
    if chain.max_drift > _MAX_DRIFT:
        raise ArithmeticError(
            f"tracked weight drifted {chain.max_drift:.3e} from its rebuild (bound {_MAX_DRIFT:g})")
    k_samples, d_samples = np.concatenate(chain.measured, axis=1)
    per_bin = mc_params.n_sweeps // mc_params.n_bins
    return McSamples(
        k_bins=k_samples.reshape(mc_params.n_bins, per_bin).mean(axis=1),
        d_bins=d_samples.reshape(mc_params.n_bins, per_bin).mean(axis=1),
        acceptance_rate=accepted / (mc_params.n_sweeps * 2 * lattice.n_sites),
        n_sweeps=mc_params.n_sweeps,
        max_drift=chain.max_drift,
    )


def _binned(bins: np.ndarray, samples: McSamples) -> EstimatorResult:
    n_bins = bins.size
    stderr = float(np.std(bins, ddof=1) / np.sqrt(n_bins)) if n_bins > 1 else 0.0
    return EstimatorResult(float(np.mean(bins)), stderr, samples.acceptance_rate)


def results_from_samples(samples: McSamples, U: float) -> list[EstimatorResult]:
    """Assemble E, K, U<D> estimates (E combined per-bin, so correlations count)."""
    ud_bins = U * samples.d_bins
    return [
        _binned(samples.k_bins + ud_bins, samples),
        _binned(samples.k_bins, samples),
        _binned(ud_bins, samples),
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
    if n > PHASE_CHECK_MAX_SITES:
        raise ValueError(f"phase check enumerates 4^N configs; {n} sites is above "
                         f"the {PHASE_CHECK_MAX_SITES}-site cap")
    if trial is None:
        trial = half_filled_trial(lattice)
    elif trial.lattice != lattice:
        raise ValueError(f"trial is built on {trial.lattice.kind}:{trial.lattice.n_sites}, "
                         f"not on the checked {lattice.kind}:{n}")
    singles = all_field_vectors(n)
    # every ordered pair (ket vector, bra vector) of single-copy fields
    configs = np.stack(np.broadcast_arrays(singles[:, None], singles[None, :]), axis=-1)
    weights = _DeterminantEngine(trial, hs_params(g)).weights(configs.reshape(-1, n, 2))
    return PhaseCheckReport(
        n_sites=n,
        n_configs=weights.size,
        max_imag=float(np.max(np.abs(weights.imag))),
        min_real=float(np.min(weights.real)),
    )
