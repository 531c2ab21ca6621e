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
P's diagonal, an accepted flip a rank-one update of P, and every sweep
ends with a from-scratch rebuild that re-anchors the weight.  The
statevector backend sums diagonal dressing phases over the trial
state's occupation support.  They are required to agree to 1e-10 and
are cross-checked in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gutzwiller import (
    HSParams,
    _validate_config,
    all_field_vectors,
    field_coupling_matrix,
    field_rotation_circuit,
    hs_params,
)
from .lattice import Lattice, QubitLayout, hopping_matrix, hubbard_terms
from .pauli import apply_pauli_sum
from .slater import (
    TrialState,
    dressed_green_function,
    dressed_overlap,
    half_filled_trial,
    slater_to_statevector,
)
from .statevector import StateVector, apply_circuit

BACKENDS = ("statevector", "determinant")

# Weights are mathematically real positive in the supported regime;
# these relative tolerances separate roundoff from a genuine violation.
_IMAG_TOL = 1e-8
_NEG_TOL = 1e-8

# Systems up to this many sites memoize the engine's rebuilds and the K/D
# measurements.
_MEMO_MAX_SITES = 6


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
    largest relative gap between the incrementally tracked weight and its
    per-sweep from-scratch rebuild.
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
    ratio is e^{-i*alpha*dt/2} (1 + dphase * P[i, i]) and Sherman-Morrison
    updates P on commit (Blankenbecler, Scalapino & Sugar, PRD 24, 2278).
    reset rebuilds det(G) and P from scratch; the sampler calls it once
    per sweep to re-anchor the weight.
    """

    def __init__(self, trial: TrialState, params: HSParams):
        self.alpha = params.alpha
        if trial.spin_symmetric:
            self.phis = [trial.up.phi]
            self.symmetric = True
        else:
            self.phis = [trial.up.phi, trial.down.phi]
            self.symmetric = False
        phase = {t: complex(np.exp(1j * self.alpha * t)) for t in (-2, 0, 2)}
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
        # At most 3^N distinct total fields exist; for small systems the
        # rebuild repeats endlessly, so memoize it.  Memo-enabled engines
        # keep P canonical (the from-scratch build for the current total
        # field, also after commits), which makes every cache entry a
        # pure function of its key; larger systems update P in place.
        self._memo: dict | None = {} if trial.lattice.n_sites <= _MEMO_MAX_SITES else None

    def reset(self, total: np.ndarray | list[int]) -> complex:
        """Rebuild P for the given total field from scratch; return W."""
        self.total = np.asarray(total).tolist()
        self._pending = None
        return self._load()

    def _load(self) -> complex:
        if self._memo is None:
            hit = self._rebuild()
        else:
            key = tuple(self.total)
            hit = self._memo.get(key)
            if hit is None:
                hit = self._memo[key] = self._rebuild()
        self.projectors, self.diagonals, weight = hit
        return weight

    def _rebuild(self) -> tuple[list[np.ndarray], list[list[complex]], complex]:
        total = np.array(self.total, dtype=np.float64)
        phases = np.exp(1j * self.alpha * total)
        prefactor = np.exp(-0.5j * self.alpha * total.sum())
        projectors, w = [], 1.0 + 0.0j
        for phi in self.phis:
            gram = phi.conj().T @ (phases[:, None] * phi)
            w *= prefactor * complex(np.linalg.det(gram))
            projectors.append(phi @ np.linalg.solve(gram, phi.conj().T))
        if self.symmetric:
            w *= w
        return projectors, [p.diagonal().tolist() for p in projectors], complex(w)

    def proposal_ratio(self, site: int, new_total: int) -> complex:
        """W(t with t_site -> new_total) / W(t) from the diagonal of P."""
        dphase, pref = self._steps[self.total[site], new_total]
        factors = [1.0 + dphase * diag[site] for diag in self.diagonals]
        self._pending = (site, new_total, dphase, factors)
        ratio = pref * factors[0]
        if self.symmetric:
            return ratio * ratio
        return ratio * pref * factors[1]

    def commit(self) -> None:
        site, new_total, dphase, factors = self._pending
        self.total[site] = new_total
        self._pending = None
        if self._memo is not None:
            self._load()
            return
        for p, factor in zip(self.projectors, factors):
            p -= (p[:, site] * (dphase / factor))[:, None] * p[site]
        self.diagonals = [p.diagonal().tolist() for p in self.projectors]

    def green_functions(self, config: np.ndarray) -> list[np.ndarray]:
        """Per-spin Green matrices M = e^{i*alpha*s1} P e^{i*alpha*s2}."""
        ket_phase = np.exp(1j * self.alpha * config[:, 0].astype(np.float64))
        bra_phase = np.exp(1j * self.alpha * config[:, 1].astype(np.float64))
        greens = [ket_phase[:, None] * p * bra_phase[None, :] for p in self.projectors]
        if self.symmetric:
            greens.append(greens[0])
        return greens


class _StatevectorEngine:
    """Weights from the trial state's occupation support.

    Both dressings are diagonal, so W(s) = sum_b |psi0(b)|^2
    e^{i*alpha*m(b)·t} with m(b) the per-site charge imbalance; only
    basis states in the trial's support contribute.
    """

    def __init__(self, trial: TrialState, params: HSParams):
        if trial.lattice.n_sites > 8:
            raise ValueError("statevector backend supports at most 8 sites")
        self.alpha = params.alpha
        layout = QubitLayout(trial.lattice.n_sites)
        psi = slater_to_statevector(trial.up, trial.down, layout)
        prob = np.abs(psi.amplitudes) ** 2
        support = np.flatnonzero(prob > 1e-28)
        self.prob = prob[support]
        self.m_support = field_coupling_matrix(layout)[support].astype(np.float64)
        self.total = np.zeros(trial.lattice.n_sites, dtype=np.int64)
        self.current = 1.0 + 0.0j
        self._pending: tuple | None = None

    def _weight_of(self, total: np.ndarray) -> complex:
        return complex(self.prob @ np.exp(1j * self.alpha * (self.m_support @ total)))

    def reset(self, total: np.ndarray) -> complex:
        self.total = np.asarray(total, dtype=np.int64).copy()
        self.current = self._weight_of(self.total.astype(np.float64))
        self._pending = None
        return self.current

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


@dataclass
class ChainState:
    """One Markov chain: configuration, cached weight, weight engine."""

    config: np.ndarray
    weight: complex
    engine: _DeterminantEngine | _StatevectorEngine
    max_drift: float = 0.0


def make_chain(trial: TrialState, params: HSParams, backend: str = "determinant") -> ChainState:
    """Fresh chain at the all-(+1) configuration."""
    n = trial.lattice.n_sites
    config = np.ones((n, 2), dtype=np.int64)
    if backend == "determinant":
        engine: _DeterminantEngine | _StatevectorEngine = _DeterminantEngine(trial, params)
    elif backend == "statevector":
        engine = _StatevectorEngine(trial, params)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    weight = engine.reset(config.sum(axis=1))
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
    The sweep ends by re-anchoring the cached weight against a
    from-scratch evaluation.
    """
    accepted = 0
    engine = chain.engine
    weight = chain.weight
    config = chain.config.tolist()
    draws = iter(rng.random(2 * len(config)).tolist())
    for site, fields in enumerate(config):
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
    chain.config[:] = config
    fresh = engine.reset([a + b for a, b in config])
    denom = max(abs(fresh), 1e-300)
    chain.max_drift = max(chain.max_drift, abs(fresh - weight) / denom)
    chain.weight = fresh
    return chain, accepted


def weight_numerator(
    config: np.ndarray,
    trial: TrialState,
    params: HSParams,
    backend: str = "determinant",
) -> complex:
    """Unnormalized weight W(s) of one configuration.

    The determinant backend multiplies the two sector overlaps; the
    statevector backend applies both dressing circuits to the trial
    register and takes the inner product.
    """
    n = trial.lattice.n_sites
    _validate_config(config, n)
    if backend == "determinant":
        w = dressed_overlap(trial.up, config, params.alpha)
        if trial.spin_symmetric:
            return w * w
        return w * dressed_overlap(trial.down, config, params.alpha)
    if backend == "statevector":
        layout = QubitLayout(n)
        psi = slater_to_statevector(trial.up, trial.down, layout)
        dressed = apply_circuit(psi.copy(), field_rotation_circuit(config, 1, params, layout))
        dressed = apply_circuit(dressed, field_rotation_circuit(config, 2, params, layout))
        return psi.inner(dressed)
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
    backend applies the Pauli form of the observable between the two
    dressing circuits.
    """
    if observable not in ("kinetic", "interaction"):
        raise ValueError(f"unknown observable {observable!r}")
    n = trial.lattice.n_sites
    config = _validate_config(config, n)
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
        return kinetic if observable == "kinetic" else docc
    if backend == "statevector":
        kinetic_op, interaction_op = hubbard_terms(trial.lattice, J, 1.0)
        op = kinetic_op if observable == "kinetic" else interaction_op
        layout = QubitLayout(n)
        psi = slater_to_statevector(trial.up, trial.down, layout)
        ket = apply_circuit(psi.copy(), field_rotation_circuit(config, 1, params, layout))
        obs_amps = apply_pauli_sum(ket.amplitudes, op)
        obs_ket = StateVector(ket.n_qubits, obs_amps)
        obs_ket = apply_circuit(obs_ket, field_rotation_circuit(config, 2, params, layout))
        dressed = apply_circuit(ket, field_rotation_circuit(config, 2, params, layout))
        w = psi.inner(dressed)
        if abs(w) < 1e-300:
            raise ArithmeticError("vanishing weight denominator")
        return psi.inner(obs_ket) / w
    raise ValueError(f"unknown backend {backend!r}")


def _kd_sums(greens: list[np.ndarray], t_mat: np.ndarray) -> tuple[complex, complex]:
    """Hopping sum tr(T·M) over both spins and sum_i (M_up[i,i]-1/2)(M_dn[i,i]-1/2)."""
    kinetic = sum(np.sum(t_mat * m.T) for m in greens)
    docc = np.sum((np.diagonal(greens[0]) - 0.5) * (np.diagonal(greens[1]) - 0.5))
    return complex(kinetic), complex(docc)


def _measure_kd(
    chain: ChainState,
    trial: TrialState,
    params: HSParams,
    J: float,
    t_mat: np.ndarray,
    cache: dict[bytes, tuple[float, float]] | None = None,
) -> tuple[float, float]:
    """Kinetic and double-occupancy local estimators at the current config.

    The exact weighted averages of these ratios are real; per-sample
    imaginary parts average to zero by symmetry, so the real part is an
    unbiased (and lower-variance) estimator.  Called between sweeps the
    value is a pure function of the configuration, so the sampling loop
    passes a memo dict for small systems.
    """
    if cache is not None:
        key = chain.config.tobytes()
        hit = cache.get(key)
        if hit is None:
            hit = _measure_kd(chain, trial, params, J, t_mat)
            cache[key] = hit
        return hit
    if isinstance(chain.engine, _DeterminantEngine):
        kinetic, docc = _kd_sums(chain.engine.green_functions(chain.config), t_mat)
        return kinetic.real, docc.real
    kinetic = local_estimator(chain.config, "kinetic", trial, params, "statevector", J)
    docc = local_estimator(chain.config, "interaction", trial, params, "statevector", J)
    return float(kinetic.real), float(docc.real)


def sample_kinetic_interaction(
    lattice: Lattice, J: float, g: float, mc_params: McParams
) -> McSamples:
    """Run one chain and bin the kinetic and double-occupancy samples.

    Neither observable depends on U, so the returned bins can be combined
    with any interaction strength afterwards.
    """
    trial = half_filled_trial(lattice)
    params = hs_params(g)
    rng = np.random.default_rng(mc_params.rng_seed)
    chain = make_chain(trial, params, mc_params.backend)
    for _ in range(mc_params.burnin):
        metropolis_sweep(chain, trial, params, rng)
    k_samples = np.empty(mc_params.n_sweeps)
    d_samples = np.empty(mc_params.n_sweeps)
    accepted = 0
    t_mat = hopping_matrix(lattice, J)
    kd_cache: dict[bytes, tuple[float, float]] | None = (
        {} if lattice.n_sites <= _MEMO_MAX_SITES else None
    )
    for sweep in range(mc_params.n_sweeps):
        _, n_acc = metropolis_sweep(chain, trial, params, rng)
        accepted += n_acc
        k_samples[sweep], d_samples[sweep] = _measure_kd(
            chain, trial, params, J, t_mat, kd_cache
        )
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
    params = hs_params(g)
    singles = all_field_vectors(n)
    # total field t = s1 + s2 for every ordered pair of single-copy vectors
    totals = (singles[:, None, :] + singles[None, :, :]).reshape(-1, n).astype(np.float64)
    weights = np.ones(totals.shape[0], dtype=complex)
    prefactors = np.exp(-0.5j * params.alpha * totals.sum(axis=1))
    sectors = [trial.up] if trial.spin_symmetric else [trial.up, trial.down]
    powers = 2 if trial.spin_symmetric else 1
    for sector in sectors:
        phases = np.exp(1j * params.alpha * totals)
        grams = np.einsum("ia,ci,ib->cab", sector.phi.conj(), phases, sector.phi)
        weights *= (prefactors * np.linalg.det(grams)) ** powers
    return PhaseCheckReport(
        n_sites=n,
        g=float(g),
        n_configs=weights.size,
        max_imag=float(np.max(np.abs(weights.imag))),
        min_real=float(np.min(weights.real)),
    )
