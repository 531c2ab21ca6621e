"""Discrete auxiliary-field machinery for the Gutzwiller projector.

The nonunitary factor e^{-g*D} on a doubly occupied register splits, site
by site, into an equal-weight sum of two diagonal unitaries:

    e^{-g*(n_up - 1/2)(n_dn - 1/2)} = gamma * sum_{s=±1} e^{i*alpha*s*(n_up + n_dn - 1)}

with alpha = arccos(e^{-g/2}) and gamma = e^{g/4}/2.  On a circuit a
site's unitary is R_Z(s*alpha) on both of its spin qubits: with R_Z(theta)
= diag(e^{-i*theta/2}, e^{i*theta/2}) the two phases multiply to
e^{i*alpha*s*(n_up + n_dn - 1)} exactly, so no global phase is left over.

This module owns the parameter bookkeeping, the 4x4 identity check, the
exact (diagonal) application of the projector used as an oracle, the
brute-force 4^N double sum over field configurations, and the closed-form
two-site energy curves.  Both oracles take the trial as a register-only
:class:`gutzmc.statevector.SupportState` and work on its support; the
exact projection stays there (63,504 amplitudes at chain:10, where the
register holds 2^20).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import QubitLayout
# apply_pauli_sum is unused here but stays importable: the benchmark's tracer
# wraps gutzmc.gutzwiller.apply_pauli_sum by name.
from .pauli import (  # noqa: F401
    PauliSum, apply_pauli_sum, basis_matrix, diagonal_eigenvalues,
)
from .statevector import SupportState

FULL_SUM_MAX_SITES = 7  # full_sum_expectation enumerates all 4^N field pairs


@dataclass(frozen=True)
class HSParams:
    """Angle and weight of the two-branch decomposition at one coupling g."""

    alpha: float
    gamma: float


@dataclass(frozen=True)
class TwoSiteCurves:
    """Closed-form two-site variational curves on a g grid."""

    E: np.ndarray
    K: np.ndarray
    UD: np.ndarray
    g_opt: float
    E_opt: float


def hs_params(g: float) -> HSParams:
    """Angle and weight of the two-unitary split at coupling g ≥ 0."""
    if g < 0:
        raise ValueError(f"g must be nonnegative, got {g}")
    return HSParams(alpha=float(np.arccos(np.exp(-g / 2))), gamma=float(np.exp(g / 4) / 2))


def verify_hs_identity(g: float) -> float:
    """Max elementwise deviation of the one-site split, as 4x4 matrices.

    Basis order |n_up n_dn⟩ = |00⟩,|01⟩,|10⟩,|11⟩.  The left side is
    diag(e^{-g/4}, e^{g/4}, e^{g/4}, e^{-g/4}); the right side sums the
    two diagonal unitaries weighted by gamma.
    """
    p = hs_params(g)
    left = np.diag(np.exp(-g * np.array([0.25, -0.25, -0.25, 0.25])))
    charge = np.array([-1.0, 0.0, 0.0, 1.0])  # n_up + n_dn - 1 per basis state
    right = sum(p.gamma * np.diag(np.exp(1j * p.alpha * s * charge)) for s in (+1, -1))
    return float(np.max(np.abs(left - right)))


def apply_gutzwiller_exact(state: SupportState, g: float, D_pauli: PauliSum) -> SupportState:
    """Multiply amplitudes by e^{-g*d(b)}; output deliberately unnormalized.

    d(b) is the diagonal eigenvalue of the double-occupancy sum on basis
    state b, so the squared norm of the result is the projector's
    normalization denominator.  ``state`` must be register-only; d and the
    damping are evaluated on its support, and the result stays there.
    """
    if state.n_ancillas or D_pauli.n_qubits != state.n_register:
        raise ValueError(f"{D_pauli.n_qubits}-qubit D on a {state.n_qubits}-qubit state "
                         f"with {state.n_ancillas} ancillas")
    d = diagonal_eigenvalues(D_pauli, state.support)
    return SupportState(state.n_register, 0, state.support, state.amplitudes * np.exp(-g * d))


def field_coupling_matrix(layout: QubitLayout, basis: np.ndarray) -> np.ndarray:
    """Per-site charge imbalance n_up + n_dn - 1 on register basis states.

    Returns an int8 array of shape (len(basis), n_sites); entry [b, i] is
    the eigenvalue the site-i field couples to on basis state basis[b].
    """
    m = np.empty((basis.size, layout.n_sites), dtype=np.int8)
    for site in range(layout.n_sites):
        up = (basis >> (layout.n_register - 1 - layout.qubit(site, "up"))) & 1
        dn = (basis >> (layout.n_register - 1 - layout.qubit(site, "down"))) & 1
        m[:, site] = (up + dn - 1).astype(np.int8)
    return m


def _validate_config(config: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """±1 fields as int64: shape (n_sites, 2) for a config, (rows, n_sites) for a stack."""
    s = np.asarray(config, dtype=np.int64)
    if s.shape != shape:
        raise ValueError(f"expected ±1 field vectors of shape {shape}, got {s.shape}")
    if np.any(np.abs(s) != 1):
        raise ValueError("field vectors must be ±1")
    return s


def all_field_vectors(n_sites: int) -> np.ndarray:
    """All 2**n_sites single-copy field vectors as rows of ±1 (int8)."""
    idx = np.arange(1 << n_sites, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1
    return (2 * bits - 1).astype(np.int8)


def full_sum_expectation(
    observable: PauliSum, g: float, trial: SupportState, layout: QubitLayout
) -> float:
    """Projected expectation by brute-force enumeration of all 4^N configs.

    Every pair (ket config, bra config) contributes one term of the double
    sum; the pairs are materialized as a 2^N x 2^N matrix of matrix
    elements and summed (numpy's pairwise reduction keeps the order
    deterministic).  The shared gamma^{2N} prefactor cancels in the ratio.
    Only the register-only trial's support rows are built (400 of 4096 at
    chain:6): every dressed bra vanishes outside it, so the observable is
    applied as an in-support sparse matrix and the other rows contribute
    exactly 0.
    """
    if layout.n_sites > FULL_SUM_MAX_SITES:
        raise ValueError(
            f"{layout.n_sites} sites is too large for 4^N enumeration (max {FULL_SUM_MAX_SITES})"
        )
    if (trial.n_ancillas or trial.n_register != layout.n_register
            or observable.n_qubits != layout.n_register):
        raise ValueError("trial state or observable does not match layout register")
    p = hs_params(g)
    support, amps = trial.support, trial.amplitudes
    m = field_coupling_matrix(layout, support)
    fields = all_field_vectors(layout.n_sites)
    # phases[b, c] = e^{i*alpha*sum_i s_c[i]*m_i(b)} = action of the c-th dressing
    phases = np.exp(1j * p.alpha * (m.astype(np.float64) @ fields.T.astype(np.float64)))
    kets = phases * amps[:, None]
    bras = phases * amps.conj()[:, None]
    obs_kets = basis_matrix(observable, support) @ kets
    numerator = np.sum(bras.T @ obs_kets)
    denominator = np.sum(bras.T @ kets)
    value = numerator / denominator
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise ArithmeticError(f"expectation has unexpected imaginary part {value.imag:.3e}")
    return float(value.real)


def two_site_energy(g: float, J: float, U: float) -> float:
    """Closed-form two-site variational energy E(g) = -(2J + (U/2) sinh g)/cosh g."""
    return -(2 * J + (U / 2) * np.sinh(g)) / np.cosh(g)


def two_site_curves(J: float, U: float, g_grid: np.ndarray) -> TwoSiteCurves:
    """Closed-form E, K, UD curves plus the optimal point.

    The kinetic part is -2J/cosh g, the interaction part
    -(U/2) sinh g / cosh g; the minimum sits at sinh g_opt = U/(4J) with
    E_opt = -sqrt(4J² + U²/4).
    """
    if J <= 0:
        raise ValueError(f"J must be positive, got {J}")
    g = np.asarray(g_grid, dtype=np.float64)
    k_curve = -2 * J / np.cosh(g)
    ud_curve = -(U / 2) * np.tanh(g)
    return TwoSiteCurves(
        E=k_curve + ud_curve,
        K=k_curve,
        UD=ud_curve,
        g_opt=float(np.arcsinh(U / (4 * J))),
        E_opt=float(-np.sqrt(4 * J**2 + U**2 / 4)),
    )
