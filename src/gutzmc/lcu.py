"""Probabilistic preparation of the projected state with one ancilla per site.

Each site's nonunitary factor is a half-and-half mix of two diagonal
rotations, so a Hadamard-sandwiched controlled rotation on a fresh
ancilla realizes it probabilistically: the all-zeros ancilla branch
carries e^{-g*N/4} * e^{-g*D} |psi0>, and the success probability is
p = e^{-g*N/2} * <psi0| e^{-2g*D} |psi0>.

The success-probability curves are also computed through a closed-form
route that never touches a register: both trial sectors are expanded
into occupation weights and binned by the Hamming distance between the
up and down occupations, which fixes the double-occupancy eigenvalue.
The binning is an XOR convolution done by fast Walsh-Hadamard transform,
O(N * 2^N) time and O(2^N) memory, so the route reaches N around 20 where
the 3N-qubit circuit stops near N=6.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gutzwiller import hs_params
from .lattice import Lattice, QubitLayout
from .slater import TrialState, half_filled_trial, sector_amplitudes
from .statevector import Gate, StateVector, apply_circuit, crz, hadamard, pauli_x, rz


@dataclass(frozen=True)
class LcuOutcome:
    """Result of projecting the ancillas onto the all-zeros outcome."""

    success_probability: float
    projected_state: StateVector


def _dressing_gates(site: int, alpha: float, layout: QubitLayout, simplified: bool) -> list[Gate]:
    """Gates realizing ancilla-controlled e^{±i*alpha*(n_up+n_dn-1)} on one site.

    Ancilla |1⟩ selects the +alpha branch.  The simplified form drops the
    control from the minus branch: an uncontrolled R_Z(-alpha) pair plus a
    controlled R_Z(2*alpha) pair composes to exactly the same two-branch
    unitary, saving two controls per site.
    """
    anc = layout.ancilla(site)
    up = layout.qubit(site, "up")
    dn = layout.qubit(site, "down")
    if simplified:
        return [
            rz(-alpha, up),
            rz(-alpha, dn),
            crz(2 * alpha, anc, up),
            crz(2 * alpha, anc, dn),
        ]
    return [
        pauli_x(anc),
        crz(-alpha, anc, up),
        crz(-alpha, anc, dn),
        pauli_x(anc),
        crz(alpha, anc, up),
        crz(alpha, anc, dn),
    ]


def build_lcu_state(
    trial: StateVector, g: float, layout: QubitLayout, simplified: bool = True
) -> StateVector:
    """Run the preparation circuit on trial ⊗ |0…0⟩ ancillas.

    Parameters
    ----------
    trial : StateVector
        Normalized register state on 2*n_sites qubits.
    g : float
        Projection strength.
    layout : QubitLayout
        Site-to-qubit map; a register-only layout is extended with one
        ancilla per site (ancillas take the highest qubit indices).
    simplified : bool
        Use the single-controlled-rotation form instead of the naive
        both-branches-controlled form.  The two produce identical states.
    """
    if layout.n_ancillas == 0:
        layout = QubitLayout(layout.n_sites, n_ancillas=layout.n_sites)
    if layout.n_ancillas != layout.n_sites:
        raise ValueError("need exactly one ancilla per site")
    if trial.n_qubits != layout.n_register:
        raise ValueError("trial state does not match the register size")
    params = hs_params(g)
    ancilla_vacuum = np.zeros(1 << layout.n_sites, dtype=complex)
    ancilla_vacuum[0] = 1.0
    whole = StateVector(layout.n_qubits, np.kron(trial.amplitudes, ancilla_vacuum))
    gates: list[Gate] = []
    for site in range(layout.n_sites):
        gates.append(hadamard(layout.ancilla(site)))
        gates.extend(_dressing_gates(site, params.alpha, layout, simplified))
        gates.append(hadamard(layout.ancilla(site)))
    return apply_circuit(whole, gates)


def measure_ancillas_success(whole_state: StateVector) -> LcuOutcome:
    """Project onto ancillas |0…0⟩ and renormalize the register branch."""
    if whole_state.n_qubits % 3 != 0:
        raise ValueError("whole state is not an N-ancilla + 2N-register layout")
    n_sites = whole_state.n_qubits // 3
    branch = whole_state.amplitudes.reshape(1 << (2 * n_sites), 1 << n_sites)[:, 0]
    probability = float(np.real(np.vdot(branch, branch)))
    if probability < 1e-300:
        raise ArithmeticError("all-zeros ancilla branch has vanishing probability")
    projected = StateVector(2 * n_sites, branch / np.sqrt(probability))
    return LcuOutcome(success_probability=probability, projected_state=projected)


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2^n vector."""
    size = a.size
    h = 1
    while h < size:
        pairs = a.reshape(-1, 2, h)
        a = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1)
        h *= 2
    return a.reshape(size)


def pair_distance_weights(trial: TrialState) -> np.ndarray:
    """Trial weight binned by up/down occupation Hamming distance.

    Entry k sums |amp_up(b)|^2 * |amp_dn(b')|^2 over occupation pairs
    whose XOR has popcount k.  A pair at distance k has double-occupancy
    eigenvalue (N - 2k)/4, so these N+1 numbers determine every moment
    of e^{-2g*D} on the trial state.

    The weight of each XOR value z is the XOR convolution of the two
    sector weights, which the Walsh-Hadamard transform diagonalizes.  The
    transform leaves roundoff in bins that no pair can reach; those are
    set to exactly 0 from the particle numbers (k has the parity of
    n_up + n_dn and lies in [|n_up - n_dn|, min(n_up + n_dn, 2N - n_up - n_dn)]).
    """
    n = trial.lattice.n_sites
    w_up = np.abs(sector_amplitudes(trial.up)) ** 2
    w_dn = np.abs(sector_amplitudes(trial.down)) ** 2
    by_xor = _walsh_hadamard(_walsh_hadamard(w_up) * _walsh_hadamard(w_dn)) / (1 << n)
    distance = np.bitwise_count(np.arange(1 << n))
    weights = np.bincount(distance, weights=by_xor, minlength=n + 1)
    k = np.arange(n + 1)
    n_up, n_dn = trial.up.n_particles, trial.down.n_particles
    reachable = (
        ((k - n_up - n_dn) % 2 == 0)
        & (k >= abs(n_up - n_dn))
        & (k <= min(n_up + n_dn, 2 * n - n_up - n_dn))
    )
    weights[~reachable] = 0.0
    return weights


def _log_norm_squared(weights: np.ndarray, n_sites: int, g: float) -> float:
    """ln <psi0| e^{-2g*D} |psi0> from the distance-binned weights."""
    support = np.flatnonzero(weights > 0)
    d = (n_sites - 2 * support) / 4.0
    # Factor out the largest exponent for stability at large g.
    expo = -2.0 * g * d
    peak = float(np.max(expo))
    return peak + float(np.log(np.sum(weights[support] * np.exp(expo - peak))))


def success_probability(lattice: Lattice, g: float, trial: TrialState | None = None) -> float:
    """Closed-form p = e^{-g*N/2} <psi0|e^{-2g*D}|psi0> for the half-filled trial."""
    if trial is None:
        trial = half_filled_trial(lattice)
    weights = pair_distance_weights(trial)
    return float(np.exp(-g * lattice.n_sites / 2 + _log_norm_squared(weights, lattice.n_sites, g)))


def success_probability_curve(
    lattice: Lattice, g_grid: np.ndarray
) -> list[tuple[int, float, float]]:
    """(N_site, g, p) rows over a g grid, using the closed-form route."""
    trial = half_filled_trial(lattice)
    weights = pair_distance_weights(trial)
    n = lattice.n_sites
    return [
        (n, float(g), float(np.exp(-g * n / 2 + _log_norm_squared(weights, n, float(g)))))
        for g in np.asarray(g_grid, dtype=np.float64)
    ]


def exact_double_occupancy(lattice: Lattice, g: float, trial: TrialState | None = None) -> float:
    """⟨D⟩ in the projected state, from the distance-binned weights."""
    if trial is None:
        trial = half_filled_trial(lattice)
    weights = pair_distance_weights(trial)
    n = lattice.n_sites
    support = np.flatnonzero(weights > 0)
    d = (n - 2 * support) / 4.0
    expo = -2.0 * g * d
    boltz = weights[support] * np.exp(expo - np.max(expo))
    return float(np.sum(boltz * d) / np.sum(boltz))


def docc_from_success_probability(lattice: Lattice, g: float, delta: float = 1e-4) -> float:
    """⟨D⟩ recovered from the success probability's logarithmic derivative.

    Uses -(N/4 + (1/2) * centered difference of ln p); the closed-form
    norm extends smoothly below g=0, so the stencil is valid at g=0 too.
    """
    trial = half_filled_trial(lattice)
    weights = pair_distance_weights(trial)
    n = lattice.n_sites

    def log_p(x: float) -> float:
        return -x * n / 2 + _log_norm_squared(weights, n, x)

    slope = (log_p(g + delta) - log_p(g - delta)) / (2 * delta)
    return -(n / 4 + slope / 2)
