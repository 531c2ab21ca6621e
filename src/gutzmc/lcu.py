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
O(N * 2^N) time and O(2^N) memory, so the route reaches N around 20.

The circuit itself runs on the trial's support: every register gate is
RZ or CRZ, diagonal on the register, so the state stays inside
(trial support) x (ancillas).  It is stored ancilla-major, 2^N ancilla
states by the support rows (:class:`gutzmc.statevector.SupportState`):
400 x 64 amplitudes at chain:6 and 4900 x 256 at chain:8 and ladder:8,
where the full 3N-qubit register would need 2^18 and 2^24.  The
all-zeros ancilla branch is read off as a register-only SupportState on
the same support, never scattered into the 2^(2N) register.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gutzwiller import hs_params
from .lattice import Lattice, QubitLayout
from .slater import TrialState, half_filled_trial, sector_amplitudes
from .statevector import Gate, SupportState, apply_circuit, crz, hadamard, pauli_x, rz


@dataclass(frozen=True)
class LcuOutcome:
    """Result of projecting the ancillas onto the all-zeros outcome."""

    success_probability: float
    projected_state: SupportState


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
    trial: SupportState, g: float, layout: QubitLayout, simplified: bool = True
) -> SupportState:
    """Run the preparation circuit on trial ⊗ |0…0⟩ ancillas.

    Parameters
    ----------
    trial : SupportState
        Normalized register-only state on 2*n_sites qubits.
    g : float
        Projection strength.
    layout : QubitLayout
        Site-to-qubit map; site i's ancilla is qubit 2*n_sites + i.
    simplified : bool
        Use the single-controlled-rotation form instead of the naive
        both-branches-controlled form.  The two produce identical states.

    Returns
    -------
    SupportState
        The whole circuit state, ancilla-major: 2^n_sites ancilla states
        by the trial's support.  Its all-zeros ancilla branch is the first
        row block.  The 2^(3*n_sites) register is never allocated.
    """
    if trial.n_ancillas or trial.n_register != layout.n_register:
        raise ValueError("trial state does not match the register size")
    params = hs_params(g)
    amps = np.zeros((1 << layout.n_sites, trial.support.size), dtype=complex)
    amps[0] = trial.amplitudes
    whole = SupportState(layout.n_register, layout.n_sites, trial.support, amps.reshape(-1))
    gates: list[Gate] = []
    for site in range(layout.n_sites):
        gates.append(hadamard(layout.ancilla(site)))
        gates.extend(_dressing_gates(site, params.alpha, layout, simplified))
        gates.append(hadamard(layout.ancilla(site)))
    return apply_circuit(whole, gates)


def measure_ancillas_success(whole_state: SupportState) -> LcuOutcome:
    """Project onto ancillas |0…0⟩ and renormalize the register branch.

    The branch is the first row block, kept on the circuit's support as a
    register-only SupportState; its probability is the block's
    :meth:`~gutzmc.statevector.SupportState.squared_norm`.
    """
    if whole_state.n_register != 2 * whole_state.n_ancillas:
        raise ValueError("whole state is not an N-ancilla + 2N-register layout")
    support = whole_state.support
    branch = SupportState(whole_state.n_register, 0, support,
                          whole_state.amplitudes[:support.size])
    probability = branch.squared_norm()
    if probability < 1e-300:
        raise ArithmeticError("all-zeros ancilla branch has vanishing probability")
    return LcuOutcome(success_probability=probability, projected_state=branch.normalized())


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
    A spin-symmetric trial's two sectors share one transform.
    """
    n = trial.lattice.n_sites
    up = _walsh_hadamard(np.abs(sector_amplitudes(trial.up)) ** 2)
    if trial.spin_symmetric:
        down = up
    else:
        down = _walsh_hadamard(np.abs(sector_amplitudes(trial.down)) ** 2)
    by_xor = _walsh_hadamard(up * down) / (1 << n)
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


def _boltzmann(weights: np.ndarray, n_sites: int, g: float):
    """(d, peak, terms) over the occupied bins: terms * e^peak = weight * e^{-2g*d}."""
    support = np.flatnonzero(weights > 0)
    d = (n_sites - 2 * support) / 4.0
    # Factor out the largest exponent for stability at large g.
    expo = -2.0 * g * d
    peak = float(np.max(expo))
    return d, peak, weights[support] * np.exp(expo - peak)


def _log_success_probability(weights: np.ndarray, n_sites: int, g: float) -> float:
    """ln p = -g*N/2 + ln <psi0| e^{-2g*D} |psi0> from the distance-binned weights."""
    _, peak, terms = _boltzmann(weights, n_sites, g)
    return -g * n_sites / 2 + (peak + float(np.log(np.sum(terms))))


def success_probability(lattice: Lattice, g: float) -> float:
    """Closed-form p = e^{-g*N/2} <psi0|e^{-2g*D}|psi0> for the half-filled trial."""
    return success_probability_curve(lattice, [g])[0][2]


def success_probability_curve(
    lattice: Lattice, g_grid: np.ndarray
) -> list[tuple[int, float, float]]:
    """(N_site, g, p) rows over a g grid, using the closed-form route."""
    trial = half_filled_trial(lattice)
    weights = pair_distance_weights(trial)
    n = lattice.n_sites
    return [
        (n, float(g), float(np.exp(_log_success_probability(weights, n, float(g)))))
        for g in np.asarray(g_grid, dtype=np.float64)
    ]


def exact_double_occupancy(lattice: Lattice, g: float) -> float:
    """⟨D⟩ in the projected state, from the distance-binned weights."""
    weights = pair_distance_weights(half_filled_trial(lattice))
    d, _, terms = _boltzmann(weights, lattice.n_sites, g)
    return float(np.sum(terms * d) / np.sum(terms))


def docc_from_success_probability(lattice: Lattice, g: float, delta: float = 1e-4) -> float:
    """⟨D⟩ recovered from the success probability's logarithmic derivative.

    Uses -(N/4 + (1/2) * centered difference of ln p); the closed-form
    norm extends smoothly below g=0, so the stencil is valid at g=0 too.
    """
    trial = half_filled_trial(lattice)
    weights = pair_distance_weights(trial)
    n = lattice.n_sites
    slope = (_log_success_probability(weights, n, g + delta)
             - _log_success_probability(weights, n, g - delta)) / (2 * delta)
    return -(n / 4 + slope / 2)
