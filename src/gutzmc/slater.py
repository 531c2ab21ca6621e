"""Free-fermion trial states and determinant evaluation of dressed overlaps.

A trial sector is an orbital matrix phi (n_sites x n_particles) with
orthonormal columns.  Because the qubit layout keeps each spin block
contiguous and ordered by site, the amplitude of an occupation bitstring
within one sector is det(phi[occupied_rows, :]) with no extra fermionic
sign, and the two sectors combine as a plain Kronecker product.

Field dressing means the diagonal unitary u(f) = prod_i exp(i*alpha*f_i*
(n_i - 1/2)).  Overlaps of dressed Slater states reduce to k x k
determinants and one-body expectations to the associated single-particle
Green's function; both formulas are validated against the statevector
route in the test suite rather than trusted.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .gutzwiller import _validate_config
from .lattice import Lattice, QubitLayout, hopping_matrix
from .statevector import StateVector


class DegenerateFillingError(ValueError):
    """Requested filling cuts through a degenerate single-particle level."""


class SingularOverlapError(ArithmeticError):
    """Dressed overlap matrix is numerically singular."""


@dataclass(frozen=True)
class SlaterState:
    """Occupied-orbital matrix for one spin sector."""

    phi: np.ndarray

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=complex)
        object.__setattr__(self, "phi", phi)
        if phi.ndim != 2 or phi.shape[0] < phi.shape[1]:
            raise ValueError(f"bad orbital matrix shape {phi.shape}")
        gram = phi.conj().T @ phi
        if not np.allclose(gram, np.eye(phi.shape[1]), atol=1e-10):
            raise ValueError("orbital columns are not orthonormal")

    @property
    def n_sites(self) -> int:
        return self.phi.shape[0]

    @property
    def n_particles(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True)
class TrialState:
    """Spin-separable trial wave function on a lattice."""

    lattice: Lattice
    up: SlaterState
    down: SlaterState

    def __post_init__(self) -> None:
        if self.up.n_sites != self.lattice.n_sites:
            raise ValueError("up sector size mismatch")
        if self.down.n_sites != self.lattice.n_sites:
            raise ValueError("down sector size mismatch")

    @property
    def spin_symmetric(self) -> bool:
        """True when both sectors hold the identical orbital matrix."""
        return self.up.phi.shape == self.down.phi.shape and bool(
            np.array_equal(self.up.phi, self.down.phi)
        )


def ground_state_of_K(lattice: Lattice, n_particles_per_spin: int) -> SlaterState:
    """Fill the lowest orbitals of the hopping problem for one spin sector.

    Parameters
    ----------
    lattice : Lattice
    n_particles_per_spin : int
        Number of occupied orbitals, 0 < n <= n_sites.

    Returns
    -------
    SlaterState

    Raises
    ------
    DegenerateFillingError
        If the gap between the highest filled and lowest empty level is
        below 1e-8; the trial state would not be unique.
    """
    n = n_particles_per_spin
    if not 0 < n <= lattice.n_sites:
        raise ValueError(f"filling {n} invalid for {lattice.n_sites} sites")
    # J only scales the spectrum, so the orbitals can be computed at J=1.
    levels, orbitals = np.linalg.eigh(hopping_matrix(lattice, 1.0))
    if n < lattice.n_sites and levels[n] - levels[n - 1] < 1e-8:
        raise DegenerateFillingError(
            f"Fermi level degenerate at filling {n}: gap "
            f"{levels[n] - levels[n - 1]:.2e}"
        )
    phi = orbitals[:, :n].astype(complex)
    # Deterministic orbital phases: largest component real positive.
    for col in range(n):
        pivot = np.argmax(np.abs(phi[:, col]))
        phase = phi[pivot, col] / abs(phi[pivot, col])
        phi[:, col] = phi[:, col] / phase
    return SlaterState(phi)


def half_filled_trial(lattice: Lattice) -> TrialState:
    """Ground state of K at half filling (odd site counts round up, down)."""
    n_up = (lattice.n_sites + 1) // 2
    n_down = lattice.n_sites // 2
    up = ground_state_of_K(lattice, n_up)
    down = up if n_down == n_up else ground_state_of_K(lattice, n_down)
    return TrialState(lattice, up, down)


def sector_amplitudes(slater: SlaterState) -> np.ndarray:
    """Occupation-basis amplitudes of one sector, length 2**n_sites.

    The entry for bitstring b (site 0 = most significant bit) is the minor
    det(phi[rows_of_set_bits, :]); all other occupation counts vanish.
    """
    n, k = slater.n_sites, slater.n_particles
    amps = np.zeros(1 << n, dtype=complex)
    if k == 0:
        amps[0] = 1.0
        return amps
    occupied = np.fromiter(
        chain.from_iterable(combinations(range(n), k)), dtype=np.int64
    ).reshape(-1, k)
    amps[(1 << (n - 1 - occupied)).sum(axis=1)] = np.linalg.det(slater.phi[occupied, :])
    return amps


def slater_to_statevector(
    slater_up: SlaterState, slater_down: SlaterState, layout: QubitLayout
) -> StateVector:
    """Expand a spin-separable Slater pair into the full register.

    The up block occupies the most significant qubits, so the full
    amplitude array is kron(up_amplitudes, down_amplitudes).  The output
    is normalized (the minors already sum to one up to roundoff).
    """
    if slater_up.n_sites != layout.n_sites or slater_down.n_sites != layout.n_sites:
        raise ValueError("sector size does not match layout")
    full = np.kron(sector_amplitudes(slater_up), sector_amplitudes(slater_down))
    return StateVector(layout.n_register, full).normalized()


def dressed_overlap(slater: SlaterState, config: np.ndarray, alpha: float) -> complex:
    """<phi| u(s2) u(s1) |phi> for one spin sector.

    Parameters
    ----------
    slater : SlaterState
    config : (n_sites, 2) array of ±1
        Column 0 dresses the ket (tau=1), column 1 the bra side (tau=2);
        neither copy is conjugated, so only the per-site sums s1+s2 enter.
    alpha : float
        Rotation angle from the Gutzwiller parameters.

    Returns
    -------
    complex
        exp(-i*alpha*sum(s1+s2)/2) * det(phi^† diag(e^{i*alpha*(s1+s2)}) phi),
        with the -1/2 shifts kept as the explicit scalar prefactor.
    """
    m = _validate_config(config, slater.n_sites).sum(axis=1)
    overlap = slater.phi.conj().T @ (np.exp(1j * alpha * m)[:, None] * slater.phi)
    prefactor = np.exp(-0.5j * alpha * m.sum())
    return complex(prefactor * np.linalg.det(overlap))


def dressed_green_function(
    slater: SlaterState,
    bra_fields: np.ndarray,
    ket_fields: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Single-particle Green matrix M of a dressed Slater pair.

    M[j, i] = <phi| u(bra) c†_i c_j u(ket) |phi> / <phi| u(bra) u(ket) |phi>.

    With B = diag(e^{i*alpha*ket}) phi and A = diag(e^{-i*alpha*bra}) phi
    (the bra copy enters undaggered, hence the sign flip), the matrix is
    M = B (A^† B)^{-1} A^†.
    """
    ket = np.asarray(ket_fields, dtype=np.float64)
    bra = np.asarray(bra_fields, dtype=np.float64)
    b_mat = np.exp(1j * alpha * ket)[:, None] * slater.phi
    a_mat = np.exp(-1j * alpha * bra)[:, None] * slater.phi
    overlap = a_mat.conj().T @ b_mat
    # A and B have unit-norm columns, so the overlap's natural scale is
    # O(1); a tiny smallest singular value (not the ratio s_max/s_min,
    # which is blind to a uniformly vanishing matrix) marks the solve
    # as meaningless.
    singular_values = np.linalg.svd(overlap, compute_uv=False)
    if singular_values[-1] < 1e-12 * max(1.0, singular_values[0]):
        raise SingularOverlapError("dressed overlap matrix near singular")
    return b_mat @ np.linalg.solve(overlap, a_mat.conj().T)

