"""Free-fermion trial states and their occupation-basis amplitudes.

A trial sector is an orbital matrix phi (n_sites x n_particles) with
orthonormal columns.  Because the qubit layout keeps each spin block
contiguous and ordered by site, the amplitude of an occupation bitstring
within one sector is det(phi[occupied_rows, :]) with no extra fermionic
sign, and the two sectors combine as a plain product of amplitudes.  The
combined trial is built on its particle sector only, as a register-only
:class:`gutzmc.statevector.SupportState` (63,504 of the 1,048,576 register
states at chain:10); no 2^(2N) array is formed.

The determinant algebra of field-dressed overlaps and Green functions
lives in one place, the sampler's determinant engine.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .lattice import Lattice, QubitLayout, hopping_matrix
from .statevector import SupportState, _sector_indices


class DegenerateFillingError(ValueError):
    """Requested filling cuts through a degenerate single-particle level."""


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
) -> SupportState:
    """The spin-separable Slater pair as a register-only SupportState on its
    (n_up, n_down) sector.

    The up block holds the most significant qubits, so sector state b has
    amplitude a_up[b >> N] * a_down[b & (2^N - 1)], the entry of kron(a_up,
    a_down) there, normalized by SupportState.normalized's pairwise sum (the
    minors already sum to one up to roundoff): no BLAS call, no 2^(2N) array.
    """
    n = layout.n_sites
    if slater_up.n_sites != n or slater_down.n_sites != n:
        raise ValueError("sector size does not match layout")
    basis = _sector_indices(layout.n_register, (slater_up.n_particles, slater_down.n_particles))
    amps = (sector_amplitudes(slater_up)[basis >> n]
            * sector_amplitudes(slater_down)[basis & ((1 << n) - 1)])
    return SupportState(layout.n_register, 0, basis, amps).normalized()
