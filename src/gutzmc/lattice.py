"""Lattices, spin-orbital-to-qubit layout, and Hubbard operator content.

The Hamiltonian is H = K + U*D with

    K = -J * sum_sigma sum_<i,j> (c†_i c_j + c†_j c_i)
    D = sum_i (n_i_up - 1/2) (n_i_down - 1/2)

on open-boundary chains and two-leg ladders.  Spin orbitals map to qubits
with every spin-up site first and every spin-down site after (site i up ->
qubit i, site i down -> qubit n_sites + i); with that ordering a same-spin
nearest-neighbor hop on a chain carries no parity string at all, and D is
a plain two-qubit ZZ sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .pauli import PauliSum, PauliTerm

Spin = Literal["up", "down"]


@dataclass(frozen=True)
class Lattice:
    """Open-boundary interaction graph.

    ``edges`` holds (i, j) site pairs with i < j; ``sublattice`` is a ±1
    two-coloring with adjacent sites on opposite labels.
    """

    kind: str
    n_sites: int
    edges: tuple[tuple[int, int], ...]
    sublattice: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, j in self.edges:
            if not (0 <= i < j < self.n_sites):
                raise ValueError(f"edge ({i},{j}) invalid for {self.n_sites} sites")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")
        if len(self.sublattice) != self.n_sites or set(self.sublattice) - {-1, 1}:
            raise ValueError("sublattice must be one ±1 label per site")
        for i, j in self.edges:
            if self.sublattice[i] == self.sublattice[j]:
                raise ValueError(f"edge ({i},{j}) joins equal sublattice labels")


def build_lattice(kind: str, n_sites: int) -> Lattice:
    """Construct an open chain or a two-leg ladder.

    Sites are numbered 0..n_sites-1.  On the ladder the numbering snakes:
    the first leg runs 0..L-1 and the second leg runs back L..2L-1, so the
    rung partner of site i is 2L-1-i and consecutive site numbers are
    always adjacent.  Snaking keeps same-spin parity strings short; where
    a rung hop does cross intervening sites the string is kept exactly.

    Parameters
    ----------
    kind : str
        "chain" or "ladder".
    n_sites : int
        Total number of sites; ladders need an even count >= 4.

    Returns
    -------
    Lattice
    """
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    path = {(i, i + 1) for i in range(n_sites - 1)}
    if kind == "chain":
        edges = tuple(sorted(path))
    elif kind == "ladder":
        if n_sites % 2:
            raise ValueError("ladder needs an even site count")
        if n_sites < 4:
            raise ValueError("ladder needs at least 4 sites")
        rungs = {(i, n_sites - 1 - i) for i in range(n_sites // 2)}
        edges = tuple(sorted(path | rungs))
    else:
        raise ValueError(f"unsupported lattice kind {kind!r}")
    # The snake numbering is a Hamiltonian path and every rung joins sites
    # whose indices differ by an odd amount, so parity of the site index is
    # a valid two-coloring for both kinds.
    sublattice = tuple(1 if i % 2 == 0 else -1 for i in range(n_sites))
    return Lattice(kind, n_sites, edges, sublattice)


@dataclass(frozen=True)
class QubitLayout:
    """Spin-orbital and ancilla bookkeeping on the qubit register.

    Qubit 0 is the most significant bit of the amplitude index.  Register
    qubits come first (up block, then down block); site i's LCU ancilla is
    qubit 2N + i, among the least significant bits of a dense amplitude
    array.  A :class:`gutzmc.statevector.SupportState` keeps the same
    numbering but stores the ancillas as its leading axes, so its
    ancilla-|0...0> branch is one contiguous block.
    """

    n_sites: int

    @property
    def n_register(self) -> int:
        return 2 * self.n_sites

    def qubit(self, site: int, spin: Spin) -> int:
        if not 0 <= site < self.n_sites:
            raise IndexError(f"site {site} out of range")
        if spin == "up":
            return site
        if spin == "down":
            return self.n_sites + site
        raise ValueError(f"spin must be 'up' or 'down', got {spin!r}")

    def ancilla(self, site: int) -> int:
        if not 0 <= site < self.n_sites:
            raise IndexError(f"ancilla {site} out of range")
        return self.n_register + site


def hubbard_terms(lattice: Lattice, J: float, U: float) -> tuple[PauliSum, PauliSum]:
    """Qubit representation of the hopping and interaction pieces.

    Parameters
    ----------
    lattice : Lattice
    J : float
        Hopping amplitude, must be positive.
    U : float
        On-site repulsion, must be nonnegative.  U itself is *not* folded
        into the returned interaction operator.

    Returns
    -------
    (kinetic, interaction) : tuple[PauliSum, PauliSum]
        kinetic = -(J/2) sum_sigma sum_<ij> (XX + YY) with a Z parity
        string over the qubits between the pair; interaction =
        (1/4) sum_i Z_{i,up} Z_{i,down}.
    """
    if J <= 0:
        raise ValueError("J must be positive")
    if U < 0:
        raise ValueError("U must be nonnegative")
    layout = QubitLayout(lattice.n_sites)
    n = layout.n_register
    kin_terms: list[PauliTerm] = []
    for spin in ("up", "down"):
        for i, j in lattice.edges:
            qi, qj = layout.qubit(i, spin), layout.qubit(j, spin)
            string = {q: "Z" for q in range(qi + 1, qj)}
            for sym in ("X", "Y"):
                kin_terms += PauliSum.from_ops(n, {**string, qi: sym, qj: sym}, -J / 2.0)
    kinetic = PauliSum.from_terms(kin_terms)
    interaction = PauliSum.from_terms(
        term
        for i in range(lattice.n_sites)
        for term in PauliSum.from_ops(
            n, {layout.qubit(i, "up"): "Z", layout.qubit(i, "down"): "Z"}, 0.25)
    )
    return kinetic, interaction


def hubbard_hamiltonian(lattice: Lattice, J: float, U: float) -> PauliSum:
    """K + U*D as a single PauliSum."""
    kinetic, interaction = hubbard_terms(lattice, J, U)
    return kinetic + U * interaction


def hopping_matrix(lattice: Lattice, J: float) -> np.ndarray:
    """Single-particle hopping matrix (-J on every edge), shape (N, N)."""
    t = np.zeros((lattice.n_sites, lattice.n_sites))
    for i, j in lattice.edges:
        t[i, j] = t[j, i] = -J
    return t
