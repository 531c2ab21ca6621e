"""Lattice geometry, qubit layout, and fermion-to-qubit mapping tests.

The mapped Hamiltonian terms are checked against a brute-force dense
fermionic construction: ladder operators built as explicit Z-string
matrices, so any error in string placement, signs, or coefficients
shows up as a matrix mismatch.
"""
from __future__ import annotations

import numpy as np
import pytest

from gutzmc.lattice import (
    QubitLayout,
    build_lattice,
    hopping_matrix,
    hubbard_hamiltonian,
    hubbard_terms,
)

Z = np.diag([1.0, -1.0]).astype(complex)
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |1> -> |0>


def annihilator(q: int, n_qubits: int) -> np.ndarray:
    """Dense Jordan-Wigner annihilation operator for qubit q (MSB first)."""
    out = np.array([[1.0 + 0j]])
    for p in range(n_qubits):
        if p < q:
            out = np.kron(out, Z)
        elif p == q:
            out = np.kron(out, LOWER)
        else:
            out = np.kron(out, np.eye(2))
    return out


def dense_hubbard(lattice, J, U):
    layout = QubitLayout(lattice.n_sites)
    n = layout.n_register
    c = [annihilator(q, n) for q in range(n)]
    kin = np.zeros((2**n, 2**n), dtype=complex)
    for i, j in lattice.edges:
        for spin in ("up", "down"):
            a, b = layout.qubit(i, spin), layout.qubit(j, spin)
            kin -= J * (c[a].conj().T @ c[b] + c[b].conj().T @ c[a])
    inter = np.zeros_like(kin)
    half = 0.5 * np.eye(2**n)
    for i in range(lattice.n_sites):
        nu = c[layout.qubit(i, "up")].conj().T @ c[layout.qubit(i, "up")]
        nd = c[layout.qubit(i, "down")].conj().T @ c[layout.qubit(i, "down")]
        inter += (nu - half) @ (nd - half)
    return kin, inter


class TestGeometry:
    def test_chain_edges(self):
        lat = build_lattice("chain", 5)
        assert lat.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
        assert lat.sublattice == (1, -1, 1, -1, 1)
        for n in range(2, 41):
            assert build_lattice("chain", n).edges == tuple((i, i + 1) for i in range(n - 1))

    def test_ladder_snake_numbering(self):
        lat = build_lattice("ladder", 8)
        # legs 0-1-2-3 and 7-6-5-4, rung partner of i is 2L-1-i
        assert (0, 7) in lat.edges and (3, 4) in lat.edges
        assert (1, 6) in lat.edges and (2, 5) in lat.edges
        assert len(lat.edges) == 3 * 4 - 2
        # snake path keeps the bipartition aligned with index parity
        for i, j in lat.edges:
            assert lat.sublattice[i] != lat.sublattice[j]

    def test_ladder_edges_are_the_legs_and_the_rungs(self):
        for n in range(4, 41, 2):
            leg = n // 2
            legs = [(i, i + 1) for i in range(leg - 1)]
            legs += [(i, i + 1) for i in range(leg, n - 1)]
            rungs = [(i, n - 1 - i) for i in range(leg)]
            edges = build_lattice("ladder", n).edges
            # the rung (L-1, L) is also the step between the legs: listed once
            assert edges == tuple(sorted(legs + rungs))
            assert len(edges) == 3 * leg - 2

    @pytest.mark.parametrize(
        "kind,n", [("chain", 1), ("ladder", 3), ("ladder", 2), ("mesh", 4)]
    )
    def test_rejected_geometries(self, kind, n):
        with pytest.raises(ValueError):
            build_lattice(kind, n)

    def test_hopping_matrix_spectrum_chain(self):
        # open chain single-particle energies: -2J cos(k pi / (L+1))
        lat = build_lattice("chain", 6)
        evals = np.sort(np.linalg.eigvalsh(hopping_matrix(lat, 1.0)))
        expected = np.sort(-2.0 * np.cos(np.arange(1, 7) * np.pi / 7.0))
        np.testing.assert_allclose(evals, expected, atol=1e-12)


class TestQubitLayout:
    def test_block_ordering(self):
        layout = QubitLayout(3)
        assert [layout.qubit(i, "up") for i in range(3)] == [0, 1, 2]
        assert [layout.qubit(i, "down") for i in range(3)] == [3, 4, 5]
        assert layout.n_register == 6

    def test_ancilla_block_on_top(self):
        layout = QubitLayout(3)
        assert [layout.ancilla(i) for i in range(3)] == [6, 7, 8]

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_one_ancilla_per_site_after_the_register(self, n):
        layout = QubitLayout(n)
        assert [layout.ancilla(i) for i in range(n)] == [2 * n + i for i in range(n)]
        for site in (-1, n):
            with pytest.raises(IndexError):
                layout.ancilla(site)


class TestHubbardTerms:
    @pytest.mark.parametrize("kind,n", [("chain", 2), ("chain", 3)])
    def test_matches_dense_fermionic_oracle(self, kind, n):
        lat = build_lattice(kind, n)
        kin, inter = hubbard_terms(lat, 0.8, 1.0)
        kin_ref, inter_ref = dense_hubbard(lat, 0.8, 1.0)
        np.testing.assert_allclose(kin.to_matrix(), kin_ref, atol=1e-12)
        np.testing.assert_allclose(inter.to_matrix(), inter_ref, atol=1e-12)

    def test_interaction_is_quarter_zz_sum(self):
        lat = build_lattice("chain", 3)
        _, inter = hubbard_terms(lat, 1.0, 1.0)
        assert inter.is_diagonal
        terms = list(inter)
        assert len(terms) == 3
        assert all(abs(t.coefficient - 0.25) < 1e-15 for t in terms)

    def test_kinetic_term_count_and_hermiticity(self):
        lat = build_lattice("ladder", 8)
        kin, _ = hubbard_terms(lat, 1.0, 1.0)
        # 2 spins x (XZ..ZX + YZ..ZY) per edge
        assert len(list(kin)) == 4 * len(lat.edges)
        assert kin.is_hermitian

    def test_full_hamiltonian_combines_blocks(self):
        lat = build_lattice("chain", 2)
        H = hubbard_hamiltonian(lat, 1.0, 4.0)
        kin, inter = hubbard_terms(lat, 1.0, 4.0)
        np.testing.assert_allclose(
            H.to_matrix(), kin.to_matrix() + 4.0 * inter.to_matrix(), atol=1e-13
        )

    def test_coupling_validation(self):
        lat = build_lattice("chain", 2)
        with pytest.raises(ValueError):
            hubbard_terms(lat, -1.0, 1.0)
        with pytest.raises(ValueError):
            hubbard_terms(lat, 1.0, -0.5)
