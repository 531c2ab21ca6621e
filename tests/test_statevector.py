"""Gate conventions, circuit application, and exact diagonalization tests.

Gate matrices are frozen as literals so a silent sign-convention change
(e.g. the R_Z phase direction) fails loudly.  Circuit application is
checked against an index-arithmetic dense oracle that shares no code
with the tensordot implementation.
"""
from __future__ import annotations

import numpy as np
import pytest

from gutzmc.lattice import QubitLayout, build_lattice, hubbard_hamiltonian, hubbard_terms
from gutzmc.pauli import PauliSum, PauliTerm, apply_pauli_sum
from gutzmc.slater import half_filled_trial, slater_to_statevector
from gutzmc.statevector import (
    StateVector,
    apply_circuit,
    apply_gate,
    crz,
    exact_ground_state,
    expectation,
    hadamard,
    load_statevector,
    matrix_element,
    pauli_x,
    rz,
    save_statevector,
    states_equal_up_to_phase,
)


def embed(small: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Dense 2^n matrix with `small` on the listed qubits (qubit 0 = MSB)."""
    k = len(qubits)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        bits_in = 0
        for q in qubits:
            bits_in = (bits_in << 1) | ((col >> (n - 1 - q)) & 1)
        for bits_out in range(2**k):
            row = col
            for pos, q in enumerate(qubits):
                bit = (bits_out >> (k - 1 - pos)) & 1
                row = (row & ~(1 << (n - 1 - q))) | (bit << (n - 1 - q))
            full[row, col] += small[bits_out, bits_in]
    return full


class TestGateMatrices:
    def test_rz_phase_direction(self):
        theta = 0.7
        np.testing.assert_allclose(
            rz(theta, 0).matrix(),
            np.diag([np.exp(-0.5j * theta), np.exp(+0.5j * theta)]),
            atol=1e-15,
        )

    def test_crz_acts_only_on_control_one(self):
        theta = 1.1
        expected = np.diag(
            [1.0, 1.0, np.exp(-0.5j * theta), np.exp(+0.5j * theta)]
        )
        np.testing.assert_allclose(crz(theta, 0, 1).matrix(), expected, atol=1e-15)

    def test_hadamard_and_x(self):
        np.testing.assert_allclose(
            hadamard(0).matrix(), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )
        np.testing.assert_allclose(pauli_x(0).matrix(), [[0, 1], [1, 0]], atol=1e-15)


class TestApplication:
    @pytest.mark.parametrize(
        "gate,qubits",
        [
            (hadamard(1), (1,)),
            (rz(0.3, 2), (2,)),
            (crz(1.3, 2, 0), (2, 0)),
            (pauli_x(3), (3,)),
            (crz(-0.8, 1, 3), (1, 3)),
            (hadamard(0), (0,)),
        ],
    )
    def test_matches_dense_embedding(self, gate, qubits):
        rng = np.random.default_rng(11)
        n = 4
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
        expected = embed(gate.matrix(), qubits, n) @ amps
        out = apply_gate(StateVector(n, amps.copy()), gate)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-13)

    def test_apply_circuit_composes_in_order(self):
        # H then X leaves |+> unchanged; X then H gives |->
        out = apply_circuit(StateVector.zero_state(1), [hadamard(0), pauli_x(0)])
        np.testing.assert_allclose(out.amplitudes, np.array([1, 1]) / np.sqrt(2), atol=1e-15)
        out = apply_circuit(StateVector.zero_state(1), [pauli_x(0), hadamard(0)])
        np.testing.assert_allclose(out.amplitudes, np.array([1, -1]) / np.sqrt(2), atol=1e-15)

    def test_unnormalized_states_pass_through(self):
        # unitaries preserve whatever norm comes in; no silent renormalization
        state = StateVector(1, np.array([2.0, 0.0], dtype=complex))
        out = apply_gate(state, hadamard(0))
        assert abs(out.norm() - 2.0) < 1e-12

    def test_expectation_and_matrix_element(self):
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = StateVector(2, amps / np.linalg.norm(amps))
        op = PauliSum.from_ops(2, {0: "Z", 1: "Z"}, 0.25)
        dense = op.to_matrix()
        expected = np.vdot(state.amplitudes, dense @ state.amplitudes)
        np.testing.assert_allclose(expectation(state, op), expected, atol=1e-13)
        np.testing.assert_allclose(
            matrix_element(state, op, state), expected, atol=1e-13
        )
        np.testing.assert_allclose(
            matrix_element(state, None, state), 1.0, atol=1e-13
        )

    def test_states_equal_up_to_phase(self):
        rng = np.random.default_rng(6)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a = StateVector(3, amps / np.linalg.norm(amps))
        b = StateVector(3, np.exp(0.321j) * a.amplitudes)
        assert states_equal_up_to_phase(a, b)
        c = StateVector(3, np.roll(a.amplitudes, 1))
        assert not states_equal_up_to_phase(a, c)


def random_amplitudes(rng, n_qubits: int) -> np.ndarray:
    amps = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return amps / np.linalg.norm(amps)


def random_pauli_sum(rng, n_qubits: int, n_terms: int) -> PauliSum:
    """Random strings with complex coefficients (neither Hermitian nor number-conserving)."""
    return PauliSum.from_terms(
        PauliTerm(complex(rng.standard_normal(), rng.standard_normal()),
                  "".join(rng.choice(list("IXYZ"), n_qubits)))
        for _ in range(n_terms)
    )


def half_filled_state(n_sites: int) -> StateVector:
    trial = half_filled_trial(build_lattice("chain", n_sites))
    return slater_to_statevector(trial.up, trial.down, QubitLayout(n_sites))


class TestSupportKernels:
    """expectation/matrix_element sum over the bra's support only; every case
    is compared with the full-register route vdot(bra, apply_pauli_sum(ket))."""

    @staticmethod
    def check(bra: np.ndarray, op: PauliSum, ket: np.ndarray) -> None:
        n = op.n_qubits
        expected = np.vdot(bra, apply_pauli_sum(ket, op))
        got = matrix_element(StateVector(n, bra), op, StateVector(n, ket))
        assert abs(got - expected) <= 1e-12
        if bra is ket:
            assert abs(expectation(StateVector(n, bra), op) - expected) <= 1e-12

    def test_full_support_random_states(self):
        rng = np.random.default_rng(11)
        op = random_pauli_sum(rng, 6, 40)
        a, b = random_amplitudes(rng, 6), random_amplitudes(rng, 6)
        self.check(a, op, a)
        self.check(a, op, b)
        self.check(a, hubbard_hamiltonian(build_lattice("chain", 3), 1.0, 2.5), a)

    @pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
    def test_half_filled_sector_states(self, n_sites):
        psi = half_filled_state(n_sites).amplitudes
        for op in hubbard_terms(build_lattice("chain", n_sites), 1.0, 1.0):
            self.check(psi, op, psi)

    def test_non_number_conserving_strings(self):
        rng = np.random.default_rng(12)
        psi = half_filled_state(3).amplitudes
        lone_x = PauliSum.from_ops(6, {2: "X"}, 0.7)
        yzy = PauliSum.from_terms([PauliTerm(1.3, "YIZIYI"), PauliTerm(-0.4j, "IYZZIY")])
        for op in (lone_x, yzy, lone_x + yzy):
            self.check(psi, op, psi)
            self.check(random_amplitudes(rng, 6), op, psi)
            self.check(psi, op, random_amplitudes(rng, 6))

    def test_bra_and_ket_on_different_supports(self):
        rng = np.random.default_rng(13)
        bra = half_filled_state(3).amplitudes  # (2 up, 1 down) sector
        ket = np.zeros(64, dtype=complex)
        ket[rng.choice(64, 20, replace=False)] = rng.standard_normal(20)
        op = random_pauli_sum(rng, 6, 30)
        self.check(bra, op, ket)
        self.check(ket, op, bra)
        # a single X moves the sector by one particle: the overlap is all off-support
        self.check(bra, PauliSum.from_ops(6, {0: "X"}), bra)

    def test_all_zero_bra(self):
        rng = np.random.default_rng(14)
        op = random_pauli_sum(rng, 4, 10)
        zero = StateVector(4, np.zeros(16))
        assert matrix_element(zero, op, StateVector(4, random_amplitudes(rng, 4))) == 0
        assert expectation(zero, op) == 0


class TestGuards:
    def test_statevector_shape(self):
        with pytest.raises(ValueError, match="expected 8 amplitudes"):
            StateVector(3, np.zeros(7))

    def test_normalizing_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            StateVector(2, np.zeros(4)).normalized()

    def test_ground_state_rejects_non_hermitian(self):
        op = PauliSum.from_ops(2, {0: "X"}, 1.0j)
        with pytest.raises(ValueError, match="not Hermitian"):
            exact_ground_state(op, 2)

    def test_ground_state_register_cap(self):
        with pytest.raises(ValueError, match="24 qubits"):
            exact_ground_state(PauliSum.identity(25), 25, 1)

    def test_ground_state_residual_check(self, monkeypatch):
        eigh = np.linalg.eigh

        def shifted(matrix):
            vals, vecs = eigh(matrix)
            return vals + 1e-6, vecs

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        H = hubbard_hamiltonian(build_lattice("chain", 2), 1.0, 4.0)
        with pytest.raises(RuntimeError, match="residual"):
            exact_ground_state(H, 4, (1, 1))


class TestExactGroundState:
    def test_two_site_closed_form(self):
        lat = build_lattice("chain", 2)
        for u, expected in [
            (1.0, -2.0615528128088303),
            (2.0, -2.2360679774997898),
            (3.0, -2.5),
            (4.0, -2.8284271247461903),
        ]:
            res = exact_ground_state(hubbard_hamiltonian(lat, 1.0, u), 4, (1, 1))
            assert abs(res.energy - expected) < 1e-9

    def test_sector_restriction_changes_answer(self):
        lat = build_lattice("chain", 2)
        H = hubbard_hamiltonian(lat, 1.0, 8.0)
        half = exact_ground_state(H, 4, (1, 1)).energy
        empty = exact_ground_state(H, 4, (0, 0)).energy
        # empty band feels only the +U/4 per-site shift of the interaction
        assert abs(empty - 8.0 * 2 / 4) < 1e-10
        assert half < empty

    def test_iterative_path_agrees_with_dense(self):
        # chain-4 at half filling has dim 36 (dense); force the sparse path
        # by comparing against an unrestricted 8-qubit solve at larger dim
        lat = build_lattice("chain", 4)
        H = hubbard_hamiltonian(lat, 1.0, 2.0)
        res = exact_ground_state(H, 8, (2, 2))
        full = exact_ground_state(H, 8, None)
        assert full.energy <= res.energy + 1e-12
        # residual check: H|psi> = E|psi> on the returned vector
        dense = H.to_matrix()
        v = res.state.amplitudes
        residual = np.linalg.norm(dense @ v - res.energy * v)
        assert residual < 1e-8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_complex_hermitian_operator(self, seed):
        # Y strings with real coefficients give imaginary matrix elements
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, 4, 12)
        op = 0.5 * (op + PauliSum.from_terms(
            PauliTerm(t.coefficient.conjugate(), t.operators) for t in op.terms))
        dense = op.to_matrix()
        assert np.abs(dense.imag).max() > 0.1
        res = exact_ground_state(op, 4, None)
        assert abs(res.energy - np.linalg.eigvalsh(dense)[0]) < 1e-12

    def test_sparse_path_eigenpair(self):
        # chain:8 at half filling has 4900 states, above the dense cutoff;
        # check the returned eigenpair against the full-register operator
        lat = build_lattice("chain", 8)
        H = hubbard_hamiltonian(lat, 1.0, 3.0)
        res = exact_ground_state(H, 16, (4, 4))
        v = res.state.amplitudes
        assert np.count_nonzero(v) <= 4900
        assert abs(expectation(res.state, H).real - res.energy) < 1e-10
        hv = apply_pauli_sum(v, H)
        assert np.linalg.norm(hv - res.energy * v) < 1e-8

    def test_degenerate_ground_state_reported(self):
        # Z on one qubit plus nothing else: two degenerate levels at -1
        op = PauliSum.from_ops(2, {0: "Z"}, 1.0)
        res = exact_ground_state(op, 2, None)
        assert res.degeneracy == 2


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state = StateVector(4, amps / np.linalg.norm(amps))
    path = tmp_path / "state.bin"
    save_statevector(path, state)
    back = load_statevector(path)
    assert back.n_qubits == 4
    np.testing.assert_array_equal(back.amplitudes, state.amplitudes)
