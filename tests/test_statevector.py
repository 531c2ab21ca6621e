"""Gate conventions, circuit application, and exact diagonalization tests.

Gate matrices are frozen as literals so a silent sign-convention change
(e.g. the R_Z phase direction) fails loudly.  Circuit application is
checked against an index-arithmetic dense oracle that shares no code
with the per-kind in-place kernels.
"""
from __future__ import annotations

import numpy as np
import pytest

from gutzmc import statevector
from gutzmc.lattice import QubitLayout, build_lattice, hubbard_hamiltonian, hubbard_terms
from gutzmc.pauli import PauliSum, PauliTerm, apply_pauli_sum, basis_matrix, support_matrix_element
from gutzmc.slater import half_filled_trial, slater_to_statevector
from gutzmc.statevector import (
    Gate,
    StateVector,
    SupportState,
    apply_circuit,
    apply_gate,
    crz,
    exact_ground_state,
    expectation,
    hadamard,
    pauli_x,
    rz,
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

    @pytest.mark.parametrize(
        "gate",
        [hadamard(q) for q in range(5)]
        + [pauli_x(q) for q in range(5)]
        + [rz(theta, q) for theta in (0.9, -2.3) for q in range(5)]
        + [crz(theta, c, t) for theta in (1.3, -0.6)
           for c in range(5) for t in range(5) if c != t],
        ids=lambda g: f"{g.name}{g.qubits}{'' if g.angle is None else g.angle}",
    )
    def test_kernel_matches_dense_embedding_in_place(self, gate):
        n = 5
        rng = np.random.default_rng(23)
        amps = 1.7 * (rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n))
        expected = embed(gate.matrix(), gate.qubits, n) @ amps
        state = StateVector(n, amps.copy())
        out = apply_gate(state, gate)
        assert out is state
        np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-13)

    def test_strided_and_read_only_amplitudes_are_updated(self):
        # Reshaping a strided array copies it, so the gate would act on the copy.
        rng = np.random.default_rng(4)
        wide = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        frozen = wide[:8].copy()
        frozen.flags.writeable = False
        for amps in (wide[::2], frozen):
            state = StateVector(3, amps)
            expected = embed(crz(0.7, 2, 0).matrix(), (2, 0), 3) @ amps
            apply_gate(state, crz(0.7, 2, 0))
            np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-13)

    def test_apply_circuit_composes_in_order(self):
        # H then X leaves |+> unchanged; X then H gives |->
        out = apply_circuit(StateVector(1, np.array([1, 0])), [hadamard(0), pauli_x(0)])
        np.testing.assert_allclose(out.amplitudes, np.array([1, 1]) / np.sqrt(2), atol=1e-15)
        out = apply_circuit(StateVector(1, np.array([1, 0])), [pauli_x(0), hadamard(0)])
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
            support_matrix_element(state.amplitudes, op, state.amplitudes), expected,
            atol=1e-13,
        )
        np.testing.assert_allclose(np.vdot(state.amplitudes, state.amplitudes), 1.0, atol=1e-13)


class TestSupportState:
    """Kernels on a support register against the dense embedding on all qubits.

    Register qubits 0-3 are kept on six of their sixteen basis states,
    ancillas 4-5 lead the storage; the dense reference orders the full
    6-qubit register with the ancillas least significant.
    """

    N_REG, N_ANC = 4, 2
    SUPPORT = np.array([1, 3, 6, 9, 12, 14])

    def states(self):
        rng = np.random.default_rng(31)
        rows = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        dense = np.zeros((16, 4), dtype=complex)
        dense[self.SUPPORT] = rows.T
        return (SupportState(self.N_REG, self.N_ANC, self.SUPPORT, rows.reshape(-1)),
                dense.reshape(-1))

    @pytest.mark.parametrize(
        "gate",
        [hadamard(q) for q in (4, 5)]
        + [pauli_x(q) for q in (4, 5)]
        + [rz(theta, q) for theta in (0.9, -2.3) for q in range(6)]
        + [crz(theta, c, t) for theta in (1.3, -0.6) for c in (4, 5) for t in range(6) if c != t],
        ids=lambda g: f"{g.name}{g.qubits}{'' if g.angle is None else g.angle}",
    )
    def test_kernel_matches_dense_embedding(self, gate):
        state, dense = self.states()
        expected = (embed(gate.matrix(), gate.qubits, 6) @ dense).reshape(16, 4)
        out = apply_gate(state, gate)
        assert out is state
        got = out.amplitudes.reshape(4, 6).T
        np.testing.assert_allclose(got, expected[self.SUPPORT], rtol=0, atol=1e-13)
        off = np.setdiff1d(np.arange(16), self.SUPPORT)
        assert not expected[off].any()  # the gate keeps the state on its support

    @pytest.mark.parametrize("gate", [hadamard(2), pauli_x(0), crz(0.4, 1, 4), crz(0.4, 1, 2)])
    def test_gates_leaving_the_support_raise(self, gate):
        state, _ = self.states()
        before = state.amplitudes.copy()
        with pytest.raises(ValueError, match="kept on a support"):
            apply_gate(state, gate)
        np.testing.assert_array_equal(state.amplitudes, before)

    def test_layout_guards(self):
        rows = np.ones(4 * 6, dtype=complex)
        with pytest.raises(ValueError, match="amplitudes"):
            SupportState(4, 2, self.SUPPORT, rows[:-1])
        for support in ([1, 3, 3, 9, 12, 14], [9, 1, 3, 6, 12, 14], [1, 3, 6, 9, 12, 16],
                        [-1, 3, 6, 9, 12, 14], []):
            with pytest.raises(ValueError, match="support"):
                SupportState(4, 2, support, rows[: 4 * len(support)])


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
    """expectation/support_matrix_element sum over the bra's support only;
    every case is compared with the full-register route
    vdot(bra, apply_pauli_sum(ket))."""

    @staticmethod
    def check(bra: np.ndarray, op: PauliSum, ket: np.ndarray) -> None:
        n = op.n_qubits
        expected = np.vdot(bra, apply_pauli_sum(ket, op))
        got = support_matrix_element(bra, op, ket)
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
        assert support_matrix_element(zero.amplitudes, op, random_amplitudes(rng, 4)) == 0
        assert expectation(zero, op) == 0


class TestGuards:
    @pytest.mark.parametrize("name", ["H", "X", "RZ", "CRZ"])
    def test_gate_norm_guard(self, monkeypatch, name):
        kernel = statevector._KERNELS[name]

        def leaky(state, gate):
            kernel(state, gate)
            state.amplitudes *= 1.0 + 1e-9

        monkeypatch.setitem(statevector._KERNELS, name, leaky)
        gate = Gate(name, (0, 1)[: 2 if name == "CRZ" else 1],
                    0.4 if name in ("RZ", "CRZ") else None)
        state = StateVector(2, np.full(4, 0.5, dtype=complex))
        with pytest.raises(FloatingPointError, match=f"gate {name} changed the norm"):
            apply_gate(state, gate)

    def test_circuit_checks_every_gate_with_one_norm_each(self, monkeypatch):
        rng = np.random.default_rng(9)
        gates = [hadamard(0), crz(0.3, 0, 2), pauli_x(1), rz(0.7, 2), hadamard(2)]
        amps = random_amplitudes(rng, 3)
        one_by_one = StateVector(3, amps.copy())
        for gate in gates:
            apply_gate(one_by_one, gate)
        calls = []
        vdot = np.vdot
        monkeypatch.setattr(np, "vdot", lambda a, b: calls.append(1) or vdot(a, b))
        circuit = apply_circuit(StateVector(3, amps.copy()), gates)
        assert np.array_equal(circuit.amplitudes, one_by_one.amplitudes)
        assert len(calls) == len(gates) + 1
        # a leak in the circuit's last gate is still caught
        kernel = statevector._KERNELS["H"]

        def leaky(state, gate):
            kernel(state, gate)
            if gate.qubits == (2,):
                state.amplitudes *= 1.0 + 1e-9

        monkeypatch.setitem(statevector._KERNELS, "H", leaky)
        with pytest.raises(FloatingPointError, match="gate H changed the norm"):
            apply_circuit(StateVector(3, amps.copy()), gates)

    def test_gate_arity(self):
        with pytest.raises(ValueError, match="acts on 1 qubit"):
            Gate("H", (0, 1))
        with pytest.raises(ValueError, match="acts on 2 qubit"):
            Gate("CRZ", (0,), 0.3)

    def test_width_mismatch(self):
        two, three = StateVector(2, np.eye(4)[0]), StateVector(3, np.eye(8)[0])
        op = PauliSum.from_ops(3, {0: "Z"})
        with pytest.raises(ValueError, match="mismatch"):
            expectation(two, op)
        for bra, ket in ((two, two), (two, three), (three, two)):
            with pytest.raises(ValueError, match="mismatch"):
                support_matrix_element(bra.amplitudes, op, ket.amplitudes)

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
            exact_ground_state(PauliSum.from_ops(25, {}), 25, (1, 1))

    def test_ground_state_residual_check(self, monkeypatch):
        eigh = np.linalg.eigh

        def shifted(matrix):
            vals, vecs = eigh(matrix)
            return vals + 1e-6, vecs

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        H = hubbard_hamiltonian(build_lattice("chain", 2), 1.0, 4.0)
        with pytest.raises(RuntimeError, match="residual"):
            exact_ground_state(H, 4, (1, 1))

    def test_lanczos_non_convergence_is_reported(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def stalled(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        # ladder:8 at half filling has 4,900 states: the Lanczos path
        H = hubbard_hamiltonian(build_lattice("ladder", 8), 1.0, 4.0)
        assert 4900 > statevector.DENSE_MAX_DIM
        with pytest.raises(RuntimeError, match="ground-state iteration did not converge") as err:
            exact_ground_state(H, 16, (4, 4))
        assert isinstance(err.value.__cause__, spla.ArpackNoConvergence)


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
        # chain:5's whole 10-qubit register (1,024 states) takes the Lanczos
        # path; its lowest level is a doublet
        lat = build_lattice("chain", 5)
        H = hubbard_hamiltonian(lat, 1.0, 2.0)
        assert 1 << 10 > statevector.DENSE_MAX_DIM
        res = exact_ground_state(H, 10, None)
        levels = np.linalg.eigvalsh(H.to_matrix())
        assert abs(res.energy - levels[0]) < 1e-12
        v = res.state.amplitudes
        assert np.linalg.norm(apply_pauli_sum(v, H) - res.energy * v) < 1e-8

    def test_lanczos_on_a_level_wider_than_its_window(self):
        # at U=0 chain:5's lowest level is fourfold, while Lanczos asks for
        # one eigenpair
        H = hubbard_hamiltonian(build_lattice("chain", 5), 1.0, 0.0)
        levels = np.linalg.eigvalsh(H.to_matrix())
        res = exact_ground_state(H, 10, None)
        assert abs(res.energy - levels[0]) < 1e-12
        v = res.state.amplitudes
        assert np.linalg.norm(apply_pauli_sum(v, H) - res.energy * v) < 1e-8

    def test_one_lanczos_run_on_a_half_register_ground_level(self, monkeypatch):
        # Z on qubit 0 of 8: 256 states, the lowest level (-1) is 128-fold
        import scipy.sparse.linalg as spla

        calls = []
        eigsh = spla.eigsh
        monkeypatch.setattr(spla, "eigsh", lambda *a, **kw: calls.append(1) or eigsh(*a, **kw))
        op = PauliSum.from_ops(8, {0: "Z"})
        res = exact_ground_state(op, 8, None)
        assert len(calls) == 1
        assert res.energy == pytest.approx(-1.0, abs=1e-12)
        v = res.state.amplitudes
        assert np.linalg.norm(apply_pauli_sum(v, op) + v) < 1e-8

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

    @pytest.mark.parametrize("u", [0.0, 1.3, 4.0, 8.0])
    @pytest.mark.parametrize("kind, n_sites", [("chain", 6), ("ladder", 6), ("chain", 7)])
    def test_lanczos_matches_a_dense_sector_solve(self, kind, n_sites, u):
        # 400, 400 and 1,225 states: all above the dense cut.  The residual
        # bound, 1/100 of the gate, is what Lanczos's own tolerance is set to.
        H = hubbard_hamiltonian(build_lattice(kind, n_sites), 1.0, u)
        sector = ((n_sites + 1) // 2, n_sites // 2)
        basis = statevector._sector_indices(2 * n_sites, sector)
        assert len(basis) > statevector.DENSE_MAX_DIM
        dense = np.linalg.eigvalsh(basis_matrix(H, basis).toarray())[0]
        res = exact_ground_state(H, 2 * n_sites, sector)
        assert abs(res.energy - dense) < 1e-12
        v = res.state.amplitudes
        residual = np.linalg.norm(apply_pauli_sum(v, H) - res.energy * v)
        assert residual <= 1e-2 * statevector._RESIDUAL_TOL * max(1.0, abs(res.energy))

    def test_complex_hermitian_operator_on_the_lanczos_branch(self):
        # real multiples of Pauli strings that each carry a Y: Hermitian, with
        # imaginary matrix elements; 256 register states take the Lanczos branch
        rng = np.random.default_rng(7)
        strings = []
        for _ in range(16):
            ops = rng.choice(list("IXYZ"), 8)
            ops[rng.integers(8)] = "Y"
            strings.append("".join(ops))
        op = PauliSum.from_terms(PauliTerm(rng.standard_normal(), s) for s in strings)
        assert 1 << 8 > statevector.DENSE_MAX_DIM
        dense = op.to_matrix()
        assert np.abs(dense.imag).max() > 0.1
        res = exact_ground_state(op, 8, None)
        assert abs(res.energy - np.linalg.eigvalsh(dense)[0]) < 1e-12
        v = res.state.amplitudes
        residual = np.linalg.norm(dense @ v - res.energy * v)
        assert residual <= 1e-2 * statevector._RESIDUAL_TOL * max(1.0, abs(res.energy))

    def test_lanczos_work_count(self, monkeypatch):
        # Matrix-vector products of the one Lanczos run on ladder:8 at U=4
        # (4,900 states).  Measured with SciPy 1.17.1: 91 for one eigenpair
        # stopped at 1e-11, against 181 for two eigenpairs to machine
        # precision and 121 for one.  The bound leaves room for another
        # SciPy's ARPACK.
        import scipy.sparse.linalg as spla

        eigsh = spla.eigsh
        products = []

        def counted(matrix, *args, **kwargs):
            def matvec(x):
                products.append(1)
                return matrix @ x
            counter = spla.LinearOperator(matrix.shape, matvec=matvec, dtype=matrix.dtype)
            return eigsh(counter, *args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", counted)
        H = hubbard_hamiltonian(build_lattice("ladder", 8), 1.0, 4.0)
        exact_ground_state(H, 16, (4, 4))
        assert 0 < len(products) <= 115

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
