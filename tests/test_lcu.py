"""Ancilla-based preparation circuit vs closed-form projection.

The success branch must reproduce the normalized projected trial state,
and the success probability must match the determinant-minor route.
The single-site circuit is additionally materialized as an 8x8 matrix
and compared against a hand-built average-of-two-unitaries construction.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from gutzmc.gutzwiller import apply_gutzwiller_exact, full_sum_expectation, hs_params
from gutzmc.lattice import QubitLayout, build_lattice, hubbard_terms
from gutzmc.lcu import (
    _dressing_gates,
    build_lcu_state,
    docc_from_success_probability,
    exact_double_occupancy,
    measure_ancillas_success,
    pair_distance_weights,
    success_probability,
    success_probability_curve,
)
from gutzmc.pauli import PauliSum, diagonal_eigenvalues
from gutzmc.slater import (
    SlaterState,
    TrialState,
    half_filled_trial,
    sector_amplitudes,
    slater_to_statevector,
)
from gutzmc.statevector import StateVector, apply_circuit, hadamard


def one_site_interaction() -> PauliSum:
    # D for a single site: (n_up - 1/2)(n_dn - 1/2) = Z Z / 4
    return PauliSum.from_ops(2, {0: "Z", 1: "Z"}, 0.25)


def outer_product_weights(trial: TrialState) -> np.ndarray:
    """Reference histogram: every (up, down) occupation pair, binned by XOR popcount.

    Rows are processed in blocks and the block histograms summed with
    math.fsum, so the reference carries far less roundoff than a single
    bincount over all C(N, N/2)^2 pairs would.
    """
    n = trial.lattice.n_sites
    w_up = np.abs(sector_amplitudes(trial.up)) ** 2
    w_dn = np.abs(sector_amplitudes(trial.down)) ** 2
    up_idx = np.flatnonzero(w_up > 0)
    dn_idx = np.flatnonzero(w_dn > 0)
    blocks = []
    for start in range(0, up_idx.size, 64):
        rows = up_idx[start:start + 64]
        distance = np.bitwise_count(np.bitwise_xor.outer(rows, dn_idx))
        weight = np.outer(w_up[rows], w_dn[dn_idx])
        blocks.append(np.bincount(distance.ravel(), weights=weight.ravel(), minlength=n + 1))
    return np.array([math.fsum(col) for col in np.array(blocks).T])


def random_trial(kind: str, n: int, n_up: int, n_dn: int, seed: int) -> TrialState:
    rng = np.random.default_rng(seed)

    def orbitals(k: int) -> SlaterState:
        q, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        return SlaterState(q)

    return TrialState(build_lattice(kind, n), orbitals(n_up), orbitals(n_dn))


def random_register_state(n_qubits: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


class TestSingleSite:
    @pytest.mark.parametrize("g", [0.3, 0.9])
    def test_branch_equals_projection(self, g):
        layout = QubitLayout(1)
        trial = random_register_state(2, seed=8)
        outcome = measure_ancillas_success(build_lcu_state(trial, g, layout))
        target = apply_gutzwiller_exact(trial, g, one_site_interaction())
        np.testing.assert_allclose(
            outcome.projected_state.amplitudes, target.normalized().amplitudes, atol=1e-10
        )
        # p = e^{-g/2} * <e^{-2gD}>
        d = diagonal_eigenvalues(one_site_interaction())
        expected_p = np.exp(-g / 2) * float(
            np.sum(np.abs(trial.amplitudes) ** 2 * np.exp(-2 * g * d))
        )
        assert abs(outcome.success_probability - expected_p) < 1e-10

    def test_circuit_matrix_against_direct_construction(self):
        g = 0.7
        params = hs_params(g)
        layout = QubitLayout(1, n_ancillas=1)
        gates = (
            [hadamard(layout.ancilla(0))]
            + _dressing_gates(0, params.alpha, layout, simplified=True)
            + [hadamard(layout.ancilla(0))]
        )
        circuit_matrix = np.zeros((8, 8), dtype=complex)
        for col in range(8):
            out = apply_circuit(StateVector.from_basis_state(3, col), gates)
            circuit_matrix[:, col] = out.amplitudes

        # direct route: equal-weight average of the two diagonal branches,
        # wired through an ancilla Hadamard pair by hand
        charge = np.array([-1, 0, 0, 1])  # n_up + n_dn - 1 over the register
        controlled = np.zeros((8, 8), dtype=complex)
        for reg in range(4):
            for anc in range(2):
                s = 1 if anc == 1 else -1
                idx = 2 * reg + anc  # ancilla is the lowest-order qubit
                controlled[idx, idx] = np.exp(1j * params.alpha * s * charge[reg])
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        expected = np.kron(np.eye(4), h) @ controlled @ np.kron(np.eye(4), h)
        np.testing.assert_allclose(circuit_matrix, expected, atol=1e-12)


class TestMultiSite:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("g", [0.3, 0.9])
    def test_branch_equals_projection(self, n, g):
        lat = build_lattice("chain", n)
        layout = QubitLayout(n)
        _, inter = hubbard_terms(lat, 1.0, 1.0)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        outcome = measure_ancillas_success(build_lcu_state(sv, g, layout))
        target = apply_gutzwiller_exact(sv, g, inter).normalized()
        np.testing.assert_allclose(
            outcome.projected_state.amplitudes, target.amplitudes, atol=1e-10
        )
        assert abs(outcome.success_probability - success_probability(lat, g)) < 1e-10

    @pytest.mark.parametrize("n", [2, 4])
    def test_simplified_equals_naive(self, n):
        lat = build_lattice("chain", n)
        layout = QubitLayout(n)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        for g in (0.3, 0.9):
            a = build_lcu_state(sv, g, layout, simplified=True)
            b = build_lcu_state(sv, g, layout, simplified=False)
            np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    def test_success_curve_matches_pointwise(self):
        lat = build_lattice("chain", 4)
        grid = np.array([0.0, 0.4, 1.2])
        rows = success_probability_curve(lat, grid)
        assert [r[0] for r in rows] == [4, 4, 4]
        for (_, g, p), g_ref in zip(rows, grid):
            assert g == g_ref
            assert abs(p - success_probability(lat, g_ref)) < 1e-14


class TestScalingLaws:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_initial_slope_is_minus_half_n(self, n):
        lat = build_lattice("chain", n)
        delta = 1e-4
        slope = np.log(success_probability(lat, delta)) / delta
        assert abs(slope - (-n / 2)) < 1e-3

    @pytest.mark.parametrize("n", [2, 4])
    def test_slope_saturates_to_zero(self, n):
        lat = build_lattice("chain", n)
        delta = 1e-4
        p_hi = success_probability(lat, 12.0 + delta)
        p_lo = success_probability(lat, 12.0 - delta)
        slope = (np.log(p_hi) - np.log(p_lo)) / (2 * delta)
        assert abs(slope) < 1e-3

    def test_probability_monotone_decreasing(self):
        lat = build_lattice("chain", 6)
        grid = np.linspace(0.0, 3.0, 31)
        probs = [success_probability(lat, g) for g in grid]
        assert all(a >= b - 1e-14 for a, b in zip(probs, probs[1:]))

    def test_pair_distance_weights_normalized(self):
        lat = build_lattice("chain", 6)
        weights = pair_distance_weights(half_filled_trial(lat))
        assert weights.shape == (7,)
        assert abs(weights.sum() - 1.0) < 1e-12
        # n_up + n_dn is even, so odd distances are unreachable: exactly 0
        assert not weights[1::2].any()
        assert (weights >= -1e-15).all()


class TestPairWeightsSupport:
    """The Walsh-Hadamard route against the outer-product histogram."""

    @staticmethod
    def check(trial: TrialState) -> None:
        got = pair_distance_weights(trial)
        ref = outer_product_weights(trial)
        assert np.max(np.abs(got - ref)) <= 1e-13
        # bins no pair can reach are exactly 0, not roundoff
        np.testing.assert_array_equal(np.flatnonzero(got), np.flatnonzero(ref))
        assert (got >= 0).all()

    @pytest.mark.parametrize("kind,n", [("chain", n) for n in range(2, 15)]
                             + [("ladder", 6), ("ladder", 8)])
    def test_half_filled_trials(self, kind, n):
        # chain:5 and chain:9 are spin-asymmetric (one more up than down)
        self.check(half_filled_trial(build_lattice(kind, n)))

    @pytest.mark.parametrize("kind,n,n_up,n_dn", [
        ("ladder", 4, 2, 2),  # the half-filled ladder:4 trial is degenerate
        ("chain", 6, 1, 4),   # doped and spin-asymmetric: distances 3 and 5 only
        ("chain", 7, 6, 5),   # above half filling: distances 1, 3 only
    ])
    def test_random_orbital_trials(self, kind, n, n_up, n_dn):
        self.check(random_trial(kind, n, n_up, n_dn, seed=n + n_up))

    def test_top_support_bin_sets_saturation(self):
        # the large-g slope of ln p is set by the largest reachable distance
        lat = build_lattice("chain", 10)
        weights = pair_distance_weights(half_filled_trial(lat))
        assert np.flatnonzero(weights)[-1] == 10


class TestDoubleOccupancy:
    # frozen from an independent evaluation of the distance-binned sums
    CHAIN4 = [
        (0.2, -0.16683517309775464),
        (0.5, -0.40191105480226069),
        (1.0, -0.70518296518950074),
    ]

    @pytest.mark.parametrize("g,expected", CHAIN4)
    def test_exact_value_frozen(self, g, expected):
        lat = build_lattice("chain", 4)
        assert abs(exact_double_occupancy(lat, g) - expected) < 1e-12

    @pytest.mark.parametrize("g,expected", CHAIN4)
    def test_log_derivative_relation(self, g, expected):
        lat = build_lattice("chain", 4)
        assert abs(docc_from_success_probability(lat, g) - expected) < 1e-5

    def test_matches_full_sum_route(self):
        lat = build_lattice("chain", 4)
        layout = QubitLayout(4)
        _, inter = hubbard_terms(lat, 1.0, 1.0)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        got = exact_double_occupancy(lat, 0.5)
        ref = full_sum_expectation(inter, 0.5, sv, layout)
        assert abs(got - ref) < 1e-5

    def test_relation_holds_at_zero(self):
        # log p extends smoothly through g = 0, so the centered stencil
        # is legitimate there; at g = 0 the projector is off and D = 0
        lat = build_lattice("chain", 4)
        assert abs(docc_from_success_probability(lat, 0.0)) < 1e-6


def test_layout_shape_guard():
    bad = StateVector.zero_state(4)  # 4 qubits is not a 3k layout
    with pytest.raises(ValueError):
        measure_ancillas_success(bad)
