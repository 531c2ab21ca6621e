"""The one-site identity, projected expectations, and two-site closed forms.

Expected numbers are frozen from the defining formulas evaluated
independently: alpha = arccos(e^{-g/2}), gamma = e^{g/4}/2, the two-site
energy E(g) = -(2J + (U/2) sinh g)/cosh g, and its optimum
E = -sqrt(4J^2 + U^2/4) at g = arcsinh(U/4J).
"""
from __future__ import annotations

import numpy as np
import pytest

from gutzmc.gutzwiller import (
    all_field_vectors,
    apply_gutzwiller_exact,
    double_occupancy_counts,
    field_coupling_matrix,
    field_rotation_circuit,
    full_sum_expectation,
    hs_params,
    two_site_curves,
    two_site_energy,
    verify_hs_identity,
)
from gutzmc.lattice import QubitLayout, build_lattice, hubbard_terms
from gutzmc.pauli import diagonal_eigenvalues
from gutzmc.slater import (
    TrialState,
    ground_state_of_K,
    half_filled_trial,
    slater_to_statevector,
)
from gutzmc.statevector import StateVector, apply_circuit, expectation


def trial_state(kind: str, n: int) -> StateVector:
    trial = half_filled_trial(build_lattice(kind, n))
    return slater_to_statevector(trial.up, trial.down, QubitLayout(n))


class TestHSParams:
    def test_frozen_values_at_half(self):
        p = hs_params(0.5)
        assert abs(p.alpha - 0.67804458440277804) < 1e-15
        assert abs(p.gamma - 0.56657422653341316) < 1e-15

    def test_limits(self):
        p0 = hs_params(0.0)
        assert p0.alpha == 0.0 and abs(p0.gamma - 0.5) < 1e-15
        assert hs_params(20.0).alpha < np.pi / 2

    def test_negative_g_rejected(self):
        with pytest.raises(ValueError):
            hs_params(-0.1)

    @pytest.mark.parametrize("g", np.linspace(0.0, 10.0, 21).tolist())
    def test_identity_across_range(self, g):
        assert verify_hs_identity(g) < 1e-12

    def test_identity_matrix_form(self):
        # independent reconstruction of both sides at one point
        g = 0.8
        p = hs_params(g)
        charge = np.array([-1, 0, 0, 1])  # n_up + n_dn - 1 over |00>,|01>,|10>,|11>
        rhs = p.gamma * sum(np.diag(np.exp(1j * p.alpha * s * charge)) for s in (1, -1))
        lhs = np.diag(np.exp(-g * np.array([0.25, -0.25, -0.25, 0.25])))
        np.testing.assert_allclose(rhs, lhs, atol=1e-14)


class TestTwoSiteClosedForms:
    def test_energy_frozen_point(self):
        assert abs(two_site_energy(0.5, 1.0, 4.0) - (-2.6978720824601679)) < 1e-12

    @pytest.mark.parametrize(
        "u,g_opt,e_opt",
        [
            (1.0, 0.24746646154726346, -2.0615528128088303),
            (2.0, 0.48121182505960347, -2.2360679774997898),
            (3.0, 0.69314718055994529, -2.5),
            (4.0, 0.88137358701954305, -2.8284271247461903),
        ],
    )
    def test_optimum(self, u, g_opt, e_opt):
        curves = two_site_curves(1.0, u, np.linspace(0, 2, 5))
        assert abs(curves.g_opt - g_opt) < 1e-12
        assert abs(curves.E_opt - e_opt) < 1e-12
        assert abs(two_site_energy(g_opt, 1.0, u) - e_opt) < 1e-12

    def test_component_curves(self):
        grid = np.linspace(0.0, 2.0, 11)
        curves = two_site_curves(1.0, 3.0, grid)
        np.testing.assert_allclose(curves.K, -2.0 / np.cosh(grid), atol=1e-14)
        np.testing.assert_allclose(curves.UD, -1.5 * np.tanh(grid), atol=1e-14)
        np.testing.assert_allclose(curves.E, curves.K + curves.UD, atol=1e-14)

    def test_nonpositive_j_rejected(self):
        with pytest.raises(ValueError):
            two_site_curves(0.0, 1.0, np.array([0.5]))


class TestProjectedState:
    def test_projection_is_diagonal_damping(self):
        lat = build_lattice("chain", 3)
        layout = QubitLayout(3)
        _, inter = hubbard_terms(lat, 1.0, 1.0)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        g = 0.7
        out = apply_gutzwiller_exact(sv, g, inter)
        d = diagonal_eigenvalues(inter)
        np.testing.assert_allclose(
            out.amplitudes, sv.amplitudes * np.exp(-g * d), atol=1e-15
        )
        # deliberately unnormalized: the norm carries <e^{-2gD}>
        expected_sq = float(np.sum(np.abs(sv.amplitudes) ** 2 * np.exp(-2 * g * d)))
        assert abs(out.norm() ** 2 - expected_sq) < 1e-12
        assert abs(out.norm() - 1.0) > 1e-3

    def test_equivalent_multiplicative_form(self):
        # multiplying amplitudes by gtilde^{#doubly occupied} with
        # gtilde = e^{-g} reproduces the same normalized state
        lat = build_lattice("chain", 4)
        layout = QubitLayout(4)
        _, inter = hubbard_terms(lat, 1.0, 1.0)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        g = 0.9
        counts = double_occupancy_counts(layout)
        alt = StateVector(layout.n_register, sv.amplitudes * np.exp(-g) ** counts)
        reference = apply_gutzwiller_exact(sv, g, inter)
        np.testing.assert_allclose(
            alt.normalized().amplitudes, reference.normalized().amplitudes, atol=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_support_route_equals_full_register_damping(self, n):
        _, inter = hubbard_terms(build_lattice("chain", n), 1.0, 1.0)
        rng = np.random.default_rng(n)
        dim = 1 << (2 * n)
        noise = StateVector(2 * n, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        d = diagonal_eigenvalues(inter)
        for sv in (trial_state("chain", n), noise):
            for g in (0.4, 1.3):
                out = apply_gutzwiller_exact(sv, g, inter)
                assert out.n_qubits == 2 * n
                assert np.max(np.abs(out.amplitudes - sv.amplitudes * np.exp(-g * d))) <= 1e-12

    def test_double_occupancy_counts_spot_values(self):
        layout = QubitLayout(2)
        counts = double_occupancy_counts(layout)
        # |up: 11, dn: 11> = index 15 has both sites doubly occupied
        assert counts[0b1111] == 2
        assert counts[0b1010] == 1  # site 0 doubly occupied
        assert counts[0b1001] == 0  # opposite sites


class TestFieldRotations:
    def test_circuit_equals_exponential_exactly(self):
        # R_Z(s*alpha) on both spin qubits == e^{i*alpha*s*(n_up+n_dn-1)}
        # including the scalar prefactor — equality is exact, not up to phase
        layout = QubitLayout(2)
        params = hs_params(0.8)
        rng = np.random.default_rng(2)
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        amps /= np.linalg.norm(amps)
        coupling = field_coupling_matrix(layout)
        for config_col in ([1, -1], [-1, -1], [1, 1]):
            config = np.array([config_col, config_col]).T  # same fields both copies
            gates = field_rotation_circuit(config, 1, params, layout)
            got = apply_circuit(StateVector(4, amps.copy()), gates)
            phase = np.exp(1j * params.alpha * coupling @ np.array(config_col))
            np.testing.assert_allclose(got.amplitudes, phase * amps, atol=1e-14)

    def test_tau_selects_config_column(self):
        layout = QubitLayout(2)
        params = hs_params(0.5)
        config = np.array([[1, -1], [-1, 1]])
        amps = np.full(16, 0.25, dtype=complex)
        a = apply_circuit(StateVector(4, amps.copy()),
                          field_rotation_circuit(config, 1, params, layout))
        b = apply_circuit(StateVector(4, amps.copy()),
                          field_rotation_circuit(config, 2, params, layout))
        # opposite field columns dress a superposition differently...
        assert np.abs(a.amplitudes - b.amplitudes).max() > 1e-3
        # ...with per-basis phases that are exact complex conjugates here
        np.testing.assert_allclose(a.amplitudes, b.amplitudes.conj(), atol=1e-14)

    def test_bad_tau_and_bad_config(self):
        layout = QubitLayout(2)
        params = hs_params(0.5)
        good = np.ones((2, 2), dtype=int)
        with pytest.raises(ValueError):
            field_rotation_circuit(good, 3, params, layout)
        with pytest.raises(ValueError):
            field_rotation_circuit(np.array([[1, 2], [1, 1]]), 1, params, layout)

    def test_all_field_vectors(self):
        vecs = all_field_vectors(3)
        assert vecs.shape == (8, 3)
        assert set(np.unique(vecs)) == {-1, 1}
        assert len({tuple(v) for v in vecs}) == 8


class TestFullSum:
    @pytest.mark.parametrize("kind,n", [("chain", 2), ("chain", 3), ("chain", 4), ("ladder", 4)])
    def test_matches_exact_projection(self, kind, n):
        lat = build_lattice(kind, n)
        layout = QubitLayout(n)
        kin, inter = hubbard_terms(lat, 1.0, 1.0)
        if kind == "ladder":
            # half filling on the square plaquette is degenerate; dope it
            quarter = ground_state_of_K(lat, 1)
            trial = TrialState(lat, quarter, quarter)
        else:
            trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        for g in (0.5, 1.1):
            projected = apply_gutzwiller_exact(sv, g, inter).normalized()
            for op in (kin, inter):
                expected = expectation(projected, op).real
                got = full_sum_expectation(op, g, sv, layout)
                assert abs(got - expected) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_support_rows_match_exact_projection(self, n):
        # full_sum_expectation keeps only the trial's support rows
        lat = build_lattice("chain", n)
        layout = QubitLayout(n)
        sv = trial_state("chain", n)
        kin, inter = hubbard_terms(lat, 1.0, 1.0)
        for g in (0.3, 1.2):
            projected = apply_gutzwiller_exact(sv, g, inter).normalized()
            for op in (kin, inter):
                expected = expectation(projected, op).real
                assert abs(full_sum_expectation(op, g, sv, layout) - expected) <= 1e-12

    def test_imaginary_part_guard(self):
        lat = build_lattice("chain", 2)
        kin, _ = hubbard_terms(lat, 1.0, 1.0)
        with pytest.raises(ArithmeticError, match="imaginary part"):
            full_sum_expectation(1j * kin, 0.5, trial_state("chain", 2), QubitLayout(2))

    def test_two_site_energy_assembles(self):
        lat = build_lattice("chain", 2)
        layout = QubitLayout(2)
        kin, inter = hubbard_terms(lat, 1.0, 1.0)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        for g, u in [(0.3, 1.0), (0.88137358701954305, 4.0)]:
            e = full_sum_expectation(kin, g, sv, layout) + u * full_sum_expectation(
                inter, g, sv, layout
            )
            assert abs(e - two_site_energy(g, 1.0, u)) < 1e-10

    def test_size_guard(self):
        lat = build_lattice("chain", 8)
        layout = QubitLayout(8)
        kin, _ = hubbard_terms(lat, 1.0, 1.0)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        with pytest.raises(ValueError):
            full_sum_expectation(kin, 0.5, sv, layout)
