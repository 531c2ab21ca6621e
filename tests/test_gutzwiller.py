"""The one-site identity, projected expectations, and two-site closed forms.

Expected numbers are frozen from the defining formulas evaluated
independently: alpha = arccos(e^{-g/2}), gamma = e^{g/4}/2, the two-site
energy E(g) = -(2J + (U/2) sinh g)/cosh g, and its optimum
E = -sqrt(4J^2 + U^2/4) at g = arcsinh(U/4J).
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from gutzmc.gutzwiller import (
    all_field_vectors,
    apply_gutzwiller_exact,
    field_coupling_matrix,
    full_sum_expectation,
    hs_params,
    two_site_curves,
    two_site_energy,
    verify_hs_identity,
)
from gutzmc.lattice import QubitLayout, build_lattice, hubbard_terms
from gutzmc.pauli import basis_matrix, diagonal_eigenvalues
from gutzmc.slater import (
    TrialState,
    ground_state_of_K,
    half_filled_trial,
    slater_to_statevector,
)
from gutzmc.statevector import StateVector, SupportState, apply_circuit, expectation, rz
from registers import full_register


def trial_state(kind: str, n: int) -> SupportState:
    trial = half_filled_trial(build_lattice(kind, n))
    return slater_to_statevector(trial.up, trial.down, QubitLayout(n))


def double_occupancy_counts(layout: QubitLayout) -> np.ndarray:
    """Number of doubly occupied sites for each register basis state.

    An independent reference for the projector: it counts occupations bit
    by bit instead of reading the double-occupancy operator's eigenvalues.
    """
    idx = np.arange(1 << layout.n_register, dtype=np.int64)
    counts = np.zeros(idx.shape, dtype=np.int64)
    for site in range(layout.n_sites):
        up = (idx >> (layout.n_register - 1 - layout.qubit(site, "up"))) & 1
        dn = (idx >> (layout.n_register - 1 - layout.qubit(site, "down"))) & 1
        counts += up & dn
    return counts


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
        # the projection stays on the trial's support, with no ancillas
        assert (out.n_register, out.n_ancillas) == (layout.n_register, 0)
        np.testing.assert_array_equal(out.support, sv.support)
        d = diagonal_eigenvalues(inter, np.arange(1 << layout.n_register))
        full = full_register(sv)
        np.testing.assert_allclose(
            out.amplitudes, (full * np.exp(-g * d))[out.support], atol=1e-15
        )
        # deliberately unnormalized: the norm carries <e^{-2gD}>
        expected_sq = float(np.sum(np.abs(full) ** 2 * np.exp(-2 * g * d)))
        assert abs(out.squared_norm() - expected_sq) < 1e-12
        assert abs(np.sqrt(out.squared_norm()) - 1.0) > 1e-3

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
        alt = StateVector(layout.n_register, full_register(sv) * np.exp(-g) ** counts)
        reference = apply_gutzwiller_exact(sv, g, inter)
        off = np.setdiff1d(np.arange(1 << layout.n_register), reference.support)
        assert not alt.amplitudes[off].any()
        np.testing.assert_allclose(
            alt.normalized().amplitudes[reference.support], reference.normalized().amplitudes,
            atol=1e-12,
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_support_route_equals_full_register_damping(self, n):
        _, inter = hubbard_terms(build_lattice("chain", n), 1.0, 1.0)
        rng = np.random.default_rng(n)
        dim = 1 << (2 * n)
        noise = StateVector(2 * n, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        d = diagonal_eigenvalues(inter, np.arange(dim))
        for sv in (trial_state("chain", n), noise):
            for g in (0.4, 1.3):
                out = apply_gutzwiller_exact(sv, g, inter)
                assert out.n_qubits == 2 * n
                np.testing.assert_array_equal(out.support, sv.support)
                damped = (full_register(sv) * np.exp(-g * d))[out.support]
                assert np.max(np.abs(out.amplitudes - damped)) <= 1e-12

    def test_route_stays_below_one_register(self):
        # apply, normalize and both expectations at chain:8 (2^16 register
        # states, 4,900 on the support) never hold a register-sized array
        lat = build_lattice("chain", 8)
        kin, inter = hubbard_terms(lat, 1.0, 1.0)
        sv = trial_state("chain", 8)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            projected = apply_gutzwiller_exact(sv, 0.8, inter).normalized()
            values = [expectation(projected, op) for op in (kin, inter)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1 << 16) * 16, f"peak {peak} B"  # one complex 2^16 register
        assert projected.amplitudes.size == 4900
        assert all(np.isfinite(v) for v in values)

    def test_expectation_allocates_a_few_supports(self):
        # <K> on the chain:10 projection (63,504 of 2^20 register states)
        # gathers on the support's up x down grid: no array over the register
        kin, inter = hubbard_terms(build_lattice("chain", 10), 1.0, 1.0)
        projected = apply_gutzwiller_exact(trial_state("chain", 10), 0.8, inter).normalized()
        tracemalloc.start()
        try:
            expectation(projected, kin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * projected.amplitudes.nbytes, f"peak {peak} B"

    def test_operator_for_another_register_rejected(self):
        _, inter = hubbard_terms(build_lattice("chain", 2), 1.0, 1.0)
        with pytest.raises(ValueError, match="4-qubit D on a 8-qubit state"):
            apply_gutzwiller_exact(trial_state("chain", 4), 0.5, inter)

    def test_double_occupancy_counts_spot_values(self):
        layout = QubitLayout(2)
        counts = double_occupancy_counts(layout)
        # |up: 11, dn: 11> = index 15 has both sites doubly occupied
        assert counts[0b1111] == 2
        assert counts[0b1010] == 1  # site 0 doubly occupied
        assert counts[0b1001] == 0  # opposite sites


def rotation_gates(fields, alpha: float, layout: QubitLayout) -> list:
    """One copy's dressing circuit: R_Z(s_i*alpha) on both spin qubits of site i."""
    return [rz(float(s) * alpha, layout.qubit(site, spin))
            for site, s in enumerate(fields) for spin in ("up", "down")]


class TestFieldRotations:
    def test_circuit_equals_exponential_exactly(self):
        # R_Z(s*alpha) on both spin qubits == e^{i*alpha*s*(n_up+n_dn-1)}
        # including the scalar prefactor — equality is exact, not up to phase
        layout = QubitLayout(2)
        params = hs_params(0.8)
        rng = np.random.default_rng(2)
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        amps /= np.linalg.norm(amps)
        coupling = field_coupling_matrix(layout, np.arange(16))
        for config_col in ([1, -1], [-1, -1], [1, 1]):
            gates = rotation_gates(config_col, params.alpha, layout)
            got = apply_circuit(StateVector(4, amps.copy()), gates)
            phase = np.exp(1j * params.alpha * coupling @ np.array(config_col))
            np.testing.assert_allclose(got.amplitudes, phase * amps, atol=1e-14)

    def test_tau_selects_config_column(self):
        layout = QubitLayout(2)
        params = hs_params(0.5)
        config = np.array([[1, -1], [-1, 1]])
        amps = np.full(16, 0.25, dtype=complex)
        a, b = (apply_circuit(StateVector(4, amps.copy()),
                              rotation_gates(config[:, tau - 1], params.alpha, layout))
                for tau in (1, 2))
        # opposite field columns dress a superposition differently...
        assert np.abs(a.amplitudes - b.amplitudes).max() > 1e-3
        # ...with per-basis phases that are exact complex conjugates here
        np.testing.assert_allclose(a.amplitudes, b.amplitudes.conj(), atol=1e-14)

    def test_all_field_vectors(self):
        vecs = all_field_vectors(3)
        assert vecs.shape == (8, 3)
        assert set(np.unique(vecs)) == {-1, 1}
        assert len({tuple(v) for v in vecs}) == 8


def exp_phase_full_sum(observable, g, trial, layout) -> float:
    """Reference: the full sum with every phase from its own complex exp of a
    float charge, as full_sum_expectation computed it before its phase table."""
    alpha = hs_params(g).alpha
    support, amps = trial.support, trial.amplitudes
    m = field_coupling_matrix(layout, support)
    fields = all_field_vectors(layout.n_sites)
    phases = np.exp(1j * alpha * (m.astype(np.float64) @ fields.T.astype(np.float64)))
    kets = phases * amps[:, None]
    bras = phases * amps.conj()[:, None]
    obs_kets = basis_matrix(observable, support) @ kets
    return float((np.sum(bras.T @ obs_kets) / np.sum(bras.T @ kets)).real)


class TestFullSum:
    @pytest.mark.parametrize("kind,n", [("chain", 4), ("ladder", 6), ("chain", 7)])
    def test_phase_table_bits_equal_elementwise_exp(self, kind, n):
        lat = build_lattice(kind, n)
        layout = QubitLayout(n)
        sv = trial_state(kind, n)
        for op in hubbard_terms(lat, 1.0, 1.0):
            for g in (0.0, 0.37, 1.3, 4.0):
                assert full_sum_expectation(op, g, sv, layout) == exp_phase_full_sum(
                    op, g, sv, layout)

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

    def test_observable_for_another_register_rejected(self):
        for op in hubbard_terms(build_lattice("chain", 3), 1.0, 1.0):
            with pytest.raises(ValueError, match="does not match layout register"):
                full_sum_expectation(op, 0.5, trial_state("chain", 2), QubitLayout(2))

    def test_size_guard(self):
        lat = build_lattice("chain", 8)
        layout = QubitLayout(8)
        kin, _ = hubbard_terms(lat, 1.0, 1.0)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        with pytest.raises(ValueError):
            full_sum_expectation(kin, 0.5, sv, layout)
