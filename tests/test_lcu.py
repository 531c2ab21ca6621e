"""Ancilla-based preparation circuit vs closed-form projection.

The success branch must reproduce the normalized projected trial state,
and the success probability must match the determinant-minor route.
The single-site circuit is additionally materialized as an 8x8 matrix
and compared against a hand-built average-of-two-unitaries construction.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from gutzmc.gutzwiller import apply_gutzwiller_exact, full_sum_expectation, hs_params
from gutzmc.lattice import QubitLayout, build_lattice, hubbard_terms
from gutzmc import lcu
from gutzmc.lcu import (
    _dressing_gates,
    _walsh_hadamard,
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
from gutzmc.statevector import StateVector, SupportState, apply_circuit, expectation, hadamard
from registers import full_register


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
        d = diagonal_eigenvalues(one_site_interaction(), np.arange(4))
        expected_p = np.exp(-g / 2) * float(
            np.sum(np.abs(trial.amplitudes) ** 2 * np.exp(-2 * g * d))
        )
        assert abs(outcome.success_probability - expected_p) < 1e-10

    def test_circuit_matrix_against_direct_construction(self):
        g = 0.7
        params = hs_params(g)
        layout = QubitLayout(1)
        gates = (
            [hadamard(layout.ancilla(0))]
            + _dressing_gates(0, params.alpha, layout, simplified=True)
            + [hadamard(layout.ancilla(0))]
        )
        circuit_matrix = np.zeros((8, 8), dtype=complex)
        for col in range(8):
            # no register: all three qubits lead the storage, as on a dense register
            out = apply_circuit(SupportState(0, 3, [0], np.eye(8)[col]), gates)
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

    def test_one_log_p_formula_bit_for_bit(self):
        lat = build_lattice("chain", 6)
        weights, n = pair_distance_weights(half_filled_trial(lat)), 6

        def log_p(g):
            # ln <psi0|e^{-2gD}|psi0> with its largest exponent factored out, then -g*N/2
            support = np.flatnonzero(weights > 0)
            expo = -2.0 * g * ((n - 2 * support) / 4.0)
            peak = float(np.max(expo))
            return -g * n / 2 + (peak + float(np.log(np.sum(weights[support]
                                                               * np.exp(expo - peak)))))

        grid = [float(g) for g in np.linspace(-0.5, 6.0, 27)]
        expected = [float(np.exp(log_p(g))) for g in grid]
        assert [p for _, _, p in success_probability_curve(lat, np.array(grid))] == expected
        assert [success_probability(lat, g) for g in grid] == expected
        delta = 1e-4
        for g in grid[::3]:
            slope = (log_p(g + delta) - log_p(g - delta)) / (2 * delta)
            assert docc_from_success_probability(lat, g, delta) == -(n / 4 + slope / 2)


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

    @pytest.mark.parametrize("kind,n", [("chain", 4), ("chain", 10), ("chain", 12),
                                        ("ladder", 6), ("ladder", 8)])
    def test_symmetric_trial_matches_the_two_sector_route(self, kind, n, monkeypatch):
        trial = half_filled_trial(build_lattice(kind, n))
        assert trial.spin_symmetric
        up = _walsh_hadamard(np.abs(sector_amplitudes(trial.up)) ** 2)
        down = _walsh_hadamard(np.abs(sector_amplitudes(trial.down)) ** 2)
        by_xor = _walsh_hadamard(up * down) / (1 << n)
        ref = np.bincount(np.bitwise_count(np.arange(1 << n)), weights=by_xor, minlength=n + 1)
        ref[1::2] = 0.0  # n_up + n_dn = n is even: odd distances are unreachable
        calls = []
        monkeypatch.setattr(lcu, "sector_amplitudes",
                            lambda slater: calls.append(1) or sector_amplitudes(slater))
        got = pair_distance_weights(trial)
        assert [x.hex() for x in got] == [x.hex() for x in ref]
        assert len(calls) == 1  # one sector's amplitudes serve both spins

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


class TestSupportReach:
    """The circuit at eight sites, where the full 3N-qubit register would
    hold 2^24 amplitudes (256 MiB per array); the support register holds
    4900 x 256 at chain:8 and ladder:8."""

    @staticmethod
    def run_traced(sv, g, layout, simplified):
        tracemalloc.start()
        try:
            whole = build_lcu_state(sv, g, layout, simplified=simplified)
            outcome = measure_ancillas_success(whole)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return whole, outcome, peak

    @pytest.mark.parametrize("kind", ["chain", "ladder"])
    @pytest.mark.parametrize("g", [0.4, 1.1])
    def test_circuit_matches_closed_form(self, kind, g):
        lat = build_lattice(kind, 8)
        layout = QubitLayout(8)
        _, inter = hubbard_terms(lat, 1.0, 1.0)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        target = apply_gutzwiller_exact(sv, g, inter).normalized()
        p_exact = success_probability(lat, g)
        wholes = []
        for simplified in (True, False):
            whole, outcome, peak = self.run_traced(sv, g, layout, simplified)
            assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
            assert abs(outcome.success_probability - p_exact) < 1e-10
            np.testing.assert_allclose(
                outcome.projected_state.amplitudes, target.amplitudes, rtol=0, atol=1e-10
            )
            wholes.append(whole)
        assert wholes[0].amplitudes.shape == (256 * 4900,)
        assert np.max(np.abs(wholes[0].amplitudes - wholes[1].amplitudes)) <= 1e-12


def whole_register_circuit(trial, g, layout, simplified):
    """Reference: all 2^N ancilla rows from the start, every gate through
    one apply_circuit, as the circuit ran before it grew its register."""
    amps = np.zeros((1 << layout.n_sites, trial.support.size), dtype=complex)
    amps[0] = trial.amplitudes
    whole = SupportState(layout.n_register, layout.n_sites, trial.support, amps.reshape(-1))
    alpha = hs_params(g).alpha
    gates = []
    for site in range(layout.n_sites):
        anc = layout.ancilla(site)
        gates += [hadamard(anc), *_dressing_gates(site, alpha, layout, simplified), hadamard(anc)]
    return apply_circuit(whole, gates)


class TestGrownRegister:
    """The circuit adds one ancilla per site; the rows it has not reached
    are exact zeros in the whole-register circuit, so both give the same
    bits, signs of zero included."""

    @staticmethod
    def assert_same_bits(got: SupportState, want: SupportState) -> None:
        assert (got.n_register, got.n_ancillas) == (want.n_register, want.n_ancillas)
        np.testing.assert_array_equal(got.support, want.support)
        np.testing.assert_array_equal(got.amplitudes.view(np.float64),
                                      want.amplitudes.view(np.float64))
        np.testing.assert_array_equal(np.signbit(got.amplitudes.view(np.float64)),
                                      np.signbit(want.amplitudes.view(np.float64)))

    @pytest.mark.parametrize("kind, n", [("chain", n) for n in range(2, 7)] + [("ladder", 6)])
    @pytest.mark.parametrize("simplified", [True, False])
    def test_equals_whole_register_circuit(self, kind, n, simplified):
        layout = QubitLayout(n)
        trial = half_filled_trial(build_lattice(kind, n))
        sv = slater_to_statevector(trial.up, trial.down, layout)
        before = sv.amplitudes.copy()
        for g in (0.0, 0.6, 1.5):
            self.assert_same_bits(build_lcu_state(sv, g, layout, simplified),
                                  whole_register_circuit(sv, g, layout, simplified))
        np.testing.assert_array_equal(sv.amplitudes, before)  # the trial is not touched

    @pytest.mark.parametrize("simplified", [True, False])
    def test_signed_zero_trial(self, simplified):
        # exact +0 and -0 in both parts, beside unit-norm nonzero entries
        amps = np.array([0.6, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                         0.0, 0.48j, -0.0, complex(0.0, 0.0),
                         complex(-0.0, 0.0), 0.0, -0.64, complex(0.0, -0.0),
                         complex(-0.0, -0.0), 0.0, -0.0, 0.0])
        trial = StateVector(4, amps)
        assert trial.squared_norm() == 1.0
        layout = QubitLayout(2)
        for g in (0.0, 0.6, 1.5):
            self.assert_same_bits(build_lcu_state(trial, g, layout, simplified),
                                  whole_register_circuit(trial, g, layout, simplified))

    @pytest.mark.parametrize("kind", ["chain", "ladder"])
    def test_peak_stays_at_the_whole_register_peak(self, kind):
        # 4900 x 256 amplitudes are 19.1 MiB; the whole-register circuit
        # peaks at 38.5 MiB, and growing while the old rows stay alive
        # through the site's gates would reach 48 MiB
        layout = QubitLayout(8)
        trial = half_filled_trial(build_lattice(kind, 8))
        sv = slater_to_statevector(trial.up, trial.down, layout)
        for simplified in (True, False):
            tracemalloc.start()
            try:
                build_lcu_state(sv, 0.7, layout, simplified)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("scale", [3.0, 1.0 + 1e-11, 1.0 - 1e-11])
    def test_unnormalized_trial_rejected(self, scale):
        # a chain:4 trial scaled by 3 once read p = 7.4307 at g = 0.1 (0.8256 normalized)
        layout = QubitLayout(4)
        trial = half_filled_trial(build_lattice("chain", 4))
        sv = slater_to_statevector(trial.up, trial.down, layout)
        scaled = SupportState(sv.n_register, 0, sv.support, sv.amplitudes * scale)
        with pytest.raises(ValueError, match="not normalized"):
            build_lcu_state(scaled, 0.1, layout)
        assert abs(measure_ancillas_success(build_lcu_state(sv, 0.1, layout))
                   .success_probability - 0.8256) < 1e-4


class TestCheckedCircuit:
    """The whole circuit is one checked run: each gate's input norm is the
    previous gate's checked output norm, growth steps included."""

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("simplified", [True, False])
    def test_one_fresh_norm_per_circuit(self, n, simplified, monkeypatch):
        # per site: two H and the dressing gates; one fresh norm, of the trial
        layout = QubitLayout(n)
        trial = half_filled_trial(build_lattice("chain", n))
        sv = slater_to_statevector(trial.up, trial.down, layout)
        n_gates = n * (2 + len(_dressing_gates(0, 0.3, layout, simplified)))
        vdot, calls = np.vdot, []
        monkeypatch.setattr(np, "vdot", lambda a, b: calls.append(1) or vdot(a, b))
        build_lcu_state(sv, 0.7, layout, simplified)
        assert len(calls) == n_gates + 1

    @pytest.mark.parametrize("simplified", [True, False])
    def test_growth_fault_raises(self, simplified, monkeypatch):
        # unchecked, halving seven amplitudes as the third ancilla joins
        # reads p = 0.3532 against the closed form's 0.3658 (chain:4, g = 0.7)
        layout = QubitLayout(4)
        trial = half_filled_trial(build_lattice("chain", 4))
        sv = slater_to_statevector(trial.up, trial.down, layout)

        def faulty(n_register, n_ancillas, support, amplitudes):
            if n_ancillas == 3:
                amplitudes[:7] *= 0.5
            return SupportState(n_register, n_ancillas, support, amplitudes)

        monkeypatch.setattr(lcu, "SupportState", faulty)
        with pytest.raises(FloatingPointError, match="changed the norm"):
            build_lcu_state(sv, 0.7, layout, simplified)


class TestCompactRoundTrip:
    """The circuit's projected state, kept on the trial's support, goes back
    into every route that takes a trial: each must read it as the same state
    scattered into the full register does."""

    @staticmethod
    def routes(state, lat, layout):
        kin, inter = hubbard_terms(lat, 1.0, 1.0)
        projected = apply_gutzwiller_exact(state, 0.7, inter).normalized()
        whole = build_lcu_state(state, 0.5, layout)
        return [expectation(projected, kin).real, expectation(projected, inter).real,
                full_sum_expectation(kin, 0.9, state, layout),
                full_sum_expectation(inter, 0.9, state, layout),
                measure_ancillas_success(whole).success_probability]

    @pytest.mark.parametrize("kind, n", [("chain", 4), ("ladder", 6)])
    def test_compact_equals_full_register(self, kind, n):
        lat = build_lattice(kind, n)
        layout = QubitLayout(n)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        compact = measure_ancillas_success(build_lcu_state(sv, 0.8, layout)).projected_state
        assert compact.amplitudes.size < 1 << layout.n_register
        full = StateVector(layout.n_register, full_register(compact))
        for got, want in zip(self.routes(compact, lat, layout), self.routes(full, lat, layout)):
            assert abs(got - want) <= 1e-12

    def test_a_state_with_ancillas_is_rejected(self):
        lat = build_lattice("chain", 2)
        layout = QubitLayout(2)
        kin, inter = hubbard_terms(lat, 1.0, 1.0)
        trial = half_filled_trial(lat)
        whole = build_lcu_state(slater_to_statevector(trial.up, trial.down, layout), 0.5, layout)
        assert whole.n_ancillas == 2
        routes = [lambda: expectation(whole, kin),
                  lambda: apply_gutzwiller_exact(whole, 0.5, inter),
                  lambda: full_sum_expectation(kin, 0.5, whole, layout),
                  lambda: build_lcu_state(whole, 0.5, layout)]
        for route in routes:
            with pytest.raises(ValueError):
                route()


def test_layout_shape_guard():
    support = np.arange(4)
    with pytest.raises(ValueError):  # 8 amplitudes are not 2^2 ancilla states x 4 rows
        SupportState(2, 2, support, np.zeros(8, dtype=complex))
    with pytest.raises(ValueError):  # two ancillas on a 2-qubit register is not N + 2N
        measure_ancillas_success(SupportState(2, 2, support, np.zeros(16, dtype=complex)))
