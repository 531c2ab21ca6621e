"""Shot-level two-site pipeline: primitives, assembly, bias, mitigation.

Independent oracle: with per-site field sums t_i = s1_i + s2_i and
k = (t_1 - t_0)/2, the three primitive families have the closed forms
P_II = cos(alpha k), P_ZI = i sin(alpha k), and P_XX = cos(alpha k')
with k' built from the field differences.  Summed over the 16 ordered
config pairs with gamma^4 prefactors these give cosh g, -sinh g, and 1.
"""
from __future__ import annotations

import numpy as np
import pytest

from gutzmc import hadamard
from gutzmc.gutzwiller import HSParams, hs_params, two_site_curves, two_site_energy
from gutzmc.hadamard import (
    _FAMILIES,
    AssembledPrimitives,
    BiasModel,
    TwoSiteEstimate,
    _all_config_pairs,
    _assemble,
    _energy_parts,
    _exact_values,
    _shot_estimates,
    hadamard_exact,
    pas_correct,
    two_site_energy_from_primitives,
    two_site_sector_trial,
)
from gutzmc.pauli import PauliSum, apply_pauli_sum
from gutzmc.statevector import StateVector, SupportState, _scale, apply_circuit, rz


class TestPrimitiveClosedForms:
    @pytest.mark.parametrize("g", [0.2, 0.8, 1.6])
    def test_identity_family(self, g):
        params = hs_params(g)
        trial = two_site_sector_trial()
        for s2, s1 in _all_config_pairs():
            k = ((s1[1] + s2[1]) - (s1[0] + s2[0])) / 2
            value = hadamard_exact(s2, None, s1, trial, params)
            assert abs(value - np.cos(params.alpha * k)) < 1e-13

    @pytest.mark.parametrize("g", [0.2, 0.8, 1.6])
    def test_z_family_is_purely_imaginary(self, g):
        params = hs_params(g)
        trial = two_site_sector_trial()
        op = _FAMILIES["ZI"].operator
        for s2, s1 in _all_config_pairs():
            k = ((s1[1] + s2[1]) - (s1[0] + s2[0])) / 2
            value = hadamard_exact(s2, op, s1, trial, params)
            assert abs(value - 1j * np.sin(params.alpha * k)) < 1e-13

    @pytest.mark.parametrize("g", [0.2, 0.8, 1.6])
    def test_x_family(self, g):
        params = hs_params(g)
        trial = two_site_sector_trial()
        op = _FAMILIES["XX"].operator
        for s2, s1 in _all_config_pairs():
            k_diff = ((s1[1] - s2[1]) - (s1[0] - s2[0])) / 2
            value = hadamard_exact(s2, op, s1, trial, params)
            assert abs(value - np.cos(params.alpha * k_diff)) < 1e-13

    def test_sector_trial_is_bonding_orbital(self):
        trial = two_site_sector_trial()
        np.testing.assert_allclose(
            trial.amplitudes, np.array([0, 1, 1, 0]) / np.sqrt(2), atol=1e-14
        )


def circuit_primitive(s2, op, s1, trial, params):
    """<psi0| u(s2) O u(s1) |psi0> gate by gate: per-site RZ circuits around O."""
    def dressing(config):
        return [rz(float(s) * params.alpha, i) for i, s in enumerate(config)]

    ket = apply_circuit(StateVector(trial.n_qubits, trial.amplitudes.copy()), dressing(s1))
    if op is not None:
        ket = StateVector(trial.n_qubits, apply_pauli_sum(ket.amplitudes, op))
    ket = apply_circuit(ket, dressing(s2))
    return complex(np.vdot(trial.amplitudes, ket.amplitudes))


class TestBatchedPrimitives:
    @pytest.mark.parametrize("bias", [None, BiasModel(0.9), BiasModel(0.9, 0.05)])
    @pytest.mark.parametrize("g", [0.0, 0.3, 1.0, 2.5, 10.0])
    def test_bit_identical_to_circuit_route(self, g, bias):
        params, trial = hs_params(g), two_site_sector_trial()
        eff = params
        if bias is not None:
            eff = HSParams(params.alpha + bias.phase_offset, params.gamma)
        for family, (op, depth, _) in _FAMILIES.items():
            ref = [circuit_primitive(s2, op, s1, trial, eff) for s1, s2 in _all_config_pairs()]
            assert [hadamard_exact(s2, op, s1, trial, eff)
                    for s1, s2 in _all_config_pairs()] == ref
            if bias is not None:
                ref = [v * bias.scale ** depth for v in ref]
            assert _exact_values(family, params, trial, bias) == ref

    def test_non_unitary_dressing_raises(self, monkeypatch):
        def leaky(view, real, imag):
            _scale(view, real, imag)
            view *= 1.0 + 1e-9

        monkeypatch.setattr(hadamard, "_scale", leaky)
        with pytest.raises(FloatingPointError, match="norm"):
            two_site_energy_from_primitives(0.7, 1.0, 2.0)

    def test_rejects_malformed_fields(self):
        params, trial = hs_params(0.5), two_site_sector_trial()
        with pytest.raises(ValueError, match="field vectors"):
            hadamard_exact(np.array([1, 1, 1]), None, np.array([1, 1]), trial, params)
        with pytest.raises(ValueError, match="field vectors"):
            hadamard_exact(np.array([1, 0]), None, np.array([1, 1]), trial, params)

    def test_rejects_a_trial_not_on_every_register_state(self):
        params, trial = hs_params(0.5), two_site_sector_trial()
        partial = SupportState(2, 0, [1, 2], trial.amplitudes[[1, 2]])
        with_ancilla = SupportState(2, 1, np.arange(4), np.tile(trial.amplitudes, 2) / np.sqrt(2))
        for state, found in ((partial, "2 support states and n_ancillas=0"),
                             (with_ancilla, "4 support states and n_ancillas=1")):
            with pytest.raises(ValueError,
                               match=f"all 4 basis states of its 2-qubit register, got {found}"):
                hadamard_exact(np.array([1, 1]), None, np.array([1, 1]), state, params)

    def test_rejects_an_observable_of_another_width(self):
        params, trial = hs_params(0.5), two_site_sector_trial()
        wide = PauliSum.from_ops(3, {0: "Z"})
        with pytest.raises(ValueError):
            hadamard_exact(np.array([1, 1]), wide, np.array([1, 1]), trial, params)


class TestAssembly:
    @pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 2.0])
    def test_frozen_identities(self, g):
        est = two_site_energy_from_primitives(g, 1.0, 4.0)
        assert abs(est.primitives.denominator - np.cosh(g)) < 1e-12
        assert abs(est.primitives.zz_numerator + np.sinh(g)) < 1e-12
        assert abs(est.primitives.xx_numerator - 1.0) < 1e-12

    def test_exact_mode_matches_closed_forms(self):
        grid = np.arange(0.0, 2.01, 0.1)
        for u in (1.0, 2.0, 3.0, 4.0):
            curves = two_site_curves(1.0, u, grid)
            for i, g in enumerate(grid):
                est = two_site_energy_from_primitives(g, 1.0, u)
                assert abs(est.E - curves.E[i]) < 1e-10
                assert abs(est.K - curves.K[i]) < 1e-10
                assert abs(est.UD - curves.UD[i]) < 1e-10
                assert est.E_err == 0.0

    def test_exact_mode_matches_frozen_energy(self):
        est = two_site_energy_from_primitives(0.5, 1.0, 4.0)
        assert abs(est.E - (-2.6978720824601679)) < 1e-12


class TestShotSampling:
    def test_estimate_statistics(self):
        params = hs_params(0.9)
        trial = two_site_sector_trial()
        s1 = np.array([1, -1])
        s2 = np.array([1, 1])
        exact = hadamard_exact(s2, None, s1, trial, params)
        rng = np.random.default_rng(17)
        shots = 4096
        reps = 400
        estimates = np.array(
            [_shot_estimates([exact], shots, rng)[0, 0] for _ in range(reps)]
        )
        pull = (estimates.mean() - exact.real) / (estimates.std(ddof=1) / np.sqrt(reps))
        assert abs(pull) < 4.0
        # binomial spread: sqrt((1 - v^2)/shots)
        predicted = np.sqrt((1 - exact.real**2) / shots)
        assert abs(estimates.std(ddof=1) - predicted) < 0.2 * predicted

    def test_extreme_value_has_zero_spread(self):
        params = hs_params(0.0)  # alpha = 0: every primitive is exactly 1
        trial = two_site_sector_trial()
        ones = np.array([1, 1])
        value = hadamard_exact(ones, None, ones, trial, params)
        est = _shot_estimates([value], 1024, np.random.default_rng(1))
        assert est[0, 0] == 1.0

    def test_same_seed_reproduces(self):
        params = hs_params(0.7)
        trial = two_site_sector_trial()
        s1, s2 = np.array([1, -1]), np.array([-1, -1])
        value = hadamard_exact(s2, None, s1, trial, params)
        a = _shot_estimates([value], 512, np.random.default_rng(5))
        b = _shot_estimates([value], 512, np.random.default_rng(5))
        assert a.tolist() == b.tolist()

    def test_full_estimate_is_unbiased(self):
        g, u = 0.8, 4.0
        exact = two_site_energy(g, 1.0, u)
        est = two_site_energy_from_primitives(
            g, 1.0, u, shots=8192, reps=16, rng=np.random.default_rng(2)
        )
        assert est.E_err > 0
        assert abs(est.E - exact) < 4 * est.E_err

    @pytest.mark.parametrize("mitigate", [False, True])
    def test_one_repetition_has_no_error_bar(self, mitigate):
        # the error bars are the spread over repetitions, which one lacks
        with pytest.raises(ValueError, match="reps must be >= 2"):
            two_site_energy_from_primitives(0.5, 1.0, 4.0, shots=64, reps=1,
                                            rng=np.random.default_rng(3), mitigate=mitigate)
        exact = two_site_energy_from_primitives(0.5, 1.0, 4.0, reps=1)
        assert exact.E_err == 0.0 and abs(exact.E - (-2.6978720824601679)) < 1e-12


class TestBiasAndMitigation:
    def test_bias_model_validation(self):
        with pytest.raises(ValueError):
            BiasModel(scale=0.0)
        with pytest.raises(ValueError):
            BiasModel(scale=1.2)
        assert BiasModel(scale=1.0).phase_offset == 0.0

    def test_pas_correct_is_ratio_rescale(self):
        out = pas_correct([0.5, -0.25], reference_raw=0.5)
        np.testing.assert_allclose(out, [1.0, -0.5], atol=1e-15)
        # a product with the reciprocal, whose last bit can differ from a division
        assert pas_correct([0.3], 0.7).tolist() == [0.3 * (1.0 / 0.7)] != [0.3 / 0.7]
        with pytest.raises(ArithmeticError):
            pas_correct([1.0], reference_raw=1e-9)

    def test_scale_bias_damps_energy(self):
        bias = BiasModel(scale=0.85)
        exact = two_site_energy(1.0, 1.0, 4.0)
        raw = two_site_energy_from_primitives(1.0, 1.0, 4.0, bias=bias)
        assert abs(raw.E - exact) > 0.5  # grossly wrong without correction

    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    def test_pure_scale_bias_fully_corrected(self, g):
        bias = BiasModel(scale=0.85)
        exact = two_site_energy(g, 1.0, 4.0)
        pas = two_site_energy_from_primitives(g, 1.0, 4.0, bias=bias, mitigate=True)
        # anchor ideals are evaluated at the anchor circuits' own known
        # rotation angles, so a depth-uniform scale factor cancels exactly
        assert abs(pas.E - exact) < 1e-10

    def test_phase_offset_partially_corrected(self):
        bias = BiasModel(scale=0.95, phase_offset=0.02)
        exact = two_site_energy(1.0, 1.0, 4.0)
        raw = two_site_energy_from_primitives(1.0, 1.0, 4.0, bias=bias)
        pas = two_site_energy_from_primitives(1.0, 1.0, 4.0, bias=bias, mitigate=True)
        assert abs(pas.E - exact) * 5 < abs(raw.E - exact)

    def test_mitigation_under_no_bias_is_exact(self):
        est = two_site_energy_from_primitives(0.9, 1.0, 3.0, mitigate=True)
        assert abs(est.E - two_site_energy(0.9, 1.0, 3.0)) < 1e-10

    def test_raw_primitives_tracked_separately(self):
        bias = BiasModel(scale=0.9)
        pas = two_site_energy_from_primitives(0.7, 1.0, 4.0, bias=bias, mitigate=True)
        raw = two_site_energy_from_primitives(0.7, 1.0, 4.0, bias=bias, mitigate=False)
        # corrected output close to ideal, raw assembly still biased
        assert abs(pas.primitives.denominator - np.cosh(0.7)) < 1e-3
        assert abs(raw.primitives.denominator - np.cosh(0.7)) > 0.05


def scalar_shot_estimate(value, shots, rng):
    """Both parts of one value, one scalar binomial draw per part, real first."""
    out = []
    for part in (value.real, value.imag):
        p0 = min(max((1.0 + part) / 2.0, 0.0), 1.0)
        out.append(2.0 * int(rng.binomial(shots, p0)) / shots - 1.0)
    return out


class TestShotRule:
    VALUES = [1.0, -1.0, 1j, -1j, 0.3 - 0.4j, -0.999 + 0.001j, 0.5j, 0.0,
              1e-17 - 1.0j, np.exp(0.7j), -0.25]

    @pytest.mark.parametrize("shots", [1, 64, 8192])
    def test_one_draw_matches_scalar_draws(self, shots):
        values = [complex(v) for v in self.VALUES] * 3
        est = _shot_estimates(values, shots, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        ref = [scalar_shot_estimate(v, shots, rng) for v in values]
        assert est.tolist() == ref

    def test_rejects_no_shots(self):
        with pytest.raises(ValueError, match="shots"):
            _shot_estimates([0.5 + 0j], 0, np.random.default_rng(0))


def _per_rep_primitive(family, s2, s1, trial, params, bias, shots, rng):
    """One primitive recomputed from scratch, as every repetition once did."""
    eff = params
    if bias is not None and bias.phase_offset != 0.0:
        eff = HSParams(params.alpha + bias.phase_offset, params.gamma)
    op, depth, quadrature = _FAMILIES[family]
    value = hadamard_exact(s2, op, s1, trial, eff)
    if bias is not None:
        value *= bias.scale ** depth
    real = quadrature == "real"
    if shots is None:
        return complex(value.real) if real else 1j * value.imag
    real_part, imag_part = scalar_shot_estimate(value, shots, rng)
    return real_part if real else 1j * imag_part


def per_rep_reference(g, J, U, shots, reps, bias, rng, mitigate):
    """Reference assembly that re-evaluates every exact primitive and anchor
    inside every repetition, drawing shots family-major in config order."""
    params, trial, configs = hs_params(g), two_site_sector_trial(), _all_config_pairs()

    def families(p, b, n_shots, r):
        return {f: np.array([_per_rep_primitive(f, s2, s1, trial, p, b, n_shots, r)
                             for (s1, s2) in configs]) for f in _FAMILIES}

    e_r, k_r, ud_r, reported = [], [], [], []
    for _ in range(reps):
        values = families(params, bias, shots, rng)
        if mitigate:
            factors = {}
            for f in ("II", "XX"):
                raws = [_per_rep_primitive(f, s2, s1, trial, hs_params(0.0), bias, shots, rng)
                        for (s1, s2) in configs]
                factors[f] = float(np.mean([r.real for r in raws]))
            ratios = []
            for s1, s2 in configs:
                ideal = hadamard_exact(s2, _FAMILIES["ZI"].operator, s1, trial, hs_params(10.0))
                if abs(ideal) > 0.2:
                    raw = _per_rep_primitive("ZI", s2, s1, trial, hs_params(10.0), bias,
                                             shots, rng)
                    ratios.append((raw / ideal).real)
            factors["ZI"] = float(np.mean(ratios))
            values = {f: pas_correct(v, factors[f]) for f, v in values.items()}
        prim = _assemble(values, params)
        reported.append(prim)
        e, k, ud = _energy_parts(prim, J, U)
        e_r.append(e), k_r.append(k), ud_r.append(ud)

    def mean_prim(prims):
        return AssembledPrimitives(
            *(float(np.mean([getattr(p, name) for p in prims]))
              for name in ("denominator", "zz_numerator", "xx_numerator"))
        )

    def spread(x):
        return float(np.std(x, ddof=1) / np.sqrt(reps))

    return TwoSiteEstimate(
        float(np.mean(e_r)), float(np.mean(k_r)), float(np.mean(ud_r)),
        spread(e_r), spread(k_r), spread(ud_r), mean_prim(reported),
    )


class TestHoistedPrimitives:
    @pytest.mark.parametrize("mitigate", [False, True])
    @pytest.mark.parametrize("g", [0.5, 1.3])
    def test_same_stream_as_per_rep_recompute(self, g, mitigate):
        bias = BiasModel(0.9, 0.05)
        est = two_site_energy_from_primitives(
            g, 1.0, 2.0, shots=1024, reps=4, bias=bias,
            rng=np.random.default_rng(31), mitigate=mitigate,
        )
        ref = per_rep_reference(g, 1.0, 2.0, 1024, 4, bias, np.random.default_rng(31), mitigate)
        assert est == ref

    def test_more_reps_than_one_summation_block(self):
        # from eight repetitions on, np.mean sums in eight interleaved partial
        # sums, not left to right
        est = two_site_energy_from_primitives(
            0.9, 1.0, 3.0, shots=64, reps=19, rng=np.random.default_rng(8), mitigate=True,
        )
        ref = per_rep_reference(0.9, 1.0, 3.0, 64, 19, None, np.random.default_rng(8), True)
        assert est == ref
