"""Importance sampling over auxiliary fields: weights, chains, estimators.

The statevector backend serves as the oracle for the determinant
backend throughout.  Both consume the identical random stream, so full
runs — not just per-config values — must coincide.
"""
from __future__ import annotations

import numpy as np
import pytest

from gutzmc.gutzwiller import field_rotation_circuit, full_sum_expectation, hs_params
from gutzmc.lattice import QubitLayout, build_lattice, hubbard_terms
from gutzmc.pauli import apply_pauli_sum
from gutzmc.sampler import (
    _ANCHOR_STACK,
    ChainState,
    McParams,
    PhaseProblemError,
    local_estimator,
    make_chain,
    metropolis_sweep,
    phase_problem_check,
    results_from_samples,
    run_mc,
    sample_kinetic_interaction,
    weight_numerator,
)
from gutzmc.slater import (
    TrialState,
    dressed_green_function,
    ground_state_of_K,
    half_filled_trial,
    slater_to_statevector,
)
from gutzmc.statevector import StateVector, apply_circuit


def all_configs(n_sites: int):
    """All 2^(2N) field configurations as (N, 2) arrays of ±1."""
    for bits in range(4**n_sites):
        flat = np.array([1 if (bits >> k) & 1 else -1 for k in range(2 * n_sites)])
        yield flat.reshape(n_sites, 2)


def agree(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def circuit_route(config, trial, params, J=1.0):
    """W, K and D of one configuration by dressing circuits on the full register.

    The reference for the statevector backend: the ket dressing circuit
    acts on the trial register, the Pauli form of the observable follows,
    then the bra dressing circuit, and the inner product with the trial.
    """
    layout = QubitLayout(trial.lattice.n_sites)
    psi = slater_to_statevector(trial.up, trial.down, layout)
    ket = apply_circuit(psi.copy(), field_rotation_circuit(config, 1, params, layout))
    bra_circuit = field_rotation_circuit(config, 2, params, layout)

    def bra_side(amps):
        return psi.inner(apply_circuit(StateVector(ket.n_qubits, amps), bra_circuit))

    w = bra_side(ket.amplitudes.copy())
    kinetic_op, interaction_op = hubbard_terms(trial.lattice, J, 1.0)
    k = bra_side(apply_pauli_sum(ket.amplitudes, kinetic_op)) / w
    d = bra_side(apply_pauli_sum(ket.amplitudes, interaction_op)) / w
    return w, k, d


def statevector_route(config, trial, params, J=1.0):
    """W, K and D of one configuration from the statevector backend."""
    return (
        weight_numerator(config, trial, params, backend="statevector"),
        local_estimator(config, "kinetic", trial, params, "statevector", J),
        local_estimator(config, "interaction", trial, params, "statevector", J),
    )


class TestWeights:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_backends_agree_exhaustively(self, n):
        lat = build_lattice("chain", n)
        trial = half_filled_trial(lat)
        params = hs_params(0.8)
        for config in all_configs(n):
            w_det = weight_numerator(config, trial, params)
            w_sv = weight_numerator(config, trial, params, backend="statevector")
            assert agree(w_det, w_sv, 1e-10)
            assert agree(w_sv, circuit_route(config, trial, params)[0], 1e-12)

    def test_random_configs_at_six_sites(self):
        lat = build_lattice("chain", 6)
        trial = half_filled_trial(lat)
        params = hs_params(0.6)
        rng = np.random.default_rng(21)
        for _ in range(100):
            config = rng.choice([-1, 1], size=(6, 2))
            w_det = weight_numerator(config, trial, params)
            w_sv = weight_numerator(config, trial, params, backend="statevector")
            assert agree(w_det, w_sv, 1e-10)
            assert agree(w_sv, circuit_route(config, trial, params)[0], 1e-12)

    def test_reference_configuration_has_unit_weight(self):
        # all fields +1: the dressing is e^{i*alpha*(n_up+n_dn-1)} twice,
        # and at half filling the particle-number phases cancel exactly
        for kind, n in [("chain", 4), ("chain", 5), ("ladder", 8)]:
            lat = build_lattice(kind, n)
            trial = half_filled_trial(lat)
            w = weight_numerator(np.ones((n, 2), dtype=int), trial, hs_params(1.1))
            assert abs(w - 1.0) < 1e-10

    def test_weight_depends_only_on_field_sums(self):
        lat = build_lattice("chain", 4)
        trial = half_filled_trial(lat)
        params = hs_params(0.9)
        rng = np.random.default_rng(5)
        for _ in range(10):
            config = rng.choice([-1, 1], size=(4, 2))
            swapped = config[:, ::-1].copy()
            w1 = weight_numerator(config, trial, params)
            w2 = weight_numerator(swapped, trial, params)
            assert abs(w1 - w2) < 1e-12

    def test_malformed_config_rejected(self):
        lat = build_lattice("chain", 2)
        trial = half_filled_trial(lat)
        with pytest.raises(ValueError):
            weight_numerator(np.ones((3, 2), dtype=int), trial, hs_params(0.5))
        with pytest.raises(ValueError):
            weight_numerator(np.full((2, 2), 2), trial, hs_params(0.5))


class TestLocalEstimators:
    def test_backends_agree_exhaustively_chain4(self):
        # g = 0.5 keeps the least-weighted config at |W| ~ 2e-3, far from
        # singular, so the ratio estimators carry full precision; near a
        # singular config (e.g. g = 0.7 here) NO method can hold 1e-10
        lat = build_lattice("chain", 4)
        trial = half_filled_trial(lat)
        params = hs_params(0.5)
        for config in all_configs(4):
            for obs in ("kinetic", "interaction"):
                e_det = local_estimator(config, obs, trial, params, J=1.0)
                e_sv = local_estimator(
                    config, obs, trial, params, backend="statevector", J=1.0
                )
                assert agree(e_det, e_sv, 1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_statevector_matches_dressing_circuits(self, n):
        # every config up to four sites, 60 random ones at six; g = 0.5
        # keeps them far from singular, as in the chain:4 test above
        trial = half_filled_trial(build_lattice("chain", n))
        params = hs_params(0.5)
        configs = list(all_configs(n)) if n <= 4 else (
            np.random.default_rng(6).choice([-1, 1], size=(60, n, 2)))
        for config in configs:
            got = statevector_route(config, trial, params, J=1.3)
            for a, b in zip(got, circuit_route(config, trial, params, J=1.3)):
                assert agree(a, b, 1e-12)

    def test_one_config_reach_at_nine_sites(self):
        # chains stop at 8 sites on this backend; one configuration does not
        trial = half_filled_trial(build_lattice("chain", 9))
        params = hs_params(0.6)
        config = np.random.default_rng(9).choice([-1, 1], size=(9, 2))
        w, k, d = statevector_route(config, trial, params)
        assert agree(w, weight_numerator(config, trial, params), 1e-12)
        assert agree(k, local_estimator(config, "kinetic", trial, params), 1e-12)
        assert agree(d, local_estimator(config, "interaction", trial, params), 1e-12)
        with pytest.raises(ValueError, match="at most 8 sites"):
            make_chain(trial, params, "statevector")

    def test_reference_config_reproduces_trial_averages(self):
        # at the all-(+1) configuration both dressings are the same pure
        # phase, so local estimators reduce to bare trial expectations
        lat = build_lattice("chain", 4)
        layout = QubitLayout(4)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        kin, inter = hubbard_terms(lat, 1.0, 1.0)
        from gutzmc.statevector import expectation

        config = np.ones((4, 2), dtype=int)
        k_loc = local_estimator(config, "kinetic", trial, hs_params(0.8), J=1.0)
        d_loc = local_estimator(config, "interaction", trial, hs_params(0.8), J=1.0)
        assert abs(k_loc - expectation(sv, kin).real) < 1e-10
        assert abs(d_loc - expectation(sv, inter).real) < 1e-10

    def test_odd_chain_uses_both_sectors(self):
        lat = build_lattice("chain", 3)
        trial = half_filled_trial(lat)
        params = hs_params(0.5)
        rng = np.random.default_rng(4)
        for _ in range(10):
            config = rng.choice([-1, 1], size=(3, 2))
            e_det = local_estimator(config, "kinetic", trial, params, J=1.0)
            e_sv = local_estimator(config, "kinetic", trial, params, backend="statevector", J=1.0)
            assert agree(e_det, e_sv, 1e-10)

    @pytest.mark.parametrize("backend", ["determinant", "statevector"])
    def test_only_named_observables(self, backend):
        lat = build_lattice("chain", 2)
        trial = half_filled_trial(lat)
        config = np.ones((2, 2), dtype=int)
        kinetic_op, _ = hubbard_terms(lat, 1.0, 1.0)
        for observable in ("spin", kinetic_op):
            with pytest.raises(ValueError, match="unknown observable"):
                local_estimator(config, observable, trial, hs_params(0.5), backend)


class TestChain:
    def test_stationary_distribution_two_sites(self):
        # exhaustive target: probabilities proportional to Re W over the
        # 16 configs; compare against a long chain's visit frequencies
        lat = build_lattice("chain", 2)
        trial = half_filled_trial(lat)
        params = hs_params(0.9)
        weights = {}
        for config in all_configs(2):
            weights[tuple(config.ravel())] = weight_numerator(config, trial, params).real
        total = sum(weights.values())

        rng = np.random.default_rng(33)
        chain = make_chain(trial, params)
        for _ in range(200):
            metropolis_sweep(chain, trial, params, rng)
        counts = {key: 0 for key in weights}
        n_sweeps = 40000
        for _ in range(n_sweeps):
            metropolis_sweep(chain, trial, params, rng)
            counts[tuple(chain.config.ravel())] += 1
        for key, w in weights.items():
            p = w / total
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / n_sweeps)
            # correlated samples: allow a generous multiple of the iid error
            assert abs(counts[key] / n_sweeps - p) < 12 * sigma + 2e-3

    def test_weight_anchor_drift_stays_tiny(self):
        lat = build_lattice("chain", 6)
        trial = half_filled_trial(lat)
        params = hs_params(1.0)
        rng = np.random.default_rng(8)
        chain = make_chain(trial, params)
        for _ in range(300):
            metropolis_sweep(chain, trial, params, rng)
        assert chain.max_drift < 1e-8

    @pytest.mark.parametrize("n", [10, 12])
    def test_fast_update_drift_stays_tiny(self, n):
        # the engine carries P = phi G^-1 phi^H through rank-one updates
        # between the stacked rebuilds
        lat = build_lattice("chain", n)
        trial = half_filled_trial(lat)
        params = hs_params(1.0)
        rng = np.random.default_rng(8)
        chain = make_chain(trial, params)
        for _ in range(300):
            metropolis_sweep(chain, trial, params, rng)
        assert chain.max_drift < 1e-8

    def test_drift_gate_is_not_vacuous(self):
        # the chain runs on its tracked weight between stacked rebuilds, so
        # a working run shows roundoff drift: zero would mean no check ran
        lat = build_lattice("chain", 10)
        mcp = McParams(n_sweeps=200, n_burnin=100, rng_seed=8, n_bins=10)
        samples = sample_kinetic_interaction(lat, 1.0, 1.0, mcp)
        assert 0.0 < samples.max_drift < 1e-8

    def test_samples_report_max_drift(self):
        lat = build_lattice("chain", 8)
        mcp = McParams(n_sweeps=100, n_burnin=20, rng_seed=4, n_bins=10)
        samples = sample_kinetic_interaction(lat, 1.0, 0.8, mcp)
        assert 0.0 <= samples.max_drift < 1e-8
        again = sample_kinetic_interaction(lat, 1.0, 0.8, mcp)
        assert again.max_drift == samples.max_drift

    def test_backends_produce_identical_runs(self):
        lat = build_lattice("chain", 4)
        mcp_det = McParams(n_sweeps=400, rng_seed=13, n_bins=10)
        mcp_sv = McParams(n_sweeps=400, rng_seed=13, n_bins=10, backend="statevector")
        s_det = sample_kinetic_interaction(lat, 1.0, 0.7, mcp_det)
        s_sv = sample_kinetic_interaction(lat, 1.0, 0.7, mcp_sv)
        np.testing.assert_allclose(s_det.k_bins, s_sv.k_bins, atol=1e-10)
        np.testing.assert_allclose(s_det.d_bins, s_sv.d_bins, atol=1e-10)
        assert s_det.acceptance_rate == s_sv.acceptance_rate

    def test_same_seed_reproduces(self):
        lat = build_lattice("chain", 4)
        mcp = McParams(n_sweeps=200, rng_seed=99, n_bins=10)
        a = sample_kinetic_interaction(lat, 1.0, 0.5, mcp)
        b = sample_kinetic_interaction(lat, 1.0, 0.5, mcp)
        np.testing.assert_array_equal(a.k_bins, b.k_bins)
        np.testing.assert_array_equal(a.d_bins, b.d_bins)

    def test_estimates_match_oracle_within_errors(self):
        lat = build_lattice("chain", 4)
        layout = QubitLayout(4)
        kin, inter = hubbard_terms(lat, 1.0, 1.0)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, layout)
        g, u = 0.6, 3.0
        k_ref = full_sum_expectation(kin, g, sv, layout)
        d_ref = full_sum_expectation(inter, g, sv, layout)
        mcp = McParams(n_sweeps=8000, rng_seed=3, n_bins=20)
        energy, kinetic, interaction = run_mc(lat, 1.0, u, g, mcp)
        assert abs(kinetic.mean - k_ref) < 4 * kinetic.stderr
        assert abs(interaction.mean - u * d_ref) < 4 * interaction.stderr
        assert abs(energy.mean - (k_ref + u * d_ref)) < 4 * energy.stderr

    def test_energy_combined_per_bin(self):
        lat = build_lattice("chain", 2)
        mcp = McParams(n_sweeps=400, rng_seed=1, n_bins=10)
        samples = sample_kinetic_interaction(lat, 1.0, 0.9, mcp)
        energy, kinetic, interaction = results_from_samples(samples, 2.0)
        assert abs(energy.mean - (kinetic.mean + interaction.mean)) < 1e-12
        # errors are NOT additive: the combined estimator sees correlations
        assert energy.stderr <= kinetic.stderr + interaction.stderr + 1e-12


class TestFastUpdate:
    """The determinant engine's fast updates against from-scratch routes."""

    @staticmethod
    def visit(engine, config, site, copies, trial, params, w_old):
        """Propose and commit flips of the given copies at one site, as a
        sweep does, checking every ratio; settle the site's net change."""
        start = int(config[site].sum())
        for copy in copies:
            new = config.copy()
            new[site, copy] = -new[site, copy]
            ratio = engine.proposal_ratio(site, int(new[site].sum()))
            w_new = weight_numerator(new, trial, params)
            assert agree(ratio, w_new / w_old, 1e-10)
            engine.commit()
            config, w_old = new, w_new
        if int(config[site].sum()) != start:
            engine.settle(site, start)
        return config, w_old

    @pytest.mark.parametrize("kind,n", [("chain", 8), ("ladder", 8), ("chain", 12), ("chain", 9)])
    def test_ratios_and_greens_follow_accepted_flips(self, kind, n):
        lat = build_lattice(kind, n)
        trial = half_filled_trial(lat)
        assert trial.spin_symmetric == (n % 2 == 0)
        params = hs_params(0.6)
        engine = make_chain(trial, params).engine
        config = np.ones((n, 2), dtype=np.int64)
        rng = np.random.default_rng(n)
        w_old = weight_numerator(config, trial, params)
        pairs = {"net change": 0, "net zero": 0}
        for _ in range(4 * n):
            site = int(rng.integers(n))
            copies = [(0,), (1,), (0, 1)][int(rng.integers(3))]
            if len(copies) == 2:
                pairs["net change" if config[site, 0] == config[site, 1] else "net zero"] += 1
            config, w_old = self.visit(engine, config, site, copies, trial, params, w_old)
        # a same-site pair of each kind at every site: equal fields end at
        # the opposite total, unequal fields end where they started
        for site in range(n):
            config, w_old = self.visit(engine, config, site, (0, 1), trial, params, w_old)
            config, w_old = self.visit(engine, config, site, (0,), trial, params, w_old)
            config, w_old = self.visit(engine, config, site, (1, 0), trial, params, w_old)
        assert pairs["net change"] > 0 and pairs["net zero"] > 0
        ket = np.exp(1j * params.alpha * config[:, 0])
        bra = np.exp(1j * params.alpha * config[:, 1])
        for p, sector in zip(engine.projectors, [trial.up, trial.down]):
            exact = dressed_green_function(sector, config[:, 1], config[:, 0], params.alpha)
            np.testing.assert_allclose(ket[:, None] * p * bra[None, :], exact, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kind,n", [("chain", 8), ("chain", 9), ("ladder", 8)])
    def test_stacked_rebuild_and_measurement(self, kind, n):
        lat = build_lattice(kind, n)
        trial = half_filled_trial(lat)
        params = hs_params(0.5)
        engine = make_chain(trial, params).engine
        configs = np.random.default_rng(3 * n).choice([-1, 1], size=(12, n, 2))
        weights = engine.anchor(configs)
        kinetic, docc = engine.measure(1.0)
        for config, w, k, d in zip(configs, weights, kinetic, docc):
            assert agree(w, weight_numerator(config, trial, params), 1e-12)
            assert agree(k, local_estimator(config, "kinetic", trial, params).real, 1e-12)
            assert agree(d, local_estimator(config, "interaction", trial, params).real, 1e-12)
        # the engine re-anchors on the stack's last configuration
        last = configs[-1]
        ratio = engine.proposal_ratio(0, int(last[0].sum()) - 2 * int(last[0, 0]))
        flipped = last.copy()
        flipped[0, 0] = -flipped[0, 0]
        assert agree(ratio, weight_numerator(flipped, trial, params) / weights[-1], 1e-10)


class TestParams:
    def test_bin_divisibility_enforced(self):
        with pytest.raises(ValueError):
            McParams(n_sweeps=1000, n_bins=7)
        with pytest.raises(ValueError):
            McParams(n_sweeps=100, n_bins=5)  # fewer than 10 bins

    def test_fewer_sweeps_than_bins_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            McParams(n_sweeps=0, n_bins=10)

    def test_negative_burnin_rejected(self):
        with pytest.raises(ValueError, match="n_burnin"):
            McParams(n_sweeps=100, n_bins=10, n_burnin=-5)
        assert McParams(n_sweeps=100, n_bins=10, n_burnin=0).burnin == 0

    def test_burnin_default(self):
        assert McParams(n_sweeps=20000, n_bins=20).burnin == 2000
        assert McParams(n_sweeps=2000, n_bins=20).burnin == 500
        assert McParams(n_sweeps=2000, n_bins=20, n_burnin=7).burnin == 7


class TestPhaseCheck:
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    def test_half_filling_is_sign_free(self, n, g):
        report = phase_problem_check(build_lattice("chain", n), g)
        assert report.n_configs == 4**n
        assert report.max_imag < 1e-10
        assert report.min_real >= -1e-12
        assert report.passed

    def test_doped_trial_is_flagged(self):
        lat = build_lattice("chain", 4)
        quarter = ground_state_of_K(lat, 1)
        doped = TrialState(lat, quarter, quarter)
        report = phase_problem_check(lat, 1.0, trial=doped)
        assert not report.passed
        assert report.max_imag > 1e-3 or report.min_real < -1e-3

    def test_doped_chain_raises_during_sampling(self):
        lat = build_lattice("chain", 4)
        quarter = ground_state_of_K(lat, 2)
        doped = TrialState(lat, quarter, ground_state_of_K(lat, 1))
        params = hs_params(1.0)
        rng = np.random.default_rng(0)
        with pytest.raises(PhaseProblemError):
            chain = make_chain(doped, params)
            for _ in range(50):
                metropolis_sweep(chain, doped, params, rng)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            phase_problem_check(build_lattice("chain", 6), 0.5)

    class Scripted:
        """Weight engine that returns scripted proposal ratios."""

        def __init__(self, ratios):
            self.ratios = iter(ratios)

        def proposal_ratio(self, site, new_total):
            return next(self.ratios)

        def commit(self):
            pass

        def settle(self, site, old_total):
            pass

        def anchor(self, configs):
            return np.ones(len(configs), dtype=complex)

    class AcceptAll:
        def random(self, n):
            return np.zeros(n)

    def sweep(self, weight, ratios):
        chain = ChainState(np.ones((2, 2), dtype=np.int64), weight, self.Scripted(ratios))
        return metropolis_sweep(chain, None, None, self.AcceptAll())

    def test_guard_judges_against_the_current_weight(self):
        # The chain climbs to weight 1e6 and falls back to 1; a proposal
        # 1e-6 off the real axis from there is a phase problem, however
        # large the weights visited before.
        with pytest.raises(PhaseProblemError, match="scale 1.000e"):
            self.sweep(1.0 + 0.0j, [1e6, 1e-6, 1.0 + 1e-6j, 1.0])

    def test_drift_is_checked_at_every_stacked_sweep(self):
        # The tracked weight is off by 1e-3 after one mid-stack sweep and
        # back on by the end of the stack; the stacked rebuild compares
        # every sweep's weight, so the gap still shows in max_drift.
        ratios = [1.0] * (4 * _ANCHOR_STACK)
        ratios[4 * 10 + 3], ratios[4 * 11] = 1.001, 1 / 1.001
        chain = ChainState(np.ones((2, 2), dtype=np.int64), 1.0 + 0.0j, self.Scripted(ratios))
        for _ in range(_ANCHOR_STACK):
            metropolis_sweep(chain, None, None, self.AcceptAll())
        assert not chain.pending
        assert abs(chain.weight - 1.0) < 1e-15
        assert chain.max_drift == pytest.approx(1e-3, rel=1e-6)

    def test_guard_scales_with_a_large_current_weight(self):
        # the same imaginary part is roundoff next to a current weight of 1e6,
        # also when the proposal itself lands at weight 1
        _, accepted = self.sweep(1e6 + 0.0j, [1.0 + 1e-12j, 1.0, 1.0, 1e-6 + 1e-12j])
        assert accepted == 4
