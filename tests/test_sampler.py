"""Importance sampling over auxiliary fields: weights, chains, estimators.

The statevector backend serves as the oracle for the determinant
backend throughout.  Both consume the identical random stream, so full
runs — not just per-config values — must coincide.
"""
from __future__ import annotations

import numpy as np
import pytest

from gutzmc.gutzwiller import full_sum_expectation, hs_params
from gutzmc.lattice import QubitLayout, build_lattice, hubbard_terms
from gutzmc.sampler import (
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


def all_configs(n_sites: int):
    """All 2^(2N) field configurations as (N, 2) arrays of ±1."""
    for bits in range(4**n_sites):
        flat = np.array([1 if (bits >> k) & 1 else -1 for k in range(2 * n_sites)])
        yield flat.reshape(n_sites, 2)


def agree(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestWeights:
    @pytest.mark.parametrize("n", [2, 3])
    def test_backends_agree_exhaustively(self, n):
        lat = build_lattice("chain", n)
        trial = half_filled_trial(lat)
        params = hs_params(0.8)
        for config in all_configs(n):
            w_det = weight_numerator(config, trial, params)
            w_sv = weight_numerator(config, trial, params, backend="statevector")
            assert agree(w_det, w_sv, 1e-10)

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
        # above six sites the engine carries P = phi G^-1 phi^H through
        # Sherman-Morrison commits between the per-sweep rebuilds
        lat = build_lattice("chain", n)
        trial = half_filled_trial(lat)
        params = hs_params(1.0)
        rng = np.random.default_rng(8)
        chain = make_chain(trial, params)
        for _ in range(300):
            metropolis_sweep(chain, trial, params, rng)
        assert chain.max_drift < 1e-8

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
    """The determinant engine's rank-one updates against from-scratch routes."""

    @pytest.mark.parametrize("kind,n", [("chain", 8), ("ladder", 8), ("chain", 12), ("chain", 9)])
    def test_ratios_and_greens_follow_accepted_flips(self, kind, n):
        lat = build_lattice(kind, n)
        trial = half_filled_trial(lat)
        assert trial.spin_symmetric == (n % 2 == 0)
        params = hs_params(0.6)
        chain = make_chain(trial, params)
        engine = chain.engine
        config = chain.config.copy()
        rng = np.random.default_rng(n)
        w_old = weight_numerator(config, trial, params)
        for _ in range(4 * n):
            site, copy = int(rng.integers(n)), int(rng.integers(2))
            new = config.copy()
            new[site, copy] = -new[site, copy]
            ratio = engine.proposal_ratio(site, int(new[site].sum()))
            w_new = weight_numerator(new, trial, params)
            assert agree(ratio, w_new / w_old, 1e-10)
            engine.commit()
            config, w_old = new, w_new
        greens = engine.green_functions(config)
        sectors = [trial.up, trial.down]
        for green, sector in zip(greens, sectors):
            exact = dressed_green_function(sector, config[:, 1], config[:, 0], params.alpha)
            np.testing.assert_allclose(green, exact, rtol=0, atol=1e-10)


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

        def reset(self, total):
            return 1.0 + 0.0j

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

    def test_guard_scales_with_a_large_current_weight(self):
        # the same imaginary part is roundoff next to a current weight of 1e6,
        # also when the proposal itself lands at weight 1
        _, accepted = self.sweep(1e6 + 0.0j, [1.0 + 1e-12j, 1.0, 1.0, 1e-6 + 1e-12j])
        assert accepted == 4
