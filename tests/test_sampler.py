"""Importance sampling over auxiliary fields: weights, chains, estimators.

The statevector backend serves as the oracle for the determinant
backend throughout.  Both consume the identical random stream, so full
runs — not just per-config values — must coincide.
"""
from __future__ import annotations

import numpy as np
import pytest

from gutzmc.gutzwiller import full_sum_expectation, hs_params
from gutzmc.lattice import QubitLayout, build_lattice, hopping_matrix, hubbard_terms
from gutzmc import sampler
from gutzmc.pauli import apply_pauli_sum
from gutzmc.sampler import (
    _ANCHOR_STACK,
    BACKENDS,
    ChainState,
    McParams,
    PhaseProblemError,
    SingularOverlapError,
    _check_weight,
    _DeterminantEngine,
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
    ground_state_of_K,
    half_filled_trial,
    slater_to_statevector,
)
from gutzmc.statevector import StateVector, apply_circuit, rz
from registers import full_register


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
    n = layout.n_register
    psi = full_register(slater_to_statevector(trial.up, trial.down, layout))

    def dressing(fields):
        # R_Z(s_i*alpha) on both spin qubits of site i
        return [rz(float(s) * params.alpha, layout.qubit(site, spin))
                for site, s in enumerate(fields) for spin in ("up", "down")]

    ket = apply_circuit(StateVector(n, psi.copy()), dressing(config[:, 0]))
    bra_circuit = dressing(config[:, 1])

    def bra_side(amps):
        bra = apply_circuit(StateVector(n, amps), bra_circuit)
        return np.vdot(psi, bra.amplitudes)

    w = bra_side(ket.amplitudes.copy())
    kinetic_op, interaction_op = hubbard_terms(trial.lattice, J, 1.0)
    k = bra_side(apply_pauli_sum(ket.amplitudes, kinetic_op)) / w
    d = bra_side(apply_pauli_sum(ket.amplitudes, interaction_op)) / w
    return w, k, d


def dressed_green_function(slater, bra_fields, ket_fields, alpha):
    """Green matrix M[j, i] = <phi| u(bra) c†_i c_j u(ket) |phi> / <phi| u(bra) u(ket) |phi>.

    With B = diag(e^{i*alpha*ket}) phi and A = diag(e^{-i*alpha*bra}) phi
    (the bra copy enters undaggered, hence the sign flip), the matrix is
    M = B (A^† B)^{-1} A^†.
    """
    b_mat = np.exp(1j * alpha * ket_fields)[:, None] * slater.phi
    a_mat = np.exp(-1j * alpha * bra_fields)[:, None] * slater.phi
    return b_mat @ np.linalg.solve(a_mat.conj().T @ b_mat, a_mat.conj().T)


def green_route(config, trial, params, J=1.0):
    """W, K and D of one configuration from per-sector overlaps and Green matrices.

    The reference for the determinant engine: W multiplies the sectors'
    e^{-i*alpha*sum(t)/2} det(A^† B), K is tr(T·M) summed over both
    spins and D is sum_i (M_up[i,i] - 1/2)(M_dn[i,i] - 1/2).
    """
    alpha, total = params.alpha, config.sum(axis=1)
    w, greens = 1.0, []
    for slater in (trial.up, trial.down):
        gram = slater.phi.conj().T @ (np.exp(1j * alpha * total)[:, None] * slater.phi)
        w *= np.exp(-0.5j * alpha * total.sum()) * np.linalg.det(gram)
        greens.append(dressed_green_function(slater, config[:, 1], config[:, 0], alpha))
    k = sum(np.sum(hopping_matrix(trial.lattice, J) * m.T) for m in greens)
    d = np.sum((np.diagonal(greens[0]) - 0.5) * (np.diagonal(greens[1]) - 0.5))
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
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_stationary_distribution(self, n, backend):
        # exhaustive target: probabilities proportional to Re W over the
        # 4^N configs; compare against a long chain's visit frequencies.
        # chain:3 carries both spin sectors.
        lat = build_lattice("chain", n)
        trial = half_filled_trial(lat)
        params = hs_params(0.9)
        weights = {}
        for config in all_configs(n):
            weights[tuple(config.ravel())] = weight_numerator(config, trial, params, backend).real
        total = sum(weights.values())

        rng = np.random.default_rng(33)
        chain = make_chain(trial, params, backend)
        for _ in range(200):
            metropolis_sweep(chain, trial, params, rng)
        counts = {key: 0 for key in weights}
        n_sweeps = 40000
        for _ in range(n_sweeps):
            metropolis_sweep(chain, trial, params, rng)
            counts[tuple(np.ravel(chain.config))] += 1
        for key, w in weights.items():
            p = w / total
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / n_sweeps)
            # correlated samples: allow a generous multiple of the iid error
            assert abs(counts[key] / n_sweeps - p) < 12 * sigma + 2e-3

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [4, 5])
    def test_chains_can_share_one_engine(self, n, backend):
        # the engine holds no chain state: two chains stepped in alternation
        # on one engine run exactly as on an engine each
        trial = half_filled_trial(build_lattice("chain", n))
        params = hs_params(0.8)

        def run(shared):
            chains = [make_chain(trial, params, backend) for _ in range(2)]
            if shared:
                chains[1].engine = chains[0].engine
            rngs = [np.random.default_rng(seed) for seed in (5, 6)]
            accepted = [0, 0]
            for chain in chains:
                chain.J = 1.0
            for _ in range(2 * _ANCHOR_STACK + 20):
                for index, (chain, rng) in enumerate(zip(chains, rngs)):
                    accepted[index] += metropolis_sweep(chain, trial, params, rng)[1]
            for chain in chains:
                sampler._anchor(chain)
            return [(np.concatenate(c.measured, axis=1), a, c.max_drift, c.weight)
                    for c, a in zip(chains, accepted)]

        for alone, shared in zip(run(False), run(True)):
            np.testing.assert_array_equal(alone[0], shared[0])
            assert alone[1:] == shared[1:]
            assert alone[0].shape == (2, 2 * _ANCHOR_STACK + 20)

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

    @pytest.mark.parametrize("n", [4, 5])
    def test_backends_produce_identical_runs(self, n):
        # chain:4 is spin-symmetric (one P); chain:5 carries both sectors
        lat = build_lattice("chain", n)
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


@pytest.fixture
def checked_weights(monkeypatch):
    """Every (proposed weight, current weight) pair the phase guard sees."""
    calls = []

    def record(w, current):
        calls.append((w, current))
        _check_weight(w, current)

    monkeypatch.setattr(sampler, "_check_weight", record)
    return calls


class TestFastUpdate:
    """The determinant engine's fast updates against from-scratch routes."""

    @pytest.mark.parametrize("kind,n", [("chain", 8), ("ladder", 8), ("chain", 12), ("chain", 9)])
    def test_ratios_and_greens_follow_accepted_flips(self, kind, n, checked_weights):
        lat = build_lattice(kind, n)
        trial = half_filled_trial(lat)
        assert trial.spin_symmetric == (n % 2 == 0)
        params = hs_params(0.6)
        engine = _DeterminantEngine(trial, params)
        config = np.random.default_rng(n).choice([-1, 1], size=(n, 2))
        # all-zero draws accept every positive ratio, so both copies flip at
        # every site: equal fields end at the opposite total (a net change,
        # one rank-one update), unequal fields where they started (net zero)
        equal = config[:, 0] == config[:, 1]
        assert equal.any() and not equal.all()
        weight = complex(engine.weights(config[None])[0])
        state = engine.start(config, weight)
        fields = config.tolist()
        weight, accepted = engine.sweep(state, fields, weight, [0.0] * (2 * n))
        assert accepted == 2 * n and len(checked_weights) == 2 * n
        # every proposal's weight, then the tracked weight, from scratch
        for index, (w_new, _) in enumerate(checked_weights):
            config[divmod(index, 2)] *= -1
            assert agree(w_new, weight_numerator(config, trial, params), 1e-10)
        assert np.array_equal(np.array(fields), config)
        assert agree(weight, weight_numerator(config, trial, params), 1e-10)
        ket = np.exp(1j * params.alpha * config[:, 0])
        bra = np.exp(1j * params.alpha * config[:, 1])
        _, projectors, diagonals = state
        for p, diag, sector in zip(projectors, diagonals, [trial.up, trial.down]):
            exact = dressed_green_function(sector, config[:, 1], config[:, 0], params.alpha)
            np.testing.assert_allclose(ket[:, None] * p * bra[None, :], exact, rtol=0, atol=1e-10)
            np.testing.assert_allclose(diag, np.diagonal(p), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kind,n", [("chain", 8), ("chain", 9), ("ladder", 8)])
    def test_stacked_rebuild_and_measurement(self, kind, n):
        lat = build_lattice(kind, n)
        trial = half_filled_trial(lat)
        params = hs_params(0.5)
        engine = make_chain(trial, params).engine
        configs = np.random.default_rng(3 * n).choice([-1, 1], size=(12, n, 2))
        weights, (kinetic, docc) = engine.estimators(configs, 1.3)
        np.testing.assert_array_equal(engine.weights(configs), weights)
        for config, *got in zip(configs, weights, kinetic, docc):
            for a, b in zip(got, green_route(config, trial, params, J=1.3)):
                assert agree(a, b, 1e-12)
        # a chain re-anchors by starting its state on the stack's last
        # configuration: a sweep from there accepting every flip tracks
        # that configuration's weight
        weight = complex(weights[-1])
        state = engine.start(configs[-1], weight)
        fields = configs[-1].tolist()
        weight, accepted = engine.sweep(state, fields, weight, [0.0] * (2 * n))
        assert accepted == 2 * n
        assert agree(weight, weight_numerator(-configs[-1], trial, params), 1e-10)


class TestStackBookkeeping:
    """The live nested-list configuration and the stacks built from it."""

    class Recording:
        """A real engine whose stacked rebuilds record the stacks they get."""

        def __init__(self, engine):
            self.engine, self.stacks = engine, []

        def sweep(self, *args):
            return self.engine.sweep(*args)

        def start(self, config, weight):
            return self.engine.start(config, weight)

        def weights(self, configs):
            self.stacks.append(configs.copy())
            return self.engine.weights(configs)

        def estimators(self, configs, J):
            self.stacks.append(configs.copy())
            return self.engine.estimators(configs, J)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("J", [None, 1.0])
    def test_stacks_hold_every_sweeps_end_configuration(self, J, backend):
        # 137 sweeps: two full stacks, then a partial one for the closing rebuild
        trial = half_filled_trial(build_lattice("chain", 5))
        params = hs_params(0.8)
        chain = make_chain(trial, params, backend)
        chain.engine = engine = self.Recording(chain.engine)
        chain.J = J
        rng = np.random.default_rng(23)
        ends = []
        for _ in range(137):
            metropolis_sweep(chain, trial, params, rng)
            ends.append(np.array(chain.config))
            if chain.pending:
                assert chain.pending[-1][0] == list(np.ravel(chain.config))
            else:
                np.testing.assert_array_equal(engine.stacks[-1][-1], chain.config)
        sampler._anchor(chain)
        assert [len(stack) for stack in engine.stacks] == [50, 50, 37]
        for stack in engine.stacks:
            assert stack.dtype == np.int64 and stack.shape[1:] == (5, 2)
        np.testing.assert_array_equal(np.concatenate(engine.stacks), ends)
        assert len(chain.measured) == (0 if J is None else 3)


class TestOneExpressionPerEngine:
    """A chain's state holds, bit for bit, what the stacked rebuild derives."""

    @pytest.mark.parametrize("kind,n", [("chain", 4), ("chain", 5), ("ladder", 6)])
    def test_statevector_proposal_weights_are_the_stacked_weights(self, kind, n):
        # every proposal's from-scratch weight, accepted or not, is its
        # configuration's weight in a stack; the accepted one's is the state's
        trial = half_filled_trial(build_lattice(kind, n))
        params = hs_params(1.0)
        chain = make_chain(trial, params, "statevector")
        engine, proposed = chain.engine, []
        stacked = engine.weights

        def recording(configs):
            weight = stacked(configs)
            proposed.append((configs.astype(np.int64), weight))
            return weight

        engine.weights = recording
        rng, accepted = np.random.default_rng(n), 0
        for _ in range(_ANCHOR_STACK - 1):
            proposed.clear()
            accepted += metropolis_sweep(chain, trial, params, rng)[1]
            assert len(proposed) == 2 * n
            for config, weight in proposed:
                assert weight == stacked(config[None])[0]
            assert chain.state[1] == stacked(np.array(chain.config)[None])[0]
        assert accepted > 10 * n

    @pytest.mark.parametrize("kind,n", [("chain", 9), ("chain", 10), ("ladder", 8)])
    def test_determinant_restart_projectors_are_the_stacked_ones(self, kind, n):
        trial = half_filled_trial(build_lattice(kind, n))
        params = hs_params(1.0)
        engine = _DeterminantEngine(trial, params)
        configs = np.random.default_rng(n).choice([-1, 1], size=(_ANCHOR_STACK, n, 2))
        phases = np.exp(1j * params.alpha * configs.sum(axis=2))
        stacked = engine._projectors(engine._grams(phases))
        for b, config in enumerate(configs):
            _, restart, diagonals = engine.start(config, 1.0)
            assert len(restart) == len(stacked) == (1 if n % 2 == 0 else 2)
            for p, tracked, stack in zip(restart, diagonals, stacked):
                assert np.array_equal(p, stack[b])
                assert tracked == stack[b].diagonal().tolist()


class TestSingularGuard:
    """The engine's estimators refuse a stack with a singular sector Gram."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_flags_match_a_full_svd(self, n):
        # reference: an SVD of every sector Gram, singular where
        # sigma_min < 1e-12 * max(1, sigma_max); g = ln 2 (alpha = pi/4)
        # holds singular configurations at every size, 0.5 and 2.0 none.
        # local_estimator runs the engine on a stack of one.
        trial = half_filled_trial(build_lattice("chain", n))
        for g in (0.5, np.log(2), 2.0):
            params = hs_params(g)
            flagged, expected = [], []
            for index, config in enumerate(all_configs(n)):
                try:
                    local_estimator(config, "interaction", trial, params)
                except SingularOverlapError:
                    flagged.append(index)
                phases = np.exp(1j * params.alpha * config.sum(axis=1))
                for slater in (trial.up, trial.down):
                    sv = np.linalg.svd(slater.phi.conj().T @ (phases[:, None] * slater.phi),
                                       compute_uv=False)
                    if sv[-1] < 1e-12 * max(1.0, sv[0]):
                        expected.append(index)
                        break
            assert flagged == expected
            assert bool(flagged) == (g == np.log(2))

    def test_singular_configuration_in_a_stack_raises(self):
        # chain:2 at alpha = pi/4 with opposite site totals: the bonding
        # orbital's Gram is 6e-17.  The stack's weights are still given
        # (phase-check scans them), but its estimators are not.
        trial = half_filled_trial(build_lattice("chain", 2))
        engine = _DeterminantEngine(trial, hs_params(np.log(2)))
        stack = np.array([np.ones((2, 2)), [[1, 1], [-1, -1]], [[1, -1], [1, 1]]], dtype=np.int64)
        weights = engine.weights(stack)
        assert abs(weights[1]) < 1e-30 and abs(weights[0] - 1.0) < 1e-12
        with pytest.raises(SingularOverlapError):
            engine.estimators(stack, 1.0)


@pytest.mark.parametrize("call", [
    lambda trial, config, params: make_chain(trial, params, "bogus"),
    lambda trial, config, params: weight_numerator(config, trial, params, "bogus"),
    lambda trial, config, params: local_estimator(config, "kinetic", trial, params, "bogus"),
], ids=["make_chain", "weight_numerator", "local_estimator"])
def test_unknown_backend_rejected(call):
    trial = half_filled_trial(build_lattice("chain", 2))
    with pytest.raises(ValueError, match="unknown backend 'bogus'"):
        call(trial, np.ones((2, 2), dtype=int), hs_params(0.5))


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

    def test_trial_on_another_lattice_is_rejected_first(self, monkeypatch):
        # a chain:4 trial on chain:3 once died inside einsum ("operands
        # could not be broadcast together")
        monkeypatch.setattr(sampler, "all_field_vectors",
                            lambda n: pytest.fail("enumerated before the lattice check"))
        trial = half_filled_trial(build_lattice("chain", 4))
        with pytest.raises(ValueError, match="built on chain:4, not on the checked chain:3"):
            phase_problem_check(build_lattice("chain", 3), 1.0, trial=trial)

    class Scripted:
        """Weight engine whose proposal ratios are scripted."""

        def __init__(self, ratios):
            self.ratios = iter(ratios)

        def sweep(self, state, config, weight, draws):
            accepted = 0
            draw = iter(draws)
            for fields in config:
                for copy in (0, 1):
                    u = next(draw)
                    w_new = weight * next(self.ratios)
                    _check_weight(w_new, weight)
                    r = w_new.real / weight.real
                    if r >= 1.0 or u < r:
                        fields[copy] = -fields[copy]
                        weight = w_new
                        accepted += 1
            return weight, accepted

        def weights(self, configs):
            return np.ones(len(configs), dtype=complex)

        def start(self, config, weight):
            return None

    class AcceptAll:
        def random(self, n):
            return np.zeros(n)

    def sweep(self, weight, ratios):
        chain = ChainState([[1, 1], [1, 1]], weight, self.Scripted(ratios), None)
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
        chain = ChainState([[1, 1], [1, 1]], 1.0 + 0.0j, self.Scripted(ratios), None)
        for _ in range(_ANCHOR_STACK):
            metropolis_sweep(chain, None, None, self.AcceptAll())
        assert not chain.pending
        assert abs(chain.weight - 1.0) < 1e-15
        assert chain.max_drift == pytest.approx(1e-3, rel=1e-6)

    def test_a_run_that_drifted_raises(self, monkeypatch):
        # one proposal moves the tracked weight 1e-3 off its from-scratch
        # value until the next rebuild: the run raises instead of binning
        class Measured(self.Scripted):
            def estimators(self, configs, J):
                return self.weights(configs), np.zeros((2, len(configs)))

        ratios = [1.0] * (4 * 100)
        ratios[4 * 70 + 1] = 1.001
        monkeypatch.setattr(sampler, "_engine", lambda trial, params, backend: Measured(ratios))
        mc = McParams(n_sweeps=100, n_burnin=0, n_bins=10)
        with pytest.raises(ArithmeticError, match="drifted 1.000e-03"):
            sample_kinetic_interaction(build_lattice("chain", 2), 1.0, 0.5, mc)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [4, 5])
    def test_every_proposal_is_checked_against_the_current_weight(
        self, n, backend, checked_weights
    ):
        # the guard sees each proposal once, with the weight the chain holds
        # just before it: the last accepted proposal's, or the sweep's start
        trial = half_filled_trial(build_lattice("chain", n))
        params = hs_params(0.8)
        chain = make_chain(trial, params, backend)
        rng, replay = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(6):
            checked_weights.clear()
            current, counted = chain.weight, 0
            _, accepted = metropolis_sweep(chain, trial, params, rng)
            assert len(checked_weights) == 2 * n
            for (w_new, seen), u in zip(checked_weights, replay.random(2 * n)):
                assert seen == current
                r = w_new.real / seen.real
                if r >= 1.0 or u < r:
                    current, counted = w_new, counted + 1
            assert counted == accepted
            assert chain.weight == current

    @pytest.mark.parametrize("weight,ratio", [
        (1.0 + 0.0j, float("nan")),
        (1.0 + 0.0j, float("inf")),
        # finite factors whose product overflows to inf + 0j
        (1e308 + 0.0j, 10.0),
    ], ids=["nan", "inf", "overflow"])
    def test_non_finite_proposal_is_a_phase_problem(self, weight, ratio):
        # a NaN ratio would be silently rejected (r is NaN) and an infinite
        # one accepted, leaving an infinite tracked weight
        with pytest.raises(PhaseProblemError, match="not finite"):
            self.sweep(weight, [ratio, 1.0, 1.0, 1.0])

    def test_non_finite_rebuild_weight_raises(self):
        # a NaN from-scratch weight gives a NaN drift, which max() would drop
        class NanRebuild(self.Scripted):
            def weights(self, configs):
                fresh = np.ones(len(configs), dtype=complex)
                fresh[1] = complex("nan")
                return fresh

        chain = ChainState([[1, 1], [1, 1]], 1.0 + 0.0j, NanRebuild([1.0] * 12), None)
        for _ in range(3):
            metropolis_sweep(chain, None, None, self.AcceptAll())
        with pytest.raises(ArithmeticError, match="non-finite"):
            sampler._anchor(chain)
        assert chain.max_drift == 0.0

    def test_guard_scales_with_a_large_current_weight(self):
        # the same imaginary part is roundoff next to a current weight of 1e6,
        # also when the proposal itself lands at weight 1
        _, accepted = self.sweep(1e6 + 0.0j, [1.0 + 1e-12j, 1.0, 1.0, 1e-6 + 1e-12j])
        assert accepted == 4
