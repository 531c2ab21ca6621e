"""Slater sector states and the determinant engine's dressed overlaps.

The engine's determinant formulas are the load-bearing piece of the fast
sampler backend, so its weights and Green matrices are validated against
a dense statevector oracle built from explicit fermionic ladder
matrices — including odd particle numbers, where sign bookkeeping
mistakes like to hide.
"""
from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from gutzmc.gutzwiller import HSParams
from gutzmc.lattice import QubitLayout, build_lattice, hopping_matrix, hubbard_terms
from gutzmc.sampler import SingularOverlapError, _DeterminantEngine
from gutzmc.slater import (
    DegenerateFillingError,
    SlaterState,
    TrialState,
    ground_state_of_K,
    half_filled_trial,
    sector_amplitudes,
    slater_to_statevector,
)
from gutzmc.statevector import _sector_indices, expectation

Z = np.diag([1.0, -1.0]).astype(complex)
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def annihilator(q: int, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for p in range(n):
        out = np.kron(out, Z if p < q else (LOWER if p == q else np.eye(2)))
    return out


def field_phases(fields: np.ndarray, alpha: float, n: int) -> np.ndarray:
    """Diagonal of exp(i*alpha*sum_i s_i n_i) over the 2^n occupation basis."""
    basis = np.arange(2**n)
    total = np.zeros(2**n)
    for site in range(n):
        total += fields[site] * ((basis >> (n - 1 - site)) & 1)
    return np.exp(1j * alpha * total)


def random_slater(n_sites: int, n_particles: int, seed: int) -> SlaterState:
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n_sites, n_particles))
    q, _ = np.linalg.qr(mat)
    return SlaterState(q)


def engine_for(up: SlaterState, down: SlaterState, alpha: float) -> _DeterminantEngine:
    """The determinant engine on a chain trial of the two given sectors."""
    trial = TrialState(build_lattice("chain", up.n_sites), up, down)
    # the engine reads only alpha off its parameters
    return _DeterminantEngine(trial, HSParams(alpha=alpha, gamma=np.nan))


def sector_overlap(amps: np.ndarray, config: np.ndarray, alpha: float) -> complex:
    """Dense <phi| u(s2) u(s1) |phi> of one sector, with the -1/2 shifts."""
    n = config.shape[0]
    ket, bra = config[:, 0], config[:, 1]
    prefactor = np.exp(-0.5j * alpha * (ket + bra).sum())
    phases = field_phases(bra, alpha, n) * field_phases(ket, alpha, n)
    return prefactor * np.vdot(amps, phases * amps)


def loop_sector_amplitudes(slater: SlaterState) -> np.ndarray:
    """Reference: the same stacked minors, placed one occupation at a time."""
    n, k = slater.n_sites, slater.n_particles
    amps = np.zeros(1 << n, dtype=complex)
    if k == 0:
        amps[0] = 1.0
        return amps
    occupied = list(itertools.combinations(range(n), k))
    minors = np.linalg.det(slater.phi[np.array(occupied), :])
    for rows, det in zip(occupied, minors):
        index = 0
        for r in rows:
            index |= 1 << (n - 1 - r)
        amps[index] = det
    return amps


class TestSectorIndices:
    @pytest.mark.parametrize(
        "kind,n_sites", [("chain", n) for n in range(2, 13)] + [("ladder", 8)]
    )
    def test_half_filled_sectors_equal_loop(self, kind, n_sites):
        trial = half_filled_trial(build_lattice(kind, n_sites))
        for slater in (trial.up, trial.down):
            np.testing.assert_array_equal(
                sector_amplitudes(slater), loop_sector_amplitudes(slater)
            )

    @pytest.mark.parametrize("n_sites,n_particles", [(6, 1), (7, 2), (9, 6), (4, 0)])
    def test_doped_and_empty_sectors_equal_loop(self, n_sites, n_particles):
        slater = random_slater(n_sites, n_particles, seed=n_sites + n_particles)
        np.testing.assert_array_equal(
            sector_amplitudes(slater), loop_sector_amplitudes(slater)
        )


class TestPopcountEnumeration:
    """The popcount enumeration takes each minor's rows in the order
    itertools.combinations gives them, so every amplitude keeps its bits."""

    @pytest.mark.parametrize("n_sites", range(2, 17))
    def test_bits_equal_combinations_reference(self, n_sites):
        for n_particles in sorted({0, 1, n_sites // 2, n_sites}):
            slater = random_slater(n_sites, n_particles, seed=7 * n_sites + n_particles)
            got = sector_amplitudes(slater).view(np.float64)
            want = loop_sector_amplitudes(slater).view(np.float64)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSlaterBasics:
    def test_orthonormality_enforced(self):
        bad = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            SlaterState(bad)

    def test_sector_amplitudes_match_minors(self):
        slater = random_slater(5, 2, seed=1)
        amps = sector_amplitudes(slater)
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
        for occupied in itertools.combinations(range(5), 2):
            index = sum(1 << (5 - 1 - r) for r in occupied)
            minor = np.linalg.det(slater.phi[list(occupied), :])
            np.testing.assert_allclose(amps[index], minor, atol=1e-12)

    def test_ground_state_fills_lowest_orbitals(self):
        lat = build_lattice("chain", 4)
        slater = ground_state_of_K(lat, 2)
        t = hopping_matrix(lat, 1.0)
        orbital_energies = np.sort(np.diag(slater.phi.conj().T @ t @ slater.phi).real)
        expected = np.sort(np.linalg.eigvalsh(t))[:2]
        np.testing.assert_allclose(orbital_energies, expected, atol=1e-10)

    def test_degenerate_fermi_level_rejected(self):
        # the 4-site ladder is a square plaquette: spectrum -2J, 0, 0, 2J
        lat = build_lattice("ladder", 4)
        with pytest.raises(DegenerateFillingError):
            ground_state_of_K(lat, 2)

    def test_half_filled_trial_splits_odd_sites(self):
        lat = build_lattice("chain", 5)
        trial = half_filled_trial(lat)
        assert trial.up.n_particles == 3 and trial.down.n_particles == 2
        assert not trial.spin_symmetric
        even = half_filled_trial(build_lattice("chain", 4))
        assert even.spin_symmetric

    def test_statevector_kinetic_energy(self):
        # <K> of the filled Fermi sea = 2 spins x sum of lowest orbital energies
        lat = build_lattice("chain", 4)
        trial = half_filled_trial(lat)
        sv = slater_to_statevector(trial.up, trial.down, QubitLayout(4))
        kin, _ = hubbard_terms(lat, 1.0, 1.0)
        expected = 2.0 * np.sort(np.linalg.eigvalsh(hopping_matrix(lat, 1.0)))[:2].sum()
        assert abs(expectation(sv, kin).real - expected) < 1e-10


class TestRegisterTrial:
    @pytest.mark.parametrize("kind, n_sites", [("chain", 4), ("chain", 5), ("ladder", 6)])
    def test_sector_rows_are_the_whole_register(self, kind, n_sites):
        # the kron of the two sectors vanishes off the (n_up, n_down) sector,
        # and on it equals the sector-built trial
        trial = half_filled_trial(build_lattice(kind, n_sites))
        sv = slater_to_statevector(trial.up, trial.down, QubitLayout(n_sites))
        sector = (trial.up.n_particles, trial.down.n_particles)
        np.testing.assert_array_equal(sv.support, _sector_indices(2 * n_sites, sector))
        full = np.kron(sector_amplitudes(trial.up), sector_amplitudes(trial.down))
        full = full / np.linalg.norm(full)
        assert not np.delete(full, sv.support).any()
        np.testing.assert_allclose(sv.amplitudes, full[sv.support], rtol=0, atol=1e-15)

    def test_chain10_trial_keeps_no_register(self):
        # 63,504 sector states of a 2^20 register: the build never forms the
        # 16 MiB register, peaking near 3 MiB; the trial keeps its rows and
        # support, 1.5 MiB
        trial = half_filled_trial(build_lattice("chain", 10))
        tracemalloc.start()
        try:
            sv = slater_to_statevector(trial.up, trial.down, QubitLayout(10))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 2 * 2**20, f"kept {kept / 2**20:.2f} MiB"
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
        assert (sv.n_register, sv.n_ancillas) == (20, 0)
        np.testing.assert_array_equal(sv.support, _sector_indices(20, (5, 5)))

    @pytest.mark.parametrize("n_sites", [10, 12])
    def test_trial_squared_norm_is_one_within_two_ulps(self, n_sites):
        # normalized and measured by the same pairwise-sum rule, so only the
        # rounding of the scale and of the sum itself remains: two ulps of 1
        trial = half_filled_trial(build_lattice("chain", n_sites))
        sv = slater_to_statevector(trial.up, trial.down, QubitLayout(n_sites))
        assert abs(sv.squared_norm() - 1.0) <= 4.4e-16


class TestDressedOverlap:
    @pytest.mark.parametrize("n_sites,n_particles", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 3)])
    def test_matches_statevector_oracle(self, n_sites, n_particles):
        # two different sectors, the down one holding n_sites - n_particles
        # particles, so both overlaps enter the product
        rng = np.random.default_rng(n_sites * 10 + n_particles)
        up = random_slater(n_sites, n_particles, seed=n_sites)
        down = random_slater(n_sites, n_sites - n_particles, seed=20 + n_sites)
        alpha = 0.73
        configs = rng.choice([-1, 1], size=(4, n_sites, 2))
        got = engine_for(up, down, alpha).weights(configs)
        for config, w in zip(configs, got):
            expected = sector_overlap(sector_amplitudes(up), config, alpha) * sector_overlap(
                sector_amplitudes(down), config, alpha)
            assert abs(w - expected) < 1e-10

    def test_two_site_all_plus(self):
        # both field sums = +2 on both sites: pure phase e^{-2i*alpha} x identity
        slater = ground_state_of_K(build_lattice("chain", 2), 1)
        alpha = 0.4
        config = np.ones((2, 2), dtype=int)
        got = engine_for(slater, slater, alpha).weights(config[None])[0]
        phases = field_phases(np.ones(2), alpha, 2) ** 2
        amps = sector_amplitudes(slater)
        expected = np.exp(-2j * alpha) * np.vdot(amps, phases * amps)
        assert abs(got - expected**2) < 1e-12

    def test_depends_only_on_field_sums(self):
        alpha = 0.9
        a = np.array([[1, -1], [1, 1], [-1, 1], [-1, -1]])
        b = np.array([[-1, 1], [1, 1], [1, -1], [-1, -1]])  # same per-site sums
        engine = engine_for(random_slater(4, 2, seed=3), random_slater(4, 1, seed=4), alpha)
        va, vb = engine.weights(np.stack([a, b]))
        assert abs(va - vb) < 1e-14


class TestDressedGreenFunction:
    @pytest.mark.parametrize("n_sites,n_particles", [(3, 1), (4, 2), (5, 3), (6, 2)])
    def test_matches_dense_ratio(self, n_sites, n_particles):
        # M[j, i] = <phi| u(bra) c†_i c_j u(ket) |phi> / <phi| u(bra) u(ket) |phi>
        # is diag(ket phases) P diag(bra phases) of the up sector's P
        rng = np.random.default_rng(100 + n_sites)
        slater = random_slater(n_sites, n_particles, seed=50 + n_sites)
        amps = sector_amplitudes(slater)
        alpha = 0.61
        c = [annihilator(q, n_sites) for q in range(n_sites)]
        bra = rng.choice([-1, 1], size=n_sites)
        ket = rng.choice([-1, 1], size=n_sites)
        u_bra = field_phases(bra, alpha, n_sites)
        u_ket = field_phases(ket, alpha, n_sites)
        den = np.vdot(amps, u_bra * u_ket * amps)
        engine = engine_for(slater, random_slater(n_sites, 1, seed=n_sites), alpha)
        config = np.stack([ket, bra], axis=1)
        _, projectors, _ = engine.start(config, engine.weights(config[None])[0])
        M = np.exp(1j * alpha * ket)[:, None] * projectors[0] * np.exp(1j * alpha * bra)
        for i in range(n_sites):
            for j in range(n_sites):
                op = c[i].conj().T @ c[j]
                num = np.vdot(amps, u_bra * (op @ (u_ket * amps)))
                np.testing.assert_allclose(M[j, i], num / den, atol=1e-10)

    def test_singular_dressing_raises(self):
        # alpha = pi/4 (g = ln 2) with opposite field sums makes the Gram
        # vanish to roundoff: the weight is still given, the estimators not
        slater = SlaterState(np.array([[1.0], [1.0]]) / np.sqrt(2))
        config = np.array([[1, 1], [-1, -1]])
        engine = engine_for(slater, slater, np.pi / 4)
        assert abs(engine.weights(config[None])[0]) < 1e-30
        with pytest.raises(SingularOverlapError):
            engine.estimators(config[None], 1.0)


def test_trial_state_requires_matching_lattice():
    lat = build_lattice("chain", 4)
    wrong = random_slater(5, 2, seed=2)
    ok = ground_state_of_K(lat, 2)
    with pytest.raises(ValueError):
        TrialState(lat, ok, wrong)
