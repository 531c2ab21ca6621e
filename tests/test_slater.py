"""Slater sector states and the dressed Green's-function machinery.

The determinant formulas here are the load-bearing piece of the fast
sampler backend, so they are validated against a dense statevector
oracle built from explicit fermionic ladder matrices — including odd
particle numbers, where sign bookkeeping mistakes like to hide.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from gutzmc.lattice import QubitLayout, build_lattice, hopping_matrix, hubbard_terms
from gutzmc.slater import (
    DegenerateFillingError,
    SingularOverlapError,
    SlaterState,
    TrialState,
    dressed_green_function,
    dressed_overlap,
    ground_state_of_K,
    half_filled_trial,
    sector_amplitudes,
    slater_to_statevector,
)
from gutzmc.statevector import expectation

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


class TestDressedOverlap:
    @pytest.mark.parametrize("n_sites,n_particles", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 3)])
    def test_matches_statevector_oracle(self, n_sites, n_particles):
        rng = np.random.default_rng(n_sites * 10 + n_particles)
        slater = random_slater(n_sites, n_particles, seed=n_sites)
        amps = sector_amplitudes(slater)
        alpha = 0.73
        for _ in range(4):
            config = rng.choice([-1, 1], size=(n_sites, 2))
            ket, bra = config[:, 0], config[:, 1]
            prefactor = np.exp(-0.5j * alpha * (ket + bra).sum())
            phases = field_phases(bra, alpha, n_sites) * field_phases(ket, alpha, n_sites)
            expected = prefactor * np.vdot(amps, phases * amps)
            got = dressed_overlap(slater, config, alpha)
            assert abs(got - expected) < 1e-10

    def test_two_site_all_plus(self):
        # both field sums = +2 on both sites: pure phase e^{-2i*alpha} x identity
        slater = ground_state_of_K(build_lattice("chain", 2), 1)
        alpha = 0.4
        config = np.ones((2, 2), dtype=int)
        got = dressed_overlap(slater, config, alpha)
        phases = field_phases(np.ones(2), alpha, 2) ** 2
        amps = sector_amplitudes(slater)
        expected = np.exp(-2j * alpha) * np.vdot(amps, phases * amps)
        assert abs(got - expected) < 1e-12

    def test_depends_only_on_field_sums(self):
        slater = random_slater(4, 2, seed=3)
        alpha = 0.9
        a = np.array([[1, -1], [1, 1], [-1, 1], [-1, -1]])
        b = np.array([[-1, 1], [1, 1], [1, -1], [-1, -1]])  # same per-site sums
        va = dressed_overlap(slater, a, alpha)
        vb = dressed_overlap(slater, b, alpha)
        assert abs(va - vb) < 1e-14


class TestDressedGreenFunction:
    @pytest.mark.parametrize("n_sites,n_particles", [(3, 1), (4, 2), (5, 3), (6, 2)])
    def test_matches_dense_ratio(self, n_sites, n_particles):
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
        M = dressed_green_function(slater, bra, ket, alpha)
        for i in range(n_sites):
            for j in range(n_sites):
                op = c[i].conj().T @ c[j]
                num = np.vdot(amps, u_bra * (op @ (u_ket * amps)))
                np.testing.assert_allclose(M[j, i], num / den, atol=1e-10)

    def test_singular_dressing_raises(self):
        # alpha = pi/4 with opposite field sums makes A†B exactly singular
        slater = SlaterState(np.array([[1.0], [1.0]]) / np.sqrt(2))
        bra = np.array([1, -1])
        ket = np.array([1, -1])
        with pytest.raises(SingularOverlapError):
            dressed_green_function(slater, bra, ket, np.pi / 4)


def test_trial_state_requires_matching_lattice():
    lat = build_lattice("chain", 4)
    wrong = random_slater(5, 2, seed=2)
    ok = ground_state_of_K(lat, 2)
    with pytest.raises(ValueError):
        TrialState(lat, ok, wrong)
