"""The two-qubit weight catalog: three channels per sign regime.

The oracle here is dense linear algebra: the target diagonal
diag(e^{-J}, e^{J}, e^{J}, e^{-J}) built with np.diag, and the channel
unitaries recomputed with scipy's dense matrix exponential instead of
the closed two-level form the module uses.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from gutzmc.gutzwiller import hs_params
from gutzmc.zz_decomp import HsVariant, decompose_zz, variant_unitary, verify_variant

COUPLINGS = [0.1, 0.5, 2.0, -0.1, -0.5, -2.0]


def target_diagonal(J):
    return np.diag(np.exp(-J * np.array([1.0, -1.0, -1.0, 1.0])))


class TestCatalog:
    @pytest.mark.parametrize("J", COUPLINGS)
    def test_three_variants_reproduce_target(self, J):
        variants = decompose_zz(J)
        assert len(variants) == 3
        for v in variants:
            assert verify_variant(v, J) < 1e-12

    @pytest.mark.parametrize("J", COUPLINGS)
    def test_identity_against_independent_target(self, J):
        # same check without going through verify_variant
        target = target_diagonal(J)
        for v in decompose_zz(J):
            combined = v.gamma * (variant_unitary(v, +1) + variant_unitary(v, -1))
            assert np.max(np.abs(combined - target)) < 1e-12

    def test_channel_sets_and_labels(self):
        pos = decompose_zz(0.5)
        neg = decompose_zz(-0.5)
        assert [v.channel for v in pos] == ["XX-YY", "XY+YX", "Z+Z"]
        assert [v.channel for v in neg] == ["XX+YY", "XY-YX", "Z-Z"]
        assert pos[0].label == "J>0:XX-YY"
        assert neg[2].label == "J<0:Z-Z"

    def test_shared_parameters_within_regime(self):
        for J in (0.7, -0.7):
            variants = decompose_zz(J)
            assert len({v.gamma for v in variants}) == 1
            assert len({v.alpha for v in variants}) == 1
            assert variants[0].gamma == pytest.approx(np.exp(abs(J)) / 2, abs=1e-15)
            assert variants[0].alpha == pytest.approx(
                np.arccos(np.exp(-2 * abs(J))), abs=1e-15
            )

    @pytest.mark.parametrize("J", [-2.0, -0.5, 0.0, 0.7, 3.0])
    def test_parameters_are_the_on_site_split_at_four_abs_J(self, J):
        p = hs_params(4 * abs(J))
        for v in decompose_zz(J):
            assert (v.gamma, v.alpha) == (p.gamma, p.alpha)

    def test_zero_coupling_is_trivial_split(self):
        variants = decompose_zz(0.0)
        assert [v.channel for v in variants] == list(("XX-YY", "XY+YX", "Z+Z"))
        for v in variants:
            assert v.alpha == 0.0
            assert v.gamma == 0.5
            # both branch unitaries collapse to the identity
            assert np.allclose(variant_unitary(v, +1), np.eye(4), atol=1e-15)
            assert verify_variant(v, 0.0) < 1e-15


class TestUnitaries:
    @pytest.mark.parametrize("J", [0.5, -0.5, 2.0])
    def test_branches_are_unitary(self, J):
        for v in decompose_zz(J):
            for s in (+1, -1):
                u = variant_unitary(v, s)
                assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-14

    @pytest.mark.parametrize("J", [0.3, -0.3, 1.5, -1.5])
    def test_closed_form_matches_dense_exponential(self, J):
        for v in decompose_zz(J):
            g_mat = v.generator.to_matrix()
            for s in (+1, -1):
                dense = expm(-1j * s * v.alpha * g_mat)
                assert np.max(np.abs(variant_unitary(v, s) - dense)) < 1e-13

    @pytest.mark.parametrize("J", [0.5, -0.5])
    def test_generators_cube_to_themselves(self, J):
        # G^3 = G is what makes the two-level closed form exact
        for v in decompose_zz(J):
            g_mat = v.generator.to_matrix()
            assert np.max(np.abs(g_mat @ g_mat @ g_mat - g_mat)) < 1e-14
            assert v.generator.is_hermitian

    def test_branch_sign_validated(self):
        v = decompose_zz(0.5)[0]
        with pytest.raises(ValueError):
            variant_unitary(v, 0)
        with pytest.raises(ValueError):
            variant_unitary(v, 2)


class TestCrossChecks:
    @pytest.mark.parametrize("J", [0.4, 1.1])
    def test_regime_mismatch_fails_loudly(self, J):
        # a J>0 variant evaluated against the -J target is not a small miss
        for v in decompose_zz(J):
            assert verify_variant(v, -J) > 0.1

    @pytest.mark.parametrize("g", [0.2, 0.5, 1.0, 2.0])
    def test_z_plus_z_at_quarter_g_is_the_on_site_split(self, g):
        # applying the catalog to one site's up/down qubit pair with
        # J = g/4 reproduces the on-site parameters exactly
        p = hs_params(g)
        z_plus_z = [v for v in decompose_zz(g / 4) if v.channel == "Z+Z"][0]
        assert z_plus_z.gamma == pytest.approx(p.gamma, abs=1e-15)
        assert z_plus_z.alpha == pytest.approx(p.alpha, abs=1e-15)
        # and the recombined diagonal equals e^{-(g/4) Z_up Z_dn}
        combined = z_plus_z.gamma * (
            variant_unitary(z_plus_z, +1) + variant_unitary(z_plus_z, -1)
        )
        assert np.max(np.abs(combined - target_diagonal(g / 4))) < 1e-12

    def test_variant_is_frozen(self):
        v = decompose_zz(0.5)[0]
        assert isinstance(v, HsVariant)
        with pytest.raises(AttributeError):
            v.gamma = 1.0
