"""Tests for the sparse Pauli-string operator algebra."""
from __future__ import annotations

import numpy as np
import pytest

from gutzmc.lattice import build_lattice, hubbard_terms
from gutzmc.pauli import (
    PauliSum,
    PauliTerm,
    _flip_groups,
    _group_elements,
    _masks,
    apply_pauli_sum,
    basis_matrix,
    diagonal_eigenvalues,
    support_expectation,
)
from gutzmc.statevector import _sector_indices

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_term(ops: str) -> np.ndarray:
    """Kronecker build-up with qubit 0 as the most significant factor."""
    out = np.array([[1.0 + 0j]])
    for sym in ops:
        out = np.kron(out, SINGLE[sym])
    return out


@pytest.mark.parametrize("ops", ["X", "Y", "Z", "XY", "ZZ", "IYX", "XZZY"])
def test_to_matrix_matches_kron(ops):
    term = PauliSum.from_terms([PauliTerm(0.7 - 0.2j, ops)])
    np.testing.assert_allclose(term.to_matrix(), (0.7 - 0.2j) * dense_term(ops), atol=1e-14)


def test_apply_matches_dense_on_random_states():
    rng = np.random.default_rng(42)
    kin, inter = hubbard_terms(build_lattice("chain", 3), 1.0, 1.0)
    shared = (0.7 - 0.4j) * (kin + inter) + PauliSum.from_ops(6, {}, 0.3)
    # hopping pairs XZ..ZX / YZ..ZY and all Z/I terms share flip masks
    flips = [tuple(sym in "XY" for sym in t.operators) for t in shared]
    assert len(set(flips)) < len(flips) - 1
    three = PauliSum.from_terms(
        [PauliTerm(0.5, "XZY"), PauliTerm(-1.25j, "YIZ"), PauliTerm(2.0, "III")]
    )
    for op in (three, shared):
        dense = op.to_matrix()
        dim = dense.shape[0]
        for _ in range(5):
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            np.testing.assert_allclose(apply_pauli_sum(psi, op), dense @ psi, atol=1e-13)
        block = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
        np.testing.assert_allclose(apply_pauli_sum(block, op), block @ dense.T, atol=1e-13)


def test_apply_batched_last_axis():
    rng = np.random.default_rng(3)
    op = PauliSum.from_terms([PauliTerm(1.0, "XY"), PauliTerm(0.5, "ZI")])
    block = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    expected = block @ op.to_matrix().T
    np.testing.assert_allclose(apply_pauli_sum(block, op), expected, atol=1e-13)


def test_from_ops_places_operators_on_named_qubits():
    op = PauliSum.from_ops(4, {1: "X", 3: "Z"}, -0.5)
    term = list(op)[0]
    assert term.operators == "IXIZ"
    assert term.coefficient == -0.5


def test_arithmetic_collects_duplicate_strings():
    a = PauliSum.from_ops(2, {0: "Z"}, 1.0)
    b = PauliSum.from_ops(2, {0: "Z"}, 2.0) + PauliSum.from_ops(2, {1: "X"}, 1.0)
    combined = a + b
    np.testing.assert_allclose(
        combined.to_matrix(), 3.0 * dense_term("ZI") + dense_term("IX"), atol=1e-14
    )
    np.testing.assert_allclose((2.5 * a).to_matrix(), 2.5 * dense_term("ZI"), atol=1e-14)


def test_identity_and_flags():
    ident = PauliSum.from_ops(3, {}, 4.0)
    np.testing.assert_allclose(ident.to_matrix(), 4.0 * np.eye(8), atol=1e-15)
    diag = PauliSum.from_ops(2, {0: "Z", 1: "Z"}, 0.25)
    assert diag.is_diagonal
    assert diag.is_hermitian
    off = PauliSum.from_ops(2, {0: "X"}, 1.0)
    assert not off.is_diagonal
    assert off.is_hermitian
    assert not PauliSum.from_ops(2, {0: "X"}, 1.0j).is_hermitian


def test_diagonal_eigenvalues_matches_dense_diagonal():
    op = PauliSum.from_ops(3, {0: "Z", 2: "Z"}, 0.25) + PauliSum.from_ops(3, {}, -0.5)
    np.testing.assert_allclose(diagonal_eigenvalues(op, np.arange(8)), np.diag(op.to_matrix()).real, atol=1e-14)
    with pytest.raises(ValueError):
        diagonal_eigenvalues(PauliSum.from_ops(2, {0: "X"}, 1.0), np.arange(4))


def test_diagonal_eigenvalues_on_a_basis_subset():
    rng = np.random.default_rng(11)
    _, inter = hubbard_terms(build_lattice("chain", 3), 1.0, 1.0)
    op = inter + PauliSum.from_ops(6, {1: "Z", 4: "Z"}, -0.75)
    basis = rng.choice(64, size=20, replace=False)
    got = diagonal_eigenvalues(op, basis)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, np.diag(op.to_matrix()).real[basis], atol=1e-14)
    with pytest.raises(ValueError, match="non-real"):
        diagonal_eigenvalues(op + PauliSum.from_ops(6, {2: "Z"}, 1e-12j), basis)


def _reference_masks(ops: str) -> tuple[int, int, int]:
    """Symbol by symbol: X and Y flip, Y and Z sign, qubit 0 most significant."""
    bit = {q: 1 << (len(ops) - 1 - q) for q in range(len(ops))}
    flip = sum(bit[q] for q, sym in enumerate(ops) if sym in "XY")
    sign = sum(bit[q] for q, sym in enumerate(ops) if sym in "YZ")
    return flip, sign, sum(sym == "Y" for sym in ops)


def test_masks_match_a_per_symbol_reference():
    rng = np.random.default_rng(11)
    assert _masks("") == (0, 0, 0)
    for n in range(25):
        for _ in range(8):
            ops = "".join(rng.choice(list("IXYZ"), n))
            assert _masks(ops) == _reference_masks(ops)


def test_masks_keep_no_state_between_calls():
    assert not hasattr(_masks, "cache_info")


def test_y_phase_convention():
    # Y|0> = i|1>, Y|1> = -i|0>
    psi = np.array([1.0, 0.0], dtype=complex)
    out = apply_pauli_sum(psi, PauliSum.from_ops(1, {0: "Y"}, 1.0))
    np.testing.assert_allclose(out, [0.0, 1.0j], atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basis_matrix_is_the_dense_matrix_restricted_to_the_basis(seed):
    rng = np.random.default_rng(seed)
    n = 5
    strings = ["XIIYZ", "YYIII", "ZIZIZ", "IXXII", "IIIIY", "ZZZZZ", "XYZIX"]
    op = PauliSum.from_terms(
        PauliTerm(complex(*rng.standard_normal(2)), ops) for ops in strings
    )
    basis = np.sort(rng.choice(1 << n, size=12, replace=False))
    dense = op.to_matrix()
    outside = np.setdiff1d(np.arange(1 << n), basis)
    # Some entries scatter out of the basis; the compiled matrix drops them.
    assert np.abs(dense[np.ix_(outside, basis)]).max() > 0.1
    compiled = basis_matrix(op, basis)
    assert compiled.shape == (basis.size, basis.size)
    np.testing.assert_allclose(compiled.toarray(), dense[np.ix_(basis, basis)], atol=1e-14)


def test_basis_matrix_is_real_for_a_real_operator():
    op = PauliSum.from_terms([PauliTerm(0.5, "XX"), PauliTerm(-1.5, "ZI"), PauliTerm(2.0, "YY")])
    basis = np.array([0, 1, 3])
    compiled = basis_matrix(op, basis)
    assert compiled.dtype == np.float64
    np.testing.assert_array_equal(compiled.toarray(), op.to_matrix().real[np.ix_(basis, basis)])


def test_basis_matrix_of_the_hopping_operator_is_real():
    kinetic, _ = hubbard_terms(build_lattice("chain", 4), 1.0, 1.0)
    basis = np.flatnonzero(np.bitwise_count(np.arange(1 << 8)) == 4)
    compiled = basis_matrix(kinetic, basis)
    assert compiled.dtype == np.float64
    np.testing.assert_array_equal(compiled.toarray(),
                                  kinetic.to_matrix().real[np.ix_(basis, basis)])


def _sparse_bra(rng, n: int) -> np.ndarray:
    """A bra on about half the register: generic, pure-imaginary, real and
    signed-zero entries, with -0.0 parts both on and off its nonzero states."""
    bra = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    kind = rng.integers(0, 5, size=bra.size)
    bra[kind == 1] = 1j * bra[kind == 1].imag
    bra[kind == 2] = bra[kind == 2].real - 0.0j
    bra[kind == 3] = complex(-0.0, 0.0)
    bra[kind == 4] = complex(0.0, -0.0)
    return bra


def _random_string(rng, n: int) -> str:
    return "".join(rng.choice(list("IXYZ"), n))


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 10])
def test_support_expectation_matches_dense(n):
    # a random sorted support on n qubits, random X/Y/Z strings with complex
    # coefficients: most flips leave the support and read zero (10 qubits
    # keeps the dense reference at 16 MB)
    rng = np.random.default_rng(n)
    support = np.sort(rng.choice(1 << n, int(rng.integers(1, min(1 << n, 200))),
                                 replace=False))
    amps = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
    op = PauliSum.from_terms(
        PauliTerm(complex(*rng.standard_normal(2)), _random_string(rng, n)) for _ in range(12)
    ) + PauliSum.from_ops(n, {0: "X", n - 1: "Y"}, 0.3 - 0.8j)
    landed = [np.isin(support ^ flip, support).mean() for flip in _flip_groups(op) if flip]
    assert min(landed) < 1  # some flips leave the support
    psi = np.zeros(1 << n, dtype=complex)
    psi[support] = amps
    expected = psi.conj() @ op.to_matrix() @ psi
    got = support_expectation(op, support, amps)
    assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))


def test_support_expectation_shape_guard():
    op = PauliSum.from_ops(3, {0: "Z"})
    with pytest.raises(ValueError, match="mismatch"):
        support_expectation(op, np.array([0, 1, 2]), np.ones(2, dtype=complex))


def _complex_elements(parts, src):
    """Every flip group's matrix elements summed as complex, term by term."""
    elements = np.zeros(src.shape, dtype=complex)
    for c, sign in parts:
        elements += np.where(np.bitwise_count(src & sign) & 1, -c, c)
    return elements


def _operators(rng):
    kinetic, interaction = hubbard_terms(build_lattice("chain", 4), 1.0, 1.0)
    y_bearing = PauliSum.from_terms(
        PauliTerm(float(c), ops) for c, ops in
        zip(rng.standard_normal(4), ["XYZIIIII", "YIIIIIIX", "IIYYIIII", "ZZIIIIIY"]))
    generic = PauliSum.from_terms(
        PauliTerm(complex(*rng.standard_normal(2)), t.operators) for t in kinetic + interaction)
    return {"real": kinetic + interaction, "y_bearing": y_bearing, "complex": generic}


@pytest.mark.parametrize("kind", ["real", "y_bearing", "complex"])
def test_matrix_elements_equal_the_complex_sum(kind):
    # real groups are summed in float64; every product and sum must see
    # the same numbers as with complex elements.  The supports: the bra's
    # nonzero states, which do not fill the grid of their distinct 4-bit
    # halves; chain:4's (2, 2) sector, 36 states on a 6 x 6 grid; and the
    # whole register, 16 x 16.  The operators gather rows, columns and both.
    rng = np.random.default_rng(7)
    op = _operators(rng)[kind]
    bra = _sparse_bra(rng, 8)
    ket = rng.standard_normal(1 << 8) + 1j * rng.standard_normal(1 << 8)
    for support in (np.flatnonzero(bra), _sector_indices(8, (2, 2)), np.arange(1 << 8)):
        psi = np.zeros_like(bra)
        psi[support] = bra[support]
        on_support = np.zeros(support.shape, dtype=complex)
        for flip, parts in _flip_groups(op).items():
            src = support ^ flip
            gathered = np.where(np.isin(src, support), psi[src], 0)
            on_support += _complex_elements(parts, src) * gathered
        expected = np.sum(psi[support].conj() * on_support)
        assert support_expectation(op, support, psi[support]) == complex(expected)
    applied = np.zeros(ket.shape, dtype=complex)
    for flip, parts in _flip_groups(op).items():
        full = np.arange(1 << 8) ^ flip
        applied += ket[full] * _complex_elements(parts, full)
    np.testing.assert_array_equal(apply_pauli_sum(ket, op), applied)
    real_groups = [_group_elements(parts, np.arange(1 << 8)).dtype == np.float64
                   for parts in _flip_groups(op).values()]
    assert all(real_groups) if kind == "real" else not all(real_groups)
