"""Pauli-string algebra over qubit registers.

A term is a complex coefficient attached to a symbol string such as
``"XXIZ"``; the leftmost symbol acts on qubit 0, which is the most
significant bit of the amplitude index.  Each routine compiles its strings
into XOR/parity bit masks, with no cache; no dense operator is
materialized outside of small test helpers.

Every routine makes one pass per flip mask: terms that flip the same
qubits share one gather (the Z/I terms one pass, each XZ…ZX / YZ…ZY pair
one gather), and :func:`_group_elements` is the one rule that turns masks
into matrix elements.  :func:`apply_pauli_sum` acts on whole registers;
:func:`support_expectation` takes a state kept on a set of basis states,
its support, and reads each ``ket[b ^ flip]`` through an int32 position
map, so a state that leaves the support reads an appended zero; its sums
are NumPy's pairwise ``np.sum`` of elementwise products, not BLAS, so
they give the same bits at any BLAS thread count.
:func:`diagonal_eigenvalues` works over the basis indices it is given, and
:func:`basis_matrix` compiles an operator onto a basis as one sparse matrix.  A half-filled trial at chain:10 lives
on 63,504 of the 1,048,576 register states, so the support kernels cost in
proportion to the occupied sector rather than the register (the position
map is one int32 per register state, 4 MB there).  Only
:func:`basis_matrix` needs SciPy, and it imports it on its first call,
so the routes that never compile a basis start on NumPy alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

_SYMBOLS = frozenset("IXYZ")

# Single-qubit matrices, used only by to_matrix() below.
_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Each symbol's bit in the flip mask (X, Y) and in the sign mask (Y, Z).
_FLIP_BITS = str.maketrans("IXYZ", "0110")
_SIGN_BITS = str.maketrans("IXYZ", "0011")


def _masks(operators: str) -> tuple[int, int, int]:
    """Compile a symbol string to (flip_mask, sign_mask, n_y).

    ``flip_mask`` marks qubits whose bit is toggled (X and Y), ``sign_mask``
    marks qubits contributing a (-1)^bit sign (Z and Y), and ``n_y`` counts
    Y symbols, each of which contributes a factor i on top of the sign.
    """
    # the leading "0" gives the empty string masks of 0
    return (int("0" + operators.translate(_FLIP_BITS), 2),
            int("0" + operators.translate(_SIGN_BITS), 2),
            operators.count("Y"))


@dataclass(frozen=True)
class PauliTerm:
    """One coefficient-weighted Pauli string."""

    coefficient: complex
    operators: str

    def __post_init__(self) -> None:
        bad = set(self.operators) - _SYMBOLS
        if bad:
            raise ValueError(f"unknown Pauli symbols {sorted(bad)}")

    @property
    def n_qubits(self) -> int:
        return len(self.operators)

    @property
    def is_diagonal(self) -> bool:
        return set(self.operators) <= {"I", "Z"}


@dataclass(frozen=True)
class PauliSum:
    """Normalized sum of Pauli terms (no repeated strings, zeros dropped)."""

    terms: tuple[PauliTerm, ...]

    @classmethod
    def from_terms(cls, terms: Iterable[PauliTerm]) -> "PauliSum":
        merged: dict[str, complex] = {}
        n_qubits = None
        for t in terms:
            if n_qubits is None:
                n_qubits = t.n_qubits
            elif t.n_qubits != n_qubits:
                raise ValueError("mixed qubit counts in one PauliSum")
            merged[t.operators] = merged.get(t.operators, 0.0) + complex(t.coefficient)
        kept = tuple(
            PauliTerm(c, ops) for ops, c in merged.items() if abs(c) > 1e-30
        )
        if not kept:
            # Keep an explicit zero so n_qubits stays well defined.
            kept = (PauliTerm(0.0, "I" * (n_qubits or 1)),)
        return cls(kept)

    @classmethod
    def from_ops(
        cls, n_qubits: int, ops: Mapping[int, str], coefficient: complex = 1.0
    ) -> "PauliSum":
        """Single term from a {qubit: symbol} mapping, identities elsewhere."""
        chars = ["I"] * n_qubits
        for q, sym in ops.items():
            if not 0 <= q < n_qubits:
                raise IndexError(f"qubit {q} out of range for {n_qubits} qubits")
            chars[q] = sym
        return cls.from_terms([PauliTerm(coefficient, "".join(chars))])

    @property
    def n_qubits(self) -> int:
        return self.terms[0].n_qubits

    @property
    def is_diagonal(self) -> bool:
        return all(t.is_diagonal for t in self.terms)

    @property
    def is_hermitian(self) -> bool:
        # Every Pauli string is Hermitian, so the sum is Hermitian exactly
        # when all (merged) coefficients are real.
        return all(abs(t.coefficient.imag) < 1e-12 for t in self.terms)

    def __iter__(self) -> Iterator[PauliTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum.from_terms((*self.terms, *other.terms))

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum.from_terms(
            PauliTerm(t.coefficient * scalar, t.operators) for t in self.terms
        )

    __rmul__ = __mul__

    def to_matrix(self) -> np.ndarray:
        """Dense matrix, for small-register tests only."""
        n = self.n_qubits
        if n > 12:
            raise ValueError("dense materialization capped at 12 qubits")
        out = np.zeros((1 << n, 1 << n), dtype=complex)
        for t in self.terms:
            m = np.array([[1.0]], dtype=complex)
            for sym in t.operators:
                m = np.kron(m, _MATS[sym])
            out += t.coefficient * m
        return out


def apply_pauli_sum(amps: np.ndarray, op: PauliSum) -> np.ndarray:
    """Matrix-free Ô|amps⟩ acting on the last axis (batched rows are fine).

    Parameters
    ----------
    amps : ndarray
        Amplitude array whose last axis has length 2**n_qubits.
    op : PauliSum
        Operator to apply.

    Returns
    -------
    ndarray
        New array of the same shape; the input is not modified.
    """
    dim = amps.shape[-1]
    if dim != 1 << op.n_qubits:
        raise ValueError(
            f"dimension mismatch: {dim} amplitudes vs {op.n_qubits} qubits"
        )
    basis = np.arange(dim)
    out = np.zeros(amps.shape, dtype=complex)
    for flip, parts in _flip_groups(op).items():
        src = basis ^ flip
        out += amps[..., src] * _group_elements(parts, src)
    return out


def _flip_groups(op: PauliSum) -> dict[int, list[tuple[complex, int]]]:
    """Terms grouped by flip mask, each as (coefficient * i**n_y, sign_mask)."""
    groups: dict[int, list[tuple[complex, int]]] = {}
    for t in op.terms:
        flip, sign, n_y = _masks(t.operators)
        groups.setdefault(flip, []).append((t.coefficient * (1j) ** (n_y % 4), sign))
    return groups


def _group_elements(parts: list[tuple[complex, int]], src: np.ndarray) -> np.ndarray:
    """Summed matrix elements <b|P|src> of one flip group, b = src ^ flip.

    Each term's sign (-1)^popcount(src & sign) is evaluated at the source
    index and applied as a choice between c and -c; a term with no sign
    qubits (the XX half of a hopping pair) adds c as it is.  A group whose
    coefficients all have zero imaginary part is summed in float64: the
    same numbers as a complex sum with +0 imaginary parts, which is what
    a complex operand promotes them to, at half the memory traffic.
    """
    real = all(c.imag == 0 for c, _ in parts)
    elements = np.zeros(src.shape, dtype=np.float64 if real else complex)
    for c, sign in parts:
        if real:
            c = c.real
        if sign:
            elements += np.where((np.bitwise_count(src & sign) & 1).view(bool), -c, c)
        else:
            elements += c
    return elements


def support_expectation(op: PauliSum, support: np.ndarray, amps: np.ndarray) -> complex:
    """<psi|Ô|psi> for the state with amplitude ``amps[r]`` on basis state
    ``support[r]`` and zero elsewhere.

    ``support`` holds distinct register basis indices.  Exact for any
    operator: no number conservation is assumed.  Terms are grouped by
    flip mask; each distinct flip costs one gather ``ket[b ^ flip]``
    through the position map, added into Ô|psi> on the support, and all
    Z/I terms share the flip-0 pass, which gathers nothing (a diagonal
    operator builds no map).  The one reduction is the pairwise ``np.sum``
    of conj(psi) * Ô|psi>.
    """
    if support.shape != amps.shape:
        raise ValueError(f"dimension mismatch: {support.shape} support vs {amps.shape} amplitudes")
    groups = _flip_groups(op)
    if any(groups):  # some term flips a qubit: only then is the map needed
        position = np.full(1 << op.n_qubits, support.size, dtype=np.int32)
        position[support] = np.arange(support.size, dtype=np.int32)
        ket = np.append(amps, 0)  # every state outside the support reads this zero
    applied = np.zeros(amps.shape, dtype=complex)  # Ô|psi> on the support
    for flip, parts in groups.items():
        src = support ^ flip
        applied += _group_elements(parts, src) * (ket.take(position.take(src)) if flip else amps)
    return complex(np.sum(amps.conj() * applied))


def diagonal_eigenvalues(op: PauliSum, basis: np.ndarray) -> np.ndarray:
    """Eigenvalue of a Z/I-only PauliSum on computational basis states.

    The result d(b) satisfies Ô|b⟩ = d(b)|b⟩; it is returned as a real
    array over the indices in ``basis``.
    """
    if not op.is_diagonal:
        raise ValueError("operator has X/Y content; not diagonal")
    (parts,) = _flip_groups(op).values()  # Z/I terms all have flip mask 0
    if any(abs(c.imag) > 1e-14 for c, _ in parts):
        raise ValueError("diagonal operator with non-real coefficient")
    return _group_elements([(c.real, sign) for c, sign in parts], basis)


def basis_matrix(op: PauliSum, basis: np.ndarray) -> sp.csr_matrix:
    """Compile ``op`` restricted to a basis into one sparse matrix.

    Entry [i, j] is <basis[i]|Ô|basis[j]>.  Contributions that scatter out
    of the basis are dropped.  That is exact in two cases: for a
    number-conserving sum on a particle sector (the out-of-sector parts of
    the individual strings cancel in the sum), and for any operator when
    only matrix elements against states supported on ``basis`` are read.
    Terms that flip the same qubits share one gather and one block of
    entries, so the matrix is built from (distinct flips) x len(basis)
    entries whatever the number of terms.
    """
    import scipy.sparse as sp

    dim = len(basis)
    position = np.full(1 << op.n_qubits, -1, dtype=np.int64)
    position[basis] = np.arange(dim)
    rows, cols, vals = [], [], []
    for flip, parts in _flip_groups(op).items():
        dst = position[basis ^ flip]
        src = np.flatnonzero(dst >= 0)
        rows.append(dst[src])
        cols.append(src)
        vals.append(_group_elements(parts, basis[src]))
    data = np.concatenate(vals)
    if not data.imag.any():
        data = data.real  # real matrices take the faster real eigensolvers
    coo = (data, (np.concatenate(rows), np.concatenate(cols)))
    return sp.csr_matrix(coo, shape=(dim, dim))
