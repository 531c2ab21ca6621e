"""Pauli-string algebra over qubit registers.

A term is a complex coefficient attached to a symbol string such as
``"XXIZ"``; the leftmost symbol acts on qubit 0, which is the most
significant bit of the amplitude index.  Each routine compiles its strings
into XOR/parity bit masks, with no cache; no dense operator is
materialized outside of small test helpers.

Every routine makes one pass per flip mask: terms that flip the same
qubits share one gather (the Z/I terms one pass, each XZ…ZX / YZ…ZY pair
one gather), and :func:`_group_elements` is the one rule that turns masks
into matrix elements.  :func:`apply_pauli_sum` acts on whole registers.
:func:`support_expectation` takes a state kept on a set of basis states,
its support, and lays it on a grid: rows are the distinct high halves of
the support's indices (the up block, for the spin layout) and columns the
distinct low halves (the down block).  Every state the library builds
fills its grid, so its amplitudes reshape onto it without a copy.  A flip
that touches one half gathers whole rows or whole columns through a rank
table of 2^(n/2) entries, and a target off the grid reads an appended
zero row or column; no table spans the register.  Its sums are NumPy's
pairwise ``np.sum`` of elementwise products, not BLAS, so they give the
same bits at any BLAS thread count.
:func:`diagonal_eigenvalues` works over the basis indices it is given, and
:func:`basis_matrix` compiles an operator onto a basis as one sparse matrix.  A half-filled trial at chain:10 lives
on 63,504 of the 1,048,576 register states, a 252 x 252 grid, so the
support kernels cost in proportion to the occupied sector rather than the
register.  Only :func:`basis_matrix` needs SciPy, and it imports it on its
first call, so the routes that never compile a basis start on NumPy alone.
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
    flip mask; each distinct flip costs one gather of the ket on the
    support's grid (:func:`_applied_on_grid`), and all Z/I terms share the
    flip-0 pass, which gathers nothing (a diagonal operator builds no
    grid).  The one reduction is the pairwise ``np.sum`` of
    conj(psi) * Ô|psi> in support order.
    """
    if support.shape != amps.shape:
        raise ValueError(f"dimension mismatch: {support.shape} support vs {amps.shape} amplitudes")
    groups = _flip_groups(op)
    if any(groups):
        applied = _applied_on_grid(groups, op.n_qubits, support, amps)
    else:  # Z/I terms only: nothing to gather, so no grid
        applied = np.zeros(amps.shape, dtype=complex)
        applied += _group_elements(groups[0], support) * amps
    return complex(np.sum(amps.conj() * applied))


def _applied_on_grid(groups: dict[int, list[tuple[complex, int]]], n: int,
                     support: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Ô|psi> in support order, summed group by group on the support's grid.

    Each index splits into its high n - n//2 bits and its low n//2 bits
    (the up and the down block, for the spin layout); the support's
    distinct halves are the grid's rows and columns.  A sorted support of
    rows x cols states is the grid in row-major order, and its amplitudes
    reshape onto it; any other is scattered into a zero grid and read
    back.  A flip (fu, fd) gathers whole rows when fd = 0, whole columns
    when fu = 0, and both otherwise.  Matrix elements are evaluated per
    row when every sign mask lies in the high half, per column when every
    one lies in the low half, and per grid entry otherwise, so each is the
    same number as on the flat support.
    """
    low = n // 2
    mask = (1 << low) - 1
    highs, lows = support >> low, support & mask
    rows, rank_rows = _grid_axis(highs, n - low)
    cols, rank_cols = _grid_axis(lows, low)
    shape = (rows.size, cols.size)
    # the extra zero row and column stand for every target off the grid
    ket = np.zeros((rows.size + 1, cols.size + 1), dtype=complex)
    filled = support.size == rows.size * cols.size and bool(np.all(support[1:] > support[:-1]))
    if filled:  # the support is the grid in row-major order
        grid, values = support, amps.reshape(shape)
        ket[:-1, :-1] = values
    else:
        at = rank_rows[highs], rank_cols[lows]
        ket[at] = amps
        grid, values = ((rows[:, None] << low) | cols).ravel(), ket[:-1, :-1]
    del highs, lows
    applied = np.zeros(shape, dtype=complex)
    for flip, parts in groups.items():
        fu, fd = flip >> low, flip & mask
        if not flip:
            gathered = values
        elif fu and fd:
            gathered = ket[np.ix_(rank_rows[rows ^ fu], rank_cols[cols ^ fd])]
        elif fu:
            gathered = ket[rank_rows[rows ^ fu], :-1]
        else:
            gathered = ket[:-1, rank_cols[cols ^ fd]]
        if all(sign & mask == 0 for _, sign in parts):
            elements = _group_elements([(c, sign >> low) for c, sign in parts], rows ^ fu)[:, None]
        elif all(sign >> low == 0 for _, sign in parts):
            elements = _group_elements(parts, cols ^ fd)
        else:
            elements = _group_elements(parts, grid ^ flip).reshape(shape)
        applied += elements * gathered
    return applied.ravel() if filled else applied[at]


def _grid_axis(halves: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values among ``halves`` (``bits`` wide), and a rank
    table over all 2^bits values: each value's position, or the axis length
    (the extra zero row or column) for a value not on the axis."""
    present = np.zeros(1 << bits, dtype=bool)
    present[halves] = True
    axis = np.flatnonzero(present)
    rank = np.full(1 << bits, axis.size)
    rank[axis] = np.arange(axis.size)
    return axis, rank


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
