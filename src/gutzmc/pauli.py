"""Pauli-string algebra over qubit registers.

A term is a complex coefficient attached to a symbol string such as
``"XXIZ"``; the leftmost symbol acts on qubit 0, which is the most
significant bit of the amplitude index.  All application routines are
matrix-free: each string is compiled once into XOR/parity bit masks and
then applied to amplitude arrays with vectorized gathers, so no dense
operator is ever materialized outside of small test helpers.

Matrix elements and diagonal eigenvalues are evaluated on a support:
:func:`support_matrix_element` sums only over the basis states where the
bra is nonzero, and :func:`diagonal_eigenvalues` takes the basis indices
it is needed on.  A half-filled trial at chain:10 lives on 63,504 of the
1,048,576 register states, so these kernels cost in proportion to the
occupied sector rather than the register.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

_SYMBOLS = frozenset("IXYZ")

# Single-qubit matrices, used only by to_matrix() below.
_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@lru_cache(maxsize=None)
def _masks(operators: str) -> tuple[int, int, int]:
    """Compile a symbol string to (flip_mask, sign_mask, n_y).

    ``flip_mask`` marks qubits whose bit is toggled (X and Y), ``sign_mask``
    marks qubits contributing a (-1)^bit sign (Z and Y), and ``n_y`` counts
    Y symbols, each of which contributes a factor i on top of the sign.
    """
    n = len(operators)
    flip = sign = n_y = 0
    for q, sym in enumerate(operators):
        bit = 1 << (n - 1 - q)
        if sym == "X":
            flip |= bit
        elif sym == "Y":
            flip |= bit
            sign |= bit
            n_y += 1
        elif sym == "Z":
            sign |= bit
        elif sym != "I":
            raise ValueError(f"unknown Pauli symbol {sym!r} in {operators!r}")
    return flip, sign, n_y


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
    def is_identity(self) -> bool:
        return set(self.operators) <= {"I"}

    @property
    def is_diagonal(self) -> bool:
        return set(self.operators) <= {"I", "Z"}


def _term_action(term: PauliTerm, amps: np.ndarray, dim: int) -> np.ndarray:
    """Return term|amps> for amplitude arrays indexed on the last axis."""
    flip, sign, n_y = _masks(term.operators)
    src = np.arange(dim) ^ flip
    # Matrix element <b|P|b^flip>: sign is evaluated at the source index.
    parity = (np.bitwise_count(src & sign) & 1).astype(np.float64)
    phase = term.coefficient * (1j) ** (n_y % 4) * (1.0 - 2.0 * parity)
    return amps[..., src] * phase


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

    @classmethod
    def identity(cls, n_qubits: int, coefficient: complex = 1.0) -> "PauliSum":
        return cls.from_terms([PauliTerm(coefficient, "I" * n_qubits)])

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
    out = np.zeros(amps.shape, dtype=complex)
    for t in op.terms:
        out += _term_action(t, amps, dim)
    return out


def support_matrix_element(bra: np.ndarray, op: PauliSum, ket: np.ndarray) -> complex:
    """⟨bra|Ô|ket⟩ summed over the basis states where ``bra`` is nonzero.

    States outside the bra's support contribute exactly zero, so this is
    exact for any operator and any pair of full-register amplitude arrays;
    no number conservation is assumed.  Terms are grouped by flip mask:
    each distinct flip costs one gather ``ket[b ^ flip]`` and one dot
    product, and all Z/I terms share the flip-0 pass.
    """
    dim = 1 << op.n_qubits
    if bra.shape != (dim,) or ket.shape != (dim,):
        raise ValueError(
            f"dimension mismatch: {bra.shape}/{ket.shape} amplitudes vs {op.n_qubits} qubits"
        )
    support = np.flatnonzero(bra)
    bra_s = bra[support]
    groups: dict[int, list[tuple[complex, int]]] = {}
    for t in op.terms:
        flip, sign, n_y = _masks(t.operators)
        groups.setdefault(flip, []).append((t.coefficient * (1j) ** (n_y % 4), sign))
    total = 0j
    for flip, parts in groups.items():
        src = support ^ flip
        # Matrix element <b|P|b^flip>: sign is evaluated at the source index.
        coef = np.zeros(support.size, dtype=complex)
        for c, sign in parts:
            coef += c * (1.0 - 2.0 * (np.bitwise_count(src & sign) & 1))
        total += np.vdot(bra_s, coef * ket[src])
    return complex(total)


def diagonal_eigenvalues(op: PauliSum, basis: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalue of a Z/I-only PauliSum on computational basis states.

    The result d(b) satisfies Ô|b⟩ = d(b)|b⟩; it is returned as a real
    array over the indices in ``basis``, or over all 2**n_qubits states
    when ``basis`` is None.
    """
    if not op.is_diagonal:
        raise ValueError("operator has X/Y content; not diagonal")
    idx = np.arange(1 << op.n_qubits) if basis is None else np.asarray(basis)
    vals = np.zeros(idx.shape, dtype=np.float64)
    for t in op.terms:
        _, sign, _ = _masks(t.operators)
        if abs(t.coefficient.imag) > 1e-14:
            raise ValueError("diagonal operator with non-real coefficient")
        parity = (np.bitwise_count(idx & sign) & 1).astype(np.float64)
        vals += t.coefficient.real * (1.0 - 2.0 * parity)
    return vals
