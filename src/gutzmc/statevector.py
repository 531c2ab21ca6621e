"""Dense statevector engine and the iterative exact ground-state oracle.

Amplitude indexing puts qubit 0 in the most significant bit, so a ket
written left-to-right reads off directly as a binary index.  Each gate
kind has its own kernel that updates the amplitudes in place through a
reshaped view with one length-2 axis per gate qubit: RZ and CRZ scale
halves by e^{∓i*theta/2}, H is a butterfly and X swaps the two halves.
Every gate is followed by a norm check.  Expectations and matrix
elements sum only over the bra's support
(:func:`gutzmc.pauli.support_matrix_element`), and the ground-state oracle
compiles the operator once into a sparse matrix on the requested particle
sector, so the exact routes cost in proportion to the occupied sector
rather than the 2**n register.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# apply_pauli_sum is unused here but stays importable: the benchmark's tracer
# wraps gutzmc.statevector.apply_pauli_sum by name.
from .pauli import PauliSum, _masks, apply_pauli_sum, support_matrix_element  # noqa: F401

_GATE_ARITY = {"H": 1, "X": 1, "RZ": 1, "CRZ": 2}


@dataclass
class StateVector:
    """Dense complex amplitudes over a qubit register."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes, "
                f"got shape {self.amplitudes.shape}"
            )

    @classmethod
    def zero_state(cls, n_qubits: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def from_basis_state(cls, n_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.n_qubits, self.amplitudes / n)

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class Gate:
    """One gate of the small fixed set used by the circuits here.

    ``qubits`` lists targets most-significant-first; for controlled gates
    the control comes first.  ``angle`` is only meaningful for RZ/CRZ.
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.name not in _GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != _GATE_ARITY[self.name]:
            raise ValueError(f"gate {self.name} acts on {_GATE_ARITY[self.name]} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate targets must be distinct")
        if self.angle is not None and not np.isfinite(self.angle):
            raise ValueError("gate angle must be finite")

    def matrix(self) -> np.ndarray:
        """Dense 2x2 or 4x4 unitary for this gate (the kernels' test reference)."""
        th = self.angle
        if self.name == "H":
            return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
        if self.name == "X":
            return np.array([[0, 1], [1, 0]], dtype=complex)
        if self.name == "RZ":
            return np.diag([np.exp(-0.5j * th), np.exp(0.5j * th)])
        if self.name == "CRZ":
            return np.diag([1.0, 1.0, np.exp(-0.5j * th), np.exp(0.5j * th)])
        raise AssertionError(self.name)


def hadamard(q: int) -> Gate:
    return Gate("H", (q,))


def pauli_x(q: int) -> Gate:
    return Gate("X", (q,))


def rz(angle: float, q: int) -> Gate:
    return Gate("RZ", (q,), angle)


def crz(angle: float, control: int, target: int) -> Gate:
    return Gate("CRZ", (control, target), angle)


def _scale(view: np.ndarray, phase: complex) -> None:
    """``view *= phase`` with every product and sum rounded on its own.

    A complex multiply may fuse a*b - c*d into one rounding, and whether
    it does depends on the platform; the split form does not.
    """
    imag = view * complex(0.0, phase.imag)
    view *= phase.real
    view += imag


def _scale_halves(view: np.ndarray, axis: int, theta: float) -> None:
    """R_Z on ``axis``: the bit-0 half by e^{-i*theta/2}, the bit-1 half by e^{+i*theta/2}."""
    lead = (slice(None),) * axis
    _scale(view[lead + (0,)], np.exp(-0.5j * theta))
    _scale(view[lead + (1,)], np.exp(0.5j * theta))


# Each kernel reshapes the contiguous amplitudes so that every gate qubit
# has its own length-2 axis; slices of that view write through.


def _rz_kernel(amps: np.ndarray, gate: Gate) -> None:
    _scale_halves(amps.reshape(1 << gate.qubits[0], 2, -1), 1, gate.angle)


def _crz_kernel(amps: np.ndarray, gate: Gate) -> None:
    control, target = gate.qubits
    low, high = sorted(gate.qubits)
    view = amps.reshape(1 << low, 2, 1 << (high - low - 1), 2, -1)
    if control < target:
        _scale_halves(view[:, 1], 2, gate.angle)
    else:
        _scale_halves(view[:, :, :, 1], 1, gate.angle)


def _h_kernel(amps: np.ndarray, gate: Gate) -> None:
    view = amps.reshape(1 << gate.qubits[0], 2, -1)
    low, high = view[:, 0], view[:, 1]
    diff = low - high
    low += high
    low *= 1.0 / np.sqrt(2.0)
    np.multiply(diff, 1.0 / np.sqrt(2.0), out=high)


def _x_kernel(amps: np.ndarray, gate: Gate) -> None:
    view = amps.reshape(1 << gate.qubits[0], 2, -1)
    view[...] = view[:, ::-1]  # NumPy buffers overlapping operands


_KERNELS = {"H": _h_kernel, "X": _x_kernel, "RZ": _rz_kernel, "CRZ": _crz_kernel}


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the (mutated) state.

    The gate kind's kernel updates the amplitude array itself.  A
    non-contiguous or read-only array is first replaced by a contiguous
    copy: reshaping it would copy, and the update would be lost.  The norm
    is checked against the input norm after every gate; unitarity makes
    any drift a genuine bug, so a violation raises ``FloatingPointError``
    rather than warns.
    """
    n = state.n_qubits
    for q in gate.qubits:
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range for {n} qubits")
    amps = state.amplitudes
    if not (amps.flags.c_contiguous and amps.flags.writeable):
        amps = state.amplitudes = amps.copy()
    norm_in = math.sqrt(np.vdot(amps, amps).real)
    _KERNELS[gate.name](amps, gate)
    norm_out = math.sqrt(np.vdot(amps, amps).real)
    if abs(norm_out - norm_in) > 1e-12 * max(1.0, norm_in):
        raise FloatingPointError(
            f"gate {gate.name} changed the norm by {abs(norm_out - norm_in):.3e}"
        )
    return state


def apply_circuit(state: StateVector, gates) -> StateVector:
    """Apply the gates in order, each through :func:`apply_gate`."""
    for g in gates:
        apply_gate(state, g)
    return state


def expectation(state: StateVector, op: PauliSum) -> complex:
    """<state|Ô|state>.  Real to 1e-10 whenever Ô is Hermitian."""
    if op.n_qubits != state.n_qubits:
        raise ValueError("qubit count mismatch")
    return support_matrix_element(state.amplitudes, op, state.amplitudes)


def matrix_element(bra: StateVector, op: PauliSum | None, ket: StateVector) -> complex:
    """<bra|Ô|ket> with Ô = identity when op is None."""
    if bra.n_qubits != ket.n_qubits:
        raise ValueError("qubit count mismatch")
    if op is None:
        return bra.inner(ket)
    if op.n_qubits != ket.n_qubits:
        raise ValueError("qubit count mismatch")
    return support_matrix_element(bra.amplitudes, op, ket.amplitudes)


def states_equal_up_to_phase(a: StateVector, b: StateVector, tol: float = 1e-10) -> bool:
    """True when |<a|b>| equals ||a||·||b|| within tol (global phase ignored)."""
    return abs(abs(a.inner(b)) - a.norm() * b.norm()) < tol


# ---------------------------------------------------------------------------
# exact ground-state oracle


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    state: StateVector
    degeneracy: int


def _sector_indices(n_qubits: int, particle_sector) -> np.ndarray:
    """Basis indices of the requested occupation sector (sorted)."""
    if particle_sector is None:
        return np.arange(1 << n_qubits, dtype=np.int64)
    if isinstance(particle_sector, int):
        idx = np.arange(1 << n_qubits, dtype=np.int64)
        return idx[np.bitwise_count(idx) == particle_sector]
    n_up, n_down = particle_sector
    if n_qubits % 2:
        raise ValueError("per-spin sectors require an even qubit count")
    half = n_qubits // 2
    block = np.arange(1 << half, dtype=np.int64)
    ups = block[np.bitwise_count(block) == n_up]
    downs = block[np.bitwise_count(block) == n_down]
    # Up block in the high bits: row-major order is already sorted.
    return ((ups[:, None] << half) | downs[None, :]).ravel()


def _compile_actions(op: PauliSum, basis: np.ndarray) -> sp.csr_matrix:
    """Compile ``op`` restricted to a basis into one sparse matrix.

    Entry [i, j] is <basis[i]|Ô|basis[j]>.  Contributions that scatter out
    of the basis are dropped.  That is exact in two cases: for a
    number-conserving sum on a particle sector (the out-of-sector parts of
    the individual strings cancel in the sum), and for any operator when
    only matrix elements against states supported on ``basis`` are read.
    """
    dim = len(basis)
    position = np.full(1 << op.n_qubits, -1, dtype=np.int64)
    position[basis] = np.arange(dim)
    rows, cols, vals = [], [], []
    for t in op.terms:
        flip, sign, n_y = _masks(t.operators)
        dst = position[basis ^ flip]
        src = np.flatnonzero(dst >= 0)
        parity = (np.bitwise_count(basis[src] & sign) & 1).astype(np.float64)
        rows.append(dst[src])
        cols.append(src)
        vals.append(t.coefficient * (1j) ** (n_y % 4) * (1.0 - 2.0 * parity))
    data = np.concatenate(vals)
    if not data.imag.any():
        data = data.real  # real matrices take the faster real eigensolvers
    coo = (data, (np.concatenate(rows), np.concatenate(cols)))
    return sp.csr_matrix(coo, shape=(dim, dim))


def exact_ground_state(
    op: PauliSum,
    n_qubits: int,
    particle_sector: int | tuple[int, int] | None = None,
) -> GroundStateResult:
    """Lowest eigenpair of a Hermitian PauliSum inside a particle sector.

    The operator is compiled once into a sparse CSR matrix over the
    sector's basis states (4,900 at ladder:8, against 65,536 register
    states).  Sectors up to 2048 states are diagonalized densely; larger
    ones by Lanczos (``eigsh``) on the sparse matrix.

    Parameters
    ----------
    op : PauliSum
        Hermitian operator on ``n_qubits`` qubits.
    n_qubits : int
        Register width, at most 24.
    particle_sector : int, (n_up, n_down) tuple, or None
        Restrict to a fixed number of set bits — either in total, or per
        spin block for registers laid out as up-block then down-block.
        The restriction is exact: iterates live entirely inside the
        sector, which is equivalent to projecting every iterate.

    Returns
    -------
    GroundStateResult
        Energy, the eigenvector scattered back to the full register, and
        the ground-level degeneracy count (eigenvalues within 1e-8).
    """
    if n_qubits > 24:
        raise ValueError("register capped at 24 qubits")
    if op.n_qubits != n_qubits:
        raise ValueError("operator/register mismatch")
    if not op.is_hermitian:
        raise ValueError("operator is not Hermitian")
    basis = _sector_indices(n_qubits, particle_sector)
    dim = len(basis)
    if dim == 0:
        raise ValueError("empty particle sector")
    matrix = _compile_actions(op, basis)

    if dim <= 2048:
        vals, vecs = np.linalg.eigh(matrix.toarray())
    else:
        k = min(6, dim - 1)
        rng = np.random.default_rng(12345)  # fixed start for reproducibility
        v0 = rng.standard_normal(dim)
        try:
            vals, vecs = spla.eigsh(
                matrix, k=k, which="SA", v0=v0, ncv=min(dim, max(40, 4 * k))
            )
        except spla.ArpackNoConvergence as err:
            raise RuntimeError("ground-state iteration did not converge") from err
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    energy = float(vals[0])
    vec = vecs[:, 0]
    degeneracy = int(np.sum(vals < vals[0] + 1e-8))

    residual = np.linalg.norm(matrix @ vec - energy * vec)
    if residual > 1e-9 * max(1.0, abs(energy)):
        raise RuntimeError(f"eigenpair residual {residual:.3e} too large")

    full = np.zeros(1 << n_qubits, dtype=complex)
    full[basis] = vec
    state = StateVector(n_qubits, full).normalized()
    return GroundStateResult(energy, state, degeneracy)


# ---------------------------------------------------------------------------
# amplitude dump (little-endian, 8-byte qubit count then complex128 pairs)


def save_statevector(path: str | Path, state: StateVector) -> None:
    """Binary dump: uint64-LE qubit count, then interleaved re/im doubles."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", state.n_qubits))
        fh.write(state.amplitudes.astype("<c16").tobytes())


def load_statevector(path: str | Path) -> StateVector:
    with open(path, "rb") as fh:
        (n_qubits,) = struct.unpack("<Q", fh.read(8))
        amps = np.frombuffer(fh.read(), dtype="<c16").astype(complex)
    return StateVector(int(n_qubits), amps)
