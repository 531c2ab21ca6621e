"""Dense statevector engine and the iterative exact ground-state oracle.

Amplitude indexing puts qubit 0 in the most significant bit, so a ket
written left-to-right reads off directly as a binary index.  Gates act in
place through tensor reshapes; Pauli sums act matrix-free through the
mask machinery in :mod:`gutzmc.pauli`.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from .pauli import PauliSum, _masks, apply_pauli_sum

_GATE_NAMES = ("H", "X", "RZ", "CRZ")


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
        if self.name not in _GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate targets must be distinct")
        if self.angle is not None and not np.isfinite(self.angle):
            raise ValueError("gate angle must be finite")

    def matrix(self) -> np.ndarray:
        """Dense 2x2 or 4x4 unitary for this gate."""
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


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the (mutated) state.

    The norm is checked against the input norm afterwards; unitarity makes
    any drift a genuine bug, so a violation raises rather than warns.
    """
    n = state.n_qubits
    for q in gate.qubits:
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range for {n} qubits")
    norm_in = np.linalg.norm(state.amplitudes)
    k = len(gate.qubits)
    tensor = state.amplitudes.reshape((2,) * n)
    mat = gate.matrix().reshape((2,) * (2 * k))
    # Contract the gate onto the target axes, then restore axis order.
    moved = np.tensordot(mat, tensor, axes=(tuple(range(k, 2 * k)), gate.qubits))
    tensor = np.moveaxis(moved, tuple(range(k)), gate.qubits)
    state.amplitudes = np.ascontiguousarray(tensor).reshape(-1)
    norm_out = np.linalg.norm(state.amplitudes)
    if abs(norm_out - norm_in) > 1e-12 * max(1.0, norm_in):
        raise FloatingPointError(
            f"gate {gate.name} changed the norm by {abs(norm_out - norm_in):.3e}"
        )
    return state


def apply_circuit(state: StateVector, gates) -> StateVector:
    for g in gates:
        apply_gate(state, g)
    return state


def expectation(state: StateVector, op: PauliSum) -> complex:
    """<state|Ô|state>.  Real to 1e-10 whenever Ô is Hermitian."""
    if op.n_qubits != state.n_qubits:
        raise ValueError("qubit count mismatch")
    return complex(
        np.vdot(state.amplitudes, apply_pauli_sum(state.amplitudes, op))
    )


def matrix_element(bra: StateVector, op: PauliSum | None, ket: StateVector) -> complex:
    """<bra|Ô|ket> with Ô = identity when op is None."""
    if bra.n_qubits != ket.n_qubits:
        raise ValueError("qubit count mismatch")
    if op is None:
        return bra.inner(ket)
    if op.n_qubits != ket.n_qubits:
        raise ValueError("qubit count mismatch")
    return complex(np.vdot(bra.amplitudes, apply_pauli_sum(ket.amplitudes, op)))


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
    idx = np.arange(1 << n_qubits, dtype=np.int64)
    if particle_sector is None:
        return idx
    if isinstance(particle_sector, int):
        return idx[np.bitwise_count(idx) == particle_sector]
    n_up, n_down = particle_sector
    if n_qubits % 2:
        raise ValueError("per-spin sectors require an even qubit count")
    half = n_qubits // 2
    b_up = idx >> half
    b_down = idx & ((1 << half) - 1)
    keep = (np.bitwise_count(b_up) == n_up) & (np.bitwise_count(b_down) == n_down)
    return idx[keep]


def _compile_actions(op: PauliSum, basis: np.ndarray):
    """Precompute, per term, the in-sector scatter (dst, src, amplitude).

    Individual Pauli strings of a number-conserving sum can scatter out of
    the sector; those contributions cancel in the summed operator, so they
    are simply dropped here.
    """
    actions = []
    for t in op.terms:
        flip, sign, n_y = _masks(t.operators)
        tgt = basis ^ flip
        pos = np.searchsorted(basis, tgt)
        pos_c = np.minimum(pos, len(basis) - 1)
        valid = basis[pos_c] == tgt
        src = np.nonzero(valid)[0]
        dst = pos_c[valid]
        parity = (np.bitwise_count(basis[src] & sign) & 1).astype(np.float64)
        amp = t.coefficient * (1j) ** (n_y % 4) * (1.0 - 2.0 * parity)
        actions.append((dst, src, amp))
    return actions


def exact_ground_state(
    op: PauliSum,
    n_qubits: int,
    particle_sector: int | tuple[int, int] | None = None,
) -> GroundStateResult:
    """Lowest eigenpair of a Hermitian PauliSum, matrix-free.

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
    actions = _compile_actions(op, basis)

    def matvec(x: np.ndarray) -> np.ndarray:
        y = np.zeros(dim, dtype=complex)
        for dst, src, amp in actions:
            y[dst] += amp * x[src]
        return y

    if dim <= 2048:
        dense = np.zeros((dim, dim), dtype=complex)
        for dst, src, amp in actions:
            dense[dst, src] += amp
        vals, vecs = np.linalg.eigh(dense)
        energy = float(vals[0])
        vec = vecs[:, 0]
        degeneracy = int(np.sum(vals < vals[0] + 1e-8))
    else:
        k = min(6, dim - 1)
        rng = np.random.default_rng(12345)  # fixed start for reproducibility
        v0 = rng.standard_normal(dim)
        linop = spla.LinearOperator((dim, dim), matvec=matvec, dtype=complex)
        try:
            vals, vecs = spla.eigsh(
                linop, k=k, which="SA", v0=v0, ncv=min(dim, max(40, 4 * k))
            )
        except spla.ArpackNoConvergence as err:
            raise RuntimeError("ground-state iteration did not converge") from err
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        energy = float(vals[0])
        vec = vecs[:, 0]
        degeneracy = int(np.sum(vals < vals[0] + 1e-8))

    residual = np.linalg.norm(matvec(vec) - energy * vec)
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
