"""Statevector engine and the iterative exact ground-state oracle.

Amplitude indexing puts qubit 0 in the most significant bit, so a ket
written left-to-right reads off directly as a binary index.  The one state
type, :class:`SupportState`, keeps a register only on its occupied basis
states, times any ancillas: the trial (on its particle sector), the exact
projection, the LCU circuit and its ancilla-|0…0> branch, and the ground
state.  :class:`StateVector` is a register-only one on every basis state.
Gates update the amplitudes in place.  H (a butterfly) and X (a swap of
halves) act on an ancilla only, a leading length-2 axis of a reshaped
view.  RZ and CRZ share one phase kernel: a CRZ first narrows the storage
to its control ancilla's 1 half, then every amplitude is scaled by
e^{∓i*theta/2} as its target bit is 0 or 1, read off the support for a
register qubit and off the storage row's ancilla index for an ancilla.
Every gate is followed by a norm check.  Expectations run one kernel over
the state's support (:func:`gutzmc.pauli.support_expectation`), and the
ground-state oracle compiles the operator once into a sparse matrix on the
requested particle sector and makes one eigensolve there (dense, or one
Lanczos run), so the exact routes cost in proportion to the occupied
sector rather than the 2**n register.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# apply_pauli_sum is unused here but stays importable: the benchmark's tracer
# wraps gutzmc.statevector.apply_pauli_sum by name.
from .pauli import (  # noqa: F401
    PauliSum, apply_pauli_sum, basis_matrix, support_expectation,
)

@dataclass
class SupportState:
    """Ancilla qubits times a register kept only on its occupied basis states.

    Qubits are numbered as in :class:`gutzmc.lattice.QubitLayout`: the
    register is qubits ``0 .. n_register-1`` and the ancillas follow.  The
    storage is ancilla-major: ``amplitudes[a * len(support) + r]`` belongs
    to ancilla state ``a`` (first ancilla most significant) and register
    basis state ``support[r]``.  Only gates diagonal on the register keep
    the state inside its support, so H and X may act on ancillas only.
    """

    n_register: int
    n_ancillas: int
    support: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.support = np.asarray(self.support, dtype=np.int64)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        s = self.support
        valid = (s.ndim == 1 and s.size > 0 and bool(np.all(np.diff(s) > 0))
                 and 0 <= s[0] and s[-1] < 1 << self.n_register)
        if not valid:
            raise ValueError("support must be sorted, distinct register basis indices")
        if self.amplitudes.shape != ((1 << self.n_ancillas) * s.size,):
            raise ValueError(
                f"expected {1 << self.n_ancillas} x {s.size} amplitudes, "
                f"got shape {self.amplitudes.shape}"
            )

    @property
    def n_qubits(self) -> int:
        return self.n_register + self.n_ancillas

    def squared_norm(self) -> float:
        """Sum of |amplitude|^2, as NumPy's pairwise sum of the squared real
        and imaginary parts: the same bits at any BLAS thread count."""
        parts = np.ascontiguousarray(self.amplitudes).view(np.float64)
        return float(np.sum(parts * parts))

    def normalized(self) -> "SupportState":
        """A unit-norm copy on the same support."""
        n = math.sqrt(self.squared_norm())
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return SupportState(self.n_register, self.n_ancillas, self.support,
                            self.amplitudes * (1.0 / n))


class StateVector(SupportState):
    """A register-only :class:`SupportState` on every basis state of ``n_qubits``."""

    def __init__(self, n_qubits: int, amplitudes: np.ndarray) -> None:
        super().__init__(n_qubits, 0, np.arange(1 << n_qubits), amplitudes)


@dataclass(frozen=True)
class Gate:
    """One gate of the small fixed set used by the circuits here.

    ``qubits`` lists targets most-significant-first; for controlled gates
    the control comes first.  RZ and CRZ take a finite ``angle``; H and X
    take none.
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.name not in _GATES:
            raise ValueError(f"unknown gate {self.name!r}")
        arity = _GATES[self.name][0]
        if len(self.qubits) != arity:
            raise ValueError(f"gate {self.name} acts on {arity} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate targets must be distinct")
        if self.name in ("RZ", "CRZ"):
            if self.angle is None or not np.isfinite(self.angle):
                raise ValueError(f"gate {self.name} needs a finite angle")
        elif self.angle is not None:
            raise ValueError(f"gate {self.name} takes no angle")

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


def _scale(view: np.ndarray, real, imag) -> None:
    """``view *= real + imag`` with every product and sum rounded on its own.

    ``real`` is the phase's real part and ``imag`` its imaginary part as
    the complex number 0 + i*y; either may be an array broadcast against
    the view.  A complex multiply may fuse a*b - c*d into one rounding,
    and whether it does depends on the platform; the split form does not.
    """
    product = view * imag
    view *= real
    view += product


def _rz_phases(theta: float) -> tuple[tuple[float, float], tuple[complex, complex]]:
    """Real and imaginary parts of e^{-i*theta/2} (bit 0) and e^{+i*theta/2} (bit 1)."""
    low, high = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    return (low.real, high.real), (complex(0.0, low.imag), complex(0.0, high.imag))


def _split(state: SupportState, q: int) -> np.ndarray:
    """The amplitudes as (before, qubit q, after) for an ancilla ``q``; a
    register qubit, read off the support, raises."""
    if q < state.n_register:
        raise ValueError(f"qubit {q} is kept on a support; it may only be an RZ or CRZ target")
    return state.amplitudes.reshape(1 << (q - state.n_register), 2, -1)


def _phase_kernel(state: SupportState, gate: Gate) -> None:
    """R_Z on the gate's last qubit; a CRZ acts on its control's 1 half only.

    The storage, narrowed by a CRZ through :func:`_split`, is viewed as
    (before, ancilla rows, support).  Each amplitude is scaled by
    e^{-i*theta/2} or e^{+i*theta/2} as its target bit is 0 or 1: the bit
    of its support entry for a register qubit, of its row's ancilla index
    for an ancilla.  The reshapes only split axes of the contiguous
    amplitudes, so the view writes through.
    """
    *control, target = gate.qubits
    view, rows = state.amplitudes.reshape(1, -1), np.arange(1 << state.n_ancillas)
    if control:
        view = _split(state, control[0])[:, 1]
        rows = rows[(rows >> (state.n_qubits - 1 - control[0])) & 1 == 1]
    view = view.reshape(len(view), -1, state.support.size)
    if target < state.n_register:
        bits = (state.support >> (state.n_register - 1 - target)) & 1
    else:
        bits = (rows.reshape(len(view), -1, 1) >> (state.n_qubits - 1 - target)) & 1
    real, imag = _rz_phases(gate.angle)
    _scale(view, np.array(real, dtype=complex)[bits], np.array(imag)[bits])


def _h_kernel(state: SupportState, gate: Gate) -> None:
    view = _split(state, gate.qubits[0])
    low, high = view[:, 0], view[:, 1]
    diff = low - high
    low += high
    low *= 1.0 / np.sqrt(2.0)
    np.multiply(diff, 1.0 / np.sqrt(2.0), out=high)


def _x_kernel(state: SupportState, gate: Gate) -> None:
    view = _split(state, gate.qubits[0])
    view[...] = view[:, ::-1]  # NumPy buffers overlapping operands


# Each gate kind's qubit count and kernel.
_GATES = {"H": (1, _h_kernel), "X": (1, _x_kernel),
          "RZ": (1, _phase_kernel), "CRZ": (2, _phase_kernel)}


def apply_gate(state: SupportState, gate: Gate) -> SupportState:
    """Apply one gate in place and return the (mutated) state.

    The gate kind's kernel updates the amplitude array itself.  H and X on
    a register qubit raise ``ValueError`` (they would leave the support),
    as does a CRZ controlled by one.  A non-contiguous or read-only array
    is first replaced by a contiguous copy: reshaping it would copy, and
    the update would be lost.  The norm
    is checked against the input norm after every gate; unitarity makes
    any drift a genuine bug, so a violation raises ``FloatingPointError``
    rather than warns.
    """
    _apply_checked(state, gate, None)
    return state


def _apply_checked(state: SupportState, gate: Gate, norm_in: float | None) -> float:
    """apply_gate's work, given the input norm if it is already known;
    returns the checked output norm."""
    n = state.n_qubits
    for q in gate.qubits:
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range for {n} qubits")
    amps = state.amplitudes
    if not (amps.flags.c_contiguous and amps.flags.writeable):
        amps = state.amplitudes = amps.copy()
    if norm_in is None:
        norm_in = math.sqrt(np.vdot(amps, amps).real)
    _GATES[gate.name][1](state, gate)
    norm_out = math.sqrt(np.vdot(amps, amps).real)
    if abs(norm_out - norm_in) > 1e-12 * max(1.0, norm_in):
        raise FloatingPointError(
            f"gate {gate.name} changed the norm by {abs(norm_out - norm_in):.3e}"
        )
    return norm_out


def apply_circuit(state: SupportState, gates) -> SupportState:
    """Apply the gates in order, as :func:`apply_gate` does.

    Each gate's input norm is the previous gate's checked output norm, so
    a circuit takes one norm per gate plus one.
    """
    norm = None
    for g in gates:
        norm = _apply_checked(state, g, norm)
    return state


def expectation(state: SupportState, op: PauliSum) -> complex:
    """<state|Ô|state> for a register-only state.  Real to 1e-10 whenever Ô
    is Hermitian."""
    if state.n_ancillas or op.n_qubits != state.n_register:
        raise ValueError(f"dimension mismatch: {op.n_qubits}-qubit operator on a "
                         f"{state.n_register}-qubit register with {state.n_ancillas} ancillas")
    return support_expectation(op, state.support, state.amplitudes)


# ---------------------------------------------------------------------------
# exact ground-state oracle


# Sectors up to this many states are diagonalized densely, larger ones by
# Lanczos.  On Hubbard sectors (one BLAS thread, best of 5, three runs on a
# 2 vCPU Xeon) dense takes 0.8-1.2 ms at 100 states against 1.5-2.1 for
# Lanczos, 1.7-2.4 at 144 against 2.0-3.0, 1.8-2.5 at 147 against 1.5-2.4
# and 3.9-6.7 at 224 against 1.5-3.2: each run crosses between 144 and 147.
DENSE_MAX_DIM = 144
# Every eigenpair returned has ||H v - E v|| <= this * max(1, |E|).  Lanczos
# stops at ||r|| <= this/100 * |E|; the energy's error is quadratic in ||r||.
_RESIDUAL_TOL = 1e-9


class EigensolveError(RuntimeError, ArithmeticError):
    """The ground-state eigensolve did not converge or failed its residual check."""


@dataclass(frozen=True)
class GroundStateResult:
    """Lowest eigenpair of an operator inside a sector."""

    energy: float
    state: SupportState  # register-only, on the sector's basis states


def _lanczos_ground_level(matrix) -> tuple[np.ndarray, np.ndarray]:
    """The lowest eigenpair of a sparse Hermitian matrix, as eigsh returns it
    (one value, one column), from one Lanczos run with a fixed start vector.

    A degenerate lowest level still gives its exact value, with one vector
    of that level.  A half-filled sector of a bipartite Hubbard lattice has
    a unique ground state (E. H. Lieb, PRL 62, 1201 (1989)).

    No level lies above the start vector's Rayleigh quotient; a value that
    does (ARPACK gives 2 for Z_0 + I on 8 qubits, whose lowest level is 0)
    raises :class:`EigensolveError`, at the cost of one more product.
    """
    import scipy.sparse.linalg as spla

    dim = matrix.shape[0]
    v0 = np.random.default_rng(12345).standard_normal(dim)  # fixed start for reproducibility
    try:
        vals, vecs = spla.eigsh(matrix, k=1, which="SA", v0=v0, ncv=min(dim, 20),
                                tol=1e-2 * _RESIDUAL_TOL)
    except spla.ArpackNoConvergence as err:
        raise EigensolveError("ground-state iteration did not converge") from err
    bound = np.vdot(v0, matrix @ v0).real / (v0 @ v0)
    if vals[0] > bound + _RESIDUAL_TOL * max(1.0, abs(vals[0])):
        raise EigensolveError(f"level {vals[0]:.6g} above the start vector's bound {bound:.6g}")
    return vals, vecs


def _sector_indices(n_qubits: int, particle_sector) -> np.ndarray:
    """Basis indices of the requested occupation sector (sorted)."""
    if particle_sector is None:
        return np.arange(1 << n_qubits, dtype=np.int64)
    n_up, n_down = particle_sector
    if n_qubits % 2:
        raise ValueError("per-spin sectors require an even qubit count")
    half = n_qubits // 2
    block = np.arange(1 << half, dtype=np.int64)
    ups = block[np.bitwise_count(block) == n_up]
    downs = block[np.bitwise_count(block) == n_down]
    # Up block in the high bits: row-major order is already sorted.
    return ((ups[:, None] << half) | downs[None, :]).ravel()


def exact_ground_state(
    op: PauliSum,
    n_qubits: int,
    particle_sector: tuple[int, int] | None = None,
) -> GroundStateResult:
    """Lowest eigenpair of a Hermitian PauliSum inside a particle sector.

    The operator is compiled once into a sparse CSR matrix over the
    sector's basis states (4,900 at ladder:8, against 65,536 register
    states).  Sectors up to ``DENSE_MAX_DIM`` states are diagonalized
    densely; larger ones by one Lanczos run (``eigsh``, one eigenpair).
    A failed solve or residual check raises :class:`EigensolveError`.

    Parameters
    ----------
    op : PauliSum
        Hermitian operator on ``n_qubits`` qubits.
    n_qubits : int
        Register width, at most 24.
    particle_sector : (n_up, n_down) tuple, or None
        Restrict to fixed numbers of set bits per spin block, for
        registers laid out as up-block then down-block; None keeps the
        full register.
        The restriction is exact: iterates live entirely inside the
        sector, which is equivalent to projecting every iterate.

    Returns
    -------
    GroundStateResult
        Energy and the eigenvector as a register-only SupportState on the
        sector's basis states, unit-norm as the eigensolver returns it.
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
    matrix = basis_matrix(op, basis)

    vals, vecs = (np.linalg.eigh(matrix.toarray()) if dim <= DENSE_MAX_DIM
                  else _lanczos_ground_level(matrix))
    energy = float(vals[0])
    vec = vecs[:, 0]

    residual = np.linalg.norm(matrix @ vec - energy * vec)
    if residual > _RESIDUAL_TOL * max(1.0, abs(energy)):
        raise EigensolveError(f"eigenpair residual {residual:.3e} too large")

    return GroundStateResult(energy, SupportState(n_qubits, 0, basis, vec))
