"""Dense statevector engine and the iterative exact ground-state oracle.

Amplitude indexing puts qubit 0 in the most significant bit, so a ket
written left-to-right reads off directly as a binary index.  Each gate
kind has its own kernel that updates the amplitudes in place through a
reshaped view with one length-2 axis per gate qubit: RZ and CRZ scale
halves by e^{∓i*theta/2}, H is a butterfly and X swaps the two halves.
The same kernels run on a :class:`SupportState`, whose register is kept
only on its occupied basis states: its ancillas are the leading axes,
and a diagonal gate on a register qubit scales each support row by the
phase of that qubit's bit.  Every gate is followed by a norm check.
Expectations sum only over the state's support
(:func:`gutzmc.pauli.support_matrix_element`), and the ground-state oracle
compiles the operator once into a sparse matrix on the requested particle
sector and makes one eigensolve there (dense, or one Lanczos run), so the
exact routes cost in proportion to the occupied sector rather than the
2**n register.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# apply_pauli_sum is unused here but stays importable: the benchmark's tracer
# wraps gutzmc.statevector.apply_pauli_sum by name.
from .pauli import PauliSum, apply_pauli_sum, basis_matrix, support_matrix_element  # noqa: F401

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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        # NumPy divides a complex by n as (re, im) * (1/n), so this gives the
        # same values as amplitudes / n without a complex division per entry.
        return StateVector(self.n_qubits, self.amplitudes * (1.0 / n))


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


def _scale_halves(view: np.ndarray, axis: int, theta: float) -> None:
    """R_Z on ``axis``: the bit-0 half by e^{-i*theta/2}, the bit-1 half by e^{+i*theta/2}."""
    real, imag = _rz_phases(theta)
    lead = (slice(None),) * axis
    for bit in (0, 1):
        _scale(view[lead + (bit,)], real[bit], imag[bit])


def _scale_rows(view: np.ndarray, state: SupportState, q: int, theta: float) -> None:
    """R_Z on register qubit ``q``: each support row (the view's last axis)
    by e^{-i*theta/2} or e^{+i*theta/2}, as that row's bit of ``q`` is 0 or 1."""
    real, imag = _rz_phases(theta)
    bits = (state.support >> (state.n_register - 1 - q)) & 1
    _scale(view, np.array(real, dtype=complex)[bits], np.array(imag)[bits])


def _lead_axis(state, q: int) -> int | None:
    """Position of qubit ``q`` among the leading length-2 axes of the amplitudes.

    Every qubit of a dense state leads; the register qubits of a
    :class:`SupportState` do not (None) and are read off its support.
    """
    if isinstance(state, SupportState):
        return q - state.n_register if q >= state.n_register else None
    return q


def _split(state, q: int) -> np.ndarray:
    """The amplitudes as (before, qubit q, after) for a leading qubit ``q``."""
    axis = _lead_axis(state, q)
    if axis is None:
        raise ValueError(f"qubit {q} is kept on a support; only RZ/CRZ may act on it")
    return state.amplitudes.reshape(1 << axis, 2, -1)


# Each kernel reshapes the contiguous amplitudes so that every gate qubit
# has its own length-2 axis; slices of that view write through.


def _rz_kernel(state, gate: Gate) -> None:
    q = gate.qubits[0]
    axis = _lead_axis(state, q)
    if axis is None:
        _scale_rows(state.amplitudes.reshape(-1, state.support.size), state, q, gate.angle)
    else:
        _scale_halves(state.amplitudes.reshape(1 << axis, 2, -1), 1, gate.angle)


def _crz_kernel(state, gate: Gate) -> None:
    control, target = _lead_axis(state, gate.qubits[0]), _lead_axis(state, gate.qubits[1])
    if control is None:
        raise ValueError(f"CRZ control {gate.qubits[0]} is kept on a support")
    if target is None:
        view = state.amplitudes.reshape(1 << control, 2, -1, state.support.size)
        _scale_rows(view[:, 1], state, gate.qubits[1], gate.angle)
        return
    low, high = sorted((control, target))
    view = state.amplitudes.reshape(1 << low, 2, 1 << (high - low - 1), 2, -1)
    if control < target:
        _scale_halves(view[:, 1], 2, gate.angle)
    else:
        _scale_halves(view[:, :, :, 1], 1, gate.angle)


def _h_kernel(state, gate: Gate) -> None:
    view = _split(state, gate.qubits[0])
    low, high = view[:, 0], view[:, 1]
    diff = low - high
    low += high
    low *= 1.0 / np.sqrt(2.0)
    np.multiply(diff, 1.0 / np.sqrt(2.0), out=high)


def _x_kernel(state, gate: Gate) -> None:
    view = _split(state, gate.qubits[0])
    view[...] = view[:, ::-1]  # NumPy buffers overlapping operands


_KERNELS = {"H": _h_kernel, "X": _x_kernel, "RZ": _rz_kernel, "CRZ": _crz_kernel}


def apply_gate(state: StateVector | SupportState, gate: Gate) -> StateVector | SupportState:
    """Apply one gate in place and return the (mutated) state.

    The gate kind's kernel updates the amplitude array itself.  On a
    :class:`SupportState`, H and X on a register qubit raise ``ValueError``
    (they would leave the support), as does a CRZ controlled by one.  A
    non-contiguous or read-only array is first replaced by a contiguous
    copy: reshaping it would copy, and the update would be lost.  The norm
    is checked against the input norm after every gate; unitarity makes
    any drift a genuine bug, so a violation raises ``FloatingPointError``
    rather than warns.
    """
    _apply_checked(state, gate, None)
    return state


def _apply_checked(state: StateVector | SupportState, gate: Gate, norm_in: float | None) -> float:
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
    _KERNELS[gate.name](state, gate)
    norm_out = math.sqrt(np.vdot(amps, amps).real)
    if abs(norm_out - norm_in) > 1e-12 * max(1.0, norm_in):
        raise FloatingPointError(
            f"gate {gate.name} changed the norm by {abs(norm_out - norm_in):.3e}"
        )
    return norm_out


def apply_circuit(state: StateVector | SupportState, gates) -> StateVector | SupportState:
    """Apply the gates in order, as :func:`apply_gate` does.

    Each gate's input norm is the previous gate's checked output norm, so
    a circuit takes one norm per gate plus one.
    """
    norm = None
    for g in gates:
        norm = _apply_checked(state, g, norm)
    return state


def expectation(state: StateVector, op: PauliSum) -> complex:
    """<state|Ô|state>.  Real to 1e-10 whenever Ô is Hermitian."""
    return support_matrix_element(state.amplitudes, op, state.amplitudes)


# ---------------------------------------------------------------------------
# exact ground-state oracle


# Sectors up to this many states are diagonalized densely, larger ones by
# Lanczos.  With one BLAS thread (Hubbard sectors) dense takes 1.2 ms at 100
# states against 1.5-1.9 for Lanczos, 5-7 ms at 224 against 1.6-2.5, and
# 25 ms at 400 against 2.6-5.7: the two cross near 120 states.
DENSE_MAX_DIM = 200
# Every eigenpair returned has ||H v - E v|| <= this * max(1, |E|).  Lanczos
# stops at ||r|| <= this/100 * |E|; the energy's error is quadratic in ||r||.
_RESIDUAL_TOL = 1e-9


class EigensolveError(RuntimeError, ArithmeticError):
    """The ground-state eigensolve did not converge or failed its residual check."""


@dataclass(frozen=True)
class GroundStateResult:
    """Lowest eigenpair of an operator inside a sector."""

    energy: float
    state: StateVector


def _lanczos_ground_level(matrix) -> tuple[np.ndarray, np.ndarray]:
    """The lowest eigenpair of a sparse Hermitian matrix, as eigsh returns it
    (one value, one column), from one Lanczos run with a fixed start vector.

    A degenerate lowest level still gives its exact value, with one vector
    of that level.  A half-filled sector of a bipartite Hubbard lattice has
    a unique ground state (E. H. Lieb, PRL 62, 1201 (1989)).
    """
    import scipy.sparse.linalg as spla

    dim = matrix.shape[0]
    v0 = np.random.default_rng(12345).standard_normal(dim)  # fixed start for reproducibility
    try:
        return spla.eigsh(matrix, k=1, which="SA", v0=v0, ncv=min(dim, 20),
                          tol=1e-2 * _RESIDUAL_TOL)
    except spla.ArpackNoConvergence as err:
        raise EigensolveError("ground-state iteration did not converge") from err


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
        Energy and the eigenvector scattered back to the full register.
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

    full = np.zeros(1 << n_qubits, dtype=complex)
    full[basis] = vec
    state = StateVector(n_qubits, full).normalized()
    return GroundStateResult(energy, state)
