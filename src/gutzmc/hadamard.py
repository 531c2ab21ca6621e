"""Ancilla-test estimation of dressed matrix elements, two-site assembly.

For a single spin sector the quantities of interest are

    P(s2, O, s1) = <psi0| u(s2) O u(s1) |psi0>,

with u(s) the per-site diagonal field rotations and O a Pauli product.
Because u(s2) O u(s1) is unitary, both quadratures are measurable by the
standard one-ancilla interference test: the real part directly, the
imaginary part through an extra S† on the ancilla.  Shot noise is
simulated by drawing the ancilla counts from the exact Binomial law.

On two sites every projected expectation reduces to sixteen such
primitives per spin sector, and identical sectors enter squared.  The
assembled quantities are

    denominator = gamma^4 * sum_c P_II(c)^2          ( = cosh g )
    zz_numerator = gamma^4 * sum_c P_ZI(c)^2         ( = -sinh g )
    xx_numerator = gamma^4 * sum_c P_XX(c) * P_II(c) ( = 1 )

giving K = -2J*xx/den and U<D> = (U/2)*zz/den.  A synthetic bias model
(per-family contrast loss plus a rotation-angle miscalibration) stands in
for device noise so the anchor-based scale-and-phase correction can be
exercised end to end: families II and XX are anchored at g=0 where the
ideal primitive is exactly 1, ZI at g=10 against the analytic ideal at
rotation angle pi/2.

Each family is evaluated over the sixteen config pairs in one batched
pass: the four-amplitude sector trial is tiled to one row per pair, each
side's dressing scales every row in place with the R_Z gate kernel's
phases and split rounding, and one inner product per row reads off the
value.  An assembly call builds one exact table per family (biased when a
bias model is given) and its anchor values once; each repetition then
draws every family's shots in one binomial call, in the same order as
re-measuring every primitive would.  The estimate carries one primitive
set: what the call measured, corrected when mitigate=True.

Besides the assembly, the module exports hadamard_exact, the one-primitive
entry to the batched pass, and pas_correct, the anchor rescale.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .gutzwiller import HSParams, _validate_config, all_field_vectors, hs_params
from .lattice import build_lattice
from .pauli import PauliSum, apply_pauli_sum
from .slater import ground_state_of_K, sector_amplitudes
from .statevector import StateVector, SupportState, _rz_phases, _scale


class _Family(NamedTuple):
    operator: PauliSum | None  # None for the identity
    depth: int  # measurement-circuit depth; the contrast loss compounds with it
    quadrature: str  # "real" or "imag": the part the family has on this trial


# Shots are drawn family by family in this order.
_FAMILIES = {
    "II": _Family(None, 1, "real"),
    "ZI": _Family(PauliSum.from_ops(2, {0: "Z"}), 2, "imag"),
    "XX": _Family(PauliSum.from_ops(2, {0: "X", 1: "X"}), 3, "real"),
}


@dataclass(frozen=True)
class BiasModel:
    """Synthetic stand-in for hardware error on the test circuits.

    scale is a per-layer contrast factor in (0, 1]; a family whose
    measurement circuit is d layers deep reports scale**d times the true
    value.  phase_offset shifts the dressing rotation angle, modelling a
    miscalibrated pulse.
    """

    scale: float = 1.0
    phase_offset: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")


@dataclass(frozen=True)
class AssembledPrimitives:
    denominator: float
    zz_numerator: float
    xx_numerator: float


@dataclass(frozen=True)
class TwoSiteEstimate:
    """Two-site energy assembled from sixteen-config primitives."""

    E: float
    K: float
    UD: float
    E_err: float
    K_err: float
    UD_err: float
    primitives: AssembledPrimitives


def _dress(rows: np.ndarray, configs: np.ndarray, alpha: float) -> None:
    """u(s) on every row in place, row r dressed by the fields configs[r].

    Site by site, each half of a row is scaled by the phase of
    R_Z(s_i * alpha) for its bit, with the gate kernel's split rounding,
    so every row matches the gate-by-gate circuit bit for bit.  The row
    norms are then checked as :func:`gutzmc.statevector.apply_gate`
    checks each gate; a violation raises ``FloatingPointError``.
    """
    norm_in = np.linalg.norm(rows, axis=1)
    down, up = _rz_phases(-alpha), _rz_phases(alpha)
    real = np.array([down[0], up[0]], dtype=complex)[:, None, :, None]
    imag = np.array([down[1], up[1]])[:, None, :, None]
    for site, field in enumerate(configs.T):
        pick = (field > 0).astype(np.int64)
        _scale(rows.reshape(len(rows), 1 << site, 2, -1), real[pick], imag[pick])
    norm_out = np.linalg.norm(rows, axis=1)
    drift = np.abs(norm_out - norm_in)
    if np.any(drift > 1e-12 * np.maximum(1.0, norm_in)):
        raise FloatingPointError(f"field dressing changed a norm by {drift.max():.3e}")


def _primitive_rows(
    u2_configs: np.ndarray,
    observable: PauliSum | None,
    u1_configs: np.ndarray,
    trial_sector: SupportState,
    params: HSParams,
) -> list[complex]:
    """Exact <psi0| u(s2_r) O u(s1_r) |psi0> for every row r of the config arrays.

    The trial must be register-only on all 2^n basis states of its register,
    since the rows are dressed and the observable applied as dense registers.
    """
    n, size = trial_sector.n_register, trial_sector.support.size
    if trial_sector.n_ancillas or size != 1 << n:
        raise ValueError(f"the trial must be register-only on all {1 << n} basis states of "
                         f"its {n}-qubit register, got {size} support states and "
                         f"n_ancillas={trial_sector.n_ancillas}")
    shape = (len(u1_configs), n)
    sides = [_validate_config(c, shape) for c in (u1_configs, u2_configs)]
    rows = np.tile(trial_sector.amplitudes, (len(sides[0]), 1))
    _dress(rows, sides[0], params.alpha)
    if observable is not None:
        rows = apply_pauli_sum(rows, observable)
    _dress(rows, sides[1], params.alpha)
    return [complex(np.vdot(trial_sector.amplitudes, row)) for row in rows]


def hadamard_exact(
    u2_config: np.ndarray,
    observable: PauliSum | None,
    u1_config: np.ndarray,
    trial_sector: SupportState,
    params: HSParams,
) -> complex:
    """Exact <psi0| u(s2) O u(s1) |psi0> on one spin sector."""
    return _primitive_rows(
        np.asarray(u2_config)[None], observable, np.asarray(u1_config)[None],
        trial_sector, params,
    )[0]


def _shot_estimates(values: list[complex], shots: int, rng: np.random.Generator) -> np.ndarray:
    """Shot estimates of both parts of every value, shape (len(values), 2).

    A part v is estimated by 2 n0 / shots - 1, with n0 ~ Binomial(shots,
    (1 + v) / 2) the ancilla's |0> count.  All parts are drawn in one call,
    real before imaginary, value by value: the same stream as one scalar
    draw per part in that order.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    parts = np.array([(v.real, v.imag) for v in values], dtype=float)
    p0 = np.clip((1.0 + parts) / 2.0, 0.0, 1.0)
    return 2.0 * rng.binomial(shots, p0) / shots - 1.0


def pas_correct(raw_values, reference_raw: float) -> np.ndarray:
    """Rescale raw values by 1 / reference_raw.

    reference_raw is a family's measured anchor factor, whose ideal value
    is exactly 1 (see _anchor_factors); dividing it out removes any bias
    that acts as a common factor on the family.
    """
    if abs(reference_raw) < 1e-6:
        raise ArithmeticError(
            f"anchor value {reference_raw:.2e} too small for a reliable correction"
        )
    return np.asarray(raw_values) * (1.0 / reference_raw)


# ---------------------------------------------------------------------------
# two-site assembly


def two_site_sector_trial() -> SupportState:
    """Single-spin-sector trial for two sites: the one-particle hopping ground state."""
    chain = build_lattice("chain", 2)
    amps = sector_amplitudes(ground_state_of_K(chain, 1))
    return StateVector(2, amps).normalized()


def _all_config_pairs() -> list[tuple[np.ndarray, np.ndarray]]:
    singles = all_field_vectors(2)[::-1]
    return [(s1, s2) for s1 in singles for s2 in singles]


def _exact_values(
    family: str, params: HSParams, trial: SupportState, bias: BiasModel | None
) -> list[complex]:
    """Exact primitives of one family over the sixteen config pairs.

    With a bias model the rotation angle carries its phase offset and each
    value the family's contrast loss, as the device would report them.
    """
    eff = params
    if bias is not None and bias.phase_offset != 0.0:
        eff = HSParams(params.alpha + bias.phase_offset, params.gamma)
    s1, s2 = (np.array(side) for side in zip(*_all_config_pairs()))
    values = _primitive_rows(s2, _FAMILIES[family].operator, s1, trial, eff)
    if bias is not None:
        values = [v * bias.scale ** _FAMILIES[family].depth for v in values]
    return values


def _measured(
    family: str,
    values: list[complex],
    shots: int | None,
    rng: np.random.Generator | None,
) -> list:
    """What the family's measurement circuit reports for each exact value.

    Each family has a definite quadrature on this trial state (II and XX
    are real, ZI purely imaginary), so only that part is kept; with shots
    it is sampled, both parts of every value drawn in one call.  The
    values stay Python scalars, so later complex arithmetic is CPython's.
    """
    real = _FAMILIES[family].quadrature == "real"
    if shots is None:
        return [complex(v.real) if real else 1j * v.imag for v in values]
    parts = _shot_estimates(values, shots, rng)[:, 0 if real else 1].tolist()
    return parts if real else [1j * p for p in parts]


def _anchor_values(
    trial: SupportState, bias: BiasModel | None
) -> tuple[dict[str, list[complex]], list[complex]]:
    """Exact values behind one measurement of every anchor, per family, and
    the ZI ideals the raw ZI values are divided by.

    II and XX anchor at g=0, where every config's ideal primitive equals
    one.  ZI vanishes at g=0, so it anchors deep in the strong-coupling
    regime (g=10) instead; the anchor circuit's rotation angle is a
    known classical parameter, so each raw value is divided by its exact
    ideal.  Only the well-conditioned configs (ideal ±i sin alpha) are
    kept.  With a pure readout-scale bias the recovered factors are
    exact; a phase offset survives only partially.
    """
    at_zero, at_large = hs_params(0.0), hs_params(10.0)
    ideal = _exact_values("ZI", at_large, trial, None)
    raw = ideal if bias is None else _exact_values("ZI", at_large, trial, bias)
    kept = [i for i, v in enumerate(ideal) if abs(v) > 0.2]
    sampled = {
        "II": _exact_values("II", at_zero, trial, bias),
        "XX": _exact_values("XX", at_zero, trial, bias),
        "ZI": [raw[i] for i in kept],
    }
    return sampled, [ideal[i] for i in kept]


def _anchor_factors(
    sampled: dict[str, list[complex]],
    zi_ideal: list[complex],
    shots: int | None,
    rng: np.random.Generator | None,
) -> dict[str, float]:
    """One measurement of every anchor, as per-family correction factors.

    Shots are drawn family by family in the order of ``sampled`` (II, XX,
    then ZI), each family in config order.
    """
    measured = {f: _measured(f, values, shots, rng) for f, values in sampled.items()}
    factors = {f: float(np.mean([r.real for r in measured[f]])) for f in ("II", "XX")}
    ratios = [(r / i).real for r, i in zip(measured["ZI"], zi_ideal)]
    factors["ZI"] = float(np.mean(ratios))
    return factors


def _assemble(values: dict[str, np.ndarray], params: HSParams) -> AssembledPrimitives:
    gamma4 = params.gamma**4
    den = gamma4 * np.sum(values["II"] ** 2)
    zz = gamma4 * np.sum(values["ZI"] ** 2)
    xx = gamma4 * np.sum(values["XX"] * values["II"])
    return AssembledPrimitives(float(den.real), float(zz.real), float(xx.real))


def _energy_parts(prim: AssembledPrimitives, J: float, U: float) -> tuple[float, float, float]:
    kinetic = -2.0 * J * prim.xx_numerator / prim.denominator
    ud = (U / 2.0) * prim.zz_numerator / prim.denominator
    return kinetic + ud, kinetic, ud


def two_site_energy_from_primitives(
    g: float,
    J: float,
    U: float,
    shots: int | None = None,
    reps: int = 16,
    bias: BiasModel | None = None,
    rng: np.random.Generator | None = None,
    mitigate: bool = False,
) -> TwoSiteEstimate:
    """Assemble E, K, U<D> on two sites from all sixteen field configs.

    shots=None evaluates the primitives exactly (errors are zero and reps
    is ignored); otherwise each of at least two repetitions re-measures
    every primitive with the given shot count and the spread over
    repetitions sets the error bars.  With mitigate=True each repetition
    also measures the anchor points and corrects family by family before
    assembling.  One
    exact table per family (biased when bias is given) and the anchor
    values are computed once; each repetition only draws its shots, one
    binomial call per family.  The reported primitives are the mean of
    what each repetition assembled.
    """
    min_reps = 1 if shots is None else 2  # with shots the error bars are the reps' spread
    if reps < min_reps:
        raise ValueError(f"reps must be >= {min_reps}, got {reps}")
    params = hs_params(g)
    if shots is None:
        reps = 1
    elif rng is None:
        rng = np.random.default_rng(0)
    trial = two_site_sector_trial()
    table = {f: _exact_values(f, params, trial, bias) for f in _FAMILIES}
    if mitigate:
        anchors = _anchor_values(trial, bias)

    # E, K, U<D> and the three assembled primitives, one column per repetition
    parts = np.empty((6, reps))
    for rep in range(reps):
        values = {f: np.array(_measured(f, v, shots, rng)) for f, v in table.items()}
        if mitigate:
            factors = _anchor_factors(*anchors, shots, rng)
            values = {f: pas_correct(v, factors[f]) for f, v in values.items()}
        prim = _assemble(values, params)
        parts[:, rep] = (*_energy_parts(prim, J, U), *astuple(prim))
    mean = parts.mean(axis=1).tolist()
    err = (parts[:3].std(axis=1, ddof=1) / np.sqrt(reps)).tolist() if reps > 1 else [0.0] * 3
    return TwoSiteEstimate(*mean[:3], *err, AssembledPrimitives(*mean[3:]))
