"""Catalog of discrete decompositions of the two-qubit weight e^{-J*Z_i Z_j}.

For either sign of J the diagonal diag(e^{-J}, e^{J}, e^{J}, e^{-J})
equals gamma * sum_{s=±1} exp(-i*s*alpha*G) for three distinct choices of
the generator G:

    J < 0:  (XX+YY)/2,  (XY-YX)/2,  (Z_j-Z_i)/2     gamma=e^{-J}/2, alpha=arccos(e^{2J})
    J > 0:  (XX-YY)/2,  (XY+YX)/2,  (Z_i+Z_j)/2     gamma=e^{J}/2,  alpha=arccos(e^{-2J})

Every generator G here satisfies G^3 = G, so the exponential has the
exact two-level closed form exp(-i*s*alpha*G) = I + (cos(alpha)-1)*G^2
- i*s*sin(alpha)*G, which is what the verifier uses (the test suite
cross-checks against a dense matrix exponential).

Both regimes share the on-site split's parameters: gamma and alpha are
:func:`gutzmc.gutzwiller.hs_params` at g = 4|J|.  The (Z_i+Z_j)/2
variant applied to one site's up/down pair, with coupling J = g/4, is
precisely the on-site split used throughout :mod:`gutzmc.gutzwiller`:
(Z_up+Z_dn)/2 = -(n_up+n_dn-1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gutzwiller import hs_params
from .pauli import PauliSum, PauliTerm

# regime -> channel -> generator terms {two-qubit Pauli string: coefficient}
_CHANNELS = {
    "J<0": {
        "XX+YY": {"XX": 0.5, "YY": 0.5},
        "XY-YX": {"XY": 0.5, "YX": -0.5},
        "Z-Z": {"IZ": 0.5, "ZI": -0.5},
    },
    "J>0": {
        "XX-YY": {"XX": 0.5, "YY": -0.5},
        "XY+YX": {"XY": 0.5, "YX": 0.5},
        "Z+Z": {"ZI": 0.5, "IZ": 0.5},
    },
}


@dataclass(frozen=True)
class HsVariant:
    """One decomposition channel with its regime and parameters."""

    regime: str  # "J<0" or "J>0"
    channel: str
    generator: PauliSum
    gamma: float
    alpha: float

    @property
    def label(self) -> str:
        return f"{self.regime}:{self.channel}"


def decompose_zz(coupling: float) -> list[HsVariant]:
    """The three decomposition variants for e^{-J*ZZ} at this coupling.

    J=0 degenerates to the trivial identity split (alpha=0, gamma=1/2);
    the positive-regime channel set is returned in that case, though both
    regimes coincide there.
    """
    J = float(coupling)
    regime = "J<0" if J < 0 else "J>0"
    p = hs_params(4 * abs(J))
    return [
        HsVariant(regime, channel,
                  PauliSum.from_terms(PauliTerm(c, ops) for ops, c in terms.items()),
                  p.gamma, p.alpha)
        for channel, terms in _CHANNELS[regime].items()
    ]


def variant_unitary(variant: HsVariant, s: int) -> np.ndarray:
    """exp(-i*s*alpha*G) as a dense 4x4, via the exact two-level form."""
    if s not in (+1, -1):
        raise ValueError(f"s must be ±1, got {s}")
    g_mat = variant.generator.to_matrix()
    g_sq = g_mat @ g_mat
    return (
        np.eye(4, dtype=complex)
        + (np.cos(variant.alpha) - 1.0) * g_sq
        - 1j * s * np.sin(variant.alpha) * g_mat
    )


def verify_variant(variant: HsVariant, coupling: float) -> float:
    """Max elementwise deviation of gamma * sum_s exp(-i*s*alpha*G) from the target.

    The target is diag(e^{-J}, e^{J}, e^{J}, e^{-J}) at the given
    coupling; feeding a variant built for the opposite sign regime makes
    the deviation large, which is itself a tested property.
    """
    J = float(coupling)
    target = np.diag(np.exp(-J * np.array([1.0, -1.0, -1.0, 1.0])))
    combined = variant.gamma * (variant_unitary(variant, +1) + variant_unitary(variant, -1))
    return float(np.max(np.abs(target - combined)))
