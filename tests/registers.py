"""Test-only reference: a register-only state scattered into its full register.

The library keeps every state on its support; the dense references the
tests compare against (``apply_pauli_sum``, ``PauliSum.to_matrix``, full
dressing circuits) need all 2**n amplitudes.
"""
from __future__ import annotations

import numpy as np


def full_register(state) -> np.ndarray:
    """All 2**n_register amplitudes of a register-only SupportState, zero off its support."""
    if state.n_ancillas:
        raise ValueError("a state with ancillas has no single register array")
    full = np.zeros(1 << state.n_register, dtype=complex)
    full[state.support] = state.amplitudes
    return full
