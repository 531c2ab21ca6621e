"""Classical simulation toolkit for Gutzwiller-projected Hubbard states.

The nonunitary double-occupancy suppression factor is rewritten as a
two-branch average of diagonal unitaries over auxiliary Ising fields.
This package implements both computational routes that identity opens:
probabilistic state preparation with one ancilla per site, and
importance sampling over the auxiliary fields with determinant or
statevector weight evaluation, cross-validated against exact
diagonalization and brute-force summation at small sizes.
"""
from .gutzwiller import (
    HSParams,
    TwoSiteCurves,
    apply_gutzwiller_exact,
    field_rotation_circuit,
    full_sum_expectation,
    hs_params,
    two_site_curves,
    two_site_energy,
    verify_hs_identity,
)
from .hadamard import (
    BiasModel,
    HadamardEstimate,
    TwoSiteEstimate,
    hadamard_exact,
    hadamard_shots,
    pas_correct,
    two_site_energy_from_primitives,
)
from .io_utils import VERSION, ConfigError, load_config_file, write_csv, write_metadata
from .lattice import (
    Lattice,
    QubitLayout,
    build_lattice,
    hopping_matrix,
    hubbard_hamiltonian,
    hubbard_terms,
)
from .lcu import (
    LcuOutcome,
    build_lcu_state,
    docc_from_success_probability,
    exact_double_occupancy,
    measure_ancillas_success,
    success_probability,
    success_probability_curve,
)
from .pauli import PauliSum, PauliTerm, apply_pauli_sum, diagonal_eigenvalues
from .sampler import (
    EstimatorResult,
    McParams,
    McSamples,
    PhaseCheckReport,
    PhaseProblemError,
    local_estimator,
    metropolis_sweep,
    phase_problem_check,
    results_from_samples,
    run_mc,
    sample_kinetic_interaction,
    weight_numerator,
)
from .slater import (
    SlaterState,
    TrialState,
    dressed_green_function,
    dressed_overlap,
    ground_state_of_K,
    half_filled_trial,
    sector_amplitudes,
    slater_to_statevector,
)
from .statevector import (
    Gate,
    GroundStateResult,
    StateVector,
    SupportState,
    apply_circuit,
    apply_gate,
    exact_ground_state,
    expectation,
    matrix_element,
)
from .zz_decomp import HsVariant, decompose_zz, variant_unitary, verify_variant

__version__ = VERSION

__all__ = [
    "BiasModel",
    "ConfigError",
    "EstimatorResult",
    "Gate",
    "GroundStateResult",
    "HSParams",
    "HadamardEstimate",
    "HsVariant",
    "Lattice",
    "LcuOutcome",
    "McParams",
    "McSamples",
    "PauliSum",
    "PauliTerm",
    "PhaseCheckReport",
    "PhaseProblemError",
    "SlaterState",
    "StateVector",
    "SupportState",
    "TrialState",
    "TwoSiteCurves",
    "TwoSiteEstimate",
    "QubitLayout",
    "VERSION",
    "apply_circuit",
    "apply_gate",
    "apply_gutzwiller_exact",
    "apply_pauli_sum",
    "build_lattice",
    "build_lcu_state",
    "decompose_zz",
    "diagonal_eigenvalues",
    "docc_from_success_probability",
    "dressed_green_function",
    "dressed_overlap",
    "exact_double_occupancy",
    "exact_ground_state",
    "expectation",
    "field_rotation_circuit",
    "full_sum_expectation",
    "ground_state_of_K",
    "hadamard_exact",
    "hadamard_shots",
    "half_filled_trial",
    "hopping_matrix",
    "hs_params",
    "hubbard_hamiltonian",
    "hubbard_terms",
    "load_config_file",
    "local_estimator",
    "matrix_element",
    "measure_ancillas_success",
    "metropolis_sweep",
    "pas_correct",
    "phase_problem_check",
    "results_from_samples",
    "run_mc",
    "sample_kinetic_interaction",
    "sector_amplitudes",
    "slater_to_statevector",
    "success_probability",
    "success_probability_curve",
    "two_site_curves",
    "two_site_energy",
    "two_site_energy_from_primitives",
    "variant_unitary",
    "verify_hs_identity",
    "verify_variant",
    "weight_numerator",
    "write_csv",
    "write_metadata",
]
