"""Trilinear three-mode boson model, biconfluent Heun reduction, and the
resulting family of quasi-exactly solvable Schroedinger potentials."""

__version__ = "0.1.0"

from .fock import (
    FockState,
    SubspaceLabel,
    WeightedState,
    apply_interaction,
    subspace_basis,
    symmetry_eigenvalues,
)
from .hamiltonian import ModeFrequencies, build_hamiltonian
from .spectra import Spectrum, eig_sym
from .heun import (
    Branch,
    BheParams,
    RhoPolynomial,
    bhe_operator_residual,
    bhe_params,
    bhe_standard_residual,
    fock_to_rho_polynomial,
    rho_coefficients,
)
from .schroedinger import (
    PotentialSpec,
    epsilon_of,
    eval_potential,
    eval_wavefunction,
    potential_specs,
    zero_mode_envelope,
    zero_mode_ladders,
    zero_mode_potentials,
)
from .fdoracle import (
    LogGridConfig,
    contains_eigenvalue,
    fd_spectrum,
    oracle_check,
    oracle_config,
    suggest_domain,
)
from .certify import Certificate, certify_batch, solve_subspaces

__all__ = [
    "FockState",
    "SubspaceLabel",
    "WeightedState",
    "apply_interaction",
    "subspace_basis",
    "symmetry_eigenvalues",
    "ModeFrequencies",
    "build_hamiltonian",
    "Spectrum",
    "eig_sym",
    "Branch",
    "BheParams",
    "RhoPolynomial",
    "bhe_operator_residual",
    "bhe_params",
    "bhe_standard_residual",
    "fock_to_rho_polynomial",
    "rho_coefficients",
    "PotentialSpec",
    "epsilon_of",
    "eval_potential",
    "eval_wavefunction",
    "potential_specs",
    "zero_mode_envelope",
    "LogGridConfig",
    "contains_eigenvalue",
    "fd_spectrum",
    "oracle_check",
    "oracle_config",
    "suggest_domain",
    "Certificate",
    "certify_batch",
    "solve_subspaces",
    "zero_mode_ladders",
    "zero_mode_potentials",
]
