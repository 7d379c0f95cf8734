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
from .hamiltonian import ModeFrequencies, RestrictedHamiltonian, build_hamiltonian
from .spectra import Spectrum, eig_sym
from .heun import (
    Branch,
    BheParams,
    RhoPolynomial,
    bhe_operator_residual,
    bhe_params,
    bhe_standard_residual,
    fock_to_rho_polynomial,
)
from .schroedinger import (
    AuxConstants,
    PotentialSpec,
    WavefunctionSpec,
    epsilon_of,
    eval_potential,
    eval_wavefunction,
    potential_spec,
    split_sextic,
    wavefunction_spec,
    zero_mode_residual,
)
from .fdoracle import (
    FdConfig,
    contains_eigenvalue,
    fd_spectrum,
    oracle_config,
    suggest_domain,
)
from .certify import Certificate, certify_eigenpair, zero_mode_potential

__all__ = [
    "FockState",
    "SubspaceLabel",
    "WeightedState",
    "apply_interaction",
    "subspace_basis",
    "symmetry_eigenvalues",
    "ModeFrequencies",
    "RestrictedHamiltonian",
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
    "AuxConstants",
    "PotentialSpec",
    "WavefunctionSpec",
    "epsilon_of",
    "eval_potential",
    "eval_wavefunction",
    "potential_spec",
    "split_sextic",
    "wavefunction_spec",
    "zero_mode_residual",
    "FdConfig",
    "contains_eigenvalue",
    "fd_spectrum",
    "oracle_config",
    "suggest_domain",
    "Certificate",
    "certify_eigenpair",
    "zero_mode_potential",
]
