"""One certification pipeline for one eigenpair under one (b, branch).

The chain checked link by link:

1. phi, the branch's BHE polynomial, from the eigenvector;
2. both BHE residuals (operator form and standard form), each relative to
   the largest phi coefficient;
3. the potential whose zero mode chi is: at b = 1/2 the displaced sextic
   Vtilde with lambda = eps(E), for any other b the plain V_b with
   lambda = 0;
4. the Schroedinger equation -chi'' + (V - lambda) chi = 0 as the exact
   polynomial identity `zero_mode_residual`, relative to the largest phi
   coefficient: no grid, no step size, no refinement order;
5. optionally the independent finite-difference oracle at lambda.

`certify_eigenpair` returns a `Certificate` whose `failed` names the
`STAGES` that missed, by one rule: "bhe" when either BHE residual exceeds
`BHE_RTOL`, "schrodinger" when the zero-mode residual exceeds the same
`BHE_RTOL`, and "oracle" when the oracle ran and missed.  `passed` is
`not failed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fdoracle import ContainmentResult, contains_eigenvalue, oracle_config
from .fock import SubspaceLabel
from .hamiltonian import ModeFrequencies
from .heun import (
    Branch,
    RhoPolynomial,
    bhe_operator_residual,
    bhe_params,
    bhe_standard_residual,
    fock_to_rho_polynomial,
)
from .schroedinger import (
    PotentialSpec,
    RationalLike,
    epsilon_of,
    potential_spec,
    split_sextic,
    wavefunction_spec,
    zero_mode_residual,
)

BHE_RTOL = 1e-10
STAGES = ("bhe", "schrodinger", "oracle")

SEXTIC_B = Fraction(1, 2)


@dataclass(frozen=True)
class Certificate:
    """Every number the chain produced for one eigenpair, and its verdict.

    `failed` lists the stages that missed, in the order of `STAGES`.
    """

    bhe_operator_residual: float
    bhe_standard_residual: float
    potential: PotentialSpec
    lam: float
    schrodinger_residual: float
    oracle: ContainmentResult | None
    failed: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failed


def zero_mode_potential(
    b: RationalLike,
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    energy: float,
    branch: Branch = Branch.PLUS,
) -> tuple[PotentialSpec, float]:
    """The potential whose level lambda the zero mode sits at, and lambda.

    b = 1/2 gives the E-free displaced sextic with lambda = eps(E); any
    other b gives V_b itself, whose zero mode sits at lambda = 0.
    """
    if b == SEXTIC_B:
        return split_sextic(freqs, label, branch)[0], epsilon_of(energy, branch)
    return potential_spec(b, freqs, label, energy, branch), 0.0


def _relative(residual: np.ndarray, phi: RhoPolynomial) -> float:
    return float(np.max(np.abs(residual))) / max(abs(x) for x in phi.coeffs)


def certify_eigenpair(
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    energy: float,
    vec: np.ndarray,
    b: RationalLike,
    branch: Branch = Branch.PLUS,
    oracle: bool = True,
) -> Certificate:
    """Run the chain for the eigenvector `vec` of W(l, m) at `energy`.

    `energy` is the value every stage after phi is checked against; pass a
    wrong one to watch the certificate fail.
    """
    phi = fock_to_rho_polynomial(label, vec, branch)
    op_rel = _relative(bhe_operator_residual(freqs, label, energy, phi), phi)
    std_rel = _relative(
        bhe_standard_residual(bhe_params(freqs, label, energy, branch), phi), phi
    )
    wf = wavefunction_spec(b, freqs, label, phi)
    vspec, lam = zero_mode_potential(b, freqs, label, energy, branch)
    schr_rel = _relative(zero_mode_residual(vspec, wf, lam), phi)
    cont = None
    if oracle:
        cont = contains_eigenvalue(vspec, oracle_config(vspec, lam), lam)
    ok = (
        op_rel <= BHE_RTOL and std_rel <= BHE_RTOL,
        schr_rel <= BHE_RTOL,
        cont is None or cont.hit,
    )
    return Certificate(
        bhe_operator_residual=op_rel,
        bhe_standard_residual=std_rel,
        potential=vspec,
        lam=lam,
        schrodinger_residual=schr_rel,
        oracle=cont,
        failed=tuple(stage for stage, good in zip(STAGES, ok) if not good),
    )
