"""One certification pipeline for a whole subspace under one branch.

The chain checked link by link, for every eigenvector of W(l, m) and every
transformation exponent b:

1. phi, the branch's BHE polynomial, from the eigenvector;
2. both BHE residuals (operator form and standard form), each relative to
   the largest phi coefficient;
3. the potential whose zero mode chi is (`schroedinger.zero_mode_potentials`):
   at b = 1/2 the displaced sextic Vtilde with lambda = eps(E), for any
   other b the plain V_b with lambda = 0;
4. the Schroedinger equation -chi'' + (V - lambda) chi = 0 for the zero
   mode chi with envelope `zero_mode_envelope` and the phi of stage 1, as
   the exact polynomial identity `zero_mode_residuals`, relative to the
   largest phi coefficient: no grid, no step size, no refinement order;
5. when the caller asks for it, the independent finite-difference oracle
   at lambda.

Stages 1-2 depend on the eigenvectors, the energies and the branch but
not on b, so `certify_subspace` runs them once per (label, branch), as
array operations over all eigenvectors, and shares them by every b.
Stages 3-4 run once per b, again over all eigenvectors at once; E enters
only through rung 1 of V_b (b != 1/2) or through lambda (b = 1/2).  The
oracle runs per eigenvector, once per distinct (potential, lambda) in the
`OracleMemo` the caller passes; `sweep` shares one across its calls.  A
one-column, one-b call gives every certificate the same numbers, bit for
bit.

Each `Certificate` names in `failed` the `STAGES` that missed, by one
rule: "bhe" when either BHE residual exceeds `BHE_RTOL`, "schrodinger"
when the zero-mode residual exceeds the same `BHE_RTOL`, and "oracle" when
the oracle ran and missed.  `passed` is `not failed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fdoracle import ContainmentResult, contains_eigenvalue, oracle_config
from .fock import SubspaceLabel
from .hamiltonian import ModeFrequencies
from .heun import (
    BHE_RTOL,
    Branch,
    bhe_params,
    operator_residuals,
    rho_coefficients,
    standard_residuals,
)
from .schroedinger import (
    PotentialSpec,
    RationalLike,
    zero_mode_envelope,
    zero_mode_potentials,
    zero_mode_residuals,
)

STAGES = ("bhe", "schrodinger", "oracle")

# Oracle checks already made, by (potential, lambda).
OracleMemo = dict[tuple[PotentialSpec, float], ContainmentResult]


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


def _relative(residuals: np.ndarray, scale: np.ndarray) -> list[float]:
    return (np.max(np.abs(residuals), axis=0) / scale).tolist()


def certify_subspace(
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    energies: Sequence[float] | np.ndarray,
    vecs: np.ndarray,
    b_values: Sequence[RationalLike],
    branch: Branch = Branch.PLUS,
    oracle: OracleMemo | None = None,
) -> list[list[Certificate]]:
    """Run the chain for every column of `vecs` under every b in `b_values`.

    Column i of `vecs` is an eigenvector of W(l, m), checked against
    `energies[i]`; pass a wrong energy to watch its certificates fail.
    Returns one list per b, in the order of `b_values`, holding one
    `Certificate` per column.  `oracle=None` skips the oracle; a dict runs
    it.  An oracle check depends on (potential, lambda) alone: a pair
    already in `oracle` is not solved again, and every new one is added.
    """
    energies = np.asarray(energies, dtype=float)
    phis = rho_coefficients(label, vecs, branch)
    if energies.shape != (phis.shape[1],):
        raise ValueError(
            f"{energies.size} energies for {phis.shape[1]} eigenvectors"
        )
    scale = np.max(np.abs(phis), axis=0)
    op_rel = _relative(operator_residuals(freqs, label, energies, phis, branch), scale)
    std_rel = _relative(
        standard_residuals(bhe_params(freqs, label, energies, branch), phis), scale
    )
    bhe_ok = [o <= BHE_RTOL and s <= BHE_RTOL for o, s in zip(op_rel, std_rel)]
    out = []
    for b in b_values:
        vspecs, lams = zero_mode_potentials(b, freqs, label, energies, branch)
        pref, a_ = zero_mode_envelope(b, freqs, label, branch)
        schr_rel = _relative(
            zero_mode_residuals(vspecs, lams, b, pref, a_, phis), scale
        )
        certs = []
        for i, (vspec, lam) in enumerate(zip(vspecs, lams.tolist())):
            cont = None
            if oracle is not None:
                key = (vspec, lam)
                if key not in oracle:
                    oracle[key] = contains_eigenvalue(vspec, oracle_config(vspec, lam), lam)
                cont = oracle[key]
            ok = (bhe_ok[i], schr_rel[i] <= BHE_RTOL, cont is None or cont.hit)
            certs.append(Certificate(
                bhe_operator_residual=op_rel[i],
                bhe_standard_residual=std_rel[i],
                potential=vspec,
                lam=lam,
                schrodinger_residual=schr_rel[i],
                oracle=cont,
                failed=tuple(stage for stage, good in zip(STAGES, ok) if not good),
            ))
        out.append(certs)
    return out
