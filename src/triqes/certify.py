"""One certification pipeline for a whole subspace.

The chain checked link by link, for every eigenvector of W(l, m), every
transformation exponent b and every branch:

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
Stages 3-4 then run once per call: one `zero_mode_residuals` call over
one column per (branch, b, eigenvector), each column at its own b with
its own envelope and lambda, and one reduction to relative residuals.  E
enters only through rung 1 of V_b (b != 1/2) or through lambda
(b = 1/2).  The oracle runs per eigenvector, in (branch, b, eigenvector)
order, once per distinct (potential, lambda) in the `OracleMemo` the
caller passes; `sweep` shares one across its calls.  A one-column, one-b,
one-branch call gives every certificate the same numbers, bit for bit.

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
    branches: Sequence[Branch],
    oracle: OracleMemo | None = None,
) -> list[list[list[Certificate]]]:
    """Run the chain for every column of `vecs` under every b in `b_values`
    and every branch in `branches`.

    Column i of `vecs` is an eigenvector of W(l, m), checked against
    `energies[i]`; pass a wrong energy to watch its certificates fail.
    Returns one list per branch, in the order of `branches`, holding one
    list per b, in the order of `b_values`, of one `Certificate` per
    column.  `oracle=None` skips the oracle; a dict runs it, branch by
    branch, b by b, column by column.  An oracle check depends on
    (potential, lambda) alone: a pair already in `oracle` is not solved
    again, and every new one is added.
    """
    energies = np.asarray(energies, dtype=float)
    bhe_rel = []
    # stages 3-4 take one column per (branch, b, eigenvector), in that order
    specs: list[PotentialSpec] = []
    lams, bs, prefs, a_s, phi_cols, scales = [], [], [], [], [], []
    for branch in branches:
        phis = rho_coefficients(label, vecs, branch)
        if energies.shape != (phis.shape[1],):
            raise ValueError(
                f"{energies.size} energies for {phis.shape[1]} eigenvectors"
            )
        scale = np.max(np.abs(phis), axis=0)
        bhe_rel.append((
            _relative(operator_residuals(freqs, label, energies, phis, branch), scale),
            _relative(
                standard_residuals(bhe_params(freqs, label, energies, branch), phis),
                scale,
            ),
        ))
        for b in b_values:
            vspecs, lam = zero_mode_potentials(b, freqs, label, energies, branch)
            pref, a_ = zero_mode_envelope(b, freqs, label, branch)
            specs += vspecs
            lams += lam.tolist()
            bs += [b] * len(vspecs)
            prefs += [pref] * len(vspecs)
            a_s += [a_] * len(vspecs)
            phi_cols.append(phis)
            scales.append(scale)
    schr_rel = _relative(
        zero_mode_residuals(specs, lams, bs, prefs, a_s, np.hstack(phi_cols)),
        np.concatenate(scales),
    )
    out = []
    col = 0
    for op_rel, std_rel in bhe_rel:
        bhe_ok = [o <= BHE_RTOL and s <= BHE_RTOL for o, s in zip(op_rel, std_rel)]
        per_b = []
        for _ in b_values:
            certs = []
            for i in range(energies.size):
                vspec, lam = specs[col], lams[col]
                cont = None
                if oracle is not None:
                    key = (vspec, lam)
                    if key not in oracle:
                        oracle[key] = contains_eigenvalue(
                            vspec, oracle_config(vspec, lam), lam
                        )
                    cont = oracle[key]
                ok = (bhe_ok[i], schr_rel[col] <= BHE_RTOL, cont is None or cont.hit)
                certs.append(Certificate(
                    bhe_operator_residual=op_rel[i],
                    bhe_standard_residual=std_rel[i],
                    potential=vspec,
                    lam=lam,
                    schrodinger_residual=schr_rel[col],
                    oracle=cont,
                    failed=tuple(stage for stage, good in zip(STAGES, ok) if not good),
                ))
                col += 1
            per_b.append(certs)
        out.append(per_b)
    return out
