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
one-branch call gives every column the same numbers, bit for bit.

A call returns one `Certificate`: arrays indexed [branch, b, column] and a
`failed` mask per stage of `STAGES`, by one rule: "bhe" where either BHE
residual is not <= `BHE_RTOL`, "schrodinger" where the zero-mode residual
is not <= that `BHE_RTOL` (a NaN fails), "oracle" where the oracle missed.
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


@dataclass(frozen=True, eq=False)
class Certificate:
    """The chain's numbers and verdicts for one subspace, as arrays indexed
    [branch, b, column]; `failed` has a `STAGES` axis in front.  `oracle`
    is None when the oracle was skipped."""

    bhe_operator_residual: np.ndarray
    bhe_standard_residual: np.ndarray
    potential: np.ndarray
    lam: np.ndarray
    schrodinger_residual: np.ndarray
    oracle: np.ndarray | None
    failed: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        return ~self.failed.any(axis=0)


def _worst(residuals: np.ndarray) -> np.ndarray:
    return np.max(np.abs(residuals), axis=0)


def certify_subspace(
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    energies: Sequence[float] | np.ndarray,
    vecs: np.ndarray,
    b_values: Sequence[RationalLike],
    branches: Sequence[Branch],
    oracle: OracleMemo | None = None,
) -> Certificate:
    """Run the chain for every column of `vecs` under every b in `b_values`
    and every branch in `branches`.

    Column i of `vecs` is an eigenvector of W(l, m), checked against
    `energies[i]`; pass a wrong energy to watch its column fail.  Returns
    one `Certificate`, indexed [branch, b, column].  `oracle=None` skips
    the oracle; a dict runs it, branch by branch, b by b, column by
    column.  An oracle check depends on (potential, lambda) alone: a pair
    already in `oracle` is not solved again, and every new one is added.
    """
    energies = np.asarray(energies, dtype=float)
    shape = (len(branches), len(b_values), energies.size)
    scales = np.empty((len(branches), energies.size))
    # [form, branch, column]: stages 1-2 do not depend on b
    bhe_max = np.empty((2, *scales.shape))
    specs = np.empty(shape, dtype=object)
    lams = np.empty(shape)
    # stages 3-4: one column per (branch, b, eigenvector), its (b, s, A), phi
    columns, phi_cols = [], []
    for i, branch in enumerate(branches):
        phi = rho_coefficients(label, vecs, branch)
        if energies.shape != (phi.shape[1],):
            raise ValueError(
                f"{energies.size} energies for {phi.shape[1]} eigenvectors"
            )
        scales[i] = _worst(phi)
        bhe_max[0, i] = _worst(operator_residuals(freqs, label, energies, phi, branch))
        bhe_max[1, i] = _worst(
            standard_residuals(bhe_params(freqs, label, energies, branch), phi)
        )
        for j, b in enumerate(b_values):
            specs[i, j], lams[i, j] = zero_mode_potentials(
                b, freqs, label, energies, branch
            )
            columns += [(b, *zero_mode_envelope(b, freqs, label, branch))] * shape[2]
            phi_cols.append(phi)
    op_rel, std_rel = np.broadcast_to((bhe_max / scales)[:, :, None], (2, *shape))
    schr_rel = _worst(
        zero_mode_residuals(
            specs.ravel(), lams.ravel(), *zip(*columns), np.hstack(phi_cols)
        ).reshape(-1, *shape)
    ) / scales[:, None]
    # one rule, in STAGES order; a NaN residual is not <= BHE_RTOL and fails
    failed = np.zeros((len(STAGES), *shape), dtype=bool)
    failed[0] = ~(op_rel <= BHE_RTOL) | ~(std_rel <= BHE_RTOL)
    failed[1] = ~(schr_rel <= BHE_RTOL)
    results = None
    if oracle is not None:
        results = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            vspec, lam = specs[idx], float(lams[idx])
            if (vspec, lam) not in oracle:
                oracle[vspec, lam] = contains_eigenvalue(
                    vspec, oracle_config(vspec, lam), lam
                )
            results[idx] = oracle[vspec, lam]
            failed[2][idx] = not results[idx].hit
    return Certificate(
        bhe_operator_residual=op_rel,
        bhe_standard_residual=std_rel,
        potential=specs,
        lam=lams,
        schrodinger_residual=schr_rel,
        oracle=results,
        failed=failed,
    )
