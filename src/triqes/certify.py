"""One certification pipeline for many subspaces.

The chain checked link by link, for every eigenvector of every W(l, m)
given, every transformation exponent b and every branch:

1. phi, the branch's BHE polynomial, from the eigenvector;
2. both BHE residuals (operator form and standard form), each relative to
   the largest phi coefficient;
3. the potential whose zero mode chi is (`schroedinger.zero_mode_ladders`):
   at b = 1/2 the displaced sextic Vtilde with lambda = eps(E), for any
   other b the plain V_b with lambda = 0;
4. the Schroedinger equation -chi'' + (V - lambda) chi = 0 for the zero
   mode chi with the phi of stage 1, as the exact polynomial identity
   `zero_mode_residuals` in its b-free form (rungs 1-4, A, lambda and
   |l - m| from the labels; rung 0 and the envelope's s cancel for every
   zero mode and are proven once, symbolically), relative to the largest
   phi coefficient: no grid, no step size, no refinement order;
5. when the caller asks for it, the independent finite-difference oracle
   at lambda.

`certify_subspace` takes the subspaces as (label, energies, eigenvectors)
and groups them by shape: the labels of one dimension min(l, m) + 1 with
as many eigenvectors form one group, so no phi column is padded.  Each
group runs stages 1-4 as one array pass: stages 1-2 over the column axes
[label, branch, column], shared by every b since they do not depend on
it, and stages 3-4 as one `zero_mode_ladders` call and one
`zero_mode_residuals` call on its float arrays as they are, over [label,
branch, b, column], each column at its own b with its own A and lambda.  E enters only through rung 1 of V_b (b != 1/2) or through lambda
(b = 1/2).  Every number is elementwise, so a column is bit for bit the
same whichever subspaces share its call.  The oracle then runs group by
group, subspace by subspace, in (branch, b, eigenvector) order, once per
distinct (potential, lambda) in the `OracleMemo` the caller passes, its
key a `PotentialSpec` built for each checked column only; `sweep` passes
one memo for the command.

Each subspace gets one `Certificate`: arrays indexed [branch, b, column]
(`potential` [branch, b, column, rung]) and a `failed` mask per stage of
`STAGES`, by one rule: "bhe" where either BHE residual is not <=
`BHE_RTOL`, "schrodinger" where the zero-mode residual is not <= that
`BHE_RTOL` (a NaN fails), "oracle" where the oracle missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
    zero_mode_ladders,
    zero_mode_residuals,
)

STAGES = ("bhe", "schrodinger", "oracle")

# Oracle checks already made, by (potential, lambda).
OracleMemo = dict[tuple[PotentialSpec, float], ContainmentResult]


@dataclass(frozen=True, eq=False)
class Certificate:
    """The chain's numbers and verdicts for one subspace, as arrays indexed
    [branch, b, column]; `failed` has a `STAGES` axis in front and
    `potential`, the rungs c_0 .. c_4 of each ladder, a rung axis behind.
    `oracle` is None when the oracle was skipped."""

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


# (label, energies, eigenvectors as columns)
Subspace = tuple[SubspaceLabel, Sequence[float] | np.ndarray, np.ndarray]


def certify_subspace(
    freqs: ModeFrequencies,
    subspaces: Iterable[Subspace],
    b_values: Sequence[RationalLike],
    branches: Sequence[Branch],
    oracle: OracleMemo | None = None,
) -> Iterator[tuple[int, Certificate]]:
    """Run the chain for every subspace (label, energies, vecs) of
    `subspaces`, under every b in `b_values` and every branch in
    `branches`.

    Column i of `vecs` is an eigenvector of W(l, m), checked against
    `energies[i]`; pass a wrong energy to watch its column fail.  Yields
    (i, `Certificate`) for the i-th subspace, indexed [branch, b, column],
    group by group: the subspaces of one shape form one group, in the order
    their first member comes, and every group runs stages 1-4 as one array
    pass.  `oracle=None` skips the oracle; a dict runs it, subspace by
    subspace of a group, then branch by branch, b by b, column by column.
    An oracle check depends on (potential, lambda) alone: a pair already in
    `oracle` is not solved again, and every new one is added.
    """
    groups: dict[tuple, list] = {}
    for i, (label, energies, vecs) in enumerate(subspaces):
        energies, vecs = np.asarray(energies, dtype=float), np.asarray(vecs, dtype=float)
        key = (label.dim, energies.shape, vecs.shape)
        groups.setdefault(key, []).append((i, label, energies, vecs))
    for members in groups.values():
        index, labels, energies, vecs = zip(*members)
        certs = _certify_group(
            freqs, labels, np.stack(energies), np.stack(vecs, axis=1)[:, :, None],
            b_values, branches, oracle,
        )
        yield from zip(index, certs)


def _certify_group(freqs, labels, energies, vecs, b_values, branches, oracle):
    """Stages 1-4 over [label, branch, b, column] of labels of one dimension,
    `energies` [label, column] and `vecs` [component, label, 1, column];
    then, label by label, the oracle and the label's `Certificate`."""
    phi = rho_coefficients(labels, vecs, branches)  # [row, label, branch, column]
    if energies.shape[1:] != phi.shape[-1:]:
        raise ValueError(f"{energies[0].size} energies for {phi.shape[-1]} eigenvectors")
    scales = _worst(phi)
    e = energies[:, None]
    # stages 1-2 do not depend on b: [label, branch, column]
    op_rel = _worst(operator_residuals(freqs, labels, e, phi, branches)) / scales
    std_rel = _worst(
        standard_residuals(bhe_params(freqs, labels, e, branches), phi)
    ) / scales
    # stages 3-4: one zero-mode column per (label, branch, b, eigenvector)
    rungs, lams, a_ = zero_mode_ladders(b_values, freqs, labels, energies, branches)
    shape = lams.shape
    deltas = np.array([lab.k - lab.n_prime for lab in labels])[:, None, None, None]
    schr_rel = _worst(
        zero_mode_residuals(b_values, rungs, lams, deltas, a_, phi[:, :, :, None])
    ) / scales[:, :, None]
    # one rule, in STAGES order; a NaN residual is not <= BHE_RTOL and fails
    failed = np.zeros((len(STAGES), *shape), dtype=bool)
    failed[0] = (~(op_rel <= BHE_RTOL) | ~(std_rel <= BHE_RTOL))[:, :, None]
    failed[1] = ~(schr_rel <= BHE_RTOL)
    ladders = np.moveaxis(rungs, 0, -1)  # [label, branch, b, column, rung]
    for g in range(len(labels)):
        results = None
        if oracle is not None:
            results = np.empty(shape[1:], dtype=object)
            rows = ladders[g].tolist()
            for i, j, col in np.ndindex(shape[1:]):
                vspec = PotentialSpec(b_values[j], tuple(rows[i][j][col]))
                lam = float(lams[g, i, j, col])
                if (vspec, lam) not in oracle:
                    oracle[vspec, lam] = contains_eigenvalue(
                        vspec, oracle_config(vspec, lam), lam
                    )
                results[i, j, col] = oracle[vspec, lam]
                failed[2, g, i, j, col] = not results[i, j, col].hit
        yield Certificate(
            bhe_operator_residual=np.broadcast_to(op_rel[g][:, None], shape[1:]),
            bhe_standard_residual=np.broadcast_to(std_rel[g][:, None], shape[1:]),
            potential=ladders[g],
            lam=lams[g],
            schrodinger_residual=schr_rel[g],
            oracle=results,
            failed=failed[:, g],
        )
