"""One certification pipeline for many subspaces.

The chain checked link by link, for every eigenvector of every W(l, m)
given, every transformation exponent b and every branch:

1. phi, the branch's BHE polynomial, from the eigenvector;
2. both BHE residuals (operator form and standard form), each relative to
   the largest phi coefficient;
3. the potential whose zero mode chi is (`schroedinger.zero_mode_ladders`):
   at b = 1/2 the displaced sextic Vtilde with lambda = eps(E), for any
   other b the plain V_b with lambda = 0;
4. the ladder link (`schroedinger.ladder_links`): b^2 c_i against the
   b-free numerator N_i of rungs 1-4, lambda at rung 2b.  With stage 2 it
   certifies -chi'' + (V - lambda) chi = 0 for the zero mode chi of phi,
   the identity `tests/test_symbolic.py` proves once;
5. when the caller asks for it, the independent finite-difference oracle
   at lambda.

`certify_subspace` takes the subspaces as (label, energies, eigenvectors)
and lays every eigenpair of every subspace along one pair axis, in
subspace order and then column order, each pair with its own label's
constants; phi rows are padded with zeros to the top degree (exact, see
`heun`), columns are not padded.  Stages 1-4 are one array pass: stages
1-2 over the axes [pair, branch, 1], shared by every b since they do not
depend on it, and stages 3-4 as one `zero_mode_ladders` call and one
`ladder_links` call on its float arrays as they are, over [pair, branch,
b, 1], each column at its own b.  Every number is elementwise, so a
column is bit for bit the same whichever subspaces share its call.  The
oracle then runs subspace by subspace, in (branch, b, eigenvector)
order, once per distinct (potential, lambda) in the `OracleMemo` the
caller passes, its key a `PotentialSpec` built for each checked column
only; `sweep` passes one memo for the command.

Each subspace gets one `Certificate`, a slice of the batch's arrays,
which are transposed once to [branch, b, pair]: arrays indexed [branch,
b, column] (`potential` [branch, b, column, rung]) and a `failed` mask
per stage of `STAGES`, by one rule: "bhe" where either BHE residual is
not <= `BHE_RTOL`, "schrodinger" where the ladder link is not <= that
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
from .schroedinger import PotentialSpec, RationalLike, ladder_links, zero_mode_ladders

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
    `energies[i]`; pass a wrong energy to watch its column fail.  Every
    subspace's shapes are checked before any stage runs, and the first bad
    one raises.  Yields (i, `Certificate`) for the i-th subspace, indexed
    [branch, b, column], in order; stages 1-4 run as one array pass over
    the eigenpairs of all subspaces.  `oracle=None` skips the oracle; a
    dict runs it, subspace by subspace, then branch by branch, b by b,
    column by column.  An oracle check depends on (potential, lambda)
    alone: a pair already in `oracle` is not solved again, and every new
    one is added.
    """
    checked = []
    for label, energies, vecs in subspaces:
        energies, vecs = np.asarray(energies, dtype=float), np.asarray(vecs, dtype=float)
        if vecs.ndim != 2 or len(vecs) != label.dim:
            raise ValueError(
                f"eigenvector length {vecs.shape[:1]} does not match dim {label.dim}"
            )
        if energies.shape != vecs.shape[1:]:
            raise ValueError(f"{energies.size} energies for {vecs.shape[1]} eigenvectors")
        checked.append((label, energies, vecs))
    # the pair axis: every eigenpair of every subspace, in order, each with
    # its own label; eigenvectors padded at the front to the top dimension
    labels = [label for label, energies, _ in checked for _ in range(len(energies))]
    ends = np.cumsum([0] + [len(energies) for _, energies, _ in checked]).tolist()
    vecs = np.zeros((max((lab.dim for lab in labels), default=1), len(labels)))
    for (label, _, v), start, stop in zip(checked, ends, ends[1:]):
        if stop > start:  # a subspace without columns may exceed the top dimension
            vecs[len(vecs) - label.dim :, start:stop] = v
    energies = np.concatenate([e for _, e, _ in checked] or [np.empty(0)])
    batch = _certify_pairs(freqs, labels, energies, vecs, b_values, branches)
    for i, (start, stop) in enumerate(zip(ends, ends[1:])):
        cols = slice(start, stop)
        lams = batch.lam[..., cols]
        cert = Certificate(
            bhe_operator_residual=batch.bhe_operator_residual[..., cols],
            bhe_standard_residual=batch.bhe_standard_residual[..., cols],
            potential=batch.potential[:, :, cols],
            lam=lams,
            schrodinger_residual=batch.schrodinger_residual[..., cols],
            oracle=None if oracle is None else np.empty(lams.shape, dtype=object),
            failed=batch.failed[..., cols],
        )
        if oracle is not None:
            rows = cert.potential.tolist()
            for br, j, col in np.ndindex(lams.shape):
                vspec = PotentialSpec(b_values[j], tuple(rows[br][j][col]))
                lam = float(lams[br, j, col])
                if (vspec, lam) not in oracle:
                    oracle[vspec, lam] = contains_eigenvalue(
                        vspec, oracle_config(vspec, lam), lam
                    )
                cert.oracle[br, j, col] = oracle[vspec, lam]
                cert.failed[2, br, j, col] = not oracle[vspec, lam].hit
        yield i, cert


def _certify_pairs(freqs, labels, energies, vecs, b_values, branches):
    """Stages 1-4 of eigenpairs with `labels` and `energies` [pair] and
    `vecs` [component, pair], as one `Certificate` whose column axis is the
    pair axis; no oracle."""
    # [row, pair, branch, 1]
    phi = rho_coefficients(labels, vecs[:, :, None, None], branches)
    scales = _worst(phi)
    e = energies[:, None, None]
    # stages 1-2 do not depend on b: [pair, branch, 1]
    op_rel = _worst(operator_residuals(freqs, labels, e, phi, branches)) / scales
    std_rel = _worst(
        standard_residuals(bhe_params(freqs, labels, e, branches), phi)
    ) / scales
    # stages 3-4: one ladder per (pair, branch, b), [pair, branch, b, 1]
    ladder_args = (b_values, freqs, labels, energies[:, None], branches)
    rungs, lams = zero_mode_ladders(*ladder_args)
    link = ladder_links(*ladder_args, rungs, lams)
    # transposed once: [pair, branch, (b,) 1] -> [branch, (b,) pair]
    op_rel, std_rel = op_rel[..., 0].T, std_rel[..., 0].T
    link = link[..., 0].transpose(1, 2, 0)
    shape = link.shape
    # one rule, in STAGES order; a NaN residual is not <= BHE_RTOL and fails
    failed = np.zeros((len(STAGES), *shape), dtype=bool)
    failed[0] = (~(op_rel <= BHE_RTOL) | ~(std_rel <= BHE_RTOL))[:, None]
    failed[1] = ~(link <= BHE_RTOL)
    return Certificate(
        bhe_operator_residual=np.broadcast_to(op_rel[:, None], shape),
        bhe_standard_residual=np.broadcast_to(std_rel[:, None], shape),
        potential=rungs[..., 0].transpose(2, 3, 1, 0),
        lam=lams[..., 0].transpose(1, 2, 0),
        schrodinger_residual=link,
        oracle=None,
        failed=failed,
    )
