"""One certification pipeline for many subspaces.

The chain checked link by link, for every eigenvector of every W(l, m)
given, every transformation exponent b and every branch:

0. the eigenpairs of H on W(l, m) (`solve_subspaces`): one stacked
   `eig_sym` call per dimension, certified ||H v - E v|| <= 1e-10 ||H||_F;
1. phi, the branch's BHE polynomial, from the eigenvector;
2. the BHE residual, operator form, relative to the largest phi
   coefficient: `tests/test_symbolic.py` proves the standard form and the
   map-weighted eigen-residual (H - E) v equal to it;
3. the potential whose zero mode chi is (`schroedinger.zero_mode_ladders`):
   at b = 1/2 the displaced sextic Vtilde with lambda = eps(E), for any
   other b the plain V_b with lambda = 0;
4. the ladder link (`schroedinger.ladder_links`): b^2 c_i against the
   b-free numerator N_i of rungs 1-4, lambda at rung 2b.  With stage 2 it
   certifies -chi'' + (V - lambda) chi = 0 for the zero mode chi of phi,
   an identity proven there too;
5. when the caller asks for it, the independent finite-difference oracle
   at lambda (`fdoracle.oracle_check`).

`certify_batch` is the one entry to stages 1-5.  It takes the subspaces
as (label, energies, eigenvectors) and lays every eigenpair of every
subspace along one pair axis, in subspace order and then column order,
each pair with its own label's constants; phi rows are padded with zeros
to the top degree (exact, see `heun`), columns are not padded.  Stages
1-4 are one array pass: stages 1-2 over the axes [pair, branch, 1],
shared by every b since they do not depend on it, and stages 3-4 as one
`zero_mode_ladders` call and one `ladder_links` call on its float arrays
as they are, over [pair, branch, b, 1], each column at its own b.  Every
number is elementwise, so a column is bit for bit the same whichever
subspaces share its call.  With `oracle=True` the oracle then runs
subspace by subspace, in (branch, b, eigenvector) order, once per
distinct (potential, lambda) of the call, its key a `PotentialSpec`
built for each checked column only.

It returns one batch `Certificate`, whose arrays are transposed once to
[branch, b, pair] (`potential` [branch, b, pair, rung]) with a `failed`
mask per stage of `STAGES`, by one rule: "bhe" where the BHE residual
is not <= `BHE_RTOL`, "schrodinger" where the ladder link is not <= that
`BHE_RTOL` (a NaN fails), "oracle" where the oracle missed; and the
offsets `ends` of the subspaces on the pair axis.  Subspace i holds
pairs ends[i] .. ends[i + 1] - 1, so a one-subspace call's pair i is
column i of its eigenvectors.  `sweep` writes its file from that batch
and `verify` reads its one subspace straight from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .fdoracle import oracle_check
from .fock import SubspaceLabel
from .hamiltonian import ModeFrequencies, build_hamiltonian
from .heun import BHE_RTOL, Branch, operator_residuals, rho_coefficients
from .schroedinger import PotentialSpec, RationalLike, ladder_links, zero_mode_ladders
from .spectra import eig_sym

STAGES = ("bhe", "schrodinger", "oracle")


@dataclass(frozen=True, eq=False)
class Certificate:
    """The chain's numbers and verdicts for every eigenpair of a
    `certify_batch` call, as arrays indexed [branch, b, pair]; `failed` has
    a `STAGES` axis in front and `potential`, the rungs c_0 .. c_4 of each
    ladder, a rung axis behind.  `oracle` is None when the oracle was
    skipped."""

    bhe_operator_residual: np.ndarray
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


def solve_subspaces(
    freqs: ModeFrequencies, labels: Iterable[SubspaceLabel]
) -> list[Subspace]:
    """(label, eigenvalues, eigenvectors) of every label, in input order,
    from one stacked `eig_sym(build_hamiltonian(freqs, group))` call per
    dimension; each triple is bit for bit that label's own solve.

    Should a matrix be rejected, the labels are re-solved one by one, so
    the error raised is the first failing label's, in input order.
    """
    labels = list(labels)
    groups: dict[int, list[SubspaceLabel]] = {}
    for label in dict.fromkeys(labels):
        groups.setdefault(label.dim, []).append(label)
    try:
        specs = [eig_sym(build_hamiltonian(freqs, group)) for group in groups.values()]
    except (ValueError, AssertionError):
        for label in labels:
            eig_sym(build_hamiltonian(freqs, label))
        raise
    solved = {}
    for group, spec in zip(groups.values(), specs):
        for label, vals, vecs in zip(group, spec.eigenvalues, spec.eigenvectors):
            solved[label] = (label, vals, vecs)
    return [solved[label] for label in labels]


def certify_batch(
    freqs: ModeFrequencies,
    subspaces: Iterable[Subspace],
    b_values: Iterable[RationalLike],
    branches: Iterable[Branch],
    oracle: bool = False,
) -> tuple[Certificate, list[int]]:
    """The chain for every eigenpair of every subspace (label, energies,
    vecs) as one `Certificate` over [branch, b, pair], and the offsets
    `ends`: subspace i holds pairs ends[i] .. ends[i + 1] - 1.

    `b_values` and `branches` are read once and must each hold at least
    one value.  Every subspace's shapes are checked before any stage runs,
    and the first bad one raises.  Stages 1-4 run as one array pass.
    `oracle=True` runs the oracle too, subspace by subspace, then branch by
    branch, b by b, column by column.  An oracle check depends on
    (potential, lambda) alone, so each distinct pair of the call is solved
    once.
    """
    b_values, branches = list(b_values), list(branches)
    if not (b_values and branches):
        raise ValueError("certify_batch needs at least one b value and one branch")
    checked = []
    for label, energies, vecs in subspaces:
        energies, vecs = np.asarray(energies, dtype=float), np.asarray(vecs, dtype=float)
        if vecs.ndim != 2 or len(vecs) != label.dim:
            raise ValueError(
                f"eigenvector length {vecs.shape[:1]} does not match dim {label.dim}"
            )
        if energies.shape != vecs.shape[1:]:
            raise ValueError(
                f"energies of shape {energies.shape} for eigenvectors of shape {vecs.shape}"
            )
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
    if oracle:
        batch = replace(batch, oracle=_oracle_checks(batch, ends, b_values))
    return batch, ends


def _oracle_checks(batch, ends, b_values):
    """The oracle's result for every [branch, b, pair] of `batch`, in
    (subspace, branch, b, column) order, each distinct (potential, lambda)
    solved once; marks a miss in `batch.failed`."""
    memo = {}
    results = np.empty(batch.lam.shape, dtype=object)
    rows = batch.potential.tolist()
    for start, stop in zip(ends, ends[1:]):
        for br, j, col in product(*map(range, results.shape[:2]), range(start, stop)):
            vspec = PotentialSpec(b_values[j], tuple(rows[br][j][col]))
            lam = float(batch.lam[br, j, col])
            if (vspec, lam) not in memo:
                memo[vspec, lam] = oracle_check(vspec, lam)
            results[br, j, col] = memo[vspec, lam]
            batch.failed[2, br, j, col] = not memo[vspec, lam].hit
    return results


def _certify_pairs(freqs, labels, energies, vecs, b_values, branches):
    """Stages 1-4 of eigenpairs with `labels` and `energies` [pair] and
    `vecs` [component, pair], as one `Certificate` whose column axis is the
    pair axis; no oracle."""
    # [row, pair, branch, 1]
    phi = rho_coefficients(labels, vecs[:, :, None, None], branches)
    # stages 1-2 do not depend on b: [pair, branch, 1]; a zero phi reads NaN
    op = operator_residuals(freqs, labels, energies[:, None, None], phi, branches)
    with np.errstate(divide="ignore", invalid="ignore"):
        op_rel = _worst(op) / _worst(phi)
    # stages 3-4: one ladder per (pair, branch, b), [pair, branch, b, 1]
    ladder_args = (b_values, freqs, labels, energies[:, None], branches)
    rungs, lams = zero_mode_ladders(*ladder_args)
    link = ladder_links(*ladder_args, rungs, lams)
    # transposed once: [pair, branch, (b,) 1] -> [branch, (b,) pair]
    op_rel = op_rel[..., 0].T
    link = link[..., 0].transpose(1, 2, 0)
    shape = link.shape
    # one rule, in STAGES order; a NaN residual is not <= BHE_RTOL and fails
    failed = np.zeros((len(STAGES), *shape), dtype=bool)
    failed[0] = ~(op_rel <= BHE_RTOL)[:, None]
    failed[1] = ~(link <= BHE_RTOL)
    return Certificate(
        bhe_operator_residual=np.broadcast_to(op_rel[:, None], shape),
        potential=rungs[..., 0].transpose(2, 3, 1, 0),
        lam=lams[..., 0].transpose(1, 2, 0),
        schrodinger_residual=link,
        oracle=None,
        failed=failed,
    )
