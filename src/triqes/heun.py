"""Polynomial solutions of the biconfluent Heun equation (BHE).

Every eigenvector of the restricted Hamiltonian on W(l, m) maps to a
polynomial phi(rho) of degree at most min(l, m): the Fock monomial with
n_a = j contributes c^(l+m-j) / sqrt(j! (l-j)! (m-j)!) at power
rho^(l+m-j), and rho^k with k = max(l, m) is factored off.  The constant
of the underlying variable change is c = +sqrt(2) or -sqrt(2); both signs
are admissible and are tracked as a branch.

phi satisfies a BHE whose coefficients involve (w1, w2, w3), (l, m) and
the eigenvalue E.  Two independent residual recurrences certify this:
one applies the derivation-adjacent operator directly, the other the
standard-form BHE with the mapped parameters (alpha, beta, gamma, delta).
Both recurrences are exact in the polynomial coefficients; no grids are
involved.  The map and both recurrences are array operations over one
column per eigenvector (`rho_coefficients`, `operator_residuals`,
`standard_residuals`), with E entering as a vector.  Each of them, and
`bhe_params`, also takes a sequence of labels and a sequence of branches
in place of one label and one branch: their constants l, m, k, the
w2 <-> w3 swap, the map weights and c then become arrays over the column
axes [label, branch, column], and one call covers every (label, branch)
pair.  Labels of several dimensions share one call with their phi rows
padded by zeros to the largest degree: a polynomial with zero leading
coefficients is the same polynomial, and each residual coefficient only
gains +-0 terms, so its value is unchanged while the band coefficients
are finite (one that overflows to inf makes a padded 0 a NaN).  One
label and one branch is the same arithmetic on scalars, so a column is
bit for bit the same either way.
The BHE twins
`fock_to_rho_polynomial` (which returns a `RhoPolynomial`),
`bhe_operator_residual` and `bhe_standard_residual` are their one-column
cases, and `residual_ok` applies `BHE_RTOL` to one column; the tests and
the bhe-bulk benchmark use them as references.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import Labels, SubspaceLabel
from .hamiltonian import ModeFrequencies, check_finite

SQRT2 = math.sqrt(2.0)
# The chain's one pass rule: a residual passes when every coefficient is at
# most this times the largest phi coefficient.
BHE_RTOL = 1e-10


class Branch(enum.Enum):
    """Sign choice of the variable-change constant c = +sqrt(2) or -sqrt(2)."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def c(self) -> float:
        return SQRT2 if self is Branch.PLUS else -SQRT2


# one branch or several
Branches = Branch | Sequence[Branch]


@dataclass(frozen=True)
class RhoPolynomial:
    """Coefficients b_0 .. b_N' of phi(rho), tagged with label and branch."""

    coeffs: tuple[float, ...]
    label: SubspaceLabel
    branch: Branch

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.label.n_prime + 1:
            raise ValueError(
                f"expected {self.label.n_prime + 1} coefficients, got {len(self.coeffs)}"
            )


@dataclass(frozen=True)
class BheParams:
    """Standard-form BHE parameters.

    Only delta depends on E; built from an array of energies it is an array.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float | np.ndarray


def _constants(label: Labels, branch: Branches):
    """(l, m, k, c) of one label and one branch, or, for a sequence of labels
    and a sequence of branches, int arrays l, m, k shaped (labels, 1, 1) and
    a float array c shaped (branches, 1), which broadcast over the column
    axes [label, branch, column]."""
    if isinstance(label, SubspaceLabel):
        return label.ell, label.m, label.k, branch.c
    ell = np.array([lab.ell for lab in label])[:, None, None]
    m = np.array([lab.m for lab in label])[:, None, None]
    c = np.array([br.c for br in branch])[:, None]
    return ell, m, np.maximum(ell, m), c


def _rows(n: int, ndim: int) -> np.ndarray:
    """Row indices 0 .. n-1 as a column that broadcasts over `ndim - 1`
    column axes."""
    return np.arange(n).reshape(-1, *[1] * (ndim - 1))


def _rho_weights(label: Labels, branch: Branches) -> np.ndarray:
    """Weight of coefficient n: c^(k+n) / sqrt(j! (l-j)! (m-j)!), j = N' - n,
    shaped [row, 1], or [row, label, branch, 1] for sequences, with as many
    rows as the largest dimension (one for no labels) and 0 above each
    label's own N'.

    Factorials are evaluated exactly as integers before the single rounding
    to double, once per distinct label.
    """
    if not isinstance(label, SubspaceLabel):
        distinct = {lab: u for u, lab in enumerate(dict.fromkeys(label))}
        rows = max((lab.dim for lab in distinct), default=1)
        weights = np.zeros((len(distinct), len(branch), rows))
        for lab, u in distinct.items():
            for i, br in enumerate(branch):
                weights[u, i, : lab.dim] = _rho_weights(lab, br)[:, 0]
        return np.moveaxis(weights[[distinct[lab] for lab in label]], 2, 0)[..., None]
    ell, m, k, n_prime = label.ell, label.m, label.k, label.n_prime
    c = branch.c
    weights = []
    for n in range(n_prime + 1):
        j = n_prime - n
        weights.append(c ** (k + n) / math.sqrt(
            math.factorial(j) * math.factorial(ell - j) * math.factorial(m - j)
        ))
    return np.array(weights)[:, None]


def rho_coefficients(label: Labels, vecs: np.ndarray, branch: Branches) -> np.ndarray:
    """phi coefficients of every column of `vecs`, one column each.

    Row n of the result is coefficient b_n: the canonical component
    j = N' - n times its weight (`_rho_weights`).  For sequences of labels
    and branches, `vecs` is [component, label, 1, column] and the result
    [row, label, branch, column], both with as many rows as the largest
    dimension: a label of a smaller dimension d holds its components in the
    last d rows, zeros before, and its phi reads 0 above its degree.
    """
    weights = _rho_weights(label, branch)
    vecs = np.asarray(vecs, dtype=float)
    if vecs.ndim != weights.ndim or vecs.shape[0] != weights.shape[0]:
        raise ValueError(
            f"eigenvector length {vecs.shape[:1]} does not match dim {weights.shape[0]}"
        )
    return vecs[::-1] * weights


def fock_to_rho_polynomial(
    label: SubspaceLabel, eigvec: Sequence[float], branch: Branch
) -> RhoPolynomial:
    """Map an eigenvector in the canonical basis to phi(rho).

    The one-column case of `rho_coefficients`: coefficient n receives the
    canonical component j = n_prime - n with weight
    c^(k+n) / sqrt(j! (l-j)! (m-j)!).
    """
    vec = np.asarray(eigvec, dtype=float)
    if vec.shape != (label.dim,):
        raise ValueError(f"eigenvector length {vec.shape} does not match dim {label.dim}")
    coeffs = rho_coefficients(label, vec[:, None], branch)[:, 0]
    return RhoPolynomial(coeffs=tuple(coeffs.tolist()), label=label, branch=branch)


def bhe_params(
    freqs: ModeFrequencies,
    label: Labels,
    energy: float | np.ndarray,
    branch: Branches,
) -> BheParams:
    """Standard-form parameters (alpha, beta, gamma, delta) of phi's BHE.

    The map is written for m >= l; for l > m it is the same with w2 <-> w3
    and l <-> m interchanged (ties take the unswapped rule), so in it l
    reads N' = min(l, m) and m reads k = max(l, m).  For sequences of labels
    and branches every parameter is an array over [label, branch, column].
    Raises ValueError naming the first of them that is not finite.
    """
    ell, m, k, c = _constants(label, branch)
    n_prime = ell + m - k
    swap = ell > m
    w1 = freqs.w1
    w2, w3 = np.where(swap, freqs.w3, freqs.w2), np.where(swap, freqs.w2, freqs.w3)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = np.float64(k - n_prime)
        beta = -c * (w1 - w2 - w3)
        check_finite("BHE beta", beta)
        gamma = np.float64(k + n_prime + 2)
        delta = c * (
            k * (w1 - w2 - 3.0 * w3)
            - n_prime * (3.0 * w1 - w2 - 3.0 * w3)
            + (w1 - w2 - w3 + 2.0 * energy)
        )
    check_finite("BHE delta", delta)
    return BheParams(alpha=alpha, beta=beta, gamma=gamma, delta=delta)


def operator_residuals(
    freqs: ModeFrequencies,
    label: Labels,
    energies: np.ndarray,
    phis: np.ndarray,
    branch: Branches,
) -> np.ndarray:
    """Residual coefficients of the direct BHE operator, one column per phi.

    Column i applies the operator at `energies[i]` to the phi whose
    coefficients are `phis[:, i]`; see `bhe_operator_residual`.  For
    sequences of labels and branches, `phis` is [row, label, branch,
    column] and `energies` broadcasts over [label, branch, column].  Each
    coefficient sums its three band terms in the same order as a scalar
    loop over the columns would.  Raises ValueError naming the first of
    its constants (wbar, then P) that is not finite.
    """
    ell, m, k, c = _constants(label, branch)
    w1, w2, w3 = freqs.as_tuple()
    wbar = w1 - w2 - w3
    check_finite("w1 - w2 - w3", wbar)
    q1 = 1 + 2 * k - ell - m
    with np.errstate(over="ignore", invalid="ignore"):
        p_w = m * (w1 - w2) + ell * (w1 - w3)
        check_finite("m (w1 - w2) + l (w1 - w3)", p_w)
        p_const = p_w - np.asarray(energies, dtype=float) - k * wbar
    check_finite("BHE operator constant P", p_const)
    n_top = phis.shape[0] - 1
    j = _rows(n_top + 3, phis.ndim)
    res = np.zeros((n_top + 3, *phis.shape[1:]))
    # a finite P times phi can still overflow; an inf or nan residual fails
    with np.errstate(over="ignore", invalid="ignore"):
        res[: n_top + 1] += (j * (j - 1) + q1 * j)[: n_top + 1] * phis
        res[1 : n_top + 2] += (-c * wbar * (j[1 : n_top + 2] - 1) + c * p_const) * phis
        res[2:] += (c * c * ((ell + m - k) - (j[2:] - 2))) * phis
    return res


def bhe_operator_residual(
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    energy: float,
    phi: RhoPolynomial,
) -> np.ndarray:
    """Residual coefficients of the direct BHE operator applied to phi.

    The equation in phi (obtained from the separated radial equation by
    rho = 1/r and psi = rho^k phi) is multiplied by rho^2 to clear the
    poles; the resulting operator

        rho^2 phi'' + (q1 rho - c wbar rho^2 - c^2 rho^3) phi'
        + ((m-k)(l-k) + c P rho + (l+m-k) c^2 rho^2) phi

    with q1 = 1 + 2k - l - m, wbar = w1 - w2 - w3 and
    P = m (w1 - w2) + l (w1 - w3) - E - k wbar (the constant (m-k)(l-k)
    is 0, since k = max(l, m)), has polynomial
    coefficients, so the residual is itself a polynomial.  For a true
    eigenpair every returned coefficient vanishes.  The one-column case of
    `operator_residuals`.
    """
    phis = np.array(phi.coeffs)[:, None]
    return operator_residuals(freqs, label, np.array([energy]), phis, phi.branch)[:, 0]


def standard_residuals(params: BheParams, phis: np.ndarray) -> np.ndarray:
    """Residual coefficients of the standard-form BHE, one column per phi.

    Each parameter is a scalar or broadcasts over the column axes of
    `phis`; see `bhe_standard_residual`.
    """
    a, bt, g, d = params.alpha, params.beta, params.gamma, params.delta
    pole = (d + (1.0 + a) * bt) / 2.0
    n_top = phis.shape[0] - 1
    j = _rows(n_top + 2, phis.ndim)
    res = np.zeros((n_top + 2, *phis.shape[1:]))
    res[:n_top] += ((j + 1) * j + (1.0 + a) * (j + 1))[:n_top] * phis[1:]
    res[: n_top + 1] += (bt * j[: n_top + 1] - pole) * phis
    res[1:] += (-2.0 * (j[1:] - 1) + (g - a - 2.0)) * phis
    return res


def bhe_standard_residual(params: BheParams, phi: RhoPolynomial) -> np.ndarray:
    """Residual coefficients of the standard-form BHE applied to phi.

    The standard form

        y'' + ((1+alpha)/x + beta - 2x) y'
            + (-(delta + (1+alpha) beta)/(2x) + gamma - alpha - 2) y = 0

    is multiplied by x to clear the simple pole.  Agreement with
    bhe_operator_residual certifies the parameter identification.  The
    one-column case of `standard_residuals`.
    """
    return standard_residuals(params, np.array(phi.coeffs)[:, None])[:, 0]


def residual_ok(residual: np.ndarray, phi: RhoPolynomial) -> bool:
    """Coefficient-wise residual test relative to the largest phi
    coefficient, at `BHE_RTOL`."""
    scale = max(abs(x) for x in phi.coeffs)
    return bool(np.all(np.abs(residual) <= BHE_RTOL * scale))
