"""Polynomial solutions of the biconfluent Heun equation (BHE).

Every eigenvector of the restricted Hamiltonian on W(l, m) maps to a
polynomial phi(rho) of degree at most min(l, m): the Fock monomial with
n_a = j contributes c^(l+m-j) / sqrt(j! (l-j)! (m-j)!) at power
rho^(l+m-j), and rho^k with k = max(l, m) is factored off.  The constant
of the underlying variable change is c = +sqrt(2) or -sqrt(2); both signs
are admissible and are tracked as a branch.

phi satisfies a BHE whose coefficients involve (w1, w2, w3), (l, m) and
the eigenvalue E.  The pipeline checks it by one residual recurrence, the
derivation-adjacent operator applied directly (`operator_residuals`).
The standard-form BHE with the mapped parameters (alpha, beta, gamma,
delta) of `bhe_params` is a library reference (`standard_residuals`):
`tests/test_symbolic.py` proves its row n equal to row n + 1 of the
operator form for every phi, and that vector equal to the eigen-residual
weighted by the map, c w_n ((H - E) v)_(N'-n) (w_n the weight of row n,
`_rho_weights`), for every v.  Both recurrences are exact in the
polynomial coefficients; no grids are involved.

The map and the operator form work on a pair axis, one eigenpair per
pair: `rho_coefficients` and `operator_residuals` take each pair's label
as int arrays `ell` and `m` [pair], its E from `energies` [pair] and a
sequence of branches, and return [row, pair, branch].  One eigenpair is a
one-pair call, the eigenvectors of one label a call with that label
repeated.  Pairs of several dimensions share one call with their phi rows
padded by zeros to the largest degree: a polynomial with zero leading
coefficients is the same polynomial, and each residual coefficient only
gains +-0 terms, so its value is unchanged while the band coefficients
are finite (one that overflows to inf makes a padded 0 a NaN).  Every
number is elementwise, so a column is bit for bit the same whichever
pairs share its call.  `bhe_params` is one label's and one branch's, and
`standard_residuals` applies it to that label's phis [row, column].  The
BHE twins `fock_to_rho_polynomial` (which returns a `RhoPolynomial`),
`bhe_operator_residual` and `bhe_standard_residual` are their one-pair,
one-column cases, and `residual_ok` applies `BHE_RTOL` to one column; the
tests and the bhe-bulk benchmark use them as references.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import MAX_TOTAL_LABEL, SubspaceLabel
from .hamiltonian import ModeFrequencies, check_finite

SQRT2 = math.sqrt(2.0)
# The chain's one pass rule: a residual passes when its largest coefficient
# over the largest phi coefficient is at most this.
BHE_RTOL = 1e-10


class Branch(enum.Enum):
    """Sign choice of the variable-change constant c = +sqrt(2) or -sqrt(2)."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def c(self) -> float:
        return SQRT2 if self is Branch.PLUS else -SQRT2


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


def _rho_weights(ell: np.ndarray, m: np.ndarray, branches: Sequence[Branch]) -> np.ndarray:
    """Weight of coefficient n of each pair's phi, c^(k+n) / sqrt(j! (l-j)!
    (m-j)!) with j = N' - n, as [row, pair, branch]: as many rows as the
    largest dimension (one for no pairs), 0 above each pair's own N'.

    One pass over every row of every distinct label, found by one
    `np.unique` of l (cap + 1) + m: the factorial product is evaluated
    exactly as an integer before its single rounding to double, c^p is
    (+-1)^p 2^(p // 2) sqrt(2)^(p % 2), whose one rounding is that of
    sqrt(2), and one numpy sqrt and divide forms all weights, so each is
    the scalar formula's double.
    """
    keys, pairs = np.unique(
        np.asarray(ell) * (MAX_TOTAL_LABEL + 1) + np.asarray(m), return_inverse=True
    )
    ells, ms = np.divmod(keys, MAX_TOTAL_LABEL + 1)
    rows = int(np.minimum(ells, ms).max(initial=0)) + 1
    # k + n and l, m, j are at most l + m
    top = int((ells + ms).max(initial=0))
    fact = [math.factorial(i) for i in range(top + 1)]
    exps = np.arange(top + 1)
    signs = np.sign([br.c for br in branches]).reshape(-1, 1)
    powers = signs**exps * np.ldexp(np.where(exps % 2, SQRT2, 1.0), exps // 2)
    # row n of distinct label u: its power k + n, and j! (l-j)! (m-j)! with
    # j = N' - n, in the same order
    labels = list(zip(ells.tolist(), ms.tolist()))
    u, n, p = np.array(
        [(u, n, max(lab) + n) for u, lab in enumerate(labels) for n in range(min(lab) + 1)],
        dtype=int,
    ).reshape(-1, 3).T
    products = [
        float(fact[j] * fact[l_ - j] * fact[m_ - j])
        for l_, m_ in labels for j in range(min(l_, m_), -1, -1)
    ]
    weights = np.zeros((rows, len(keys), len(branches)))
    weights[n, u] = (powers.reshape(-1, top + 1)[:, p] / np.sqrt(products)).T
    return weights[:, pairs]


def rho_coefficients(
    ell: np.ndarray, m: np.ndarray, vecs: np.ndarray, branches: Sequence[Branch]
) -> np.ndarray:
    """phi coefficients of every pair's eigenvector, [row, pair, branch].

    Column i of `vecs` [component, pair] is the eigenvector of pair i, with
    label (`ell[i]`, `m[i]`).  Row n of the result is coefficient b_n: the
    canonical component j = N' - n times its weight (`_rho_weights`).
    `vecs` has as many rows as the largest dimension: a pair of a smaller
    dimension d holds its components in the last d rows, zeros before, and
    its phi reads 0 above its degree.
    """
    weights = _rho_weights(ell, m, branches)
    vecs = np.asarray(vecs, dtype=float)
    if vecs.shape != weights.shape[:2]:
        raise ValueError(f"eigenvectors of shape {vecs.shape}, expected {weights.shape[:2]}")
    return vecs[::-1, :, None] * weights


def fock_to_rho_polynomial(
    label: SubspaceLabel, eigvec: Sequence[float], branch: Branch
) -> RhoPolynomial:
    """Map an eigenvector in the canonical basis to phi(rho).

    The one-column case of `rho_coefficients`: coefficient n receives the
    canonical component j = n_prime - n with weight
    c^(k+n) / sqrt(j! (l-j)! (m-j)!).
    """
    vec = np.asarray(eigvec, dtype=float)
    coeffs = rho_coefficients([label.ell], [label.m], vec[:, None], [branch])[:, 0, 0]
    return RhoPolynomial(coeffs=tuple(coeffs.tolist()), label=label, branch=branch)


def bhe_params(
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    energy: float | np.ndarray,
    branch: Branch,
) -> BheParams:
    """Standard-form parameters (alpha, beta, gamma, delta) of phi's BHE.

    The map is written for m >= l; for l > m it is the same with w2 <-> w3
    and l <-> m interchanged (ties take the unswapped rule), so in it l
    reads N' = min(l, m) and m reads k = max(l, m).  delta is an array
    when `energy` is one.  Raises ValueError naming the first parameter
    that is not finite.
    """
    ell, m, k, c = label.ell, label.m, label.k, branch.c
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
    ell: np.ndarray,
    m: np.ndarray,
    energies: np.ndarray,
    phis: np.ndarray,
    branches: Sequence[Branch],
) -> np.ndarray:
    """Residual coefficients of the direct BHE operator, [row, pair, branch].

    Pair i applies the operator of its label (`ell[i]`, `m[i]`) at
    `energies[i]` to its phi of each branch, `phis` [row, pair, branch] as
    `rho_coefficients` returns them; see `bhe_operator_residual`.  Each
    coefficient sums its three band terms in the same order as a scalar
    loop over the pairs would.  Raises ValueError naming the first of its
    constants (wbar, then P) that is not finite.
    """
    ell, m = np.asarray(ell)[:, None], np.asarray(m)[:, None]
    k = np.maximum(ell, m)
    c = np.array([br.c for br in branches])
    w1, w2, w3 = freqs.as_tuple()
    wbar = w1 - w2 - w3
    check_finite("w1 - w2 - w3", wbar)
    q1 = 1 + 2 * k - ell - m
    with np.errstate(over="ignore", invalid="ignore"):
        p_w = m * (w1 - w2) + ell * (w1 - w3)
        check_finite("m (w1 - w2) + l (w1 - w3)", p_w)
        p_const = p_w - np.asarray(energies, dtype=float)[:, None] - k * wbar
    check_finite("BHE operator constant P", p_const)
    n_top = phis.shape[0] - 1
    j = np.arange(n_top + 3)[:, None, None]
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
    phis = np.array(phi.coeffs)[:, None, None]
    res = operator_residuals(freqs, [label.ell], [label.m], [energy], phis, [phi.branch])
    return res[:, 0, 0]


def standard_residuals(params: BheParams, phis: np.ndarray) -> np.ndarray:
    """Residual coefficients of the standard-form BHE, one column per phi
    of `phis` [row, column].

    Each parameter is a scalar or broadcasts over the columns; see
    `bhe_standard_residual`.
    """
    a, bt, g, d = params.alpha, params.beta, params.gamma, params.delta
    pole = (d + (1.0 + a) * bt) / 2.0
    n_top = phis.shape[0] - 1
    j = np.arange(n_top + 2)[:, None]
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

    is multiplied by x to clear the simple pole.  Its row n is row n + 1
    of bhe_operator_residual, an identity proven once in the tests.  The
    one-column case of `standard_residuals`.
    """
    return standard_residuals(params, np.array(phi.coeffs)[:, None])[:, 0]


def residual_ok(residual: np.ndarray, phi: RhoPolynomial) -> bool:
    """The pipeline's pass rule on one column: max|residual| / max|phi| is
    at most `BHE_RTOL`, and a NaN fails, as a zero phi does."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return bool(np.max(np.abs(residual)) / np.max(np.abs(phi.coeffs)) <= BHE_RTOL)
