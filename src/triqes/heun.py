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
involved.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import SubspaceLabel
from .hamiltonian import ModeFrequencies

SQRT2 = math.sqrt(2.0)

_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp splitting constant


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _horner_compensated(coeffs, x):
    """Horner evaluation with an error-free compensation term.

    The curve output prints chi to 15 significant digits.  With plain
    Horner, cancellation among mixed-sign coefficients moves chi by up to
    3.8e-11 of max|chi| (W(8,8), w = (-1.5, 0.8, 1.9), b = 1, x in
    [0.02, 4]), so those digits would be noise.  Compensation restores
    results as if evaluated in double-double precision.
    """
    p = np.zeros_like(x) + coeffs[-1]
    e = np.zeros_like(x)
    for coef in reversed(coeffs[:-1]):
        p, pi = _two_prod(p, x)
        p, sigma = _two_sum(p, coef)
        e = e * x + (pi + sigma)
    return p + e


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

    def __call__(self, rho: float | np.ndarray) -> float | np.ndarray:
        # compensated Horner in the branch's own polynomial variable
        acc = _horner_compensated(self.coeffs, np.asarray(rho, dtype=float))
        return acc if np.ndim(rho) else float(acc)

    @property
    def degree(self) -> int:
        for n in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[n] != 0.0:
                return n
        return 0


@dataclass(frozen=True)
class BheParams:
    """Standard-form BHE parameters."""

    alpha: float
    beta: float
    gamma: float
    delta: float


def fock_to_rho_polynomial(
    label: SubspaceLabel, eigvec: Sequence[float], branch: Branch
) -> RhoPolynomial:
    """Map an eigenvector in the canonical basis to phi(rho).

    Coefficient n receives the canonical component j = n_prime - n with
    weight c^(k+n) / sqrt(j! (l-j)! (m-j)!).  Factorials are evaluated
    exactly as integers before the single rounding to double.
    """
    vec = np.asarray(eigvec, dtype=float)
    if vec.shape != (label.dim,):
        raise ValueError(f"eigenvector length {vec.shape} does not match dim {label.dim}")
    ell, m, k, n_prime = label.ell, label.m, label.k, label.n_prime
    c = branch.c
    coeffs = []
    for n in range(n_prime + 1):
        j = n_prime - n
        weight = c ** (k + n) / math.sqrt(
            math.factorial(j) * math.factorial(ell - j) * math.factorial(m - j)
        )
        coeffs.append(float(vec[j]) * weight)
    return RhoPolynomial(coeffs=tuple(coeffs), label=label, branch=branch)


def _swap_for_k(freqs: ModeFrequencies, label: SubspaceLabel) -> tuple[float, float, float, int, int]:
    """Order parameters so the m >= l identification applies.

    For l > m the parameter map is the same with w2 <-> w3 and l <-> m
    interchanged.  Ties (l == m) fall through to the unswapped rule.
    """
    if label.m >= label.ell:
        return freqs.w1, freqs.w2, freqs.w3, label.ell, label.m
    return freqs.w1, freqs.w3, freqs.w2, label.m, label.ell


def bhe_params(
    freqs: ModeFrequencies, label: SubspaceLabel, energy: float, branch: Branch
) -> BheParams:
    """Standard-form parameters (alpha, beta, gamma, delta) of phi's BHE."""
    w1, w2, w3, ell, m = _swap_for_k(freqs, label)
    c = branch.c
    alpha = float(m - ell)
    beta = -c * (w1 - w2 - w3)
    gamma = float(m + ell + 2)
    delta = c * (
        m * (w1 - w2 - 3.0 * w3)
        - ell * (3.0 * w1 - w2 - 3.0 * w3)
        + (w1 - w2 - w3 + 2.0 * energy)
    )
    return BheParams(alpha=alpha, beta=beta, gamma=gamma, delta=delta)


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
    P = m (w1 - w2) + l (w1 - w3) - E - k wbar, has polynomial
    coefficients, so the residual is itself a polynomial.  For a true
    eigenpair every returned coefficient vanishes.
    """
    ell, m, k = label.ell, label.m, label.k
    w1, w2, w3 = freqs.as_tuple()
    c = phi.branch.c
    wbar = w1 - w2 - w3
    q1 = 1 + 2 * k - ell - m
    p_const = m * (w1 - w2) + ell * (w1 - w3) - energy - k * wbar
    zero_pole = (m - k) * (ell - k)  # identically zero since k = max(l, m)
    b = phi.coeffs
    n_top = len(b) - 1
    res = np.zeros(n_top + 3)
    for j in range(n_top + 3):
        val = 0.0
        if j <= n_top:
            val += (j * (j - 1) + q1 * j + zero_pole) * b[j]
        if 1 <= j <= n_top + 1:
            val += (-c * wbar * (j - 1) + c * p_const) * b[j - 1]
        if 2 <= j <= n_top + 2:
            val += c * c * ((ell + m - k) - (j - 2)) * b[j - 2]
        res[j] = val
    return res


def bhe_standard_residual(params: BheParams, phi: RhoPolynomial) -> np.ndarray:
    """Residual coefficients of the standard-form BHE applied to phi.

    The standard form

        y'' + ((1+alpha)/x + beta - 2x) y'
            + (-(delta + (1+alpha) beta)/(2x) + gamma - alpha - 2) y = 0

    is multiplied by x to clear the simple pole.  Agreement with
    bhe_operator_residual certifies the parameter identification.
    """
    a, bt, g, d = params.alpha, params.beta, params.gamma, params.delta
    pole = (d + (1.0 + a) * bt) / 2.0
    b = phi.coeffs
    n_top = len(b) - 1
    res = np.zeros(n_top + 2)
    for j in range(n_top + 2):
        val = 0.0
        if j + 1 <= n_top:
            val += ((j + 1) * j + (1.0 + a) * (j + 1)) * b[j + 1]
        if j <= n_top:
            val += (bt * j - pole) * b[j]
        if 1 <= j <= n_top + 1:
            val += (-2.0 * (j - 1) + (g - a - 2.0)) * b[j - 1]
        res[j] = val
    return res


def residual_ok(residual: np.ndarray, phi: RhoPolynomial, rtol: float = 1e-10) -> bool:
    """Coefficient-wise residual test relative to the largest phi coefficient."""
    scale = max(abs(x) for x in phi.coeffs)
    return bool(np.all(np.abs(residual) <= rtol * scale))
