"""Quasi-exactly solvable Schroedinger potentials from the BHE.

The change of variable x = rho^b (b > 0) together with a factor-function
transformation converts the BHE for phi(rho) into a Schroedinger equation
-chi'' + V_b(x) chi = 0 on the half line.  In terms of

    A = c (w1 - w2 - w3),  B = l + m - 1,  G = 2 (l + m),
    D = c (m (w1 - w2) + l (w1 - w3) - E),      c = +-sqrt(2),

the potential carries exactly five powers of x:

    V_b(x) = (-1/4 + (l - m)^2 / (4 b^2)) x^(-2)
           + ((A B - 2 D) / (2 b^2))      x^(-2 + 1/b)
           + ((A^2 + 4 B - 4 G - 4) / (4 b^2)) x^(-2 + 2/b)
           + (A / b^2)                    x^(-2 + 3/b)
           + (1 / b^2)                    x^(-2 + 4/b)

and the closed-form zero mode is

    chi(x) = x^((k - N' + b) / (2 b))
             * exp(-(1/2) x^(1/b) (A + x^(1/b)))
             * phi(x^(1/b)),

with k = max(l, m), N' = min(l, m) and phi the branch's own polynomial.
The minus branch (c = -sqrt(2)) genuinely changes the potential: A and D
flip sign, which also flips the sign of the sextic pseudo-eigenvalue
below.  (In the plus branch's variable the minus-branch x corresponds to
(-rho)^b; evaluating each polynomial in its own variable is equivalent.)

For b = 1/2 the x^0 term carries the only E dependence, so V splits as
V = Vtilde - eps(E) with eps(E) = -4 c E: the displaced sextic potential
Vtilde is E-independent and has genuine eigenvalues eps(E).

`zero_mode_residual` is the one check of -chi'' + V chi = lambda chi, and
it is exact: with v = x^(1/b) the left side minus the right is
x^(s-2) e^(g(v)) P(v) / b^2 for a polynomial P of degree <= N' + 4, whose
coefficients it returns.  No grid, step size or difference stencil is
involved; the certification pipeline gates on P.  `eval_potential` and
`eval_wavefunction` evaluate V and chi pointwise for the curve output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fock import SubspaceLabel
from .hamiltonian import ModeFrequencies
from .heun import Branch, RhoPolynomial

RationalLike = Fraction | int | float | str


@dataclass(frozen=True)
class AuxConstants:
    """The four potential constants; A and D carry the branch sign."""

    A: float
    B: float
    G: float
    D: float

    @classmethod
    def from_inputs(
        cls,
        freqs: ModeFrequencies,
        label: SubspaceLabel,
        energy: float,
        branch: Branch = Branch.PLUS,
    ) -> "AuxConstants":
        c = branch.c
        w1, w2, w3 = freqs.as_tuple()
        ell, m = label.ell, label.m
        return cls(
            A=c * (w1 - w2 - w3),
            B=float(m + ell - 1),
            G=float(2 * (m + ell)),
            D=c * (m * (w1 - w2) + ell * (w1 - w3) - energy),
        )


@dataclass(frozen=True)
class PotentialSpec:
    """Five-term power potential V(x) = sum coeff * x^exponent.

    Terms are kept distinct even if exponents coincide at evaluation time.
    Provenance fields record what the potential was built from.
    """

    b: Fraction
    terms: tuple[tuple[float, float], ...]  # (exponent, coefficient)
    label: SubspaceLabel
    freqs: ModeFrequencies
    energy: float
    branch: Branch

    def coefficient(self, exponent: float, tol: float = 1e-12) -> float:
        return sum(c for e, c in self.terms if abs(e - exponent) <= tol)


@dataclass(frozen=True)
class WavefunctionSpec:
    """Closed-form chi(x): power prefactor, exponential factor, polynomial."""

    prefactor_exponent: float
    A: float
    phi: RhoPolynomial
    b: Fraction

    @property
    def branch(self) -> Branch:
        return self.phi.branch


def potential_spec(
    b: RationalLike,
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    energy: float,
    branch: Branch = Branch.PLUS,
) -> PotentialSpec:
    """Build V_b(x) for one eigenvalue E and branch."""
    bf = Fraction(b)
    if bf <= 0:
        raise ValueError(f"transformation exponent b must be > 0, got {bf}")
    bb = float(bf)
    aux = AuxConstants.from_inputs(freqs, label, energy, branch)
    a_, b_, g_, d_ = aux.A, aux.B, aux.G, aux.D
    ell, m = label.ell, label.m
    inv = 1.0 / bb
    terms = (
        (-2.0, -0.25 + (ell - m) ** 2 / (4.0 * bb * bb)),
        (-2.0 + inv, (a_ * b_ - 2.0 * d_) / (2.0 * bb * bb)),
        (-2.0 + 2.0 * inv, (a_ * a_ + 4.0 * b_ - 4.0 * g_ - 4.0) / (4.0 * bb * bb)),
        (-2.0 + 3.0 * inv, a_ / (bb * bb)),
        (-2.0 + 4.0 * inv, 1.0 / (bb * bb)),
    )
    return PotentialSpec(
        b=bf, terms=terms, label=label, freqs=freqs, energy=energy, branch=branch
    )


def epsilon_of(energy: float, branch: Branch = Branch.PLUS) -> float:
    """Pseudo-eigenvalue eps(E) = -4 c E of the displaced sextic potential."""
    return -4.0 * branch.c * energy


def split_sextic(
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    branch: Branch = Branch.PLUS,
):
    """Displaced sextic potential Vtilde (E-free) and the map E -> eps(E).

    Vtilde equals potential_spec(1/2, ..., E, ...) + eps(E) for every E;
    building at E = 0 realizes the cancellation exactly.
    """
    from functools import partial

    tilde = potential_spec(Fraction(1, 2), freqs, label, 0.0, branch)
    return tilde, partial(epsilon_of, branch=branch)


def eval_potential(spec: PotentialSpec, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate V(x) for x > 0 (vectorized over arrays)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("potential is defined for x > 0 only")
    val = np.zeros_like(arr)
    for e, cf in spec.terms:
        val += cf * arr**e
    return val if np.ndim(x) else float(val)


def wavefunction_spec(
    b: RationalLike,
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    phi: RhoPolynomial,
) -> WavefunctionSpec:
    bf = Fraction(b)
    if bf <= 0:
        raise ValueError(f"transformation exponent b must be > 0, got {bf}")
    bb = float(bf)
    k, n_prime = label.k, label.n_prime
    pref = (k - n_prime + bb) / (2.0 * bb)  # always > 0
    a_ = phi.branch.c * (freqs.w1 - freqs.w2 - freqs.w3)
    return WavefunctionSpec(prefactor_exponent=pref, A=a_, phi=phi, b=bf)


def eval_wavefunction(wf: WavefunctionSpec, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate chi(x) for x > 0 (vectorized over arrays).

    The polynomial argument is v = x^(1/b) in the branch's own variable;
    for the minus branch this is the point -x^(1/b) of the plus-branch
    variable, matching x = (-rho)^b.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("wavefunction is defined for x > 0 only")
    v = arr ** (1.0 / float(wf.b))
    val = (
        arr**wf.prefactor_exponent
        * np.exp(-0.5 * v * (wf.A + v))
        * wf.phi(v)
    )
    return val if np.ndim(x) else float(val)


def zero_mode_residual(
    spec: PotentialSpec, wf: WavefunctionSpec, lam: float
) -> np.ndarray:
    """Coefficients in v = x^(1/b) of the exact residual polynomial P.

    With sigma = b s (s the prefactor exponent), g = -v (A + v) / 2 and
    q = sigma - A v / 2 - v^2, chi = v^sigma e^g phi(v) gives

        -chi'' + (V - lam) chi = x^(s - 2) e^g P(v) / b^2,
        P = -(v^2 phi'' + 2 v q phi' + (q^2 - sigma - v^2) phi)
            - (1 - b)(v phi' + q phi) + b^2 (sum_i c_i v^i - lam v^(2b)) phi,

    where c_i is the coefficient of x^(-2 + i/b) in V.  P vanishes
    identically exactly when chi is a zero mode at lam, so no grid is
    involved.  P is built from `spec.terms` and `wf` alone.  Raises
    ValueError when an exponent of V is off the ladder -2 + i/b,
    i = 0..4, for b = `wf.b`, or when lam != 0 and 2b is not an integer.
    """
    b = float(wf.b)
    c = [0.0] * 5
    for exponent, coeff in spec.terms:
        i = (exponent + 2.0) * b
        rung = round(i)
        if abs(i - rung) > 1e-9 or not 0 <= rung <= 4:
            raise ValueError(
                f"potential exponent {exponent} is not -2 + i/b with i in 0..4"
                f" for b = {wf.b}"
            )
        c[rung] += coeff
    lam_power = 0
    if lam != 0.0:
        if (2 * wf.b).denominator != 1:
            raise ValueError(f"lambda != 0 needs an integer 2b, got b = {wf.b}")
        lam_power = int(2 * wf.b)
    sigma = b * wf.prefactor_exponent
    q = (sigma, -0.5 * wf.A, -1.0)
    # the part of P / (phi_n v^n) that does not depend on n, in powers of v
    base = [0.0] * max(5, lam_power + 1)
    for i in range(3):
        for j in range(3):
            base[i + j] -= q[i] * q[j]
        base[i] -= (1.0 - b) * q[i]
    base[0] += sigma
    base[2] += 1.0
    for i in range(5):
        base[i] += b * b * c[i]
    base[lam_power] -= b * b * lam
    phi = wf.phi.coeffs
    out = [0.0] * (len(phi) + len(base) - 1)
    for n, p in enumerate(phi):
        # v^2 (v^n)'' = n (n - 1) v^n and v (v^n)' = n v^n
        r = list(base)
        r[0] -= n * (n - 1) + 2.0 * n * q[0] + (1.0 - b) * n
        r[1] -= 2.0 * n * q[1]
        r[2] -= 2.0 * n * q[2]
        for j, rj in enumerate(r):
            out[n + j] += p * rj
    return np.array(out)

