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

These five rungs are the data format: `PotentialSpec` holds b and the
coefficients c_0 .. c_4 of x^(-2 + i/b), and every consumer reads rung i
by index.  The closed-form zero mode is

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

RationalLike = Fraction | int


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
    """The five-rung ladder V(x) = sum_i coeffs[i] x^(-2 + i/b), i = 0..4.

    `coeffs[i]` is the coefficient of rung i; a zero coefficient is an
    absent power.
    """

    b: Fraction
    coeffs: tuple[float, float, float, float, float]

    def values(self, xs: np.ndarray) -> np.ndarray:
        """V at every x, summed over the non-zero rungs in rung order.

        No domain guard: symmetric domains are fine as long as every
        non-zero rung stays finite on them (callers check).
        """
        inv = 1.0 / float(self.b)
        vals = np.zeros_like(xs)
        with np.errstate(invalid="ignore", divide="ignore"):
            for i, cf in enumerate(self.coeffs):
                if cf != 0.0:
                    vals += cf * np.power(xs, -2.0 + i * inv)
        return vals


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
    """Build the ladder of V_b(x) for one eigenvalue E and branch."""
    if b <= 0:
        raise ValueError(f"transformation exponent b must be > 0, got {b}")
    bb = float(b)
    aux = AuxConstants.from_inputs(freqs, label, energy, branch)
    a_, b_, g_, d_ = aux.A, aux.B, aux.G, aux.D
    ell, m = label.ell, label.m
    coeffs = (
        -0.25 + (ell - m) ** 2 / (4.0 * bb * bb),
        (a_ * b_ - 2.0 * d_) / (2.0 * bb * bb),
        (a_ * a_ + 4.0 * b_ - 4.0 * g_ - 4.0) / (4.0 * bb * bb),
        a_ / (bb * bb),
        1.0 / (bb * bb),
    )
    return PotentialSpec(b, coeffs)


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
    val = spec.values(arr)
    return val if np.ndim(x) else float(val)


def wavefunction_spec(
    b: RationalLike,
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    phi: RhoPolynomial,
) -> WavefunctionSpec:
    if b <= 0:
        raise ValueError(f"transformation exponent b must be > 0, got {b}")
    bb = float(b)
    k, n_prime = label.k, label.n_prime
    pref = (k - n_prime + bb) / (2.0 * bb)  # always > 0
    a_ = phi.branch.c * (freqs.w1 - freqs.w2 - freqs.w3)
    return WavefunctionSpec(prefactor_exponent=pref, A=a_, phi=phi, b=b)


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

    where c_i = `spec.coeffs[i]` is the coefficient of x^(-2 + i/b) in V.
    P vanishes identically exactly when chi is a zero mode at lam, so no
    grid is involved.  P is built from `spec` and `wf` alone.  Raises
    ValueError when the ladders differ (`spec.b` != `wf.b`), or when
    lam != 0 and 2b is not an integer.
    """
    if spec.b != wf.b:
        raise ValueError(
            f"potential ladder at b = {spec.b} is not -2 + i/b, i = 0..4,"
            f" for b = {wf.b}"
        )
    b = float(wf.b)
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
    for i, ci in enumerate(spec.coeffs):
        base[i] += b * b * ci
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

