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

`zero_mode_residual` checks -chi'' + V chi = lambda chi exactly: with
v = x^(1/b) the left side minus the right is x^(s-2) e^(g(v)) P(v) / b^2
for a polynomial P of degree <= N' + 4, whose coefficients it returns.
The certification pipeline gates on P.

`schrodinger_residual` checks the same equation numerically, with 5-point
central differences at spacings h and h/2 on a grid from
`certification_grid`; acceptance criterion 5 and the stencil tests use it.
Both stencils are strided slices of one lattice of spacing h/2, so chi is
evaluated once per residual, on 2n + 7 points for a grid of n nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fock import SubspaceLabel
from .hamiltonian import ModeFrequencies
from .heun import Branch, RhoPolynomial

RationalLike = Fraction | int | float | str


def as_fraction(b: RationalLike) -> Fraction:
    frac = Fraction(b) if not isinstance(b, Fraction) else b
    return frac


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


ROUNDOFF_FLOOR = 1e-9


@dataclass(frozen=True)
class ResidualReport:
    """Normalized Schroedinger residual at spacing h and h/2."""

    residual: float
    residual_half: float
    order: float
    lam: float
    grid_spacing: float

    def passes(self, tol: float = 1e-6, min_order: float = 3.5) -> bool:
        # Below the rounding floor the order estimate is noise; a residual
        # that small cannot hide an eigenvalue error near the tolerance.
        at_floor = max(self.residual, self.residual_half) <= ROUNDOFF_FLOOR
        return self.residual <= tol and (self.order >= min_order or at_floor)


def potential_spec(
    b: RationalLike,
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    energy: float,
    branch: Branch = Branch.PLUS,
) -> PotentialSpec:
    """Build V_b(x) for one eigenvalue E and branch."""
    bf = as_fraction(b)
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
    bf = as_fraction(b)
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


def _stencil_residual(
    chi: np.ndarray, v: np.ndarray, lam: float, h: float, stride: int
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Normalized residual of the 5-point stencil with step h on a lattice.

    `chi` holds chi on a uniform lattice of spacing h / stride that extends
    2h past both ends of the nodes chi[2 stride : -2 stride : stride]; `v`
    is V at those nodes.  Returns max |r| / max |chi| over the nodes whose
    |chi| exceeds 1e-8 of the maximum, together with |r| at every node,
    max |chi| and that mask.
    """
    end = chi.size
    c = [chi[(2 + s) * stride : end - (2 - s) * stride : stride] for s in range(-2, 3)]
    d2 = (-c[0] + 16.0 * c[1] - 30.0 * c[2] + 16.0 * c[3] - c[4]) / (12.0 * h * h)
    r_abs = np.abs(-d2 + (v - lam) * c[2])
    chi_abs = np.abs(c[2])
    scale = float(np.max(chi_abs))
    if scale == 0.0:
        raise ValueError("wavefunction vanishes identically on the grid")
    mask = chi_abs > 1e-8 * scale
    return float(np.max(r_abs[mask]) / scale), r_abs, scale, mask


def _lattice_values(
    spec: PotentialSpec, wf: WavefunctionSpec, grid: np.ndarray, h: float, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """chi on the lattice grid[0] + j h / stride, 2h past both ends of the
    grid, and V on the lattice points from grid[0] to grid[-1]."""
    pad = 2 * stride
    x = grid[0] + np.arange(-pad, (grid.size - 1) * stride + pad + 1) * (h / stride)
    if x[0] <= 0.0:
        raise ValueError("grid too close to the origin for the 5-point stencil")
    chi = np.asarray(eval_wavefunction(wf, x))
    return chi, np.asarray(eval_potential(spec, x[pad:-pad]))


def certification_grid(
    spec: PotentialSpec,
    wf: WavefunctionSpec,
    lam: float,
    lo: float = 0.2,
    hi: float = 5.0,
    target: float = 5e-7,
) -> np.ndarray:
    """Uniform grid on [lo, hi] sized for a clean residual certification.

    The 5-point stencil error scales as h^4 until it hits the rounding
    floor, where the refinement-order estimate becomes meaningless.  A
    cheap probe at h = 1e-2 fixes the per-case constant and h is then
    set so the residual lands near `target`: small enough to certify,
    large enough that halving h still shows fourth-order decay.
    """
    h0 = 1e-2
    probe = np.arange(lo, hi + 0.5 * h0, h0)
    chi, v = _lattice_values(spec, wf, probe, h0, 1)
    r0 = _stencil_residual(chi, v, lam, h0, 1)[0]
    h = h0 if r0 <= target else h0 * (target / r0) ** 0.25
    h = min(max(h, 5e-4), h0)
    return np.arange(lo, hi + 0.5 * h, h)


def schrodinger_residual(
    spec: PotentialSpec,
    wf: WavefunctionSpec,
    lam: float,
    grid: np.ndarray,
) -> ResidualReport:
    """Certify -chi'' + V chi = lam chi numerically on a uniform grid.

    The residual is reported in the scale-free form max|r| / max|chi|,
    restricted to points where |chi| exceeds 1e-8 of its maximum.  The
    same quantity at half the spacing gives an empirical convergence
    order; true solutions converge at order about 4.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 5:
        raise ValueError("grid must contain at least 5 points")
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be positive and strictly ascending")
    steps = np.diff(grid)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-9, atol=1e-12):
        raise ValueError("grid must be uniformly spaced")
    # chi once on the h/2 lattice: the h stencil takes every second point,
    # the h/2 stencil every point
    chi, v = _lattice_values(spec, wf, grid, h, 2)
    r_h, _, _, mask = _stencil_residual(chi, v[::2], lam, h, 2)
    # half-spacing pass on the same nodes plus midpoints; comparing maxima
    # over the shared nodes keeps the order estimate free of peak-shift noise
    r_half, r_abs_f, scale_f, _ = _stencil_residual(chi[2:-2], v, lam, 0.5 * h, 1)
    shared = float(np.max(r_abs_f[0::2][mask] / scale_f))
    order = math.log2(r_h / shared) if shared > 0.0 else math.inf
    return ResidualReport(
        residual=r_h, residual_half=r_half, order=order, lam=lam, grid_spacing=h
    )
