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

These five rungs, the coefficients c_0 .. c_4 of x^(-2 + i/b) read by
index everywhere, are the data format: many ladders as one float array,
rung axis first, one potential as a `PotentialSpec` (b and its rungs)
where it is solved or drawn.  The closed-form zero mode is

    chi(x) = x^((k - N' + b) / (2 b))
             * exp(-(1/2) x^(1/b) (A + x^(1/b)))
             * phi(x^(1/b)),

with k = max(l, m), N' = min(l, m) and phi the branch's own polynomial.
The minus branch (c = -sqrt(2)) genuinely changes the potential: A and D
flip sign, which also flips the sign of the sextic pseudo-eigenvalue
below.  (In the plus branch's variable the minus-branch x corresponds to
(-rho)^b; evaluating each polynomial in its own variable is equivalent.)

Each ladder rule is written here once.  b must be rational (an int or a
`Fraction`) and > 0 with b^2 a finite non-zero double, as every rung but
c_0's -1/4 divides by b^2 (`admissible_b`).  lambda enters V - lambda at
x^0, rung 2b (`lambda_rung`).  At b = 1/2 that is rung 1, the only E-dependent rung, so
V = Vtilde - eps(E), eps(E) = -4 c E: the displaced sextic Vtilde is
E-independent and has genuine eigenvalues eps(E).

One builder, `zero_mode_ladders`, writes the rungs [rung, label, branch,
b, column] and the lambdas for many zero modes at once, over sequences of
labels, branches, b values and eigenvalues.  The rung closed forms above
are written once, in `_ladders`, which `potential_specs` also reads for
V_b itself (at b = 1/2 too); `zero_mode_potentials` is the one-(label, b,
branch) call of `zero_mode_ladders` and `zero_mode_envelope` the curve's
envelope (s, A).  At resonance, w1 = w2 + w3, A is 0 and rung 3 of every
V_b is exactly 0.0.

The zero mode has one format: its envelope (s, A) and phi as a
coefficient column of `heun.rho_coefficients`.  With v = x^(1/b),
-chi'' + (V - lambda) chi = x^(s-2) e^(g(v)) P(v) / b^2 for a polynomial
P, and `tests/test_symbolic.py` proves once, with sympy, that P is minus
the BHE operator residual of phi when each b^2 c_i (i = 1..4, less
b^2 lambda at rung 2b) is its b-free numerator N_i.  A float error d_i
there adds d_i v^i phi(v) to P.  So the BHE residual checks phi, and
`ladder_links` checks the floats of the ladder, max_i |b^2 c_i - N_i|: no
phi, no grid.  `eval_potential` and `eval_wavefunction` evaluate V and
chi pointwise for the curve output.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .fock import SubspaceLabel
from .hamiltonian import ModeFrequencies, check_finite
from .heun import Branch

RationalLike = Fraction | int

SEXTIC_B = Fraction(1, 2)  # lambda's rung 2b is rung 1, the E rung

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
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i, cf in enumerate(self.coeffs):
                if cf != 0.0:
                    vals += cf * np.power(xs, -2.0 + i * inv)
        return vals


def admissible_b(b: RationalLike) -> float:
    """float(b) for an admissible b, else ValueError naming the rule, not b."""
    if not isinstance(b, numbers.Rational):
        raise ValueError(
            "transformation exponent b must be rational: an int or a Fraction"
        )
    if b <= 0:
        raise ValueError("transformation exponent b must be > 0")
    try:
        bb = float(b)
    except OverflowError:
        bb = np.inf
    if not 0.0 < bb * bb < np.inf:
        raise ValueError("b is out of range: b^2 must be a non-zero finite double")
    return bb


def lambda_rung(b: RationalLike) -> int:
    """The rung 2b of x^0, where lambda enters V - lambda, for an admissible
    b with an integer 2b."""
    admissible_b(b)
    two_b = 2 * b
    if two_b.denominator != 1:
        raise ValueError(f"lambda != 0 needs an integer 2b, got b = {b}")
    return int(two_b)


def _ladders(
    bb: np.ndarray,
    freqs: ModeFrequencies,
    labels: Sequence[SubspaceLabel],
    energies: np.ndarray,
    branches: Sequence[Branch],
) -> np.ndarray:
    """The rungs c_0 .. c_4 of V_b, the closed forms of the module
    docstring, as an array [rung, label, branch, b, column].

    `bb` holds the float b values shaped (b, 1) and `energies` broadcasts
    over [label, branch, b, column]; only rung 1 depends on E, through D.
    Raises ValueError naming the first rung that is not finite.
    """
    ell = np.array([lab.ell for lab in labels])[:, None, None, None]
    m = np.array([lab.m for lab in labels])[:, None, None, None]
    c = np.array([br.c for br in branches])[:, None, None]
    w1, w2, w3 = freqs.as_tuple()
    # the checks below report what overflows
    with np.errstate(over="ignore", invalid="ignore"):
        a_ = c * (w1 - w2 - w3)
        b_ = m + ell - 1
        g_ = 2 * (m + ell)
        d_ = c * (m * (w1 - w2) + ell * (w1 - w3) - energies)
        # 4 b^2 overflows before b^2 does: divide by the power of two first,
        # which is exact away from subnormals
        rungs = (
            -0.25 + (ell - m) ** 2 / 4.0 / (bb * bb),
            (a_ * b_ - 2.0 * d_) / 2.0 / (bb * bb),
            (a_ * a_ + 4.0 * b_ - 4.0 * g_ - 4.0) / 4.0 / (bb * bb),
            a_ / (bb * bb),
            1.0 / (bb * bb),
        )
    for i, rung in enumerate(rungs):
        check_finite(f"rung {i} of V_b", rung)
    return np.stack(np.broadcast_arrays(*rungs))


def _admissible(b_values: Sequence[RationalLike]) -> np.ndarray:
    return np.array([admissible_b(b) for b in b_values])[:, None]


def potential_specs(
    b: RationalLike,
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    energies: np.ndarray,
    branch: Branch = Branch.PLUS,
) -> list[PotentialSpec]:
    """Build the ladder of V_b(x) for each eigenvalue in `energies`.

    Raises ValueError on an inadmissible b or naming the first non-finite rung.
    """
    rungs = _ladders(
        _admissible([b]), freqs, [label], np.asarray(energies, dtype=float), [branch]
    )
    return [PotentialSpec(b, tuple(r)) for r in rungs.reshape(5, -1).T.tolist()]


def epsilon_of(
    energy: float | np.ndarray, branch: Branch = Branch.PLUS
) -> float | np.ndarray:
    """Pseudo-eigenvalue eps(E) = -4 c E of the displaced sextic potential."""
    return -4.0 * branch.c * energy


def zero_mode_ladders(
    b_values: Sequence[RationalLike],
    freqs: ModeFrequencies,
    labels: Sequence[SubspaceLabel],
    energies: np.ndarray,
    branches: Sequence[Branch],
) -> tuple[np.ndarray, np.ndarray]:
    """Per (label, branch, b, eigenvalue), the ladder of the potential whose
    level lambda the zero mode sits at, and lambda.

    `labels` may mix dimensions and `energies` is [label, column].
    Returns float arrays: the rungs [rung, label, branch, b, column] and
    the lambdas [label, branch, b, column].  At b = 1/2 the potential is
    the E-free displaced sextic, with lambda = eps(E); at any other b it
    is V_b, with lambda = 0.  Raises ValueError on an inadmissible b or naming the
    first non-finite rung.
    """
    bb = _admissible(b_values)
    e = np.asarray(energies, dtype=float)[:, None, None]
    sextic = np.array([b == SEXTIC_B for b in b_values])[:, None]
    # V_(1/2) built at E = 0 is Vtilde exactly
    rungs = _ladders(bb, freqs, labels, np.where(sextic, 0.0, e), branches)
    with np.errstate(over="ignore"):  # only the lambdas used are checked
        eps = np.stack([epsilon_of(e[:, 0], br) for br in branches], axis=1)
    lams = np.where(sextic, eps, 0.0)
    check_finite("eps(E)", lams)
    return rungs, lams


def zero_mode_potentials(
    b: RationalLike,
    freqs: ModeFrequencies,
    label: SubspaceLabel,
    energies: np.ndarray,
    branch: Branch = Branch.PLUS,
) -> tuple[list[PotentialSpec], np.ndarray]:
    """Per energy, the potential whose level lambda the zero mode sits at,
    and the lambdas: the one-(label, b, branch) call of `zero_mode_ladders`."""
    rungs, lams = zero_mode_ladders(
        [b], freqs, [label], np.asarray(energies, dtype=float)[None], [branch]
    )
    specs = [PotentialSpec(b, tuple(r)) for r in rungs.reshape(5, -1).T.tolist()]
    return specs, lams[0, 0, 0]


def eval_potential(spec: PotentialSpec, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate V(x) for x > 0 (vectorized over arrays)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("potential is defined for x > 0 only")
    val = spec.values(arr)
    return val if np.ndim(x) else float(val)


def zero_mode_envelope(
    b: RationalLike, freqs: ModeFrequencies, label: SubspaceLabel, branch: Branch
) -> tuple[float, float]:
    """(s, A) of the zero mode's factor x^s exp(-v (A + v) / 2), v = x^(1/b),
    s = (|l - m| + b) / (2 b) and A = c (w1 - w2 - w3)."""
    bb = admissible_b(b)
    a_ = branch.c * (freqs.w1 - freqs.w2 - freqs.w3)
    return (label.k - label.n_prime + bb) / (2.0 * bb), a_


def eval_wavefunction(
    b: RationalLike,
    prefactor_exponent: float,
    A: float,
    phi: np.ndarray,
    x: float | np.ndarray,
) -> float | np.ndarray:
    """Evaluate chi(x) for x > 0 (vectorized over arrays).

    (`prefactor_exponent`, `A`) is the envelope from `zero_mode_envelope`
    and `phi` one coefficient column of `heun.rho_coefficients`.  The
    polynomial argument is v = x^(1/b) in the branch's own variable; for
    the minus branch this is the point -x^(1/b) of the plus-branch
    variable, matching x = (-rho)^b.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("wavefunction is defined for x > 0 only")
    v = arr ** (1.0 / admissible_b(b))
    val = (
        arr**prefactor_exponent
        * np.exp(-0.5 * v * (A + v))
        * _horner_compensated(phi, v)
    )
    return val if np.ndim(x) else float(val)


def ladder_links(
    b_values: Sequence[RationalLike],
    freqs: ModeFrequencies,
    labels: Sequence[SubspaceLabel],
    energies: np.ndarray,
    branches: Sequence[Branch],
    rungs: np.ndarray,
    lams: np.ndarray,
) -> np.ndarray:
    """The float ladder link of many zero modes: max over rungs i = 1..4
    of |b^2 c_i - N_i|, with -b^2 lambda added at rung `lambda_rung(b)`,
    per [label, branch, b, column].

    `rungs` [rung, label, branch, b, column] and `lams` [label, branch, b,
    column] are ladders and lambdas as `zero_mode_ladders` returns them, a
    ladder's b being its index on the b axis of `b_values`.  N_i, the
    b-free numerator of rung i, is `_ladders` at b = 1 and at the column's
    own E, `energies` being [label, column].  Where b^2 c_i misses N_i by
    d_i, the zero mode's P is minus the BHE operator residual plus
    sum_i d_i v^i phi(v), so the link is the factor by which the ladder
    enters P / max|phi| and shares `heun.BHE_RTOL`.  Rung 0 and s cancel
    in every zero mode (the indicial equation) and are left out.  Raises
    ValueError when some lambda != 0 at a b where `lambda_rung` finds no
    rung.
    """
    bb = _admissible(b_values)
    numerators = _ladders(
        np.ones((1, 1)), freqs, labels, np.asarray(energies, dtype=float)[:, None, None],
        branches,
    )
    lams = np.broadcast_to(np.asarray(lams, dtype=float), rungs.shape[1:])
    lam_rungs = {j: lambda_rung(b) for j, b in enumerate(b_values) if lams[..., j, :].any()}
    gaps = np.zeros((max([4, *lam_rungs.values()]), *rungs.shape[1:]))
    # an inf or nan link fails
    with np.errstate(over="ignore", invalid="ignore"):
        gaps[:4] = bb * bb * rungs[1:]
        for j, rung in lam_rungs.items():
            gaps[rung - 1, ..., j, :] -= bb[j] * bb[j] * lams[..., j, :]
        gaps[:4] -= numerators[1:]
    return np.max(np.abs(gaps), axis=0)
