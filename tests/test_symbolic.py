"""The zero-mode identity behind the "schrodinger" stage, proven once.

The residual of the zero mode chi = x^s e^g phi in V_b - lambda is, in
b-free form, a polynomial P: rung 0 and the envelope exponent s enter only
through terms that cancel whatever the eigenpair (the indicial equation,
and every b of the envelope).  Here, over symbols, P is shown to be that
residual, and minus the BHE operator residual of phi, and a ladder error
d_i in b^2 c_i to add d_i v^i phi to P.  So the pipeline checks phi by the
BHE residuals and the ladder by `schroedinger.ladder_links`, and never
forms P.  The symbols are then tied to the code: the rung closed forms of
`schroedinger._ladders` and the envelope of `zero_mode_envelope`,
evaluated at rational points, agree with the symbolic forms to a few ulps.
That keeps rung 0 and s under test, now that the per-eigenpair check
leaves them out.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from triqes import Branch, ModeFrequencies, SubspaceLabel, zero_mode_ladders
from triqes.schroedinger import _ladders, zero_mode_envelope

EPS = np.finfo(float).eps
b = sp.Symbol("b", positive=True)
v = sp.Symbol("v", positive=True)
ell, m, A, D, lam, delta = sp.symbols("l m A D lambda delta")
PHI = sp.symbols("p0:4")  # a generic phi of degree <= 3
PHI_POLY = sum(p * v**i for i, p in enumerate(PHI))


def rungs_of(b, ell, m, A, D):
    """c_0 .. c_4 of V_b, the closed forms of the `schroedinger` docstring."""
    big_b, big_g = ell + m - 1, 2 * (ell + m)
    return [
        sp.Rational(-1, 4) + (ell - m) ** 2 / (4 * b**2),
        (A * big_b - 2 * D) / (2 * b**2),
        (A**2 + 4 * big_b - 4 * big_g - 4) / (4 * b**2),
        A / b**2,
        1 / b**2,
    ]


def s_of(b, delta):
    """The envelope exponent s of x^s, delta = |l - m|."""
    return (delta + b) / (2 * b)


def p_bfree(phi, b, delta, A, c, lam):
    """The b-free P, row by row; lambda sits at v^(2b)."""
    total = 0
    for n, pn in enumerate(phi):
        rows = [
            -n * (n + delta),
            A * (n + (delta + 1) / sp.Integer(2)) + b**2 * c[1],
            2 * n + delta + 2 - A**2 / 4 + b**2 * c[2],
            b**2 * c[3] - A,
            b**2 * c[4] - 1,
        ]
        poly = sum(r * v**i for i, r in enumerate(rows))
        total += pn * v**n * (poly - b**2 * lam * v ** (2 * b))
    return total


def bhe_operator(phi, ell, m, delta, A, D):
    """The BHE operator of `heun.bhe_operator_residual` in v = rho, with
    c^2 = 2, c wbar = A and c P = D - k A."""
    k, n_prime = (ell + m + delta) / 2, (ell + m - delta) / 2
    return (
        v**2 * sp.diff(phi, v, 2)
        + ((1 + delta) * v - A * v**2 - 2 * v**3) * sp.diff(phi, v)
        + ((D - k * A) * v + 2 * n_prime * v**2) * phi
    )


def zero_mode_gap(c, s, lam):
    """(-chi'' + (V - lam) chi) b^2 / (x^(s - 2) e^g) - P, expanded, for
    chi = x^s e^g phi(v), x = v^b, and the generic phi."""
    g = -v * (A + v) / 2
    chi = v ** (b * s) * sp.exp(g) * PHI_POLY

    def d_dx(f):
        return v ** (1 - b) / b * sp.diff(f, v)

    potential = sum(ci * v ** (i - 2 * b) for i, ci in enumerate(c))
    lhs = -d_dx(d_dx(chi)) + (potential - lam) * chi
    scaled = lhs * b**2 * v ** (2 * b) / (v ** (b * s) * sp.exp(g))
    residual = scaled - p_bfree(PHI, b, delta, A, c, lam)
    return sp.expand(sp.powsimp(sp.expand(residual), force=True))


# delta = |l - m| for l >= m and for l < m
ORDERINGS = pytest.mark.parametrize(
    "m_of", [ell - delta, ell + delta], ids=["l>=m", "l<m"]
)


@ORDERINGS
def test_zero_mode_identity(m_of):
    # -chi'' + (V_b - lambda) chi = x^(s-2) e^g P / b^2 for every b > 0,
    # lambda, A, D and phi: rung 0 and s cancel against each other
    c = rungs_of(b, ell, m_of, A, D)
    assert zero_mode_gap(c, s_of(b, delta), lam) == 0
    # s enters: a 1e-8 relative error in it breaks the identity
    off_s = s_of(b, delta) * (1 + sp.Rational(1, 10**8))
    assert zero_mode_gap(c, off_s, lam) != 0


@ORDERINGS
def test_p_is_minus_the_bhe_operator_residual(m_of):
    op = bhe_operator(PHI_POLY, ell, m_of, delta, A, D)
    # lambda = 0 at every b: V_b itself
    c = rungs_of(b, ell, m_of, A, D)
    assert sp.expand(p_bfree(PHI, b, delta, A, c, 0) + op) == 0
    # b = 1/2: the displaced sextic, built at E = 0 (D0), at lambda = eps(E);
    # D - D0 = -c E, so eps(E) = -4 c E = 4 (D - D0)
    half, d0 = sp.Rational(1, 2), sp.Symbol("D0")
    tilde = rungs_of(half, ell, m_of, A, d0)
    assert sp.expand(p_bfree(PHI, half, delta, A, tilde, 4 * (D - d0)) + op) == 0


@ORDERINGS
def test_ladder_error_enters_p_times_phi(m_of):
    # b^2 c_i off by d_i (i = 1..4) adds d_i v^i phi(v) to P, whatever
    # phi: each coefficient of P / max|phi| moves by at most 4 max_i |d_i|,
    # 4 times the ladder link
    d = sp.symbols("d1:5")
    c = rungs_of(b, ell, m_of, A, D)
    off = [c[0]] + [ci + di / b**2 for ci, di in zip(c[1:], d)]
    gap = p_bfree(PHI, b, delta, A, off, lam) - p_bfree(PHI, b, delta, A, c, lam)
    added = sum(di * v**i for i, di in enumerate(d, start=1)) * PHI_POLY
    assert sp.expand(gap - added) == 0


W_POINTS = [
    (Fraction(1), Fraction(1), Fraction(1)),
    (Fraction(3, 4), Fraction(-5, 4), Fraction(1, 8)),
    (Fraction(-3, 2), Fraction(13, 16), Fraction(15, 8)),
]
B_POINTS = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(1, 3)]
LABELS = [SubspaceLabel(3, 1), SubspaceLabel(1, 4), SubspaceLabel(2, 2)]


def rational(x):
    return sp.Rational(x.numerator, x.denominator)


def ulps(got, exact):
    """|got - exact| in ulps of max(1, |exact|)."""
    exact = float(sp.N(exact, 40))
    return abs(got - exact) / (EPS * max(1.0, abs(exact)))


def test_closed_forms_match_the_code():
    # the rungs of `_ladders`, lambda of `zero_mode_ladders` and (s, A) of
    # `zero_mode_envelope` at rational w, E and b, against the symbolic forms
    energies = [Fraction(7, 4), Fraction(-5, 16)]
    for w in W_POINTS:
        freqs = ModeFrequencies(*map(float, w))
        w1, w2, w3 = map(rational, w)
        for label in LABELS:
            for branch in Branch:
                c = sp.sqrt(2) * (1 if branch is Branch.PLUS else -1)
                a_exact = c * (w1 - w2 - w3)
                got = _ladders(
                    np.array([[float(x)] for x in B_POINTS]), freqs, [label],
                    np.array([float(e) for e in energies]), [branch],
                )[:, 0, 0]  # [rung, b, column]
                _, lams = zero_mode_ladders(
                    [Fraction(1, 2)], freqs, [label],
                    np.array([[float(e) for e in energies]]), [branch],
                )
                for j, bq in enumerate(B_POINTS):
                    s, a_ = zero_mode_envelope(bq, freqs, label, branch)
                    assert ulps(s, s_of(rational(bq), label.k - label.n_prime)) <= 4
                    assert ulps(a_, a_exact) <= 4
                    for col, e in enumerate(energies):
                        d_exact = c * (label.m * (w1 - w2) + label.ell * (w1 - w3)
                                       - rational(e))
                        exact = rungs_of(
                            rational(bq), label.ell, label.m, a_exact, d_exact
                        )
                        for i in range(5):
                            case = (w, label, branch, bq, e, i)
                            assert ulps(got[i, j, col], exact[i]) <= 8, case
                for col, e in enumerate(energies):
                    eps_exact = -4 * c * rational(e)
                    assert ulps(lams[0, 0, 0, col], eps_exact) <= 4
