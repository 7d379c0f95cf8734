"""The identities behind the "bhe" and "schrodinger" stages, proven once.

Stage 2 runs one BHE residual, the operator form Op of
`heun.operator_residuals`.  Two identities, over symbols w, E and the
coefficients of phi or of the eigenvector v, for every (l, m) with
l + m <= 12 and both branches, make it the whole check: the standard form
St with the closed-form parameters of `heun.bhe_params` is the same
vector, St[phi]_n = Op[phi]_(n+1) for every phi, so the parameter
identification is proven here rather than checked per eigenpair; and
Op of the mapped phi is the weighted eigen-residual,
Op[omega * Jv]_(n+1) = c omega_n ((H - E) v)_(N'-n), with omega_n the map
weights and J the reversal of v, for every v.

The residual of the zero mode chi = x^s e^g phi in V_b - lambda is, in
b-free form, a polynomial P: rung 0 and the envelope exponent s enter only
through terms that cancel whatever the eigenpair (the indicial equation,
and every b of the envelope).  Here, over symbols, P is shown to be that
residual, and minus the BHE operator residual of phi, and a ladder error
d_i in b^2 c_i to add d_i v^i phi to P.  So the pipeline checks phi by the
BHE residual and the ladder by `schroedinger.ladder_links`, and never
forms P.  The symbols are then tied to the code: the rung closed forms of
`schroedinger._ladders`, the envelope of `zero_mode_envelope`, the
parameters of `bhe_params` and the weights of `heun._rho_weights`,
evaluated at rational points, agree with the symbolic forms to a few
ulps.  That keeps rung 0, s, the parameters and the weights under test,
now that the per-eigenpair checks leave them out.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from triqes import Branch, ModeFrequencies, SubspaceLabel, bhe_params, zero_mode_ladders
from triqes.heun import _rho_weights
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


W = sp.symbols("w1:4")
E = sp.Symbol("E")
# every label of the proofs below, as sympy integers
SMALL_LABELS = [
    (sp.Integer(ell), sp.Integer(m)) for ell in range(13) for m in range(13 - ell)
]


def bhe_params_of(w, ell, m, energy, c):
    """(alpha, beta, gamma, delta) of phi's standard-form BHE, the closed
    forms of `heun.bhe_params`: for l > m, w2 <-> w3."""
    w1, w2, w3 = w
    if ell > m:
        w2, w3 = w3, w2
    k, n_prime = max(ell, m), min(ell, m)
    return (
        k - n_prime,
        -c * (w1 - w2 - w3),
        k + n_prime + 2,
        c * (k * (w1 - w2 - 3 * w3) - n_prime * (3 * w1 - w2 - 3 * w3)
             + (w1 - w2 - w3 + 2 * energy)),
    )


def standard_form(phi, alpha, beta, gamma, delta):
    """St: the standard form of `heun.bhe_standard_residual` times x, in
    x = v."""
    return (
        v * sp.diff(phi, v, 2)
        + (1 + alpha + beta * v - 2 * v**2) * sp.diff(phi, v)
        + (-(delta + (1 + alpha) * beta) / 2 + (gamma - alpha - 2) * v) * phi
    )


def operator_form(phi, w, ell, m, energy, c):
    """Op: `bhe_operator` at the constants of `heun.operator_residuals`."""
    w1, w2, w3 = w
    big_a = c * (w1 - w2 - w3)
    big_d = c * (m * (w1 - w2) + ell * (w1 - w3) - energy)
    return bhe_operator(phi, ell, m, abs(ell - m), big_a, big_d)


def weights_of(ell, m, c):
    """omega_n = c^(k+n) / sqrt(j! (l-j)! (m-j)!), j = N' - n: the map
    weights of the `heun` docstring."""
    k, n_prime = max(ell, m), min(ell, m)
    return [
        c ** (k + n) / sp.sqrt(sp.factorial(j) * sp.factorial(ell - j) * sp.factorial(m - j))
        for n, j in enumerate(range(n_prime, -1, -1))
    ]


def eigen_residual(w, ell, m, energy, vec):
    """(H - E) v from the two bands of the `hamiltonian` docstring."""
    w1, w2, w3 = w
    d = len(vec)
    off = [sp.sqrt((j + 1) * (ell - j) * (m - j)) for j in range(d - 1)]
    return [
        (w1 * j + w2 * (ell - j) + w3 * (m - j) - energy) * vec[j]
        + (off[j - 1] * vec[j - 1] if j > 0 else 0)
        + (off[j] * vec[j + 1] if j < d - 1 else 0)
        for j in range(d)
    ]


def test_standard_form_is_the_operator_form():
    # Op(v) = v St(v) for every phi of degree N', every w, E and c: so
    # St[phi]_n = Op[phi]_(n+1), and Op[phi]_0 = Op[phi]_(N'+2) = 0
    c = sp.Symbol("c")
    for ell, m in SMALL_LABELS:
        n_prime = int(min(ell, m))
        phi = sum(p * v**i for i, p in enumerate(sp.symbols(f"p0:{n_prime + 1}")))
        op = sp.expand(operator_form(phi, W, ell, m, E, c))
        st = standard_form(phi, *bhe_params_of(W, ell, m, E, c))
        assert sp.expand(op - v * st) == 0, (ell, m)
        assert op.coeff(v, 0) == op.coeff(v, n_prime + 2) == 0, (ell, m)
    # a parameter off breaks it, gamma by 1 at the last label
    alpha, beta, gamma, delta = bhe_params_of(W, ell, m, E, c)
    off = standard_form(phi, alpha, beta, gamma + 1, delta)
    assert sp.expand(op - v * off) != 0


@pytest.mark.parametrize("branch", list(Branch), ids=lambda br: br.value)
def test_operator_form_is_the_weighted_eigen_residual(branch):
    # Op[omega * Jv] = sum_n c omega_n ((H - E) v)_(N'-n) v^(n+1) for
    # every v, w and E: row n + 1 of Op is the eigen-residual's row N' - n,
    # weighted
    c = sp.sqrt(2) * (1 if branch is Branch.PLUS else -1)
    for ell, m in SMALL_LABELS:
        n_prime = int(min(ell, m))
        vec = sp.symbols(f"u0:{n_prime + 1}")
        omega = weights_of(ell, m, c)
        phi = sum(om * vec[n_prime - n] * v**n for n, om in enumerate(omega))
        res = eigen_residual(W, ell, m, E, vec)
        mapped = sum(
            c * om * res[n_prime - n] * v ** (n + 1) for n, om in enumerate(omega)
        )
        assert sp.expand(operator_form(phi, W, ell, m, E, c) - mapped) == 0, (ell, m)


def test_bhe_params_and_weights_match_the_code():
    # the parameters of `bhe_params` at rational w and E, one call over
    # LABELS and both branches, and the weights of `_rho_weights` over
    # every label of the proofs, against the symbolic forms
    energies = [Fraction(7, 4), Fraction(-5, 16)]
    cs = [sp.sqrt(2) * (1 if branch is Branch.PLUS else -1) for branch in Branch]
    for w in W_POINTS:
        params = bhe_params(
            ModeFrequencies(*map(float, w)), LABELS,
            np.array([[[float(e) for e in energies]]]), list(Branch),
        )
        got = np.broadcast_arrays(params.alpha, params.beta, params.gamma, params.delta)
        for (u, label), (i, c), (col, e) in itertools.product(
            enumerate(LABELS), enumerate(cs), enumerate(energies)
        ):
            exact = bhe_params_of(
                [rational(x) for x in w], label.ell, label.m, rational(e), c
            )
            for name, g, x in zip("abgd", got, exact):
                assert ulps(g[u, i, col], x) <= 4, (w, label, c, e, name)
    labels = [SubspaceLabel(int(ell), int(m)) for ell, m in SMALL_LABELS]
    weights = _rho_weights(labels, list(Branch))  # [row, label, branch, 1]
    for (u, label), (i, c) in itertools.product(enumerate(labels), enumerate(cs)):
        exact = weights_of(sp.Integer(label.ell), sp.Integer(label.m), c)
        exact += [0] * (len(weights) - len(exact))
        for n, x in enumerate(exact):
            assert ulps(weights[n, u, i, 0], x) <= 4, (label, c, n)
