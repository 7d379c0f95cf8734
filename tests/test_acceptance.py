"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import json
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from triqes import (
    Branch,
    LogGridConfig,
    ModeFrequencies,
    SubspaceLabel,
    build_hamiltonian,
    certify_subspace,
    contains_eigenvalue,
    eig_sym,
    eval_wavefunction,
    epsilon_of,
    fock_to_rho_polynomial,
    oracle_config,
    potential_specs,
    rho_coefficients,
    zero_mode_envelope,
    zero_mode_potentials,
)
from triqes.schroedinger import SEXTIC_B
from triqes.cli import main as cli_main
from triqes.heun import BHE_RTOL, operator_residuals

from conftest import certify_one

SQRT2 = math.sqrt(2.0)
W111 = ModeFrequencies(1.0, 1.0, 1.0)

# canonical basis is n_a ascending; the worked tables list
# {|1,0,0>, |0,1,1>} and {|2,1,0>, |0,3,2>, |1,2,1>}
PERM_11 = [1, 0]
PERM_32 = [2, 0, 1]


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {criterion}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_golden_matrices():
    start = time.perf_counter()
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        h11 = build_hamiltonian(W111, SubspaceLabel(1, 1))
        h32 = build_hamiltonian(W111, SubspaceLabel(3, 2))
        best = min(best, time.perf_counter() - t0)
    # permute canonical -> table ordering and compare entries
    p11 = h11[np.ix_(PERM_11, PERM_11)]
    exact_11 = p11.tolist() == [[1.0, 1.0], [1.0, 2.0]]
    p32 = h32[np.ix_(PERM_32, PERM_32)]
    expected_32 = np.array(
        [[3.0, 0.0, 2.0], [0.0, 5.0, math.sqrt(6.0)], [2.0, math.sqrt(6.0), 4.0]]
    )
    off_ok = np.max(np.abs(p32 - expected_32)) <= 1e-12
    report(
        "1 golden matrices",
        exact_11 and off_ok and best < 1e-3,
        f"build time {best * 1e6:.0f} us",
    )


def test_criterion_2_golden_spectra():
    spec11 = eig_sym(build_hamiltonian(W111, SubspaceLabel(1, 1)))
    exact = [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
    ok_11 = np.allclose(spec11.eigenvalues, exact, rtol=0, atol=1e-12)

    spec32 = eig_sym(build_hamiltonian(W111, SubspaceLabel(3, 2)))
    printed_e = [0.77833, 3.81763, 7.40405]
    ok_e32 = np.allclose(spec32.eigenvalues, printed_e, atol=1e-5)

    # printed eigenvector table, basis order {|2,1,0>,|0,3,2>,|1,2,1>};
    # p = 1 is the largest eigenvalue
    printed_vectors = {
        1: np.array([0.30313, 0.68015, 0.66750]),
        2: np.array([0.72847, -0.61627, 0.29781]),
        3: np.array([-0.61437, -0.39598, 0.68246]),
    }
    # two printed digits are misprints; each excluded component must be
    # provably inconsistent with the table's own 5-decimal precision,
    # which its unit-norm deviation certifies (correct rounding of a unit
    # vector cannot shift the squared norm by more than ~1.7e-5)
    known_misprints = {(1, 1), (2, 1)}  # (p, table-component index)
    mismatches = set()
    for p, printed in printed_vectors.items():
        _, mine = spec32.pair(3 - p)
        mine_table_order = mine[PERM_32]
        if np.dot(mine_table_order, printed) < 0:
            mine_table_order = -mine_table_order
        for comp, (a, b) in enumerate(zip(mine_table_order, printed)):
            if abs(a - b) > 1e-5:
                mismatches.add((p, comp))
    excluded_justified = all(
        abs(np.sum(printed_vectors[p] ** 2) - 1.0) > 3e-5 for p, _ in mismatches
    )
    ok_vectors = mismatches <= known_misprints and excluded_justified
    report(
        "2 golden spectra",
        ok_11 and ok_e32 and ok_vectors,
        f"vector misprints excluded: {sorted(mismatches)}",
    )


def test_criterion_3_polynomial_map():
    ok = True
    label = SubspaceLabel(1, 1)
    spec = eig_sym(build_hamiltonian(W111, label))
    for i in range(2):
        _, vec = spec.pair(i)
        phi = fock_to_rho_polynomial(label, vec, Branch.PLUS)
        g1, g2 = vec[1], vec[0]
        ok &= abs(phi.coeffs[0] - SQRT2 * g1) <= 1e-12
        ok &= abs(phi.coeffs[1] - 2.0 * g2) <= 1e-12
    label = SubspaceLabel(3, 2)
    spec = eig_sym(build_hamiltonian(W111, label))
    for i in range(3):
        _, vec = spec.pair(i)
        phi = fock_to_rho_polynomial(label, vec, Branch.PLUS)
        g1, g2, g3 = vec[2], vec[0], vec[1]
        ok &= abs(phi.coeffs[0] - 2.0 * g1) <= 1e-12
        ok &= abs(phi.coeffs[1] - 4.0 / SQRT2 * g3) <= 1e-12
        ok &= abs(phi.coeffs[2] - 4.0 / math.sqrt(6.0) * g2) <= 1e-12
    report("3 polynomial map", ok)


def test_criterion_4_bhe_certification():
    rng = np.random.default_rng(20240817)
    labels = [
        SubspaceLabel(ell, m)
        for ell in range(13)
        for m in range(13)
        if ell + m <= 12
    ]
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(50):
        freqs = ModeFrequencies(*rng.uniform(-2.0, 2.0, 3))
        subspaces = []
        for label in labels:
            spec = eig_sym(build_hamiltonian(freqs, label))
            subspaces.append((label, spec.eigenvalues, spec.eigenvectors))
        # one pipeline call per w over every label and both branches; each
        # BHE residual is relative to max|phi| of its column
        for _, cert in certify_subspace(freqs, subspaces, [1], list(Branch)):
            op_ok = cert.bhe_operator_residual <= BHE_RTOL
            std_ok = cert.bhe_standard_residual <= BHE_RTOL
            ok &= bool(np.all(op_ok & std_ok & (op_ok == std_ok)))
            checked += op_ok.size
    elapsed = time.perf_counter() - t0
    report(
        "4 BHE certification",
        ok and elapsed < 5.0,
        f"{checked} eigenpair checks in {elapsed:.2f} s",
    )


def worked_example_spectra():
    for ell, m in ((1, 1), (3, 2)):
        label = SubspaceLabel(ell, m)
        yield label, eig_sym(build_hamiltonian(W111, label))


def mp_zero_mode(wf, vspec, lam, p):
    """chi, V and the closed form x^(s-2) e^g P(v) / b^2 in mpmath, built
    from the float data of the zero mode `wf` = (b, s, A, phi), `vspec` and
    the coefficients `p` of P."""
    b_frac, s_float, a_float, phi = wf
    b = mpmath.mpf(b_frac.numerator) / b_frac.denominator
    s, a = mpmath.mpf(s_float), mpmath.mpf(a_float)

    def poly(coeffs, v):
        return mpmath.fsum(c * v**n for n, c in enumerate(coeffs))

    def envelope(v):
        return mpmath.exp(-v * (a + v) / 2)

    def chi(x):
        v = x ** (1 / b)
        return x**s * envelope(v) * poly(phi.tolist(), v)

    def potential(x):
        return mpmath.fsum(c * x ** (i / b - 2) for i, c in enumerate(vspec.coeffs))

    def closed(x):
        v = x ** (1 / b)
        return x ** (s - 2) * envelope(v) * poly(p, v) / b**2

    return chi, potential, closed


def test_criterion_5_zero_mode_residuals():
    # the pipeline's ladder link, and at 40 digits the identity from P to
    # the chi that eval_wavefunction evaluates: at a perturbed energy, where
    # P != 0, -chi'' + (V - lam) chi must equal x^(s-2) e^g P(v) / b^2, P
    # read as minus the BHE operator residual (tests/test_symbolic.py
    # proves P = -Op[phi] for lam = 0 at every b and lam = eps(E) at b = 1/2)
    ok = True
    worst = 0.0
    worst_gap = 0.0
    worst_chi = 0.0
    b_values = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(1, 2))
    with mpmath.workdps(40):
        for label, spec in worked_example_spectra():
            energies, vecs = spec.eigenvalues, spec.eigenvectors
            residual = certify_one(
                W111, label, energies, vecs, b_values, list(Branch)
            ).schrodinger_residual
            ok &= bool((residual <= BHE_RTOL).all())
            worst = max(worst, float(residual.max()))
            for branch in Branch:
                for b in b_values:
                    shifted = energies * (1.0 + 1e-3)
                    vspecs, lams = zero_mode_potentials(b, W111, label, shifted, branch)
                    envelope = zero_mode_envelope(b, W111, label, branch)
                    phis = rho_coefficients(label, vecs, branch)
                    residuals = -operator_residuals(W111, label, shifted, phis, branch)
                    for i, (vspec, lam) in enumerate(zip(vspecs, lams.tolist())):
                        wf = (b, *envelope, phis[:, i])
                        chi, potential, closed = mp_zero_mode(
                            wf, vspec, lam, residuals[:, i]
                        )
                        for x in map(mpmath.mpf, (0.3, 0.9, 1.7)):
                            c = chi(x)
                            lhs = -mpmath.diff(chi, x, 2) + (potential(x) - lam) * c
                            gap = float(abs(lhs - closed(x)) / abs(c))
                            mismatch = float(
                                abs(eval_wavefunction(*wf, float(x)) - c) / abs(c)
                            )
                            ok &= gap <= 1e-12 and abs(lhs) >= 1e-6 * abs(c)
                            ok &= mismatch <= 1e-13
                            worst_gap = max(worst_gap, gap)
                            worst_chi = max(worst_chi, mismatch)
    report(
        "5 zero-mode residuals",
        ok,
        f"worst ladder link {worst:.2e}, worst identity gap {worst_gap:.2e},"
        f" worst chi mismatch {worst_chi:.2e}",
    )


def test_criterion_6_oracle_containment():
    t0 = time.perf_counter()
    ok = True
    details = []

    # every check on the pipeline's own grid, `oracle_config`
    # displaced sextic, (1,1): eps = -2 sqrt(2) (3 +- sqrt(5)) within 1e-3
    tilde = potential_specs(SEXTIC_B, W111, SubspaceLabel(1, 1), [0.0])[0]
    for sign in (+1.0, -1.0):
        lam = -2.0 * SQRT2 * (3.0 + sign * math.sqrt(5.0))
        res = contains_eigenvalue(tilde, oracle_config(tilde, lam), lam)
        ok &= res.hit and res.richardson_gap <= 1e-3
        details.append(f"eps(1,1) gap {res.richardson_gap:.1e}")

    # displaced sextic, (3,2): the pipeline's (Vtilde, lambda), lambda the
    # paper's -4 sqrt(2) E_p, contained within 1e-3 |lambda|
    label = SubspaceLabel(3, 2)
    energies = eig_sym(build_hamiltonian(W111, label)).eigenvalues
    tildes, lams = zero_mode_potentials(SEXTIC_B, W111, label, energies)
    for energy, tilde, lam in zip(energies.tolist(), tildes, lams.tolist()):
        ok &= math.isclose(lam, -4.0 * SQRT2 * energy, rel_tol=1e-12)
        res = contains_eigenvalue(tilde, oracle_config(tilde, lam), lam)
        ok &= res.hit and res.richardson_gap <= 1e-3 * abs(lam)
        details.append(f"eps(3,2) gap {res.richardson_gap:.1e}")

    # quarkonium-type b=1 potentials: zero mode within 1e-3
    for label, spec in worked_example_spectra():
        for vspec in potential_specs(Fraction(1), W111, label, spec.eigenvalues):
            res = contains_eigenvalue(vspec, oracle_config(vspec, 0.0), 0.0)
            ok &= res.hit and res.richardson_gap <= 1e-3
            details.append(f"V1({label.ell},{label.m}) gap {res.richardson_gap:.1e}")

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report("6 oracle containment", ok, f"{elapsed:.1f} s; " + "; ".join(details))


def test_criterion_7_property_suites():
    rng = np.random.default_rng(7117)
    ok = True

    # hamiltonian: hermiticity, tridiagonality, trace identity
    for _ in range(100):
        freqs = ModeFrequencies(*rng.uniform(-3, 3, 3))
        label = SubspaceLabel(int(rng.integers(0, 11)), int(rng.integers(0, 11)))
        h = build_hamiltonian(freqs, label)
        ok &= np.array_equal(h, h.T)
        ok &= all(
            h[i, j] == 0.0
            for i in range(h.shape[0])
            for j in range(h.shape[0])
            if abs(i - j) > 1
        )
        ell, m = label.ell, label.m
        trace = sum(
            freqs.w1 * j + freqs.w2 * (ell - j) + freqs.w3 * (m - j)
            for j in range(label.n_prime + 1)
        )
        ok &= abs(np.trace(h) - trace) <= 1e-10 * max(1.0, abs(trace))

    # fock: closure of every subspace under the interaction
    from triqes import apply_interaction, subspace_basis, symmetry_eigenvalues

    for _ in range(100):
        label = SubspaceLabel(int(rng.integers(0, 21)), int(rng.integers(0, 21)))
        members = set(subspace_basis(label))
        for state in members:
            for w in apply_interaction(state):
                ok &= w.state in members
                ok &= symmetry_eigenvalues(w.state) == (label.ell, label.m)

    # spectra: swap-symmetry equality to 1e-12
    for _ in range(100):
        freqs = ModeFrequencies(*rng.uniform(-3, 3, 3))
        label = SubspaceLabel(int(rng.integers(0, 9)), int(rng.integers(0, 9)))
        s1 = eig_sym(build_hamiltonian(freqs, label)).eigenvalues
        swapped = ModeFrequencies(freqs.w1, freqs.w3, freqs.w2)
        s2 = eig_sym(
            build_hamiltonian(swapped, SubspaceLabel(label.m, label.ell))
        ).eigenvalues
        ok &= np.max(np.abs(s1 - s2)) <= 1e-12 * max(1.0, np.max(np.abs(s1)))

    # schroedinger: E-independence of the displaced sextic to 1e-12
    for _ in range(100):
        freqs = ModeFrequencies(*rng.uniform(-3, 3, 3))
        label = SubspaceLabel(int(rng.integers(0, 7)), int(rng.integers(0, 7)))
        branch = Branch.PLUS if rng.integers(0, 2) else Branch.MINUS
        tilde = potential_specs(SEXTIC_B, freqs, label, [0.0], branch)[0]
        energies = rng.uniform(-5, 5, 2)
        specs = potential_specs(SEXTIC_B, freqs, label, energies, branch)
        for energy, spec in zip(energies.tolist(), specs):
            for i, (tc, sc) in enumerate(zip(tilde.coeffs, spec.coeffs)):
                shift = epsilon_of(energy, branch) if i == 1 else 0.0  # rung 1 is x^0
                ok &= abs(tc - (sc + shift)) <= 1e-12 * max(1.0, abs(tc))

    # schroedinger: boundary decay of chi
    for _ in range(100):
        freqs = ModeFrequencies(*rng.uniform(-1.5, 1.5, 3))
        label = SubspaceLabel(int(rng.integers(0, 5)), int(rng.integers(0, 5)))
        branch = Branch.PLUS if rng.integers(0, 2) else Branch.MINUS
        spec = eig_sym(build_hamiltonian(freqs, label))
        idx = int(rng.integers(0, label.dim))
        _, vec = spec.pair(idx)
        phi = rho_coefficients(label, vec[:, None], branch)[:, 0]
        b = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)][
            int(rng.integers(0, 4))
        ]
        wf = (b, *zero_mode_envelope(b, freqs, label, branch), phi)
        mid = max(abs(eval_wavefunction(*wf, x)) for x in (0.5, 1.0, 1.5, 2.0))
        ok &= abs(eval_wavefunction(*wf, 1e-12)) < 1e-3 * mid
        ok &= abs(eval_wavefunction(*wf, 30.0 ** float(b))) < 1e-12 * mid

    # fdoracle: second-order grid convergence on exactly solvable wells
    from triqes.schroedinger import PotentialSpec
    from triqes import fd_spectrum

    orders = []
    for _ in range(100):
        a = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(-3.0, 3.0))
        # a^2 x^2 + c: rungs 4 and 2 of the ladder at b = 1; ground state
        # 3a + c on the half line
        spec = PotentialSpec(Fraction(1), (0.0, 0.0, c, 0.0, a * a))
        exact = 3.0 * a + c
        errs = []
        for n in (400, 801):
            cfg = LogGridConfig(12.0 / math.sqrt(a), n)
            errs.append(abs(float(fd_spectrum(spec, cfg, 1)[0]) - exact))
        orders.append(math.log2(errs[0] / errs[1]))
    ok &= all(1.8 <= o <= 2.2 for o in orders)

    report("7 property suites", ok, f"oracle order range [{min(orders):.2f}, {max(orders):.2f}]")


FIGURE_CONFIGS = [
    # (l, m, b, p, branch, shifted) covering the seven worked plots
    (1, 1, "1", 1, "plus", False),
    (1, 1, "1", 2, "plus", False),
    (1, 1, "1", 1, "minus", False),
    (1, 1, "1", 2, "minus", False),
    (1, 1, "1/2", 1, "plus", True),
    (1, 1, "1/2", 2, "plus", True),
    (1, 1, "1/2", 1, "minus", True),
    (1, 1, "1/2", 2, "minus", True),
    (3, 2, "1", 1, "plus", False),
    (3, 2, "1", 2, "plus", False),
    (3, 2, "1", 3, "plus", False),
    (3, 2, "1/2", 1, "plus", True),
    (3, 2, "1/2", 2, "plus", True),
    (3, 2, "1/2", 3, "plus", True),
]


def test_criterion_8_figure_data(tmp_path, capsys):
    ok = True
    details = []
    for i, (ell, m, b, p, branch, shifted) in enumerate(FIGURE_CONFIGS):
        out = tmp_path / f"fig_{i}.csv"
        argv = [
            "potential", "--l", str(ell), "--m", str(m), "--w", "1,1,1",
            "--b", b, "--p", str(p), "--branch", branch,
            "--xmin", "0.02", "--xmax", "3.5", "--points", "700",
            "--out", str(out),
        ]
        if shifted:
            argv.append("--shifted")
        code = cli_main(argv)
        capsys.readouterr()
        ok &= code == 0
        lines = out.read_text().splitlines()
        ok &= lines[1] == "x,V,chi,prob"
        manifest = json.loads(lines[0][len("# manifest "):])
        lam = manifest["params"]["lambda"]
        rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[2:]])
        ok &= bool(np.all(np.isfinite(rows)))
        ok &= bool(np.all(np.diff(rows[:, 0]) > 0))
        peak = int(np.argmax(rows[:, 3]))
        inside = 0 < peak < rows.shape[0] - 1
        classically_allowed = rows[peak, 1] < lam
        ok &= inside and classically_allowed
        if not (inside and classically_allowed):
            details.append(f"cfg{i}: peak at {rows[peak, 0]:.2f} V={rows[peak, 1]:.2f} lam={lam:.2f}")
    report("8 figure data", ok, "; ".join(details) if details else f"{len(FIGURE_CONFIGS)} curves checked")


def tc_sector(omega, omega0, excitations, atoms):
    """The Tavis-Cummings matrix H/g = omega a+ a + omega0 J_z + (a J+ + a+ J-),
    J = N/2 for N = `atoms`, on the sector of X = `excitations` excitations
    in the Dicke basis: state k has k excited atoms, J_z = k - N/2, and
    X - k photons, k = 0 .. min(X, N).  Each entry is the action of a, a+
    and J+- on one state, as `fock.apply_interaction` is for H."""
    half = atoms / 2
    dim = min(excitations, atoms) + 1
    h = np.zeros((dim, dim))
    for k in range(dim):
        photons, jz = excitations - k, k - half
        h[k, k] = omega * photons + omega0 * jz
        if k + 1 < dim:  # a J+: a photon absorbed, an atom excited
            h[k + 1, k] = math.sqrt(photons) * math.sqrt((half - jz) * (half + jz + 1))
        if k > 0:  # a+ J-: an atom decays, a photon emitted
            h[k - 1, k] = math.sqrt(photons + 1) * math.sqrt((half + jz) * (half - jz + 1))
    return h


def test_criterion_9_tavis_cummings_link():
    # the paper's first link: with the upper atomic mode, the field and the
    # lower atomic mode as the trilinear a, b and c, J+ = a+ c and the TC
    # sector of X excitations and N atoms is W(X, N) at
    # w = (omega0/2, omega, -omega0/2), Dicke state k being j = k
    rng = np.random.default_rng(9)
    # X > N, N > X, N = 0, X = 0 and both 0 by name, then seeded sectors
    sectors = [(5, 2), (2, 7), (4, 0), (0, 3), (0, 0)]
    sectors += [tuple(rng.integers(0, 13, 2).tolist()) for _ in range(40)]
    worst = 0.0
    for excitations, atoms in sectors:
        omega, omega0 = rng.uniform(-3.0, 3.0, 2).tolist()
        tc = tc_sector(omega, omega0, excitations, atoms)
        h = build_hamiltonian(
            ModeFrequencies(omega0 / 2, omega, -omega0 / 2),
            SubspaceLabel(excitations, atoms),
        )
        # the diagonals sum different products of the same terms, and the
        # off-diagonals take one square root or two
        scale = max(1.0, abs(omega) * excitations + abs(omega0) * atoms, np.abs(h).max())
        worst = max(worst, float(np.abs(tc - h).max() / scale))
    ok = worst <= 4 * np.finfo(float).eps
    report(
        "9 Tavis-Cummings link",
        ok,
        f"{len(sectors)} sectors, worst entry gap {worst:.1e} of the entry scale",
    )
