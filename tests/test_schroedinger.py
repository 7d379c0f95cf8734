import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from triqes import (
    Branch,
    ModeFrequencies,
    SubspaceLabel,
    build_hamiltonian,
    eig_sym,
    epsilon_of,
    eval_potential,
    eval_wavefunction,
    potential_specs,
    zero_mode_ladders,
    zero_mode_potentials,
)
from triqes.heun import operator_residuals, rho_coefficients
from triqes.schroedinger import (
    PotentialSpec,
    _ladders,
    ladder_links,
    lambda_rung,
    zero_mode_envelope,
)

from conftest import certify_one, frequencies, label_arrays, labels

SQRT2 = math.sqrt(2.0)
HALF = Fraction(1, 2)


B_STAGES = ["potential_specs", "zero_mode_envelope", "eval_wavefunction", "certify_batch"]


def b_stage_calls(freqs, b):
    """Each library entry that takes a b, called at `b` on W(1, 1), by name."""
    label = SubspaceLabel(1, 1)
    spec = eig_sym(build_hamiltonian(freqs, label))
    return {
        "potential_specs": lambda: potential_specs(b, freqs, label, [0.0]),
        "zero_mode_envelope": lambda: zero_mode_envelope(b, freqs, label, Branch.PLUS),
        "eval_wavefunction": lambda: eval_wavefunction(b, 0.5, 0.0, np.ones(1), 1.0),
        "certify_batch": lambda: certify_one(
            freqs, label, spec.eigenvalues, spec.eigenvectors, [b], [Branch.PLUS],
        ),
    }


def eigenpairs(freqs, label):
    spec = eig_sym(build_hamiltonian(freqs, label))
    return [spec.pair(i) for i in range(label.dim)]


def make_wf(b, freqs, label, vec, branch):
    """The zero mode (b, s, A, phi) in the argument order of
    `eval_wavefunction`: envelope and one phi column of the pipeline."""
    phi = rho_coefficients([label.ell], [label.m], np.asarray(vec)[:, None], [branch])
    return (b, *zero_mode_envelope(b, freqs, label, branch), phi[:, 0, 0])


class TestPotentialSpec:
    def test_exponent_set(self, unit_freqs):
        # rung i of the ladder is the power x^(-2 + i/b)
        for b in (Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(5, 3)):
            (spec,) = potential_specs(b, unit_freqs, SubspaceLabel(2, 1), [0.3])
            assert spec.b == b and len(spec.coeffs) == 5
            for i in range(5):
                rung = PotentialSpec(b, tuple(float(j == i) for j in range(5)))
                expected = 1.7 ** float(i / b - 2)
                assert eval_potential(rung, 1.7) == pytest.approx(expected, rel=1e-15)

    def test_leading_coefficients(self, unit_freqs):
        # the two highest-power coefficients are branch-independent
        for branch in Branch:
            (spec,) = potential_specs(HALF, unit_freqs, SubspaceLabel(1, 1), [0.5], branch)
            assert spec.coeffs[4] == pytest.approx(4.0, abs=0)  # x^6
            a_val = branch.c * (1.0 - 1.0 - 1.0)
            assert spec.coeffs[3] == pytest.approx(4.0 * a_val, rel=1e-15)  # x^4

    def test_sextic_centrifugal_equal_labels(self, unit_freqs):
        (spec,) = potential_specs(HALF, unit_freqs, SubspaceLabel(1, 1), [0.0])
        assert spec.coeffs[0] == pytest.approx(-0.25, abs=0)

    def test_b2_constants(self, unit_freqs):
        freqs = ModeFrequencies(2.0, 0.5, -0.3)
        (spec,) = potential_specs(Fraction(2), freqs, SubspaceLabel(1, 1), [0.1])
        assert spec.coeffs[4] == pytest.approx(0.25, abs=0)  # x^0
        wbar = 2.0 - 0.5 + 0.3
        assert spec.coeffs[3] == pytest.approx(SQRT2 * wbar / 4.0, rel=1e-14)  # x^(-1/2)

    def test_b_positive_required(self, unit_freqs):
        with pytest.raises(ValueError):
            potential_specs(Fraction(0), unit_freqs, SubspaceLabel(1, 1), [0.0])
        with pytest.raises(ValueError):
            potential_specs(Fraction(-1, 2), unit_freqs, SubspaceLabel(1, 1), [0.0])

    @pytest.mark.parametrize(
        "b", [Fraction(1, 10**200), Fraction(10**400)], ids=["1e-200", "1e400"]
    )
    @pytest.mark.parametrize("stage", B_STAGES)
    def test_b_outside_double_range_rejected(self, unit_freqs, stage, b):
        # every rung divides by b^2: the library refuses a b whose square
        # underflows or overflows a double by the rule `--b` is held to, and
        # names the rule, not a b of hundreds of digits
        with pytest.raises(ValueError, match=r"b\^2 must be a non-zero finite") as exc:
            b_stage_calls(unit_freqs, b)[stage]()
        assert "0" * 100 not in str(exc.value)

    @pytest.mark.parametrize("b", [0.5, 2.0])
    @pytest.mark.parametrize("stage", B_STAGES)
    def test_float_b_rejected(self, unit_freqs, stage, b):
        # b is exact: a float b is refused by name of the rule, whether or
        # not 2b is an integer, where it used to end in an AttributeError
        # (0.5) or pass (2.0)
        with pytest.raises(ValueError, match="b must be rational: an int or a Fraction"):
            b_stage_calls(unit_freqs, b)[stage]()

    def test_float_b_rejected_by_lambda_rung(self):
        # the oracle's entry for a spec's b holds it to the same rule
        with pytest.raises(ValueError, match="b must be rational: an int or a Fraction"):
            lambda_rung(0.5)
        assert lambda_rung(HALF) == 1 and lambda_rung(2) == 4


# Literal transcriptions of the printed b-specializations.  The printed
# forms carry known defects: the b=1 formula mixes the symbols n and l
# (transcribed here with n read as l, the only symbol in scope), the
# x^(-1) term of the b=2 formula lacks its 1/16 denominator, and the
# x^(-2+1/b) / x^(-2+2/b) coefficients of every printed form inherit two
# sign slips of the printed general formula.  The certified potential is
# the one the closed-form wavefunctions and the fd oracle agree on; the
# tests below pin the deviation structure exactly.

def printed_v1(freqs, label, energy):
    w1, w2, w3 = freqs.as_tuple()
    ell, m = label.ell, label.m
    return {
        -2.0: (m - ell - 1) * (m - ell + 1) / 4.0,
        -1.0: SQRT2 * (2 * energy + (1 - 3 * m - 3 * ell) * w1
                       + (-1 + 3 * m + ell) * w2 + (-1 + m + 3 * ell) * w3) / 2.0,
        0.0: 2.0 - 3.0 * (m + ell) - (-w1 + w2 + w3) ** 2 / 2.0,
        1.0: SQRT2 * (w1 - w2 - w3),
        2.0: 1.0,
    }


def printed_v12(freqs, label, energy):
    w1, w2, w3 = freqs.as_tuple()
    ell, m = label.ell, label.m
    return {
        -2.0: (2 * m - 2 * ell - 1) * (2 * m - 2 * ell + 1) / 4.0,
        0.0: (2 * SQRT2 * (-(3 * m + 3 * ell - 1) * w1 + (ell + 3 * m - 1) * w2
                           + (3 * ell + m - 1) * w3) + 4 * SQRT2 * energy),
        2.0: -(-8.0 + 12.0 * (m + ell) + 2.0 * (w1 - w2 - w3) ** 2),
        4.0: 4.0 * SQRT2 * (w1 - w2 - w3),
        6.0: 4.0,
    }


def printed_v32(freqs, label, energy):
    w1, w2, w3 = freqs.as_tuple()
    ell, m = label.ell, label.m
    return {
        -2.0: (2 * m - 2 * ell - 3) * (2 * m - 2 * ell + 3) / 36.0,
        # x^(-4/3) carries the energy, x^(-2/3) the quadratic-in-w bracket
        -2.0 + 2.0 / 3.0: 2.0 * SQRT2 * (2 * energy - (3 * m + 3 * ell - 1) * w1
                                         + (ell + 3 * m - 1) * w2
                                         + (3 * ell + m - 1) * w3) / 9.0,
        -2.0 + 4.0 / 3.0: -(-8.0 + 12.0 * (m + ell) + 2.0 * (w1 - w2 - w3) ** 2) / 9.0,
        0.0: 4.0 * SQRT2 * (w1 - w2 - w3) / 9.0,
        2.0 / 3.0: 4.0 / 9.0,
    }


def printed_v2(freqs, label, energy):
    w1, w2, w3 = freqs.as_tuple()
    ell, m = label.ell, label.m
    return {
        -2.0: (m - ell - 2) * (m - ell + 2) / 16.0,
        -1.5: 2.0 * SQRT2 * (2 * energy - (3 * m + 3 * ell - 1) * w1
                             + (ell + 3 * m - 1) * w2 + (3 * ell + m - 1) * w3) / 16.0,
        # transcribed literally: the denominator 16 is absent in print
        -1.0: -(-8.0 + 12.0 * (m + ell) + 2.0 * (w1 - w2 - w3) ** 2),
        -0.5: SQRT2 * (w1 - w2 - w3) / 4.0,
        0.0: 0.25,
    }


PRINTED = {
    Fraction(1): printed_v1,
    Fraction(1, 2): printed_v12,
    Fraction(3, 2): printed_v32,
    Fraction(2): printed_v2,
}


class TestPrintedSpecializations:
    @pytest.mark.parametrize("b", [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)])
    @settings(max_examples=30, deadline=None)
    @given(frequencies(), labels(max_l=5, max_m=5), st.floats(-4, 4))
    def test_deviation_localizes(self, b, freqs, label, energy):
        (spec,) = potential_specs(b, freqs, label, [energy], Branch.PLUS)
        printed = PRINTED[b](freqs, label, energy)
        a_ = SQRT2 * (freqs.w1 - freqs.w2 - freqs.w3)
        b_ = label.ell + label.m - 1
        bb = float(b)
        inv = 1.0 / bb
        scale = max(1.0, max(abs(v) for v in printed.values()))
        for i, coeff in enumerate(spec.coeffs):
            e = -2.0 + i * inv
            key = min(printed, key=lambda pk: abs(pk - e))
            assert abs(key - e) < 1e-9
            printed_coeff = printed[key]
            if i == 1:
                # sign slip of the A*B part in print
                expected_gap = a_ * b_ / (bb * bb)
            elif i == 2:
                # sign slip of the A^2 + 4B - 4 part in print
                expected_gap = (a_**2 + 4.0 * b_ - 4.0) / (2.0 * bb * bb)
                if b == Fraction(2):
                    # the printed b=2 term additionally lacks its /16
                    printed_coeff = printed_coeff / 16.0
            else:
                expected_gap = 0.0
            assert coeff - printed_coeff == pytest.approx(
                expected_gap, rel=1e-12, abs=1e-12 * scale
            )

    def test_b2_denominator_omission_is_real(self, unit_freqs):
        # the literal printed b=2 x^(-1) coefficient is 16x the consistent one
        label = SubspaceLabel(2, 1)
        printed = printed_v2(unit_freqs, label, 0.7)
        consistent = printed[-1.0] / 16.0
        assert printed[-1.0] == pytest.approx(16.0 * consistent, rel=1e-15)
        assert abs(printed[-1.0]) > 0.0


class TestSplitSextic:
    def test_epsilon_values(self, unit_freqs):
        assert epsilon_of(0.0) == 0.0
        e_hi = (3 + math.sqrt(5)) / 2
        e_lo = (3 - math.sqrt(5)) / 2
        assert epsilon_of(e_hi) == pytest.approx(-2.0 * SQRT2 * (3.0 + math.sqrt(5.0)), rel=1e-15)
        assert epsilon_of(e_lo) == pytest.approx(-2.0 * SQRT2 * (3.0 - math.sqrt(5.0)), rel=1e-15)
        # minus branch flips the sign of the pseudo-eigenvalue
        assert epsilon_of(e_hi, Branch.MINUS) == pytest.approx(2.0 * SQRT2 * (3.0 + math.sqrt(5.0)), rel=1e-15)

    def test_epsilon_for_printed_w32_energy(self):
        assert epsilon_of(7.40405) == pytest.approx(-4.0 * SQRT2 * 7.40405, rel=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(frequencies(), labels(max_l=5, max_m=5), st.floats(-4, 4), st.floats(-4, 4))
    def test_tilde_is_energy_independent(self, freqs, label, e1, e2):
        for branch in Branch:
            (tilde,) = potential_specs(HALF, freqs, label, [0.0], branch)
            specs = potential_specs(HALF, freqs, label, [e1, e2], branch)
            for energy, spec in zip((e1, e2), specs):
                assert tilde.b == spec.b
                for i, (tc, sc) in enumerate(zip(tilde.coeffs, spec.coeffs)):
                    shift = epsilon_of(energy, branch) if i == 1 else 0.0  # rung 1 is x^0
                    assert tc == pytest.approx(sc + shift, rel=1e-12, abs=1e-12)


class TestEvaluation:
    def test_single_term(self, unit_freqs):
        spec = PotentialSpec(Fraction(1), (0.0, 0.0, 5.0, 0.0, 0.0))
        assert eval_potential(spec, 3.0) == 5.0

    def test_positive_domain_only(self, unit_freqs):
        (spec,) = potential_specs(Fraction(1), unit_freqs, SubspaceLabel(1, 1), [0.0])
        with pytest.raises(ValueError):
            eval_potential(spec, 0.0)
        with pytest.raises(ValueError):
            eval_potential(spec, -1.0)

    def test_five_term_sum_matches_manual(self, unit_freqs):
        energy = (3 + math.sqrt(5)) / 2
        (spec,) = potential_specs(Fraction(1), unit_freqs, SubspaceLabel(1, 1), [energy])
        x = 1.37
        manual = sum(c * x ** (i - 2) for i, c in enumerate(spec.coeffs))
        assert eval_potential(spec, x) == pytest.approx(manual, rel=1e-15)


class TestWavefunction:
    def test_prefactor_exponent_b_half(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        _, vec = eigenpairs(unit_freqs, label)[0]
        _, s, _, _ = make_wf(Fraction(1, 2), unit_freqs, label, vec, Branch.PLUS)
        assert s == pytest.approx(0.5, abs=0)

    @given(labels(max_l=8, max_m=8), st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 3)]))
    def test_prefactor_always_positive(self, label, b):
        freqs = ModeFrequencies(1.0, 0.5, -0.5)
        vec = np.zeros(label.dim)
        vec[-1] = 1.0
        _, s, _, _ = make_wf(b, freqs, label, vec, Branch.PLUS)
        assert s > 0.0

    def test_boundary_decay(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        for energy, vec in eigenpairs(unit_freqs, label):
            for branch in Branch:
                wf = make_wf(Fraction(1, 2), unit_freqs, label, vec, branch)
                mid = abs(eval_wavefunction(*wf, 1.0))
                assert abs(eval_wavefunction(*wf, 1e-10)) < 1e-4 * mid
                assert abs(eval_wavefunction(*wf, 12.0)) < 1e-30 * mid

    def test_positive_domain_only(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        _, vec = eigenpairs(unit_freqs, label)[0]
        wf = make_wf(Fraction(1), unit_freqs, label, vec, Branch.PLUS)
        with pytest.raises(ValueError):
            eval_wavefunction(*wf, 0.0)

    def test_minus_branch_uses_own_variable(self, unit_freqs):
        # chi_minus built from the minus polynomial at v equals (up to the
        # global sign (-1)^k) the plus polynomial evaluated at -v
        label = SubspaceLabel(2, 1)
        _, vec = eigenpairs(unit_freqs, label)[1]
        _, _, _, phi_plus = make_wf(Fraction(1), unit_freqs, label, vec, Branch.PLUS)
        wf_minus = make_wf(Fraction(1), unit_freqs, label, vec, Branch.MINUS)
        _, s, a, _ = wf_minus
        x = 1.7
        v = x  # b = 1
        plus_at_minus_v = math.fsum(c * (-v) ** n for n, c in enumerate(phi_plus.tolist()))
        expected = (
            x**s * math.exp(-0.5 * v * (a + v)) * plus_at_minus_v * (-1.0) ** label.k
        )
        assert eval_wavefunction(*wf_minus, x) == pytest.approx(expected, rel=1e-14)

    def test_square_integrability(self, unit_freqs):
        label = SubspaceLabel(3, 2)
        _, vec = eigenpairs(unit_freqs, label)[2]
        for b in (Fraction(1), Fraction(1, 2)):
            wf = make_wf(b, unit_freqs, label, vec, Branch.PLUS)
            norms = []
            for x_max in (6.0, 8.0, 10.0, 12.0):
                xs = np.linspace(1e-4, x_max, 20001)
                vals = np.asarray(eval_wavefunction(*wf, xs)) ** 2
                norms.append(np.trapezoid(vals, xs))
            assert abs(norms[-1] - norms[-2]) < 1e-10 * norms[-1]

    @pytest.mark.parametrize("ell,m", [(1, 1), (3, 2)])
    def test_displaced_sextic_eigenfunctions_orthogonal(self, unit_freqs, ell, m):
        # distinct eps(E) levels of the same displaced potential must give
        # orthogonal wavefunctions; ties the whole pipeline together
        label = SubspaceLabel(ell, m)
        pairs = eigenpairs(unit_freqs, label)
        xs = np.linspace(1e-6, 8.0, 40001)
        for branch in Branch:
            chis = []
            for _, vec in pairs:
                wf = make_wf(Fraction(1, 2), unit_freqs, label, vec, branch)
                vals = np.asarray(eval_wavefunction(*wf, xs))
                chis.append(vals / np.sqrt(np.trapezoid(vals * vals, xs)))
            for i in range(len(chis)):
                for j in range(i + 1, len(chis)):
                    overlap = np.trapezoid(chis[i] * chis[j], xs)
                    assert abs(overlap) < 1e-7  # trapezoid-limited


def relative(spec, lam, b, freqs, label, energy, vec, branch):
    """What the pipeline gates for the zero mode of eigenpair (energy, vec)
    in `spec` at `lam`: the larger of phi's BHE operator residual, relative
    to its largest coefficient, and the ladder link of `spec` at b."""
    pair = ([label.ell], [label.m])
    phi = rho_coefficients(*pair, np.asarray(vec)[:, None], [branch])
    op = operator_residuals(freqs, *pair, [energy], phi, [branch])
    link = ladder_links(
        [b], freqs, *pair, [energy], [branch], np.reshape(spec.coeffs, (5, 1, 1, 1)), lam
    )
    return max(float(np.max(np.abs(op)) / np.max(np.abs(phi))), float(link.item()))


class TestResonance:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(-4096, 4096), st.integers(-4096, 4096), labels(max_l=6, max_m=6)
    )
    def test_rung_3_vanishes_at_resonance(self, n2, n3, label):
        # at resonance, w1 = w2 + w3, A = c (w1 - w2 - w3) is 0, so rung 3
        # of every V_b, A / b^2, is exactly 0.0 under every b and branch;
        # multiples of 1/1024 keep w1 - w2 - w3 exact in doubles
        freqs = ModeFrequencies((n2 + n3) / 1024, n2 / 1024, n3 / 1024)
        assert freqs.w1 - freqs.w2 - freqs.w3 == 0.0
        b_values = [Fraction(1), HALF, Fraction(3, 2), Fraction(2), Fraction(1, 3)]
        energies = eig_sym(build_hamiltonian(freqs, label)).eigenvalues
        rungs, _ = zero_mode_ladders(
            b_values, freqs, *label_arrays([label] * label.dim), energies, list(Branch)
        )
        assert rungs.shape == (5, label.dim, len(Branch), len(b_values))
        assert rungs[3].ravel().tolist() == [0.0] * rungs[3].size
        assert all(zero_mode_envelope(1, freqs, label, br)[1] == 0.0 for br in Branch)


def old_quotient_rungs(b, freqs, label, energy, branch):
    """The five rungs with 4 b^2 and 2 b^2 formed before the division, the
    form the ladder used before b ~ 6.7e153 was reachable."""
    bb, c = float(b), branch.c
    w1, w2, w3 = freqs.as_tuple()
    ell, m = label.ell, label.m
    a_ = c * (w1 - w2 - w3)
    b_, g_ = m + ell - 1, 2 * (m + ell)
    d_ = c * (m * (w1 - w2) + ell * (w1 - w3) - energy)
    return [
        -0.25 + (ell - m) ** 2 / (4.0 * bb * bb),
        (a_ * b_ - 2.0 * d_) / (2.0 * bb * bb),
        (a_ * a_ + 4.0 * b_ - 4.0 * g_ - 4.0) / (4.0 * bb * bb),
        a_ / (bb * bb),
        1.0 / (bb * bb),
    ]


@pytest.mark.parametrize(
    "b", [HALF, Fraction(1), Fraction(3, 2), Fraction(2), Fraction(10**7), Fraction(5 * 10**153)]
)
def test_rungs_keep_their_bits(b):
    # x / 4 / b^2 is x / (4 b^2) bit for bit wherever 4 b^2 is finite: a
    # division by a power of two is exact away from subnormals
    freqs = ModeFrequencies(2.0, 0.5, -1.0)
    group = [SubspaceLabel(3, 1), SubspaceLabel(1, 4), SubspaceLabel(1, 1)]
    energies = eig_sym(build_hamiltonian(freqs, group)).eigenvalues
    branches = list(Branch)
    pairs = [label for label in group for _ in range(label.dim)]
    rungs = _ladders(
        np.array([float(b)]), freqs, *label_arrays(pairs), energies.ravel()[:, None, None],
        branches,
    )
    for i, (label, energy) in enumerate(zip(pairs, energies.ravel().tolist())):
        for j, branch in enumerate(branches):
            expected = old_quotient_rungs(b, freqs, label, energy, branch)
            got = rungs[:, i, j, 0].tolist()
            assert list(map(float.hex, got)) == list(map(float.hex, expected))


class TestResidual:
    def test_quarkonium_zero_mode(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        energy, vec = eigenpairs(unit_freqs, label)[1]
        assert energy == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-14)
        (spec,) = potential_specs(Fraction(1), unit_freqs, label, [energy])
        pair = (unit_freqs, label, energy, vec, Branch.PLUS)
        assert relative(spec, 0.0, Fraction(1), *pair) <= 1e-10

    def test_sextic_displaced_eigenvalue(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        energy, vec = eigenpairs(unit_freqs, label)[1]
        (tilde,), (lam,) = zero_mode_potentials(HALF, unit_freqs, label, [energy])
        pair = (unit_freqs, label, energy, vec, Branch.PLUS)
        assert relative(tilde, lam, HALF, *pair) <= 1e-10

    def test_perturbed_lambda_detected(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        energy, vec = eigenpairs(unit_freqs, label)[1]
        (spec,) = potential_specs(Fraction(1), unit_freqs, label, [energy])
        pair = (unit_freqs, label, energy, vec, Branch.PLUS)
        assert relative(spec, 0.1, Fraction(1), *pair) >= 1e-2

    @settings(max_examples=15, deadline=None)
    @given(frequencies(min_value=-1.5, max_value=1.5), labels(max_l=4, max_m=4))
    def test_random_zero_modes(self, freqs, label):
        spec_h = eig_sym(build_hamiltonian(freqs, label))
        for branch in Branch:
            for b in (Fraction(1), HALF):
                vspecs, lams = zero_mode_potentials(
                    b, freqs, label, spec_h.eigenvalues, branch
                )
                for i, (vspec, lam) in enumerate(zip(vspecs, lams.tolist())):
                    energy, vec = spec_h.pair(i)
                    rel = relative(vspec, lam, b, freqs, label, energy, vec, branch)
                    assert rel <= 1e-10, (freqs, label, branch, i, b, rel)

    @seed(25)
    @settings(max_examples=25, deadline=None)
    @given(
        frequencies(), labels(max_l=8, max_m=8), st.sampled_from((0.0, 1e-6, -1e-3))
    )
    def test_link_reads_rounding_only(self, freqs, label, shift):
        # b^2 c_i is the b-free numerator N_i in exact arithmetic
        # (tests/test_symbolic.py): every ladder the builder writes links to
        # within a few ulps of its largest term, b^2 c_i, N_i or b^2 lambda,
        # at every b, large b included, and at energies that are no
        # eigenvalue
        b_values = [Fraction(1, 3), HALF, Fraction(1), Fraction(3, 2), Fraction(2),
                    Fraction(5, 2), Fraction(10**6)]
        energies = eig_sym(build_hamiltonian(freqs, label)).eigenvalues
        energies = energies + shift * np.maximum(1.0, np.abs(energies))
        branches = list(Branch)
        pairs = label_arrays([label] * label.dim)
        rungs, lams = zero_mode_ladders(b_values, freqs, *pairs, energies, branches)
        link = ladder_links(b_values, freqs, *pairs, energies, branches, rungs, lams)
        numerators = _ladders(np.ones(1), freqs, *pairs, energies[:, None, None], branches)
        bb2 = np.array([float(b) ** 2 for b in b_values])
        scale = np.maximum(
            np.abs(numerators[1:]).max(axis=0), np.abs(bb2 * rungs[1:]).max(axis=0)
        )
        scale = np.maximum(scale, np.abs(bb2 * lams))
        assert (link <= 8 * np.finfo(float).eps * scale).all(), (freqs, label, shift)
