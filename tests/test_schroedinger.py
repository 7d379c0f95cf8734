import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
    fock_to_rho_polynomial,
    potential_spec,
    split_sextic,
    wavefunction_spec,
    zero_mode_residual,
)
from triqes.certify import zero_mode_potential
from triqes.schroedinger import AuxConstants, PotentialSpec

from conftest import frequencies, labels

SQRT2 = math.sqrt(2.0)


def eigenpairs(freqs, label):
    spec = eig_sym(build_hamiltonian(freqs, label))
    return [spec.pair(i) for i in range(label.dim)]


def make_wf(b, freqs, label, vec, branch):
    phi = fock_to_rho_polynomial(label, vec, branch)
    return wavefunction_spec(b, freqs, label, phi)


class TestPotentialSpec:
    def test_exponent_set(self, unit_freqs):
        # rung i of the ladder is the power x^(-2 + i/b)
        for b in (Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(5, 3)):
            spec = potential_spec(b, unit_freqs, SubspaceLabel(2, 1), 0.3)
            assert spec.b == b and len(spec.coeffs) == 5
            for i in range(5):
                rung = PotentialSpec(b, tuple(float(j == i) for j in range(5)))
                expected = 1.7 ** float(i / b - 2)
                assert eval_potential(rung, 1.7) == pytest.approx(expected, rel=1e-15)

    def test_leading_coefficients(self, unit_freqs):
        # the two highest-power coefficients are branch-independent
        for branch in Branch:
            spec = potential_spec(Fraction(1, 2), unit_freqs, SubspaceLabel(1, 1), 0.5, branch)
            assert spec.coeffs[4] == pytest.approx(4.0, abs=0)  # x^6
            a_val = branch.c * (1.0 - 1.0 - 1.0)
            assert spec.coeffs[3] == pytest.approx(4.0 * a_val, rel=1e-15)  # x^4

    def test_sextic_centrifugal_equal_labels(self, unit_freqs):
        spec = potential_spec(Fraction(1, 2), unit_freqs, SubspaceLabel(1, 1), 0.0)
        assert spec.coeffs[0] == pytest.approx(-0.25, abs=0)

    def test_b2_constants(self, unit_freqs):
        freqs = ModeFrequencies(2.0, 0.5, -0.3)
        spec = potential_spec(Fraction(2), freqs, SubspaceLabel(1, 1), 0.1)
        assert spec.coeffs[4] == pytest.approx(0.25, abs=0)  # x^0
        wbar = 2.0 - 0.5 + 0.3
        assert spec.coeffs[3] == pytest.approx(SQRT2 * wbar / 4.0, rel=1e-14)  # x^(-1/2)

    def test_b_positive_required(self, unit_freqs):
        with pytest.raises(ValueError):
            potential_spec(Fraction(0), unit_freqs, SubspaceLabel(1, 1), 0.0)
        with pytest.raises(ValueError):
            potential_spec(Fraction(-1, 2), unit_freqs, SubspaceLabel(1, 1), 0.0)

    @given(frequencies(), labels(max_l=8, max_m=8), st.floats(-5, 5))
    def test_aux_constants(self, freqs, label, energy):
        for branch in Branch:
            aux = AuxConstants.from_inputs(freqs, label, energy, branch)
            assert aux.B == label.ell + label.m - 1
            assert aux.G == 2 * (label.ell + label.m)
            assert float(aux.B).is_integer() and float(aux.G).is_integer()
            c = branch.c
            assert aux.A == pytest.approx(c * (freqs.w1 - freqs.w2 - freqs.w3), rel=1e-15, abs=1e-300)


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
        spec = potential_spec(b, freqs, label, energy, Branch.PLUS)
        printed = PRINTED[b](freqs, label, energy)
        aux = AuxConstants.from_inputs(freqs, label, energy, Branch.PLUS)
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
                expected_gap = aux.A * aux.B / (bb * bb)
            elif i == 2:
                # sign slip of the A^2 + 4B - 4 part in print
                expected_gap = (aux.A**2 + 4.0 * aux.B - 4.0) / (2.0 * bb * bb)
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
            tilde, eps = split_sextic(freqs, label, branch)
            for energy in (e1, e2):
                spec = potential_spec(Fraction(1, 2), freqs, label, energy, branch)
                assert tilde.b == spec.b
                for i, (tc, sc) in enumerate(zip(tilde.coeffs, spec.coeffs)):
                    shift = eps(energy) if i == 1 else 0.0  # rung 1 is x^0
                    assert tc == pytest.approx(sc + shift, rel=1e-12, abs=1e-12)


class TestEvaluation:
    def test_single_term(self, unit_freqs):
        spec = PotentialSpec(Fraction(1), (0.0, 0.0, 5.0, 0.0, 0.0))
        assert eval_potential(spec, 3.0) == 5.0

    def test_positive_domain_only(self, unit_freqs):
        spec = potential_spec(Fraction(1), unit_freqs, SubspaceLabel(1, 1), 0.0)
        with pytest.raises(ValueError):
            eval_potential(spec, 0.0)
        with pytest.raises(ValueError):
            eval_potential(spec, -1.0)

    def test_five_term_sum_matches_manual(self, unit_freqs):
        energy = (3 + math.sqrt(5)) / 2
        spec = potential_spec(Fraction(1), unit_freqs, SubspaceLabel(1, 1), energy)
        x = 1.37
        manual = sum(c * x ** (i - 2) for i, c in enumerate(spec.coeffs))
        assert eval_potential(spec, x) == pytest.approx(manual, rel=1e-15)


class TestWavefunction:
    def test_prefactor_exponent_b_half(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        _, vec = eigenpairs(unit_freqs, label)[0]
        wf = make_wf(Fraction(1, 2), unit_freqs, label, vec, Branch.PLUS)
        assert wf.prefactor_exponent == pytest.approx(0.5, abs=0)

    @given(labels(max_l=8, max_m=8), st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 3)]))
    def test_prefactor_always_positive(self, label, b):
        freqs = ModeFrequencies(1.0, 0.5, -0.5)
        vec = np.zeros(label.dim)
        vec[-1] = 1.0
        wf = make_wf(b, freqs, label, vec, Branch.PLUS)
        assert wf.prefactor_exponent > 0.0

    def test_boundary_decay(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        for energy, vec in eigenpairs(unit_freqs, label):
            for branch in Branch:
                wf = make_wf(Fraction(1, 2), unit_freqs, label, vec, branch)
                mid = abs(eval_wavefunction(wf, 1.0))
                assert abs(eval_wavefunction(wf, 1e-10)) < 1e-4 * mid
                assert abs(eval_wavefunction(wf, 12.0)) < 1e-30 * mid

    def test_positive_domain_only(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        _, vec = eigenpairs(unit_freqs, label)[0]
        wf = make_wf(Fraction(1), unit_freqs, label, vec, Branch.PLUS)
        with pytest.raises(ValueError):
            eval_wavefunction(wf, 0.0)

    def test_minus_branch_uses_own_variable(self, unit_freqs):
        # chi_minus built from the minus polynomial at v equals (up to the
        # global sign (-1)^k) the plus polynomial evaluated at -v
        label = SubspaceLabel(2, 1)
        _, vec = eigenpairs(unit_freqs, label)[1]
        phi_plus = fock_to_rho_polynomial(label, vec, Branch.PLUS)
        wf_minus = make_wf(Fraction(1), unit_freqs, label, vec, Branch.MINUS)
        x = 1.7
        v = x  # b = 1
        expected = (
            x**wf_minus.prefactor_exponent
            * math.exp(-0.5 * v * (wf_minus.A + v))
            * phi_plus(-v) * (-1.0) ** label.k
        )
        assert eval_wavefunction(wf_minus, x) == pytest.approx(expected, rel=1e-14)

    def test_square_integrability(self, unit_freqs):
        label = SubspaceLabel(3, 2)
        _, vec = eigenpairs(unit_freqs, label)[2]
        for b in (Fraction(1), Fraction(1, 2)):
            wf = make_wf(b, unit_freqs, label, vec, Branch.PLUS)
            norms = []
            for x_max in (6.0, 8.0, 10.0, 12.0):
                xs = np.linspace(1e-4, x_max, 20001)
                vals = np.asarray(eval_wavefunction(wf, xs)) ** 2
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
                vals = np.asarray(eval_wavefunction(wf, xs))
                chis.append(vals / np.sqrt(np.trapezoid(vals * vals, xs)))
            for i in range(len(chis)):
                for j in range(i + 1, len(chis)):
                    overlap = np.trapezoid(chis[i] * chis[j], xs)
                    assert abs(overlap) < 1e-7  # trapezoid-limited


def relative(p, wf):
    """max|P| relative to the largest phi coefficient, as the pipeline gates."""
    return float(np.max(np.abs(p))) / max(abs(c) for c in wf.phi.coeffs)


class TestResidual:
    def test_quarkonium_zero_mode(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        energy, vec = eigenpairs(unit_freqs, label)[1]
        assert energy == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-14)
        wf = make_wf(Fraction(1), unit_freqs, label, vec, Branch.PLUS)
        spec = potential_spec(Fraction(1), unit_freqs, label, energy)
        assert relative(zero_mode_residual(spec, wf, 0.0), wf) <= 1e-10

    def test_sextic_displaced_eigenvalue(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        energy, vec = eigenpairs(unit_freqs, label)[1]
        wf = make_wf(Fraction(1, 2), unit_freqs, label, vec, Branch.PLUS)
        tilde, eps = split_sextic(unit_freqs, label)
        assert relative(zero_mode_residual(tilde, wf, eps(energy)), wf) <= 1e-10

    def test_perturbed_lambda_detected(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        energy, vec = eigenpairs(unit_freqs, label)[1]
        wf = make_wf(Fraction(1), unit_freqs, label, vec, Branch.PLUS)
        spec = potential_spec(Fraction(1), unit_freqs, label, energy)
        assert relative(zero_mode_residual(spec, wf, 0.1), wf) >= 1e-2

    @settings(max_examples=15, deadline=None)
    @given(frequencies(min_value=-1.5, max_value=1.5), labels(max_l=4, max_m=4))
    def test_random_zero_modes(self, freqs, label):
        spec_h = eig_sym(build_hamiltonian(freqs, label))
        for branch in Branch:
            for i in range(label.dim):
                energy, vec = spec_h.pair(i)
                for b in (Fraction(1), Fraction(1, 2)):
                    wf = make_wf(b, freqs, label, vec, branch)
                    vspec, lam = zero_mode_potential(b, freqs, label, energy, branch)
                    rel = relative(zero_mode_residual(vspec, wf, lam), wf)
                    assert rel <= 1e-10, (freqs, label, branch, i, b, rel)
