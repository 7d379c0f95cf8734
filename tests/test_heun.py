import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triqes import (
    Branch,
    ModeFrequencies,
    SubspaceLabel,
    bhe_operator_residual,
    bhe_params,
    bhe_standard_residual,
    build_hamiltonian,
    eig_sym,
    fock_to_rho_polynomial,
)
from triqes.fock import MAX_TOTAL_LABEL
from triqes.heun import BHE_RTOL, BheParams, RhoPolynomial, _rho_weights, residual_ok

from conftest import exact_power, frequencies, labels

SQRT2 = math.sqrt(2.0)


def eigenpairs(freqs, label):
    spec = eig_sym(build_hamiltonian(freqs, label))
    return [spec.pair(i) for i in range(label.dim)]


def assert_both_residuals_ok(freqs, label):
    """Every eigenpair and branch of W(l, m) passes both BHE recurrences."""
    for energy, vec in eigenpairs(freqs, label):
        for branch in Branch:
            phi = fock_to_rho_polynomial(label, vec, branch)
            op_res = bhe_operator_residual(freqs, label, energy, phi)
            std_res = bhe_standard_residual(bhe_params(freqs, label, energy, branch), phi)
            assert residual_ok(op_res, phi), (label, energy, branch)
            assert residual_ok(std_res, phi), (label, energy, branch)


class TestPolynomialMap:
    def test_w11_coefficients(self, unit_freqs):
        # phi = sqrt(2) g1 + 2 g2 rho with g1 on |1,0,0>, g2 on |0,1,1>
        label = SubspaceLabel(1, 1)
        for energy, vec in eigenpairs(unit_freqs, label):
            phi = fock_to_rho_polynomial(label, vec, Branch.PLUS)
            g1, g2 = vec[1], vec[0]
            assert phi.coeffs[0] == pytest.approx(SQRT2 * g1, rel=1e-14)
            assert phi.coeffs[1] == pytest.approx(2.0 * g2, rel=1e-14)

    def test_w32_coefficients(self, unit_freqs):
        # phi = 2 g1 + (4/sqrt(2)) g3 rho + (4/sqrt(6)) g2 rho^2 with
        # g1 on |2,1,0>, g2 on |0,3,2>, g3 on |1,2,1>
        label = SubspaceLabel(3, 2)
        for energy, vec in eigenpairs(unit_freqs, label):
            phi = fock_to_rho_polynomial(label, vec, Branch.PLUS)
            g1, g2, g3 = vec[2], vec[0], vec[1]
            assert phi.coeffs[0] == pytest.approx(2.0 * g1, rel=1e-14, abs=1e-15)
            assert phi.coeffs[1] == pytest.approx(4.0 / SQRT2 * g3, rel=1e-14, abs=1e-15)
            assert phi.coeffs[2] == pytest.approx(4.0 / math.sqrt(6.0) * g2, rel=1e-14, abs=1e-15)

    def test_constant_case(self):
        # (l, m) = (2, 0): single state, phi = c^2 / sqrt(2!) = sqrt(2)
        label = SubspaceLabel(2, 0)
        phi = fock_to_rho_polynomial(label, [1.0], Branch.PLUS)
        assert phi.coeffs == (pytest.approx(SQRT2, rel=1e-15),)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fock_to_rho_polynomial(SubspaceLabel(1, 1), [1.0], Branch.PLUS)

    def test_weights_match_the_scalar_formula(self):
        # the one-pass weights of every label up to the cap, in one call and
        # one label at a time, are bit for bit the scalar loop's
        # c^(k+n) / sqrt(j! (l-j)! (m-j)!), and 0 above each label's degree
        def loop_weights(label, branch):
            ell, m, k, n_prime = label.ell, label.m, label.k, label.n_prime
            return np.array([
                exact_power(branch, k + n) / math.sqrt(
                    math.factorial(n_prime - n) * math.factorial(ell - n_prime + n)
                    * math.factorial(m - n_prime + n)
                )
                for n in range(n_prime + 1)
            ])

        every = [
            SubspaceLabel(ell, m)
            for ell in range(MAX_TOTAL_LABEL + 1) for m in range(MAX_TOTAL_LABEL + 1 - ell)
        ]
        # repeated labels, as on the pair axis
        labels_ = every + every[::7]
        weights = _rho_weights(labels_, list(Branch))
        assert weights.shape == (MAX_TOTAL_LABEL // 2 + 1, len(labels_), 2, 1)
        for u, label in enumerate(labels_):
            for i, branch in enumerate(Branch):
                expected = loop_weights(label, branch)
                assert weights[: label.dim, u, i, 0].tobytes() == expected.tobytes(), label
                assert not weights[label.dim :, u, i, 0].any(), label
                if u < len(every):
                    one = _rho_weights(label, branch)
                    assert one.shape == (label.dim, 1)
                    assert one[:, 0].tobytes() == expected.tobytes(), label

    @pytest.mark.parametrize("total", [12, 32, 64])
    def test_weights_within_two_ulps(self, total):
        # every weight of every label with l + m = total, both branches,
        # lies within 2 ulps of c^(k+n) / sqrt(j! (l-j)! (m-j)!) in 40-digit
        # mpmath: c^p carries one rounding, that of sqrt(2), where a power
        # of the rounded sqrt(2) carries p times its relative error
        labels_ = [SubspaceLabel(ell, total - ell) for ell in range(total + 1)]
        weights = _rho_weights(labels_, list(Branch))
        with mpmath.workdps(40):
            for u, label in enumerate(labels_):
                for i, branch in enumerate(Branch):
                    c = mpmath.sqrt(2) * (1 if branch is Branch.PLUS else -1)
                    for n in range(label.dim):
                        j = label.n_prime - n
                        exact = c ** (label.k + n) / mpmath.sqrt(
                            mpmath.factorial(j) * mpmath.factorial(label.ell - j)
                            * mpmath.factorial(label.m - j)
                        )
                        err = abs(mpmath.mpf(weights[n, u, i, 0]) - exact)
                        ulps = float(err) / math.ulp(float(exact))
                        assert ulps <= 2.0, (label, branch, n, ulps)

    @given(frequencies(), labels(max_l=6, max_m=6))
    def test_branch_relation(self, freqs, label):
        # coefficient n flips sign as (-1)^(k + n), so phi_minus(rho)
        # equals (-1)^k phi_plus(-rho)
        spec = eig_sym(build_hamiltonian(freqs, label))
        for i in range(label.dim):
            _, vec = spec.pair(i)
            plus = fock_to_rho_polynomial(label, vec, Branch.PLUS)
            minus = fock_to_rho_polynomial(label, vec, Branch.MINUS)
            for n, (bp, bm) in enumerate(zip(plus.coeffs, minus.coeffs)):
                assert bm == pytest.approx((-1.0) ** (label.k + n) * bp, rel=1e-14, abs=1e-300)


class TestBheParams:
    def test_w11_example(self, unit_freqs):
        energy = (3 + math.sqrt(5)) / 2
        params = bhe_params(unit_freqs, SubspaceLabel(1, 1), energy, Branch.PLUS)
        assert params.alpha == 0.0
        assert params.beta == pytest.approx(SQRT2, rel=1e-15)
        assert params.gamma == 4.0
        # delta = sqrt(2) (2E - 3) = sqrt(10)
        assert params.delta == pytest.approx(math.sqrt(10.0), rel=1e-14)

    @given(frequencies(), labels(max_l=8, max_m=8), st.floats(-5, 5))
    def test_alpha_gamma_structure(self, freqs, label, energy):
        params = bhe_params(freqs, label, energy, Branch.PLUS)
        assert params.alpha == abs(label.ell - label.m)
        assert params.gamma == label.ell + label.m + 2

    def test_swap_rule_consistency(self, unit_freqs):
        # l > m goes through the swapped identification; certified by the
        # standard-form residual matching the direct operator residual
        freqs = ModeFrequencies(0.7, -0.4, 1.3)
        label = SubspaceLabel(3, 2)
        for energy, vec in eigenpairs(freqs, label):
            for branch in Branch:
                phi = fock_to_rho_polynomial(label, vec, branch)
                params = bhe_params(freqs, label, energy, branch)
                assert residual_ok(bhe_standard_residual(params, phi), phi)


class TestResiduals:
    def test_true_eigenpair_zero(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        for energy, vec in eigenpairs(unit_freqs, label):
            phi = fock_to_rho_polynomial(label, vec, Branch.PLUS)
            res = bhe_operator_residual(unit_freqs, label, energy, phi)
            assert residual_ok(res, phi)

    def test_residual_ok_is_the_pipeline_rule(self):
        # at this boundary max|r| <= BHE_RTOL * max|phi| holds while
        # max|r| / max|phi| rounds above BHE_RTOL: residual_ok decides by
        # the pipeline's quotient, and a NaN fails without a warning
        phi = RhoPolynomial((599.216167827022,), SubspaceLabel(0, 0), Branch.PLUS)
        res = np.array([5.99216167827022e-08, 0.0])
        assert np.all(np.abs(res) <= BHE_RTOL * phi.coeffs[0])
        assert not np.max(np.abs(res)) / phi.coeffs[0] <= BHE_RTOL
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not residual_ok(res, phi)
            assert residual_ok(res / 2, phi)
            assert not residual_ok(np.array([0.0, np.nan]), phi)
            # a zero phi divides by zero: 0 / 0 and 1 / 0 fail alike
            zero = RhoPolynomial((0.0,), SubspaceLabel(0, 0), Branch.PLUS)
            assert not residual_ok(np.zeros(2), zero)
            assert not residual_ok(np.ones(2), zero)

    def test_wrong_energy_detected(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        energy, vec = eigenpairs(unit_freqs, label)[1]
        phi = fock_to_rho_polynomial(label, vec, Branch.PLUS)
        res = bhe_operator_residual(unit_freqs, label, 1.0, phi)
        scale = max(abs(c) for c in phi.coeffs)
        assert np.max(np.abs(res)) > 1e-3 * scale

    def test_vacuum_trivial(self, unit_freqs):
        label = SubspaceLabel(0, 0)
        phi = fock_to_rho_polynomial(label, [1.0], Branch.PLUS)
        res = bhe_operator_residual(unit_freqs, label, 0.0, phi)
        assert np.all(res == 0.0)

    def test_standard_residual_constant_solution(self):
        # constant phi solves the standard BHE iff the pole and constant
        # coefficients vanish: delta + (1+alpha) beta = 0, gamma - alpha = 2
        label = SubspaceLabel(0, 0)
        phi = fock_to_rho_polynomial(label, [1.0], Branch.PLUS)
        params = BheParams(alpha=1.0, beta=2.0, gamma=3.0, delta=-4.0)
        assert np.all(bhe_standard_residual(params, phi) == 0.0)

    def test_alpha_perturbation_detected(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        energy, vec = eigenpairs(unit_freqs, label)[0]
        phi = fock_to_rho_polynomial(label, vec, Branch.PLUS)
        good = bhe_params(unit_freqs, label, energy, Branch.PLUS)
        bad = BheParams(good.alpha + 1.0, good.beta, good.gamma, good.delta)
        assert residual_ok(bhe_standard_residual(good, phi), phi)
        assert not residual_ok(bhe_standard_residual(bad, phi), phi)

    @settings(max_examples=60, deadline=None)
    @given(frequencies(), labels(max_l=6, max_m=6))
    def test_all_eigenpairs_both_branches(self, freqs, label):
        assert_both_residuals_ok(freqs, label)

    def test_largest_subspace_at_cap(self):
        # W(32, 32) has the largest dimension (33) the label cap allows; at
        # this w a cyclic Jacobi eigensolve left residuals up to 1.5e-9
        freqs = ModeFrequencies(0.94169343811499, -0.32168507186038475, -1.3923645579391297)
        assert_both_residuals_ok(freqs, SubspaceLabel(32, 32))

    @pytest.mark.parametrize("ell", [4, 20, 32, 44, 60])
    def test_random_frequencies_at_cap(self, ell):
        # |w_i| <= 2 as in criterion 4; unbalanced splits at larger |w| can
        # exceed the tolerance on their extreme levels (ROADMAP defect (d))
        rng = np.random.default_rng(ell)
        for _ in range(2):
            freqs = ModeFrequencies(*rng.uniform(-2.0, 2.0, 3))
            assert_both_residuals_ok(freqs, SubspaceLabel(ell, MAX_TOTAL_LABEL - ell))

    @settings(max_examples=30, deadline=None)
    @given(frequencies(), labels(max_l=6, max_m=6), st.floats(0.05, 2.0))
    def test_operator_and_standard_agree_on_failures(self, freqs, label, shift):
        # parameter-mapping consistency: both residuals accept or reject
        # an energy perturbation together
        spec = eig_sym(build_hamiltonian(freqs, label))
        energy, vec = spec.pair(0)
        gap = np.min(np.abs(spec.eigenvalues - (energy + shift)))
        phi = fock_to_rho_polynomial(label, vec, Branch.PLUS)
        bad = energy + shift
        op_bad = residual_ok(bhe_operator_residual(freqs, label, bad, phi), phi)
        std_bad = residual_ok(
            bhe_standard_residual(bhe_params(freqs, label, bad, Branch.PLUS), phi), phi
        )
        assert op_bad == std_bad
        if gap > 1e-6 and label.dim > 1:
            assert not op_bad
