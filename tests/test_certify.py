import importlib.util
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triqes import (
    Branch,
    ModeFrequencies,
    RhoPolynomial,
    SubspaceLabel,
    bhe_params,
    build_hamiltonian,
    certify_eigenpair,
    certify_subspace,
    eig_sym,
    epsilon_of,
    fock_to_rho_polynomial,
    potential_spec,
    split_sextic,
    wavefunction_spec,
    zero_mode_residual,
)
from triqes import certify
from triqes.certify import BHE_RTOL, zero_mode_potential
from triqes.cli import main as cli_main
from triqes.fock import MAX_TOTAL_LABEL

from conftest import frequencies

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
B_VALUES = (Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2))
# the bhe-bulk benchmark anchor
ANCHOR = ModeFrequencies(0.94169343811499, -0.32168507186038475, -1.3923645579391297)


def eigenpair(freqs, label, i):
    return eig_sym(build_hamiltonian(freqs, label)).pair(i)


def every_case(freqs, label):
    """(energy, vec, b, branch) for every eigenpair of W(l, m), b and branch."""
    spectrum = eig_sym(build_hamiltonian(freqs, label))
    for i in range(label.dim):
        energy, vec = spectrum.pair(i)
        for b in B_VALUES:
            for branch in Branch:
                yield energy, vec, b, branch


def exact_relative(vspec, wf, lam):
    residual = zero_mode_residual(vspec, wf, lam)
    return np.max(np.abs(residual)) / np.max(np.abs(wf.phi.coeffs))


def loop_chain(freqs, label, energy, vec, b, branch):
    """The three relative residuals of the chain by plain loops, one
    coefficient and one term at a time: the reference whose arithmetic
    order the array kernels keep."""
    ell, m, k, n_prime = label.ell, label.m, label.k, label.n_prime
    w1, w2, w3 = freqs.as_tuple()
    c = branch.c
    phi = []
    for n in range(n_prime + 1):
        j = n_prime - n
        weight = c ** (k + n) / math.sqrt(
            math.factorial(j) * math.factorial(ell - j) * math.factorial(m - j)
        )
        phi.append(float(vec[j]) * weight)
    scale = max(abs(x) for x in phi)
    # operator form
    wbar = w1 - w2 - w3
    q1 = 1 + 2 * k - ell - m
    p_const = m * (w1 - w2) + ell * (w1 - w3) - energy - k * wbar
    op = []
    for j in range(n_prime + 3):
        val = 0.0
        if j <= n_prime:
            val += (j * (j - 1) + q1 * j) * phi[j]
        if 1 <= j <= n_prime + 1:
            val += (-c * wbar * (j - 1) + c * p_const) * phi[j - 1]
        if 2 <= j:
            val += c * c * ((ell + m - k) - (j - 2)) * phi[j - 2]
        op.append(val)
    # standard form
    prm = bhe_params(freqs, label, energy, branch)
    a, bt, g = prm.alpha, prm.beta, prm.gamma
    pole = (prm.delta + (1.0 + a) * bt) / 2.0
    std = []
    for j in range(n_prime + 2):
        val = 0.0
        if j + 1 <= n_prime:
            val += ((j + 1) * j + (1.0 + a) * (j + 1)) * phi[j + 1]
        if j <= n_prime:
            val += (bt * j - pole) * phi[j]
        if 1 <= j:
            val += (-2.0 * (j - 1) + (g - a - 2.0)) * phi[j - 1]
        std.append(val)
    # zero mode: P = sum_n phi_n v^n (base - n-dependent terms)
    vspec, lam = zero_mode_potential(b, freqs, label, energy, branch)
    wf = wavefunction_spec(b, freqs, label, RhoPolynomial(tuple(phi), label, branch))
    bf = float(b)
    lam_power = int(2 * b) if lam != 0.0 else 0
    sigma = bf * wf.prefactor_exponent
    q = (sigma, -0.5 * wf.A, -1.0)
    base = [0.0] * max(5, lam_power + 1)
    for i in range(3):
        for j in range(3):
            base[i + j] -= q[i] * q[j]
        base[i] -= (1.0 - bf) * q[i]
    base[0] += sigma
    base[2] += 1.0
    for i, ci in enumerate(vspec.coeffs):
        base[i] += bf * bf * ci
    base[lam_power] -= bf * bf * lam
    out = [0.0] * (len(phi) + len(base) - 1)
    for n, p in enumerate(phi):
        r = list(base)
        r[0] -= n * (n - 1) + 2.0 * n * q[0] + (1.0 - bf) * n
        r[1] -= 2.0 * n * q[1]
        r[2] -= 2.0 * n * q[2]
        for j, rj in enumerate(r):
            out[n + j] += p * rj
    return tuple(max(abs(x) for x in res) / scale for res in (op, std, out))


def cap_labels():
    """Every label up to the cap l + m = MAX_TOTAL_LABEL."""
    return st.integers(0, MAX_TOTAL_LABEL).flatmap(
        lambda ell: st.builds(
            SubspaceLabel, st.just(ell), st.integers(0, MAX_TOTAL_LABEL - ell)
        )
    )


class TestCertifySubspace:
    @settings(max_examples=30, deadline=None)
    @given(frequencies(), cap_labels(), st.sampled_from((0.0, 1e-9, -1e-4)))
    def test_columns_match_eigenpairs(self, freqs, label, shift):
        # one pipeline: column i under b is certify_eigenpair on eigenpair
        # i, field for field, also for the failing certificates of a
        # perturbed energy; its residuals are the loop reference's, exactly
        spectrum = eig_sym(build_hamiltonian(freqs, label))
        energies = spectrum.eigenvalues + shift * np.maximum(
            1.0, np.abs(spectrum.eigenvalues)
        )
        for branch in Branch:
            per_b = certify_subspace(
                freqs, label, energies, spectrum.eigenvectors, B_VALUES, branch,
                oracle=False,
            )
            assert len(per_b) == len(B_VALUES)
            for b, certs in zip(B_VALUES, per_b):
                assert len(certs) == label.dim
                for i, cert in enumerate(certs):
                    energy, vec = float(energies[i]), spectrum.eigenvectors[:, i]
                    single = certify_eigenpair(
                        freqs, label, energy, vec, b, branch, oracle=False
                    )
                    assert cert == single, (b, branch, i)
                    assert (
                        cert.bhe_operator_residual,
                        cert.bhe_standard_residual,
                        cert.schrodinger_residual,
                    ) == loop_chain(freqs, label, energy, vec, b, branch), (b, branch, i)

    def test_shape_validation(self, unit_freqs):
        label = SubspaceLabel(3, 2)
        spectrum = eig_sym(build_hamiltonian(unit_freqs, label))
        with pytest.raises(ValueError, match="2 energies for 3 eigenvectors"):
            certify_subspace(
                unit_freqs, label, spectrum.eigenvalues[:2], spectrum.eigenvectors,
                B_VALUES, oracle=False,
            )
        with pytest.raises(ValueError, match="does not match dim"):
            certify_subspace(
                unit_freqs, label, spectrum.eigenvalues, spectrum.eigenvectors[:2],
                B_VALUES, oracle=False,
            )


class TestCertifyEigenpair:
    def test_sextic_at_b_half(self, unit_freqs):
        label = SubspaceLabel(3, 2)
        energy, vec = eigenpair(unit_freqs, label, 1)
        for branch in Branch:
            cert = certify_eigenpair(unit_freqs, label, energy, vec, Fraction(1, 2),
                                     branch, oracle=False)
            assert cert.lam == epsilon_of(energy, branch)
            assert cert.potential == split_sextic(unit_freqs, label, branch)[0]
            assert cert.passed

    @pytest.mark.parametrize("b", [Fraction(1), Fraction(3, 2), Fraction(2)])
    def test_plain_potential_otherwise(self, unit_freqs, b):
        label = SubspaceLabel(1, 1)
        energy, vec = eigenpair(unit_freqs, label, 0)
        cert = certify_eigenpair(unit_freqs, label, energy, vec, b, oracle=False)
        assert cert.lam == 0.0
        assert cert.potential == potential_spec(b, unit_freqs, label, energy)
        assert cert.oracle is None
        assert cert.passed

    def test_failed_names_stages(self, unit_freqs):
        label = SubspaceLabel(3, 2)
        energy, vec = eigenpair(unit_freqs, label, 1)
        cert = certify_eigenpair(unit_freqs, label, energy + 1e-3, vec, 1, oracle=False)
        assert cert.failed == ("bhe", "schrodinger")
        assert not cert.passed

    @pytest.mark.parametrize(
        "freqs,ell,m", [(ANCHOR, 32, 32), (ModeFrequencies(1, 1, 1), 20, 20)]
    )
    def test_cap_labels_pass(self, freqs, ell, m):
        # the exact zero-mode residual grows with the label like the BHE
        # residuals; both stay under the one tolerance at the label cap
        label = SubspaceLabel(ell, m)
        for energy, vec, b, branch in every_case(freqs, label):
            cert = certify_eigenpair(freqs, label, energy, vec, b, branch, oracle=False)
            assert cert.passed, (energy, b, branch, cert)

    def test_oracle_hit(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        energy, vec = eigenpair(unit_freqs, label, 1)
        cert = certify_eigenpair(unit_freqs, label, energy, vec, Fraction(1, 2))
        assert cert.oracle.hit and cert.passed
        assert cert.oracle.n_points == 2000


class TestZeroModeResidual:
    @pytest.mark.parametrize("ell,m", [(1, 1), (3, 2)])
    def test_perturbations_fail(self, unit_freqs, ell, m):
        label = SubspaceLabel(ell, m)
        for energy, vec, b, branch in every_case(unit_freqs, label):
            phi = fock_to_rho_polynomial(label, vec, branch)
            wf = wavefunction_spec(b, unit_freqs, label, phi)
            vspec, lam = zero_mode_potential(b, unit_freqs, label, energy, branch)
            case = (energy, b, branch)
            assert exact_relative(vspec, wf, lam) <= BHE_RTOL, case
            off_e, off_lam = zero_mode_potential(
                b, unit_freqs, label, energy * (1 + 1e-8), branch
            )
            assert exact_relative(off_e, wf, off_lam) > BHE_RTOL, case
            coeffs = list(vspec.coeffs)
            k = max(range(5), key=lambda i: abs(coeffs[i]))
            coeffs[k] *= 1 + 1e-8
            off_v = replace(vspec, coeffs=tuple(coeffs))
            assert exact_relative(off_v, wf, lam) > BHE_RTOL, case
            off_s = replace(wf, prefactor_exponent=wf.prefactor_exponent * (1 + 1e-8))
            assert exact_relative(vspec, off_s, lam) > BHE_RTOL, case

    def test_off_ladder_rejected(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        energy, vec = eigenpair(unit_freqs, label, 1)
        phi = fock_to_rho_polynomial(label, vec, Branch.PLUS)
        for spec_b, wf_b in ((1, Fraction(3, 2)), (Fraction(1, 2), 1), (2, 1)):
            vspec = potential_spec(spec_b, unit_freqs, label, energy)
            wf = wavefunction_spec(wf_b, unit_freqs, label, phi)
            with pytest.raises(ValueError, match="not -2 \\+ i/b"):
                zero_mode_residual(vspec, wf, 0.0)
        # lambda != 0 needs v^(2b) to be a power of v
        third = Fraction(1, 3)
        vspec = potential_spec(third, unit_freqs, label, energy)
        wf = wavefunction_spec(third, unit_freqs, label, phi)
        with pytest.raises(ValueError, match="integer 2b"):
            zero_mode_residual(vspec, wf, 1.0)

    def test_cli_exits_1_off_ladder(self, capsys, monkeypatch):
        def wrong_b(b, freqs, label, energies, branch):
            specs = [potential_spec(1, freqs, label, e, branch) for e in energies]
            return specs, np.zeros(len(specs))

        monkeypatch.setattr(certify, "zero_mode_potentials", wrong_b)
        code = cli_main(["verify", "--l", "1", "--m", "1", "--b", "3/2", "--no-oracle"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "not -2 + i/b" in captured.err


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worked_examples_script(capsys):
    module = load_script("certify_worked_examples")
    assert module.main() == 0
    out = capsys.readouterr().out.splitlines()
    # 5 eigenpairs x 2 branches x 4 exponents, between header and footer
    assert len(out) == 2 + 40 + 2
    assert out[-1] == "all checks passed"


def test_export_figure_data_script(tmp_path, monkeypatch):
    module = load_script("export_figure_data")
    monkeypatch.setattr(sys, "argv", ["export_figure_data.py", str(tmp_path)])
    assert module.main() == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(f"{cfg[0]}.csv" for cfg in module.CONFIGS)
    assert len(names) == 14
    for name in names:
        rows = [
            line.split(",")
            for line in (tmp_path / name).read_text().splitlines()
            if not line.startswith("#")
        ]
        assert rows[0] == ["x", "V", "chi", "prob"]
        data = np.array([[float(v) for v in row[:2]] for row in rows[1:]])
        assert data.shape == (1000, 2)
        assert np.all(np.isfinite(data))
