import importlib.util
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from triqes import (
    Branch,
    ModeFrequencies,
    SubspaceLabel,
    build_hamiltonian,
    certify_eigenpair,
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
        cert = certify_eigenpair(unit_freqs, label, energy, vec, Fraction(1, 2),
                                 oracle_points=5000)
        assert cert.oracle.hit and cert.passed
        assert cert.oracle.n_points == 5000


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
        def wrong_b(b, freqs, label, energy, branch):
            return potential_spec(1, freqs, label, energy, branch), 0.0

        monkeypatch.setattr(certify, "zero_mode_potential", wrong_b)
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
