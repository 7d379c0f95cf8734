import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from triqes import (
    Branch,
    SubspaceLabel,
    build_hamiltonian,
    certify_eigenpair,
    eig_sym,
    epsilon_of,
    potential_spec,
    split_sextic,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def eigenpair(freqs, label, i):
    return eig_sym(build_hamiltonian(freqs, label)).pair(i)


class TestCertifyEigenpair:
    def test_sextic_at_b_half(self, unit_freqs):
        label = SubspaceLabel(3, 2)
        energy, vec = eigenpair(unit_freqs, label, 1)
        for branch in Branch:
            cert = certify_eigenpair(unit_freqs, label, energy, vec, "1/2", branch,
                                     oracle=False)
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

    def test_oracle_hit(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        energy, vec = eigenpair(unit_freqs, label, 1)
        cert = certify_eigenpair(unit_freqs, label, energy, vec, Fraction(1, 2),
                                 oracle_points=5000)
        assert cert.oracle.hit and cert.passed
        assert cert.oracle.n_points == 5000


def test_worked_examples_script(capsys):
    spec = importlib.util.spec_from_file_location(
        "certify_worked_examples", SCRIPTS / "certify_worked_examples.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    out = capsys.readouterr().out.splitlines()
    # 5 eigenpairs x 2 branches x 4 exponents, between header and footer
    assert len(out) == 2 + 40 + 2
    assert out[-1] == "all checks passed"
