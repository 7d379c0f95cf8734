import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
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
