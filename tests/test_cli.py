import json
import math
import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import triqes
import triqes.certify
import triqes.fdoracle
from triqes import (
    Branch,
    ModeFrequencies,
    SubspaceLabel,
    build_hamiltonian,
    eig_sym,
    suggest_domain,
    zero_mode_potentials,
)
from triqes.certify import STAGES, Certificate
from triqes.cli import _b2_zero_search, _json_float, _round15, _sweep_text, main

from conftest import frequencies, labels


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_w11_golden(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--l", "1", "--m", "1", "--w", "1,1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["eigenvalues"] == pytest.approx(
            [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2], rel=1e-14
        )
        assert payload["basis"] == [[0, 1, 1], [1, 0, 0]]
        assert payload["manifest"]["command"] == "spectrum"

    def test_w32_golden(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--l", "3", "--m", "2", "--w", "1,1,1")
        payload = json.loads(out)
        assert payload["eigenvalues"] == pytest.approx(
            [0.77833, 3.81763, 7.40405], abs=1e-5
        )

    def test_vacuum(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--l", "0", "--m", "0", "--w", "1,1,1")
        payload = json.loads(out)
        assert payload["eigenvalues"] == [0.0]

    def test_bad_w_flag(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--l", "1", "--m", "1", "--w", "1,2")
        assert code == 2

    def test_negative_label(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--l", "-1", "--m", "0")
        assert code == 2

    def test_label_over_cap(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--l", "40", "--m", "30")
        assert code == 2
        assert "--l/--m" in err

    def test_nonfinite_w_flag(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--l", "1", "--m", "1", "--w=inf,1,1")
        assert code == 2

    def test_numerical_failure_exits_1(self, capsys):
        # valid arguments whose matrix overflows: a numerical failure
        code, _, err = run_cli(
            capsys, "spectrum", "--l", "1", "--m", "1", "--w=1e308,1e308,1e308"
        )
        assert code == 1
        assert err.startswith("error: ")

    def test_overflow_to_nan_exits_1(self, capsys):
        # inf - inf on the diagonal: a nan matrix, rejected by the eigensolver
        code, _, err = run_cli(
            capsys, "spectrum", "--l", "4", "--m", "4", "--w=1e308,-1e308,0"
        )
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_frobenius_norm_overflow_exits_1(self, capsys, command):
        # finite entries whose squares overflow: ||H||_F is inf, and a
        # residual bound of 1e-10 * inf would check nothing
        code, out, err = run_cli(capsys, command, "--l", "2", "--m", "3", "--w=1e200,0,0")
        assert code == 1
        assert out == ""
        assert err == "error: ||H||_F is not finite: it overflows a double\n"

    def test_assertion_exits_1(self, capsys, monkeypatch):
        import triqes.cli

        def broken(*args, **kwargs):
            raise AssertionError

        monkeypatch.setattr(triqes.cli, "eig_sym", broken)
        code, _, err = run_cli(capsys, "spectrum", "--l", "1", "--m", "1")
        assert code == 1
        assert "AssertionError" in err


class TestBasis:
    def test_basis(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--l", "3", "--m", "2")
        payload = json.loads(out)
        assert payload["basis"] == [[0, 3, 2], [1, 2, 1], [2, 1, 0]]

    def test_w_rejected(self, capsys):
        # the basis does not depend on the frequencies: --w is an unknown flag
        with pytest.raises(SystemExit) as exc:
            main(["basis", "--l", "3", "--m", "2", "--w", "1,1,1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --w" in capsys.readouterr().err


class TestPotentialCurve:
    def test_csv_schema(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "potential", "--l", "1", "--m", "1", "--w", "1,1,1",
            "--b", "1", "--p", "1", "--branch", "plus",
            "--xmin", "0.1", "--xmax", "3.0", "--points", "50",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("# manifest ")
        manifest = json.loads(lines[0][len("# manifest "):])
        assert manifest["params"]["b"] == "1"
        assert lines[1] == "x,V,chi,prob"
        rows = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[2:]])
        assert rows.shape == (50, 4)
        assert np.all(np.isfinite(rows))
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert rows[:, 3] == pytest.approx(rows[:, 2] ** 2, rel=1e-12, abs=1e-300)

    def test_zero_points_header_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--l", "1", "--m", "1", "--points", "0",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "x,V,chi,prob"
        assert len(lines) == 2

    def test_energy_index_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "potential", "--l", "1", "--m", "1", "--p", "3",
        )
        assert code == 2

    def test_energy_index_zero(self, capsys):
        code, _, err = run_cli(
            capsys, "potential", "--l", "1", "--m", "1", "--p", "0",
        )
        assert code == 2
        assert "--p" in err

    def test_negative_points(self, capsys):
        code, _, _ = run_cli(
            capsys, "potential", "--l", "1", "--m", "1", "--points", "-1",
        )
        assert code == 2

    def test_shifted_prints_epsilon(self, capsys):
        code, out, err = run_cli(
            capsys, "potential", "--l", "1", "--m", "1", "--b", "1/2",
            "--p", "1", "--shifted", "--points", "10", "--xmin", "0.5",
            "--xmax", "2.0",
        )
        assert code == 0
        assert "epsilon(E)" in err
        eps = float(err.split("=")[1])
        assert eps == pytest.approx(-2 * math.sqrt(2) * (3 + math.sqrt(5)), rel=1e-12)

    def test_shifted_requires_b_half(self, capsys):
        code, _, _ = run_cli(
            capsys, "potential", "--l", "1", "--m", "1", "--b", "1",
            "--shifted", "--points", "5",
        )
        assert code == 2

    def test_unwritable_out(self, capsys):
        code, _, _ = run_cli(
            capsys, "potential", "--l", "1", "--m", "1", "--points", "5",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 1

    @pytest.mark.parametrize("xmin,xmax", [("2", "1"), ("1", "1"), ("nan", "1")])
    def test_xmax_not_above_xmin(self, capsys, xmin, xmax):
        code, out, err = run_cli(
            capsys, "potential", "--l", "1", "--m", "1", "--xmin", xmin,
            "--xmax", xmax, "--points", "3",
        )
        assert code == 2
        assert out == ""
        assert "--xmax" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--l", "1", "--m", "1", "--points", "5",
            "--format", "json", "--xmin", "0.5", "--xmax", "1.5",
        )
        payload = json.loads(out)
        assert payload["columns"] == ["x", "V", "chi", "prob"]
        assert len(payload["rows"]) == 5

    def test_reproducible_numeric_fields(self, capsys):
        args = ("potential", "--l", "2", "--m", "1", "--b", "3/2", "--p", "2",
                "--branch", "minus", "--points", "20", "--xmin", "0.3",
                "--xmax", "2.5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        rows1 = [ln for ln in out1.splitlines() if not ln.startswith("#")]
        rows2 = [ln for ln in out2.splitlines() if not ln.startswith("#")]
        assert rows1 == rows2


class TestWavefunction:
    def test_same_schema_as_potential(self, capsys):
        code, out, _ = run_cli(
            capsys, "wavefunction", "--l", "1", "--m", "1", "--points", "5",
            "--xmin", "0.5", "--xmax", "1.5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "x,V,chi,prob"
        manifest = json.loads(lines[0][len("# manifest "):])
        assert manifest["command"] == "wavefunction"


class TestVerify:
    def test_defaults_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--l", "1", "--m", "1", "--b", "1/2",
            "--no-oracle",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert all(c["bhe_operator_residual"] <= 1e-10 for c in payload["checks"])

    def test_energy_override_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--l", "1", "--m", "1", "--b", "1/2",
            "--energy-override", "1.0", "--no-oracle",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        assert any(c["bhe_operator_residual"] > 1e-3 for c in payload["checks"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_energy_override(self, capsys, value):
        code, out, err = run_cli(
            capsys, "verify", "--l", "1", "--m", "1", "--no-oracle",
            f"--energy-override={value}",
        )
        assert code == 2
        assert out == ""
        assert "--energy-override" in err

    @pytest.mark.parametrize(
        "w,b,constant",
        [
            ("1e308,-1e308,0", "2", "w1 - w2 - w3"),
            ("1e308,0,0", "2", "m (w1 - w2) + l (w1 - w3)"),
            ("1e200,0,0", "2", "rung 2 of V_b"),
            ("1,1,1", "1e-154", "rung 0 of V_b"),
        ],
    )
    def test_overflowing_constant_exits_1(self, capsys, w, b, constant):
        # each w_i is finite, but a constant of the chain overflows: the
        # chain stops there instead of certifying inf and nan (pytest turns
        # any numpy RuntimeWarning into an error)
        code, out, err = run_cli(
            capsys, "verify", "--l", "0", "--m", "3", "--b", b, "--no-oracle",
            f"--w={w}",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {constant} is not finite: it overflows a double\n"

    @pytest.mark.parametrize(
        "ell,m,energy,constant",
        [
            (2, 2, "1e308", "BHE delta"),
            (1, 1, "1e308", "BHE delta"),
            (4, 4, "1e308", "BHE delta"),
            (2, 2, "7e307", "BHE delta"),
            (1, 1, "5e307", "eps(E)"),
        ],
    )
    def test_overflowing_residual_exits_1(self, capsys, ell, m, energy, constant):
        # P and every constant before the failing one are finite, but the
        # residuals' c P phi products overflow on the way: one error line,
        # no numpy warning (pytest turns any into an error)
        code, out, err = run_cli(
            capsys, "verify", "--l", str(ell), "--m", str(m), "--no-oracle",
            "--energy-override", energy,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {constant} is not finite: it overflows a double\n"

    def test_large_b_true_eigenpairs_pass(self, capsys):
        # at b = 1e7 the zero-mode check once cancelled terms of size b^2 in
        # floats and failed both true eigenpairs (residuals 3.0e-9, 3.6e-9)
        code, out, _ = run_cli(
            capsys, "verify", "--l", "3", "--m", "1", "--b", "1e7", "--no-oracle",
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["failed"] for c in checks] == [[], []]
        assert all(c["schrodinger_residual"] <= 1e-14 for c in checks)

    @pytest.mark.parametrize("b", ["7e153", "1e154", "1.3e154"])
    def test_largest_b_true_eigenpairs_pass(self, capsys, b):
        # 4 b^2 overflows from b ~ 6.7e153 and 2 b^2 from ~9.5e153, while
        # b^2 stays finite up to ~1.34e154: rungs 2 and 1 of V_b once read
        # 0 there and both eigenpairs failed with residuals ~5.5
        code, out, _ = run_cli(
            capsys, "verify", "--l", "3", "--m", "1", "--b", b, "--no-oracle",
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["failed"] for c in checks] == [[], []]
        assert all(c["schrodinger_residual"] <= 1.4e-15 for c in checks)

    def test_energy_override_fails_with_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--l", "1", "--m", "1", "--b", "1/2",
            "--energy-override", "1.0",
        )
        assert code == 1
        payload = json.loads(out)
        assert not any(c["oracle_hit"] for c in payload["checks"])

    def test_residual_at_roundoff_floor_passes(self, capsys):
        # on the grid this residual sits below the rounding floor, where the
        # refinement order (~3.0) is noise; the ladder link has no
        # order to estimate
        code, out, _ = run_cli(
            capsys, "verify", "--l", "0", "--m", "4", "--b", "3/2",
            "--branch", "minus", "--w=2,0.5,-1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"][0]["schrodinger_residual"] <= 1e-10

    def test_oracle_grid_recorded(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--l", "1", "--m", "1", "--b", "1/2",
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        vspecs, lams = zero_mode_potentials(
            Fraction(1, 2), ModeFrequencies(1, 1, 1), SubspaceLabel(1, 1),
            [c["energy"] for c in checks],
        )
        for c, vspec, lam in zip(checks, vspecs, lams.tolist()):
            # 2000 nodes uniform in ln x on [1e-4, x_max]; oracle_h is that step
            x_max = suggest_domain(vspec, lam)
            assert c["oracle_points"] == 2000
            assert c["oracle_h"] == pytest.approx(math.log(x_max / 1e-4) / 2001, rel=1e-12)
            assert c["oracle_solves"] >= 2

    def test_limit_circle_zero_mode_confirmed(self, capsys):
        # defect (a): on the uniform grid the oracle missed this zero mode at
        # its limit-circle left end (Richardson gap 1.06e-2)
        code, out, _ = run_cli(
            capsys, "verify", "--l", "0", "--m", "0", "--b", "2",
            "--branch", "minus", "--w=-1.5,0.8,1.9",
        )
        assert code == 0
        for c in json.loads(out)["checks"]:
            assert c["oracle_hit"]
            assert c["oracle_richardson_gap"] <= 1e-6

    def test_vacuum_trivial(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--l", "0", "--m", "0", "--b", "1", "--no-oracle",
        )
        assert code == 0

    def test_with_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--l", "1", "--m", "1", "--b", "1/2",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(c["oracle_hit"] for c in payload["checks"])

    def test_b2_zero_search(self, capsys):
        # W(1,1), w = (1,1,1): E = 1 - w3 / 2 and (1 + w3 - E)(1 - E) = 1
        # give w3 = +-2/sqrt(3), the smaller one for the larger E
        code, out, _ = run_cli(
            capsys, "verify", "--l", "1", "--m", "1", "--b", "2",
            "--no-oracle", "--find-b2-zero",
        )
        assert code == 0
        entries = json.loads(out)["b2_zero_search"]
        assert [e["p"] for e in entries] == [2, 1]
        roots = [e["w3_zeroing_term"] for e in entries]
        assert roots == pytest.approx([2 / math.sqrt(3), -2 / math.sqrt(3)], rel=1e-14)
        for entry in entries:
            assert abs(entry["residual_coefficient"]) < 1e-8

    def test_b2_zero_beyond_old_window(self, capsys):
        # the p = 4 root lies more than 10 above w3; every level has its root
        code, out, _ = run_cli(
            capsys, "verify", "--l", "3", "--m", "3", "--b", "2", "--no-oracle",
            "--find-b2-zero", "--w=2.629,-2.378,-2.794",
        )
        assert code == 0
        entries = json.loads(out)["b2_zero_search"]
        assert [e["p"] for e in entries] == [4, 3, 2, 1]
        assert entries[0]["w3_zeroing_term"] == pytest.approx(7.56278612733246, rel=1e-12)
        for e in entries:
            assert abs(e["residual_coefficient"]) <= 1e-12

    @given(frequencies(), labels())
    def test_b2_zero_every_level(self, freqs, label):
        per_branch = [_b2_zero_search(freqs, label, br) for br in Branch]
        entries = per_branch[0]
        assert [e["p"] for e in entries] == list(range(label.dim, 0, -1))
        roots = [e["w3_zeroing_term"] for e in entries]
        assert all(math.isfinite(r) for r in roots)
        assert roots == sorted(roots, reverse=True)  # ascending in p
        for other in per_branch[1:]:
            assert [e["w3_zeroing_term"] for e in other] == roots
        for branch_entries in per_branch:
            for e in branch_entries:
                at_root = ModeFrequencies(freqs.w1, freqs.w2, e["w3_zeroing_term"])
                spec = eig_sym(build_hamiltonian(at_root, label))
                energy = spec.eigenvalues[label.dim - e["p"]]
                assert abs(e["residual_coefficient"]) <= 1e-12 * max(1.0, abs(energy))

    def test_manifest_records_flags(self, capsys):
        # the manifest alone tells a --no-oracle run from an oracle run,
        # and records b in its reduced form
        for flags in ([], ["--no-oracle", "--find-b2-zero"]):
            code, out, _ = run_cli(
                capsys, "verify", "--l", "1", "--m", "1", "--b", "4/2", *flags
            )
            assert code == 0
            params = json.loads(out)["manifest"]["params"]
            assert params["no_oracle"] is bool(flags)
            assert params["find_b2_zero"] is bool(flags)
            assert params["b"] == "2"


class TestSweep:
    def test_tiny_sweep(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--lmax", "1", "--mmax", "1", "--b", "1,1/2",
            "--no-oracle",
        )
        assert code == 0
        payload = json.loads(out)
        # 4 subspaces x 2 exponents x 2 branches
        assert payload["count"] == 16
        assert payload["pass"] is True

    def test_oracle_boundary_overflow_exits_1(self, capsys):
        # the rungs pass, but the oracle's left-boundary Frobenius series
        # overflows to a nan ratio; the run names that series instead of
        # handing the matrix to scipy
        code, out, err = run_cli(
            capsys, "sweep", "--lmax", "0", "--mmax", "0", "--w=0,-1e20,-3e80",
            "--b", "1",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: left-boundary series ratio y(x_min)/y(x) is not finite:"
            " it overflows a double\n"
        )

    def test_repeated_b_certified_once(self, capsys):
        # 1 and 2/2 are the same exponent: one tuple per (l, m, b, branch)
        code, out, _ = run_cli(
            capsys, "sweep", "--lmax", "0", "--mmax", "0", "--b", "1,2/2",
            "--no-oracle",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        keys = [(t["l"], t["m"], t["b"], t["branch"]) for t in payload["tuples"]]
        assert sorted(keys) == [(0, 0, "1", "minus"), (0, 0, "1", "plus")]

    @pytest.mark.parametrize("flags,b", [(["--b", "2/2,1"], "1"), ([], "1/2,1")])
    def test_manifest_records_resolved_b(self, capsys, flags, b):
        # the manifest records the reduced, de-duplicated, sorted b list
        # that the tuples use, not the text as typed
        code, out, _ = run_cli(
            capsys, "sweep", "--lmax", "0", "--mmax", "0", "--no-oracle", *flags
        )
        assert code == 0
        assert json.loads(out)["manifest"]["params"]["b"] == b

    def test_bad_b_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--lmax", "0", "--mmax", "0", "--b", "0")
        assert code == 2

    def test_bounds_validation(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--lmax", "25", "--mmax", "1")
        assert code == 2

    def test_manifest_records_no_oracle(self, capsys):
        for flags in ([], ["--no-oracle"]):
            code, out, _ = run_cli(
                capsys, "sweep", "--lmax", "0", "--mmax", "0", "--b", "1", *flags
            )
            assert code == 0
            assert json.loads(out)["manifest"]["params"]["no_oracle"] is bool(flags)

    def test_worst_stays_numeric(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--lmax", "1", "--mmax", "1", "--b", "1/2",
            "--branch", "plus",
        )
        assert code == 0
        for t in json.loads(out)["tuples"]:
            assert set(t["worst"]) == {
                "bhe_operator_residual", "bhe_standard_residual",
                "schrodinger_residual", "oracle_richardson_gap",
            }
            assert all(isinstance(v, float) for v in t["worst"].values())

    def test_fail_line_names_stage(self, capsys, monkeypatch):
        # an oracle grid of 100 nodes under-resolves this zero mode, which
        # the exact checks pass
        monkeypatch.setattr(triqes.fdoracle, "ORACLE_POINTS", 100)
        code, out, err = run_cli(
            capsys, "sweep", "--lmax", "0", "--mmax", "0", "--b", "1/2",
            "--branch", "plus", "--w=-1.5,0.8,1.9",
        )
        assert code == 1
        assert json.loads(out)["tuples"][0]["failed"] == ["oracle"]
        assert err.splitlines() == ["l=0 m=0 b=1/2  plus: FAIL (oracle)"]

    def test_no_oracle_wide_sweep_passes(self, capsys):
        # defect (c): the grid residual's refinement order failed 11 of these
        # tuples just above the rounding floor; the exact check passes all
        code, out, _ = run_cli(
            capsys, "sweep", "--no-oracle", "--lmax", "6", "--mmax", "6",
            "--b", "1,1/2,3/2,2", "--w=-1.5,0.8,1.9",
        )
        payload = json.loads(out)
        assert payload["count"] == 392
        assert [t for t in payload["tuples"] if not t["pass"]] == []
        assert code == 0

    def test_large_b_sweep_passes(self, capsys):
        # the O(b^2) cancellation of the zero-mode check once failed 4 of
        # these 8 tuples on "schrodinger"
        code, out, _ = run_cli(
            capsys, "sweep", "--no-oracle", "--lmax", "1", "--mmax", "1", "--b", "1e6",
        )
        payload = json.loads(out)
        assert payload["count"] == 8
        assert [t for t in payload["tuples"] if not t["pass"]] == []
        assert code == 0

    def test_ladder_link_fails_an_unrepresentable_ladder(self, capsys):
        # the link is not vacuous: at b = 1/3, b^2 = 1/9 is inexact, and
        # A ~ 4.2e80 makes the rung-3 round trip b^2 (A / b^2) miss A by
        # 5.3e64, the miss that the v^3 row of the zero mode's P carries
        # too; both BHE residuals pass
        code, out, err = run_cli(
            capsys, "sweep", "--lmax", "0", "--mmax", "0", "--w=0,-1e20,-3e80",
            "--b", "1/3", "--no-oracle",
        )
        assert code == 1
        tuples = json.loads(out)["tuples"]
        assert [t["failed"] for t in tuples] == [["schrodinger"]] * 2
        assert [t["worst"]["schrodinger_residual"] for t in tuples] == [
            5.26561458342786e64
        ] * 2
        assert len(err.splitlines()) == 2

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        target = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return target(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    @classmethod
    def count_eigensolves(cls, monkeypatch):
        return cls.count_calls(monkeypatch, triqes.fdoracle, "eigh_tridiagonal")

    def test_one_pipeline_call_per_sweep(self, capsys, monkeypatch):
        # every label, both branches and every b of a sweep share one
        # certify_subspace call; its ladder stage is one link call over
        # the eigenpairs of W(0..2, 0..2), whatever their dimensions
        pipeline = self.count_calls(monkeypatch, triqes.cli, "certify_subspace")
        kernel = self.count_calls(monkeypatch, triqes.certify, "ladder_links")
        code, out, _ = run_cli(
            capsys, "sweep", "--no-oracle", "--lmax", "2", "--mmax", "2",
            "--b", "1,1/2,3/2,2",
        )
        assert code == 0
        assert json.loads(out)["count"] == 9 * 4 * 2
        assert (len(pipeline), len(kernel)) == (1, 1)

    def test_one_eigensolve_per_dimension(self, capsys, monkeypatch):
        # the 49 labels of W(0..6, 0..6) fall into dimensions 1..7, each
        # solved as one stack
        calls = self.count_calls(monkeypatch, np.linalg, "eigh")
        code, out, _ = run_cli(
            capsys, "sweep", "--no-oracle", "--lmax", "6", "--mmax", "6",
        )
        assert code == 0
        assert json.loads(out)["count"] == 49 * 2 * 2
        assert len(calls) == 7

    def test_failing_label_reported_in_sweep_order(self, capsys):
        # at w = (0, 1e308, 1e308) W(0, 1) is the first label to fail, on
        # ||H||_F, while W(0, 2) of the same dimension is not finite at all
        code, out, err = run_cli(
            capsys, "sweep", "--no-oracle", "--lmax", "2", "--mmax", "2",
            "--w=0,1e308,1e308",
        )
        assert code == 1
        assert out == ""
        assert err == "error: ||H||_F is not finite: it overflows a double\n"

    def test_oracle_memo_lives_for_one_sweep(self, capsys, monkeypatch):
        # a memo that outlived the command would answer the second sweep
        # without a single eigensolve
        calls = self.count_eigensolves(monkeypatch)
        argv = ["sweep", "--lmax", "1", "--mmax", "1", "--b", "1/2", "--branch", "plus"]
        counts = []
        for _ in range(2):
            calls.clear()
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    def test_oracle_memo_solves_each_problem_once(self, capsys, monkeypatch):
        # W(l, m) and W(m, l) pose the same oracle problems; each distinct
        # (potential, lambda) costs one coarse and one seeded fine solve
        calls = self.count_eigensolves(monkeypatch)
        problems = []
        contains = triqes.certify.contains_eigenvalue

        def recording(spec, config, lam):
            problems.append((spec, lam))
            return contains(spec, config, lam)

        monkeypatch.setattr(triqes.certify, "contains_eigenvalue", recording)
        code, out, _ = run_cli(
            capsys, "sweep", "--lmax", "2", "--mmax", "2", "--b", "3/2,2",
            "--w=2,0.5,-1",
        )
        assert code == 0
        assert json.loads(out)["count"] == 36
        assert len(set(problems)) == len(problems)
        assert len(calls) <= 2 * len(problems)

    def test_oracle_eigensolve_count(self, capsys, monkeypatch):
        # the doubled-grid window centred at the Richardson prediction holds
        # every true level at once: at most the 162 eigensolves a window
        # centred on the coarse level takes (the sweep of the test above
        # stays at two per problem, 80)
        calls = self.count_eigensolves(monkeypatch)
        code, _, _ = run_cli(capsys, "sweep", "--lmax", "3", "--mmax", "3", "--b", "1,1/2")
        assert code == 0
        assert len(calls) <= 162

    def test_oracle_sweep_matches_verify(self, capsys):
        # the memo only skips repeated problems: every tuple's verdict and
        # worst oracle gap are those of verify on that tuple alone
        code, out, _ = run_cli(
            capsys, "sweep", "--lmax", "1", "--mmax", "2", "--b", "1/2,2",
        )
        tuples = json.loads(out)["tuples"]
        assert len(tuples) == 24
        for t in tuples:
            v_code, v_out, _ = run_cli(
                capsys, "verify", "--l", str(t["l"]), "--m", str(t["m"]),
                "--b", t["b"], "--branch", t["branch"],
            )
            checks = json.loads(v_out)["checks"]
            assert json.loads(v_out)["pass"] is t["pass"], t
            assert t["failed"] == [
                s for s in STAGES if any(s in c["failed"] for c in checks)
            ], t
            assert t["worst"]["oracle_richardson_gap"] == max(
                c["oracle_richardson_gap"] for c in checks
            ), t
        assert code == (0 if all(t["pass"] for t in tuples) else 1)

    def test_pass_matches_verify(self, capsys):
        # one pass rule: sweep shares the BHE stage across b and verify
        # does not, yet every sweep tuple agrees with verify on that tuple,
        # including the roundoff-floor pair l=0, m=4, minus at b=3/2
        code, out, _ = run_cli(
            capsys, "sweep", "--lmax", "1", "--mmax", "4", "--b", "1,1/2,3/2,2",
            "--w=2,0.5,-1", "--no-oracle",
        )
        tuples = json.loads(out)["tuples"]
        assert len(tuples) == 80
        assert any(
            (t["l"], t["m"], t["b"], t["branch"]) == (0, 4, "3/2", "minus")
            for t in tuples
        )
        for t in tuples:
            v_code, v_out, _ = run_cli(
                capsys, "verify", "--l", str(t["l"]), "--m", str(t["m"]),
                "--b", t["b"], "--branch", t["branch"], "--w=2,0.5,-1", "--no-oracle",
            )
            verified = json.loads(v_out)
            checks = verified["checks"]
            assert verified["pass"] is t["pass"], t
            assert v_code == (0 if t["pass"] else 1)
            assert t["worst"] == {k: max(c[k] for c in checks) for k in t["worst"]}, t
            assert set(t["worst"]) == {
                "bhe_operator_residual", "bhe_standard_residual", "schrodinger_residual",
            }
            assert t["failed"] == [
                s for s in STAGES if any(s in c["failed"] for c in checks)
            ], t
        assert code == (0 if all(t["pass"] for t in tuples) else 1)


CURVE_PARAMS = [
    "l", "m", "w", "b", "branch", "p", "xmin", "xmax", "points", "shifted",
    "energy", "lambda",
]


@pytest.mark.parametrize(
    "argv,keys",
    [
        (["spectrum", "--l", "1", "--m", "1"], ["l", "m", "w"]),
        (["basis", "--l", "1", "--m", "1"], ["l", "m"]),
        (["potential", "--l", "1", "--m", "1", "--format", "json"], CURVE_PARAMS),
        (["wavefunction", "--l", "1", "--m", "1", "--format", "json"], CURVE_PARAMS),
        (
            ["verify", "--l", "1", "--m", "1", "--no-oracle"],
            ["l", "m", "w", "b", "branch", "energy_override", "no_oracle",
             "find_b2_zero"],
        ),
        (
            ["sweep", "--lmax", "0", "--mmax", "0", "--no-oracle"],
            ["lmax", "mmax", "w", "b", "branch", "no_oracle"],
        ),
    ],
    ids=["spectrum", "basis", "potential", "wavefunction", "verify", "sweep"],
)
def test_manifest_shape(capsys, tmp_path, argv, keys):
    # every argument but --out and --format, in parser order, under the
    # command name as typed
    out_file = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0
    assert out == ""
    manifest = json.loads(out_file.read_text())["manifest"]
    assert list(manifest) == ["command", "params", "version", "timestamp"]
    assert manifest["command"] == argv[0]
    assert list(manifest["params"]) == keys


@pytest.mark.parametrize(
    "command,message",
    [
        (["verify"], "potential is not finite on the grid"),
        (["potential"], "non-finite values in curve output"),
    ],
    ids=["verify", "potential"],
)
def test_tiny_b_fails_without_numpy_warnings(capsys, command, message):
    # b = 1e-150 is accepted, but c_i ~ 1/b^2 overflows once multiplied by
    # x^(-2 + i/b): the command says so and prints nothing else (a leaked
    # numpy RuntimeWarning would also raise here, warnings being errors)
    code, out, err = run_cli(capsys, *command, "--l", "1", "--m", "1", "--b", "1e-150")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("b", ["1e9", "1e10", "1e12"])
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--l", "3", "--m", "1"],
        ["verify", "--l", "2", "--m", "2"],
        ["sweep", "--lmax", "1", "--mmax", "1"],
    ],
    ids=["verify-3-1", "verify-2-2", "sweep"],
)
def test_huge_b_degenerate_series_fails_cleanly(capsys, command, b):
    # at s = 1/b ~ 1e-10 the left-boundary series' denominator
    # (p + j s)(p + j s - 1) - p(p - 1) cancels to exactly 0: the oracle
    # says so in one line where it once raised ZeroDivisionError
    code, out, err = run_cli(capsys, *command, "--b", b)
    assert code == 1
    assert out == ""
    assert err == (
        "error: degenerate left-boundary series: the denominator of term 1"
        " rounds to 0 at this b\n"
    )


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--b", "1e-400", "out of range"),
        ("--b", "1e-200", "out of range"),
        ("--b", "1e400", "out of range"),
        ("--b", "abc", "cannot parse --b 'abc'"),
        ("--b", "1/0", "cannot parse --b '1/0'"),
        ("--b", "0", "bad --b '0': transformation exponent b must be > 0"),
        ("--w", "1,x,1", "cannot parse --w '1,x,1'"),
    ],
    ids=["1e-400", "1e-200", "1e400", "abc", "1/0", "0", "w=1,x,1"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--l", "1", "--m", "1", "--no-oracle"],
        ["sweep", "--lmax", "1", "--mmax", "1", "--no-oracle"],
        ["potential", "--l", "1", "--m", "1"],
    ],
    ids=["verify", "sweep", "potential"],
)
def test_b_outside_double_range_is_usage_error(capsys, command, flag, value, message):
    # every potential coefficient divides by b^2: a b whose square
    # underflows or overflows a double is a usage error, not a traceback,
    # as are a b <= 0 and a --b or --w that does not parse
    code, out, err = run_cli(capsys, *command, flag, value)
    assert code == 2
    assert out == ""
    assert message in err


SCIPY_PROBE = """
import os, sys
out = sys.argv[1]
import triqes, triqes.cli
assert "scipy" not in sys.modules, "import triqes"
no_solve = [
    ["spectrum", "--l", "1", "--m", "1"],
    ["basis", "--l", "1", "--m", "1"],
    ["potential", "--l", "1", "--m", "1"],
    ["verify", "--l", "2", "--m", "3", "--b", "2", "--no-oracle", "--find-b2-zero"],
    ["sweep", "--lmax", "1", "--mmax", "1", "--no-oracle"],
]
for argv in no_solve:
    assert triqes.cli.main(argv + ["--out", os.path.join(out, argv[0])]) == 0, argv
    assert "scipy" not in sys.modules, argv
rc = triqes.cli.main(["verify", "--l", "1", "--m", "1", "--out", os.path.join(out, "oracle")])
assert rc == 0, rc
assert "scipy.linalg" not in sys.modules
assert "scipy.linalg._flapack" in sys.modules
flapack = sys.modules["scipy.linalg._flapack"]
import scipy.linalg.lapack
assert sys.modules["scipy.linalg._flapack"] is flapack
assert scipy.linalg.lapack.dstebz is flapack.dstebz
"""

# scipy.linalg first: the oracle reuses the LAPACK module it loaded
SCIPY_FIRST_PROBE = """
import os, sys
import scipy.linalg
flapack = sys.modules["scipy.linalg._flapack"]
dstebz = flapack.dstebz
calls = []

def counting(*args):
    calls.append(1)
    return dstebz(*args)

flapack.dstebz = counting
import triqes.cli
rc = triqes.cli.main(["verify", "--l", "1", "--m", "1", "--out", os.path.join(sys.argv[1], "oracle")])
assert rc == 0, rc
assert calls
assert sys.modules["scipy.linalg._flapack"] is flapack
assert scipy.linalg.lapack.dstebz is dstebz
"""


def run_probe(probe, tmp_path):
    # a fresh interpreter, since pytest plugins may import scipy themselves
    src = str(Path(triqes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_scipy_loads_only_with_the_oracle(tmp_path):
    # only an fd solve loads scipy, and then only its LAPACK extension, not
    # the scipy.linalg package (the b = 2 zero search is one eigvalsh, with
    # no scipy.optimize); a later scipy.linalg reuses that extension
    run_probe(SCIPY_PROBE, tmp_path)


def test_oracle_reuses_a_loaded_scipy_linalg(tmp_path):
    run_probe(SCIPY_FIRST_PROBE, tmp_path)


WORST_KEYS = ["bhe_operator_residual", "bhe_standard_residual", "schrodinger_residual"]
SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.5e-310, 1e308,
    1.7976931348623157e308, 1.2345678901234567e-16, 0.1,
]


def sweep_records(ell, m, b_values, branches, cert):
    """The sweep tuples of one label in (b, branch) order as dicts: each
    one's verdict, the stages any eigenpair failed and the worst value of
    each residual; the reference the template writer is checked against."""
    worst = {k: getattr(cert, k).max(axis=2).tolist() for k in WORST_KEYS}
    if cert.oracle is not None:
        worst["oracle_richardson_gap"] = [
            [max(c.richardson_gap for c in cols) for cols in per_b]
            for per_b in cert.oracle
        ]
    failed = cert.failed.any(axis=3).tolist()
    for j, bfrac in enumerate(b_values):
        for i, branch in enumerate(branches):
            stages = [s for s, f in zip(STAGES, failed) if f[i][j]]
            yield {
                "l": ell, "m": m, "b": str(bfrac), "branch": branch.value,
                "pass": not stages,
                "failed": stages,
                "worst": {k: v[i][j] for k, v in worst.items()},
            }


@st.composite
def sweep_certificates(draw):
    """A manifest, b values, branches and (label, `Certificate`) pairs whose
    residuals, oracle gaps and failed stages are drawn freely."""
    oracle = draw(st.booleans())
    branches = draw(st.sampled_from([list(Branch), [Branch.PLUS], [Branch.MINUS]]))
    b_values = draw(st.lists(
        st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2),
                         Fraction(7 * 10**153)]),
        min_size=1, max_size=3, unique=True,
    ))
    values = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    certified = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        shape = (len(branches), len(b_values), draw(st.integers(1, 3)))

        def floats():
            return np.array(draw(st.lists(
                values, min_size=math.prod(shape), max_size=math.prod(shape)
            ))).reshape(shape)

        gaps = None
        if oracle:
            gaps = np.empty(shape, dtype=object)
            for idx, gap in zip(np.ndindex(shape), floats().ravel().tolist()):
                gaps[idx] = SimpleNamespace(richardson_gap=gap)
        failed = np.array(draw(st.lists(
            st.booleans(), min_size=3 * math.prod(shape), max_size=3 * math.prod(shape)
        ))).reshape(3, *shape)
        cert = Certificate(
            bhe_operator_residual=floats(),
            bhe_standard_residual=floats(),
            potential=np.zeros((*shape, 5)),
            lam=np.zeros(shape),
            schrodinger_residual=floats(),
            oracle=gaps,
            failed=failed,
        )
        label = SubspaceLabel(draw(st.integers(0, 20)), draw(st.integers(0, 20)))
        certified.append((label, cert))
    params = {
        "lmax": 20, "mmax": 20, "w": draw(st.sampled_from(["1,1,1", "2,0.5,-1"])),
        "b": ",".join(map(str, b_values)),
        "branch": branches[0].value if len(branches) == 1 else None,
        "no_oracle": not oracle,
    }
    manifest = {
        "command": "sweep", "params": params, "version": triqes.__version__,
        "timestamp": "2026-10-19T00:00:00+00:00",
    }
    return manifest, b_values, branches, certified


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(sweep_certificates())
def test_sweep_writer_matches_json(sweep):
    # the template writer is json's indent=2 layout of the rounded payload
    # of per-tuple dicts, NaN, Infinity and -0.0 included, and its status
    # lines and verdict are those of the same dicts
    manifest, b_values, branches, certified = sweep
    tuples = [
        t for label, cert in certified
        for t in sweep_records(label.ell, label.m, b_values, branches, cert)
    ]
    all_pass = all(t["pass"] for t in tuples)
    payload = {
        "manifest": manifest, "tuples": tuples, "count": len(tuples), "pass": all_pass,
    }
    status = "".join(
        f"l={t['l']} m={t['m']} b={t['b']} {t['branch']:>5}: "
        + ("pass" if t["pass"] else f"FAIL ({', '.join(t['failed'])})") + "\n"
        for t in tuples
    )
    assert _sweep_text(manifest, certified, b_values, branches) == (
        json.dumps(_round15(payload), indent=2) + "\n", status, all_pass
    )


def _within_ulps(x, steps=40):
    """x and the `steps` doubles on each side of it, with both signs."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out + [-y for y in out]


# where %.15g and repr switch to an exponent or to fewer digits: around
# 1e-5 and 1e-4, 1e15 (999999999999999.5 rounds up to it) and 1e16, and the
# normal/subnormal border
FORMAT_BORDERS = [
    y for x in (1e-5, 1e-4, 1e15, 999999999999999.5, 1e16, sys.float_info.min)
    for y in _within_ulps(x)
]


@seed(20261019)
@settings(max_examples=2000, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_json_float_matches_json_on_any_double(bits):
    # every 64-bit pattern, NaNs, infinities, zeros and subnormals included:
    # the writer's float is json's float of the 15-digit rounding
    (x,) = struct.unpack("<d", struct.pack("<Q", bits))
    assert _json_float(x) == json.dumps(_round15(x))


def test_json_float_matches_json_at_format_borders():
    for x in FORMAT_BORDERS:
        assert _json_float(x) == json.dumps(_round15(x)), x


def test_sweep_writer_on_a_failing_sweep(capsys, monkeypatch):
    # an oracle grid of 100 nodes under-resolves some of these zero modes:
    # the output of a failing oracle sweep re-encodes to itself
    monkeypatch.setattr(triqes.fdoracle, "ORACLE_POINTS", 100)
    code, out, _ = run_cli(
        capsys, "sweep", "--lmax", "1", "--mmax", "1", "--b", "1/2,1",
        "--w=-1.5,0.8,1.9",
    )
    payload = json.loads(out)
    assert code == 1
    assert ["oracle"] in [t["failed"] for t in payload["tuples"]]
    assert out == json.dumps(payload, indent=2) + "\n"
