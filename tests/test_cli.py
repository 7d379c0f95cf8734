import json
import math

import numpy as np
import pytest

from triqes.cli import main


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
        # refinement order (~3.0) is noise; the exact zero-mode check has no
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
        for c in json.loads(out)["checks"]:
            assert 4000 <= c["oracle_points"] <= 24000
            assert 0.0 < c["oracle_h"] <= 2.5e-3
            assert c["oracle_solves"] >= 2

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
        code, out, _ = run_cli(
            capsys, "verify", "--l", "1", "--m", "1", "--b", "2",
            "--no-oracle", "--find-b2-zero",
        )
        assert code == 0
        payload = json.loads(out)
        assert "b2_zero_search" in payload
        for entry in payload["b2_zero_search"]:
            if entry["w3_zeroing_term"] is not None:
                assert abs(entry["residual_coefficient"]) < 1e-8


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

    def test_bad_b_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--lmax", "0", "--mmax", "0", "--b", "0")
        assert code == 2

    def test_bounds_validation(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--lmax", "25", "--mmax", "1")
        assert code == 2

    def test_oracle_points_validation(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--lmax", "0", "--mmax", "0", "--oracle-points", "50",
        )
        assert code == 2

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

    def test_fail_line_names_stage(self, capsys):
        # defect (a): the fd oracle misses this zero mode at a limit-circle
        # left end while the exact checks pass
        code, out, err = run_cli(
            capsys, "sweep", "--lmax", "0", "--mmax", "0", "--b", "2",
            "--branch", "plus", "--w=2,0.5,-1",
        )
        assert code == 1
        assert json.loads(out)["tuples"][0]["failed"] == ["oracle"]
        assert err.splitlines() == ["l=0 m=0 b=2  plus: FAIL (oracle)"]

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

    def test_pass_matches_verify(self, capsys):
        # one pass rule: every sweep tuple agrees with verify on that tuple,
        # including the roundoff-floor pair l=0, m=4, minus at b=3/2
        code, out, _ = run_cli(
            capsys, "sweep", "--lmax", "1", "--mmax", "4", "--b", "3/2",
            "--w=2,0.5,-1", "--no-oracle",
        )
        tuples = json.loads(out)["tuples"]
        assert len(tuples) == 20
        assert any((t["l"], t["m"], t["branch"]) == (0, 4, "minus") for t in tuples)
        for t in tuples:
            v_code, v_out, _ = run_cli(
                capsys, "verify", "--l", str(t["l"]), "--m", str(t["m"]),
                "--b", t["b"], "--branch", t["branch"], "--w=2,0.5,-1", "--no-oracle",
            )
            verified = json.loads(v_out)
            assert verified["pass"] is t["pass"], t
            assert v_code == (0 if t["pass"] else 1)
        assert code == (0 if all(t["pass"] for t in tuples) else 1)


@pytest.mark.parametrize("b", ["1e-400", "1e-200", "1e400"])
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--l", "1", "--m", "1", "--no-oracle"],
        ["sweep", "--lmax", "1", "--mmax", "1", "--no-oracle"],
        ["potential", "--l", "1", "--m", "1"],
    ],
    ids=["verify", "sweep", "potential"],
)
def test_b_outside_double_range_is_usage_error(capsys, command, b):
    # every potential coefficient divides by b^2: a b whose square
    # underflows or overflows a double is a usage error, not a traceback
    code, out, err = run_cli(capsys, *command, "--b", b)
    assert code == 2
    assert out == ""
    assert "out of range" in err
