import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from triqes import (
    Branch,
    LogGridConfig,
    ModeFrequencies,
    SubspaceLabel,
    build_hamiltonian,
    contains_eigenvalue,
    eig_sym,
    fd_spectrum,
    oracle_check,
    oracle_config,
    potential_specs,
    suggest_domain,
    zero_mode_potentials,
)
from triqes import fdoracle
from triqes.schroedinger import PotentialSpec, lambda_rung

from conftest import random_frequency_triples

SQRT2 = math.sqrt(2.0)
HALF = Fraction(1, 2)


def bare_spec(coeffs):
    """Hand-built ladder at b = 1: coeffs[i] multiplies x^(i - 2)."""
    return PotentialSpec(Fraction(1), coeffs)


HARMONIC = (0.0, 0.0, 0.0, 0.0, 1.0)  # x^2, levels 4n + 3 on the half line


def zero_modes(b, freqs, label, branch=Branch.PLUS):
    """(potential, lambda) of the zero mode of every eigenpair of W(l, m),
    ascending in E; at b = 1/2 every potential is Vtilde."""
    energies = eig_sym(build_hamiltonian(freqs, label)).eigenvalues
    vspecs, lams = zero_mode_potentials(b, freqs, label, energies, branch)
    return list(zip(vspecs, lams.tolist()))


def ground_potential(freqs, label):
    """V_1 at the lowest eigenvalue of W(l, m)."""
    energy = eig_sym(build_hamiltonian(freqs, label)).eigenvalues[0]
    return potential_specs(Fraction(1), freqs, label, [energy])[0]


class TestFdSpectrum:
    def test_harmonic_oscillator(self):
        # -u'' + x^2 u on the half line: levels 3, 7, 11
        spec = bare_spec(HARMONIC)
        cfg = LogGridConfig(10.0, 4000)
        vals = fd_spectrum(spec, cfg, 3)
        assert np.allclose(vals, [3.0, 7.0, 11.0], atol=1e-4)

    def test_sextic_11_example(self, unit_freqs):
        modes = zero_modes(HALF, unit_freqs, SubspaceLabel(1, 1))
        vals = fd_spectrum(modes[0][0], LogGridConfig(6.0, 8000), 4)
        for _, t_val in modes:
            assert np.min(np.abs(vals - t_val)) < 5e-2

    def test_sextic_32_example(self, unit_freqs):
        modes = zero_modes(HALF, unit_freqs, SubspaceLabel(3, 2))
        vals = fd_spectrum(modes[0][0], LogGridConfig(6.0, 8000), 5)
        for _, target in modes:
            assert np.min(np.abs(vals - target)) < 1e-3 * abs(target)

    def test_count_validation(self):
        spec = bare_spec(HARMONIC)
        cfg = LogGridConfig(5.0, 200)
        with pytest.raises(ValueError):
            fd_spectrum(spec, cfg, 201)
        with pytest.raises(ValueError):
            fd_spectrum(spec, cfg, 0)

    def test_config_validation(self):
        for x_max in (fdoracle.ORACLE_X_MIN, 0.0):
            with pytest.raises(ValueError, match="x_max must be above"):
                LogGridConfig(x_max, 500)
        with pytest.raises(ValueError, match="at least 100"):
            LogGridConfig(1.0, 50)

    def test_determinism(self):
        spec = bare_spec(HARMONIC)
        cfg = LogGridConfig(8.0, 1500)
        a = fd_spectrum(spec, cfg, 5)
        b = fd_spectrum(spec, cfg, 5)
        assert np.array_equal(a, b)

    def test_second_order_grid_convergence(self):
        spec = bare_spec(HARMONIC)
        errs = []
        for n in (500, 1001):
            vals = fd_spectrum(spec, LogGridConfig(8.0, n), 1)
            errs.append(abs(vals[0] - 3.0))
        order = math.log2(errs[0] / errs[1])
        assert 1.8 <= order <= 2.2


class TestContainsEigenvalue:
    def test_shifted_oscillator_hit(self):
        # ground state of x^2 - 3 on the half line sits exactly at 0
        spec = bare_spec((0.0, 0.0, -3.0, 0.0, 1.0))
        cfg = LogGridConfig(10.0, 3000)
        res = contains_eigenvalue(spec, cfg, 0.0)
        assert res.hit
        assert abs(res.nearest) < 1e-3

    def test_quarkonium_zero_mode_hit(self, unit_freqs):
        vspec = ground_potential(unit_freqs, SubspaceLabel(1, 1))
        res = contains_eigenvalue(vspec, oracle_config(vspec, 0.0), 0.0)
        assert res.hit

    def test_no_nearby_level(self, unit_freqs):
        vspec = ground_potential(unit_freqs, SubspaceLabel(1, 1))
        res = contains_eigenvalue(vspec, oracle_config(vspec, 0.0), 0.5)
        assert not res.hit
        assert res.gap > 1e-3

    def test_domain_robustness(self, unit_freqs):
        # enlarging a sufficient domain moves bound levels by < 1e-6
        tilde = zero_modes(HALF, unit_freqs, SubspaceLabel(3, 2))[0][0]
        cfg = LogGridConfig(6.0, 2000)
        base = fd_spectrum(tilde, cfg, 3)
        # keep h and the nodes while growing the box to ~8
        extra = round(math.log(8.0 / 6.0) / cfg.h)
        x_max = fdoracle.ORACLE_X_MIN * math.exp(cfg.h * (2001 + extra))
        grown = LogGridConfig(x_max, 2000 + extra)
        wide = fd_spectrum(tilde, grown, 3)
        assert np.max(np.abs(base - wide)) < 1e-6


def lowest_k_containment(spec, cfg, lam):
    """Nearest level and Richardson gap by the lowest-k scan with index
    pairing, built from `fd_spectrum` as an independent reference."""
    count = 8
    vals = fd_spectrum(spec, cfg, count, bc_energy=lam)
    while vals[-1] < lam:
        count *= 2
        vals = fd_spectrum(spec, cfg, count, bc_energy=lam)
    fine = fd_spectrum(spec, cfg.doubled(), count, bc_energy=lam)
    rich = (4.0 * fine - vals) / 3.0
    return vals[np.argmin(np.abs(vals - lam))], np.min(np.abs(rich - lam))


class TestWindowedSearch:
    @pytest.mark.parametrize("ell,m", [(1, 1), (3, 2)])
    @pytest.mark.parametrize("b", [Fraction(1), HALF], ids=["b=1", "b=1/2"])
    def test_matches_lowest_k_reference(self, unit_freqs, ell, m, b):
        for vspec, lam in zero_modes(b, unit_freqs, SubspaceLabel(ell, m)):
            cfg = oracle_config(vspec, lam)
            res = contains_eigenvalue(vspec, cfg, lam)
            nearest, rich_gap = lowest_k_containment(vspec, cfg, lam)
            assert res.hit
            assert abs(res.nearest - nearest) <= 1e-8
            assert abs(res.richardson_gap - rich_gap) <= 1e-8

    def test_spurious_fine_level_does_not_shift_pairing(self):
        # W(4,4), b = 2: the doubled grid grows a spurious deep level, which
        # shifted index pairing by one and turned a true zero mode into a miss
        freqs = ModeFrequencies(0.3, -1.2, 0.7)
        for vspec, lam in zero_modes(Fraction(2), freqs, SubspaceLabel(4, 4)):
            res = contains_eigenvalue(vspec, oracle_config(vspec, lam), lam)
            assert res.hit, (lam, res)
            assert res.richardson_gap < 1e-4

    def test_seeded_fine_search_finds_the_same_level(self):
        # the doubled-grid window is centred at the Richardson prediction
        # mu + 3/4 (lam - mu) and starts ~1000x narrower than the coarse
        # gap; on true levels and on candidates that are none, the level it
        # finds is the one a tol-wide window centred on mu finds, up to the
        # bisection tolerance
        freqs = ModeFrequencies(0.3, -1.2, 0.7)
        cases = [
            (vspec, lam, True)
            for vspec, lam in zero_modes(Fraction(2), freqs, SubspaceLabel(4, 4))
        ]
        # x^2 on the half line, levels 3, 7, 11: 0.3 of a spacing above a
        # level, and midway between two
        cases += [(bare_spec(HARMONIC), lam, False) for lam in (3.0 + 0.3 * 4.0, 9.0)]
        for vspec, lam, hit in cases:
            cfg = oracle_config(vspec, lam)
            res = contains_eigenvalue(vspec, cfg, lam)
            fine = cfg.doubled()
            xf, vf = fdoracle._grid_values(vspec, fine)
            (ratio,) = fdoracle._left_boundary_ratios(vspec, (float(xf[0]),), lam)
            matrix = fdoracle._tridiagonal(fine, xf, vf, ratio)
            tol = max(fdoracle.HIT_RTOL, fdoracle.HIT_RTOL * abs(lam))
            wide, _ = fdoracle._nearest_level(*matrix, res.nearest, tol)
            assert res.hit == hit, (lam, res)
            assert abs(res.fine_nearest - wide) <= 2e-10, (lam, res)

    @pytest.mark.parametrize("target", [math.inf, math.nan])
    def test_nearest_level_rejects_infinite_target(self, capfd, monkeypatch, target):
        # the search has no guard of its own: a non-finite target must end
        # in an error at the first solve, not in a widening loop (LAPACK
        # rejects the window (inf, inf]; bisection on a NaN window does not
        # converge)
        calls = []
        solver = fdoracle.eigh_tridiagonal

        def counting(*args, **kwargs):
            calls.append(1)
            return solver(*args, **kwargs)

        monkeypatch.setattr(fdoracle, "eigh_tridiagonal", counting)
        spec = bare_spec(HARMONIC)
        cfg = LogGridConfig(10.0, 200)
        xs, vpot = fdoracle._grid_values(spec, cfg)
        (ratio,) = fdoracle._left_boundary_ratios(spec, (float(xs[0]),), None)
        matrix = fdoracle._tridiagonal(cfg, xs, vpot, ratio)
        with pytest.raises(ValueError):
            fdoracle._nearest_level(*matrix, target, 1e-3)
        assert len(calls) == 1
        capfd.readouterr()  # LAPACK's own complaint about the window

    @pytest.mark.parametrize("x_max", [6.0, 21.35, 512.0])
    def test_doubled_grid_holds_the_nodes(self, x_max):
        # both matrices of a check share one evaluation of the nodes and V
        cfg = LogGridConfig(x_max, 2000)
        spec = PotentialSpec(Fraction(3, 2), (-0.25, 1.3, -2.1, 0.7, 0.44))
        xf, vf = fdoracle._grid_values(spec, cfg.doubled())
        assert np.array_equal(xf[1::2], cfg.nodes())
        assert np.array_equal(vf[1::2], spec.values(cfg.nodes()))

    def test_midway_between_levels_rejected(self):
        spec = bare_spec(HARMONIC)
        cfg = LogGridConfig(10.0, 3000)
        vals = fd_spectrum(spec, cfg, 4)
        lam = 0.5 * (vals[1] + vals[2])
        res = contains_eigenvalue(spec, cfg, lam)
        assert not res.hit
        assert min(abs(res.nearest - vals[1]), abs(res.nearest - vals[2])) < 1e-9
        assert res.gap == pytest.approx(0.5 * (vals[2] - vals[1]), rel=1e-9)

    def test_level_above_old_scan_cap(self):
        # level 301 of the oscillator (603, level 150 on the half line),
        # beyond a scan of the lowest 256
        spec = bare_spec(HARMONIC)
        res = contains_eigenvalue(spec, LogGridConfig(40.0, 20000), 603.0)
        assert res.hit
        assert res.solves == 2

    def test_bisection_tolerance_on_log_grid(self, unit_freqs):
        # the log grid's matrix norm reaches ~1e13, so LAPACK's default
        # bisection tolerance (eps times the norm) would miss some of these
        lams = []
        for ell, m in ((3, 4), (4, 3), (4, 4)):
            for tilde, lam in zero_modes(HALF, unit_freqs, SubspaceLabel(ell, m)):
                res = contains_eigenvalue(tilde, oracle_config(tilde, lam), lam)
                assert res.hit, (ell, m, lam, res)
                lams.append(lam)
        assert min(lams) < -74.0

    def test_observability_fields(self, unit_freqs):
        tilde = zero_modes(HALF, unit_freqs, SubspaceLabel(1, 1))[0][0]
        lam = -2.0 * SQRT2 * (3.0 + math.sqrt(5.0))
        cfg = oracle_config(tilde, lam)
        res = contains_eigenvalue(tilde, cfg, lam)
        assert res.n_points == cfg.n_points
        assert res.h == cfg.h
        assert res.solves >= 2
        assert res.richardson_gap == pytest.approx(
            abs((4.0 * res.fine_nearest - res.nearest) / 3.0 - lam), abs=1e-12
        )


def richardson_level(res):
    return (4.0 * res.fine_nearest - res.nearest) / 3.0


class TestGridLadder:
    """`oracle_check` decides a hit on the 249/499/999-node ladder only
    with its error bar inside the tolerance; everything else is
    `contains_eigenvalue` on `oracle_config`."""

    # candidates off a true level, in units of the hit tolerance
    SHIFTS = (0.5, 0.9, 0.99, 1.01, 1.1, 2.0)

    @pytest.mark.parametrize("x_max", [6.0, 21.35, 512.0])
    def test_grids_nest(self, x_max):
        # the 249- and 499-node grids are every fourth and every other node
        # of the 999-node grid, bit for bit, and so is V on them
        spec = PotentialSpec(Fraction(3, 2), (-0.25, 1.3, -2.1, 0.7, 0.44))
        coarse = LogGridConfig(x_max, fdoracle.LADDER_POINTS)
        finest = coarse.doubled().doubled()
        assert finest.n_points == 999
        xf, vf = fdoracle._grid_values(spec, finest)
        for grid, step in ((coarse, 4), (coarse.doubled(), 2)):
            assert np.array_equal(xf[step - 1 :: step], grid.nodes())
            assert np.array_equal(vf[step - 1 :: step], spec.values(grid.nodes()))

    @staticmethod
    def true_levels():
        """Zero modes whose ladder error bar is wide (b = 1/2 at w = (-1.5,
        0.8, 1.9): up to 3.6 tol), and seeded ones whose error bar sits
        near the rounding floor (b = 1 and 2, lambda = 0)."""
        levels = []
        for label in (SubspaceLabel(3, 4), SubspaceLabel(2, 4)):
            levels += zero_modes(HALF, ModeFrequencies(-1.5, 0.8, 1.9), label)
        for freqs in random_frequency_triples(np.random.default_rng(20261022), 2):
            for label in (SubspaceLabel(1, 2), SubspaceLabel(2, 2)):
                for b in (Fraction(1), Fraction(2)):
                    for branch in Branch:
                        levels += zero_modes(b, freqs, label, branch)
        return levels

    def test_decided_hit_describes_the_middle_grid(self, unit_freqs):
        tilde, lam = zero_modes(HALF, unit_freqs, SubspaceLabel(1, 1))[0]
        config = oracle_config(tilde, lam)
        res = oracle_check(tilde, lam)
        middle = replace(config, n_points=2 * fdoracle.LADDER_POINTS + 1)
        assert (res.hit, res.n_points, res.h) == (True, middle.n_points, middle.h)
        assert res.solves >= 3
        assert res.richardson_gap == abs(richardson_level(res) - lam)
        assert 0.0 < res.error_estimate <= 1e-3 - res.richardson_gap

    def test_error_on_a_ladder_grid_falls_back(self, monkeypatch, unit_freqs):
        # a solve that fails on the finest ladder grid hands the check to
        # the 2000-node check, whose result comes back with the solves the
        # ladder completed added
        tilde, lam = zero_modes(HALF, unit_freqs, SubspaceLabel(1, 1))[0]
        solve = fdoracle.eigh_tridiagonal
        sizes = []

        def failing_on_999(d, e, **kwargs):
            sizes.append(d.size)
            if d.size == 4 * fdoracle.LADDER_POINTS + 3:
                raise np.linalg.LinAlgError("LAPACK dstebz did not converge (info=1)")
            return solve(d, e, **kwargs)

        monkeypatch.setattr(fdoracle, "eigh_tridiagonal", failing_on_999)
        res = oracle_check(tilde, lam)
        monkeypatch.undo()
        fixed = contains_eigenvalue(tilde, oracle_config(tilde, lam), lam)
        completed = sizes.index(999)
        assert sorted(set(sizes[:completed])) == [249, 499]
        assert res == replace(fixed, solves=fixed.solves + completed)

    def test_grid_free_errors_are_the_fixed_checks(self):
        # an error that no grid avoids comes out of the 2000-node check,
        # message for message
        for spec, lam in (
            (PotentialSpec(Fraction(1, 3), (-0.25, 1.3, -2.1, 0.7, 0.44)), 2.0),
            (bare_spec((-0.3, 0, 0, 0, 1.0)), 3.0),
        ):
            with pytest.raises(ValueError) as fixed:
                contains_eigenvalue(spec, oracle_config(spec, lam), lam)
            with pytest.raises(ValueError) as got:
                oracle_check(spec, lam)
            assert str(got.value) == str(fixed.value)

    def test_ladder_hit_is_a_fixed_grid_hit(self):
        # on true levels and on candidates up to 2 tol off them, a hit the
        # ladder decides is a hit of the 2000-node check, whose level its
        # error bar covers; what it does not decide is that check's result
        decided = 0
        for spec, lam in self.true_levels():
            tol = max(fdoracle.HIT_RTOL, fdoracle.HIT_RTOL * abs(lam))
            for shift in (0.0, *(s * k for k in self.SHIFTS for s in (1, -1))):
                cand = lam + shift * tol
                res = oracle_check(spec, cand)
                fixed = contains_eigenvalue(spec, oracle_config(spec, cand), cand)
                case = (spec, lam, shift, res, fixed)
                if res.n_points == 2 * fdoracle.LADDER_POINTS + 1:
                    decided += 1
                    assert res.hit and fixed.hit, case
                    gap = abs(richardson_level(res) - richardson_level(fixed))
                    assert gap <= res.error_estimate, case
                    assert res.richardson_gap + res.error_estimate <= tol, case
                else:
                    assert res == replace(fixed, solves=res.solves), case
                    assert res.solves > fixed.solves
        assert decided >= 250


def recorded_solves(monkeypatch, run):
    """(d, e, keywords) of every solve that `run()` makes."""
    solver = fdoracle.eigh_tridiagonal
    calls = []

    def recording(d, e, **kwargs):
        calls.append((d.copy(), e.copy(), kwargs))
        return solver(d, e, **kwargs)

    monkeypatch.setattr(fdoracle, "eigh_tridiagonal", recording)
    run()
    monkeypatch.undo()
    return calls


def harmonic_matrix():
    spec = bare_spec(HARMONIC)
    cfg = LogGridConfig(10.0, 200)
    xs, vpot = fdoracle._grid_values(spec, cfg)
    (ratio,) = fdoracle._left_boundary_ratios(spec, (float(xs[0]),), None)
    return fdoracle._tridiagonal(cfg, xs, vpot, ratio)


def no_lapack():
    raise AssertionError("LAPACK ran")


class TestKernelParity:
    """The oracle's direct LAPACK call returns what scipy.linalg's
    eigh_tridiagonal returned for the same arguments, bit for bit."""

    def reference(self, d, e, select, select_range):
        from scipy.linalg import eigh_tridiagonal

        return eigh_tridiagonal(
            d, e, eigvals_only=True, select=select, select_range=select_range,
            tol=fdoracle.BISECTION_TOL,
        )

    def assert_same(self, d, e, select, select_range):
        got = fdoracle.eigh_tridiagonal(
            d, e, select=select, select_range=select_range, tol=fdoracle.BISECTION_TOL
        )
        want = self.reference(d, e, select, select_range)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes(), (select, select_range, got, want)
        return got

    def test_oracle_windows(self, monkeypatch):
        # every window the oracle solves for the W(4,4), b = 2 zero modes
        # (decided on the ladder), the b = 1/2 zero modes of W(3,4) at
        # w = (-1.5, 0.8, 1.9) (some handed to the 2000-node check) and a
        # candidate between two levels of x^2 (a miss): on the 249-, 499-
        # and 999-node ladder grids and the 2000/4001-node pair, through
        # every widening
        cases = zero_modes(Fraction(2), ModeFrequencies(0.3, -1.2, 0.7), SubspaceLabel(4, 4))
        cases += zero_modes(HALF, ModeFrequencies(-1.5, 0.8, 1.9), SubspaceLabel(3, 4))
        cases += [(bare_spec(HARMONIC), 9.0)]
        calls = recorded_solves(
            monkeypatch, lambda: [oracle_check(vspec, lam) for vspec, lam in cases]
        )
        windows = set()
        for d, e, kwargs in calls:
            assert kwargs["select"] == "v"
            got = self.assert_same(d, e, "v", kwargs["select_range"])
            windows.add((d.size, bool(got.size)))
        # an empty window on every grid is a widening
        assert windows == {(n, held) for n in (249, 499, 999, 2000, 4001) for held in (0, 1)}

    def test_empty_window(self):
        # x^2 on the half line has levels near 3, 7, 11: none in (4, 5]
        d, e = harmonic_matrix()
        assert self.assert_same(d, e, "v", (4.0, 5.0)).size == 0

    def test_index_range(self, monkeypatch):
        spec = bare_spec(HARMONIC)
        (call,) = recorded_solves(
            monkeypatch, lambda: fd_spectrum(spec, LogGridConfig(10.0, 400), 4)
        )
        d, e, kwargs = call
        assert (kwargs["select"], kwargs["select_range"]) == ("i", (0, 3))
        assert self.assert_same(d, e, "i", (0, 3)).size == 4

    def test_split_matrix(self):
        # a zero off-diagonal splits a discrete Laplacian into two blocks,
        # the upper one shifted by 1: their levels interleave, and the
        # values still come out ascending
        d = np.full(200, 2.0)
        d[:100] += 1.0
        e = np.full(199, -1.0)
        e[99] = 0.0
        for select, select_range in (("i", (0, 199)), ("v", (0.5, 4.5))):
            got = self.assert_same(d, e, select, select_range)
            assert got.size > 100
            assert np.all(np.diff(got) >= 0.0)

    @pytest.mark.parametrize("where", ["d", "e"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_rejected_before_lapack(self, monkeypatch, where, bad):
        d, e = harmonic_matrix()
        d, e = d.copy(), e.copy()
        (d if where == "d" else e)[7] = bad
        with pytest.raises(ValueError):
            self.reference(d, e, "v", (0.0, 10.0))
        monkeypatch.setattr(fdoracle, "_flapack", no_lapack)
        with pytest.raises(ValueError, match="infs or NaNs"):
            fdoracle.eigh_tridiagonal(
                d, e, select="v", select_range=(0.0, 10.0), tol=fdoracle.BISECTION_TOL
            )

    @pytest.mark.parametrize(
        "select,select_range", [("v", (5.0, 4.0)), ("i", (3, 2)), ("i", (0, 200))]
    )
    def test_bad_selection_rejected_before_lapack(self, monkeypatch, select, select_range):
        d, e = harmonic_matrix()
        with pytest.raises(ValueError):
            self.reference(d, e, select, select_range)
        monkeypatch.setattr(fdoracle, "_flapack", no_lapack)
        with pytest.raises(ValueError):
            fdoracle.eigh_tridiagonal(
                d, e, select=select, select_range=select_range,
                tol=fdoracle.BISECTION_TOL,
            )

    def test_lapack_errors_are_value_errors(self, capfd):
        # LAPACK rejects the window (inf, inf] (info < 0); bisection on a
        # NaN window does not converge (info > 0, LinAlgError)
        d, e = harmonic_matrix()
        for window, error in (
            ((math.inf, math.inf), ValueError),
            ((math.nan, math.nan), np.linalg.LinAlgError),
        ):
            with pytest.raises(error):
                self.reference(d, e, "v", window)
            with pytest.raises(error):
                fdoracle.eigh_tridiagonal(
                    d, e, select="v", select_range=window, tol=fdoracle.BISECTION_TOL
                )
        capfd.readouterr()  # LAPACK's own complaint about the window


class TestOracleConfig:
    def test_default_spacing_and_clamp(self, unit_freqs):
        # 2000 nodes uniform in ln x on [1e-4, x_max of suggest_domain]
        vspec = ground_potential(unit_freqs, SubspaceLabel(1, 1))
        x_max = suggest_domain(vspec, 0.0)
        cfg = oracle_config(vspec, 0.0)
        assert isinstance(cfg, LogGridConfig)
        assert (cfg.x_max, cfg.n_points) == (x_max, 2000)
        assert cfg.h == pytest.approx(math.log(x_max / 1e-4) / 2001, rel=1e-14)
        assert np.allclose(np.diff(np.log(cfg.nodes())), cfg.h, rtol=1e-9, atol=0.0)



def marching_domain(spec, lam):
    """x_max of suggest_domain as it was before the march was laid out
    once: one potential evaluation per step."""
    x = 1.0
    acc = 0.0
    prev = None
    step = 0.05
    while x < 512.0 and acc < 18.0:
        v = float(spec.values(np.array([x]))[0]) - lam
        if not math.isfinite(v) or v <= 0.0:
            acc = 0.0
            prev = None
        else:
            cur = math.sqrt(v)
            if prev is not None:
                x_prev, f_prev = prev
                acc += 0.5 * (f_prev + cur) * (x - x_prev)
            prev = (x, cur)
        x += step
        step = min(step * 1.05, 1.0)
    return x


class TestSuggestDomain:
    @pytest.mark.parametrize("w", [(1.0, 1.0, 1.0), (2.0, 0.5, -1.0), (0.3, -1.2, 0.7)])
    def test_identical_to_marching_loop(self, w):
        freqs = ModeFrequencies(*w)
        for ell in range(3):
            for m in range(3):
                label = SubspaceLabel(ell, m)
                for b in (Fraction(1), HALF, Fraction(3, 2), Fraction(2)):
                    for branch in Branch:
                        for vspec, lam in zero_modes(b, freqs, label, branch):
                            assert suggest_domain(vspec, lam) == marching_domain(vspec, lam)

    def test_march_cap_and_phase(self):
        # a potential below lambda everywhere runs the march to its cap;
        # V - lambda = 1 from x = 1 on accumulates the phase 18 by x = 19,
        # and the march stops one step (of 1 there) later
        flat = bare_spec((0.0, 0.0, 1.0, 0.0, 0.0))
        assert suggest_domain(flat, 2.0) == marching_domain(flat, 2.0)
        assert suggest_domain(flat, 2.0) >= 512.0
        x_max = suggest_domain(flat, 0.0)
        assert x_max == marching_domain(flat, 0.0)
        assert 20.0 <= x_max < 21.0


class TestSingularAdaptation:
    def test_limit_circle_sextic(self, unit_freqs):
        # l = m sextic carries the borderline -1/(4x^2) term; the
        # adapted left boundary recovers the displaced eigenvalues
        for tilde, lam in zero_modes(HALF, unit_freqs, SubspaceLabel(1, 1)):
            res = contains_eigenvalue(tilde, oracle_config(tilde, lam), lam)
            assert res.hit
            assert res.richardson_gap < 1e-3

    def test_limit_circle_closed_form(self):
        # x^2 - 1/(4x^2), rungs 0 and 2 of the ladder at b = 1/2, sits on
        # the limit-circle border; its levels are 4n + 2
        spec = PotentialSpec(HALF, (-0.25, 0.0, 1.0, 0.0, 0.0))
        for lam, hit in ((2.0, True), (6.0, True), (10.0, True), (4.0, False), (2.01, False)):
            res = contains_eigenvalue(spec, oracle_config(spec, lam), lam)
            assert res.hit == hit, (lam, res.richardson_gap)
            if hit:
                assert res.richardson_gap <= 1e-8, (lam, res.richardson_gap)

    def test_limit_circle_random_frequencies(self):
        # defect (a): every zero mode whose x^(-2) coefficient
        # c2 = -1/4 + (l - m)^2 / (4 b^2) lies in the limit-circle range
        # -1/4 <= c2 < 3/4, i.e. |l - m| < 2b, is confirmed on both branches
        rng = np.random.default_rng(20261018)
        checked = 0
        for w in rng.uniform(-2.0, 2.0, size=(3, 3)):
            freqs = ModeFrequencies(*w)
            for ell in range(4):
                for m in range(4):
                    label = SubspaceLabel(ell, m)
                    for b in (HALF, Fraction(1), Fraction(3, 2), Fraction(2)):
                        if abs(ell - m) >= 2 * b:
                            continue
                        for branch in Branch:
                            for vspec, lam in zero_modes(b, freqs, label, branch):
                                assert -0.25 <= vspec.coeffs[0] + 1e-12 < 0.75 + 1e-12
                                res = contains_eigenvalue(
                                    vspec, oracle_config(vspec, lam), lam
                                )
                                assert res.hit, (w, ell, m, b, branch, lam, res)
                                checked += 1
        assert checked == 3 * 2 * 90

    def test_regular_left_end(self):
        # x^2 at b = 1 has no rung below 2b: the left end is regular and
        # takes the principal solution with p = 1 (plain Dirichlet at 1e-4
        # left Richardson gaps of 2.3e-4 to 4.2e-4); half-line levels 4n + 3
        spec = bare_spec(HARMONIC)
        for lam, hit in ((3.0, True), (7.0, True), (11.0, True), (5.0, False)):
            res = contains_eigenvalue(spec, oracle_config(spec, lam), lam)
            assert res.hit == hit, (lam, res.richardson_gap)
            if hit:
                assert res.richardson_gap <= 1e-8, (lam, res.richardson_gap)

    @pytest.mark.parametrize("b", [Fraction(1, 3), Fraction(3, 4)])
    def test_lambda_needs_an_integer_2b(self, monkeypatch, b):
        # lambda enters V - lambda at x^0, rung 2b: with no such rung the
        # boundary series refuses lambda != 0 by the ladder's rule,
        # before any solve, where it once fell back to the bare power x^p
        spec = PotentialSpec(b, (-0.25, 1.3, -2.1, 0.7, 0.44))
        with pytest.raises(ValueError, match="integer 2b") as expected:
            lambda_rung(b)

        def no_solve(*args, **kwargs):
            raise AssertionError("an fd solve ran")

        monkeypatch.setattr(fdoracle, "eigh_tridiagonal", no_solve)
        with pytest.raises(ValueError) as got:
            contains_eigenvalue(spec, oracle_config(spec, 2.0), 2.0)
        assert str(got.value) == str(expected.value)

    def test_fall_to_centre_rejected(self):
        # c_0 = -0.3 < -1/4 has no principal solution at the left end: an
        # error, not a silent Dirichlet cutoff (no V_b has c_0 < -1/4)
        spec = bare_spec((-0.3, 0, 0, 0, 1.0))
        config = oracle_config(spec, 3.0)
        with pytest.raises(ValueError, match="c_0 = -0.3"):
            contains_eigenvalue(spec, config, 3.0)
        with pytest.raises(ValueError, match="c_0 = -0.3"):
            fd_spectrum(spec, config, 3)

    @pytest.mark.parametrize("ell,p", [(4, 1), (6, 1), (6, 2)])
    def test_frobenius_series_past_the_ladder(self, ell, p):
        # defect (e): minus branch, b = 2, on the limit-circle border with a
        # rung-1 coefficient of -11.4 to -16.9; a series cut off at the
        # highest rung left Richardson gaps of 1.5e-5 to 3.5e-5 here
        freqs = ModeFrequencies(
            -2.9684081726065514, 1.9273705102965977, 1.7824165725122771
        )
        label = SubspaceLabel(ell, ell)
        energy = eig_sym(build_hamiltonian(freqs, label)).eigenvalues[label.dim - p]
        (vspec,), (lam,) = zero_mode_potentials(
            Fraction(2), freqs, label, [energy], Branch.MINUS
        )
        assert vspec.coeffs[1] < -11.0
        res = contains_eigenvalue(vspec, oracle_config(vspec, lam), lam)
        assert res.hit
        assert res.richardson_gap <= 1e-8, res.richardson_gap
