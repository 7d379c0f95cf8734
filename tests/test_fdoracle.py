import math
from fractions import Fraction

import numpy as np
import pytest

from triqes import (
    Branch,
    FdConfig,
    ModeFrequencies,
    SubspaceLabel,
    build_hamiltonian,
    contains_eigenvalue,
    eig_sym,
    fd_spectrum,
    oracle_config,
    potential_spec,
    split_sextic,
    suggest_domain,
)
from triqes.schroedinger import PotentialSpec

SQRT2 = math.sqrt(2.0)
HALF = Fraction(1, 2)


def bare_spec(coeffs):
    """Hand-built ladder at b = 1: coeffs[i] multiplies x^(i - 2)."""
    return PotentialSpec(Fraction(1), coeffs)


HARMONIC = (0.0, 0.0, 0.0, 0.0, 1.0)  # x^2


class TestFdSpectrum:
    def test_harmonic_oscillator(self):
        # -u'' + x^2 u with odd levels 1, 3, 5 on a symmetric domain
        spec = bare_spec(HARMONIC)
        cfg = FdConfig(-10.0, 10.0, 4000)
        vals = fd_spectrum(spec, cfg, 3)
        assert np.allclose(vals, [1.0, 3.0, 5.0], atol=1e-4)

    def test_sextic_11_example(self, unit_freqs):
        # at this configuration h is comparable to x_min, which limits the
        # resolution of the sqrt(x) boundary layer; the tight containment
        # runs in the acceptance suite with h << x_min
        tilde, eps = split_sextic(unit_freqs, SubspaceLabel(1, 1))
        cfg = FdConfig(1e-3, 6.0, 8000)
        vals = fd_spectrum(tilde, cfg, 4)
        spec_h = eig_sym(build_hamiltonian(unit_freqs, SubspaceLabel(1, 1)))
        targets = sorted(eps(e) for e in spec_h.eigenvalues)
        for t_val in targets:
            assert np.min(np.abs(vals - t_val)) < 5e-2

    def test_sextic_32_example(self, unit_freqs):
        tilde, eps = split_sextic(unit_freqs, SubspaceLabel(3, 2))
        cfg = FdConfig(1e-3, 6.0, 8000)
        vals = fd_spectrum(tilde, cfg, 5)
        spec_h = eig_sym(build_hamiltonian(unit_freqs, SubspaceLabel(3, 2)))
        for energy in spec_h.eigenvalues:
            target = eps(float(energy))
            assert np.min(np.abs(vals - target)) < 1e-3 * abs(target)

    def test_count_validation(self):
        spec = bare_spec(HARMONIC)
        cfg = FdConfig(-5.0, 5.0, 200)
        with pytest.raises(ValueError):
            fd_spectrum(spec, cfg, 201)
        with pytest.raises(ValueError):
            fd_spectrum(spec, cfg, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FdConfig(2.0, 1.0, 500)
        with pytest.raises(ValueError):
            FdConfig(0.0, 1.0, 50)

    def test_determinism(self):
        spec = bare_spec(HARMONIC)
        cfg = FdConfig(-8.0, 8.0, 1500)
        a = fd_spectrum(spec, cfg, 5)
        b = fd_spectrum(spec, cfg, 5)
        assert np.array_equal(a, b)

    def test_second_order_grid_convergence(self):
        spec = bare_spec(HARMONIC)
        errs = []
        for n in (500, 1001):
            vals = fd_spectrum(spec, FdConfig(-8.0, 8.0, n), 1)
            errs.append(abs(vals[0] - 1.0))
        order = math.log2(errs[0] / errs[1])
        assert 1.8 <= order <= 2.2


class TestContainsEigenvalue:
    def test_shifted_oscillator_hit(self):
        # ground state of x^2 - 1 sits exactly at 0
        spec = bare_spec((0.0, 0.0, -1.0, 0.0, 1.0))
        cfg = FdConfig(-10.0, 10.0, 3000)
        res = contains_eigenvalue(spec, cfg, 0.0)
        assert res.hit
        assert abs(res.nearest) < 1e-3

    def test_quarkonium_zero_mode_hit(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        spec_h = eig_sym(build_hamiltonian(unit_freqs, label))
        energy = float(spec_h.eigenvalues[0])
        vspec = potential_spec(Fraction(1), unit_freqs, label, energy)
        x_min, x_max = suggest_domain(vspec, 0.0)
        res = contains_eigenvalue(vspec, FdConfig(x_min, x_max, 6000), 0.0)
        assert res.hit

    def test_no_nearby_level(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        spec_h = eig_sym(build_hamiltonian(unit_freqs, label))
        energy = float(spec_h.eigenvalues[0])
        vspec = potential_spec(Fraction(1), unit_freqs, label, energy)
        x_min, x_max = suggest_domain(vspec, 0.0)
        res = contains_eigenvalue(vspec, FdConfig(x_min, x_max, 6000), 0.5)
        assert not res.hit
        assert res.gap > 1e-3

    def test_domain_robustness(self, unit_freqs):
        # enlarging a sufficient domain moves bound levels by < 1e-6
        tilde, eps = split_sextic(unit_freqs, SubspaceLabel(3, 2))
        base = fd_spectrum(tilde, FdConfig(1e-2, 6.0, 9000), 3)
        # keep h comparable while growing the box
        wide = fd_spectrum(tilde, FdConfig(1e-2, 8.0, 12000), 3)
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


def certified_level(freqs, label, b, energy, branch=Branch.PLUS):
    """Potential and its predicted level: eps(E) for b = 1/2, else the zero mode."""
    if b == HALF:
        tilde, eps = split_sextic(freqs, label, branch)
        return tilde, eps(energy)
    return potential_spec(b, freqs, label, energy, branch), 0.0


class TestWindowedSearch:
    @pytest.mark.parametrize("ell,m", [(1, 1), (3, 2)])
    @pytest.mark.parametrize("b", [Fraction(1), HALF], ids=["b=1", "b=1/2"])
    def test_matches_lowest_k_reference(self, unit_freqs, ell, m, b):
        label = SubspaceLabel(ell, m)
        for energy in eig_sym(build_hamiltonian(unit_freqs, label)).eigenvalues:
            vspec, lam = certified_level(unit_freqs, label, b, float(energy))
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
        label = SubspaceLabel(4, 4)
        for energy in eig_sym(build_hamiltonian(freqs, label)).eigenvalues:
            vspec, lam = certified_level(freqs, label, Fraction(2), float(energy))
            res = contains_eigenvalue(vspec, oracle_config(vspec, lam), lam)
            assert res.hit, (float(energy), res)
            assert res.richardson_gap < 1e-4

    def test_midway_between_levels_rejected(self):
        spec = bare_spec(HARMONIC)
        cfg = FdConfig(-10.0, 10.0, 3000)
        vals = fd_spectrum(spec, cfg, 4)
        lam = 0.5 * (vals[1] + vals[2])
        res = contains_eigenvalue(spec, cfg, lam)
        assert not res.hit
        assert min(abs(res.nearest - vals[1]), abs(res.nearest - vals[2])) < 1e-9
        assert res.gap == pytest.approx(0.5 * (vals[2] - vals[1]), rel=1e-9)

    def test_level_above_old_scan_cap(self):
        # level 300 of the oscillator, beyond a scan of the lowest 256
        spec = bare_spec(HARMONIC)
        res = contains_eigenvalue(spec, FdConfig(-40.0, 40.0, 20000), 601.0)
        assert res.hit
        assert res.solves == 2

    def test_observability_fields(self, unit_freqs):
        tilde, eps = split_sextic(unit_freqs, SubspaceLabel(1, 1))
        lam = -2.0 * SQRT2 * (3.0 + math.sqrt(5.0))
        cfg = oracle_config(tilde, lam)
        res = contains_eigenvalue(tilde, cfg, lam)
        assert res.n_points == cfg.n_points
        assert res.h == cfg.h
        assert res.solves >= 2
        assert res.richardson_gap == pytest.approx(
            abs((4.0 * res.fine_nearest - res.nearest) / 3.0 - lam), abs=1e-12
        )


class TestOracleConfig:
    def test_default_spacing_and_clamp(self, unit_freqs):
        label = SubspaceLabel(1, 1)
        energy = float(eig_sym(build_hamiltonian(unit_freqs, label)).eigenvalues[0])
        vspec = potential_spec(Fraction(1), unit_freqs, label, energy)
        x_min, x_max = suggest_domain(vspec, 0.0)
        cfg = oracle_config(vspec, 0.0)
        assert (cfg.x_min, cfg.x_max) == (x_min, x_max)
        assert cfg.n_points == int(min(max((x_max - x_min) / 2.5e-3, 4000), 24000))

    def test_explicit_points(self, unit_freqs):
        tilde, _ = split_sextic(unit_freqs, SubspaceLabel(1, 1))
        assert oracle_config(tilde, -5.0, n_points=1234).n_points == 1234


def marching_domain(spec, lam, phase=18.0):
    """suggest_domain as it was before the march was laid out once: one
    potential evaluation per step."""
    singular = any(cf != 0.0 for i, cf in enumerate(spec.coeffs) if i < 2 * spec.b)
    x_min = 1e-2 if singular else 1e-3
    x = max(1.0, 2.0 * x_min)
    acc = 0.0
    prev = None
    step = 0.05
    while x < 512.0 and acc < phase:
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
    return x_min, x


class TestSuggestDomain:
    @pytest.mark.parametrize("w", [(1.0, 1.0, 1.0), (2.0, 0.5, -1.0), (0.3, -1.2, 0.7)])
    def test_identical_to_marching_loop(self, w):
        freqs = ModeFrequencies(*w)
        for ell in range(3):
            for m in range(3):
                label = SubspaceLabel(ell, m)
                for energy in eig_sym(build_hamiltonian(freqs, label)).eigenvalues:
                    for b in (Fraction(1), HALF, Fraction(3, 2), Fraction(2)):
                        for branch in Branch:
                            vspec, lam = certified_level(freqs, label, b, float(energy), branch)
                            assert suggest_domain(vspec, lam) == marching_domain(vspec, lam)

    def test_march_cap_and_phase(self):
        # a potential below lambda everywhere runs the march to its cap;
        # phase 0 stops before the first step
        flat = bare_spec((0.0, 0.0, 1.0, 0.0, 0.0))
        assert suggest_domain(flat, 2.0) == marching_domain(flat, 2.0)
        assert suggest_domain(flat, 2.0)[1] >= 512.0
        assert suggest_domain(flat, 0.0, phase=0.0) == marching_domain(flat, 0.0, phase=0.0)


class TestSingularAdaptation:
    def test_limit_circle_sextic(self, unit_freqs):
        # l = m sextic carries the borderline -1/(4x^2) term; the
        # adapted left boundary recovers the displaced eigenvalues
        label = SubspaceLabel(1, 1)
        tilde, eps = split_sextic(unit_freqs, label)
        spec_h = eig_sym(build_hamiltonian(unit_freqs, label))
        cfg = FdConfig(1e-2, 6.0, 8000)
        for energy in spec_h.eigenvalues:
            res = contains_eigenvalue(tilde, cfg, eps(float(energy)))
            assert res.hit
            assert res.richardson_gap < 1e-3

    def test_limit_circle_closed_form(self):
        # x^2 - 1/(4x^2), rungs 0 and 2 of the ladder at b = 1/2, sits on
        # the limit-circle border; its levels are 4n + 2
        spec = PotentialSpec(HALF, (-0.25, 0.0, 1.0, 0.0, 0.0))
        for lam, hit in ((2.0, True), (6.0, True), (10.0, True), (4.0, False), (2.01, False)):
            res = contains_eigenvalue(spec, oracle_config(spec, lam), lam)
            assert res.hit == hit, (lam, res.richardson_gap)

    def test_plain_dirichlet_far_from_origin(self):
        # domains away from the origin never engage the adaptation
        spec = bare_spec((-0.25, 0.0, 0.0, 0.0, 1.0))
        vals = fd_spectrum(spec, FdConfig(5.0, 9.0, 500), 1)
        assert np.all(np.isfinite(vals))
