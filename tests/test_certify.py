import importlib.util
import inspect
import json
import math
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triqes
from triqes import (
    Branch,
    ModeFrequencies,
    PotentialSpec,
    SubspaceLabel,
    bhe_params,
    build_hamiltonian,
    certify_batch,
    eig_sym,
    epsilon_of,
    potential_specs,
    zero_mode_ladders,
    zero_mode_potentials,
)
from triqes import certify
from triqes.schroedinger import SEXTIC_B
from triqes.cli import main as cli_main
from triqes.fock import MAX_TOTAL_LABEL
from triqes.heun import BHE_RTOL, rho_coefficients, standard_residuals
from triqes.schroedinger import ladder_links

from conftest import certify_one, exact_power, frequencies, labels, pair_fields

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
B_VALUES = (Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2))
MIXED_B = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 2), Fraction(2))
# the bhe-bulk benchmark anchor
ANCHOR = ModeFrequencies(0.94169343811499, -0.32168507186038475, -1.3923645579391297)


def spectrum_of(freqs, label):
    return eig_sym(build_hamiltonian(freqs, label))


def link_of(vspec, lam, b, freqs, label, energy, branch):
    """The ladder link of one zero mode: `vspec` and `lam` read at b,
    against the rung numerators of (label, energy, branch)."""
    rungs = np.reshape(vspec.coeffs, (5, 1, 1, 1))
    return float(ladder_links(
        [b], freqs, [label.ell], [label.m], [energy], [branch], rungs, lam
    ).item())


def loop_chain(freqs, label, energy, vec, b, branch):
    """The relative BHE residuals of both forms and the ladder link of the
    chain by plain loops, one coefficient and one term at a time: the
    reference whose arithmetic order the array kernels keep."""
    ell, m, k, n_prime = label.ell, label.m, label.k, label.n_prime
    w1, w2, w3 = freqs.as_tuple()
    c = branch.c
    phi = []
    for n in range(n_prime + 1):
        j = n_prime - n
        weight = exact_power(branch, k + n) / math.sqrt(
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
    # ladder link: b^2 c_i against the b-free numerators N_1 .. N_4 at E,
    # lambda taken off at rung 2b
    (vspec,), (lam,) = zero_mode_potentials(b, freqs, label, [energy], branch)
    a_ = c * (w1 - w2 - w3)
    big_b, big_g = m + ell - 1, 2 * (m + ell)
    d_ = c * (m * (w1 - w2) + ell * (w1 - w3) - energy)
    numerators = [
        (a_ * big_b - 2.0 * d_) / 2.0,
        (a_ * a_ + 4.0 * big_b - 4.0 * big_g - 4.0) / 4.0,
        a_,
        1.0,
    ]
    bf = float(b)
    gaps = [bf * bf * ci for ci in vspec.coeffs[1:]]
    if lam != 0.0:  # b = 1/2, where rung 2b is rung 1
        gaps[int(2 * b) - 1] -= bf * bf * lam
    link = max(abs(g - n) for g, n in zip(gaps, numerators))
    return (max(abs(x) for x in op) / scale, max(abs(x) for x in std) / scale, link)


def cap_labels():
    """Every label up to the cap l + m = MAX_TOTAL_LABEL."""
    return st.integers(0, MAX_TOTAL_LABEL).flatmap(
        lambda ell: st.builds(
            SubspaceLabel, st.just(ell), st.integers(0, MAX_TOTAL_LABEL - ell)
        )
    )


def bits(cert, pairs=slice(None)):
    """Every field of `cert` at `pairs` as its shape and exact values:
    floats as `float.hex` (so NaNs compare equal by position), potentials
    as their b and hex rungs."""

    def exact(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, PotentialSpec):
            return (x.b, tuple(map(float.hex, x.coeffs)))
        return x

    return {
        name: None if arr is None else (arr.shape, [exact(x) for x in arr.ravel().tolist()])
        for name, arr in pair_fields(cert, pairs).items()
    }


def at(cert, i, j, col):
    """Every field of `cert` at (branch i, b j, column col); `failed` as the
    names of the stages that missed, `potential` as its tuple of rungs."""
    values = {
        f.name: None if getattr(cert, f.name) is None
        else getattr(cert, f.name)[..., i, j, col]
        for f in fields(cert) if f.name != "potential"
    }
    values["potential"] = tuple(cert.potential[i, j, col].tolist())
    values["failed"] = tuple(s for s, f in zip(certify.STAGES, values["failed"]) if f)
    values["passed"] = bool(cert.passed[i, j, col])
    return values


class TestSolveSubspaces:
    @staticmethod
    def exact(subspaces):
        return [(label, vals.shape, vals.tobytes(), vecs.shape, vecs.tobytes())
                for label, vals, vecs in subspaces]

    def test_one_stacked_solve_per_dimension(self, monkeypatch):
        # labels of dimensions 1-4 in sweep order, W(2, 3) given twice: each
        # triple is bit for bit its label's own solve, in input order, and
        # each distinct dimension costs one eig_sym call
        labels = [SubspaceLabel(ell, m) for ell in range(5) for m in range(4)]
        labels.append(SubspaceLabel(2, 3))
        calls = []

        def counting(h):
            calls.append(np.shape(h))
            return eig_sym(h)

        monkeypatch.setattr(certify, "eig_sym", counting)
        solved = certify.solve_subspaces(ANCHOR, labels)
        assert len(calls) == len({label.dim for label in labels}) == 4
        own = []
        for label in labels:
            spectrum = spectrum_of(ANCHOR, label)
            own.append((label, spectrum.eigenvalues, spectrum.eigenvectors))
        assert self.exact(solved) == self.exact(own)

    def test_labels_read_once(self):
        # the labels are read twice inside, so a generator must give what
        # its list gives; no labels, no triples
        labels = [SubspaceLabel(2, 1), SubspaceLabel(0, 3), SubspaceLabel(4, 4)]
        from_list = certify.solve_subspaces(ANCHOR, labels)
        from_generator = certify.solve_subspaces(ANCHOR, (label for label in labels))
        assert self.exact(from_generator) == self.exact(from_list)
        assert certify.solve_subspaces(ANCHOR, []) == []


class TestCertifySubspace:
    @settings(max_examples=30, deadline=None)
    @given(frequencies(), cap_labels(), st.sampled_from((0.0, 1e-9, -1e-4)))
    def test_columns_match_eigenpairs(self, freqs, label, shift):
        # one call over both branches and every b, whose zero-mode columns
        # mix lambda = eps(E) at b = 1/2 with lambda = 0: the record at
        # [branch, b, column i] is the one-column, one-b, one-branch call on
        # eigenpair i, field for field, also for the failing columns of a
        # perturbed energy; its residuals are the loop reference's, exactly
        spectrum = spectrum_of(freqs, label)
        energies = spectrum.eigenvalues + shift * np.maximum(
            1.0, np.abs(spectrum.eigenvalues)
        )
        vecs = spectrum.eigenvectors
        cert = certify_one(freqs, label, energies, vecs, B_VALUES, list(Branch))
        shape = (len(Branch), len(B_VALUES), label.dim)
        assert cert.lam.shape == cert.schrodinger_residual.shape == shape
        assert cert.bhe_operator_residual.shape == shape
        assert cert.failed.shape == (len(certify.STAGES), *shape)
        assert cert.oracle is None
        for i, branch in enumerate(Branch):
            for j, b in enumerate(B_VALUES):
                for col in range(label.dim):
                    case = (b, branch, col)
                    got = at(cert, i, j, col)
                    expected_lam = (
                        epsilon_of(energies[col], branch) if b == SEXTIC_B else 0.0
                    )
                    assert got["lam"] == expected_lam, case
                    single = certify_one(
                        freqs, label, energies[col : col + 1], vecs[:, col : col + 1],
                        [b], [branch],
                    )
                    assert got == at(single, 0, 0, 0), case
                    energy, vec = float(energies[col]), vecs[:, col]
                    op, std, link = loop_chain(freqs, label, energy, vec, b, branch)
                    assert (got["bhe_operator_residual"], got["schrodinger_residual"]) == (
                        op, link
                    ), case
                    # the standard form, left out of the pipeline, through
                    # its library kernels on the same column
                    phi = rho_coefficients([label.ell], [label.m], vec[:, None], [branch])
                    params = bhe_params(freqs, label, np.array([energy]), branch)
                    res = standard_residuals(params, phi[:, :, 0])
                    assert np.max(np.abs(res)) / np.max(np.abs(phi)) == std, case

    @settings(max_examples=25, deadline=None)
    @given(
        frequencies(),
        st.lists(labels(max_l=6, max_m=6), min_size=1, max_size=6),
        st.lists(st.sampled_from(MIXED_B), min_size=1, max_size=5, unique=True),
        st.lists(st.sampled_from(list(Branch)), min_size=1, max_size=2, unique=True),
        st.sampled_from((0.0, 1e-9, -1e-4)),
        st.integers(-1, 5),
    )
    def test_many_subspaces_match_one_subspace_calls(
        self, freqs, label_list, b_values, branches, shift, nan_at
    ):
        # one call over subspaces of mixed dimensions, whose groups share
        # the array pass, gives each subspace bit for bit the certificate of
        # its own one-subspace call; subspace `nan_at` (if any) carries a
        # NaN eigenvector column, whose NaNs must stay in that column
        subspaces = []
        for n, label in enumerate(label_list):
            spectrum = spectrum_of(freqs, label)
            energies = spectrum.eigenvalues + shift * np.maximum(
                1.0, np.abs(spectrum.eigenvalues)
            )
            vecs = spectrum.eigenvectors.copy()
            if n == nan_at:
                vecs[:, -1] = np.nan
            subspaces.append((label, energies, vecs))
        batch, ends = certify_batch(freqs, subspaces, b_values, branches)
        assert len(ends) == len(subspaces) + 1
        for n, subspace in enumerate(subspaces):
            single = certify_one(freqs, *subspace, b_values, branches)
            assert bits(batch, slice(ends[n], ends[n + 1])) == bits(single), n

    def test_pair_axis_matches_one_call_per_subspace(self):
        # one call lays the eigenpairs of subspaces of dimensions 1-7 along
        # one pair axis, phi padded to degree 6; each subspace's certificate
        # is, repr for repr, that of its own call: all, some, reordered or
        # none of its columns, energies exact, shifted to pass or to fail
        freqs = ModeFrequencies(2.0003, 0.4995, -1.0002)
        b_values = [Fraction(1, 3), SEXTIC_B, Fraction(1), Fraction(2)]
        columns = [slice(None), slice(1, None, 2), slice(0, 0), slice(None, None, -1), [0]]
        shifts = [0.0, 1e-9, -1e-4]
        subspaces = []
        for n, (ell, m) in enumerate([
            (0, 3), (6, 6), (2, 1), (4, 5), (1, 1), (3, 6), (5, 2), (6, 4), (0, 0),
            (2, 2), (5, 6), (6, 5),
        ]):
            label = SubspaceLabel(ell, m)
            spectrum = spectrum_of(freqs, label)
            cols = columns[n % len(columns)]
            energies = spectrum.eigenvalues[cols]
            shift = shifts[n % len(shifts)]
            energies = energies + shift * np.maximum(1.0, np.abs(energies))
            subspaces.append((label, energies, spectrum.eigenvectors[:, cols]))
        assert {label.dim for label, _, _ in subspaces} == set(range(1, 8))
        assert min(len(energies) for _, energies, _ in subspaces) == 0

        def reprs(cert, pairs=slice(None)):
            return {
                name: None if arr is None else (arr.shape, repr(arr.tolist()))
                for name, arr in pair_fields(cert, pairs).items()
            }

        # and a subspace without columns above the top dimension of the pairs
        empty = SubspaceLabel(6, 6)
        for call in (subspaces, [(empty, [], np.empty((empty.dim, 0))), subspaces[0]]):
            batch, ends = certify_batch(freqs, call, b_values, list(Branch))
            assert ends == np.cumsum([0] + [len(e) for _, e, _ in call]).tolist()
            for n, subspace in enumerate(call):
                single = certify_one(freqs, *subspace, b_values, list(Branch))
                assert reprs(batch, slice(ends[n], ends[n + 1])) == reprs(single), n

    def test_labels_read_per_subspace_not_per_pair(self, monkeypatch):
        # each pair's label reaches the kernels as (l, m) int arrays built
        # once per subspace: on the 20 x 20 rectangle (441 labels, 3311
        # pairs) the call hashes a SubspaceLabel or reads one of its derived
        # properties a few times per label, never once per pair
        labels = [SubspaceLabel(ell, m) for ell in range(21) for m in range(21)]
        subspaces = certify.solve_subspaces(ANCHOR, labels)
        touched = dict.fromkeys(("__hash__", "dim", "k", "n_prime"), 0)

        def counted(name, fn):
            def wrapper(label):
                touched[name] += 1
                return fn(label)
            return wrapper

        monkeypatch.setattr(
            SubspaceLabel, "__hash__", counted("__hash__", SubspaceLabel.__hash__)
        )
        for name in ("dim", "k", "n_prime"):
            getter = getattr(SubspaceLabel, name).fget
            monkeypatch.setattr(SubspaceLabel, name, property(counted(name, getter)))
        _, ends = certify_batch(ANCHOR, subspaces, B_VALUES, list(Branch))
        assert (len(labels), ends[-1]) == (441, 3311)
        assert sum(touched.values()) <= 3 * len(labels), touched

    def test_triangle_in_one_call(self):
        # every label with l + m <= 64 at w = (1, 1, 1) in one call: 2145
        # labels, 24,497 pairs and 195,976 certificates, all passing, and
        # bit for bit the concatenation of one call per dimension group, so
        # the pair axis may be cut into chunks at subspace boundaries
        freqs = ModeFrequencies(1.0, 1.0, 1.0)
        labels = [
            SubspaceLabel(ell, m)
            for ell in range(MAX_TOTAL_LABEL + 1) for m in range(MAX_TOTAL_LABEL + 1 - ell)
        ]
        subspaces = certify.solve_subspaces(freqs, labels)
        batch, ends = certify_batch(freqs, subspaces, B_VALUES, list(Branch))
        assert (len(labels), ends[-1], batch.passed.size) == (2145, 24497, 195976)
        assert batch.passed.all()
        groups = {}
        for n, label in enumerate(labels):
            groups.setdefault(label.dim, []).append(n)
        order = np.concatenate(
            [np.arange(ends[n], ends[n + 1]) for group in groups.values() for n in group]
        )
        parts = [
            pair_fields(
                certify_batch(freqs, [subspaces[n] for n in group], B_VALUES, list(Branch))[0]
            )
            for group in groups.values()
        ]
        for name, arr in pair_fields(batch, order).items():
            if arr is None:
                assert all(part[name] is None for part in parts), name
                continue
            joined = np.concatenate(
                [part[name] for part in parts], axis=2 if name == "potential" else -1
            )
            assert (joined.shape, joined.tobytes()) == (arr.shape, arr.tobytes()), name

    @pytest.mark.parametrize("first,second", [("energies", "vecs"), ("vecs", "energies")])
    def test_first_malformed_subspace_raises(self, unit_freqs, monkeypatch, first, second):
        # every subspace's shapes are checked before any stage runs: a call
        # whose 2nd and 5th subspaces are malformed raises the 2nd's message
        messages = {
            "energies": r"^energies of shape \(1,\) for eigenvectors of shape \(2, 2\)$",
            "vecs": r"^eigenvector length \(1,\) does not match dim 2$",
        }
        subspaces = []
        for ell, m in [(0, 0), (1, 1), (2, 2), (3, 1), (1, 2)]:
            spectrum = spectrum_of(unit_freqs, SubspaceLabel(ell, m))
            subspaces.append(
                (SubspaceLabel(ell, m), spectrum.eigenvalues, spectrum.eigenvectors)
            )
        for n, kind in [(1, first), (4, second)]:
            label, energies, vecs = subspaces[n]
            subspaces[n] = (
                (label, energies[:1], vecs) if kind == "energies"
                else (label, energies, vecs[:1])
            )
        stages = []
        monkeypatch.setattr(certify, "rho_coefficients", lambda *a: stages.append(a))
        with pytest.raises(ValueError, match=messages[first]):
            certify_batch(unit_freqs, subspaces, B_VALUES, list(Branch))
        assert stages == []

    def test_bhe_residuals_broadcast_over_b(self, unit_freqs):
        # stages 1-2 do not depend on b: one value per (branch, column),
        # seen under every b without a copy
        label = SubspaceLabel(3, 2)
        spectrum = spectrum_of(unit_freqs, label)
        cert = certify_one(
            unit_freqs, label, spectrum.eigenvalues, spectrum.eigenvectors, B_VALUES,
            list(Branch),
        )
        assert cert.bhe_operator_residual.strides[1] == 0
        assert not cert.bhe_operator_residual.flags.writeable

    def test_nan_column_fails_without_warning(self, unit_freqs, monkeypatch):
        # a NaN residual compares False against any bound, so the verdict
        # `~(x <= BHE_RTOL)` fails it where `x > BHE_RTOL` would pass it;
        # pytest turns any numpy RuntimeWarning into an error.  The ladder
        # link reads no eigenvector: a NaN phi fails "bhe" only, and a NaN
        # rung "schrodinger" only
        label = SubspaceLabel(2, 2)
        spectrum = spectrum_of(unit_freqs, label)
        vecs = spectrum.eigenvectors.copy()
        vecs[:, 1] = np.nan
        b_values = [Fraction(1), SEXTIC_B]
        cert = certify_one(
            unit_freqs, label, spectrum.eigenvalues, vecs, b_values, list(Branch)
        )
        bhe, schrodinger, oracle = cert.failed
        expected = np.zeros((len(Branch), len(b_values), label.dim), dtype=bool)
        expected[:, :, 1] = True
        assert np.isnan(cert.bhe_operator_residual[:, :, 1]).all()
        assert np.array_equal(bhe, expected)
        assert not schrodinger.any()
        assert not oracle.any()
        assert np.array_equal(cert.passed, ~expected)

        def nan_rung(*args):
            rungs, lams = zero_mode_ladders(*args)
            rungs[2, 1] = np.nan  # pair 1
            return rungs, lams

        monkeypatch.setattr(certify, "zero_mode_ladders", nan_rung)
        cert = certify_one(
            unit_freqs, label, spectrum.eigenvalues, spectrum.eigenvectors, b_values,
            list(Branch),
        )
        bhe, schrodinger, oracle = cert.failed
        assert np.isnan(cert.schrodinger_residual[:, :, 1]).all()
        assert np.array_equal(schrodinger, expected)
        assert not bhe.any() and not oracle.any()

    def test_b_values_and_branches_read_once(self, unit_freqs):
        # iterators of b values and branches certify as their lists do, and
        # no b value or no branch raises rather than certify nothing: every
        # energy here is off by 1.0, so no column may pass
        label = SubspaceLabel(2, 3)
        spectrum = spectrum_of(unit_freqs, label)
        energies, vecs = spectrum.eigenvalues + 1.0, spectrum.eigenvectors
        b_values, branches = [Fraction(1), SEXTIC_B], list(Branch)
        expected = certify_one(unit_freqs, label, energies, vecs, b_values, branches)
        assert expected.passed.shape == (2, 2, 3) and not expected.passed.any()
        got = certify_one(
            unit_freqs, label, energies, vecs, iter(b_values), (br for br in branches)
        )
        assert bits(got) == bits(expected)
        for bs, brs in [
            ([], branches), (iter([]), branches), (b_values, []), (b_values, iter([])),
        ]:
            with pytest.raises(ValueError, match="at least one b value and one branch"):
                certify_one(unit_freqs, label, energies, vecs, bs, brs)

    def test_zero_column_fails_bhe_alone(self, unit_freqs):
        # a zero eigenvector column has phi = 0, and its relative BHE
        # residual 0 / 0 reads NaN without a warning: it fails "bhe" alone,
        # since the ladder link reads no eigenvector
        label = SubspaceLabel(2, 2)
        spectrum = spectrum_of(unit_freqs, label)
        vecs = spectrum.eigenvectors.copy()
        vecs[:, 1] = 0.0
        cert = certify_one(
            unit_freqs, label, spectrum.eigenvalues, vecs, [Fraction(1), SEXTIC_B],
            list(Branch),
        )
        expected = np.zeros((len(Branch), 2, label.dim), dtype=bool)
        expected[:, :, 1] = True
        assert np.isnan(cert.bhe_operator_residual[:, :, 1]).all()
        assert np.array_equal(cert.failed[0], expected)
        assert not cert.failed[1:].any()

    def test_shape_validation(self, unit_freqs):
        label = SubspaceLabel(3, 2)
        spectrum = spectrum_of(unit_freqs, label)
        with pytest.raises(
            ValueError, match=r"energies of shape \(2,\) for eigenvectors of shape \(3, 3\)"
        ):
            certify_one(
                unit_freqs, label, spectrum.eigenvalues[:2], spectrum.eigenvectors,
                B_VALUES, [Branch.PLUS],
            )
        # a 0-d energy is not one energy, even beside one column
        with pytest.raises(
            ValueError, match=r"energies of shape \(\) for eigenvectors of shape \(3, 1\)"
        ):
            certify_one(
                unit_freqs, label, spectrum.eigenvalues[0], spectrum.eigenvectors[:, :1],
                B_VALUES, [Branch.PLUS],
            )
        with pytest.raises(ValueError, match="does not match dim"):
            certify_one(
                unit_freqs, label, spectrum.eigenvalues, spectrum.eigenvectors[:2],
                B_VALUES, [Branch.PLUS],
            )


class TestCertifyEigenpair:
    """The certificate of each eigenpair of a subspace."""

    def test_sextic_at_b_half(self, unit_freqs):
        label = SubspaceLabel(3, 2)
        spectrum = spectrum_of(unit_freqs, label)
        for branch in Branch:
            tilde = potential_specs(SEXTIC_B, unit_freqs, label, [0.0], branch)[0]
            cert = certify_one(
                unit_freqs, label, spectrum.eigenvalues, spectrum.eigenvectors,
                [SEXTIC_B], [branch],
            )
            assert cert.lam[0, 0].tolist() == [
                epsilon_of(energy, branch) for energy in spectrum.eigenvalues.tolist()
            ]
            assert all(tuple(r) == tilde.coeffs for r in cert.potential[0, 0].tolist())
            assert cert.passed.all()

    @pytest.mark.parametrize("b", [Fraction(1), Fraction(3, 2), Fraction(2)])
    def test_plain_potential_otherwise(self, unit_freqs, b):
        label = SubspaceLabel(1, 1)
        spectrum = spectrum_of(unit_freqs, label)
        cert = certify_one(
            unit_freqs, label, spectrum.eigenvalues, spectrum.eigenvectors, [b],
            [Branch.PLUS],
        )
        vspecs = potential_specs(b, unit_freqs, label, spectrum.eigenvalues)
        assert cert.potential[0, 0].tolist() == [list(v.coeffs) for v in vspecs]
        assert not cert.lam.any()
        assert cert.oracle is None
        assert cert.passed.all()

    def test_failed_names_stages(self, unit_freqs):
        label = SubspaceLabel(3, 2)
        spectrum = spectrum_of(unit_freqs, label)
        cert = certify_one(
            unit_freqs, label, spectrum.eigenvalues + 1e-3, spectrum.eigenvectors, [1],
            [Branch.PLUS],
        )
        # stages in STAGES order: bhe misses at every column; the ladder,
        # built at the same shifted energy, is linked
        assert cert.failed[:, 0, 0].T.tolist() == [[True, False, False]] * label.dim
        assert not cert.passed.any()

    @pytest.mark.parametrize(
        "freqs,ell,m", [(ANCHOR, 32, 32), (ModeFrequencies(1, 1, 1), 20, 20)]
    )
    def test_cap_labels_pass(self, freqs, ell, m):
        # the BHE residuals grow with the label and the ladder link does
        # not; both stay under the one tolerance at the label cap
        label = SubspaceLabel(ell, m)
        spectrum = spectrum_of(freqs, label)
        cert = certify_one(
            freqs, label, spectrum.eigenvalues, spectrum.eigenvectors, B_VALUES,
            list(Branch),
        )
        assert cert.passed.shape == (len(Branch), len(B_VALUES), label.dim)
        assert cert.passed.all(), np.argwhere(~cert.passed).tolist()

    def test_oracle_hit(self, unit_freqs, monkeypatch):
        # one oracle solve per distinct (potential, lambda) of the call: the
        # two eigenpairs of W(1, 1) pose two problems, each asked twice
        label = SubspaceLabel(1, 1)
        spectrum = spectrum_of(unit_freqs, label)
        solved = []
        check = certify.oracle_check
        monkeypatch.setattr(
            certify, "oracle_check",
            lambda spec, lam: solved.append((spec, lam)) or check(spec, lam),
        )
        energies = np.tile(spectrum.eigenvalues, 2)
        vecs = np.tile(spectrum.eigenvectors, 2)
        cert = certify_one(
            unit_freqs, label, energies, vecs, [SEXTIC_B], [Branch.PLUS], oracle=True,
        )
        assert cert.passed.all()
        columns = zip(cert.potential[0, 0].tolist(), cert.lam[0, 0], cert.oracle[0, 0])
        for col, (rungs, lam, result) in enumerate(columns):
            # the grid ladder decides, on its (499, 999)-node pair
            assert result.hit and result.n_points == 499
            assert result.richardson_gap + result.error_estimate <= 1e-3 * max(1, abs(lam))
            assert solved[col % label.dim] == (PotentialSpec(SEXTIC_B, tuple(rungs)), lam)
            assert result is cert.oracle[0, 0, col % label.dim]
        assert len(solved) == label.dim

    def test_oracle_runs_in_subspace_order(self, monkeypatch):
        # the oracle checks each new (potential, lambda) of the batch in
        # (subspace, branch, b, column) order, so the first failing check
        # is that of a one-subspace-at-a-time run; W(1, 2) and W(2, 1)
        # pose the same problems, and W(2, 1) poses none of its own
        freqs = ModeFrequencies(2.0, 0.5, -1.0)
        subspaces = [
            (label, spectrum_of(freqs, label).eigenvalues,
             spectrum_of(freqs, label).eigenvectors)
            for label in (SubspaceLabel(1, 2), SubspaceLabel(2, 1), SubspaceLabel(0, 3))
        ]
        b_values = [Fraction(3, 2), Fraction(2)]
        batch, ends = certify.certify_batch(freqs, subspaces, b_values, list(Branch))
        assert ends == [0, 2, 4, 5]
        expected = []
        for start, stop in zip(ends, ends[1:]):
            for br, j, col in np.ndindex(len(Branch), len(b_values), stop - start):
                col += start
                key = (PotentialSpec(b_values[j], tuple(batch.potential[br, j, col].tolist())),
                       float(batch.lam[br, j, col]))
                if key not in expected:
                    expected.append(key)
        checked = []
        monkeypatch.setattr(
            certify, "oracle_check",
            lambda spec, lam: checked.append((spec, lam)) or SimpleNamespace(hit=True),
        )
        certify.certify_batch(freqs, subspaces, b_values, list(Branch), oracle=True)
        assert checked == expected
        assert len(expected) == 2 * 2 * 3


class TestZeroModeResidual:
    @pytest.mark.parametrize("ell,m", [(1, 1), (3, 2)])
    def test_perturbations_fail(self, unit_freqs, ell, m):
        # the link passes rounding in a ladder and fails a ladder error or a
        # ladder of another energy; a wrong energy itself fails "bhe"
        label = SubspaceLabel(ell, m)
        spectrum = spectrum_of(unit_freqs, label)
        energies = spectrum.eigenvalues
        for b in B_VALUES:
            for branch in Branch:
                vspecs, lams = zero_mode_potentials(b, unit_freqs, label, energies, branch)
                offs = zip(*zero_mode_potentials(
                    b, unit_freqs, label, energies * (1 + 1e-8), branch
                ))
                columns = zip(energies.tolist(), vspecs, lams.tolist(), offs)
                for energy, vspec, lam, (off_e, off_lam) in columns:
                    case = (energy, b, branch)
                    at_e = (b, unit_freqs, label, energy, branch)
                    assert link_of(vspec, lam, *at_e) <= BHE_RTOL, case
                    assert link_of(off_e, off_lam, *at_e) > BHE_RTOL, case
                    coeffs = list(vspec.coeffs)
                    for r in range(1, 5):
                        ulp = list(coeffs)
                        ulp[r] = np.nextafter(ulp[r], np.inf)
                        one_ulp = replace(vspec, coeffs=tuple(ulp))
                        assert link_of(one_ulp, lam, *at_e) <= BHE_RTOL, (case, r)
                    # every rung whose relative 1e-8 is well above the
                    # bound, the largest among them
                    big = [r for r in range(1, 5) if abs(coeffs[r]) * b * b > 0.1]
                    assert max(range(1, 5), key=lambda r: abs(coeffs[r])) in big
                    for r in big:
                        off = list(coeffs)
                        off[r] *= 1 + 1e-8
                        off_v = replace(vspec, coeffs=tuple(off))
                        assert link_of(off_v, lam, *at_e) > BHE_RTOL, (case, r)
        cert = certify_one(
            unit_freqs, label, energies * (1 + 1e-8), spectrum.eigenvectors, B_VALUES,
            list(Branch),
        )
        bhe, schrodinger, oracle = cert.failed
        assert bhe.all() and not schrodinger.any() and not oracle.any()

    def test_off_ladder_rejected(self, unit_freqs):
        # a ladder's b is its index on the b axis, so a ladder built at
        # another b is read at the wrong powers and fails the stage
        label = SubspaceLabel(1, 1)
        energy = spectrum_of(unit_freqs, label).eigenvalues[1]

        def column(spec_b, read_b, lam):
            vspec = potential_specs(spec_b, unit_freqs, label, [energy])[0]
            return (vspec, lam, read_b)

        def batch(middle):
            # `middle` between a lambda = 0 column at b = 1 and a lambda != 0
            # one at b = 1/2, each on its own b; the link of every column
            columns = [column(1, 1, 0.0), middle, column(SEXTIC_B, SEXTIC_B, 2.0)]
            vspecs, lams, bs = zip(*columns)
            rungs = np.array([vspec.coeffs for vspec in vspecs]).T[:, None, None, :]
            link = ladder_links(
                bs, unit_freqs, [label.ell], [label.m], [energy], [Branch.PLUS], rungs,
                np.array(lams),
            )
            return link[0, 0]

        def single(vspec, lam, read_b):
            return link_of(vspec, lam, read_b, unit_freqs, label, energy, Branch.PLUS)

        third = Fraction(1, 3)
        assert batch(column(third, third, 0.0))[1] <= BHE_RTOL  # lambda = 0 needs no rung
        for spec_b, read_b in ((1, Fraction(3, 2)), (Fraction(1, 2), 1), (2, 1)):
            off_ladder = column(spec_b, read_b, 0.0)
            rel = single(*off_ladder)
            assert rel > BHE_RTOL, (spec_b, read_b)
            assert batch(off_ladder)[1] == rel, (spec_b, read_b)
        # above rung 4, lambda's rung 2b holds -b^2 lambda alone
        assert single(*column(Fraction(5, 2), Fraction(5, 2), 2.0)) == 12.5
        # lambda != 0 needs v^(2b) to be a power of v
        with pytest.raises(ValueError, match="integer 2b"):
            single(*column(third, third, 1.0))
        with pytest.raises(ValueError, match="integer 2b"):
            batch(column(third, third, 1.0))

    def test_cli_exits_1_off_ladder(self, capsys, monkeypatch):
        def wrong_b(b_values, freqs, ell, m, energies, branches):
            # every ladder built at b = 1, with lambda = 0
            rungs, lams = zero_mode_ladders(
                [1] * len(b_values), freqs, ell, m, energies, branches
            )
            return rungs, np.zeros_like(lams)

        links = []

        def counted(*args):
            links.append(ladder_links(*args))
            return links[-1]

        monkeypatch.setattr(certify, "zero_mode_ladders", wrong_b)
        monkeypatch.setattr(certify, "ladder_links", counted)
        code = cli_main(["verify", "--l", "1", "--m", "1", "--b", "3/2", "--no-oracle"])
        captured = capsys.readouterr()
        assert code == 1
        # one link call; b^2 c_i of a b = 1 ladder read at b = 3/2 is 9/4 N_i
        assert len(links) == 1 and (links[0] > 1.0).all()
        checks = json.loads(captured.out)["checks"]
        assert [c["failed"] for c in checks] == [["schrodinger"]] * 2
        assert captured.err == ""


def test_no_oracle_sweep_builds_no_potential_spec(monkeypatch, capsys):
    # the pipeline carries the ladders as one float array; a PotentialSpec
    # is built only for a potential the oracle solves
    made = []
    init = PotentialSpec.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PotentialSpec, "__init__", counted)
    argv = ["sweep", "--lmax", "3", "--mmax", "3", "--b", "1,1/2,3/2,2"]
    assert cli_main(["sweep", "--no-oracle", *argv[1:]]) == 0
    assert made == []
    # the counter sees every oracle check: 16 labels' 30 eigenpairs, 2
    # branches and 4 exponents
    assert cli_main(argv) == 0
    assert len(made) == 30 * 2 * 4
    capsys.readouterr()


# names a module once defined and no longer does, by module
REMOVED = {
    "certify": (
        "certify_eigenpair", "zero_mode_potential", "SEXTIC_B", "certify_subspace",
        "OracleMemo",
    ),
    "schroedinger": (
        "potential_spec", "split_sextic", "AuxConstants",
        "WavefunctionSpec", "wavefunction_spec", "zero_mode_residual",
        "zero_mode_residuals",
    ),
    "hamiltonian": ("RestrictedHamiltonian",),
    "fock": ("Labels",),
    "heun": ("Branches", "_constants", "_rows"),
    "fdoracle": ("SINGULAR_XMIN",),
    "cli": ("_solve_labels",),
}


def test_public_surface():
    # `__all__` is exactly what a star import binds, and one function per
    # stage: no removed twin, wrapper or knob is left anywhere
    namespace = {}
    exec("from triqes import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(triqes.__all__))
    assert len(triqes.__all__) == len(set(triqes.__all__))
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(getattr(triqes, module), name), (module, name)
            assert name not in triqes.__all__
    # the curve's inputs are public alongside the curve itself
    assert {
        "potential_specs", "zero_mode_potentials", "eval_wavefunction",
        "zero_mode_envelope", "rho_coefficients",
    } <= set(triqes.__all__)
    assert [f.name for f in fields(triqes.LogGridConfig)] == ["x_max", "n_points"]
    # phi is a coefficient column: the wrapper keeps no evaluation of its own
    assert {"__call__", "degree"}.isdisjoint(vars(triqes.RhoPolynomial))
    assert "rtol" not in inspect.signature(triqes.heun.residual_ok).parameters
    # one entry to the chain, whose oracle is an on switch, and one batch
    # certificate with no per-subspace view
    assert not hasattr(triqes, "certify_subspace")
    oracle = inspect.signature(certify.certify_batch).parameters["oracle"]
    assert oracle.default is False
    assert not hasattr(triqes.Certificate, "columns")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worked_examples_script(monkeypatch, capsys):
    module = load_script("certify_worked_examples")
    monkeypatch.setattr(sys, "argv", ["certify_worked_examples.py"])
    assert module.main() == 0
    out = capsys.readouterr().out.splitlines()
    # 5 eigenpairs x 2 branches x 4 exponents, between header and footer
    assert len(out) == 2 + 40 + 2
    assert out[-1] == "all checks passed"


def test_worked_examples_options(monkeypatch, capsys):
    # -h/--help prints the usage and exits 0; any other argument is a usage
    # error, exit 2; neither runs the table
    module = load_script("certify_worked_examples")
    for argv, code in ((["-h"], 0), (["--help"], 0), (["--bogus"], 2), (["x"], 2)):
        monkeypatch.setattr(sys, "argv", ["certify_worked_examples.py", *argv])
        with pytest.raises(SystemExit) as exited:
            module.main()
        assert exited.value.code == code, argv
        captured = capsys.readouterr()
        if code == 0:
            assert captured.out.startswith("usage: certify_worked_examples.py [-h]\n")
        else:
            assert captured.out == ""
            assert "error:" in captured.err


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


def test_export_figure_data_options(tmp_path, monkeypatch, capsys):
    # -h/--help prints the usage and exits 0; any other option is a usage
    # error, exit 2; neither creates anything
    module = load_script("export_figure_data")
    monkeypatch.chdir(tmp_path)
    for argv, code in (
        (["-h"], 0), (["--help"], 0), (["--out", "x"], 2), (["--bogus"], 2), (["-x"], 2)
    ):
        monkeypatch.setattr(sys, "argv", ["export_figure_data.py", *argv])
        with pytest.raises(SystemExit) as exited:
            module.main()
        assert exited.value.code == code, argv
        captured = capsys.readouterr()
        if code == 0:
            assert captured.out.startswith("usage: export_figure_data.py [-h] [outdir]")
        else:
            assert "error:" in captured.err
    assert list(tmp_path.iterdir()) == []
