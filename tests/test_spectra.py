import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triqes import ModeFrequencies, SubspaceLabel, build_hamiltonian, eig_sym
from triqes.spectra import _fix_signs

from conftest import frequencies, labels


def symmetric_matrices(max_dim=65):
    def build(seed_and_dim):
        seed, d = seed_and_dim
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))
        return (a + a.T) / 2.0

    return st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=max_dim),
    ).map(build)


def mpmath_spectrum(a):
    """Ascending eigenvalues and eigenvector columns from mpmath at 25 digits."""
    with mpmath.workdps(25):
        vals, vecs = mpmath.eigsy(mpmath.matrix(a.tolist()))
        order = sorted(range(a.shape[0]), key=lambda i: vals[i])
        e = np.array([float(vals[i]) for i in order])
        v = np.array([[float(vecs[r, i]) for i in order] for r in range(a.shape[0])])
    return e, v


def assert_matches_mpmath(a):
    spec = eig_sym(a)
    ref_vals, ref_vecs = mpmath_spectrum(a)
    scale = max(1.0, np.max(np.abs(ref_vals)))
    assert np.max(np.abs(spec.eigenvalues - ref_vals)) <= 1e-13 * scale
    # columns are unit vectors, so |overlap| = 1 up to the angle between them
    overlaps = np.abs(np.sum(spec.eigenvectors * ref_vecs, axis=0))
    assert np.all(overlaps >= 1.0 - 1e-12)


def test_h11_eigenvalues_exact(unit_freqs):
    spec = eig_sym(build_hamiltonian(unit_freqs, SubspaceLabel(1, 1)))
    expected = [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
    assert np.allclose(spec.eigenvalues, expected, rtol=0, atol=1e-14)


def test_h32_eigenvalues_match_printed_table(unit_freqs):
    spec = eig_sym(build_hamiltonian(unit_freqs, SubspaceLabel(3, 2)))
    assert np.allclose(spec.eigenvalues, [0.77833, 3.81763, 7.40405], atol=1e-5)


def test_identity_spectrum():
    spec = eig_sym(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0], atol=0)
    assert np.allclose(spec.eigenvectors.T @ spec.eigenvectors, np.eye(3), atol=1e-14)


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_asymmetric_rejected():
    with pytest.raises(ValueError, match="expected a symmetric matrix"):
        eig_sym(np.array([[1.0, 1e-3], [0.0, 1.0]]))


def test_sign_convention():
    spec = eig_sym(np.diag([2.0, 1.0]))
    for i in range(2):
        col = spec.eigenvectors[:, i]
        assert col[np.argmax(np.abs(col))] > 0


def test_sign_fix_matches_column_loop():
    # one flip over all columns gives the bits of a per-column loop: ties
    # on the magnitude go to the lowest index, and zeros flip to -0.0
    rng = np.random.default_rng(20261019)
    bases = [
        np.linalg.qr(rng.standard_normal((d, d)))[0]
        for d in (1, 2, 5, 33) for _ in range(50)
    ]
    bases += [
        np.array([[-0.5, 0.5], [0.5, 0.5]]),
        np.array([[-1.0, 0.0], [0.0, 1.0]]),
        np.zeros((0, 0)),
    ]
    for v in bases:
        ref = v.copy()
        for i in range(ref.shape[1]):
            if ref[np.argmax(np.abs(ref[:, i])), i] < 0:
                ref[:, i] = -ref[:, i]
        got = _fix_signs(v)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


@settings(max_examples=40, deadline=None)
@given(symmetric_matrices())
def test_residual_orthogonality_and_order(a):
    spec = eig_sym(a)
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
    scale = np.linalg.norm(a)
    res = np.linalg.norm(a @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues, axis=0)
    assert np.all(res <= 1e-10 * max(scale, 1.0))
    norms = np.linalg.norm(spec.eigenvectors, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)
    gram = spec.eigenvectors.T @ spec.eigenvectors
    assert np.max(np.abs(gram - np.eye(a.shape[0]))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(symmetric_matrices(max_dim=12), st.randoms(use_true_random=False))
def test_permutation_invariance(a, rnd):
    d = a.shape[0]
    perm = list(range(d))
    rnd.shuffle(perm)
    p = np.eye(d)[:, perm]
    spec1 = eig_sym(a)
    spec2 = eig_sym(p.T @ a @ p)
    assert np.allclose(spec1.eigenvalues, spec2.eigenvalues, atol=1e-10 * max(1.0, np.linalg.norm(a)))


@settings(max_examples=60, deadline=None)
@given(frequencies(), labels())
def test_model_swap_symmetry(freqs, label):
    spec1 = eig_sym(build_hamiltonian(freqs, label))
    swapped = ModeFrequencies(freqs.w1, freqs.w3, freqs.w2)
    spec2 = eig_sym(build_hamiltonian(swapped, SubspaceLabel(label.m, label.ell)))
    assert np.allclose(spec1.eigenvalues, spec2.eigenvalues, atol=1e-12 * max(1.0, abs(spec1.eigenvalues).max()))


# W(32, 32) has dimension 33, the largest the label cap allows; the model
# matrices are unreduced tridiagonal, so every level is simple and each
# eigenvector is fixed up to sign
@pytest.mark.parametrize(
    "w", [(0.94169343811499, -0.32168507186038475, -1.3923645579391297), (2.0, 0.5, -1.0)]
)
@pytest.mark.parametrize("ell, m", [(32, 32), (20, 44), (0, 64)])
def test_model_matrices_against_mpmath(w, ell, m):
    assert_matches_mpmath(build_hamiltonian(ModeFrequencies(*w), SubspaceLabel(ell, m)))


def test_random_matrix_against_mpmath():
    a = np.random.default_rng(12).standard_normal((12, 12))
    assert_matches_mpmath((a + a.T) / 2.0)


def labels_of_one_dimension(max_dim=21):
    """A dimension d <= `max_dim` and 1-6 distinct labels of dimension d."""

    def of_dim(d):
        n = d - 1  # min(l, m)
        pool = [(n, m) for m in range(n, 65 - n)] + [(ell, n) for ell in range(n + 1, 65 - n)]
        return st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True)

    pairs = st.integers(min_value=1, max_value=max_dim).flatmap(of_dim)
    return pairs.map(lambda ps: [SubspaceLabel(ell, m) for ell, m in ps])


@settings(max_examples=60, deadline=None)
@given(frequencies(), labels_of_one_dimension())
def test_stack_matches_one_matrix_calls(freqs, group):
    # one eigh over the stack gives every matrix's values and signed vectors
    # bit for bit
    stack = build_hamiltonian(freqs, group)
    spec = eig_sym(stack)
    assert spec.eigenvalues.shape == (len(group), group[0].dim)
    assert spec.eigenvectors.shape == (len(group), group[0].dim, group[0].dim)
    for i, label in enumerate(group):
        h = build_hamiltonian(freqs, label)
        assert h.tobytes() == stack[i].tobytes()
        one = eig_sym(h)
        assert one.eigenvalues.tobytes() == spec.eigenvalues[i].tobytes()
        assert one.eigenvectors.tobytes() == spec.eigenvectors[i].tobytes()


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "non-finite input"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite input"),
        (np.array([[1.0, 1e-3], [0.0, 1.0]]), "expected a symmetric matrix"),
        (np.array([[1e200, 0.0], [0.0, 1e200]]), r"\|\|H\|\|_F is not finite"),
    ],
)
def test_stack_member_rejected(bad, message):
    # one bad member fails the whole stack with the message it gets alone
    with pytest.raises(ValueError, match=message):
        eig_sym(bad)
    stack = np.stack([np.eye(2), bad, np.diag([2.0, 3.0])])
    with pytest.raises(ValueError, match=message):
        eig_sym(stack)


def test_stack_shape_rejected():
    with pytest.raises(ValueError, match="expected a square matrix"):
        eig_sym(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="expected a square matrix"):
        eig_sym(np.zeros((1, 2, 2, 2)))
