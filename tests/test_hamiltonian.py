import math

import numpy as np
import pytest
from hypothesis import given

from triqes import (
    ModeFrequencies,
    SubspaceLabel,
    apply_interaction,
    build_hamiltonian,
    subspace_basis,
)

from conftest import frequencies, labels


def test_h11_golden(unit_freqs):
    h = build_hamiltonian(unit_freqs, SubspaceLabel(1, 1))
    assert h.tolist() == [[2.0, 1.0], [1.0, 1.0]]
    # permuting to the ordering {|1,0,0>, |0,1,1>} reproduces [[1,1],[1,2]]
    perm = np.array([[0, 1], [1, 0]])
    assert (perm.T @ h @ perm).tolist() == [[1.0, 1.0], [1.0, 2.0]]


def test_h32_golden(unit_freqs):
    h = build_hamiltonian(unit_freqs, SubspaceLabel(3, 2))
    assert np.allclose(np.diag(h), [5.0, 4.0, 3.0], atol=0)
    assert h[0, 1] == pytest.approx(math.sqrt(6.0), abs=1e-15)
    assert h[1, 2] == pytest.approx(2.0, abs=0)
    assert h[0, 2] == 0.0


def test_vacuum(unit_freqs):
    h = build_hamiltonian(unit_freqs, SubspaceLabel(0, 0))
    assert h.tolist() == [[0.0]]


def test_non_finite_frequency_rejected():
    with pytest.raises(ValueError):
        ModeFrequencies(math.inf, 1.0, 1.0)


@given(frequencies(), labels())
def test_exact_symmetry_and_tridiagonality(freqs, label):
    h = build_hamiltonian(freqs, label)
    assert np.array_equal(h, h.T)
    d = h.shape[0]
    for i in range(d):
        for j in range(d):
            if abs(i - j) > 1:
                assert h[i, j] == 0.0


@given(frequencies(), labels())
def test_diagonal_and_trace_identity(freqs, label):
    h = build_hamiltonian(freqs, label)
    ell, m = label.ell, label.m
    expected = [
        freqs.w1 * j + freqs.w2 * (ell - j) + freqs.w3 * (m - j)
        for j in range(label.n_prime + 1)
    ]
    assert np.allclose(np.diag(h), expected, rtol=0, atol=0)
    assert np.trace(h) == pytest.approx(sum(expected), rel=1e-14, abs=1e-12)


@given(frequencies(), labels())
def test_swap_covariance(freqs, label):
    # the interaction treats modes b and c symmetrically; diagonals are the
    # same sums taken in a different order, so compare to rounding accuracy
    h1 = build_hamiltonian(freqs, label)
    swapped = ModeFrequencies(freqs.w1, freqs.w3, freqs.w2)
    h2 = build_hamiltonian(swapped, SubspaceLabel(label.m, label.ell))
    assert np.array_equal(h1 - np.diag(np.diag(h1)), h2 - np.diag(np.diag(h2)))
    scale = max(1.0, np.abs(np.diag(h1)).max())
    assert np.max(np.abs(np.diag(h1) - np.diag(h2))) <= 1e-14 * scale


def _reference_matrix(freqs, label):
    """H on W(l, m) assembled state by state from the Fock reference."""
    basis = subspace_basis(label)
    index = {s: i for i, s in enumerate(basis)}
    h = np.zeros((len(basis), len(basis)))
    for i, state in enumerate(basis):
        h[i, i] = freqs.w1 * state.n_a + freqs.w2 * state.n_b + freqs.w3 * state.n_c
        for image in apply_interaction(state):
            j = index[image.state]  # a KeyError means the image left W(l, m)
            h[i, j] = image.amplitude
    return h


@given(frequencies(), labels())
def test_closed_form_matches_fock_reference(freqs, label):
    h = build_hamiltonian(freqs, label)
    assert np.array_equal(h, _reference_matrix(freqs, label))


@pytest.mark.parametrize("ell,m", [(32, 32), (20, 44), (0, 64)])
@given(freqs=frequencies())
def test_closed_form_matches_fock_reference_at_cap(ell, m, freqs):
    label = SubspaceLabel(ell, m)
    h = build_hamiltonian(freqs, label)
    assert np.array_equal(h, _reference_matrix(freqs, label))


def test_integer_frequencies_give_float_matrix():
    freqs, label = ModeFrequencies(1, 2, -1), SubspaceLabel(20, 20)
    h = build_hamiltonian(freqs, label)
    assert h.dtype == np.float64
    assert np.array_equal(h, _reference_matrix(freqs, label))


def test_stack_needs_one_dimension(unit_freqs):
    stack = build_hamiltonian(unit_freqs, [SubspaceLabel(1, 3), SubspaceLabel(4, 1)])
    assert stack.shape == (2, 2, 2)
    with pytest.raises(ValueError, match="labels of one dimension"):
        build_hamiltonian(unit_freqs, [SubspaceLabel(1, 3), SubspaceLabel(2, 2)])
    with pytest.raises(ValueError, match="labels of one dimension"):
        build_hamiltonian(unit_freqs, [])
