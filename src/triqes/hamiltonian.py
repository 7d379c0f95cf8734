"""Restricted Hamiltonian matrices on the invariant subspaces.

H = w1 N_a + w2 N_b + w3 N_c + a+ b c + a b+ c+ restricted to W(l, m)
is a real symmetric tridiagonal (Jacobi) matrix in the canonical basis
|j, l - j, m - j>, j = 0 .. min(l, m), and it is linear in w.  Its two
bands are closed forms:

    H[j, j]     = w1 j + w2 (l - j) + w3 (m - j),
    H[j, j + 1] = sqrt((j + 1) (l - j) (m - j)),

the off-diagonal being the amplitude of a+ b c on state j
(`fock.apply_interaction` is the state-by-state reference).  Matrices
are stored dense; dimensions never exceed 33, since min(l, m) + 1 <= 33
when l + m <= 64.  Labels of one dimension give one stack [label, d, d]
from the same closed forms, which `spectra.eig_sym` solves in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import SubspaceLabel


@dataclass(frozen=True)
class ModeFrequencies:
    """Scaled mode frequencies (each original frequency over the coupling g)."""

    w1: float
    w2: float
    w3: float

    def __post_init__(self) -> None:
        for name in ("w1", "w2", "w3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w1, self.w2, self.w3)


def check_finite(name: str, values: np.typing.ArrayLike) -> None:
    """Raise ValueError naming the constant `name` unless every value of
    it, a number or an array-like, is finite.

    Each w_i is finite, yet near the double range the sums and products
    that form the chain's constants, and the potential's division by b^2,
    can overflow; the chain stops at the first such constant rather than
    run on inf or nan.
    """
    if not np.isfinite(values).all():
        raise ValueError(f"{name} is not finite: it overflows a double")


def build_hamiltonian(
    freqs: ModeFrequencies, label: SubspaceLabel | Sequence[SubspaceLabel]
) -> np.ndarray:
    """The dense symmetric matrix of H on W(ell, m) in the canonical basis,
    assembled from its two bands; for a sequence of labels of one
    dimension d, the stack [label, d, d] of their matrices.

    The off-diagonal is the square root of an exact integer product and
    is written into both (j, j + 1) and (j + 1, j), so the result is
    exactly symmetric.  j runs over floats, so integer frequencies give a
    float matrix too.  Each matrix of a stack is bit for bit the one its
    label gives alone.  Frequencies near the double range may overflow
    the diagonal; `eig_sym` rejects the non-finite matrix.
    """
    labels = [label] if isinstance(label, SubspaceLabel) else list(label)
    dims = {lab.dim for lab in labels}
    if len(dims) != 1:
        raise ValueError(f"expected labels of one dimension, got dimensions {sorted(dims)}")
    (dim,) = dims
    ell = np.array([lab.ell for lab in labels])[:, None]
    m = np.array([lab.m for lab in labels])[:, None]
    h = np.zeros((len(labels), dim, dim))
    diag = np.arange(dim)
    j = np.arange(dim, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        h[:, diag, diag] = freqs.w1 * j + freqs.w2 * (ell - j) + freqs.w3 * (m - j)
    k = np.arange(dim - 1)
    off = np.sqrt((k + 1) * (ell - k) * (m - k))
    h[:, k, k + 1] = off
    h[:, k + 1, k] = off
    return h[0] if isinstance(label, SubspaceLabel) else h
