"""Dense real-symmetric eigensolver with residual certification.

The solve is LAPACK's symmetric eigensolver via ``numpy.linalg.eigh``;
the matrices here are tiny (d <= 33).  No accuracy is assumed of it: the
guarantee is the residual certificate ||H v - E v|| <= 1e-10 ||H||_F,
checked for every pair before a spectrum is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import check_finite

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues paired with unit-norm eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]

    def pair(self, i: int) -> tuple[float, np.ndarray]:
        return float(self.eigenvalues[i]), self.eigenvectors[:, i]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column positive.

    Ties on the magnitude are broken by the lowest index, argmax's first
    maximizer.  Negation is exact, so no other bit moves.
    """
    if not vectors.size:
        return vectors.copy()
    top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(top < 0, -1.0, 1.0)


def eig_sym(h: np.ndarray) -> Spectrum:
    """Eigendecomposition of a symmetric matrix, ascending eigenvalues.

    Certifies ||H v - E v|| <= 1e-10 ||H||_F for every pair and raises if
    the input is not square, not finite or not exactly symmetric, or if
    ||H||_F overflows a double.
    """
    a = np.asarray(h, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite input")
    # eigh reads one triangle only, so an asymmetric input would be solved
    # as some other matrix
    if not np.array_equal(a, a.T):
        raise ValueError("expected a symmetric matrix")
    # finite entries near the double range can still square past it
    with np.errstate(over="ignore"):
        scale = max(np.linalg.norm(a), 1.0)
    check_finite("||H||_F", scale)
    vals, vecs = np.linalg.eigh(a)
    vecs = _fix_signs(vecs)
    residual = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
    if np.any(residual > RESIDUAL_TOL * scale):
        raise AssertionError(
            f"eigenpair residual {residual.max():.3e} exceeds {RESIDUAL_TOL:.0e} * ||H||_F"
        )
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)
