"""Dense real-symmetric eigensolver with residual certification.

The solve is LAPACK's symmetric eigensolver via ``numpy.linalg.eigh``;
the matrices here are tiny (d <= 33 under the l + m <= 64 label cap).
No accuracy is assumed of it: the guarantee is the residual certificate
||H v - E v|| <= 1e-10 ||H||_F, checked for every pair before a spectrum
is returned.  `eig_sym` takes one matrix or a stack [matrix, d, d], such
as `build_hamiltonian` returns for labels of one dimension; a stack is
one ``eigh`` call, with every check and the sign fix applied to each
matrix, and each matrix's result is bit for bit the one it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import check_finite

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues paired with unit-norm eigenvector columns; for
    a stack, a leading axis indexes the matrices."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[..., i]

    def pair(self, i: int) -> tuple[float, np.ndarray]:
        return float(self.eigenvalues[i]), self.eigenvectors[:, i]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column positive, in
    one matrix or in each matrix of a stack [..., row, column].

    Ties on the magnitude are broken by the lowest index, argmax's first
    maximizer.  Negation is exact, so no other bit moves.
    """
    if not vectors.size:
        return vectors.copy()
    rows = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    top = np.take_along_axis(vectors, rows, axis=-2)
    return vectors * np.where(top < 0, -1.0, 1.0)


def eig_sym(h: np.ndarray) -> Spectrum:
    """Eigendecomposition of a symmetric matrix, ascending eigenvalues.

    A stack [matrix, d, d] is solved in one call: eigenvalues [matrix, d]
    and eigenvectors [matrix, d, d], each matrix's bit for bit those it
    gives alone.  Certifies ||H v - E v|| <= 1e-10 ||H||_F for every pair
    of every matrix and raises if any matrix is not square, not finite or
    not exactly symmetric, or if its ||H||_F overflows a double.
    """
    a = np.asarray(h, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite input")
    # eigh reads one triangle only, so an asymmetric input would be solved
    # as some other matrix
    if not np.array_equal(a, np.swapaxes(a, -2, -1)):
        raise ValueError("expected a symmetric matrix")
    # ||H||_F of each matrix as np.linalg.norm(H) forms it, one flat dot
    # product; finite entries near the double range can still square past it
    flat = a.reshape(*a.shape[:-2], 1, -1)
    with np.errstate(over="ignore"):
        scale = np.maximum(np.sqrt(flat @ np.swapaxes(flat, -2, -1))[..., 0, 0], 1.0)
    check_finite("||H||_F", scale)
    vals, vecs = np.linalg.eigh(a)
    vecs = _fix_signs(vecs)
    residual = np.linalg.norm(a @ vecs - vecs * vals[..., None, :], axis=-2)
    if np.any(residual > RESIDUAL_TOL * scale[..., None]):
        raise AssertionError(
            f"eigenpair residual {residual.max():.3e} exceeds {RESIDUAL_TOL:.0e} * ||H||_F"
        )
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)
