"""Restricted Hamiltonian matrices on the invariant subspaces.

H = w1 N_a + w2 N_b + w3 N_c + a+ b c + a b+ c+ restricted to W(l, m)
is a real symmetric tridiagonal matrix in the canonical basis (n_a
ascending).  Matrices are stored dense; dimensions never exceed 33, since
min(l, m) + 1 <= 33 when l + m <= 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockState, SubspaceLabel, apply_interaction, subspace_basis


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


@dataclass(frozen=True)
class RestrictedHamiltonian:
    """Dense symmetric matrix of H on W(ell, m) in the canonical basis."""

    label: SubspaceLabel
    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def diagonal_energy(freqs: ModeFrequencies, state: FockState) -> float:
    return freqs.w1 * state.n_a + freqs.w2 * state.n_b + freqs.w3 * state.n_c


def build_hamiltonian(freqs: ModeFrequencies, label: SubspaceLabel) -> RestrictedHamiltonian:
    """Assemble H restricted to W(ell, m).

    The diagonal carries the mode energies; off-diagonal entries come from
    the interaction amplitudes.  Each amplitude is written symmetrically
    into (u, v) and (v, u), so the result is exactly symmetric.
    """
    basis = subspace_basis(label)
    index = {s: i for i, s in enumerate(basis)}
    d = len(basis)
    h = np.zeros((d, d))
    for i, state in enumerate(basis):
        h[i, i] = diagonal_energy(freqs, state)
        for w in apply_interaction(state):
            j = index.get(w.state)
            if j is None:
                raise AssertionError(
                    f"interaction left the subspace: {state} -> {w.state}"
                )
            if j > i:
                h[i, j] = w.amplitude
                h[j, i] = w.amplitude
    return RestrictedHamiltonian(label=label, entries=h)
