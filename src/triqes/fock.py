"""Three-mode Fock-state combinatorics for the trilinear boson model.

The model conserves L = N_a + N_b and M = N_a + N_c, so the Fock space
splits into finite invariant subspaces W(l, m) of dimension min(l, m) + 1.
This module enumerates those subspaces and applies the cubic interaction
a+ b c + a b+ c+ to individual basis states, the state-by-state reference
for the closed-form bands of `hamiltonian.build_hamiltonian`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Subspace labels are capped so that interaction amplitudes and the
# downstream factorial weights stay comfortably inside double precision.
MAX_TOTAL_LABEL = 64


@dataclass(frozen=True)
class FockState:
    """Number state |n_a, n_b, n_c> of the three bosonic modes."""

    n_a: int
    n_b: int
    n_c: int

    def __post_init__(self) -> None:
        if min(self.n_a, self.n_b, self.n_c) < 0:
            raise ValueError(f"occupation numbers must be >= 0, got {self}")


@dataclass(frozen=True)
class SubspaceLabel:
    """Invariant subspace W(ell, m) tagged by the L and M eigenvalues.

    Derived quantities:
      k        max(ell, m), the power split off the polynomial carrier
      dim      min(ell, m) + 1, the subspace dimension
      n_prime  min(ell, m), the polynomial degree of the reduced solution
    """

    ell: int
    m: int

    def __post_init__(self) -> None:
        if self.ell < 0 or self.m < 0:
            raise ValueError(f"subspace labels must be >= 0, got ({self.ell}, {self.m})")
        if self.ell + self.m > MAX_TOTAL_LABEL:
            raise ValueError(
                f"ell + m = {self.ell + self.m} exceeds supported cap {MAX_TOTAL_LABEL}"
            )

    @property
    def k(self) -> int:
        return max(self.ell, self.m)

    @property
    def dim(self) -> int:
        return min(self.ell, self.m) + 1

    @property
    def n_prime(self) -> int:
        return min(self.ell, self.m)


@dataclass(frozen=True)
class WeightedState:
    """A Fock state carrying a real amplitude."""

    amplitude: float
    state: FockState


def symmetry_eigenvalues(state: FockState) -> tuple[int, int]:
    """Return (l, m) eigenvalues of L = N_a + N_b and M = N_a + N_c."""
    return state.n_a + state.n_b, state.n_a + state.n_c


def subspace_basis(label: SubspaceLabel) -> list[FockState]:
    """Canonical basis of W(ell, m), ordered by ascending n_a.

    State j is |j, ell - j, m - j| for j = 0 .. min(ell, m).
    """
    return [
        FockState(j, label.ell - j, label.m - j) for j in range(label.n_prime + 1)
    ]


def apply_interaction(state: FockState) -> list[WeightedState]:
    """Apply a+ b c + a b+ c+ to a Fock state.

    Returns at most two weighted images; terms with zero amplitude are
    omitted.  Amplitudes are square roots of exact integer products.
    """
    out: list[WeightedState] = []
    n_a, n_b, n_c = state.n_a, state.n_b, state.n_c
    if n_b > 0 and n_c > 0:
        amp = math.sqrt((n_a + 1) * n_b * n_c)
        out.append(WeightedState(amp, FockState(n_a + 1, n_b - 1, n_c - 1)))
    if n_a > 0:
        amp = math.sqrt(n_a * (n_b + 1) * (n_c + 1))
        out.append(WeightedState(amp, FockState(n_a - 1, n_b + 1, n_c + 1)))
    return out
