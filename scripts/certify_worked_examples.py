#!/usr/bin/env python3
"""Full certification table for the two worked examples.

Runs, for every eigenpair of W(1,1) and W(3,2) at w = (1,1,1), every
transformation exponent b in {1, 1/2, 3/2, 2} and both branches:
exact BHE residuals, the Schroedinger residual, and the independent
finite-difference containment check.
"""

import sys
from fractions import Fraction

from triqes import (
    Branch,
    ModeFrequencies,
    SubspaceLabel,
    bhe_operator_residual,
    bhe_params,
    bhe_standard_residual,
    build_hamiltonian,
    contains_eigenvalue,
    eig_sym,
    fock_to_rho_polynomial,
    oracle_config,
    potential_spec,
    schrodinger_residual,
    split_sextic,
    wavefunction_spec,
)
from triqes.schroedinger import certification_grid

W = ModeFrequencies(1.0, 1.0, 1.0)
B_VALUES = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)]


def main() -> int:
    all_ok = True
    header = f"{'subspace':>9} {'p':>2} {'E':>9} {'b':>4} {'branch':>6} " \
             f"{'bhe':>8} {'schrod':>8} {'order':>6} {'oracle':>8} ok"
    print(header)
    print("-" * len(header))
    for ell, m in ((1, 1), (3, 2)):
        label = SubspaceLabel(ell, m)
        spectrum = eig_sym(build_hamiltonian(W, label))
        for i in range(label.dim):
            energy, vec = spectrum.pair(i)
            for branch in Branch:
                phi = fock_to_rho_polynomial(label, vec, branch)
                scale = max(abs(c) for c in phi.coeffs)
                op = bhe_operator_residual(W, label, energy, phi)
                std = bhe_standard_residual(bhe_params(W, label, energy, branch), phi)
                bhe_rel = max(max(abs(x) for x in op), max(abs(x) for x in std)) / scale
                for b in B_VALUES:
                    wf = wavefunction_spec(b, W, label, phi)
                    if b == Fraction(1, 2):
                        vspec, eps = split_sextic(W, label, branch)
                        lam = eps(energy)
                    else:
                        vspec = potential_spec(b, W, label, energy, branch)
                        lam = 0.0
                    grid = certification_grid(vspec, wf, lam)
                    rep = schrodinger_residual(vspec, wf, lam, grid)
                    cont = contains_eigenvalue(vspec, oracle_config(vspec, lam), lam)
                    ok = (
                        bhe_rel <= 1e-10
                        and rep.passes()
                        and cont.hit
                    )
                    all_ok &= ok
                    print(
                        f"{f'W({ell},{m})':>9} {label.dim - i:>2} {energy:>9.5f} "
                        f"{str(b):>4} {branch.value:>6} {bhe_rel:>8.1e} "
                        f"{rep.residual:>8.1e} {rep.order:>6.2f} "
                        f"{cont.richardson_gap:>8.1e} {'y' if ok else 'N'}"
                    )
    print("-" * len(header))
    print("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
