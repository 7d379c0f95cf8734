#!/usr/bin/env python3
"""Full certification table for the two worked examples.

Runs, for every eigenpair of W(1,1) and W(3,2) at w = (1,1,1), from one
`triqes.solve_subspaces` call, every transformation exponent b in
{1, 1/2, 3/2, 2} and both branches, the certification pipeline, one
`triqes.certify_batch` call over both subspaces, both branches and the
four exponents: the exact BHE residual, the ladder link of V_b (which
with it certifies the zero mode's Schroedinger equation), and the
independent finite-difference containment check.  Each row reads the batch `Certificate` at [branch, b, pair], the
pair of column i of subspace n being ends[n] + i.

Usage: python scripts/certify_worked_examples.py
"""

import argparse
import sys
from fractions import Fraction

from triqes import Branch, ModeFrequencies, SubspaceLabel, certify_batch, solve_subspaces

W = ModeFrequencies(1.0, 1.0, 1.0)
B_VALUES = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)]


def main() -> int:
    argparse.ArgumentParser(
        description="Print the certification table of the two worked examples."
    ).parse_args()
    header = f"{'subspace':>9} {'p':>2} {'E':>9} {'b':>4} {'branch':>6} " \
             f"{'bhe':>8} {'link':>8} {'oracle':>8} ok"
    print(header)
    print("-" * len(header))
    subspaces = solve_subspaces(W, [SubspaceLabel(1, 1), SubspaceLabel(3, 2)])
    cert, ends = certify_batch(W, subspaces, B_VALUES, list(Branch), oracle=True)
    all_ok = bool(cert.passed.all())
    for n, (label, energies, _) in enumerate(subspaces):
        ell, m = label.ell, label.m
        for i in range(label.dim):
            energy = float(energies[i])
            for j, branch in enumerate(Branch):
                for k, b in enumerate(B_VALUES):
                    idx = (j, k, ends[n] + i)
                    print(
                        f"{f'W({ell},{m})':>9} {label.dim - i:>2} {energy:>9.5f} "
                        f"{str(b):>4} {branch.value:>6} "
                        f"{cert.bhe_operator_residual[idx]:>8.1e} "
                        f"{cert.schrodinger_residual[idx]:>8.1e} "
                        f"{cert.oracle[idx].richardson_gap:>8.1e} "
                        f"{'y' if cert.passed[idx] else 'N'}"
                    )
    print("-" * len(header))
    print("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
