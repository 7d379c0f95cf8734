#!/usr/bin/env python3
"""Full certification table for the two worked examples.

Runs, for every eigenpair of W(1,1) and W(3,2) at w = (1,1,1), every
transformation exponent b in {1, 1/2, 3/2, 2} and both branches, the
certification pipeline, one `triqes.certify_subspace` call over both
subspaces, both branches and the four exponents: exact BHE residuals, the
ladder link of V_b (which with them certifies the zero mode's
Schroedinger equation), and the independent finite-difference containment
check.  Each row reads its subspace's
`Certificate` at [branch, b, column].

Usage: python scripts/certify_worked_examples.py
"""

import argparse
import sys
from fractions import Fraction

from triqes import (
    Branch,
    ModeFrequencies,
    SubspaceLabel,
    build_hamiltonian,
    certify_subspace,
    eig_sym,
)

W = ModeFrequencies(1.0, 1.0, 1.0)
B_VALUES = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)]


def main() -> int:
    argparse.ArgumentParser(
        description="Print the certification table of the two worked examples."
    ).parse_args()
    all_ok = True
    header = f"{'subspace':>9} {'p':>2} {'E':>9} {'b':>4} {'branch':>6} " \
             f"{'bhe':>8} {'link':>8} {'oracle':>8} ok"
    print(header)
    print("-" * len(header))
    labels = [SubspaceLabel(1, 1), SubspaceLabel(3, 2)]
    spectra = [eig_sym(build_hamiltonian(W, label)) for label in labels]
    certs = dict(certify_subspace(
        W, [(label, sp.eigenvalues, sp.eigenvectors) for label, sp in zip(labels, spectra)],
        B_VALUES, list(Branch), oracle={},
    ))
    for n, (label, spectrum) in enumerate(zip(labels, spectra)):
        ell, m, cert = label.ell, label.m, certs[n]
        all_ok &= bool(cert.passed.all())
        for i in range(label.dim):
            energy = float(spectrum.eigenvalues[i])
            for j, branch in enumerate(Branch):
                for k, b in enumerate(B_VALUES):
                    idx = (j, k, i)
                    bhe_rel = max(
                        cert.bhe_operator_residual[idx], cert.bhe_standard_residual[idx]
                    )
                    print(
                        f"{f'W({ell},{m})':>9} {label.dim - i:>2} {energy:>9.5f} "
                        f"{str(b):>4} {branch.value:>6} {bhe_rel:>8.1e} "
                        f"{cert.schrodinger_residual[idx]:>8.1e} "
                        f"{cert.oracle[idx].richardson_gap:>8.1e} "
                        f"{'y' if cert.passed[idx] else 'N'}"
                    )
    print("-" * len(header))
    print("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
