#!/usr/bin/env python3
"""Export the plot data for the seven worked-example figures as CSV.

Figures 1-2: quarkonium-type V_1 for (l, m) = (1, 1), both branches.
Figures 3, 3b: displaced sextic for (1, 1), both branches.
Figures 4-6: V_1 for (3, 2), one curve per energy.
Figure 7: displaced sextic for (3, 2).

Usage: python scripts/export_figure_data.py [outdir]
"""

import argparse
import pathlib
import sys

from triqes.cli import main as cli_main

CONFIGS = [
    ("fig1_left", 1, 1, "1", 1, "plus", False),
    ("fig1_right", 1, 1, "1", 2, "plus", False),
    ("fig2_left", 1, 1, "1", 1, "minus", False),
    ("fig2_right", 1, 1, "1", 2, "minus", False),
    ("fig3_ground", 1, 1, "1/2", 2, "plus", True),
    ("fig3_excited", 1, 1, "1/2", 1, "plus", True),
    ("fig3b_ground", 1, 1, "1/2", 2, "minus", True),
    ("fig3b_excited", 1, 1, "1/2", 1, "minus", True),
    ("fig4", 3, 2, "1", 1, "plus", False),
    ("fig5", 3, 2, "1", 2, "plus", False),
    ("fig6", 3, 2, "1", 3, "plus", False),
    ("fig7_p1", 3, 2, "1/2", 1, "plus", True),
    ("fig7_p2", 3, 2, "1/2", 2, "plus", True),
    ("fig7_p3", 3, 2, "1/2", 3, "plus", True),
]


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Export the seven worked-example figures' plot data as CSV."
    )
    parser.add_argument("outdir", nargs="?", default="figure_data",
                        help="output directory (default figure_data)")
    outdir = pathlib.Path(parser.parse_args().outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, ell, m, b, p, branch, shifted in CONFIGS:
        argv = [
            "potential", "--l", str(ell), "--m", str(m), "--w", "1,1,1",
            "--b", b, "--p", str(p), "--branch", branch,
            "--xmin", "0.02", "--xmax", "3.5", "--points", "1000",
            "--out", str(outdir / f"{name}.csv"),
        ]
        if shifted:
            argv.append("--shifted")
        code = cli_main(argv)
        if code != 0:
            return code
        print(f"wrote {outdir / (name + '.csv')}")
    print("plot recipe: x vs V (solid) and x vs prob (dashed), e.g.")
    print("  python -c \"import pandas as pd, matplotlib.pyplot as plt; "
          "d = pd.read_csv('figure_data/fig1_left.csv', comment='#'); "
          "plt.plot(d.x, d.V); plt.plot(d.x, d.prob, '--'); plt.show()\"")
    return 0


if __name__ == "__main__":
    sys.exit(main())
