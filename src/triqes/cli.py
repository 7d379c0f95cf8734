"""Command-line surface: spectra, plot-ready curves, verification, sweeps.

Commands: spectrum, basis, potential (alias wavefunction), verify, sweep.
Curves are written as CSV (header x,V,chi,prob), everything else as JSON.
Every output embeds a run manifest with the resolved parameters so that a
run can be reproduced exactly.  Exit codes: 0 success, 1 verification,
numerical or IO failure, 2 usage error (bad arguments only).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any

import numpy as np

from . import __version__
from .certify import SEXTIC_B, STAGES, certify_eigenpair, zero_mode_potential
from .fock import SubspaceLabel, subspace_basis
from .hamiltonian import ModeFrequencies, build_hamiltonian
from .heun import Branch, fock_to_rho_polynomial
from .schroedinger import (
    eval_potential,
    eval_wavefunction,
    potential_spec,
    wavefunction_spec,
)
from .spectra import eig_sym


def fmt(x: float) -> str:
    return f"{x:.15g}"


def _round15(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


@dataclass
class RunManifest:
    command: str
    params: dict[str, Any]
    version: str = __version__
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )

    def as_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "params": _round15(self.params),
            "version": self.version,
            "timestamp": self.timestamp,
        }


class UsageError(Exception):
    pass


def parse_w(text: str) -> ModeFrequencies:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--w expects three comma-separated numbers, got {text!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"cannot parse --w {text!r}: {exc}") from None
    try:
        return ModeFrequencies(*vals)
    except ValueError as exc:
        raise UsageError(f"bad --w {text!r}: {exc}") from None


def parse_label(ell: int, m: int) -> SubspaceLabel:
    try:
        return SubspaceLabel(ell, m)
    except ValueError as exc:
        raise UsageError(f"bad --l/--m: {exc}") from None


def parse_b(text: str) -> Fraction:
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse --b {text!r}: {exc}") from None
    if frac <= 0:
        raise UsageError(f"--b must be positive, got {text!r}")
    try:
        if float(frac) ** 2 > 0.0:  # every potential coefficient divides by b^2
            return frac
    except OverflowError:
        pass
    raise UsageError(
        f"--b {text!r} is out of range: b^2 must be a non-zero finite double"
    )


def parse_branch(text: str) -> Branch:
    try:
        return Branch(text)
    except ValueError:
        raise UsageError(f"--branch must be plus or minus, got {text!r}") from None


def _write_json(payload: dict[str, Any], out: str | None) -> None:
    text = json.dumps(_round15(payload), indent=2)
    if out is None:
        print(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise IOError(f"cannot write {out}: {exc}") from exc


def _write_csv(
    manifest: RunManifest, rows: list[tuple[float, float, float, float]], out: str | None
) -> None:
    lines = ["# manifest " + json.dumps(manifest.as_dict(), separators=(",", ":"))]
    lines.append("x,V,chi,prob")
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise IOError(f"cannot write {out}: {exc}") from exc


def _spectrum_payload(freqs: ModeFrequencies, label: SubspaceLabel) -> dict[str, Any]:
    ham = build_hamiltonian(freqs, label)
    spec = eig_sym(ham)
    basis = subspace_basis(label)
    return {
        "label": {"l": label.ell, "m": label.m, "k": label.k, "dim": label.dim},
        "basis": [[s.n_a, s.n_b, s.n_c] for s in basis],
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "eigenvectors": [list(map(float, spec.eigenvectors[:, i])) for i in range(spec.dim)],
    }


def cmd_spectrum(args: argparse.Namespace) -> int:
    freqs = parse_w(args.w)
    label = parse_label(args.l, args.m)
    manifest = RunManifest("spectrum", {"l": args.l, "m": args.m, "w": args.w})
    payload = {"manifest": manifest.as_dict(), **_spectrum_payload(freqs, label)}
    _write_json(payload, args.out)
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    label = parse_label(args.l, args.m)
    manifest = RunManifest("basis", {"l": args.l, "m": args.m})
    payload = {
        "manifest": manifest.as_dict(),
        "label": {"l": label.ell, "m": label.m, "k": label.k, "dim": label.dim},
        "basis": [[s.n_a, s.n_b, s.n_c] for s in subspace_basis(label)],
    }
    _write_json(payload, args.out)
    return 0


def _resolve_eigenpair(freqs, label, p_index):
    """Energy index p follows the worked tables: p = 1 is the largest eigenvalue."""
    if not (1 <= p_index <= label.dim):
        raise UsageError(f"--p must lie in 1..{label.dim}, got {p_index}")
    ham = build_hamiltonian(freqs, label)
    spec = eig_sym(ham)
    idx = label.dim - p_index
    return spec.pair(idx)


def _curve_rows(args, freqs, label, bfrac, branch):
    if args.points < 0:
        raise UsageError(f"--points must be >= 0, got {args.points}")
    if not 0.0 < args.xmin < args.xmax:
        raise UsageError(
            f"need 0 < --xmin < --xmax, got --xmin {args.xmin} --xmax {args.xmax}"
        )
    if args.shifted and bfrac != SEXTIC_B:
        raise UsageError("--shifted applies to b=1/2 only")
    energy, vec = _resolve_eigenpair(freqs, label, args.p)
    phi = fock_to_rho_polynomial(label, vec, branch)
    wf = wavefunction_spec(bfrac, freqs, label, phi)
    if args.shifted:
        vspec, lam = zero_mode_potential(bfrac, freqs, label, energy, branch)
    else:
        vspec = potential_spec(bfrac, freqs, label, energy, branch)
        lam = 0.0
    rows = []
    if args.points > 0:
        xs = np.linspace(args.xmin, args.xmax, args.points)
        vvals = np.asarray(eval_potential(vspec, xs))
        cvals = np.asarray(eval_wavefunction(wf, xs))
        rows = [
            (float(x), float(v), float(c), float(c * c))
            for x, v, c in zip(xs, vvals, cvals)
        ]
        if not all(np.isfinite(r).all() for r in map(np.asarray, rows)):
            raise IOError("non-finite values in curve output")
    return rows, energy, lam


def cmd_potential(args: argparse.Namespace) -> int:
    freqs = parse_w(args.w)
    label = parse_label(args.l, args.m)
    bfrac = parse_b(args.b)
    branch = parse_branch(args.branch)
    rows, energy, lam = _curve_rows(args, freqs, label, bfrac, branch)
    manifest = RunManifest(
        args.command,
        {
            "l": args.l, "m": args.m, "w": args.w, "b": str(bfrac),
            "branch": branch.value, "p": args.p, "xmin": args.xmin,
            "xmax": args.xmax, "points": args.points, "shifted": args.shifted,
            "energy": energy, "lambda": lam,
        },
    )
    if args.shifted:
        print(f"epsilon(E) = {fmt(lam)}", file=sys.stderr)
    if args.format == "json":
        payload = {
            "manifest": manifest.as_dict(),
            "columns": ["x", "V", "chi", "prob"],
            "rows": [list(r) for r in rows],
        }
        _write_json(payload, args.out)
    else:
        _write_csv(manifest, rows, args.out)
    return 0


def _verify_one(freqs, label, spec, bfrac, branch, energy_override=None,
                oracle=True, oracle_points=None):
    """JSON entries of every eigenpair of W(l, m) in `spec` under one (b, branch)."""
    checks = []
    for i in range(label.dim):
        energy, vec = spec.pair(i)
        used_energy = energy if energy_override is None else energy_override
        cert = certify_eigenpair(
            freqs, label, used_energy, vec, bfrac, branch, oracle, oracle_points
        )
        entry = {
            "p": label.dim - i,
            "energy": energy,
            "energy_used": used_energy,
            "lambda": cert.lam,
            "bhe_operator_residual": cert.bhe_operator_residual,
            "bhe_standard_residual": cert.bhe_standard_residual,
            "schrodinger_residual": cert.schrodinger_residual,
        }
        if cert.oracle is not None:
            entry["oracle_nearest"] = cert.oracle.nearest
            entry["oracle_richardson_gap"] = cert.oracle.richardson_gap
            entry["oracle_hit"] = cert.oracle.hit
            entry["oracle_points"] = cert.oracle.n_points
            entry["oracle_h"] = cert.oracle.h
            entry["oracle_solves"] = cert.oracle.solves
        entry["failed"] = list(cert.failed)
        entry["pass"] = cert.passed
        checks.append(entry)
    return checks


def _b2_zero_search(freqs, label, branch):
    """Search w3 values that null the x^(-3/2) term of the b=2 potential.

    The coefficient (A B - 2 D)/(2 b^2) depends on w3 both directly and
    through the eigenvalue, so each energy index gets a root search (Brent)
    over w3 within 10 of the given w3, where the coefficient changes sign.
    """
    # imported here: scipy.optimize adds ~0.15 s and ~19 MB to every CLI
    # start, and only --find-b2-zero needs it
    from scipy.optimize import brentq

    def coeff(w3: float, idx: int) -> float:
        f = ModeFrequencies(freqs.w1, freqs.w2, w3)
        spectrum = eig_sym(build_hamiltonian(f, label))
        energy = float(spectrum.eigenvalues[idx])
        vspec = potential_spec(Fraction(2), f, label, energy, branch)
        return vspec.coeffs[1]

    results = []
    for idx in range(label.dim):
        lo, hi = freqs.w3 - 10.0, freqs.w3 + 10.0
        found = None
        if coeff(lo, idx) * coeff(hi, idx) <= 0.0:
            found = brentq(coeff, lo, hi, args=(idx,))
        results.append(
            {
                "p": label.dim - idx,
                "w3_zeroing_term": found,
                "residual_coefficient": None if found is None else coeff(found, idx),
            }
        )
    return results


def cmd_verify(args: argparse.Namespace) -> int:
    freqs = parse_w(args.w)
    label = parse_label(args.l, args.m)
    bfrac = parse_b(args.b)
    branch = parse_branch(args.branch)
    if args.energy_override is not None and not math.isfinite(args.energy_override):
        raise UsageError(f"--energy-override must be finite, got {args.energy_override}")
    spec = eig_sym(build_hamiltonian(freqs, label))
    checks = _verify_one(
        freqs, label, spec, bfrac, branch,
        energy_override=args.energy_override,
        oracle=not args.no_oracle,
    )
    all_pass = all(c["pass"] for c in checks)
    manifest = RunManifest(
        "verify",
        {
            "l": args.l, "m": args.m, "w": args.w, "b": str(bfrac),
            "branch": branch.value, "energy_override": args.energy_override,
        },
    )
    payload = {"manifest": manifest.as_dict(), "checks": checks, "pass": all_pass}
    if args.find_b2_zero:
        payload["b2_zero_search"] = _b2_zero_search(freqs, label, branch)
    _write_json(payload, args.out)
    return 0 if all_pass else 1


def _sweep_record(ell, m, bfrac, branch, checks):
    """One sweep tuple: its verdict, the stages any eigenpair failed and the
    worst value of each residual."""
    keys = ["bhe_operator_residual", "bhe_standard_residual", "schrodinger_residual"]
    if "oracle_richardson_gap" in checks[0]:
        keys.append("oracle_richardson_gap")
    return {
        "l": ell, "m": m, "b": str(bfrac), "branch": branch.value,
        "pass": all(c["pass"] for c in checks),
        "failed": [s for s in STAGES if any(s in c["failed"] for c in checks)],
        "worst": {k: max(c[k] for c in checks) for k in keys},
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    freqs = parse_w(args.w)
    if not (0 <= args.lmax <= 20 and 0 <= args.mmax <= 20):
        raise UsageError("sweep bounds are limited to 0 <= l, m <= 20")
    if args.oracle_points is not None and args.oracle_points < 100:
        raise UsageError(f"--oracle-points must be >= 100, got {args.oracle_points}")
    b_values = sorted({parse_b(tok) for tok in args.b.split(",")})
    branches = [parse_branch(args.branch)] if args.branch else [Branch.PLUS, Branch.MINUS]
    results = []
    for ell in range(args.lmax + 1):
        for m in range(args.mmax + 1):
            label = SubspaceLabel(ell, m)
            spec = eig_sym(build_hamiltonian(freqs, label))
            for bf in b_values:
                for br in branches:
                    checks = _verify_one(
                        freqs, label, spec, bf, br,
                        oracle=not args.no_oracle, oracle_points=args.oracle_points,
                    )
                    results.append(_sweep_record(ell, m, bf, br, checks))
    results.sort(key=lambda r: (r["l"], r["m"], Fraction(r["b"]), r["branch"]))
    all_pass = all(r["pass"] for r in results)
    manifest = RunManifest(
        "sweep",
        {
            "lmax": args.lmax, "mmax": args.mmax, "w": args.w, "b": args.b,
            "branch": args.branch,
        },
    )
    payload = {
        "manifest": manifest.as_dict(),
        "tuples": results,
        "count": len(results),
        "pass": all_pass,
    }
    _write_json(payload, args.out)
    for r in results:
        status = "pass" if r["pass"] else f"FAIL ({', '.join(r['failed'])})"
        print(
            f"l={r['l']} m={r['m']} b={r['b']} {r['branch']:>5}: {status}",
            file=sys.stderr,
        )
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triqes",
        description="Trilinear boson model -> BHE -> quasi-exactly solvable potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, curve=False):
        p.add_argument("--l", type=int, required=True, help="L eigenvalue (>= 0)")
        p.add_argument("--m", type=int, required=True, help="M eigenvalue (>= 0)")
        p.add_argument("--w", default="1,1,1", help="scaled frequencies w1,w2,w3")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if curve:
            p.add_argument("--b", default="1", help="transformation exponent p/q")
            p.add_argument("--branch", default="plus", choices=["plus", "minus"])
            p.add_argument("--p", type=int, default=1,
                           help="energy index, 1 = largest eigenvalue")
            p.add_argument("--xmin", type=float, default=0.05)
            p.add_argument("--xmax", type=float, default=4.0)
            p.add_argument("--points", type=int, default=400)
            p.add_argument("--shifted", action="store_true",
                           help="b=1/2 only: displaced sextic and eps(E)")
            p.add_argument("--format", default="csv", choices=["csv", "json"])

    p_spec = sub.add_parser("spectrum", help="eigenvalues and eigenvectors")
    common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_basis = sub.add_parser("basis", help="canonical Fock basis of W(l, m)")
    common(p_basis)
    p_basis.set_defaults(func=cmd_basis)

    p_pot = sub.add_parser("potential", aliases=["wavefunction"],
                           help="potential/wavefunction curve CSV")
    common(p_pot, curve=True)
    p_pot.set_defaults(func=cmd_potential)

    p_ver = sub.add_parser("verify", help="run all certifications for one tuple")
    common(p_ver)
    p_ver.add_argument("--b", default="1/2", help="transformation exponent p/q")
    p_ver.add_argument("--branch", default="plus", choices=["plus", "minus"])
    p_ver.add_argument("--energy-override", type=float, default=None,
                       help="inject a wrong energy to watch the checks fail")
    p_ver.add_argument("--no-oracle", action="store_true",
                       help="skip the finite-difference containment check")
    p_ver.add_argument("--find-b2-zero", action="store_true",
                       help="search w3 values nulling the b=2 x^(-3/2) term")
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="verification matrix over (l, m)")
    p_sweep.add_argument("--lmax", type=int, default=2)
    p_sweep.add_argument("--mmax", type=int, default=2)
    p_sweep.add_argument("--w", default="1,1,1")
    p_sweep.add_argument("--b", default="1,1/2", help="comma list of exponents")
    p_sweep.add_argument("--branch", default=None, choices=["plus", "minus"],
                         help="restrict to one branch (default: both)")
    p_sweep.add_argument("--no-oracle", action="store_true")
    p_sweep.add_argument("--oracle-points", type=int, default=None,
                         help="fd oracle grid size (default: sized by domain)")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError, OSError) as exc:
        # numerical failures and IO errors: the arguments were fine
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
