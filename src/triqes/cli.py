"""Command-line surface: spectra, plot-ready curves, verification, sweeps.

Commands: spectrum, basis, potential (alias wavefunction), verify, sweep.
Curves are written as CSV (header x,V,chi,prob), everything else as JSON.
Every output embeds a run manifest, built from the parsed arguments, so that
a run can be reproduced exactly.  Exit codes: 0 success, 1 verification,
numerical or IO failure, 2 usage error (bad arguments only).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any, Iterable

import numpy as np

from . import __version__
from .certify import STAGES, Certificate, OracleMemo, certify_subspace
from .fock import SubspaceLabel, subspace_basis
from .hamiltonian import ModeFrequencies, build_hamiltonian
from .heun import Branch, rho_coefficients
from .schroedinger import (
    SEXTIC_B,
    admissible_b,
    eval_potential,
    eval_wavefunction,
    potential_specs,
    zero_mode_envelope,
    zero_mode_potentials,
)
from .spectra import eig_sym


def fmt(x: float) -> str:
    return f"{x:.15g}"


_json_str = json.encoder.encode_basestring_ascii
_JSON_BOOL = {True: "true", False: "false"}
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _round15(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


def _manifest(args: argparse.Namespace, **resolved: Any) -> dict[str, Any]:
    """Run manifest: every parsed argument except the command and the output
    choices, in parser order; `resolved` values replace the typed ones in
    place, and new keys are appended."""
    params = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "func", "out", "format")
    }
    params.update(resolved)
    return {
        "command": args.command,
        "params": params,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
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
    try:
        admissible_b(frac)
    except ValueError as exc:
        raise UsageError(f"bad --b {text!r}: {exc}") from None
    return frac


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {out}: {exc}") from exc


def _write_json(payload: dict[str, Any], out: str | None) -> None:
    _write_text(json.dumps(_round15(payload), indent=2) + "\n", out)


# normal doubles whose 15-digit rounding is below 1e15: from there on
# %.15g writes an exponent where repr writes every digit
_FAST_FLOATS = (sys.float_info.min, 999999999999999.5)


def _json_float(x: float) -> str:
    """`x` rounded to 15 digits and written as `json` writes a float."""
    if _FAST_FLOATS[0] <= abs(x) < _FAST_FLOATS[1]:
        # 15 <= DBL_DIG digits of a normal double are the shortest repr of
        # their own rounding; %g only drops the ".0" of a whole number
        text = "%.15g" % x
        return text if "." in text or "e" in text else text + ".0"
    text = repr(float(fmt(x)))
    return _JSON_NONFINITE.get(text, text)


def _json_block(items: list[str], brackets: str, indent: int) -> str:
    """A list or object of already encoded `items` in `json`'s indent=2
    layout, its closing bracket at column `indent`."""
    if not items:
        return brackets
    pad = "\n" + " " * (indent + 2)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * indent + brackets[1]


_WORST_KEYS = ("bhe_operator_residual", "bhe_standard_residual", "schrodinger_residual")

# one sweep tuple, by whether the oracle ran
_SWEEP_TUPLE = {
    oracle: """{
      "l": %d,
      "m": %d,
      "b": %s,
      "branch": %s,
      "pass": %s,
      "failed": %s,
      "worst": """ + _json_block(
        [f"{_json_str(k)}: %s" for k in _WORST_KEYS + ("oracle_richardson_gap",) * oracle],
        "{}", 6,
    ) + "\n    }"
    for oracle in (False, True)
}


def _verdict(stages: list[str]) -> tuple[str, str, str]:
    return (
        _JSON_BOOL[not stages],
        _json_block([_json_str(s) for s in stages], "[]", 6),
        f"FAIL ({', '.join(stages)})" if stages else "pass",
    )


# a tuple's "pass" and "failed" and its status line, by the bit pattern of
# its failed stages (bit k for STAGES[k])
_VERDICTS = [
    _verdict([s for k, s in enumerate(STAGES) if bits >> k & 1])
    for bits in range(1 << len(STAGES))
]
_STAGE_BITS = (1 << np.arange(len(STAGES)))[:, None, None]


def _sweep_text(
    manifest: dict[str, Any],
    certified: Iterable[tuple[SubspaceLabel, Certificate]],
    b_values: list[Fraction],
    branches: list[Branch],
) -> tuple[str, str, bool]:
    """`sweep`'s file, its stderr status lines and its verdict, from the
    `Certificate` of each label in sweep order.

    The file is, byte for byte, what `_write_json` writes for the payload
    (manifest, tuples, count, pass): the manifest through `json`, each
    tuple in (l, m, b, branch) order from one template, with its verdict,
    the stages any eigenpair failed and the worst value of each residual.
    """
    bs = [(str(b), _json_str(str(b))) for b in b_values]
    brs = [(br.value, _json_str(br.value)) for br in branches]
    tuples, status, all_pass = [], [], True
    for label, cert in certified:
        worst = [getattr(cert, k).max(axis=2).tolist() for k in _WORST_KEYS]
        if cert.oracle is not None:
            worst.append([
                [max(c.richardson_gap for c in cols) for cols in per_b]
                for per_b in cert.oracle
            ])
        patterns = (cert.failed.any(axis=3) * _STAGE_BITS).sum(axis=0).tolist()
        template = _SWEEP_TUPLE[cert.oracle is not None]
        for j, (b, b_json) in enumerate(bs):
            for i, (branch, branch_json) in enumerate(brs):
                passed, failed, verdict = _VERDICTS[patterns[i][j]]
                tuples.append(template % (
                    label.ell, label.m, b_json, branch_json, passed, failed,
                    *[_json_float(w[i][j]) for w in worst],
                ))
                status.append(f"l={label.ell} m={label.m} b={b} {branch:>5}: {verdict}\n")
                all_pass &= not patterns[i][j]
    manifest_text = json.dumps(_round15(manifest), indent=2).replace("\n", "\n  ")
    text = '{\n  "manifest": %s,\n  "tuples": %s,\n  "count": %d,\n  "pass": %s\n}\n' % (
        manifest_text, _json_block(tuples, "[]", 2), len(tuples), _JSON_BOOL[all_pass],
    )
    return text, "".join(status), all_pass


def _basis_payload(args: argparse.Namespace, label: SubspaceLabel) -> dict[str, Any]:
    return {
        "manifest": _manifest(args),
        "label": {"l": label.ell, "m": label.m, "k": label.k, "dim": label.dim},
        "basis": [[s.n_a, s.n_b, s.n_c] for s in subspace_basis(label)],
    }


def cmd_spectrum(args: argparse.Namespace) -> int:
    freqs = parse_w(args.w)
    label = parse_label(args.l, args.m)
    spec = eig_sym(build_hamiltonian(freqs, label))
    payload = _basis_payload(args, label)
    payload["eigenvalues"] = spec.eigenvalues.tolist()
    payload["eigenvectors"] = spec.eigenvectors.T.tolist()
    _write_json(payload, args.out)
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    _write_json(_basis_payload(args, parse_label(args.l, args.m)), args.out)
    return 0


def cmd_potential(args: argparse.Namespace) -> int:
    freqs = parse_w(args.w)
    label = parse_label(args.l, args.m)
    bfrac = parse_b(args.b)
    branch = Branch(args.branch)
    if args.points < 0:
        raise UsageError(f"--points must be >= 0, got {args.points}")
    if not 0.0 < args.xmin < args.xmax:
        raise UsageError(
            f"need 0 < --xmin < --xmax, got --xmin {args.xmin} --xmax {args.xmax}"
        )
    if args.shifted and bfrac != SEXTIC_B:
        raise UsageError("--shifted applies to b=1/2 only")
    # the energy index follows the worked tables: p = 1 is the largest eigenvalue
    if not (1 <= args.p <= label.dim):
        raise UsageError(f"--p must lie in 1..{label.dim}, got {args.p}")
    energy, vec = eig_sym(build_hamiltonian(freqs, label)).pair(label.dim - args.p)
    phi = rho_coefficients(label, vec[:, None], branch)[:, 0]
    pref, a_ = zero_mode_envelope(bfrac, freqs, label, branch)
    if args.shifted:
        (vspec,), (lam,) = zero_mode_potentials(bfrac, freqs, label, [energy], branch)
    else:
        vspec, lam = potential_specs(bfrac, freqs, label, [energy], branch)[0], 0.0
    xs = np.linspace(args.xmin, args.xmax, args.points)
    with np.errstate(all="ignore"):  # the finiteness check below reports
        vvals = eval_potential(vspec, xs)
        chi = eval_wavefunction(bfrac, pref, a_, phi, xs)
        table = np.stack([xs, vvals, chi, chi * chi], axis=1)
    if not np.isfinite(table).all():
        raise IOError("non-finite values in curve output")
    manifest = _manifest(args, b=str(bfrac), energy=energy, **{"lambda": lam})
    if args.shifted:
        print(f"epsilon(E) = {fmt(lam)}", file=sys.stderr)
    rows = table.tolist()
    if args.format == "json":
        columns = ["x", "V", "chi", "prob"]
        _write_json({"manifest": manifest, "columns": columns, "rows": rows}, args.out)
    else:
        lines = ["# manifest " + json.dumps(_round15(manifest), separators=(",", ":"))]
        lines.append("x,V,chi,prob")
        lines += [",".join(map(fmt, row)) for row in rows]
        _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _check_entry(p, energy, energy_used, cert, i):
    """JSON entry of column i of a one-b, one-branch `cert`; p = 1 is the top E."""
    entry = {
        "p": p,
        "energy": energy,
        "energy_used": energy_used,
        "lambda": cert.lam[0, 0, i],
        "bhe_operator_residual": cert.bhe_operator_residual[0, 0, i],
        "bhe_standard_residual": cert.bhe_standard_residual[0, 0, i],
        "schrodinger_residual": cert.schrodinger_residual[0, 0, i],
    }
    if cert.oracle is not None:
        oracle = cert.oracle[0, 0, i]
        entry["oracle_nearest"] = oracle.nearest
        entry["oracle_richardson_gap"] = oracle.richardson_gap
        entry["oracle_hit"] = oracle.hit
        entry["oracle_points"] = oracle.n_points
        entry["oracle_h"] = oracle.h
        entry["oracle_solves"] = oracle.solves
    entry["failed"] = [s for s, f in zip(STAGES, cert.failed[:, 0, 0, i]) if f]
    entry["pass"] = bool(cert.passed[0, 0, i])
    return entry


def _b2_zero_search(freqs, label, branch):
    """Per level p, the w3 that nulls the x^(-3/2) rung of the b = 2
    potential, and the rung re-evaluated there.

    The rung vanishes exactly when E = alpha + beta w3 (B = l + m - 1,
    alpha = m (w1 - w2) + l w1 - B (w1 - w2) / 2, beta = B / 2 - l; the
    branch sign cancels).  With H(w) = H0 + w3 N_c the roots are the
    eigenvalues of the pencil (alpha I - H0) x = w3 D x, where
    D = N_c - beta I = diag((l + m + 1)/2 - j) >= (|l - m| + 1) / 2 > 0,
    so they are real.  E_i - alpha - beta w3 rises in w3 with slope
    <v|D|v> > 0, so each level has one root, the p-th smallest for p.
    """
    w1, w2 = freqs.w1, freqs.w2
    ell, m = label.ell, label.m
    alpha = m * (w1 - w2) + ell * w1 - (ell + m - 1) * (w1 - w2) / 2
    h0 = build_hamiltonian(ModeFrequencies(w1, w2, 0.0), label)
    scale = 1.0 / np.sqrt((ell + m + 1) / 2 - np.arange(label.dim))
    pencil = (alpha * np.eye(label.dim) - h0) * np.outer(scale, scale)
    roots = np.linalg.eigvalsh(pencil).tolist()
    results = []
    for idx in range(label.dim):
        p = label.dim - idx
        f = ModeFrequencies(w1, w2, roots[p - 1])
        energy = float(eig_sym(build_hamiltonian(f, label)).eigenvalues[idx])
        vspec = potential_specs(Fraction(2), f, label, [energy], branch)[0]
        results.append(
            {"p": p, "w3_zeroing_term": f.w3, "residual_coefficient": vspec.coeffs[1]}
        )
    return results


def cmd_verify(args: argparse.Namespace) -> int:
    freqs = parse_w(args.w)
    label = parse_label(args.l, args.m)
    bfrac = parse_b(args.b)
    branch = Branch(args.branch)
    if args.energy_override is not None and not math.isfinite(args.energy_override):
        raise UsageError(f"--energy-override must be finite, got {args.energy_override}")
    spec = eig_sym(build_hamiltonian(freqs, label))
    energies = spec.eigenvalues
    if args.energy_override is not None:
        energies = np.full(label.dim, args.energy_override)
    ((_, cert),) = certify_subspace(
        freqs, [(label, energies, spec.eigenvectors)], [bfrac], [branch],
        oracle=None if args.no_oracle else {},
    )
    found, used = spec.eigenvalues.tolist(), energies.tolist()
    checks = [
        _check_entry(label.dim - i, found[i], used[i], cert, i)
        for i in range(label.dim)
    ]
    all_pass = all(c["pass"] for c in checks)
    manifest = _manifest(args, b=str(bfrac))
    payload = {"manifest": manifest, "checks": checks, "pass": all_pass}
    if args.find_b2_zero:
        payload["b2_zero_search"] = _b2_zero_search(freqs, label, branch)
    _write_json(payload, args.out)
    return 0 if all_pass else 1


def _solve_labels(freqs, labels):
    """(label, eigenvalues, eigenvectors) of every label, in order, from one
    stacked eigensolve per dimension."""
    groups: dict[int, list[SubspaceLabel]] = {}
    for label in labels:
        groups.setdefault(label.dim, []).append(label)
    try:
        specs = [eig_sym(build_hamiltonian(freqs, group)) for group in groups.values()]
    except (ValueError, AssertionError):
        # report the first failing label in sweep order, as one solve per
        # label would
        for label in labels:
            eig_sym(build_hamiltonian(freqs, label))
        raise
    solved = {}
    for group, spec in zip(groups.values(), specs):
        for label, vals, vecs in zip(group, spec.eigenvalues, spec.eigenvectors):
            solved[label] = (label, vals, vecs)
    return [solved[label] for label in labels]


def cmd_sweep(args: argparse.Namespace) -> int:
    freqs = parse_w(args.w)
    if not (0 <= args.lmax <= 20 and 0 <= args.mmax <= 20):
        raise UsageError("sweep bounds are limited to 0 <= l, m <= 20")
    b_values = sorted({parse_b(tok) for tok in args.b.split(",")})
    # minus before plus: tuples come out in (l, m, b, branch) order
    branches = [Branch(args.branch)] if args.branch else [Branch.MINUS, Branch.PLUS]
    # lives for this command only: W(l, m) and W(m, l) pose the same
    # oracle problems, often bit for bit
    oracle: OracleMemo | None = None if args.no_oracle else {}
    labels = [
        SubspaceLabel(ell, m)
        for ell in range(args.lmax + 1) for m in range(args.mmax + 1)
    ]
    subspaces = _solve_labels(freqs, labels)
    certified = (
        (subspaces[i][0], cert)
        for i, cert in certify_subspace(freqs, subspaces, b_values, branches, oracle=oracle)
    )
    text, status, all_pass = _sweep_text(
        _manifest(args, b=",".join(map(str, b_values))), certified, b_values, branches
    )
    _write_text(text, args.out)
    sys.stderr.write(status)
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triqes",
        description="Trilinear boson model -> BHE -> quasi-exactly solvable potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups shared as parents; the order arguments are added in is
    # the manifest's key order
    label = argparse.ArgumentParser(add_help=False)
    label.add_argument("--l", type=int, required=True, help="L eigenvalue (>= 0)")
    label.add_argument("--m", type=int, required=True, help="M eigenvalue (>= 0)")
    labelw = argparse.ArgumentParser(add_help=False, parents=[label])
    labelw.add_argument("--w", default="1,1,1", help="scaled frequencies w1,w2,w3")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")

    p_spec = sub.add_parser("spectrum", parents=[labelw, out],
                            help="eigenvalues and eigenvectors")
    p_spec.set_defaults(func=cmd_spectrum)

    p_basis = sub.add_parser("basis", parents=[label, out],
                             help="canonical Fock basis of W(l, m)")
    p_basis.set_defaults(func=cmd_basis)

    p_pot = sub.add_parser("potential", aliases=["wavefunction"], parents=[labelw, out],
                           help="potential/wavefunction curve CSV")
    p_pot.add_argument("--b", default="1", help="transformation exponent p/q")
    p_pot.add_argument("--branch", default="plus", choices=["plus", "minus"])
    p_pot.add_argument("--p", type=int, default=1,
                       help="energy index, 1 = largest eigenvalue")
    p_pot.add_argument("--xmin", type=float, default=0.05)
    p_pot.add_argument("--xmax", type=float, default=4.0)
    p_pot.add_argument("--points", type=int, default=400)
    p_pot.add_argument("--shifted", action="store_true",
                       help="b=1/2 only: displaced sextic and eps(E)")
    p_pot.add_argument("--format", default="csv", choices=["csv", "json"])
    p_pot.set_defaults(func=cmd_potential)

    p_ver = sub.add_parser("verify", parents=[labelw, out],
                           help="run all certifications for one tuple")
    p_ver.add_argument("--b", default="1/2", help="transformation exponent p/q")
    p_ver.add_argument("--branch", default="plus", choices=["plus", "minus"])
    p_ver.add_argument("--energy-override", type=float, default=None,
                       help="inject a wrong energy to watch the checks fail")
    p_ver.add_argument("--no-oracle", action="store_true",
                       help="skip the finite-difference containment check")
    p_ver.add_argument("--find-b2-zero", action="store_true",
                       help="w3 values nulling the b=2 x^(-3/2) term, one per level")
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="verification matrix over (l, m)")
    p_sweep.add_argument("--lmax", type=int, default=2)
    p_sweep.add_argument("--mmax", type=int, default=2)
    p_sweep.add_argument("--w", default="1,1,1")
    p_sweep.add_argument("--b", default="1,1/2", help="comma list of exponents")
    p_sweep.add_argument("--branch", default=None, choices=["plus", "minus"],
                         help="restrict to one branch (default: both)")
    p_sweep.add_argument("--no-oracle", action="store_true")
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
