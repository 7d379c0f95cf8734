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
from itertools import chain
from typing import Any

import numpy as np

from . import __version__
from .certify import STAGES, Certificate, certify_batch, solve_subspaces
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


def fmt(x: float) -> str:
    return f"{x:.15g}"


_json_str = json.encoder.encode_basestring_ascii


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


def _json_at(obj: Any, depth: int) -> str:
    """`json.dumps(obj, indent=2)` as it is written nested `depth` spaces in."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + " " * depth)


def _template(obj: Any, depth: int) -> str:
    """`_json_at` of `obj`, each of its "%s" string values a bare `%s` slot."""
    return _json_at(obj, depth).replace('"%s"', "%s")


_WORST_KEYS = ("bhe_operator_residual", "schrodinger_residual")

# one sweep tuple, by whether the oracle ran, and the file around the tuples
_SWEEP_TUPLE = {
    oracle: _template({
        **dict.fromkeys(("l", "m", "b", "branch", "pass", "failed"), "%s"),
        "worst": dict.fromkeys(_WORST_KEYS + ("oracle_richardson_gap",) * oracle, "%s"),
    }, 4)
    for oracle in (False, True)
}
_SWEEP_FILE = _template(
    {"manifest": "%s", "tuples": ["%s"], "count": "%s", "pass": "%s"}, 0
) + "\n"


def _verdict(stages: list[str]) -> tuple[str, str, str]:
    return (
        json.dumps(not stages),
        _json_at(stages, 6),
        f"FAIL ({', '.join(stages)})" if stages else "pass",
    )


# a tuple's "pass" and "failed" and its status line, by the bit pattern of
# its failed stages (bit k for STAGES[k])
_VERDICTS = [
    _verdict([s for k, s in enumerate(STAGES) if bits >> k & 1])
    for bits in range(1 << len(STAGES))
]
_STAGE_BITS = 1 << np.arange(len(STAGES))


def _json_floats(values: np.ndarray) -> list[str]:
    """`json`'s text of every element of the float array `values` rounded
    by `fmt`, in order: each distinct bit pattern is rounded once, and all
    of them are written by one `json.dumps`."""
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    texts = json.dumps([float(fmt(x)) for x in bits.view(float).tolist()])[1:-1].split(", ")
    return [texts[i] for i in where.tolist()]


def _sweep_text(
    manifest: dict[str, Any],
    labels: list[SubspaceLabel],
    ends: list[int],
    batch: Certificate,
    b_values: list[Fraction],
    branches: list[Branch],
) -> tuple[str, str, bool]:
    """`sweep`'s file, its stderr status lines and its verdict, from the
    batch `Certificate` [branch, b, pair] of `labels` in sweep order, label
    i holding pairs ends[i] .. ends[i + 1] - 1.

    The file is, byte for byte, what `_write_json` writes for the payload
    (manifest, tuples, count, pass): the manifest through `json`, each
    tuple in (l, m, b, branch) order, with its verdict, the stages any of
    its eigenpairs failed and the worst value of each residual (NaN if any
    is NaN).  Every piece of the file is `json`'s own text: the templates
    are `json.dumps` of the layout with `%s` slots, and each value is
    `json.dumps` of its own.  Each is one pass over the batch: one
    `np.maximum.reduceat` for the worst values, one
    `np.logical_or.reduceat` for the failed stages, one `_json_floats` for
    every float, and one `%` over the repeated template for all tuples,
    and one for all status lines.
    """
    if not all(start < stop for start, stop in zip(ends, ends[1:])):
        # reduceat would read an empty label's next pair as its own
        raise ValueError("every sweep label needs an eigenpair")
    columns = [getattr(batch, k) for k in _WORST_KEYS]
    if batch.oracle is not None:
        columns.append(np.array(
            [c.richardson_gap for c in batch.oracle.flat], dtype=float
        ).reshape(batch.oracle.shape))
    # [branch, b, label, column], written in (l, m, b, branch) order
    worst = np.maximum.reduceat(np.stack(columns, axis=-1), ends[:-1], axis=2)
    floats = _json_floats(worst.transpose(2, 1, 0, 3).ravel())
    patterns = np.logical_or.reduceat(batch.failed, ends[:-1], axis=3).T @ _STAGE_BITS
    passed, failed, verdicts = zip(*[_VERDICTS[p] for p in patterns.ravel().tolist()])
    per_label = len(b_values) * len(branches)
    ells = [label.ell for label in labels for _ in range(per_label)]
    ms = [label.m for label in labels for _ in range(per_label)]
    bs = [str(b) for b in b_values for _ in branches] * len(labels)
    brs = [br.value for br in branches] * (len(b_values) * len(labels))
    k = len(columns)
    tuples = zip(
        ells, ms, map(_json_str, bs), map(_json_str, brs), passed, failed,
        *[floats[i::k] for i in range(k)],
    )
    template = _SWEEP_TUPLE[batch.oracle is not None]
    all_pass = not patterns.any()
    text = _SWEEP_FILE % (
        _json_at(_round15(manifest), 2),
        ",\n    ".join([template] * len(ells)) % tuple(chain.from_iterable(tuples)),
        len(ells), json.dumps(all_pass),
    )
    status = "l=%d m=%d b=%s %5s: %s\n" * len(ells) % tuple(
        chain.from_iterable(zip(ells, ms, bs, brs, verdicts))
    )
    return text, status, all_pass


def _basis_payload(args: argparse.Namespace, label: SubspaceLabel) -> dict[str, Any]:
    return {
        "manifest": _manifest(args),
        "label": {"l": label.ell, "m": label.m, "k": label.k, "dim": label.dim},
        "basis": [[s.n_a, s.n_b, s.n_c] for s in subspace_basis(label)],
    }


def cmd_spectrum(args: argparse.Namespace) -> int:
    freqs = parse_w(args.w)
    label = parse_label(args.l, args.m)
    [(_, vals, vecs)] = solve_subspaces(freqs, [label])
    payload = _basis_payload(args, label)
    payload["eigenvalues"] = vals.tolist()
    payload["eigenvectors"] = vecs.T.tolist()
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
    [(_, vals, vecs)] = solve_subspaces(freqs, [label])
    energy, vec = float(vals[label.dim - args.p]), vecs[:, label.dim - args.p]
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
        entry["oracle_error_estimate"] = oracle.error_estimate
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
        [(_, vals, _)] = solve_subspaces(f, [label])
        energy = float(vals[idx])
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
    [(_, vals, vecs)] = solve_subspaces(freqs, [label])
    energies = vals
    if args.energy_override is not None:
        energies = np.full(label.dim, args.energy_override)
    cert, _ = certify_batch(
        freqs, [(label, energies, vecs)], [bfrac], [branch], oracle=not args.no_oracle
    )
    found, used = vals.tolist(), energies.tolist()
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


def cmd_sweep(args: argparse.Namespace) -> int:
    freqs = parse_w(args.w)
    if not (0 <= args.lmax <= 20 and 0 <= args.mmax <= 20):
        raise UsageError("sweep bounds are limited to 0 <= l, m <= 20")
    b_values = sorted({parse_b(tok) for tok in args.b.split(",")})
    # minus before plus: tuples come out in (l, m, b, branch) order
    branches = [Branch(args.branch)] if args.branch else [Branch.MINUS, Branch.PLUS]
    labels = [
        SubspaceLabel(ell, m)
        for ell in range(args.lmax + 1) for m in range(args.mmax + 1)
    ]
    batch, ends = certify_batch(
        freqs, solve_subspaces(freqs, labels), b_values, branches, oracle=not args.no_oracle
    )
    text, status, all_pass = _sweep_text(
        _manifest(args, b=",".join(map(str, b_values))), labels, ends, batch, b_values,
        branches,
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
    # keep no reference to the parser: it is cyclic garbage, which the
    # collector frees young only if the command does not hold it
    args = build_parser().parse_args(argv)
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
