"""The four benchmark workloads and their output checks.

Inputs come from the run's seed, except the parts held fixed so that known
failures show on every seed (see README.md).  A workload holds a small pool
of inputs; one *op* runs one input through the program and returns an
`OpResult`.  Only the program calls are timed; the benchmark's own output
checks run after the clock stops.

The program is driven only from outside: `triqes.cli.main(argv)` for the
sweeps and the public library API for `bhe-bulk`.  Every call goes
through a module attribute lookup (``triqes.eig_sym(...)``), so the
tracer's rebinding reaches it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import triqes
import triqes.cli
import triqes.heun

# Defect triple from ROADMAP: oracle-border fails 4 of 36 tuples and
# certify-wide 33 of 392 there.  Uniform draws over [-2, 2]^3 give 0-6 and
# 0-49 failures per triple, far too spread for a steady fail_frac at three
# sweeps per run, so the seed jitters this anchor instead.
ANCHOR_W = (2.0, 0.5, -1.0)
ANCHOR_JITTER = 1e-3
SWEEP_POOL = 3

BULK_POOL = 16
# Labels beyond l + m = 12 run at fixed triples: a BHE residual of W(32, 32)
# exceeds the 1e-10 tolerance at about 1 uniform triple in 150, which at 16
# triples per run would make fail_frac jump between seeds.  The fixed set is
# this triple, where both branches of its lowest eigenpair fail (residual
# 1.5e-9), plus 15 triples and labels drawn once from a master seed.
BULK_ANCHOR_W = (0.94169343811499, -0.32168507186038475, -1.3923645579391297)
BULK_MASTER_SEED = 20240817
BULK_BASE_TOTAL = 12
# One sampled label per dimension: the Jacobi cost depends on the dimension,
# so stratifying on it keeps the cost per triple the same across seeds.
BULK_SAMPLED_DIMS = (9, 17, 25, 33)
# triqes.fock.MAX_TOTAL_LABEL today; fixed here so the inputs do not follow
# a change of the program's cap.
MAX_TOTAL_LABEL = 64
EIGVAL_RTOL = 1e-9


def machine_steal() -> float:
    """CPU time the hypervisor gave to other guests so far, all CPUs, in s.

    Read from the first line of /proc/stat; 0 where that is unavailable.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def process_cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Clock:
    """Wall time, process CPU time and machine steal time of one op."""

    def __init__(self) -> None:
        self.start = (time.perf_counter(), process_cpu(), machine_steal())

    def stop(self, res: "OpResult") -> None:
        wall, cpu, steal = self.start
        res.wall = time.perf_counter() - wall
        res.cpu = process_cpu() - cpu
        res.steal = machine_steal() - steal


@dataclass
class OpResult:
    certs: int
    attempted: int
    wall: float = 0.0
    cpu: float = 0.0
    steal: float = 0.0
    failed: set[int] = field(default_factory=set)
    rejected: list[str] = field(default_factory=list)
    crashed: str | None = None


def _w_arg(w: tuple[float, float, float]) -> str:
    return "--w=" + ",".join(repr(float(x)) for x in w)


class SweepWorkload:
    """`triqes sweep` called in-process with the CLI's own defaults."""

    def __init__(self, name, seed, outdir, lmax, mmax, b, no_oracle=False, jitter=True):
        self.name = name
        rng = np.random.default_rng(seed)
        if jitter:
            self.inputs = [
                tuple(float(a + d) for a, d in
                      zip(ANCHOR_W, rng.uniform(-ANCHOR_JITTER, ANCHOR_JITTER, 3)))
                for _ in range(SWEEP_POOL)
            ]
        else:
            self.inputs = [None]  # the CLI default w = 1,1,1
        self.base = ["sweep", "--lmax", str(lmax), "--mmax", str(mmax), "--b", b]
        if no_oracle:
            self.base.append("--no-oracle")
        self.out = Path(outdir) / f"sweep-{os.getpid()}.json"
        self.tuples = [
            (ell, m, str(Fraction(tok)), br)
            for ell in range(lmax + 1)
            for m in range(mmax + 1)
            for tok in b.split(",")
            for br in ("minus", "plus")
        ]
        self.certs = sum(min(ell, m) + 1 for ell, m, _, _ in self.tuples)

    def describe(self) -> dict:
        return {
            "argv": self.base,
            "w": [list(w) for w in self.inputs] if self.inputs[0] else "CLI default",
            "tuples_per_op": len(self.tuples),
            "certs_per_op": self.certs,
        }

    def op_names(self, i: int) -> list[str]:
        return [f"l={l} m={m} b={b} {br}" for l, m, b, br in self.tuples]

    def run(self, i: int) -> OpResult:
        w = self.inputs[i]
        argv = self.base + ([_w_arg(w)] if w else []) + ["--out", str(self.out)]
        if self.out.exists():
            self.out.unlink()
        n = len(self.tuples)
        res = OpResult(certs=0, attempted=n)
        rc, crashed = None, None
        clock = Clock()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                rc = triqes.cli.main(argv)
        except (Exception, SystemExit) as exc:
            crashed = f"{type(exc).__name__}: {exc}"
        clock.stop(res)
        if crashed is None and not self.out.exists():
            crashed = f"exit code {rc} and no --out file"
        if crashed is not None:
            res.crashed = crashed
            res.failed = set(range(n))
            return res
        self._check(rc, res)
        self.out.unlink()
        return res

    def _check(self, rc, res: OpResult) -> None:
        with open(self.out, encoding="utf-8") as fh:
            payload = json.load(fh)
        index = {t: k for k, t in enumerate(self.tuples)}
        seen: set[int] = set()
        all_pass = True
        for rec in payload.get("tuples", []):
            key = (rec.get("l"), rec.get("m"), rec.get("b"), rec.get("branch"))
            k = index.get(key)
            if k is None or k in seen:
                res.rejected.append(f"unexpected or repeated tuple {key}")
                continue
            seen.add(k)
            worst = rec.get("worst", {})
            if not worst or not all(
                isinstance(v, (int, float)) and math.isfinite(v) for v in worst.values()
            ):
                res.rejected.append(f"non-finite worst residuals at {key}: {worst}")
                res.failed.add(k)
            if rec.get("pass") is not True:
                res.failed.add(k)
                all_pass = False
        missing = set(index.values()) - seen
        if missing:
            res.rejected.append(f"{len(missing)} tuples missing from the output")
            res.failed |= missing
        if payload.get("count") != len(self.tuples):
            res.rejected.append(f"count {payload.get('count')} != {len(self.tuples)}")
        if payload.get("pass") is not (all_pass and not missing):
            res.rejected.append("top-level pass disagrees with the tuples")
        if rc != (0 if payload.get("pass") else 1):
            res.rejected.append(f"exit code {rc} disagrees with pass={payload.get('pass')}")
        res.certs = sum(
            min(self.tuples[k][0], self.tuples[k][1]) + 1 for k in seen
        )


def closed_form_matrix(w, ell: int, m: int) -> np.ndarray:
    """H on W(l, m) from its closed-form entries, basis n_a = 0 .. min(l, m).

    Diagonal w . n with n = (j, l - j, m - j); off-diagonal
    sqrt((n_a + 1) n_b n_c) between n_a = j and j + 1.
    """
    d = min(ell, m) + 1
    j = np.arange(d, dtype=float)
    h = np.diag(w[0] * j + w[1] * (ell - j) + w[2] * (m - j))
    off = np.sqrt((j[:-1] + 1.0) * (ell - j[:-1]) * (m - j[:-1]))
    return h + np.diag(off, 1) + np.diag(off, -1)


class BulkWorkload:
    """Bulk eigenpair checks through the library API: no grid, no oracle."""

    name = "bhe-bulk"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        master = np.random.default_rng(BULK_MASTER_SEED)
        base = [
            (ell, m)
            for ell in range(BULK_BASE_TOTAL + 1)
            for m in range(BULK_BASE_TOTAL + 1 - ell)
        ]
        # each input: a list of (w, l, m) subspaces
        self.inputs = []
        for k in range(BULK_POOL):
            w = tuple(float(x) for x in rng.uniform(-2.0, 2.0, 3))
            w_large = BULK_ANCHOR_W if k == 0 else tuple(
                float(x) for x in master.uniform(-2.0, 2.0, 3))
            subspaces = [(w, ell, m) for ell, m in base]
            for d in BULK_SAMPLED_DIMS:
                lo = max(BULK_BASE_TOTAL + 1, 2 * (d - 1))
                total = int(master.integers(lo, MAX_TOTAL_LABEL + 1))
                pair = (d - 1, total - (d - 1))
                subspaces.append((w_large, *(pair if master.random() < 0.5 else pair[::-1])))
            self.inputs.append(subspaces)
        # the subspace dimensions are the same for every input
        self.certs = sum(2 * (min(ell, m) + 1) for _, ell, m in self.inputs[0])

    def describe(self) -> dict:
        return {
            "w": [sub[0][0] for sub in self.inputs],
            "subspaces_per_op": len(self.inputs[0]),
            "sampled": [sub[-len(BULK_SAMPLED_DIMS):] for sub in self.inputs],
            "certs_per_op": self.certs,
        }

    def op_names(self, i: int) -> list[str]:
        return [
            f"w={w} l={ell} m={m} idx={k} {br.value}"
            for w, ell, m in self.inputs[i]
            for k in range(min(ell, m) + 1) for br in triqes.Branch
        ]

    def run(self, i: int) -> OpResult:
        res = OpResult(certs=0, attempted=self.certs)
        spectra = []
        op = 0
        clock = Clock()
        for w, ell, m in self.inputs[i]:
            n_ops = 2 * (min(ell, m) + 1)
            try:
                freqs = triqes.ModeFrequencies(*w)
                label = triqes.SubspaceLabel(ell, m)
                spec = triqes.eig_sym(triqes.build_hamiltonian(freqs, label))
            except Exception:
                res.failed.update(range(op, op + n_ops))
                op += n_ops
                continue
            spectra.append((w, ell, m, op, spec.eigenvalues))
            for k in range(label.dim):
                energy, vec = spec.pair(k)
                for branch in triqes.Branch:
                    try:
                        phi = triqes.fock_to_rho_polynomial(label, vec, branch)
                        ok_op = triqes.heun.residual_ok(
                            triqes.bhe_operator_residual(freqs, label, energy, phi), phi
                        )
                        ok_std = triqes.heun.residual_ok(
                            triqes.bhe_standard_residual(
                                triqes.bhe_params(freqs, label, energy, branch), phi
                            ),
                            phi,
                        )
                        res.certs += 1
                        if not (ok_op and ok_std):
                            res.failed.add(op)
                    except Exception:
                        res.failed.add(op)
                    op += 1
        clock.stop(res)
        for w, ell, m, first, values in spectra:
            ref_h = closed_form_matrix(w, ell, m)
            ref = np.linalg.eigvalsh(ref_h)
            tol = EIGVAL_RTOL * np.linalg.norm(ref_h)
            if values.shape != ref.shape or np.max(np.abs(values - ref)) > tol:
                res.rejected.append(f"eigenvalues of W({ell},{m}) differ from eigvalsh")
                res.failed.update(range(first, first + 2 * (min(ell, m) + 1)))
        return res


def make(name: str, seed: int, outdir: Path):
    if name == "sweep-oracle":
        return SweepWorkload(name, seed, outdir, 3, 3, "1,1/2", jitter=False)
    if name == "oracle-border":
        return SweepWorkload(name, seed, outdir, 2, 2, "3/2,2")
    if name == "certify-wide":
        return SweepWorkload(name, seed, outdir, 6, 6, "1,1/2,3/2,2", no_oracle=True)
    if name == "bhe-bulk":
        return BulkWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-oracle", "oracle-border", "certify-wide", "bhe-bulk")
