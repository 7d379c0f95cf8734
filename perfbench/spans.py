"""Span tracing of triqes layers, installed from outside the program.

Each target is a public function of a layer.  `Tracer.install` wraps it by
identity: every attribute of every loaded ``triqes`` module that refers to
the target object is rebound to the wrapper, so call sites that imported
the name (``from .spectra import eig_sym``) and module globals looked up at
call time (``fdoracle.eigh_tridiagonal``) are both traced, wherever a later
refactor moves them.  A target that no longer exists is reported as missing,
and an observer that cannot read a call's arguments is reported, not raised.

Spans are kept in memory as (id, name, parent, op, start, end, thread,
thread CPU time, info) and written out at the end of the run.  A span
opened on a thread with no open span of its own (a sweep worker thread)
takes as parent the innermost span open on the thread that started the
operation, else the operation's root.  Self time is a span's duration
minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float
    thread: int
    cpu: float = 0.0  # CPU time of the span's own thread over the span
    info: dict[str, Any] = field(default_factory=dict)


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _rel_residual(res: Any, phi: Any) -> float:
    scale = max(abs(c) for c in phi.coeffs)
    return float(np.max(np.abs(res))) / scale if scale else float("inf")


# Observers turn a call's arguments and result into the span's counts.
def _obs_eig_sym(args, kwargs, out):
    h = _arg(args, kwargs, 0, "h")
    entries = np.asarray(getattr(h, "entries", h), dtype=float)
    return {"dim": int(entries.shape[0]), "key": hash(entries.tobytes())}


def _obs_fd_spectrum(args, kwargs, out):
    config = _arg(args, kwargs, 1, "config")
    return {"n": int(config.n_points), "count": int(_arg(args, kwargs, 2, "count"))}


def _obs_contains(args, kwargs, out):
    return {"hit": bool(out.hit)}


def _obs_schrodinger(args, kwargs, out):
    grid = _arg(args, kwargs, 3, "grid")
    return {"n": int(np.asarray(grid).size), "order": float(out.order)}


def _obs_operator_residual(args, kwargs, out):
    return {"rel": _rel_residual(out, _arg(args, kwargs, 3, "phi"))}


def _obs_standard_residual(args, kwargs, out):
    return {"rel": _rel_residual(out, _arg(args, kwargs, 1, "phi"))}


# (span name, module, attribute, observer)
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("cli.main", "triqes.cli", "main", None),
    ("hamiltonian.build", "triqes.hamiltonian", "build_hamiltonian", None),
    ("spectra.eig_sym", "triqes.spectra", "eig_sym", _obs_eig_sym),
    ("heun.map", "triqes.heun", "fock_to_rho_polynomial", None),
    ("heun.operator_residual", "triqes.heun", "bhe_operator_residual", _obs_operator_residual),
    ("heun.standard_residual", "triqes.heun", "bhe_standard_residual", _obs_standard_residual),
    ("heun.params", "triqes.heun", "bhe_params", None),
    ("heun.residual_ok", "triqes.heun", "residual_ok", None),
    ("schroedinger.grid", "triqes.schroedinger", "certification_grid", None),
    ("schroedinger.residual", "triqes.schroedinger", "schrodinger_residual", _obs_schrodinger),
    ("fdoracle.contains", "triqes.fdoracle", "contains_eigenvalue", _obs_contains),
    ("fdoracle.domain", "triqes.fdoracle", "suggest_domain", None),
    ("fdoracle.fd_spectrum", "triqes.fdoracle", "fd_spectrum", _obs_fd_spectrum),
    ("fdoracle.kernel", "triqes.fdoracle", "eigh_tridiagonal", None),
]


class Tracer:
    """Records spans while installed; `uninstall` restores every binding."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.observe_errors: set[str] = set()
        self.op = 0
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._rebound: list[tuple[Any, str, Any]] = []
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                tail = self._main_stack[-1:]
                parent = tail[0] if tail else self.root
            sid = next(self._ids)
            stack.append(sid)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
            span = Span(sid, name, parent, self.op, start, end, threading.get_ident(), cpu)
            if observe is not None:
                try:
                    span.info = observe(args, kwargs, out)
                except Exception as exc:  # a changed signature must not break the call
                    self.observe_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            self.spans.append(span)
            return out

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "triqes" or key.startswith("triqes."))
        ]
        self.missing = []
        for name, modname, attr, observe in TARGETS:
            target = getattr(sys.modules.get(modname), attr, None)
            if target is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, target, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapper)
                        self._rebound.append((mod, key, target))

    def uninstall(self) -> None:
        for mod, key, target in reversed(self._rebound):
            setattr(mod, key, target)
        self._rebound = []

    def begin_op(self, op: int, name: str) -> None:
        """Open the root span of operation `op`; `end_op` closes it."""
        self.op = op
        self.root = next(self._ids)
        self._main_stack = self._stack()
        self._root_name = name
        self._root_start = time.perf_counter()
        self._root_cpu = time.thread_time()

    def end_op(self) -> None:
        end = time.perf_counter()
        self.spans.append(
            Span(self.root, self._root_name, None, self.op, self._root_start, end,
                 threading.get_ident(), time.thread_time() - self._root_cpu)
        )
        self.root = None

    def self_times(self) -> dict[int, tuple[float, float]]:
        """Span id -> (self wall time, self CPU time).

        Self wall time subtracts the union of all children's intervals.
        Self CPU time subtracts the CPU time of children on the same thread;
        on another thread it was never part of the span's own CPU time.
        """
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {}
        for s in self.spans:
            kids = children.get(s.sid, ())
            covered = 0.0
            cur_start = cur_end = None
            for c in sorted(kids, key=lambda c: c.start):
                lo, hi = max(c.start, s.start), min(c.end, s.end)
                if hi <= lo:
                    continue
                if cur_end is None or lo > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = lo, hi
                else:
                    cur_end = max(cur_end, hi)
            if cur_end is not None:
                covered += cur_end - cur_start
            cpu_kids = sum(c.cpu for c in kids if c.thread == s.thread)
            out[s.sid] = ((s.end - s.start) - covered, s.cpu - cpu_kids)
        return out

    def dump(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "missing": self.missing,
                "observe_errors": sorted(self.observe_errors),
                    "spans": [
                        [s.sid, s.name, s.parent, s.op, s.start, s.end, s.thread,
                         round(selfs[s.sid][0], 9), round(selfs[s.sid][1], 9), s.info]
                        for s in self.spans
                    ],
                },
                fh,
            )


# (self wall-time metric, self CPU-time metric, span names)
TIME_METRICS = [
    ("fdoracle.kernel_s", "fdoracle.kernel_cpu_s", ("fdoracle.kernel",)),
    ("fdoracle.contains_self_s", "fdoracle.contains_cpu_s", ("fdoracle.contains",)),
    ("fdoracle.fd_spectrum_self_s", "fdoracle.fd_spectrum_cpu_s", ("fdoracle.fd_spectrum",)),
    ("fdoracle.domain_self_s", "fdoracle.domain_cpu_s", ("fdoracle.domain",)),
    ("schroedinger.grid_self_s", "schroedinger.grid_cpu_s", ("schroedinger.grid",)),
    ("schroedinger.residual_self_s", "schroedinger.residual_cpu_s", ("schroedinger.residual",)),
    ("spectra.self_s", "spectra.cpu_s", ("spectra.eig_sym",)),
    ("heun.map_self_s", "heun.map_cpu_s", ("heun.map",)),
    ("heun.residual_self_s", "heun.residual_cpu_s",
     ("heun.operator_residual", "heun.standard_residual", "heun.params", "heun.residual_ok")),
    ("hamiltonian.self_s", "hamiltonian.cpu_s", ("hamiltonian.build",)),
    ("cli.self_s", "cli.cpu_s", ("cli.main",)),
]


def computed_counts(spans: list[Span]) -> dict[str, int]:
    """Exact counts over the spans of one op; a given input always gives the same."""
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
    eig = named["spectra.eig_sym"]
    fd = named["fdoracle.fd_spectrum"]
    contains = named["fdoracle.contains"]
    res = named["schroedinger.residual"]
    return {
        "fdoracle.solves": len(fd),
        "fdoracle.grid_points": sum(s.info.get("n", 0) for s in fd),
        "fdoracle.eigvals_requested": sum(s.info.get("count", 0) for s in fd),
        "fdoracle.contains_calls": len(contains),
        "fdoracle.hits": sum(s.info.get("hit", False) for s in contains),
        "schroedinger.points": sum(s.info.get("n", 0) for s in res),
        "schroedinger.residual_calls": len(res),
        "schroedinger.order_below_min": sum(
            s.info.get("order", math.inf) < 3.5 for s in res),
        "spectra.calls": len(eig),
        "spectra.max_dim": max((s.info.get("dim", 0) for s in eig), default=0),
        "spectra.distinct": len({s.info.get("key") for s in eig}),
        "hamiltonian.calls": len(named["hamiltonian.build"]),
        "heun.map_calls": len(named["heun.map"]),
        "heun.residual_calls": len(named["heun.operator_residual"])
        + len(named["heun.standard_residual"]),
    }


def layer_metrics(
    tracer: Tracer, ops_of_input0: list[int], n_traced: int
) -> tuple[dict[str, tuple[float, str]], dict[str, int], list[str]]:
    """Per-layer metrics, the computed counts, and count mismatches.

    Times are per op, averaged over the `n_traced` traced ops.  Counts are
    those of input 0, traced as `ops_of_input0`; every repeat must match.
    """
    selfs = tracer.self_times()
    by_op: dict[int, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)
    first = computed_counts(by_op[ops_of_input0[0]])
    mismatches = [
        f"computed counts of input 0 differ between traced ops {ops_of_input0[0]} and {op}"
        for op in ops_of_input0[1:] if computed_counts(by_op[op]) != first
    ]
    metrics: dict[str, tuple[float, str]] = {}
    for wall_name, cpu_name, names in TIME_METRICS:
        picked = [selfs[s.sid] for s in tracer.spans if s.name in names]
        metrics[wall_name] = (sum(w for w, _ in picked) / n_traced, "s")
        metrics[cpu_name] = (sum(c for _, c in picked) / n_traced, "s")
    for name in ("fdoracle.solves", "fdoracle.grid_points", "fdoracle.eigvals_requested",
                 "fdoracle.contains_calls", "schroedinger.points",
                 "schroedinger.residual_calls", "schroedinger.order_below_min",
                 "spectra.calls", "spectra.max_dim", "heun.map_calls",
                 "heun.residual_calls", "hamiltonian.calls"):
        metrics[name] = (first[name], "count")
    contains = max(first["fdoracle.contains_calls"], 1)
    metrics["fdoracle.solves_per_contains"] = (first["fdoracle.solves"] / contains, "ratio")
    metrics["fdoracle.hit_ratio"] = (first["fdoracle.hits"] / contains, "ratio")
    metrics["spectra.distinct_ratio"] = (
        first["spectra.distinct"] / max(first["spectra.calls"], 1), "ratio")
    rel = [
        s.info.get("rel", 0.0) for s in by_op[ops_of_input0[0]]
        if s.name in ("heun.operator_residual", "heun.standard_residual")
    ]
    metrics["heun.worst_rel_residual"] = (max(rel, default=0.0), "ratio")
    return metrics, first, mismatches
