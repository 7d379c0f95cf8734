"""triqes benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep-oracle --seed 1 --seconds 30 --trace 0

With --trace 0 it times the workload untraced and reports the end-to-end
metrics (setup_s, certs_per_s, fail_frac, peak_rss_mb).  With --trace 1 it
alternates untraced and traced ops on the same inputs and reports the
per-layer metrics and trace.overhead_frac.  The last stdout line is the
result object; the full result set, with the environment and the failing
operations, goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

MIN_OPS = 3
MIN_TRACED_PAIRS = 2
SETUP_REPEATS = 5
SETUP_CODE = "import triqes.cli; triqes.cli.build_parser()"
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _child_pids() -> int:
    count = 0
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
                count += len(fh.read().split())
    except OSError:
        pass
    return count


class WorkerSampler(threading.Thread):
    """Polls the thread and child-process count while ops run.

    The largest count of extra threads (or child processes) seen is the
    worker count the sweep actually used, whatever its defaults are.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.baseline = threading.active_count() + 1
        self.max_threads = 0
        self.max_children = 0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(0.05):
            self.max_threads = max(self.max_threads, threading.active_count() - self.baseline)
            self.max_children = max(self.max_children, _child_pids())

    def stop(self) -> None:
        self._halt.set()
        self.join()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "machine": platform.machine(),
    }


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter importing triqes.cli, one warm-up first."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times[1:]


def _done(n_ops: int, minimum: int, elapsed: float, per_op: float, seconds: float) -> bool:
    return n_ops >= minimum and elapsed + per_op > seconds


def run_plain(wl, seconds: float) -> list:
    """Ops cycling through the input pool, at least one full pass."""
    pool = len(wl.inputs)
    results = []
    start = time.perf_counter()
    while True:
        i = len(results) % pool
        results.append((i, wl.run(i)))
        elapsed = time.perf_counter() - start
        per_op = statistics.median(r.wall for _, r in results)
        if _done(len(results), max(MIN_OPS, pool), elapsed, per_op, seconds):
            break
    return results


def run_traced(wl, tracer, seconds: float):
    """Pairs of (untraced, traced) ops on the same input, order alternating.

    Input 0 is traced twice first, so its computed counts are checked to
    repeat exactly; the reported counts are those of input 0.
    """
    pool = len(wl.inputs)
    order = [0] + list(range(pool))
    plain, traced = [], []
    cpu_plain = 0.0
    start = time.perf_counter()
    k = 0
    while True:
        i = order[k] if k < len(order) else k % pool
        for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
            if is_traced:
                tracer.install()
                tracer.begin_op(k, f"op.{wl.name}")
                try:
                    res = wl.run(i)
                finally:
                    tracer.end_op()
                    tracer.uninstall()
                traced.append((k, i, res))
            else:
                res = wl.run(i)
                cpu_plain += res.cpu
                plain.append((k, i, res))
        k += 1
        elapsed = time.perf_counter() - start
        per_pair = statistics.median(r.wall for _, _, r in plain + traced) * 2
        if _done(k, MIN_TRACED_PAIRS, elapsed, per_pair, seconds):
            break
    return plain, traced, cpu_plain


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "triqes" / "__init__.py").is_file():
        print(f"error: no triqes sources under {SRC}", file=sys.stderr)
        return 1
    load_before = os.getloadavg()
    sys.path.insert(0, str(SRC))
    import triqes

    if Path(triqes.__file__).resolve().parent != SRC / "triqes":
        print(f"error: imported triqes from {triqes.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import workloads
    from spans import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT)

    steal_before = workloads.machine_steal()
    sampler = WorkerSampler()
    sampler.start()
    try:
        if args.trace:
            tracer = Tracer()
            plain, traced, cpu_plain = run_traced(wl, tracer, args.seconds)
            all_ops = [(i, r) for _, i, r in plain + traced]
        else:
            all_ops = run_plain(wl, args.seconds)
    finally:
        sampler.stop()
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    # fail_frac counts each operation of the input pool once: an operation
    # fails if it failed in any repetition, so the count does not depend on
    # how many repetitions fit into the run.
    failed = {(i, k) for i, r in all_ops for k in r.failed}
    attempted = sum({i: r.attempted for i, r in all_ops}.values())
    rejected = sorted({msg for _, r in all_ops for msg in r.rejected})
    crashes = sorted({r.crashed for _, r in all_ops if r.crashed})

    env = environment()
    env["loadavg_before"] = list(load_before)
    env["machine_steal_s"] = workloads.machine_steal() - steal_before
    env["sweep_worker_threads"] = sampler.max_threads
    env["sweep_worker_processes"] = sampler.max_children
    size = wl.describe()
    result_set = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "input": size,
        "ops_executed": len(all_ops),
        "failed_operations": sorted(
            f"input {i}: {wl.op_names(i)[k]}" for i, k in failed
        ),
        "rejected": rejected, "crashes": crashes,
    }

    if args.trace:
        metrics, counts, mismatches = layer_metrics(
            tracer, [k for k, i, _ in traced if i == 0], len(traced))
        wall_plain = sum(r.wall for _, _, r in plain)
        wall_traced = sum(r.wall for _, _, r in traced)
        metrics["cli.cpu_per_wall"] = (cpu_plain / wall_plain, "ratio")
        metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
        rejected += mismatches
        result_set["computed_counts_input0"] = counts
        result_set["missing_targets"] = tracer.missing
        result_set["observe_errors"] = sorted(tracer.observe_errors)
        for msg in tracer.missing:
            print(f"trace: missing target {msg}", file=sys.stderr)
        for msg in sorted(tracer.observe_errors):
            print(f"trace: observer failed: {msg}", file=sys.stderr)
        tracer.dump(str(OUT / f"spans-{args.workload}-s{args.seed}.json"))
    else:
        results = [r for _, r in all_ops]
        setup = measure_setup()
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "certs_per_s": (statistics.median(r.certs / r.wall for r in results), "1/s"),
            "fail_frac": ((len(failed) + 0.5) / (attempted + 1), "ratio"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        result_set["setup_samples_s"] = setup
        result_set["op_wall_s"] = [r.wall for r in results]
        result_set["op_cpu_s"] = [r.cpu for r in results]
        result_set["op_steal_s"] = [r.steal for r in results]

    correct = not rejected
    result_set["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_set.update(correct=correct, attempted=attempted, failed=len(failed))
    with open(OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result_set, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(all_ops)} attempted={attempted} failed={len(failed)} "
          f"certs/op={size['certs_per_op']}")
    print(f"# env {json.dumps(env)}")
    for msg in rejected + crashes:
        print(f"# check: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": result_set["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
