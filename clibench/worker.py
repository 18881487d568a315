"""Worker process: one workload, one client, closed loop, in-process CLI.

Started by ``run.py``, one worker at a time.  It imports ``densecode`` from
the checkout's ``src``, self-tests the checkers, warms up on one op of each
size class, then runs every op of the workload's round once per repeat, one
repeat per 5 s of ``--seconds``.  Before every op it clears the package's
memoised results and collects garbage, outside the timed region, so each op
starts as cold as a fresh ``densecode`` invocation.  With ``--trace 1``
every op runs twice, plain and traced; the traced runs give the per-layer
metrics and the pairs give the tracing overhead.  The last stdout line is a
JSON summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import selftest
import workloads
from calibration import slowdown
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_densecode():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import densecode
    import densecode.cli  # noqa: F401  (loads every layer module)

    if os.path.dirname(os.path.dirname(os.path.abspath(densecode.__file__))) != src:
        raise SystemExit(f"densecode was imported from {densecode.__file__}, not {src}")
    return densecode


def memo_caches() -> list:
    """Every lru_cache in the package, found before any tracer wraps it."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name.startswith("densecode."):
            found += [obj for obj in vars(mod).values() if hasattr(obj, "cache_clear")]
    return found


class Runner:
    def __init__(self, dc, workload: str):
        self.dc = dc
        self.workload = workload
        self.caches = memo_caches()
        self.cal = 1.0

    def run_op(self, op, tracer=None):
        """(seconds, problems, report, exit code, decoded message).  The host
        slowdown measured just before the timed region is in ``self.cal``.
        With a tracer the op runs traced: the tracer is installed only after
        the calibration, so its wrappers never see the calibration kernels."""
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        self.cal = slowdown(self.workload)
        report = decoded = None
        code = -1
        if tracer:
            tracer.install()
            tracer.op_begin()
        t0 = perf_counter()
        try:
            code, out = workloads.call_cli(self.dc.cli, op.argv)
            if op.receive and code == 0:
                report = json.loads(out)
                decoded = op.receive(report)
        except (Exception, SystemExit) as exc:  # the op failed; keep going
            return perf_counter() - t0, [f"raised {exc!r}"], None, code, None
        finally:
            seconds = perf_counter() - t0
            if tracer:
                tracer.op_end()
                tracer.uninstall()
        if report is None:
            try:
                report = json.loads(out)
            except ValueError:
                return seconds, [f"exit {code} without a JSON report"], None, code, None
        return seconds, op.check(report, code, decoded), report, code, decoded


REPEAT_S = 5.0  # one repeat of the round per 5 s of --seconds


def percentiles(times: list[float]) -> tuple[float, float]:
    return statistics.median(times), statistics.quantiles(times, n=10)[-1]


def class_of(value: float, best: list[float], ops) -> str:
    """Size class of the op whose best time is closest to a percentile."""
    return ops[min(range(len(ops)), key=lambda i: abs(best[i] - value))].label


def timed_runs(runner, ops, repeats: int, seed: int, tracer):
    """Every op once per repeat, in a fresh seeded order each time.  With a
    tracer each op runs plain and traced back to back, in alternating order,
    so the overhead is measured under the same conditions.  Returns the runs
    as (op index, traced, seconds scaled to the reference host), the
    attempted and failed counts, the first errors and the median slowdown.

    Each time is divided by the host slowdown measured just before and just
    after the op (see calibration.py)."""
    order_rng = np.random.default_rng([seed, 1])
    runs, cals = [], []
    failed = 0
    errors: list[str] = []
    for _ in range(repeats):
        for i in order_rng.permutation(len(ops)):
            op = ops[i]
            modes = (False,) if tracer is None else ((False, True) if i % 2 else (True, False))
            for on in modes:
                seconds, errs, *_ = runner.run_op(op, tracer if on else None)
                runs.append((int(i), on, seconds))
                cals.append(runner.cal)
                if errs:
                    failed += 1
                    errors += [f"{op.argv}: {e}" for e in errs]
    cals.append(slowdown(runner.workload))
    scaled = [(i, on, 2 * s / (cals[j] + cals[j + 1])) for j, (i, on, s) in enumerate(runs)]
    return scaled, len(runs), failed, errors[:10], statistics.median(cals)


def best_times(runs, n_ops: int, traced: bool) -> list[float]:
    """Each op's fastest scaled time among its plain (or traced) runs."""
    best = [float("inf")] * n_ops
    for i, on, s in runs:
        if on == traced:
            best[i] = min(best[i], s)
    return best


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    dc = import_densecode()
    runner = Runner(dc, args.workload)
    problems = selftest.run(dc, args.outdir, runner.run_op)
    ops = workloads.build_round(dc, args.workload, args.seed, args.outdir)
    seen = set()
    for op in ops:  # warm-up: one untimed op per size class
        if op.label not in seen:
            seen.add(op.label)
            problems += runner.run_op(op)[1]

    # An op's figure is the fastest of its repeats: contention that the
    # calibration misses rarely hits every repeat, a round apart.  A traced
    # run times every op twice, so it makes half the repeats.
    repeats = max(1, round(args.seconds / REPEAT_S / (2 if args.trace else 1)))
    tracer = Tracer() if args.trace else None
    start = perf_counter()
    runs, attempted, failed, errors, host = timed_runs(runner, ops, repeats, args.seed, tracer)
    timed_s = perf_counter() - start

    best = best_times(runs, len(ops), traced=False)
    p50, p90 = percentiles(best)
    classes = {}
    for label in sorted({op.label for op in ops}):
        mine = [b for op, b in zip(ops, best) if op.label == label]
        classes[label] = {"count": len(mine), "median_ms": 1e3 * statistics.median(mine)}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "repeats": repeats,
        "round_ops": len(ops),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "problems": problems,
        "timed_s": timed_s,
        "host_slowdown": host,
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "p50_class": class_of(p50, best, ops),
        "p90_class": class_of(p90, best, ops),
        "classes": classes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads": threads_now(),
    }
    if tracer is not None:
        t50, _ = percentiles(best_times(runs, len(ops), traced=True))
        traced_s = [s for _, on, s in runs if on]
        summary["per_layer"] = tracer.per_op(lambda j, s: s * traced_s[j] / tracer.op_records[j]["op"])
        summary["per_layer"]["trace.overhead_ms"] = (1e3 * (t50 - p50), "ms")
        summary["accounting_gap"] = tracer.accounting_gap()
        path = os.path.join(args.outdir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        summary["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(summary))


def threads_now() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


if __name__ == "__main__":
    main()
