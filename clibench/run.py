"""End-to-end benchmark of the ``densecode`` CLI.

    python3 clibench/run.py --workload audit --seed 3 --seconds 20 --trace 0
    python3 clibench/run.py                      # every workload, plain and traced

The first form is one measured run, the form ``BENCHMARK.json`` describes:
its ``run_seconds`` is the ``--seconds`` value, which sets the number of
repeats of the workload's round (one per 5 s, so 4 at 20 s).  The second
form runs all three workloads both ways and prints every metric by name.

Run it from the root of a checkout; it imports the package from ``src``.
For each workload it first times ``setup_s``, fresh interpreters importing
``densecode.cli``, then starts one worker process (``worker.py``) that runs
the workload's ops in a closed loop with one client.  Workers run one at a
time with one BLAS thread.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREADS = "1"
SETUP_PROBES = 9
# A --workload run must end within 180 s.  The all-workloads form runs six
# such measurements in a row and gives each the same limit.
DEADLINE_S = 170

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
PROBE = (
    "import statistics, sys, time\n"
    "sys.path.insert(0, {here!r})\n"
    "from calibration import slowdown\n"
    "before = statistics.median(slowdown('import') for _ in range(3))\n"
    "sys.path.insert(0, {src!r})\n"
    "t = time.perf_counter()\n"
    "import densecode.cli\n"
    "t = time.perf_counter() - t\n"
    "after = statistics.median(slowdown('import') for _ in range(3))\n"
    "print(2 * t / (before + after))\n"
)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(deadline: float) -> float:
    """Median import time of densecode.cli in fresh interpreters, scaled to
    the reference host speed by calibrations just before and after it.  The
    first probe is untimed: it fills the bytecode cache, as any earlier run
    would."""
    code = PROBE.format(src=SRC, here=HERE)
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, "-c", code], env=worker_env(), check=True,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples[1:])


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--outdir", OUT]
    done = subprocess.run(argv, env=worker_env(), cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1))
    return json.loads(done.stdout.strip().splitlines()[-1])


def describe(result: dict) -> list[str]:
    lines = [
        f"[{result['workload']}] seed {result['seed']}: {result['attempted']} ops attempted, "
        f"{result['failed']} failed, {result['repeats']} repeats of {result['round_ops']} ops, "
        f"{result['timed_s']:.1f} s timed, BLAS threads {result['blas_threads']}, "
        f"worker threads {result['threads']}",
        f"  host ran {result['host_slowdown']:.2f}x slower than the calibration reference",
        f"  median lands on '{result['p50_class']}', tail on '{result['p90_class']}'",
    ]
    for label, c in result["classes"].items():
        lines.append(f"  {label:<28} {c['count']:>4} ops  median {c['median_ms']:9.2f} ms")
    for problem in result["problems"] + result["errors"]:
        lines.append(f"  PROBLEM: {problem}")
    if "accounting_gap" in result:
        lines.append(f"  trace written to {result['trace_file']}; self times account "
                     f"for the traced op time within {result['accounting_gap']:.1e}")
    return lines


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": v, "unit": u} for name, (v, u) in result["per_layer"].items()}
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}


def correct(result: dict) -> bool:
    return (not result["problems"] and result["failed"] == 0
            and result.get("accounting_gap", 0.0) < 1e-6)


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    setup = setup_seconds(deadline) if not trace else None
    result = run_worker(workload, seed, seconds, trace, deadline)
    result["setup_s"] = setup
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all three, plain and traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "densecode", "cli.py")):
        print(f"clibench: no densecode package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    if args.workload is not None:
        trace = args.trace or 0
        result = measure(args.workload, args.seed, args.seconds, trace, deadline)
        print("\n".join(describe(result)))
        print(json.dumps({"correct": correct(result), "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics_of(result, trace)}))
        return 0

    traces = (0, 1) if args.trace is None else (args.trace,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in traces:
            deadline = time.monotonic() + DEADLINE_S
            result = measure(workload, args.seed, args.seconds, trace, deadline)
            print("\n".join(describe(result)))
            for name, m in metrics_of(result, trace).items():
                print(f"  {workload}.{name} = {m['value']:.6g} {m['unit']}")
                summary["metrics"][f"{workload}.{name}"] = m
            summary["correct"] &= correct(result)
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
