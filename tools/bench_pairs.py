"""Paired benchmark runs of a parent checkout and this one, saved as two
``BENCH_<label>_parent.json`` / ``BENCH_<label>_change.json`` files.

    python3 tools/bench_pairs.py --parent ../parent --label NAME \\
        --seeds audit=1401-1410 roundtrip=1501-1510 security=1601-1610 \\
        --ops "audit --ghz 11" "audit --ghz 12" \\
        --calls "spec = dnk_spec(4, 3); state = dnk_state(spec) ;; dnk_decode(state, spec)"

Run it from the root of the checkout under test; ``--parent`` is a checkout
of the parent commit (``git archive`` or ``git clone``).  For every seed it
runs ``python3 clibench/run.py --workload W --seed S --seconds 20 --trace 0``
in both trees, one after the other, the first side alternating from seed to
seed.  Each run keeps the last JSON line, the seed and the host slowdown the
run printed; each workload gets the median and quartiles of every end-to-end
metric.  Every ``--ops`` command and ``--calls`` statement is then timed in
both trees, alternating, in CALL_PAIRS pairs of fresh interpreters with one
BLAS thread, the first side swapping each pair; each gets every run and their
median.  An op run is one CLI call in-process, the best of 5 wall times in
milliseconds, with the package's caches cleared before each call.  A call run
is the median of CALLS wall times of the statement in microseconds, each
timed cold, after a fixed pass over a 4 MiB array (``clibench/calibration.py``'s
``_memory`` kernel), so a fixed cost that a warm loop would hide, such as a
small state's copy, shows as it does in one CLI call.  A call run cannot see
fresh-page faults: the array pass leaves glibc's heap holding warm pages, which
the statement's allocations reuse, so a saving in fresh pages shows only in an op
or a workload run.  Setup code, run once
and untimed, goes before `` ;; `` in the statement; both run after
``import numpy as np; from densecode import *; from densecode import coding``.
Both files are rewritten after every run, so an interrupted series keeps what
it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

import numpy as np

COMMAND = "python3 clibench/run.py --workload W --seed S --seconds 20 --trace 0"
SLOWDOWN = re.compile(r"host ran ([0-9.]+)x slower")
SINGLE_OP = r"""
import contextlib, io, sys, time
sys.path.insert(0, "src")
import densecode.cli as cli, densecode.coding as coding
argv = sys.argv[1:]
best = float("inf")
for _ in range(5):
    coding.dnk_spec.cache_clear()
    coding.dnk_code_basis.cache_clear()
    t = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    best = min(best, time.perf_counter() - t)
    assert code in (0, 4), code  # 4 is the security-abort verdict of a detecting attack
print(best * 1e3)
"""
CALL_PAIRS = 7
CALLS = 201
CALL = r"""
import statistics, sys, time
sys.path.insert(0, "src")
setup, _, stmt = sys.argv[1].rpartition(" ;; ")
names = {}
exec("import numpy as np\nfrom densecode import *\nfrom densecode import coding\n" + setup, names)
np, code = names["np"], compile(stmt, "<call>", "exec")
array = np.arange(2**18, dtype=complex)  # 4 MiB
times = []
for _ in range(int(sys.argv[2])):
    x = array.copy()  # clibench/calibration.py's _memory: the caches go cold
    x *= 0.5
    float(np.abs(x).sum())
    t = time.perf_counter()
    exec(code, names)
    times.append(time.perf_counter() - t)
print(statistics.median(times) * 1e6)
"""


def one_thread_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def seed_range(text: str) -> tuple[str, list[int]]:
    workload, _, span = text.partition("=")
    first, _, last = span.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def bench_run(tree: str, workload: str, seed: int) -> dict:
    argv = [sys.executable, "clibench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "20", "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True).stdout
    return {"host_slowdown": float(SLOWDOWN.search(out).group(1)),
            "last_line": json.loads(out.strip().splitlines()[-1]), "seed": seed}


def single_op_ms(tree: str, op: str) -> float:
    done = subprocess.run([sys.executable, "-c", SINGLE_OP, *op.split()], cwd=tree, check=True,
                          capture_output=True, text=True, env=one_thread_env())
    return float(done.stdout)


def call_us(tree: str, stmt: str) -> float:
    """The median microseconds of one call of ``stmt``."""
    done = subprocess.run([sys.executable, "-c", CALL, stmt, str(CALLS)], cwd=tree, check=True,
                          capture_output=True, text=True, env=one_thread_env())
    return float(done.stdout)


def summary(runs: list[dict]) -> dict:
    out = {}
    for name, metric in runs[0]["last_line"]["metrics"].items():
        values = [run["last_line"]["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3, "unit": metric["unit"]}
    return out


def _medians(timed: dict) -> dict:
    return {item: {"median": statistics.median(runs), "runs": runs}
            for item, runs in timed.items()}


def save(path: str, label: str, tree: str, workloads: dict, ops: dict, calls: dict) -> None:
    doc = {
        "blas_threads": 1,
        "calls_method": f"{CALL_PAIRS} alternating pairs of fresh interpreters, each the median "
                        f"of {CALLS} calls, each timed cold after a 4 MiB array pass, one BLAS "
                        "thread; microseconds per call",
        "calls_us": _medians(calls),
        "command": COMMAND,
        "cores": os.cpu_count(),
        "label": label,
        "numpy": np.__version__,
        "pairing": "parent and change runs alternate, the first side swapping each seed",
        "python": platform.python_version(),
        "single_ops_ms": _medians(ops),
        "single_ops_method": f"{CALL_PAIRS} alternating pairs of fresh interpreters, each one "
                             "CLI call in-process, wall time, best of 5, one BLAS thread",
        "tree": tree,
        "workloads": {w: {"runs": runs, "summary": summary(runs)}
                      for w, runs in workloads.items() if runs},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--label", required=True, help="file name part, as in BENCH_<label>_*.json")
    ap.add_argument("--tree", default="", help="how the two trees are named in the files")
    ap.add_argument("--seeds", nargs="*", type=seed_range, default=[],
                    help="WORKLOAD=FIRST-LAST, one per workload")
    ap.add_argument("--ops", nargs="*", default=[], help="CLI commands timed as single ops")
    ap.add_argument("--calls", nargs="*", default=[], metavar="STMT",
                    help="Python statements timed in both trees, [SETUP ;; ]STMT")
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.getcwd()}
    runs = {side: {w: [] for w, _ in args.seeds} for side in sides}
    ops = {side: {} for side in sides}
    calls = {side: {} for side in sides}

    def save_all() -> None:
        for side in sides:
            save(f"BENCH_{args.label}_{side}.json", side, f"{args.tree} {side}".strip(),
                 runs[side], ops[side], calls[side])

    for workload, seeds in args.seeds:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side][workload].append(bench_run(sides[side], workload, seed))
                save_all()
            print(workload, seed, {s: round(runs[s][workload][-1]["last_line"]["metrics"]
                                            ["ops_per_s"]["value"], 1) for s in sides},
                  flush=True)
    timed = [(ops, op, single_op_ms) for op in args.ops]
    timed += [(calls, stmt, call_us) for stmt in args.calls]
    for into, item, measure in timed:
        for i in range(CALL_PAIRS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                into[side].setdefault(item, []).append(measure(sides[side], item))
            save_all()
        print(item, {side: round(statistics.median(into[side][item]), 2) for side in sides},
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
