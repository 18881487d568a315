"""Paired benchmark runs of a parent commit and this checkout, saved as two
``BENCH_<label>_parent.json`` / ``BENCH_<label>_change.json`` files.

    python3 tools/bench_pairs.py --parent 0eab35b --label NAME --control \\
        --seeds audit=1401-1410 roundtrip=1501-1510 security=1601-1610 \\
        --ops "audit --ghz 11" "audit --ghz 12" \\
        --processes "audit --ghz 9" \\
        --calls "spec = dnk_spec(4, 3); state = dnk_state(spec) ;; dnk_decode(state, spec)"

Run it from the root of the checkout under test; ``--parent`` is a git revision
of its parent commit.  Every side is built the same way, as a fresh tree under
one temporary directory (``TMPDIR`` sets where): the parent is a ``git
archive`` of that revision, and the change is this checkout's files as ``git
add -A`` would commit them.  With ``--control`` a second ``git archive`` of the
parent runs as a third side, an A/A control: the spread between the two copies
of one commit is the noise that the change's shift must clear.  The trees are
deleted at the end.

For every seed it runs ``python3 clibench/run.py --workload W --seed S --seconds
20 --trace 0`` in every tree, one after the other, the first side rotating from
seed to seed.  Each run keeps the last JSON line, the seed and the host
slowdown the run printed; each workload gets the median and quartiles of every
end-to-end metric and, under ``vs_parent``, each metric's shift from the
parent's median (median / parent median - 1) and in how many seeds the side
read better than the parent (``BENCHMARK.json``'s ``better``), for the change
and, under ``control``, for the A/A copy.

Every ``--ops`` command and ``--calls`` statement is then timed in every tree,
rotating, in CALL_PAIRS rounds of fresh interpreters with one BLAS thread; each
gets every run and their median, and on the change's side and the control's,
each round's ratio to the parent's run of that round (``ratios``) and their
median (``ratio_median``): a ratio pairs runs made close in time, so it resolves
a shift that the spread between interpreters hides in the medians.  Every
``--processes`` command is timed the same way in PROCESS_PAIRS rounds, twice per
round: a run being the median wall time of PROCESSES fresh ``python -m
densecode.cli`` processes of it, once after one untimed process that writes the
tree's bytecode cache (``PYTHONDONTWRITEBYTECODE`` dropped; ``processes_ms``),
and once with ``PYTHONDONTWRITEBYTECODE=1`` and the tree's ``src`` cache deleted,
so that every process compiles ``densecode`` from source, as ``setup_s`` does on
a host with that setting (``processes_uncached_ms``).  A process shows what an
op in a warm interpreter cannot, such as start-up, or a module the command
imports on first use that the op's calibration kernels have already loaded.  An
op run is the median of OP_CALLS cold calls of the CLI in-process, in
milliseconds, each timed as ``clibench/worker.py`` times an op: every
``lru_cache`` of the ``densecode.*`` modules cleared, ``gc.collect()``, then the
op's workload's calibration kernels (``clibench/calibration.py``, imported from
the tree), then one call.  A call
run is the median of CALLS wall times of the statement in microseconds, each
timed cold, after a fixed pass over a 4 MiB array (``clibench/calibration.py``'s
``_memory`` kernel), so a fixed cost that a warm loop would hide, such as a
small state's copy, shows as it does in one CLI call.  A call run cannot see
fresh-page faults: the array pass leaves glibc's heap holding warm pages, which
the statement's allocations reuse, so a saving in fresh pages shows only in an
op or a workload run.  Setup code, run once and untimed, goes before `` ;; ``
in the statement; both run after ``import numpy as np; from densecode import *;
from densecode import coding``.  Both files are rewritten after every run, so
an interrupted series keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Optional

import numpy as np

COMMAND = "python3 clibench/run.py --workload W --seed S --seconds 20 --trace 0"
SLOWDOWN = re.compile(r"host ran ([0-9.]+)x slower")
WORKLOAD_OF = {"encode": "roundtrip", "audit": "audit", "security": "security"}
OP_CALLS = 101
SINGLE_OP = r"""
import contextlib, gc, io, statistics, sys, time
sys.path[:0] = ["src", "clibench"]
import densecode.cli as cli
from calibration import KERNELS
kernels = KERNELS[sys.argv[1]]
calls, argv = int(sys.argv[2]), sys.argv[3:]
caches = [obj for name, mod in list(sys.modules.items()) if name.startswith("densecode.")
          for obj in vars(mod).values() if hasattr(obj, "cache_clear")]  # every lru_cache
times = []
for _ in range(calls):
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    for kernel in kernels:
        kernel()
    t = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    times.append(time.perf_counter() - t)
    assert code in (0, 4), code  # 4 is the security-abort verdict of a detecting attack
print(statistics.median(times) * 1e3)
"""
CALL_PAIRS = 7
PROCESS_PAIRS = 14  # 7 rounds could not resolve a few ms of a 150 ms process
PROCESSES = 21
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


def git(*argv: str) -> bytes:
    return subprocess.run(["git", *argv], check=True, capture_output=True).stdout


def archive(rev: str, dest: str) -> str:
    """A fresh tree of commit ``rev`` at ``dest``."""
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=git("archive", rev), check=True)
    return dest


def worktree_copy(dest: str) -> str:
    """A fresh tree at ``dest`` of this checkout's files, as ``git add -A`` would
    commit them: tracked and untracked, less what ``.gitignore`` excludes."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        path = os.fsdecode(name)
        if path and os.path.isfile(path):  # a tracked file deleted here is left out
            os.makedirs(os.path.join(dest, os.path.dirname(path)), exist_ok=True)
            shutil.copy2(path, os.path.join(dest, path))
    return dest


def bench_run(tree: str, workload: str, seed: int) -> dict:
    argv = [sys.executable, "clibench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "20", "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True).stdout
    return {"host_slowdown": float(SLOWDOWN.search(out).group(1)),
            "last_line": json.loads(out.strip().splitlines()[-1]), "seed": seed}


def single_op_ms(tree: str, op: str) -> float:
    """The median milliseconds of OP_CALLS cold calls of the CLI command ``op``."""
    argv = op.split()
    done = subprocess.run([sys.executable, "-c", SINGLE_OP, WORKLOAD_OF[argv[0]], str(OP_CALLS),
                           *argv], cwd=tree, check=True, capture_output=True, text=True,
                          env=one_thread_env())
    return float(done.stdout)


def process_ms(tree: str, command: str, cached: bool) -> float:
    """The median milliseconds of PROCESSES fresh processes of the CLI command
    ``command``: ``cached``, after one untimed process that writes the bytecode
    cache, else with none, each process compiling the package's source."""
    env = one_thread_env()
    env["PYTHONPATH"] = os.path.join(tree, "src")
    if cached:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        shutil.rmtree(os.path.join(tree, "src", "densecode", "__pycache__"), ignore_errors=True)
    argv = [sys.executable, "-m", "densecode.cli", *command.split()]
    times = []
    for _ in range(PROCESSES + 1):
        t = time.perf_counter()
        done = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
        assert done.returncode in (0, 4), done.returncode  # 4: the security-abort verdict
    return statistics.median(times[1:]) * 1e3


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


def vs_parent(side: list[dict], parent: list[dict], better: dict) -> dict:
    """Each metric's shift of ``side``'s median from the parent's, and in how many
    of the seeds both ran ``side`` read better (``better``: metric -> "higher" or
    "lower"); a tie counts for neither."""
    out = {}
    pairs = list(zip(parent, side))  # both lists follow the seeds in order
    for name in side[0]["last_line"]["metrics"]:
        mine, theirs = ([run["last_line"]["metrics"][name]["value"] for run in runs]
                        for runs in (side, parent))
        sign = 1 if better[name] == "higher" else -1
        wins = sum(sign * (b["last_line"]["metrics"][name]["value"]
                           - a["last_line"]["metrics"][name]["value"]) > 0 for a, b in pairs)
        out[name] = {"shift": statistics.median(mine) / statistics.median(theirs) - 1,
                     "wins": f"{wins}/{len(pairs)}"}
    return out


def _medians(timed: dict, parent: Optional[dict] = None) -> dict:
    """Each item's runs and their median; given the parent's runs, also each
    rotation's ratio to the parent's run of the same rotation, and their median."""
    out = {}
    for item, runs in timed.items():
        out[item] = {"median": statistics.median(runs), "runs": runs}
        if parent is not None:
            ratios = [mine / theirs for mine, theirs in zip(runs, parent[item])]
            out[item].update(ratios=ratios, ratio_median=statistics.median(ratios))
    return out


def side_doc(runs: dict, ops: dict, calls: dict, processes: dict, uncached: dict,
             parent: Optional[dict] = None) -> dict:
    """One side's file body; ``parent``, the parent's {"ops": ..., "calls": ...,
    "processes": ..., "uncached": ...}, adds each timed item's ratios to it."""
    return {"calls_us": _medians(calls, parent and parent["calls"]),
            "processes_ms": _medians(processes, parent and parent["processes"]),
            "processes_uncached_ms": _medians(uncached, parent and parent["uncached"]),
            "single_ops_ms": _medians(ops, parent and parent["ops"]),
            "workloads": {w: {"runs": r, "summary": summary(r)} for w, r in runs.items() if r}}


def comparison(runs: dict, better: dict) -> dict:
    """Per workload, the change's and the A/A control's ``vs_parent``."""
    return {w: {side: vs_parent(runs[side][w], parent, better)
                for side in ("change", "control") if runs.get(side, {}).get(w)}
            for w, parent in runs["parent"].items() if parent}


def save(path: str, label: str, tree: str, doc: dict) -> None:
    doc = {
        "blas_threads": 1,
        "calls_method": f"{CALL_PAIRS} rotating rounds of fresh interpreters, each the median "
                        f"of {CALLS} calls, each timed cold after a 4 MiB array pass, one BLAS "
                        "thread; microseconds per call",
        "command": COMMAND,
        "cores": os.cpu_count(),
        "label": label,
        "numpy": np.__version__,
        "processes_method": f"{PROCESS_PAIRS} rotating rounds, each the median wall time of "
                            f"{PROCESSES} fresh `python -m densecode.cli` processes, one BLAS "
                            "thread: processes_ms after one untimed process that writes the "
                            "bytecode cache, processes_uncached_ms with PYTHONDONTWRITEBYTECODE=1 "
                            "and no cache of the package",
        "pairing": "the sides run one after the other, the first side rotating each seed; "
                   "each side is a fresh tree under one temporary directory",
        "python": platform.python_version(),
        "single_ops_method": f"{CALL_PAIRS} rotating rounds of fresh interpreters, each the "
                             f"median of {OP_CALLS} CLI calls in-process, each timed cold as "
                             "clibench/worker.py times an op (caches cleared, gc.collect(), the "
                             "workload's calibration kernels), wall time, one BLAS thread",
        "tree": tree,
        **doc,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent commit")
    ap.add_argument("--label", required=True, help="file name part, as in BENCH_<label>_*.json")
    ap.add_argument("--tree", default="", help="how the two trees are named in the files")
    ap.add_argument("--control", action="store_true",
                    help="run a second copy of the parent as a third side, an A/A control")
    ap.add_argument("--seeds", nargs="*", type=seed_range, default=[],
                    help="WORKLOAD=FIRST-LAST, one per workload")
    ap.add_argument("--ops", nargs="*", default=[], help="CLI commands timed as single ops")
    ap.add_argument("--calls", nargs="*", default=[], metavar="STMT",
                    help="Python statements timed in both trees, [SETUP ;; ]STMT")
    ap.add_argument("--processes", nargs="*", default=[], metavar="ARGV",
                    help="CLI commands timed as fresh processes")
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as root:
        sides = {"parent": archive(args.parent, os.path.join(root, "parent")),
                 "change": worktree_copy(os.path.join(root, "change"))}
        if args.control:
            sides["control"] = archive(args.parent, os.path.join(root, "control"))
        names = list(sides)
        runs = {side: {w: [] for w, _ in args.seeds} for side in sides}
        ops = {side: {} for side in sides}
        calls = {side: {} for side in sides}
        processes = {side: {} for side in sides}
        uncached = {side: {} for side in sides}

        def rotation(i: int) -> list[str]:
            return names[i % len(names):] + names[:i % len(names)]

        def save_all() -> None:
            shifts = {"vs_parent": comparison(runs, better)}
            timed = {"ops": ops["parent"], "calls": calls["parent"],
                     "processes": processes["parent"], "uncached": uncached["parent"]}
            docs = {side: {**side_doc(runs[side], ops[side], calls[side], processes[side],
                                      uncached[side], None if side == "parent" else timed),
                           **shifts}
                    for side in ("parent", "change")}
            if args.control:
                docs["parent"]["control"] = side_doc(runs["control"], ops["control"],
                                                     calls["control"], processes["control"],
                                                     uncached["control"], timed)
            for side, doc in docs.items():
                save(f"BENCH_{args.label}_{side}.json", side, f"{args.tree} {side}".strip(), doc)

        for workload, seeds in args.seeds:
            for i, seed in enumerate(seeds):
                for side in rotation(i):
                    runs[side][workload].append(bench_run(sides[side], workload, seed))
                    save_all()
                print(workload, seed, {s: round(runs[s][workload][-1]["last_line"]["metrics"]
                                                ["ops_per_s"]["value"], 1) for s in sides},
                      flush=True)
        for workload, shifts in comparison(runs, better).items():
            print(workload, {side: {m: f"{v['shift']:+.1%} ({v['wins']})"
                                    for m, v in metrics.items()}
                             for side, metrics in shifts.items()}, flush=True)
        # each: its label in the files, where its runs go, the item, how one run of
        # it in a tree is timed (with these further arguments), and its rounds
        timed = [("single_ops_ms", ops, op, single_op_ms, (), CALL_PAIRS) for op in args.ops]
        timed += [("calls_us", calls, stmt, call_us, (), CALL_PAIRS) for stmt in args.calls]
        for command in args.processes:
            timed += [("processes_ms", processes, command, process_ms, (True,), PROCESS_PAIRS),
                      ("processes_uncached_ms", uncached, command, process_ms, (False,),
                       PROCESS_PAIRS)]
        for label, into, item, measure, more, rounds in timed:
            for i in range(rounds):
                for side in rotation(i):
                    into[side].setdefault(item, []).append(measure(sides[side], item, *more))
                save_all()
            ratios = {side: statistics.median(a / b for a, b in zip(into[side][item],
                                                                    into["parent"][item]))
                      for side in sides if side != "parent"}
            print(label, item,
                  {side: round(statistics.median(into[side][item]), 2) for side in sides},
                  {f"{side}/parent": f"{ratio - 1:+.1%}" for side, ratio in ratios.items()},
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
