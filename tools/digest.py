"""Two sha256 sweeps, to show that a change leaves every seeded CLI report and every
circuit decode byte-identical.

    python3 tools/digest.py                              # this checkout's src
    python3 tools/digest.py --src ../parent/src          # another checkout's
    python3 tools/digest.py > tools/digests.txt          # record the expected lines
    python3 tools/digest.py --expect tools/digests.txt   # exit 1 on another line

Each sweep prints a total line, then one line per class, each with its record count,
how many records of each kind, and the sha256 of its records.  The same lines from
two checkouts mean the same records.  With ``--expect FILE`` it prints every line,
then one stderr line for each line that differs from FILE's, which names the class
that moved, and exits 1 if any did.  Both sweeps call ``densecode`` in-process.

The report sweep runs ``densecode.cli.main`` on each argv below, under ``--seed``
0, 7 and 12345 and ``--format`` json, csv and text; a record is the argv, the exit
code, stdout and stderr, and its kind the exit code.  Its classes are ``audit
--ghz``, ``audit --bell``, ``audit --dnk``, ``security``, ``encode`` and ``encode
--senders``.

- ``audit --ghz 2..12``, ``audit --bell 1..10`` and every ``audit --dnk N K``
  with N <= 12;
- ``security --n 2..12`` under the attacks none, identity, cnot and swap0;
- ``encode`` of one message of each length 2..20, with and without ``--senders``.

The decode sweep runs the circuit decode (``dnk_decode``) of seeded states for every
layout D(N, k) with N <= 18, one class per N.  A record is the layout, the state's
kind and the outcome: the message, or the ``NoMatchError``'s text, ``repr`` of its
best overlap and its blocks; its kind is ``messages`` or ``NoMatchError``.  The states:

- N <= 10: every code word under a random global phase;
- N > 10: eight seeded code words under a random global phase;
- every N: a code word plus noise of norm 1e-4, 1e-3, 1.4e-3 and 1e-2; two words
  mixed at t = 0.999 and 0.9999995; the word with its first amplitude off the coset,
  which the scan reads first, bumped to 1e-3, 1.4e-3, 1.5e-3 and 3e-3, and one bumped
  to 3e-3 at a random place off the coset; and a Haar state.

The sizes sit around sqrt(1 - T**2) ~ 1.4e-3, T = OVERLAP_THRESHOLD, the most an
amplitude off the coset can hold while the word still decodes.  At N = 18 the sweep
covers both ways ``StateVector`` copies a large state: 85 of its 340 states have a
first chunk of zero bits and are copied into np.zeros, and the rest, among them code
words whose zeros a phase turned to -0.0, are copied chunk by chunk.  The states are
normalized with no BLAS call, so the sha256 does not depend on the BLAS thread
count.  The sweeps take about one and seven seconds on one core.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import math
import os
import sys

import numpy as np

SEEDS = ("0", "7", "12345")
FORMATS = ("json", "csv", "text")
ATTACKS = ("none", "identity", "cnot", "swap0")
MAX_BITS = 18
ALL_WORDS_BITS = 10  # up to here every code word is decoded
WORDS = 8  # seeded code words per layout above ALL_WORDS_BITS


def commands() -> list[list[str]]:
    """The report sweep's argv before ``--seed`` and ``--format``, in a fixed order."""
    cmds = [["audit", "--ghz", str(n)] for n in range(2, 13)]
    cmds += [["audit", "--bell", str(p)] for p in range(1, 11)]
    cmds += [["audit", "--dnk", str(n), str(k)] for n in range(2, 13) for k in range(1, n)]
    cmds += [["security", "--n", str(n), "--attack", a] for n in range(2, 13) for a in ATTACKS]
    for n in range(2, 21):
        msg = ("1101001" * 3)[:n]
        cmds += [["encode", "--message", msg],
                 ["encode", "--message", msg, "--senders", str(n // 2)]]
    return cmds


def argv_class(cmd: list[str]) -> str:
    """The class of a sweep argv: the command, with its layout flag or ``--senders``."""
    if cmd[0] == "audit":
        return " ".join(cmd[:2])
    return "encode --senders" if "--senders" in cmd else cmd[0]


def reports(cli):
    """(class, kind, record) of every report of the sweep, in a fixed order."""
    for cmd in commands():
        for seed, fmt in itertools.product(SEEDS, FORMATS):
            argv = [*cmd, "--seed", seed, "--format", fmt]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            record = (argv, code, out.getvalue(), err.getvalue())
            yield argv_class(cmd), f"exit {code}", repr(record)


def unit(amps: np.ndarray) -> np.ndarray:
    # np.linalg.norm is a BLAS dot whose sum splits with the thread count
    return amps / np.sqrt(np.sum(amps.real**2 + amps.imag**2))


def near_threshold(words: np.ndarray, rng: np.random.Generator):
    """(kind, amplitudes) around the decode threshold, from three distinct words."""
    dim = words.shape[1]
    w0, w1, w2 = words * np.exp(2j * np.pi * rng.random(3))[:, None]
    complex_normal = lambda: rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    for eps in (1e-4, 1e-3, 1.4e-3, 1e-2):
        yield f"noise {eps}", unit(w0 + eps * unit(complex_normal()))
    for t in (0.999, 0.9999995):
        yield f"mix {t}", unit(t * w1 + math.sqrt(1 - t**2) * w2)
    off = np.flatnonzero(words[0] == 0)
    bumps = [(off[0], eps) for eps in (1e-3, 1.4e-3, 1.5e-3, 3e-3)] + [(rng.choice(off), 3e-3)]
    for at, eps in bumps:
        bumped = w0.copy()
        bumped[at] = eps * np.exp(2j * np.pi * rng.random())
        yield f"bump {at} {eps}", unit(bumped)
    yield "haar", unit(complex_normal())


def decodes(dc):
    """(class, kind, record) of every seeded state's decode, in a fixed order."""
    for n in range(2, MAX_BITS + 1):
        for k in range(1, n):
            spec = dc.dnk_spec(n, k)
            rng = np.random.default_rng([n, k])
            msgs = (np.arange(2**n) if n <= ALL_WORDS_BITS
                    else rng.choice(2**n, WORDS, replace=False))
            words = dc.dnk_code_words(msgs, spec)
            phases = np.exp(2j * np.pi * rng.random(len(msgs)))
            states = [(f"word {m}", w * p) for m, w, p in zip(msgs.tolist(), words, phases)]
            three = dc.dnk_code_words(rng.choice(2**n, 3, replace=False), spec)
            states += near_threshold(three, rng)
            for kind, amps in states:
                try:
                    result, outcome = "messages", dc.dnk_decode(dc.StateVector(n, amps), spec)
                except dc.NoMatchError as err:
                    result, outcome = "NoMatchError", (str(err), err.best_overlap, err.blocks)
                # a message as its bits, an error's tuple as its repr
                yield f"decode N={n}", result, f"D({n}, {k}) {kind}: {outcome}\n"


def sweep(records, noun: str) -> list[str]:
    """The total line and one line per class of (class, kind, record) triples, with
    classes and kinds in the order first seen."""
    total = hashlib.sha256(), collections.Counter()
    classes = collections.defaultdict(lambda: (hashlib.sha256(), collections.Counter()))
    for name, kind, record in records:
        for digest, counts in (total, classes[name]):
            digest.update(record.encode())
            counts[kind] += 1

    def line(digest, counts) -> str:
        shown = ", ".join(f"{count} {kind}" for kind, count in counts.items())
        return f"{sum(counts.values())} {noun} ({shown}) sha256 {digest.hexdigest()}"

    return [line(*total)] + [f"{name}: {line(*c)}" for name, c in classes.items()]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="the src directory whose densecode is run (default: this checkout's)")
    ap.add_argument("--expect", metavar="FILE",
                    help="exit 1 unless the lines printed are this file's lines")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from densecode import cli, coding

    lines = []
    for records, noun in ((reports(cli), "argv"), (decodes(coding), "records")):
        swept = sweep(records, noun)
        print("\n".join(swept), flush=True)
        lines += swept
    if args.expect is None:
        return 0
    with open(args.expect, encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    moved = [pair for pair in itertools.zip_longest(lines, expected) if pair[0] != pair[1]]
    for got, want in moved:
        print(f"moved: {got} (expected {want})", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
