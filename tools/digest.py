"""Two sha256 sweeps, to show that a change leaves every seeded CLI report and every
circuit decode byte-identical.

    python3 tools/digest.py                              # this checkout's src
    python3 tools/digest.py --src ../parent/src          # another checkout's
    python3 tools/digest.py --write tools/digests.txt    # record the expected lines
    python3 tools/digest.py --expect tools/digests.txt   # exit 1 on another line

Each sweep prints a total line, then one line per class, each with its record count,
how many records of each kind, and the sha256 of its records.  The same lines from
two checkouts mean the same records.  The report sweep also makes one line per argv:
the argv, its exit code, and sha256 prefixes of its stdout and stderr.  ``--write
FILE`` writes the printed lines to FILE and the per-argv lines to its sibling
``-argv`` file (``tools/digests-argv.txt``), after a first line ``# numpy VERSION``
that records the numpy the lines were written under: a report's last digit may
differ under another.  With ``--expect FILE`` it prints every line, then one stderr
line for each line that differs from FILE's, which names the class that moved, and
one for each argv whose line differs from the sibling file's, which names the argv;
it exits 1 if any did.  The numpy line takes no part in the comparison, and
``tests/test_digests.py`` checks the per-argv lines in tier-1 under that numpy
version.  Both sweeps call ``densecode`` in-process.

The report sweep runs ``densecode.cli.main`` on each argv below, under ``--seed``
0, 7 and 12345 and ``--format`` json, csv and text; a record is the argv, the exit
code, stdout and stderr, and its kind the exit code.  Its classes are ``audit
--ghz``, ``audit --bell``, ``audit --dnk``, ``security``, ``encode``, ``encode
--senders`` and ``value errors``.

- ``audit --ghz 2..12``, ``audit --bell 1..10`` and every ``audit --dnk N K``
  with N <= 12;
- ``security --n 2..12`` and every ``security --dnk N K`` with N <= 8, under the
  attacks none, identity, cnot and swap0;
- ``encode`` of one message of each length 2..20, with and without ``--senders``;
- ``VALUE_ERRORS``: argv that ``cli._validate`` or a command refuses, each with exit 2
  and one ``densecode:`` line: a value out of its range, not a number, a layout flag
  too many or none.  argparse's own usage errors are left out: their text changes
  with the Python version and the width argparse wraps at.

The decode sweep runs the circuit decode (``dnk_decode``) of seeded states for every
layout D(N, k) with N <= 18, one class per N.  A record is the layout, the state's
kind and the outcome: the message, or the ``NoMatchError``'s text, ``repr`` of its
best overlap and its blocks; its kind is ``messages`` or ``NoMatchError``.  The states:

- N <= 10: every code word under a random global phase;
- N > 10: eight seeded code words under a random global phase;
- every N: a code word plus noise of norm 1e-4, 1e-3, 1.4e-3 and 1e-2; two words
  mixed at t = 0.999 and 0.9999995; the word with its first amplitude off the coset,
  the state's start when it lies before the word's first entry, bumped to 1e-3,
  1.4e-3, 1.5e-3 and 3e-3, and one bumped to 3e-3 at a random place off the coset;
  and a Haar state.

The sizes sit around sqrt(1 - T**2) ~ 1.4e-3, T = OVERLAP_THRESHOLD, the most an
amplitude off the coset can hold while the word still decodes.  At N = 18 the sweep
covers states that ``StateVector`` copies with dead chunks and without: 85 of its 340
states have a first chunk of zero bits, left unwritten, and the rest, among them code
words whose zeros a phase turned to -0.0, have every chunk copied.  The states are
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
NUMPY_HEADER = "# numpy "  # the per-argv file's first line, before the version
MAX_BITS = 18
ALL_WORDS_BITS = 10  # up to here every code word is decoded
WORDS = 8  # seeded code words per layout above ALL_WORDS_BITS
VALUE_ERRORS = (
    ("audit", "--ghz", "13"),
    ("audit", "--ghz", "x"),
    ("audit", "--bell", "11"),
    ("audit", "--dnk", "6", "6"),
    ("audit", "--ghz", "3", "--tolerance", "nan"),
    ("audit", "--ghz", "3", "--tolerance", "1e400"),
    ("audit", "--tolerance", "1e-9"),
    ("security", "--n", "5", "--rounds", "0"),
    ("security", "--n", "5", "--rounds", "1e3"),
    ("security", "--n", "5", "--threshold", "1.5"),
    ("security", "--ghz", "3", "--bell", "2"),
    ("security", "--dnk", "6", "0"),
    ("security", "--n", "3", "--attack", "bogus"),
    ("encode", "--message", "1x"),
    ("encode", "--message", "1"),
    ("encode", "--message", "10", "--senders", "2"),
    ("encode", "--message", "1" * 25),
)


def commands() -> list[list[str]]:
    """The report sweep's argv before ``--seed`` and ``--format``, in a fixed order."""
    cmds = [["audit", "--ghz", str(n)] for n in range(2, 13)]
    cmds += [["audit", "--bell", str(p)] for p in range(1, 11)]
    cmds += [["audit", "--dnk", str(n), str(k)] for n in range(2, 13) for k in range(1, n)]
    cmds += [["security", "--n", str(n), "--attack", a] for n in range(2, 13) for a in ATTACKS]
    cmds += [["security", "--dnk", str(n), str(k), "--attack", a]
             for n in range(2, 9) for k in range(1, n) for a in ATTACKS]
    for n in range(2, 21):
        msg = ("1101001" * 3)[:n]
        cmds += [["encode", "--message", msg],
                 ["encode", "--message", msg, "--senders", str(n // 2)]]
    return cmds + [list(cmd) for cmd in VALUE_ERRORS]


def argv_class(cmd: list[str]) -> str:
    """The class of a sweep argv: the command, with its layout flag or ``--senders``,
    or ``value errors``."""
    if tuple(cmd) in VALUE_ERRORS:
        return "value errors"
    if cmd[0] == "audit":
        return " ".join(cmd[:2])
    return "encode --senders" if "--senders" in cmd else cmd[0]


def short_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reports(cli, argv_lines: list[str]):
    """(class, kind, record) of every report of the sweep, in a fixed order.  Each
    argv's line goes to ``argv_lines``: the argv, then ``: exit CODE stdout SHA
    stderr SHA``."""
    for cmd in commands():
        for seed, fmt in itertools.product(SEEDS, FORMATS):
            argv = [*cmd, "--seed", seed, "--format", fmt]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # a usage error, in a tree without the argv's flag
                    code = exc.code
            record = (argv, code, out.getvalue(), err.getvalue())
            argv_lines.append(f"{' '.join(argv)}: exit {code} stdout {short_sha(record[2])} "
                              f"stderr {short_sha(record[3])}")
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


def argv_file(path: str) -> str:
    """The per-argv sibling of a digest file: tools/digests.txt -> tools/digests-argv.txt."""
    root, ext = os.path.splitext(path)
    return f"{root}-argv{ext}"


def read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def read_argv_file(path: str) -> tuple[str, list[str]]:
    """The numpy version in a per-argv file's first line, and the argv lines after it."""
    header, *lines = read_lines(path)
    if not header.startswith(NUMPY_HEADER):
        raise ValueError(f"{path} does not start with a {NUMPY_HEADER!r} line")
    return header[len(NUMPY_HEADER):], lines


def moved_argv(lines: list[str], expected: list[str]) -> list[str]:
    """One text per argv whose line differs from, or is missing in, ``expected``,
    in the order of ``lines``, then of ``expected``."""
    got = dict(line.split(": exit ", 1) for line in lines)
    want = dict(line.split(": exit ", 1) for line in expected)
    return [f"{argv}: exit {got.get(argv, '(none)')} (expected exit {want.get(argv, '(none)')})"
            for argv in {**got, **want} if got.get(argv) != want.get(argv)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="the src directory whose densecode is run (default: this checkout's)")
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--expect", metavar="FILE",
                       help="exit 1 unless the lines printed are this file's lines and "
                            "the per-argv lines are its -argv sibling's")
    group.add_argument("--write", metavar="FILE",
                       help="write the lines printed to this file and the per-argv "
                            "lines to its -argv sibling")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from densecode import cli, coding

    lines, argv_lines = [], []
    for records, noun in ((reports(cli, argv_lines), "argv"), (decodes(coding), "records")):
        swept = sweep(records, noun)
        print("\n".join(swept), flush=True)
        lines += swept
    if args.write is not None:
        argv_written = [NUMPY_HEADER + np.__version__, *argv_lines]
        for path, written in ((args.write, lines), (argv_file(args.write), argv_written)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(written) + "\n")
    if args.expect is None:
        return 0
    expected = read_lines(args.expect)
    moved = [f"{got} (expected {want})"
             for got, want in itertools.zip_longest(lines, expected) if got != want]
    moved += moved_argv(argv_lines, read_argv_file(argv_file(args.expect))[1])
    for text in moved:
        print(f"moved: {text}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
