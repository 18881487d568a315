"""One sha256 over seeded CLI reports, to show that a change leaves every report
byte-identical.

    python3 tools/report_digest.py                        # this checkout's src
    python3 tools/report_digest.py --src ../parent/src    # another checkout's

It prints one line: the argv count, how many exited with each code, and the sha256.  The
same line from two checkouts means the same reports.  Each argv runs in-process
through ``densecode.cli.main``, and its record is the argv, the exit code, stdout and
stderr.  The sweep is every one of these under ``--seed`` 0, 7 and 12345 and
``--format`` json, csv and text:

- ``audit --ghz 2..12``, ``audit --bell 1..10`` and every ``audit --dnk N K``
  with N <= 12;
- ``security --n 2..12`` under the attacks none, identity, cnot and swap0;
- ``encode`` of one message of each length 2..20, with and without ``--senders``.

It runs in a few seconds on one core.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import os
import sys

SEEDS = ("0", "7", "12345")
FORMATS = ("json", "csv", "text")
ATTACKS = ("none", "identity", "cnot", "swap0")


def commands() -> list[list[str]]:
    """The sweep's argv before ``--seed`` and ``--format``, in a fixed order."""
    cmds = [["audit", "--ghz", str(n)] for n in range(2, 13)]
    cmds += [["audit", "--bell", str(p)] for p in range(1, 11)]
    cmds += [["audit", "--dnk", str(n), str(k)] for n in range(2, 13) for k in range(1, n)]
    cmds += [["security", "--n", str(n), "--attack", a] for n in range(2, 13) for a in ATTACKS]
    for n in range(2, 21):
        msg = ("1101001" * 3)[:n]
        cmds += [["encode", "--message", msg],
                 ["encode", "--message", msg, "--senders", str(n // 2)]]
    return cmds


def run(cli, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="the src directory whose densecode is run (default: this checkout's)")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import densecode.cli as cli

    digest, codes = hashlib.sha256(), collections.Counter()
    for cmd in commands():
        for seed in SEEDS:
            for fmt in FORMATS:
                argv = [*cmd, "--seed", seed, "--format", fmt]
                code, out, err = run(cli, argv)
                digest.update(repr((argv, code, out, err)).encode())
                codes[code] += 1
    exits = ", ".join(f"{codes[code]} exit {code}" for code in sorted(codes))
    print(f"{sum(codes.values())} argv ({exits}) sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
