"""The three workloads: each builds one round of 100 CLI ops from the seed.

A round is a fixed multiset of op sizes; the seed picks only the message
bits, the attack matrices, the CLI seeds and the order.  So every seed gives
the same mix of op sizes.  In cost order every round is laid out alike: 35
cheap ops, 30 ops of one size (the median falls inside them), mid-sized ops,
a block of 15-20 ops of one size (the 90th percentile falls inside it) and
at most 5 larger ops.  Neighbouring sizes differ by 1.5x or more, so
neither percentile sits on the edge between two sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks

WORKLOADS = ("roundtrip", "audit", "security")

# (receiver bit, ancilla bit) basis {|00>, |01>, |10>, |11>}, receiver first.
PRESETS = {
    "identity": np.eye(4),
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "swap0": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
}


@dataclass
class Op:
    label: str  # the op's size class, e.g. "encode n=18"
    argv: list[str]
    check: Callable[[dict, int, Optional[str]], list[str]]
    receive: Optional[Callable[[dict], str]] = None  # roundtrip receiver


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One in-process ``densecode`` invocation; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# roundtrip


def _receiver(dc, bits: str, k: Optional[int]) -> Callable[[dict], str]:
    n = len(bits)

    def receive(report: dict) -> str:
        amps = np.zeros(2**n, dtype=complex)
        for idx, re, im in report["results"]["amplitudes"]:
            amps[idx] = complex(re, im)
        state = dc.statevec.StateVector(n, amps)
        if k is None:
            return str(dc.coding.decode_ghz(state))
        return str(dc.coding.dnk_decode(state, dc.coding.dnk_spec(n, k)))
    return receive


def encode_op(dc, rng: np.random.Generator, n: int, k: Optional[int]) -> Op:
    bits = "".join(map(str, rng.integers(0, 2, n)))
    argv = ["encode", "--message", bits]
    label = f"encode n={n}"
    if k is not None:
        argv += ["--senders", str(k)]
        label += " --senders"
    return Op(label, argv,
              lambda report, code, decoded: checks.check_roundtrip(report, code, bits, k, decoded),
              _receiver(dc, bits, k))


# (n, ops without senders, sender counts).  n=12 and n=16 run every k in
# 1..n-1; n=20 runs k=9, the layout with the most senders that still has
# nine Bell pairs, so the CLI renders 2^10 amplitudes.  Cost order: n=12..14
# (35), plain n=16 (30, the median), n=16 with senders and plain n=17 (17),
# plain n=18 (15, the tail), n=20 (3).
ROUNDTRIP_MIX = ((12, 0, range(1, 12)), (13, 12, ()), (14, 12, ()), (16, 30, range(1, 16)),
                 (17, 2, ()), (18, 15, ()), (20, 2, (9,)))


def roundtrip_round(dc, rng: np.random.Generator, outdir: str) -> list[Op]:
    ops = []
    for n, plain, ks in ROUNDTRIP_MIX:
        ops += [encode_op(dc, rng, n, None) for _ in range(plain)]
        ops += [encode_op(dc, rng, n, k) for k in ks]
    return ops


# ---------------------------------------------------------------------------
# audit


def audit_op(kind: str, size: int, cli_seed: int, k: Optional[int] = None) -> Op:
    argv = ["audit", f"--{kind}", str(size)] + ([str(k)] if k is not None else [])
    argv += ["--seed", str(cli_seed)]
    label = f"audit --{kind} {size}"
    return Op(label, argv,
              lambda report, code, _: checks.check_audit(report, code, kind, size, k))


# (kind, size, ops) for --ghz N and --bell P; --dnk 12 runs every K.  Cost
# order: GHZ 2..5 and one or two Bell pairs (35), GHZ 6 (30, the median),
# GHZ 7 and 8, three Bell pairs and the --dnk 12 sweep (15), GHZ 9 and four
# Bell pairs (15, the tail), then GHZ 10 with its 1024-word Gram check and
# GHZ 11 (5).
AUDIT_MIX = (("ghz", 2, 6), ("ghz", 3, 6), ("ghz", 4, 6), ("ghz", 5, 6), ("bell", 1, 5),
             ("bell", 2, 6), ("ghz", 6, 30), ("ghz", 7, 1), ("ghz", 8, 2), ("bell", 3, 1),
             ("ghz", 9, 14), ("bell", 4, 1), ("ghz", 10, 1), ("ghz", 11, 4))


def audit_round(dc, rng: np.random.Generator, outdir: str) -> list[Op]:
    def seed() -> int:
        return int(rng.integers(2**31))

    ops = [audit_op(kind, size, seed()) for kind, size, count in AUDIT_MIX
           for _ in range(count)]
    ops += [audit_op("dnk", 12, seed(), k) for k in range(1, 12)]
    return ops


# ---------------------------------------------------------------------------
# security


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def security_op(rng: np.random.Generator, outdir: str, n: int, kind: str,
                 rounds: int, serial: int) -> Op:
    unitary = None
    attack = kind
    if kind == "haar":
        unitary = haar_unitary(rng)
        path = os.path.join(outdir, f"attack-{serial}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[[z.real, z.imag] for z in row] for row in unitary.tolist()], fh)
        attack = f"file:{path}"
    elif kind != "none":
        unitary = PRESETS[kind]
    argv = ["security", "--n", str(n), "--rounds", str(rounds), "--attack", attack,
            "--seed", str(int(rng.integers(2**31)))]
    return Op(f"security --rounds {rounds}", argv,
              lambda report, code, _: checks.check_security(report, code, unitary, rounds))


# (check rounds, (n, attack) or None, ops).  None cycles op j through
# n = 3 + j % 3 and attack ATTACK_KINDS[j % 5], all 15 pairs.  Cost order:
# 200 rounds (35), 400 rounds at n=5 under Haar attacks (30, the median),
# 600 rounds (15), 1500 rounds at n=4 under Haar attacks (20, the tail).
ATTACK_KINDS = ("none", "identity", "cnot", "swap0", "haar")
SECURITY_MIX = ((200, None, 35), (400, (5, "haar"), 30), (600, None, 15),
                (1500, (4, "haar"), 20))


def security_round(dc, rng: np.random.Generator, outdir: str) -> list[Op]:
    ops = []
    for rounds, fixed, count in SECURITY_MIX:
        for j in range(count):
            n, kind = fixed or (3 + j % 3, ATTACK_KINDS[j % 5])
            ops.append(security_op(rng, outdir, n, kind, rounds, len(ops)))
    return ops


ROUND_BUILDERS = {
    "roundtrip": roundtrip_round,
    "audit": audit_round,
    "security": security_round,
}


def build_round(dc, workload: str, seed: int, outdir: str) -> list[Op]:
    return ROUND_BUILDERS[workload](dc, np.random.default_rng(seed), outdir)
