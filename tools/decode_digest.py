"""One sha256 over seeded decode records, to show that a change to the receiver's
decode leaves every result byte-identical.

    python3 tools/decode_digest.py                        # this checkout's src
    python3 tools/decode_digest.py --src ../parent/src    # another checkout's
    python3 tools/decode_digest.py --expect SHA256        # exit 1 on another sha256

It prints one line: the record count, how many are messages and how many are
``NoMatchError``s, and the sha256.  The same line from two checkouts means the same
records.  With ``--expect SHA256`` it exits 1 when the sha256 differs.  A record is
the circuit decode (``dnk_decode``) of one seeded state, written as the message, or
as the error's text, ``repr`` of its best overlap and its blocks.  The states, for every layout D(N, k) with N <= 18:

- N <= 10: every code word under a random global phase;
- N > 10: eight seeded code words under a random global phase;
- every N: a code word plus noise of norm 1e-4, 1e-3, 1.4e-3 and 1e-2; two words
  mixed at t = 0.999 and 0.9999995; the word with its first amplitude off the coset,
  which the scan reads first, bumped to 1e-3, 1.4e-3, 1.5e-3 and 3e-3, and one bumped
  to 3e-3 at a random place off the coset; and a Haar state.

The sizes sit around sqrt(1 - T**2) ~ 1.4e-3, T = OVERLAP_THRESHOLD, the most an
amplitude off the coset can hold while the word still decodes.  It calls only public
names of ``densecode.coding``, and runs in about ten seconds on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

import numpy as np

MAX_BITS = 18
ALL_WORDS_BITS = 10  # up to here every code word is decoded
WORDS = 8  # seeded code words per layout above ALL_WORDS_BITS


def unit(amps: np.ndarray) -> np.ndarray:
    return amps / np.linalg.norm(amps)


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


def records(dc):
    """(layout and kind, outcome) of every seeded state, in a fixed order."""
    for n in range(2, MAX_BITS + 1):
        for k in range(1, n):
            spec = dc.dnk_spec(n, k)
            rng = np.random.default_rng([n, k])
            msgs = (np.arange(2**n) if n <= ALL_WORDS_BITS
                    else rng.choice(2**n, WORDS, replace=False))
            words = dc.dnk_code_words(msgs, spec)
            phases = np.exp(2j * np.pi * rng.random(len(msgs)))
            states = [(f"word {m}", w * p) for m, w, p in zip(msgs.tolist(), words, phases)]
            states += near_threshold(dc.dnk_code_words(rng.choice(2**n, 3, replace=False), spec),
                                     rng)
            for kind, amps in states:
                try:
                    outcome = str(dc.dnk_decode(dc.StateVector(n, amps), spec))
                except dc.NoMatchError as err:
                    outcome = repr((str(err), err.best_overlap, err.blocks))
                yield f"D({n}, {k}) {kind}", outcome


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="the src directory whose densecode is decoded (default: this checkout's)")
    ap.add_argument("--expect", metavar="SHA256",
                    help="exit 1 unless the sha256 is this one")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import densecode.coding as dc

    digest, count, failures = hashlib.sha256(), 0, 0
    for name, outcome in records(dc):
        digest.update(f"{name}: {outcome}\n".encode())
        count += 1
        failures += outcome.startswith("(")
    print(f"{count} records ({count - failures} messages, {failures} NoMatchError) "
          f"sha256 {digest.hexdigest()}")
    if args.expect is None or digest.hexdigest() == args.expect:
        return 0
    print(f"sha256 {digest.hexdigest()} is not the expected {args.expect}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
