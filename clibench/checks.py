"""Output checks made apart from the program.

Nothing here imports ``densecode``: every expected value is worked out from
the op's inputs and the paper's rules, never from the program's code or from
a stored copy of its output.  Each checker returns a list of problems; an
empty list means the report is right.
"""

from __future__ import annotations

import math

import numpy as np

TIGHT = 1e-12  # amplitudes, closed forms: exact arithmetic up to rounding
GRAM_LIMIT = 1e-9
CAPACITY_LIMIT = 1e-9
# Failure probability of one sampled-rate check.  Hoeffding's bound holds
# for every sampler stream, so the check stays valid if the sampler changes.
HOEFFDING_DELTA = 1e-9


def ghz_block_size(n_bits: int, n_senders: int) -> int:
    """The paper's GHZ block size for D(N, k): max(2 or 3, 2(k+1) - N)."""
    return max(2 if n_bits % 2 == 0 else 3, 2 * (n_senders + 1) - n_bits)


def block_layout(n_bits: int, n_senders: int | None) -> list[tuple[int, ...]]:
    """Qubit blocks (1-based) of a layout; the last qubit of each block is
    the receiver's.  Without senders the whole register is one GHZ block."""
    if n_senders is None:
        return [tuple(range(1, n_bits + 1))]
    g = ghz_block_size(n_bits, n_senders)
    blocks = [tuple(range(1, g + 1))]
    blocks += [(q, q + 1) for q in range(g + 1, n_bits + 1, 2)]
    return blocks


def predicted_amplitudes(bits: str, n_senders: int | None) -> dict[int, float]:
    """Sparse encoded state from the message bits alone.

    A block on qubits q1..qg carries its bits b1..bg.  The resource block is
    (|0..0> + |1..1>)/sqrt 2; the first sender qubit applies
    Z^b1 X^b2 (iY = ZX), later senders X^b.  So the block holds the kets
    x = (b2, b3, .., bg, 0) and x xor 1..1, with signs (-1)^(b1 b2) and
    (-1)^(b1 (1 - b2)), each of modulus 1/sqrt 2.  The register is the
    product of its blocks.
    """
    n = len(bits)
    terms = {0: 1.0}
    for block in block_layout(n, n_senders):
        b = [int(bits[q - 1]) for q in block]
        x = [b[1]] + b[2:] + [0]
        ket = sum(bit << (n - q) for bit, q in zip(x, block))
        flip = sum(1 << (n - q) for q in block)
        s0 = -1.0 if b[0] and b[1] else 1.0
        s1 = -1.0 if b[0] and not b[1] else 1.0
        r = math.sqrt(0.5)
        terms = {
            idx | part: amp * s * r
            for idx, amp in terms.items()
            for part, s in ((ket, s0), (ket ^ flip, s1))
        }
    return terms


def check_roundtrip(report: dict, code: int, bits: str, n_senders: int | None,
                    decoded: str) -> list[str]:
    errors = []
    if code != 0:
        return [f"exit {code}, expected 0"]
    if decoded != bits:
        errors.append(f"decoded {decoded}, sent {bits}")
    res = report["results"]
    if res["message"] != bits or res["n_bits"] != len(bits):
        errors.append("report names another message")
    want = predicted_amplitudes(bits, n_senders)
    got = {int(idx): (re, im) for idx, re, im in res["amplitudes"]}
    if set(got) != set(want):
        errors.append(f"support has {len(got)} kets, expected {len(want)}")
    else:
        worst = max(max(abs(got[i][0] - a), abs(got[i][1])) for i, a in want.items())
        if worst > TIGHT:
            errors.append(f"amplitudes off by {worst:.3e}")
    if report["residuals"]["norm_deviation"] > TIGHT:
        errors.append("norm deviation above 1e-12")
    if n_senders is not None:
        errors += _check_layout(res["layout"], res["parties"], len(bits), n_senders)
    return errors


def _check_layout(layout: dict, parties: dict, n: int, k: int) -> list[str]:
    blocks = block_layout(n, k)
    errors = []
    if layout["ghz_size"] != len(blocks[0]):
        errors.append(f"GHZ block {layout['ghz_size']}, paper gives {len(blocks[0])}")
    if layout["bell_pairs"] != len(blocks) - 1:
        errors.append(f"{layout['bell_pairs']} Bell pairs, expected {len(blocks) - 1}")
    if list(layout["bob_qubits"]) != [b[-1] for b in blocks]:
        errors.append("receiver qubits are not the last qubit of each block")
    senders = sorted(q for b in blocks for q in b[:-1])
    qubits = sorted(q for p in parties.values() for q in p["qubits"])
    bit_positions = sorted(b for p in parties.values() for b in p["bits"])
    if len(parties) != k or qubits != senders or bit_positions != list(range(1, n + 1)):
        errors.append("party shares do not split the sender qubits and message bits")
    return errors


def check_audit(report: dict, code: int, kind: str, size: int,
                n_senders: int | None = None) -> list[str]:
    """``kind`` is ghz, bell or dnk; ``size`` is N, P or N."""
    if code != 0:
        return [f"exit {code}, expected 0"]
    res = report["results"]
    n = 2 * size if kind == "bell" else size
    errors = []
    if res["holevo_bound"] != n or abs(res["capacity"] - n) > CAPACITY_LIMIT:
        errors.append(f"capacity {res['capacity']}, Holevo bound is {n}")
    if report["verdict"] != "optimal" or not res["optimal"]:
        errors.append(f"verdict {report['verdict']}, expected optimal")
    if not (res["alice_size_sufficient"] and res["bob_marginal_maximally_mixed"]):
        errors.append("receiver marginal is not maximally mixed")
    if kind in ("ghz", "bell") and res["ame"] is not None:
        # Every one-qubit marginal of GHZ 2 and 3 is I/2, so both are AME;
        # from 4 qubits on a two-qubit marginal is not, but every cut stays
        # entangled (GME).  Two or more Bell pairs are a product: neither.
        want_ame = n <= 3 if kind == "ghz" else size == 1
        want_gme = kind == "ghz" or size == 1
        if res["gme"] != want_gme or res["ame"] != want_ame:
            errors.append(f"AME {res['ame']} / GME {res['gme']} wrong for {kind} {size}")
    gram_bits = {"ghz": size if size <= 10 else None,
                 "bell": n if size <= 5 else None}.get(kind)
    if gram_bits is not None:
        ortho = res["orthonormality"]
        if ortho is None or ortho["dimension"] != 2**gram_bits:
            errors.append("Gram check missing")
        elif report["residuals"]["gram_residual"] > GRAM_LIMIT:
            errors.append(f"Gram residual {report['residuals']['gram_residual']:.3e}")
    if kind == "dnk":
        trip = res["roundtrip"]
        if trip["failures"] != 0 or trip["messages_checked"] != min(2**n, 64):
            errors.append(f"dnk roundtrip {trip}")
        errors += _check_layout(res["layout"], res["layout"]["parties"], n, n_senders)
    return errors


def closed_form_detection(unitary: np.ndarray) -> tuple[float, float]:
    """(P_comp, P_had) of an attack from its ancilla branch vectors
    v_ij = column 2i of U, rows 2j..2j+1 (receiver bit i in, j out)."""
    u = np.asarray(unitary, dtype=complex)

    def v(i: int, j: int) -> np.ndarray:
        return u[2 * j: 2 * j + 2, 2 * i]

    def sq(x: np.ndarray) -> float:
        return float(np.sum(np.abs(x) ** 2))

    p_comp = (sq(v(0, 1)) + sq(v(1, 0))) / 2
    p_had = (sq(v(0, 0) - v(1, 1)) + sq(v(0, 1) - v(1, 0))) / 4
    return p_comp, p_had


def hoeffding(rounds: int) -> float:
    """Half-width within which a rate of ``rounds`` Bernoulli draws lies
    around its mean, except with probability HOEFFDING_DELTA."""
    return math.sqrt(math.log(2 / HOEFFDING_DELTA) / (2 * rounds))


def check_security(report: dict, code: int, unitary: np.ndarray | None,
                   rounds: int) -> list[str]:
    """``unitary`` is the attack's 4x4 matrix, or None for a clean channel."""
    p_comp, p_had = (0.0, 0.0) if unitary is None else closed_form_detection(unitary)
    p = (p_comp + p_had) / 2
    res = report["results"]
    exact, emp = res["exact"], res["empirical"]
    errors = []
    for key, want in (("computational_inconsistency", p_comp),
                      ("hadamard_inconsistency", p_had),
                      ("detection_probability", p)):
        if abs(exact[key] - want) > TIGHT:
            errors.append(f"exact {key} {exact[key]!r}, closed form {want!r}")
    c_rounds, h_rounds = emp["computational_rounds"], emp["hadamard_rounds"]
    c_bad = c_rounds - emp["computational_consistent"]
    h_bad = h_rounds - emp["hadamard_consistent"]
    if emp["rounds"] != rounds or c_rounds + h_rounds != rounds:
        errors.append(f"round counts {c_rounds} + {h_rounds} != {rounds}")
    if min(c_bad, h_bad) < 0 or emp["detections"] != c_bad + h_bad:
        errors.append("detections do not match the per-basis tallies")
    if abs(emp["detection_rate"] - emp["detections"] / rounds) > TIGHT:
        errors.append("detection rate is not detections / rounds")
    if p == 0.0:
        if emp["detections"] != 0 or code != 0 or report["verdict"] != "pass":
            errors.append(f"clean channel: {emp['detections']} detections, exit {code}")
    else:
        for rate, want, n in ((emp["detection_rate"], p, rounds),
                              (c_bad / max(c_rounds, 1), p_comp, c_rounds),
                              (h_bad / max(h_rounds, 1), p_had, h_rounds)):
            if n and abs(rate - want) > hoeffding(n):
                errors.append(f"sampled rate {rate:.4f} too far from {want:.4f}")
        aborted = emp["detections"] > 0
        if code != (4 if aborted else 0) or report["verdict"] != ("abort" if aborted else "pass"):
            errors.append(f"exit {code} / verdict {report['verdict']} for "
                          f"{emp['detections']} detections")
    cert = res["certificate"]
    if (unitary is None) != (cert is None):
        errors.append("certificate present exactly when an attack is")
    elif cert is not None and cert["undetectable"] != (p <= TIGHT):
        errors.append(f"certificate says undetectable={cert['undetectable']}, "
                      f"closed form {p!r}")
    return errors
