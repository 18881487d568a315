"""Checker self-test: each checker must pass a genuine report and fail a
corrupted copy of it.  Runs in every worker before the timed phase."""

from __future__ import annotations

import copy

import numpy as np

import workloads


def _amp_sign(r, c, d):
    r["results"]["amplitudes"][0][1] *= -1
    return r, c, d


def _amp_drop(r, c, d):
    r["results"]["amplitudes"].pop()
    return r, c, d


def _decoded_flip(r, c, d):
    return r, c, ("1" if d[0] == "0" else "0") + d[1:]


def _layout_block(r, c, d):
    r["results"]["layout"]["ghz_size"] += 1
    return r, c, d


def _capacity(r, c, d):
    r["results"]["capacity"] -= 1e-6
    return r, c, d


def _gme(r, c, d):
    r["results"]["gme"] = not r["results"]["gme"]
    return r, c, d


def _gram(r, c, d):
    r["residuals"]["gram_residual"] = 1e-6
    return r, c, d


def _dnk_failure(r, c, d):
    r["results"]["roundtrip"]["failures"] = 1
    return r, c, d


def _exact(r, c, d):
    r["results"]["exact"]["detection_probability"] += 1e-9
    return r, c, d


def _round_count(r, c, d):
    r["results"]["empirical"]["computational_rounds"] += 1
    return r, c, d


def _certificate(r, c, d):
    r["results"]["certificate"]["undetectable"] = not r["results"]["certificate"]["undetectable"]
    return r, c, d


def _exit_code(r, c, d):
    return r, 4 - c, d


def _clean_detection(r, c, d):
    emp = r["results"]["empirical"]
    emp["computational_consistent"] -= 1
    emp["detections"] += 1
    emp["detection_rate"] = emp["detections"] / emp["rounds"]
    return r, c, d


def _sampled_rate(r, c, d):
    # Hide every Hadamard-basis inconsistency while keeping the tallies
    # self-consistent, so only the sampled-rate bound can catch it.
    emp = r["results"]["empirical"]
    emp["detections"] -= emp["hadamard_rounds"] - emp["hadamard_consistent"]
    emp["hadamard_consistent"] = emp["hadamard_rounds"]
    emp["detection_rate"] = emp["detections"] / emp["rounds"]
    return r, c, d


def _cases(dc, outdir):
    rng = np.random.default_rng(0)
    enc = workloads.encode_op
    aud = workloads.audit_op
    sec = workloads.security_op
    return [
        (enc(dc, rng, 7, None), (_amp_sign, _amp_drop, _decoded_flip)),
        (enc(dc, rng, 8, 3), (_amp_sign, _decoded_flip, _layout_block)),
        (aud("ghz", 4, 1), (_capacity, _gme, _gram)),
        (aud("ghz", 3, 1), (_gme,)),
        (aud("bell", 2, 1), (_capacity, _gme, _gram)),
        (aud("dnk", 7, 1, 4), (_capacity, _dnk_failure, _layout_block)),
        (sec(rng, outdir, 3, "none", 400, 900), (_exact, _round_count, _exit_code, _clean_detection)),
        (sec(rng, outdir, 4, "cnot", 400, 901), (_exact, _certificate, _exit_code, _sampled_rate)),
        (sec(rng, outdir, 3, "haar", 400, 902), (_exact, _round_count, _certificate)),
    ]


def run(dc, outdir: str, run_op) -> list[str]:
    """Problems found; an empty list means every checker works."""
    problems = []
    for op, corruptions in _cases(dc, outdir):
        _, errors, report, code, decoded = run_op(op)
        if errors:
            problems.append(f"{op.argv}: genuine report rejected: {errors}")
            continue
        for corrupt in corruptions:
            bad = corrupt(copy.deepcopy(report), code, decoded)
            if not op.check(*bad):
                problems.append(f"{op.argv}: {corrupt.__name__} corruption not caught")
    return problems
