import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import stat
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from densecode import cli, coding, security
from densecode.cli import main, render_report
from densecode.coding import dnk_encoded_state, dnk_spec


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code in (0, 4), err
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# encode


def test_encode_five_bits(capsys):
    code, report = run_json(["encode", "--message", "10110"], capsys)
    assert code == 0
    assert report["command"] == "encode"
    assert report["verdict"] == "ok"
    assert report["results"]["operator"]["labels"] == ["Z", "X", "X", "I"]
    amps = {idx: (re, im) for idx, re, im in report["results"]["amplitudes"]}
    assert set(amps) == {0b01100, 0b10011}
    assert amps[0b01100][0] == pytest.approx(2**-0.5)
    assert amps[0b10011][0] == pytest.approx(-(2**-0.5))


def test_encode_all_zero(capsys):
    _, report = run_json(["encode", "--message", "000"], capsys)
    assert report["results"]["operator"]["labels"] == ["I", "I"]
    indices = sorted(idx for idx, _, _ in report["results"]["amplitudes"])
    assert indices == [0, 7]


def test_encode_with_senders(capsys):
    _, report = run_json(["encode", "--message", "110100", "--senders", "4"], capsys)
    parties = report["results"]["parties"]
    assert parties["1"]["operator"]["labels"] == ["iY"]
    assert parties["2"]["operator"]["labels"] == ["I"]
    assert parties["3"]["operator"]["labels"] == ["X"]
    assert parties["4"]["operator"]["labels"] == ["I"]
    assert report["results"]["layout"] == {
        "ghz_size": 4,
        "bell_pairs": 1,
        "bob_qubits": [4, 6],
    }


def test_encode_rejects_bad_alphabet(capsys):
    code, out, err = run(["encode", "--message", "10a10"], capsys)
    assert code == 2
    assert out == ""
    assert "0 and 1" in err


def test_encode_rejects_short_message(capsys):
    code, _, err = run(["encode", "--message", "1"], capsys)
    assert code == 2
    assert "at least 2 bits" in err


def test_encode_rejects_message_beyond_cap(capsys):
    code, out, err = run(["encode", "--message", "1" * 25], capsys)
    assert (code, out) == (2, "")
    assert err == "densecode: --message supports at most 24 bits, got 25\n"


def test_encode_rejects_bad_sender_count(capsys):
    code, _, err = run(["encode", "--message", "101", "--senders", "3"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# audit


def test_audit_ghz3(capsys):
    code, report = run_json(["audit", "--ghz", "3"], capsys)
    assert code == 0
    assert report["verdict"] == "optimal"
    assert report["results"]["capacity"] == pytest.approx(3.0)
    assert report["results"]["holevo_bound"] == 3
    assert report["results"]["ame"] is True
    assert report["results"]["gme"] is True
    assert report["residuals"]["gram_residual"] < 1e-9


def test_audit_ghz4_verdicts(capsys):
    _, report = run_json(["audit", "--ghz", "4"], capsys)
    assert report["results"]["ame"] is False
    assert report["results"]["gme"] is True
    assert report["results"]["optimal"] is True


def test_audit_ghz12_skips_gram(capsys):
    _, report = run_json(["audit", "--ghz", "12"], capsys)
    assert report["results"]["orthonormality"] is None
    assert report["results"]["capacity"] == pytest.approx(12.0)


def test_audit_largest_registers_verdicts(capsys):
    _, ghz = run_json(["audit", "--ghz", "12"], capsys)
    assert (ghz["results"]["gme"], ghz["results"]["ame"]) == (True, False)
    assert ghz["verdict"] == "optimal"
    for pairs in ("6", "10"):
        _, bell = run_json(["audit", "--bell", pairs], capsys)
        assert (bell["results"]["gme"], bell["results"]["ame"]) == (False, False)
        assert bell["verdict"] == "optimal"
        assert bell["residuals"]["bob_marginal_residual"] < 1e-12


def test_audit_bell_pairs(capsys):
    _, report = run_json(["audit", "--bell", "2"], capsys)
    assert report["results"]["capacity"] == pytest.approx(4.0)
    assert report["results"]["ame"] is False
    assert report["results"]["gme"] is False
    assert report["residuals"]["bob_marginal_residual"] < 1e-9
    assert report["verdict"] == "optimal"


def test_audit_dnk(capsys):
    _, report = run_json(["audit", "--dnk", "6", "4"], capsys)
    assert report["residuals"]["bob_marginal_residual"] < 1e-9
    assert report["results"]["layout"]["ghz_size"] == 4
    assert report["results"]["roundtrip"]["failures"] == 0
    assert report["verdict"] == "optimal"


_AUDIT_TARGETS = ([["--ghz", str(n)] for n in (2, 3, 4, 6, 10, 11, 12)]
                  + [["--bell", str(p)] for p in (1, 2, 5, 6, 7, 10)]
                  + [["--dnk", "2", "1"], ["--dnk", "7", "3"], ["--dnk", "12", "5"],
                     ["--dnk", "12", "11"]])


def test_every_audit_flag_reports_the_same_keys(capsys, monkeypatch):
    """One audit body: every flag and size fills the same result and residual
    keys, from the layout's support, with no dense resource, no every-side
    pass and no numerical marginal: the receiver's is read off the layout."""
    monkeypatch.setattr(coding, "dnk_state", Forbidden("dnk_state"))
    monkeypatch.setattr(cli.entanglement, "_marginals", Forbidden("_marginals"))
    monkeypatch.setattr(coding, "dnk_code_words", Forbidden("dnk_code_words"))
    monkeypatch.setattr(coding, "_argmax_abs", Forbidden("_argmax_abs"))
    monkeypatch.setattr(cli.entanglement, "entanglement_verdicts",
                        Forbidden("entanglement_verdicts"))
    keys = set()
    for target in _AUDIT_TARGETS:
        _, report = run_json(["audit", *target], capsys)
        assert report["verdict"] == "optimal", target
        assert report["results"]["bob_marginal_maximally_mixed"] is True, target
        keys.add((tuple(sorted(report["results"])), tuple(sorted(report["residuals"]))))
        n = report["results"]["holevo_bound"]
        assert report["results"]["roundtrip"] == {"messages_checked": min(2 ** int(n), 64),
                                                  "failures": 0}, target
        assert (report["residuals"]["gram_residual"] is None) == (n > coding.MAX_BASIS_BITS)
    assert len(keys) == 1, keys


@pytest.mark.parametrize("corrupt", ["index", "overlap"])
def test_audit_roundtrip_counts_a_wrong_or_weak_word_as_a_failure(capsys, monkeypatch, corrupt):
    """A sampled word that decodes to another message, or whose best circuit output is
    under the decode threshold, is a failure."""
    if corrupt == "index":
        indices = coding._message_indices
        monkeypatch.setattr(coding, "_message_indices", lambda s, a, spec: indices(s, a, spec) ^ 1)
    else:
        outputs = coding._circuit_outputs
        monkeypatch.setattr(coding, "_circuit_outputs", lambda t, spec: outputs(t, spec) * 0.999)
    _, report = run_json(["audit", "--dnk", "7", "3"], capsys)
    assert report["results"]["roundtrip"] == {"messages_checked": 64, "failures": 64}


def audit_qubits(target):
    """n of an ``_AUDIT_TARGETS`` entry: --ghz N, --bell P (2P qubits) or --dnk N K."""
    return 2 * int(target[1]) if target[0] == "--bell" else int(target[1])


def test_every_audit_builds_its_code_words_once(capsys, monkeypatch):
    """One ``_word_support`` table per audit: every word where the Gram check runs,
    else the resource (message 0) and the 64 picks."""
    calls = []
    support = coding._word_support
    monkeypatch.setattr(coding, "_word_support",
                        lambda msgs, spec: calls.append(np.asarray(msgs)) or support(msgs, spec))
    for target in _AUDIT_TARGETS:
        calls.clear()
        run_json(["audit", *target], capsys)
        assert len(calls) == 1, target
        n, (rows,) = audit_qubits(target), calls
        if n <= coding.MAX_BASIS_BITS:
            assert np.array_equal(rows, np.arange(2**n)), target
        else:
            assert len(rows) == 65 and rows[0] == 0, target
            assert np.all(np.diff(rows[1:]) > 0), target


def test_audit_of_at_most_64_words_checks_every_word_with_no_draw(capsys, monkeypatch):
    """Up to 6 qubits the roundtrip decodes every word: no ``Generator`` is built, and
    the seed changes nothing in the report but its own field."""
    monkeypatch.setattr(cli.np.random, "default_rng", Forbidden("default_rng"))
    targets = [t for t in _AUDIT_TARGETS if 2 ** audit_qubits(t) <= 64]
    assert {audit_qubits(t) for t in targets} == {2, 3, 4, 6}
    for target in targets:
        _, first = run_json(["audit", *target, "--seed", "0"], capsys)
        _, second = run_json(["audit", *target, "--seed", "99"], capsys)
        assert (first.pop("seed"), second.pop("seed")) == (0, 99)
        assert first == second, target
        assert first["results"]["roundtrip"]["messages_checked"] == 2 ** audit_qubits(target)


@pytest.mark.parametrize("n, seed", [(n, 2500 + n) for n in range(7, 13)])
def test_audit_above_64_words_decodes_the_seeds_draw(capsys, monkeypatch, n, seed):
    """Above 6 qubits the roundtrip decodes the 64 messages the seed draws, sorted,
    from the every-word table (up to 10 qubits) or from the 65-row one."""
    decoded = []
    indices = coding._coset_indices

    def spy(s, t, spec):
        messages, best = indices(s, t, spec)
        decoded.append(messages)
        return messages, best

    monkeypatch.setattr(coding, "_coset_indices", spy)
    _, report = run_json(["audit", "--ghz", str(n), "--seed", str(seed)], capsys)
    assert report["results"]["roundtrip"] == {"messages_checked": 64, "failures": 0}
    draw = np.sort(np.random.default_rng(seed).choice(2**n, 64, replace=False))
    assert len(decoded) == 1 and np.array_equal(decoded[0], draw)


def test_audit_table_shows_an_encoder_that_repeats_a_word(capsys, monkeypatch):
    """Message 1 gets message 0's masks: its word decodes to message 0, and the Gram
    check sees two equal words, though all three checks read one table."""
    masks = coding._word_masks
    monkeypatch.setattr(coding, "_word_masks",
                        lambda spec, msgs: masks(spec, np.where(msgs == 1, 0, msgs)))
    _, report = run_json(["audit", "--dnk", "6", "3"], capsys)
    assert report["results"]["roundtrip"] == {"messages_checked": 64, "failures": 1}
    assert report["residuals"]["gram_residual"] >= 0.99


def test_audit_dnk_is_optimal_but_neither_gme_nor_ame(capsys):
    """The paper's claim on D(12, 5), six blocks: the Alice|Bob cut reaches
    the Holevo bound, with no genuine multipartite entanglement."""
    _, report = run_json(["audit", "--dnk", "12", "5"], capsys)
    results = report["results"]
    assert (results["optimal"], results["gme"], results["ame"]) == (True, False, False)
    assert report["verdict"] == "optimal"
    assert report["residuals"]["ame_max_residual"] == 0.5
    assert report["residuals"]["bob_marginal_residual"] < 1e-12
    assert results["roundtrip"] == {"messages_checked": 64, "failures": 0}


def test_audit_requires_exactly_one_target(capsys):
    code, _, err = run(["audit"], capsys)
    assert code == 2
    code, _, err = run(["audit", "--ghz", "3", "--bell", "2"], capsys)
    assert code == 2


def test_audit_rejects_oversized_register(capsys):
    code, _, err = run(["audit", "--ghz", "13"], capsys)
    assert code == 2
    assert "2..12" in err


# ---------------------------------------------------------------------------
# security


def test_security_clean(capsys):
    code, report = run_json(
        ["security", "--n", "5", "--attack", "none", "--rounds", "2000", "--seed", "7"],
        capsys,
    )
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["results"]["exact"]["detection_probability"] == 0.0
    assert report["results"]["empirical"]["detections"] == 0
    assert report["results"]["certificate"] is None


def test_security_cnot_aborts(capsys):
    for n in ("5", "12"):  # 12: the largest register --n allows
        code, report = run_json(
            ["security", "--n", n, "--attack", "cnot", "--rounds", "2000", "--seed", "7"],
            capsys,
        )
        assert code == 4, n
        assert report["verdict"] == "abort"
        assert report["results"]["exact"]["detection_probability"] == pytest.approx(0.25, abs=1e-12)
        rate = report["results"]["empirical"]["detection_rate"]
        assert abs(rate - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 2000)
        cert = report["results"]["certificate"]
        assert cert["undetectable"] is False
        assert cert["branch_mismatch"] == pytest.approx(np.sqrt(2))


def test_security_attack_from_file(tmp_path, capsys):
    # identity x (Hadamard on the ancilla): undetectable by construction
    h = 2**-0.5
    rows = [
        [[h, 0], [h, 0], [0, 0], [0, 0]],
        [[h, 0], [-h, 0], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [h, 0], [h, 0]],
        [[0, 0], [0, 0], [h, 0], [-h, 0]],
    ]
    path = tmp_path / "atk.json"
    path.write_text(json.dumps(rows))
    code, report = run_json(
        ["security", "--n", "3", "--attack", f"file:{path}", "--rounds", "500", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert report["results"]["certificate"]["undetectable"] is True
    assert report["results"]["exact"]["detection_probability"] == 0.0


def test_security_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[[1, 2], [3]]")
    code, _, err = run(["security", "--n", "3", "--attack", f"file:{path}"], capsys)
    assert code == 2
    assert "attack matrix" in err


def test_security_refuses_an_integer_past_float_range_in_a_file(tmp_path, capsys):
    rows = [[[int(r == c), 0] for c in range(4)] for r in range(4)]
    rows[2][1][1] = 10**400  # 401 digits: complex() raises OverflowError
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(rows))
    code, out, err = run(
        ["security", "--n", "3", "--attack", f"file:{path}", "--rounds", "10"], capsys
    )
    assert (code, out) == (2, "")
    assert "malformed attack matrix" in err and "Traceback" not in err


def test_security_rejects_non_unitary_file(tmp_path, capsys):
    rows = [[[1, 0]] * 4 for _ in range(4)]
    path = tmp_path / "nonunitary.json"
    path.write_text(json.dumps(rows))
    code, _, err = run(["security", "--n", "3", "--attack", f"file:{path}"], capsys)
    assert code == 2
    assert "residual" in err


# One file of each kind that the reader must refuse as text mode does: the line
# numbers and columns of a syntax error count lines as text mode translates them
_CNOT_ROWS = [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]],
              [[0, 0], [0, 0], [0, 0], [1, 0]], [[0, 0], [0, 0], [1, 0], [0, 0]]]
_UNREADABLE_FILES = {
    "crlf syntax error": b"[[[1, 0], [0, 0], [0, 0], [0, 0]],\r\n [[0, 0] [1, 0]]]\r\n",
    "cr only": b"[\r[[1, 0], [0, 0]],\r\r [[0, 0], [1, 0]] ]]\r",
    "utf-8 bom": b"\xef\xbb\xbf" + json.dumps(_CNOT_ROWS).encode(),
    "invalid utf-8 early": b"[" + b" " * 100 + b"\xff]",
    "invalid utf-8 late": b"[" + b" " * 9000 + b"\xc3\x28]",
    "utf-16": json.dumps(_CNOT_ROWS).encode("utf-16"),
    "nan": json.dumps(_CNOT_ROWS).replace("[1, 0]", "[NaN, 0]", 1).encode(),
    "empty": b"",
    "missing": None,
}


@pytest.mark.parametrize("kind", _UNREADABLE_FILES)
def test_unreadable_attack_file_errors_are_text_modes(tmp_path, capsys, kind):
    """The reader takes the file as bytes; its error line is the one a text-mode
    ``json.load`` of the same file gives."""
    path = tmp_path / "attack.json"
    if _UNREADABLE_FILES[kind] is not None:
        path.write_bytes(_UNREADABLE_FILES[kind])
    with pytest.raises((OSError, ValueError)) as caught:
        with open(path, "r", encoding="utf-8") as fh:
            json.load(fh, parse_constant=cli._reject_constant)
    want = f"densecode: cannot read attack matrix file {str(path)!r}: {caught.value}\n"
    code, out, err = run(["security", "--n", "3", "--attack", f"file:{path}"], capsys)
    assert (code, out, err) == (2, "", want)


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_security_rejects_non_finite_file(tmp_path, capsys, entry):
    rows = [[[1 if r == c else 0, 0] for c in range(4)] for r in range(4)]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(rows).replace("[1, 0]", f"[{entry}, 0]", 1))
    code, out, err = run(
        ["security", "--n", "3", "--attack", f"file:{path}", "--rounds", "10"], capsys
    )
    assert code == 2
    assert out == ""
    assert str(path) in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["security", "--n", "3", "--threshold", "-1", "--rounds", "100"], "--threshold"),
        (["security", "--n", "3", "--threshold", "1.5"], "--threshold"),
        (["security", "--n", "3", "--threshold", "nan"], "--threshold"),
        (["security", "--n", "3", "--cert-tolerance", "-0.5"], "--cert-tolerance"),
        (["security", "--n", "3", "--cert-tolerance", "inf"], "--cert-tolerance"),
        (["audit", "--ghz", "3", "--tolerance", "nan"], "--tolerance"),
        (["audit", "--ghz", "3", "--tolerance", "-1"], "--tolerance"),
        (["audit", "--ghz", "3", "--tolerance", "inf"], "--tolerance"),
        (["security", "--n", "3", "--rounds", "0"], "--rounds"),
        (["security", "--n", "3", "--rounds", "9223372036854775808"], "--rounds"),
        (["audit", "--dnk", "12", "0"], "--dnk"),
        (["audit", "--dnk", "12", "12"], "--dnk"),
        (["encode", "--message", "1010", "--senders", "0"], "--senders"),
        # one past each end of the range table
        (["audit", "--ghz", "1"], "--ghz"),
        (["audit", "--bell", "0"], "--bell"),
        (["audit", "--bell", "11"], "--bell"),
        (["audit", "--dnk", "1", "1"], "--dnk"),
        (["audit", "--dnk", "13", "5"], "--dnk"),
        (["security", "--n", "1"], "--n"),
        (["security", "--n", "13"], "--n"),
    ],
)
def test_rejects_out_of_range_flags(capsys, argv, flag):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert flag in err
    assert err.startswith(f"densecode: {flag} ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["audit", "--ghz", "2"],
    ["audit", "--bell", "10"],
    ["security", "--n", "12", "--rounds", "100"],
])
def test_range_table_ends_are_inclusive(capsys, argv):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] in ("optimal", "pass")


def test_threshold_bounds_are_inclusive(capsys):
    code, report = run_json(
        ["security", "--n", "3", "--attack", "swap0", "--threshold", "1", "--rounds", "200"],
        capsys,
    )
    assert code == 0
    assert report["verdict"] == "pass"


def test_security_rejects_unknown_preset(capsys):
    code, _, err = run(["security", "--n", "3", "--attack", "mystery"], capsys)
    assert code == 2
    assert "swap0" in err


def test_security_identity_preset_passes(capsys):
    code, report = run_json(
        ["security", "--n", "4", "--attack", "identity", "--rounds", "400", "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["results"]["certificate"]["undetectable"] is True
    assert report["results"]["exact"]["detection_probability"] == 0.0


ATTACK_NAMES = ["none", *sorted(security.ATTACK_PRESETS)]


@pytest.mark.parametrize("n", range(2, 13))
def test_security_ghz_is_the_n_alias(capsys, n):
    for attack, seed in itertools.product(ATTACK_NAMES, ("0", "7")):
        tail = ["--attack", attack, "--rounds", "500", "--seed", seed]
        code_n, by_n = run_json(["security", "--n", str(n), *tail], capsys)
        code_ghz, by_ghz = run_json(["security", "--ghz", str(n), *tail], capsys)
        assert code_ghz == code_n and by_ghz["verdict"] == by_n["verdict"]
        assert by_ghz["results"] == by_n["results"]
        by_n["params"]["ghz"] = by_n["params"].pop("n")
        assert by_ghz["params"] == by_n["params"]


@pytest.mark.parametrize("pairs", range(1, 7))  # --dnk N stops at 12
def test_security_bell_is_dnk_with_one_sender(capsys, pairs):
    tail = ["--attack", "swap0", "--rounds", "500", "--seed", "3"]
    _, by_bell = run_json(["security", "--bell", str(pairs), *tail], capsys)
    _, by_dnk = run_json(["security", "--dnk", str(2 * pairs), "1", *tail], capsys)
    assert by_bell["results"] == by_dnk["results"]
    assert by_bell["results"]["layout"] == {
        "ghz_size": 2, "bell_pairs": pairs - 1, "bob_qubits": list(range(2, 2 * pairs + 1, 2))}


def test_security_on_a_layout_fails_a_round_if_any_block_fails(capsys):
    # D(6, 3) is three Bell pairs; cnot fails a Hadamard round of one block
    # half the time, so a round of three fails with 1 - (1/2)^3
    code, report = run_json(
        ["security", "--dnk", "6", "3", "--attack", "cnot", "--rounds", "1000", "--seed", "7"],
        capsys,
    )
    assert code == 4 and report["verdict"] == "abort"
    assert report["results"]["exact"] == {"computational_inconsistency": 0.0,
                                          "hadamard_inconsistency": 0.875,
                                          "detection_probability": 0.4375}
    assert report["results"]["layout"]["bob_qubits"] == [2, 4, 6]
    assert report["results"]["n"] == 6 and report["params"]["dnk"] == [6, 3]


@pytest.mark.parametrize("layout", [[], ["--n", "3", "--ghz", "3"], ["--ghz", "3", "--bell", "2"],
                                    ["--bell", "2", "--dnk", "4", "1"],
                                    ["--dnk", "4", "1", "--n", "4"]])
def test_security_needs_exactly_one_layout_flag(capsys, layout):
    code, out, err = run(["security", *layout, "--rounds", "10"], capsys)
    assert (code, out) == (2, "")
    assert err == "densecode: security requires exactly one of --ghz, --bell, --dnk, --n\n"


@pytest.mark.parametrize("argv, flag", [
    (["security", "--ghz", "13"], "--ghz"),
    (["security", "--bell", "11"], "--bell"),
    (["security", "--dnk", "13", "5"], "--dnk"),
    (["security", "--dnk", "6", "6"], "--dnk K"),
])
def test_security_layout_flags_keep_the_audit_ranges(capsys, argv, flag):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"densecode: {flag} ") and err.count("\n") == 1


def traced_peak(argv):
    """The tracemalloc peak of one in-process CLI call, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)  # imports, caches and the layout's spec, untraced
        tracemalloc.start()
        try:
            main(argv)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_security_memory_does_not_grow_with_the_register():
    # The dense path peaked at 580 KiB at --n 12 against 6 KiB at --n 3
    tail = ["--attack", "cnot", "--rounds", "1000", "--seed", "7"]
    small = traced_peak(["security", "--n", "3", *tail])
    for layout in (["--n", "12"], ["--dnk", "12", "5"], ["--bell", "10"]):
        assert traced_peak(["security", *layout, *tail]) <= small + 4096, layout


def test_audit_bell_beyond_caps_reports_null(capsys):
    _, report = run_json(["audit", "--bell", "7"], capsys)
    assert report["results"]["ame"] is False
    assert report["results"]["orthonormality"] is None
    assert report["results"]["roundtrip"] == {"messages_checked": 64, "failures": 0}
    assert report["results"]["capacity"] == pytest.approx(14.0)
    assert report["residuals"]["bob_marginal_residual"] < 1e-9


# ---------------------------------------------------------------------------
# output handling


def test_reports_are_byte_identical(capsys):
    argv = ["security", "--n", "4", "--attack", "cnot", "--rounds", "300", "--seed", "11"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_csv_format(capsys):
    code, out, _ = run(
        ["security", "--n", "3", "--attack", "none", "--rounds", "50",
         "--seed", "2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert lines["results.exact.detection_probability"] == "0.0"
    assert lines["verdict"] == '"pass"'


def test_text_format(capsys):
    code, out, _ = run(["audit", "--ghz", "2", "--format", "text"], capsys)
    assert code == 0
    assert "results.capacity" in out


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        ["audit", "--ghz", "3", "--output", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["command"] == "audit"


def test_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("DENSECODE_SEED", "991")
    _, report = run_json(["audit", "--ghz", "2"], capsys)
    assert report["seed"] == 991


def test_seed_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("DENSECODE_SEED", "991")
    _, report = run_json(["audit", "--ghz", "2", "--seed", "5"], capsys)
    assert report["seed"] == 5


@pytest.mark.parametrize("argv", [
    ["audit", "--ghz", "3", "--seed", "-1"],
    ["audit", "--dnk", "6", "2", "--seed", "-1"],
    ["security", "--n", "3", "--rounds", "100", "--seed", "-1"],
    ["encode", "--message", "1010", "--seed", str(2**63)],
    ["encode", "--message", "1010", "--seed", "1.5"],
])
def test_out_of_range_seed_exits_2_naming_the_flag(capsys, argv):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("densecode: --seed must be an integer in [0, 2**63)")
    assert len(err.splitlines()) == 1


def test_largest_seed_is_accepted(capsys):
    _, report = run_json(["audit", "--ghz", "2", "--seed", str(2**63 - 1)], capsys)
    assert report["seed"] == 2**63 - 1


@pytest.mark.parametrize("raw", ["-1", str(2**63), "seven"])
def test_out_of_range_seed_variable_exits_2_naming_it(capsys, monkeypatch, raw):
    monkeypatch.setenv("DENSECODE_SEED", raw)
    code, out, err = run(["security", "--n", "3", "--rounds", "100"], capsys)
    assert (code, out) == (2, "")
    assert err == f"densecode: DENSECODE_SEED must be an integer in [0, 2**63), got {raw!r}\n"


def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(["encode", "--message", "1010", "--output", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == f"densecode: cannot write the report to {str(target)!r}: No such file or directory\n"


def test_failed_output_leaves_no_temporary_file(tmp_path, capsys):
    target = tmp_path / "a_directory"
    target.mkdir()
    code, _, err = run(["audit", "--ghz", "2", "--output", str(target)], capsys)
    assert code == 2
    assert str(target) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory"]


def test_a_failed_replace_removes_its_temporary_file(tmp_path, capsys, monkeypatch):
    """The temporary file is written when the final ``os.replace`` fails: it is
    removed, and the file it was to replace keeps its old text."""
    target = tmp_path / "report.json"
    target.write_text("old")
    replaced = []

    def failing_replace(src, dst):
        replaced.append((os.path.basename(src), os.path.isfile(src), dst))
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    code, out, err = run(["audit", "--ghz", "2", "--output", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == f"densecode: cannot write the report to {str(target)!r}: Permission denied\n"
    [(name, written, dst)] = replaced
    assert name.startswith(".densecode-") and written and dst == os.path.realpath(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    assert target.read_text() == "old"


def test_output_through_a_symlink_writes_its_target(tmp_path, capsys):
    real = tmp_path / "real.json"
    real.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    code, out, _ = run(["audit", "--ghz", "3", "--output", str(link)], capsys)
    assert (code, out) == (0, "")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert json.loads(real.read_text())["command"] == "audit"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_output_to_a_fifo_writes_through_it(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    # a daemon: were the FIFO replaced, its reader would block for good
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    try:
        code, out, _ = run(["audit", "--ghz", "3", "--output", str(fifo)], capsys)
    finally:
        reader.join(timeout=10)
    assert (code, out) == (0, "")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert json.loads(received[0])["command"] == "audit"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


def test_new_output_file_gets_the_umask_mode(tmp_path, capsys):
    target = tmp_path / "report.json"
    old = os.umask(0o027)
    try:
        code, _, _ = run(["audit", "--ghz", "2", "--output", str(target)], capsys)
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o640


def test_replaced_output_file_keeps_its_mode(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("old")
    target.chmod(0o604)
    code, _, _ = run(["audit", "--ghz", "2", "--output", str(target)], capsys)
    assert code == 0
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o604
    assert json.loads(target.read_text())["command"] == "audit"


def test_output_file_is_written_where_its_mode_cannot_be_set(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old")

    def refuse(fd, mode):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "fchmod", refuse)
    code, out, err = run(["audit", "--ghz", "2", "--output", str(target)], capsys)
    assert (code, out, err) == (0, "", "")
    assert json.loads(target.read_text())["command"] == "audit"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_report({"a": 1}, "yaml")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_render_rejects_non_finite_values(fmt):
    report = {"command": "audit", "residuals": {"gram_residual": float("nan")}}
    with pytest.raises(ValueError):
        render_report(report, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("items, first", [
    ([float("nan"), 1.0], float("nan")),
    ([1, "a", float("inf")], float("inf")),
    ([0.5, -float("inf"), float("nan")], -float("inf")),  # the first in list order
])
def test_render_refuses_a_non_finite_float_in_a_list_of_scalars(fmt, items, first):
    with pytest.raises(ValueError, match=re.escape(f"not JSON compliant: {first!r}")):
        render_report({"command": "audit", "results": {"x": items}}, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("value", [object(), {1, 2}, 1j, b"01"], ids=lambda v: type(v).__name__)
def test_render_refuses_a_non_json_value_as_json_dumps_does(fmt, value):
    with pytest.raises(TypeError) as want:
        json.dumps(value)
    with pytest.raises(TypeError) as got:
        render_report({"command": "audit", "results": {"x": value}}, fmt)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("value", [object(), {1, 2}, 1j, b"01"], ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("at", [0, 2])
def test_render_refuses_a_non_json_list_item_as_json_dumps_does(fmt, value, at):
    items = [1, "a", 0.5]
    items.insert(at, value)
    with pytest.raises(TypeError) as want:
        json.dumps(items)
    with pytest.raises(TypeError) as got:
        render_report({"command": "audit", "results": {"x": items}}, fmt)
    assert str(got.value) == str(want.value)


def test_flat_rows_join_a_list_of_json_scalars_and_write_any_other_list_as_json():
    report = {"a": [True, None, 1.5, "b,c", 3], "d": [], "e": [1, {"f": [2]}]}
    assert render_report(report, "csv") == (
        'a,"True;None;1.5;b,c;3"\nd,\ne,"[1, {""f"": [2]}]"\n')
    assert render_report(report, "text") == 'a  True;None;1.5;b,c;3\nd  \ne  [1, {"f": [2]}]\n'


def test_non_finite_report_exits_with_code_2(capsys, monkeypatch):
    from densecode import cli

    def nan_report(cfg):
        return {"command": "encode", "results": {"x": float("inf")}}, 0

    monkeypatch.setitem(cli._COMMANDS, "encode", nan_report)
    code, out, err = run(["encode", "--message", "01"], capsys)
    assert (code, out) == (2, "")
    assert "not JSON compliant" in err


def is_plain_json(value):
    """True when ``value`` is built only of str-keyed dicts, lists, str, int,
    float, bool and None, compared by exact type: a numpy scalar or a tuple
    would render differently in csv or text."""
    if type(value) is dict:
        return all(type(k) is str and is_plain_json(v) for k, v in value.items())
    if type(value) is list:
        return all(is_plain_json(v) for v in value)
    return type(value) in (str, int, float, bool, type(None))


def every_command(tmp_path):
    """Argv for each command and each way it fills its report."""
    path = tmp_path / "atk.json"
    path.write_text(json.dumps([[[int(r == c), 0] for c in range(4)] for r in range(4)]))
    return [
        ["encode", "--message", "1011010010"],
        ["encode", "--message", "1011010010", "--senders", "4"],
        ["audit", "--ghz", "5"],
        ["audit", "--bell", "3"],
        ["audit", "--dnk", "7", "3"],
        *(["security", "--n", "3", "--rounds", "200", "--attack", attack]
          for attack in ["none", *sorted(security.ATTACK_PRESETS), f"file:{path}"]),
    ]


def report_of(argv):
    args = cli._parse(argv)
    cli._validate(args)
    return cli._COMMANDS[args.command](args)[0]


def test_reports_hold_only_plain_json_types(tmp_path):
    for argv in every_command(tmp_path):
        report = report_of(argv)
        assert is_plain_json(report), argv


def reference_render(report, fmt):
    """The three formats written with ``json.dumps``, as reports were first
    rendered; the renderer must stay byte-identical to it."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    rows = []

    def flatten(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                flatten(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            rows.append((prefix, json.dumps(value, sort_keys=True, allow_nan=False)))
        elif isinstance(value, list):
            rows.append((prefix, ";".join(str(v) for v in value)))
        else:
            rows.append((prefix, json.dumps(value, allow_nan=False)))

    flatten("", report)
    if fmt == "csv":
        return "".join(f"{key},{cli._csv_field(value)}\n" for key, value in rows)
    width = max(len(key) for key, _ in rows)
    return "".join(f"{key.ljust(width)}  {value}\n" for key, value in rows)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_every_command_renders_as_json_dumps_does(tmp_path, fmt):
    argvs = every_command(tmp_path) + [
        ["encode", "--message", "10110100101101001011", "--senders", "9"],
        ["audit", "--bell", "6"],
        ["security", "--n", "5", "--attack", "cnot", "--rounds", "1000", "--seed", "7"],
    ]
    for argv in argvs:
        report = report_of(argv)
        assert render_report(report, fmt) == reference_render(report, fmt), argv


def floats_in(value):
    if isinstance(value, dict):
        return [f for v in value.values() for f in floats_in(v)]
    if isinstance(value, list):
        return [f for v in value for f in floats_in(v)]
    return [value] if type(value) is float else []


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_a_table_writes_each_distinct_float_once(monkeypatch, fmt):
    """The report of a 20-bit code word holds 2049 floats but four distinct
    ones; each float text is written once per render, not once per row."""
    report = report_of(["encode", "--message", "10110100101101001011", "--senders", "9"])
    calls = []
    float_json = cli._float_json

    def counted(value):
        calls.append(value)
        return float_json(value)

    monkeypatch.setattr(cli, "_float_json", counted)
    monkeypatch.setitem(cli._SCALAR, float, counted)
    assert render_report(report, fmt) == reference_render(report, fmt)
    distinct = {(v, math.copysign(1.0, v)) for v in floats_in(report)}
    assert len(report["results"]["amplitudes"]) == 1024
    assert 0 < len(calls) <= len(distinct) < 10


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["audit", "--ghz", "abc"], "--ghz"),
        (["audit", "--bell", "2.0"], "--bell"),
        (["audit", "--dnk", "6", "four"], "--dnk"),
        (["encode", "--message", "1010", "--senders", "two"], "--senders"),
        (["security", "--n", "3x"], "--n"),
        (["security", "--n", "3", "--rounds", "1e3"], "--rounds"),
    ],
)
def test_non_integer_flag_exits_2_naming_it(capsys, argv, flag):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"densecode: {flag} must be an integer, got {argv[-1]!r}\n"


RANGED_ROWS = [(command, option, kwargs.get("nargs"))
               for command, (_, flags) in cli._COMMAND_FLAGS.items()
               for option, kwargs, *numeric in flags if numeric]


@pytest.mark.parametrize("command, option, nargs", RANGED_ROWS,
                         ids=[f"{command} {option}" for command, option, _ in RANGED_ROWS])
def test_every_ranged_flag_refuses_text_on_both_parse_paths(capsys, monkeypatch, command,
                                                             option, nargs):
    # --FLAG x is read from the option table and --FLAG=x by argparse; a flag of two
    # values (--dnk N K) cannot be written --FLAG=x, so a --format=json word sends
    # its argv to argparse instead
    base = [command, "--message", "1010"] if command == "encode" else [command]
    values = ["x", *["3"] * ((nargs or 1) - 1)]
    forced = [f"{option}=x"] if nargs is None else ["--format=json", option, *values]
    build = cli.build_parser
    for argv, parsed in ((base + [option, *values], False), (base + forced, True)):
        calls = []
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        code, out, err = run(argv, capsys)
        assert (code, out, bool(calls)) == (2, "", parsed), argv
        assert err.startswith(f"densecode: {option} must be ") and err.count("\n") == 1, argv


@pytest.mark.parametrize("argv", [
    ["security", "--n", "13", "--threshold", "2"],
    ["security", "--threshold", "2", "--n", "13"],
    ["security", "--threshold=2", "--n=13"],
])
def test_of_several_bad_values_the_first_declared_is_named(capsys, argv):
    # security declares --n before --threshold, so --n is named on either parse path,
    # whatever order the argv gives them in
    assert run(argv, capsys) == (2, "", "densecode: --n supports 2..12 qubits, got 13\n")


@pytest.mark.parametrize("text", ["abc", "1/2", "0x10", ""])
@pytest.mark.parametrize("argv, flag, span", [
    (["audit", "--ghz", "3"], "--tolerance", ">= 0"),
    (["security", "--n", "3"], "--threshold", "in [0, 1]"),
    (["security", "--n", "3"], "--cert-tolerance", ">= 0"),
])
def test_non_number_float_flag_exits_2_naming_it(capsys, argv, flag, span, text):
    code, out, err = run(argv + [flag, text], capsys)
    assert (code, out) == (2, "")
    assert err == f"densecode: {flag} must be a finite number {span}, got {text!r}\n"


@pytest.mark.parametrize("argv, flag, got", [
    (["audit", "--ghz", "3", "--tolerance", "-1e-3"], "--tolerance", "-0.001"),
    (["audit", "--ghz", "-2e1"], "--ghz", "'-2e1'"),
    (["audit", "--dnk", "-1e1", "3"], "--dnk", "'-1e1'"),
    (["security", "--n", "3", "--threshold", "-inf"], "--threshold", "-inf"),
    (["security", "--n", "3", "--cert-tolerance", "-1E2"], "--cert-tolerance", "-100.0"),
    (["security", "--n", "3", "--seed", "-5e0"], "--seed", "'-5e0'"),
])
def test_negative_value_as_a_separate_word_exits_2_naming_its_flag(capsys, argv, flag, got):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"densecode: {flag} ") and err.endswith(f", got {got}\n"), err
    assert err.count("\n") == 1


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse keeps '--' as the value")
@pytest.mark.parametrize("argv, flag", [
    (["encode", "--message=--"], "--message"),
    (["encode", "--message", "1010", "--senders=--"], "--senders"),
    (["encode", "--message", "1010", "--seed=--"], "--seed"),
    (["encode", "--message", "1010", "--format=--"], "--format"),
    (["encode", "--message", "1010", "--output=--"], "--output"),
    (["audit", "--ghz=--"], "--ghz"),
    (["audit", "--bell=--"], "--bell"),
    (["audit", "--ghz", "3", "--tolerance=--"], "--tolerance"),
    (["security", "--n=--"], "--n"),
    (["security", "--n", "3", "--rounds=--"], "--rounds"),
    (["security", "--n", "3", "--threshold=--"], "--threshold"),
    (["security", "--n", "3", "--cert-tolerance=--"], "--cert-tolerance"),
    (["security", "--n", "3", "--attack=--"], "--attack"),
])
def test_flag_given_as_double_dash_exits_2_naming_it(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)  # nothing may be written, --output=-- included
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"densecode: {flag} needs a value, got '--'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["encode", "--message", "1010"],
    ["security", "--n", "3"],
])
def test_only_audit_takes_tolerance(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tolerance", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance 0.5" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert "--tolerance" not in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["audit", "--help"])
    assert "--tolerance" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["encode", "--message", "1011010010", "--senders", "4"],
    ["audit", "--dnk", "6", "4"],
    ["security", "--n", "3", "--attack", "cnot", "--rounds", "50"],
])
def test_csv_rows_read_back_as_key_and_value(capsys, argv):
    code, out, _ = run(argv + ["--format", "csv"], capsys)
    assert code in (0, 4)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows and all(len(row) == 2 for row in rows), rows
    _, report = run_json(argv, capsys)
    if argv[0] == "encode":
        assert json.loads(dict(rows)["results.amplitudes"]) == report["results"]["amplitudes"]


# ---------------------------------------------------------------------------
# encode and the Gram check read the code words on their support


class Forbidden:
    """Stands in for a function or class that a command must not use."""

    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self.name} was called")

    def __getattr__(self, attr):
        raise AssertionError(f"{self.name}.{attr} was used")


@pytest.mark.parametrize("n", range(2, 21))
def test_encode_amplitudes_are_bitwise_the_encoded_state(capsys, n):
    rng = np.random.default_rng(900 + n)
    for senders in (None, int(rng.integers(1, n)), n - 1):
        msg = "".join(map(str, rng.integers(0, 2, n)))
        flags = [] if senders is None else ["--senders", str(senders)]
        _, report = run_json(["encode", "--message", msg, *flags], capsys)
        amps = dnk_encoded_state(msg, dnk_spec(n, n - 1 if senders is None else senders)).amplitudes
        nonzero = np.flatnonzero(amps)
        got = report["results"]["amplitudes"]
        assert [idx for idx, _, _ in got] == nonzero.tolist()
        assert [re for _, re, _ in got] == amps[nonzero].real.tolist()
        assert [im for _, _, im in got] == amps[nonzero].imag.tolist()


def test_encode_builds_no_dense_state(capsys, monkeypatch):
    monkeypatch.setattr(coding, "dnk_code_words", Forbidden("dnk_code_words"))
    monkeypatch.setattr(coding, "StateVector", Forbidden("StateVector"))
    _, report = run_json(["encode", "--message", "10110100101101001011", "--senders", "9"],
                         capsys)
    assert len(report["results"]["amplitudes"]) == 1024
    assert report["residuals"]["norm_deviation"] < 1e-12


def test_audit_gram_check_builds_no_code_basis(capsys, monkeypatch):
    monkeypatch.setattr(coding, "dnk_code_basis", Forbidden("dnk_code_basis"))
    _, report = run_json(["audit", "--ghz", "10"], capsys)
    assert report["results"]["orthonormality"]["dimension"] == 1024
    assert report["residuals"]["gram_residual"] < 1e-12


# ---------------------------------------------------------------------------
# the option tables and the parser


def test_ops_build_no_parser(capsys, monkeypatch):
    # an argv in plain form builds no parser; any other builds one per call
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    for argv in (["encode", "--message", "1101001011010010"], ["audit", "--ghz", "6"],
                 ["security", "--n", "4", "--rounds", "400", "--attack", "cnot"]):
        assert main(argv) in (0, 4)
    assert calls == []
    for count in (1, 2):
        assert main(["audit", "--ghz=3", "--seed", "7"]) == 0
        assert calls == [1] * count
    capsys.readouterr()


def test_each_option_table_agrees_with_its_subparser():
    # _read_plain reads a flag's dest (--cert-tolerance -> cert_tolerance),
    # nargs, choices, default and required state, and nothing else: a flag that
    # argparse would convert, count or read a variable number of words for
    # must not reach the tables
    parser = cli.build_parser()
    assert parser is not cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(cli._TABLES) == list(commands.choices) == list(cli._COMMANDS)
    for name, sub in commands.choices.items():
        options, defaults, required = {}, {}, set()
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert type(action) is argparse._StoreAction, (name, action)
            assert action.type is None and action.const is None, (name, action)
            assert action.nargs is None or isinstance(action.nargs, int), (name, action)
            for option in action.option_strings:
                options[option] = (action.dest, action.nargs, action.choices)
            defaults[action.dest] = action.default
            if action.required:
                required.add(action.dest)
        table_options, table_defaults, table_required = cli._TABLES[name]
        assert table_options == options, name
        assert list(table_defaults.items()) == list(defaults.items()), name
        assert table_required == required, name


def test_a_repeated_sequence_of_calls_is_byte_identical(tmp_path, capsys):
    cnot = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    path = tmp_path / "cnot.json"
    path.write_text(json.dumps([[[x, 0] for x in row] for row in cnot]))
    sequence = [
        ["audit", "--dnk", "10", "4", "--seed", "3"],
        ["security", "--n", "3", "--attack", f"file:{path}", "--rounds", "300", "--seed", "2"],
        ["audit", "--ghz", "3", "--bogus"],
        ["audit", "--ghz", "abc"],
        ["encode", "--message", "110100", "--senders", "4"],
    ]

    def one_pass():
        runs = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        return runs

    first = one_pass()
    assert [code for code, _, _ in first] == [0, 4, ("SystemExit", 2), 2, 0]
    assert one_pass() == first


def test_seed_variable_set_after_import_is_read_by_each_call(capsys, monkeypatch):
    for seed in (17, 18):
        monkeypatch.setenv("DENSECODE_SEED", str(seed))
        _, report = run_json(["security", "--n", "3", "--rounds", "10"], capsys)
        assert report["seed"] == seed


PARSER_EXITS = [
    (["--help"], 0),
    (["encode", "--help"], 0),
    (["audit", "--help"], 0),
    (["security", "--help"], 0),
    (["audit", "--ghz", "3", "--bogus"], 2),
    (["encode"], 2),
    ([], 2),
    (["security", "--n", "3", "--bogus"], 2),
    (["encode", "--message", "1011", "--bogus", "x", "--senders", "2"], 2),
    (["encode", "--message", "1011", "--format", "xml"], 2),
    (["audit", "--dnk", "3"], 2),
    (["decode", "--message", "1011"], 2),
    (["security", "--n"], 2),
]


@pytest.mark.parametrize("argv,code", PARSER_EXITS)
def test_parser_exits_print_what_a_fresh_parser_prints(capsys, argv, code):
    with pytest.raises(SystemExit) as shared:
        main(argv)
    printed = capsys.readouterr()
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(argv)
    assert shared.value.code == fresh.value.code == code
    assert (printed.out, printed.err) == tuple(capsys.readouterr())
    assert (printed.out or printed.err).startswith("usage: densecode")


# The sha256 of exit code, stdout and stderr of each argv of PARSER_EXITS at
# COLUMNS=80, as "<python minor> <exit code> <sha256> <argv>".  argparse words
# its help and errors differently across Python minor versions, so the pin holds
# only under the one that wrote it.
PARSER_EXIT_DIGESTS = [
    "3.11 0 312029e36a52f299e6631823a8acae8fd2d0077c034d033a5c9cdb121e4c3a99 --help",
    "3.11 0 51555b70327400544a51c0d5368cc83bffb4a64c6be0eaff15a49ed5c17cab2b encode --help",
    "3.11 0 2b43d01d6b65dd3c2fa734736eb05e376a4ccfb4aa38c6c46c9699abfba9be40 audit --help",
    "3.11 0 3d0bb20228444a43f7ece2bf8ecc3b1e1da524e36ee84a14138ed41546f9c6d8 security --help",
    "3.11 2 26bcfae4e5adc7d278749e3ab6489ec2579ba62b8e094f70769886b793241671 audit --ghz 3 --bogus",
    "3.11 2 50aa0820c936ea918fc297b548c24541eb8857d6433ad6e51b38d6019f26cce6 encode",
    "3.11 2 5d8a342a2d2ddc4d41cf0976412c69c0b70531b8364bd2c2ffe6a3f2e3ed5b84",
    "3.11 2 26bcfae4e5adc7d278749e3ab6489ec2579ba62b8e094f70769886b793241671 security --n 3 --bogus",
    "3.11 2 e756ebcc6e71fc1330add383a07f1508b0cc2c63945b006e01fefd1080380040 "
    "encode --message 1011 --bogus x --senders 2",
    "3.11 2 1152a395d2698e2f411267232b5ea5bf42899b6f39819b3b1e63c664ba0cc716 "
    "encode --message 1011 --format xml",
    "3.11 2 5c7c29a26764f7e0ce86b2f61f5789baa826aa31063ac2a66576b6644b00a7de audit --dnk 3",
    "3.11 2 fd0545d71ef670e59c3803f6ce0edde54776d889089cf50eeb29b5ab31b58312 decode --message 1011",
    "3.11 2 ea23ad80c3e1b927b43f09dd2a2c39a7b6c55a13eb9234a9969f7e60d889aba8 security --n",
]


def test_parser_exits_print_the_recorded_bytes(capsys, monkeypatch):
    version = PARSER_EXIT_DIGESTS[0].split()[0]
    python = f"{sys.version_info.major}.{sys.version_info.minor}"
    if version != python:
        pytest.skip(f"the help and usage digests were written under Python {version}, "
                    f"and this is Python {python}")
    monkeypatch.setenv("COLUMNS", "80")
    lines = []
    for argv, _ in PARSER_EXITS:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        out, err = capsys.readouterr()
        digest = hashlib.sha256(f"{exit_.value.code}\0{out}\0{err}".encode()).hexdigest()
        lines.append(f"{python} {exit_.value.code} {digest} {' '.join(argv)}".rstrip())
    assert lines == PARSER_EXIT_DIGESTS


def test_a_call_naming_a_command_parses_as_parse_args_does(tmp_path, monkeypatch):
    # an argv in plain form is read from the command's option table, any other
    # by a fresh parser; either way the namespace, in the order _validate reads
    # it, is the one the full parser gives
    table_reads = [
        *every_command(tmp_path),
        ["security", "--n", "3", "--attack", ""],
        ["security", "--n", "3", "--seed", "1", "--seed", "2"],  # the last one wins
    ]
    argparse_reads = [
        ["audit", "--ghz=3"],
        ["audit", "--gh", "3"],
        ["audit", "--ghz", "3", "--tolerance", "-1e-3"],
        ["encode", "--message", "1011", "--format=csv"],
    ]
    parse_known_args = argparse.ArgumentParser.parse_known_args
    for argv in table_reads + argparse_reads:
        want = cli.build_parser().parse_args(argv)
        calls = []
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            lambda *a, **kw: calls.append(a) or parse_known_args(*a, **kw))
        got = cli._parse(argv)
        monkeypatch.undo()
        assert list(vars(got).items()) == list(vars(want).items()), argv
        assert bool(calls) == (argv in argparse_reads), argv
