import json
import os
import stat
import threading

import numpy as np
import pytest

from densecode import cli, coding
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
    _, bell = run_json(["audit", "--bell", "6"], capsys)
    assert (bell["results"]["gme"], bell["results"]["ame"]) == (False, False)
    assert bell["verdict"] == "optimal"


def test_audit_bell_pairs(capsys):
    _, report = run_json(["audit", "--bell", "2"], capsys)
    assert report["results"]["capacity"] == pytest.approx(4.0)
    assert report["results"]["ame"] is False
    assert report["results"]["gme"] is False
    assert report["residuals"]["alice_marginal_residual"] < 1e-9
    assert report["verdict"] == "optimal"


def test_audit_dnk(capsys):
    _, report = run_json(["audit", "--dnk", "6", "4"], capsys)
    assert report["residuals"]["bob_marginal_residual"] < 1e-9
    assert report["results"]["layout"]["ghz_size"] == 4
    assert report["results"]["roundtrip"]["failures"] == 0
    assert report["verdict"] == "optimal"


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
    code, report = run_json(
        ["security", "--n", "5", "--attack", "cnot", "--rounds", "2000", "--seed", "7"],
        capsys,
    )
    assert code == 4
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


def test_security_rejects_non_unitary_file(tmp_path, capsys):
    rows = [[[1, 0]] * 4 for _ in range(4)]
    path = tmp_path / "nonunitary.json"
    path.write_text(json.dumps(rows))
    code, _, err = run(["security", "--n", "3", "--attack", f"file:{path}"], capsys)
    assert code == 2
    assert "residual" in err


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
        (["security", "--n", "3", "--tolerance", "nan"], "--tolerance"),
        (["audit", "--ghz", "3", "--tolerance", "-1"], "--tolerance"),
        (["audit", "--ghz", "3", "--tolerance", "inf"], "--tolerance"),
        (["security", "--n", "3", "--rounds", "0"], "--rounds"),
        (["security", "--n", "3", "--rounds", "9223372036854775808"], "--rounds"),
        (["audit", "--dnk", "12", "0"], "--dnk"),
        (["audit", "--dnk", "12", "12"], "--dnk"),
        (["encode", "--message", "1010", "--senders", "0"], "--senders"),
    ],
)
def test_rejects_out_of_range_flags(capsys, argv, flag):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert flag in err


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


def test_audit_bell_beyond_caps_reports_null(capsys):
    _, report = run_json(["audit", "--bell", "7"], capsys)
    assert report["results"]["ame"] is None
    assert report["results"]["orthonormality"] is None
    assert report["results"]["capacity"] == pytest.approx(14.0)
    assert report["residuals"]["alice_marginal_residual"] < 1e-9


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


def test_non_finite_report_exits_with_code_2(capsys, monkeypatch):
    from densecode import cli

    def nan_report(cfg):
        return {"command": "encode", "results": {"x": float("inf")}}, 0

    monkeypatch.setitem(cli._COMMANDS, "encode", nan_report)
    code, out, err = run(["encode", "--message", "01"], capsys)
    assert (code, out) == (2, "")
    assert "not JSON compliant" in err


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


@pytest.mark.parametrize("n", range(2, 17))
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
    monkeypatch.setattr(coding.CodeBasis, "gram", Forbidden("CodeBasis.gram"))
    _, report = run_json(["audit", "--ghz", "10"], capsys)
    assert report["results"]["orthonormality"]["dimension"] == 1024
    assert report["residuals"]["gram_residual"] < 1e-12


# ---------------------------------------------------------------------------
# one parser per process


def test_ops_build_no_parser(capsys, monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    for argv in (["encode", "--message", "1101001011010010"], ["audit", "--ghz", "6"],
                 ["security", "--n", "4", "--rounds", "400", "--attack", "cnot"]):
        assert main(argv) in (0, 4)
    capsys.readouterr()
    assert calls == []


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


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0),
    (["encode", "--help"], 0),
    (["audit", "--help"], 0),
    (["security", "--help"], 0),
    (["audit", "--ghz", "3", "--bogus"], 2),
    (["encode"], 2),
    ([], 2),
])
def test_parser_exits_print_what_a_fresh_parser_prints(capsys, argv, code):
    with pytest.raises(SystemExit) as shared:
        main(argv)
    printed = capsys.readouterr()
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(argv)
    assert shared.value.code == fresh.value.code == code
    assert (printed.out, printed.err) == tuple(capsys.readouterr())
    assert (printed.out or printed.err).startswith("usage: densecode")
