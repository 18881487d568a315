"""One word, no batch kernel: ``encode`` and the decode of one received word.

``coding.dnk_word`` builds one message's code word in Python integers, and it must
give, bit for bit, the row that the audit's batch kernel ``dnk_word_support`` gives
the message's index: the same columns in the same order, and the same floats.  An
``encode`` reads only that builder, so this file runs every ``encode`` argv of
``ENCODE_ARGVS`` under ``sys.setprofile``, as ``tests/test_dense_oracles.py`` runs its
commands, and fails on any call into the batch kernel, its ``_parity``, or a
``DnkSpec`` array property.

The decode of one state first tries ``StateVector._start``, the first nonzero that
the state's chunk test found, and scans only when that amplitude is too small to
lie on a decoding coset.  Each case here decodes as the scan alone decodes.
"""

import contextlib
import copy
import io
import os
import sys

import numpy as np
import pytest

import densecode
from densecode import cli, coding, statevec
from densecode.coding import (
    _ON_COSET,
    NoMatchError,
    all_messages,
    dnk_decode,
    dnk_spec,
    dnk_word,
    dnk_word_support,
)
from densecode.statevec import CHUNK, StateVector
from test_numpy_entry_points import clear_caches

PACKAGE = os.path.dirname(os.path.abspath(densecode.__file__))


def hexes(values):
    return [float.hex(v) for v in values]


def assert_same_word(msg_index, spec):
    n = spec.n_bits
    cols, vals = dnk_word(format(msg_index, f"0{n}b"), spec)
    (want_cols,), (want_vals,) = dnk_word_support([msg_index], spec)
    assert all(type(c) is int for c in cols) and all(type(v) is float for v in vals)
    assert cols == want_cols.tolist(), (n, spec.n_senders, msg_index)
    assert hexes(vals) == hexes(want_vals.tolist()), (n, spec.n_senders, msg_index)


@pytest.mark.parametrize("n", range(2, 13))
def test_the_single_word_is_the_batch_kernels_row_on_every_message(n):
    for k in range(1, n):
        spec = dnk_spec(n, k)
        every_cols, every_vals = dnk_word_support(np.arange(2**n), spec)
        for i, msg in enumerate(all_messages(n)):
            cols, vals = dnk_word(msg, spec)
            assert cols == every_cols[i].tolist(), (n, k, i)
            assert hexes(vals) == hexes(every_vals[i].tolist()), (n, k, i)


@pytest.mark.parametrize("k", range(1, 24))
def test_the_single_word_is_the_batch_kernels_row_at_24_bits(k):
    spec = dnk_spec(24, k)
    rng = np.random.default_rng(4300 + k)
    for i in rng.integers(0, 2**24, 64).tolist():
        assert_same_word(i, spec)


@pytest.mark.parametrize("msg", ["0110", [0, 1, 1, 0], coding.Message((0, 1, 1, 0))])
def test_the_single_word_takes_every_message_form(msg):
    spec = dnk_spec(4, 2)
    assert dnk_word(msg, spec) == dnk_word("0110", spec)
    assert_same_word(0b0110, spec)


@pytest.mark.parametrize("msg, spec", [("101", dnk_spec(4, 3)), ("10110", dnk_spec(4, 1))])
def test_the_single_word_refuses_a_message_of_the_wrong_length(msg, spec):
    with pytest.raises(ValueError) as want:
        coding.dnk_encoded_state(msg, spec)
    with pytest.raises(ValueError) as got:
        dnk_word(msg, spec)
    assert str(got.value) == str(want.value) == (
        f"message has {len(msg)} bits, layout expects {spec.n_bits}")


@pytest.mark.parametrize("n", [63, 64])
def test_the_single_word_refuses_what_the_batch_kernel_refuses_over_62_bits(n):
    spec = dnk_spec(n, 1)
    with pytest.raises(ValueError) as want:
        dnk_word_support([1], spec)
    with pytest.raises(ValueError) as got:
        dnk_word("0" * (n - 1) + "1", spec)
    assert str(got.value) == str(want.value) == (
        f"int64 index arrays hold layouts of up to 62 bits, got {n}")


def test_the_single_word_holds_62_bit_layouts():
    """At 62 bits, with few blocks: D(62, 1)'s word alone would hold 2**31 entries."""
    for k in (58, 61):
        for i in (0, 1, 2**62 - 1, int("10" * 31, 2)):
            assert_same_word(i, dnk_spec(62, k))


# ---------------------------------------------------------------------------
# The guard: an encode enters no batch kernel and builds no spec array

ENCODE_ARGVS = {
    "n=2": ["encode", "--message", "10"],
    "n=12 --senders 11": ["encode", "--message", "110100111010", "--senders", "11"],
    "n=16": ["encode", "--message", "1011001110001011"],
    "n=16 --senders 5": ["encode", "--message", "1011001110001011", "--senders", "5"],
    "n=17 csv": ["encode", "--message", "10110011100010111", "--format", "csv"],
    "n=20 --senders 9": ["encode", "--message", "11010011101001110100", "--senders", "9"],
    "n=24 --senders 1": ["encode", "--message", "1" * 12 + "0" * 12, "--senders", "1"],
}
# file basename in the package -> the batch code an encode must not enter
BATCH = {
    "coding.py": {"dnk_word_support", "block_masks", "support", "lead_support", "coset_reps"},
    "statevec.py": {"_parity"},
}


def in_package(code):
    return os.path.dirname(os.path.abspath(code.co_filename)) == PACKAGE


def batch_entered(argv):
    """``cli.main(argv)``'s exit code, and each function of ``BATCH`` it entered, as
    "file:function from caller"."""
    entered = []

    def profile(frame, event, arg):
        if event != "call":
            return
        code, back = frame.f_code, frame.f_back
        if code.co_name in BATCH.get(os.path.basename(code.co_filename), ()) and in_package(code):
            caller = back.f_code.co_name if back is not None else "?"
            entered.append(f"{os.path.basename(code.co_filename)}:{code.co_name} from {caller}")

    clear_caches()  # a fresh spec, whose cached arrays are built on first read
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.setprofile(None)
    return code, entered


@pytest.mark.parametrize("name", ENCODE_ARGVS)
def test_an_encode_enters_no_batch_kernel(name):
    code, entered = batch_entered([*ENCODE_ARGVS[name], "--seed", "7"])
    assert code == 0
    assert not entered, f"{name} entered batch code: {sorted(set(entered))}"


def test_the_guard_sees_the_batch_kernel(monkeypatch):
    """An encode routed through the batch kernel is caught, by the kernel, its parity
    and the spec's arrays."""
    def batch(msg, spec):
        (cols,), (vals,) = dnk_word_support([int(str(msg), 2)], spec)
        return cols.tolist(), vals.tolist()

    monkeypatch.setattr(coding, "dnk_word", batch)
    code, entered = batch_entered(ENCODE_ARGVS["n=16"])
    assert code == 0
    assert {"coding.py:dnk_word_support from batch",
            "statevec.py:_parity from dnk_word_support"} <= set(entered)
    assert {"coding.py:support", "coding.py:block_masks"} <= {
        name.split(" from ")[0] for name in entered}  # entered from cached_property


# ---------------------------------------------------------------------------
# The decode start


def scan_alone(state, spec):
    """``dnk_decode`` of ``state`` with no start: the message, or the NoMatchError text."""
    scan = copy.copy(state)
    vars(scan)["_start"] = None
    return decoded(scan, spec)


def decoded(state, spec):
    try:
        return str(dnk_decode(state, spec))
    except NoMatchError as exc:
        return f"NoMatchError: {exc}"


def dense_word(msg, spec):
    cols, vals = dnk_word(msg, spec)
    amps = np.zeros(2**spec.n_bits, dtype=complex)
    amps[cols] = vals
    return amps, cols


@pytest.fixture
def scans(monkeypatch):
    """The number of ``_heavy_argmax`` scans the decodes run."""
    count = [0]
    scan = coding._heavy_argmax

    def counted(*args):
        count[0] += 1
        return scan(*args)

    monkeypatch.setattr(coding, "_heavy_argmax", counted)
    return count


@pytest.mark.parametrize("n", [15, 16, 18])
def test_a_code_word_decodes_from_its_start_without_a_scan(n, scans):
    rng = np.random.default_rng(4301 + n)
    for k in (1, n // 2, n - 1):
        spec = dnk_spec(n, k)
        for i in rng.integers(0, 2**n, 8).tolist():
            msg = format(i, f"0{n}b")
            amps, cols = dense_word(msg, spec)
            state = StateVector(n, amps)
            assert state._start == cols[0], (k, msg)  # the smallest column, every lead bit 0
            before = scans[0]
            assert decoded(state, spec) == msg
            assert scans[0] == before, (k, msg)
            assert scan_alone(state, spec) == msg


def test_a_small_amplitude_before_the_first_entry_falls_back_to_the_scan(scans):
    """A D(16, 15) word with a 1e-7 amplitude just before its first entry, in the same
    chunk: the start is that amplitude, under ``_ON_COSET``, so the decode scans."""
    spec = dnk_spec(16, 15)
    msg = "0110001110001011"
    amps, cols = dense_word(msg, spec)
    first = cols[0]
    assert first % CHUNK > 0
    amps[first - 1] = 1e-7
    amps /= np.sqrt(np.vdot(amps, amps).real)
    state = StateVector(16, amps)
    assert state._start == first - 1 and abs(state._copy[first - 1]) < _ON_COSET
    assert decoded(state, spec) == msg
    assert scans[0] == 1
    assert scan_alone(state, spec) == msg


def test_a_read_only_input_records_no_start():
    spec = dnk_spec(16, 5)
    msg = "1011001110001011"
    amps, _ = dense_word(msg, spec)
    amps.flags.writeable = False
    state = StateVector(16, amps)
    assert state._start is None
    assert decoded(state, spec) == scan_alone(state, spec) == msg


def test_a_state_of_one_chunk_records_no_start():
    spec = dnk_spec(14, 13)
    amps, _ = dense_word("10110011100010", spec)
    assert 2**14 <= CHUNK and StateVector(14, amps)._start is None


@pytest.mark.parametrize("corrupt", ["mixed", "sign", "moved", "spread"])
def test_a_corrupted_word_gives_the_scans_error(corrupt, scans):
    """A word that decodes to nothing gives the error of the scan alone, whether or not
    its start is large enough to be tried."""
    spec = dnk_spec(16, 5)  # 8 blocks: 256 entries of 1/16 on a coset
    amps, cols = dense_word("1011001110001011", spec)
    if corrupt == "mixed":  # two words on two cosets: the start is tried, and fails
        other, _ = dense_word("0111001110001010", spec)
        amps = (amps + other) / np.sqrt(2)
    elif corrupt == "sign":  # one entry negated: the best output falls to 1 - 2/256
        amps[cols[1]] *= -1
    elif corrupt == "moved":  # one entry moved off the coset: 255/256
        amps[cols[2] ^ 1], amps[cols[2]] = amps[cols[2]], 0.0
    else:  # 2**18 amplitudes of 2**-9, under _ON_COSET: the start fails, no pass stops
        spec = dnk_spec(18, 9)
        amps = np.full(2**18, 2**-9, dtype=complex)
    state = StateVector(spec.n_bits, amps)
    got = decoded(state, spec)
    assert scans[0] == (corrupt == "spread")
    assert got.startswith("NoMatchError: state matches no code word"), got
    assert got == scan_alone(state, spec)


def test_a_word_with_dead_chunks_decodes_from_its_start_as_from_its_amplitudes():
    """The start lies in a live chunk and the coset's other entries in dead ones: the
    dead chunks are read as +0.0, as ``amplitudes`` reads them."""
    spec = dnk_spec(18, 9)
    for msg in ("101100111000101101", "000000000000000001", "111111111111111111"):
        amps, _ = dense_word(msg, spec)
        state = StateVector(18, amps)
        assert state._dead and state._start is not None
        full = StateVector(18, np.array(state.amplitudes))
        assert decoded(state, spec) == decoded(full, spec) == scan_alone(state, spec) == msg


def test_a_start_that_reads_zero_falls_back_to_the_scan(scans):
    spec = dnk_spec(16, 15)
    amps, cols = dense_word("1011001110001011", spec)
    state = StateVector(16, amps)
    broken = copy.copy(state)
    vars(broken)["_start"] = cols[0] ^ 1  # an index the chunk test never placed: 0.0
    assert decoded(broken, spec) == "1011001110001011" and scans[0] == 1


def test_restricted_to_reads_one_dict(monkeypatch):
    """Each party's operator is one ``restricted_to`` call, which scans no label."""
    calls = []
    restricted = statevec.PauliString.restricted_to
    monkeypatch.setattr(statevec.PauliString, "restricted_to",
                        lambda self, qubits: calls.append(qubits) or restricted(self, qubits))
    monkeypatch.setattr(statevec.PauliString, "label_on", None)  # no scan per qubit
    spec = dnk_spec(16, 5)
    parties = coding.dnk_encode("1011001110001011", spec)
    assert len(calls) == len(parties) == 5
    calls.clear()
    code, _ = batch_entered(ENCODE_ARGVS["n=16 --senders 5"])
    assert code == 0 and len(calls) == 5
