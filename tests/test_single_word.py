"""One word, no batch kernel: ``encode`` and the decode of one received word.

``coding.dnk_word`` builds one message's code word in Python integers, and it must
give, bit for bit, the row that the audit's batch kernel ``dnk_word_support`` gives
the message's index: the same columns in the same order, and the same floats.  An
``encode`` reads only that builder, so this file runs every ``encode`` argv of
``ENCODE_ARGVS`` under ``sys.setprofile``, as ``tests/test_dense_oracles.py`` runs its
commands, and fails on any call into the batch kernel, its ``_parity``, or a
``DnkSpec`` array property.

The decode of one state first tries ``StateVector._start``, the first nonzero that
the state's chunk test found, and starts from argmax |psi| only when that amplitude
is too small to lie on a decoding coset.  Each case here decodes as the decode from
argmax |psi| (``test_coding.reference_decode``) decodes.
"""

import ast
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
from test_coding import reference_decode
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


def from_argmax(state, spec):
    """The decode of ``state`` from argmax |psi|: the message, or the NoMatchError text."""
    try:
        return str(reference_decode(state, spec))
    except NoMatchError as exc:
        return f"NoMatchError: {exc}"


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
def coset_reads(monkeypatch):
    """The number of cosets the decodes read: one from the start, two from the argmax."""
    count = [0]
    read = StateVector._amplitudes_at

    def counted(self, indices):
        count[0] += 1
        return read(self, indices)

    monkeypatch.setattr(StateVector, "_amplitudes_at", counted)
    return count


@pytest.mark.parametrize("n", [12, 14, 15, 16, 18])
def test_a_code_word_decodes_from_its_start(n, coset_reads):
    rng = np.random.default_rng(4301 + n)
    for k in (1, n // 2, n - 1):
        spec = dnk_spec(n, k)
        for i in rng.integers(0, 2**n, 8).tolist():
            msg = format(i, f"0{n}b")
            amps, cols = dense_word(msg, spec)
            state = StateVector(n, amps)
            assert state._start == cols[0], (k, msg)  # the smallest column, every lead bit 0
            before = coset_reads[0]
            assert decoded(state, spec) == msg
            assert coset_reads[0] == before + 1, (k, msg)
            assert from_argmax(state, spec) == msg


def test_a_small_amplitude_before_the_first_entry_starts_from_the_argmax(coset_reads):
    """A D(16, 15) word with a 1e-7 amplitude just before its first entry, in the same
    chunk: the start is that amplitude, under ``_ON_COSET``, so the decode starts from
    the argmax."""
    spec = dnk_spec(16, 15)
    msg = "0110001110001011"
    amps, cols = dense_word(msg, spec)
    first = cols[0]
    assert first % CHUNK > 0
    amps[first - 1] = 1e-7
    amps /= np.sqrt(np.vdot(amps, amps).real)
    state = StateVector(16, amps)
    assert state._start == first - 1 and abs(state.amplitudes[first - 1]) < _ON_COSET
    assert decoded(state, spec) == msg
    assert coset_reads[0] == 2
    assert from_argmax(state, spec) == msg


def start_inputs(n):
    """Inputs of every kind a state takes, each the amplitudes of a basis state of n
    qubits at index 5 (at index 1 for n = 1), with the first nonzero there."""
    at = min(5, 2**n - 1)
    x = np.zeros(2**n, dtype=complex)
    x[at] = 1.0
    read_only = x.copy()
    read_only.flags.writeable = False
    strided = np.zeros(2 ** (n + 1), dtype=complex)[::2]
    strided[at] = 1.0
    fortran = np.asfortranarray(x.reshape((2,) * n)) if n > 1 else x
    yield "writeable", x
    yield "read-only", read_only
    yield "list", x.tolist()
    yield "object", x.astype(object)
    yield "strided", strided
    yield "fortran", fortran
    yield "int", x.real.astype(int)
    yield "bool", x.real.astype(bool)


@pytest.mark.parametrize("n", [1, 14, 15, 16])
def test_every_state_places_its_start(n):
    """Every kind of input, of one chunk or of several: the start is the first nonzero
    amplitude, in C order."""
    want = min(5, 2**n - 1)
    for kind, x in start_inputs(n):
        state = StateVector(n, x)
        assert state._start == want, kind
        assert state.amplitudes[want] == 1.0, kind


@pytest.mark.parametrize("corrupt", ["mixed", "sign", "moved", "spread"])
def test_a_corrupted_word_gives_the_argmax_decodes_error(corrupt, coset_reads):
    """A word that decodes to nothing gives the error of the decode from argmax |psi|,
    whether or not its start is large enough to be tried."""
    spec = dnk_spec(16, 5)  # 8 blocks: 256 entries of 1/16 on a coset
    amps, cols = dense_word("1011001110001011", spec)
    if corrupt == "mixed":  # two words on two cosets: the start is tried, and fails
        other, _ = dense_word("0111001110001010", spec)
        amps = (amps + other) / np.sqrt(2)
    elif corrupt == "sign":  # one entry negated: the best output falls to 1 - 2/256
        amps[cols[1]] *= -1
    elif corrupt == "moved":  # one entry moved off the coset: 255/256
        amps[cols[2] ^ 1], amps[cols[2]] = amps[cols[2]], 0.0
    else:  # 2**18 amplitudes of 2**-9, under _ON_COSET: the start is not tried
        spec = dnk_spec(18, 9)
        amps = np.full(2**18, 2**-9, dtype=complex)
    state = StateVector(spec.n_bits, amps)
    got = decoded(state, spec)
    assert coset_reads[0] == 1 + (corrupt == "spread")
    assert got.startswith("NoMatchError: state matches no code word"), got
    assert got == from_argmax(state, spec)


def test_a_word_with_dead_chunks_decodes_from_its_start_as_from_its_amplitudes():
    """The start lies in a live chunk and the coset's other entries in dead ones: the
    dead chunks are read as +0.0, as ``amplitudes`` reads them."""
    spec = dnk_spec(18, 9)
    for msg in ("101100111000101101", "000000000000000001", "111111111111111111"):
        amps, _ = dense_word(msg, spec)
        state = StateVector(18, amps)
        assert state._dead and state._start is not None
        full = StateVector(18, np.array(state.amplitudes))
        assert decoded(state, spec) == decoded(full, spec) == from_argmax(state, spec) == msg


def test_a_start_that_reads_zero_starts_from_the_argmax(coset_reads):
    spec = dnk_spec(16, 15)
    amps, cols = dense_word("1011001110001011", spec)
    state = StateVector(16, amps)
    broken = copy.copy(state)
    vars(broken)["_start"] = cols[0] ^ 1  # an index the chunk test never placed: 0.0
    assert decoded(broken, spec) == "1011001110001011" and coset_reads[0] == 2


def test_amplitudes_at_reads_dead_chunks_as_zero():
    """A state's amplitudes at indices in live and dead chunks, before and after the
    first read of ``amplitudes``, with 1.0 written into the dead chunks the state
    left unwritten: bitwise ``amplitudes[indices]``."""
    spec = dnk_spec(18, 9)
    amps, cols = dense_word("101100111000101101", spec)
    state = StateVector(18, amps)
    assert len(state._dead) > 1
    for c in state._dead:
        state._copy[c * CHUNK:(c + 1) * CHUNK] = 1.0
    indices = np.array([*cols, 0, CHUNK - 1, 2**18 - 1, *(c * CHUNK + 3 for c in state._dead)])
    got = state._amplitudes_at(indices)
    assert got.tobytes() == amps[indices].tobytes()
    got[:] = 7.0  # a new array: the state is unchanged
    assert state._amplitudes_at(indices).tobytes() == amps[indices].tobytes()
    assert state.amplitudes.tobytes() == amps.tobytes()
    assert state._amplitudes_at(indices).tobytes() == amps[indices].tobytes()


# ``coding`` reads a state only through ``_start``, ``_amplitudes_at`` and
# ``amplitudes``: how ``statevec`` lays out its copy is named in ``statevec`` alone.
STATE_LAYOUT = {"CHUNK", "_copy", "_dead", "_chunk_weights"}


def layout_names(source):
    """Each name of ``STATE_LAYOUT`` that ``source`` imports, reads or spells as a
    string, such as getattr's, as "line:name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            names = [node.name, node.asname]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
        found += [f"{getattr(node, 'lineno', 0)}:{name}"
                  for name in names if name in STATE_LAYOUT]
    return found


def test_coding_names_nothing_of_the_states_chunk_layout():
    with open(os.path.join(PACKAGE, "coding.py"), encoding="utf-8") as f:
        assert layout_names(f.read()) == []


def test_the_layout_guard_sees_each_form():
    source = """from .statevec import CHUNK as C, _copy
t = state._dead
w = getattr(state, "_chunk_weights")
c = vars(state)["_copy"]
"""
    assert layout_names(source) == ["1:CHUNK", "1:_copy", "2:_dead", "3:_chunk_weights",
                                    "4:_copy"]


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
