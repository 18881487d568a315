"""Property tests over randomly drawn layouts, messages, attacks and argv."""

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecode import (
    EveAttack,
    Message,
    NoMatchError,
    StateVector,
    apply_eve,
    apply_pauli_string,
    detection_report,
    dnk_code_basis,
    dnk_combined_string,
    dnk_decode,
    dnk_encoded_state,
    dnk_gram_report,
    dnk_spec,
    dnk_state,
    ghz_state,
    hadamard_on,
)
from densecode import cli
from densecode.cli import _json, _parse, build_parser, main, render_report
from densecode.coding import (
    OVERLAP_THRESHOLD,
    _no_match,
    dnk_code_words,
    dnk_word_support,
)
from test_cli import reference_render


@st.composite
def layouts(draw, max_n=10):
    n = draw(st.integers(min_value=2, max_value=max_n))
    return n, draw(st.integers(min_value=1, max_value=n - 1))


@st.composite
def layouts_and_messages(draw, max_n=10):
    n, k = draw(layouts(max_n))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return n, k, Message(tuple(bits))


@settings(max_examples=60, deadline=None)
@given(layouts_and_messages())
def test_dnk_basis_row_is_the_encoded_state_and_decodes(case):
    n, k, msg = case
    spec = dnk_spec(n, k)
    state = dnk_encoded_state(msg, spec)
    assert np.array_equal(state.amplitudes, dnk_code_basis(n, k).states[int(str(msg), 2)])
    assert dnk_decode(state, spec) == msg
    assert dnk_decode(state, spec, method="overlap") == dnk_decode(state, spec)


@settings(max_examples=30, deadline=None)
@given(layouts())
def test_dnk_code_basis_is_orthonormal(layout):
    assert dnk_gram_report(*layout).residual() < 1e-12


@settings(max_examples=60, deadline=None)
@given(layouts_and_messages())
def test_support_encode_is_bitwise_the_pauli_string_on_the_resource(case):
    n, k, msg = case
    spec = dnk_spec(n, k)
    want = apply_pauli_string(dnk_state(spec), dnk_combined_string(msg, spec))
    assert np.array_equal(dnk_encoded_state(msg, spec).amplitudes, want.amplitudes)


@settings(max_examples=40, deadline=None)
@given(layouts_and_messages(), st.sampled_from([1j, -1j, None]), st.floats(0, 2 * np.pi))
def test_phase_multiples_of_a_word_decode_to_its_message(case, phase, theta):
    n, k, msg = case
    spec = dnk_spec(n, k)
    factor = np.exp(1j * theta) if phase is None else phase
    state = StateVector(n, factor * dnk_encoded_state(msg, spec).amplitudes)
    assert dnk_decode(state, spec) == msg


@settings(max_examples=80, deadline=None)
@given(layouts_and_messages(max_n=8), st.data())
def test_hadamard_corruption_fails_circuit_and_overlap_decode_alike(case, data):
    n, k, msg = case
    spec = dnk_spec(n, k)
    qubit = data.draw(st.integers(1, n))
    state = hadamard_on(dnk_encoded_state(msg, spec), [qubit])
    try:
        dnk_decode(state, spec, method="overlap")
        overlap_fails = False
    except NoMatchError:
        overlap_fails = True
    if not overlap_fails:
        assert dnk_decode(state, spec) == dnk_decode(state, spec, method="overlap")
        return
    with pytest.raises(NoMatchError) as kernel:
        dnk_decode(state, spec)
    with pytest.raises(NoMatchError) as full:
        _no_match(state.amplitudes, spec)
    assert str(kernel.value) == str(full.value)
    assert (kernel.value.best_overlap, kernel.value.blocks) == (
        full.value.best_overlap, full.value.blocks)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 9) for k in range(1, n)])
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_near_threshold_states_decode_on_the_fast_path(n, k, data):
    """A code word plus a perturbation of norm under sqrt(1 - T**2), normalized, still
    overlaps the word by at least T, and its largest amplitude stays on the word's coset:
    the fast path decodes it, so the full-register pass never has to.  "off" puts the
    perturbation on one index off the coset, "swap" also lowers one index on it.  Just
    past the bound, "off" overlaps the word by less than T and fails."""
    spec = dnk_spec(n, k)
    msg = data.draw(st.integers(0, 2**n - 1))
    (cols,), _ = dnk_word_support([msg], spec)
    word = dnk_code_words([msg], spec)[0]
    kind = data.draw(st.sampled_from(["off", "swap", "random"]))
    if kind == "random":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        delta = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    else:
        delta = np.zeros(2**n, dtype=complex)
        off = np.setdiff1d(np.arange(2**n), cols).tolist()
        delta[data.draw(st.sampled_from(off))] = np.exp(1j * data.draw(st.floats(0, 2 * np.pi)))
    if kind == "swap":
        on = data.draw(st.sampled_from(cols.tolist()))
        delta[on] = -np.sign(word[on])
    delta *= 0.999 * math.sqrt(1 - OVERLAP_THRESHOLD**2) / np.linalg.norm(delta)
    amps = word + delta
    state = StateVector(n, amps / np.linalg.norm(amps))
    assert abs(np.vdot(word, state.amplitudes)) >= OVERLAP_THRESHOLD
    assert int(np.abs(state.amplitudes).argmax()) in cols
    assert int(str(dnk_decode(state, spec)), 2) == msg
    if kind == "off":
        delta *= 1.001 / OVERLAP_THRESHOLD / 0.999
        amps = word + delta
        with pytest.raises(NoMatchError) as info:
            dnk_decode(StateVector(n, amps / np.linalg.norm(amps)), spec)
        assert info.value.best_overlap < OVERLAP_THRESHOLD


def haar_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_detection_matches_the_closed_form_on_haar_attacks(n, seed):
    """With U |b>|0> = |0>|v_b0> + |1>|v_b1>, the exact detection rates are
    P_comp = (|v01|^2 + |v10|^2)/2 and P_had = (|v00 - v11|^2 + |v01 - v10|^2)/4,
    whatever n."""
    u = haar_unitary(4, np.random.default_rng(seed))
    v = {(b, o): u[2 * o : 2 * o + 2, 2 * b] for b in (0, 1) for o in (0, 1)}
    p_comp = (np.linalg.norm(v[0, 1]) ** 2 + np.linalg.norm(v[1, 0]) ** 2) / 2
    p_had = (
        np.linalg.norm(v[0, 0] - v[1, 1]) ** 2 + np.linalg.norm(v[0, 1] - v[1, 0]) ** 2
    ) / 4
    report = detection_report(apply_eve(ghz_state(n), EveAttack(u)), n_protocol=n)
    rates = (report.computational_inconsistency, report.hadamard_inconsistency, report.probability)
    assert all(0.0 <= rate <= 1.0 for rate in rates)
    assert abs(report.computational_inconsistency - p_comp) < 1e-12
    assert abs(report.hadamard_inconsistency - p_had) < 1e-12
    assert abs(report.probability - (p_comp + p_had) / 2) < 1e-12


# ---------------------------------------------------------------------------
# Generated argv: every numeric flag and --message get in-range values (kept
# small), out-of-range values (20 digits or more included) and non-numbers.
# A float flag is given as --flag=TEXT or as two words, --flag TEXT; a value
# such as -1e-3 or -inf is then a word of its own that starts with a dash.

NOT_AN_INTEGER = st.one_of(st.text(alphabet="abxyz.+_ e", max_size=8),
                           st.sampled_from(["1.5", "1e3", "0x10", "nan", "inf", "1/2"]))
NOT_A_NUMBER = st.one_of(st.text(alphabet="abxyz.+_ e", max_size=8),
                         st.sampled_from(["0x10", "1/2", "1,5", "one", "1e", "--"]))


def outside(low, high):
    """Integers outside [low, high]."""
    return st.one_of(st.integers(max_value=low - 1), st.integers(min_value=high + 1),
                     st.integers(min_value=10**19, max_value=10**40),
                     st.integers(min_value=-(10**40), max_value=-(10**19)))


def flag(inside, low, high):
    """The text of an integer flag whose valid range is [low, high]."""
    return st.one_of(inside.map(str), outside(low, high).map(str), NOT_AN_INTEGER)


def real_flag(name, low, high):
    """A float flag whose valid range is [low, high], as the words of
    --flag=TEXT or of --flag TEXT: in range (at most 1), out of range or not
    a number.  A lone -- ends the options, so it comes only as --flag=--."""
    outside_range = [st.floats(max_value=low, exclude_max=True),
                     st.sampled_from([math.nan, math.inf, -math.inf])]
    if math.isfinite(high):
        outside_range.append(st.floats(min_value=high, exclude_min=True))
    text = st.one_of(st.floats(low, min(high, 1.0)).map(repr),
                     st.one_of(outside_range).map(repr), NOT_A_NUMBER)
    return st.one_of(text.map(lambda t: [f"{name}={t}"]),
                     text.filter(lambda t: t != "--").map(lambda t: [name, t]))


def bit_strings(min_size, max_size):
    return st.text(alphabet="01", min_size=min_size, max_size=max_size)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["encode", "audit", "security"]))
    if command == "encode":
        m, k = draw(layouts(max_n=16))
        message = draw(st.one_of(bit_strings(m, m), bit_strings(0, 1), bit_strings(25, 32),
                                 NOT_AN_INTEGER))
        argv = ["encode", "--message", message]
        if draw(st.booleans()):
            argv += ["--senders", draw(flag(st.just(k), 1, m - 1))]
    elif command == "audit":
        n, k = draw(layouts())
        argv = ["audit"] + draw(st.sampled_from([
            ["--ghz", draw(flag(st.just(n), 2, 12))],
            ["--bell", draw(flag(st.integers(1, 4), 1, 10))],
            ["--dnk", draw(flag(st.just(n), 2, 12)), draw(flag(st.just(k), 1, n - 1))],
        ]))
        if draw(st.booleans()):
            argv += draw(real_flag("--tolerance", 0.0, math.inf))
    else:
        n, k = draw(layouts())
        argv = ["security"] + draw(st.sampled_from([
            ["--n", draw(flag(st.integers(2, 10), 2, 12))],
            ["--ghz", draw(flag(st.just(n), 2, 12))],
            ["--bell", draw(flag(st.integers(1, 10), 1, 10))],
            ["--dnk", draw(flag(st.just(n), 2, 12)), draw(flag(st.just(k), 1, n - 1))],
        ]))
        if draw(st.booleans()):
            argv += ["--rounds", draw(flag(st.integers(1, 1000), 1, 2**63 - 1))]
        if draw(st.booleans()):
            argv += draw(real_flag("--threshold", 0.0, 1.0))
        if draw(st.booleans()):
            argv += draw(real_flag("--cert-tolerance", 0.0, math.inf))
    if draw(st.booleans()):
        argv += ["--seed", draw(flag(st.integers(0, 2**63 - 1), 0, 2**63 - 1))]
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_generated_argv_exits_with_a_known_code_and_one_stderr_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own rejections
            code = exc.code
    assert code in (0, 2, 4), (argv, code, err.getvalue())
    if code not in (0, 4):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("densecode: "), (argv, lines)


def parse_outcome(parse, argv):
    """The namespace ``parse(argv)`` returns, its attributes in order, or the
    exit code and both streams of the exit it makes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return list(vars(parse(argv)).items())
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


# words that the option table hands to argparse: unknown flags, a bad choice,
# help and "--", a unique prefix, --flag=value, an empty word and a lone "-";
# and a flag given twice, which the table reads with the last one winning
STRAY_WORDS = st.lists(st.sampled_from([
    ["--bogus"], ["x"], ["--"], ["-1"], ["--format"], ["xml"], ["--format=csv"], ["--help"],
    ["--seed"], ["--se"], ["--seed=1"], [""], ["-h"], ["-"], ["--format", "text"],
    ["--seed", "3", "--seed", "4"],
]), max_size=3).map(lambda groups: [word for group in groups for word in group])


@settings(max_examples=150, deadline=None)
@given(argvs(), STRAY_WORDS)
def test_generated_argv_parses_as_the_full_parser_does(argv, stray):
    for words in (argv, argv + stray):
        assert parse_outcome(_parse, words) == parse_outcome(build_parser().parse_args, words)


# ---------------------------------------------------------------------------
# Rendering: every JSON value the renderer meets, written as json.dumps would.

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=10**19, max_value=10**40).map(lambda v: v * (-1) ** v),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1.7976931348623157e308, 0.1]),
    st.text(),  # non-ASCII and control characters included
    st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\u00e9\u4e2d\U0001f600", "\ud800"]),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_renderer_writes_what_json_dumps_writes(value):
    indented = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    assert _json(value, "\n") == indented
    assert _json(value, "") == json.dumps(value, sort_keys=True, allow_nan=False)
    report = {"results": value, "verdict": "ok"}
    assert render_report(report, "json") == json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1.0, math.nan],
                                   [[0.5, -math.inf]], {"a": [math.inf]}])
def test_renderer_refuses_non_finite_floats_as_json_dumps_does(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        json.dumps(value, allow_nan=False)
    with pytest.raises(ValueError, match="not JSON compliant"):
        render_report({"results": value}, "json")


# Tables: lists of rows of one width, the shape of ``results.amplitudes``,
# which the renderer writes one column at a time.  Each column draws from one
# kind of cell; the kinds include repeated floats, zeros of both signs and a
# column that mixes 1, 1.0 and True.
TABLE_CELLS = {
    "int": st.one_of(st.integers(), st.integers(min_value=10**19, max_value=10**40)),
    "float": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.5, -0.5, 2.0**-5, 1e-300])),
    "repeated": st.sampled_from([0.3535533905932738, -0.3535533905932738]),
    "zeros": st.sampled_from([0.0, -0.0]),
    "ones": st.sampled_from([1, 1.0, True]),
    "any": st.one_of(st.none(), st.booleans(), st.integers(), st.sampled_from([0.0, -0.0, 0.5])),
}


@st.composite
def tables(draw):
    """1 to 8 rows of one width, or that table made ragged, given an empty row
    or given a nested cell."""
    kinds = draw(st.lists(st.sampled_from(sorted(TABLE_CELLS)), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*(TABLE_CELLS[kind] for kind in kinds)).map(list),
                         min_size=1, max_size=8))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    change = draw(st.sampled_from(["none", "ragged", "empty", "nested"]))
    if change == "ragged" and len(row) > 1:
        row.pop()
    elif change == "ragged":
        row.append(0.5)
    elif change == "empty":
        row.clear()
    elif change == "nested":
        row[-1] = [row[-1]]
    return rows


@settings(max_examples=300, deadline=None)
@given(tables())
def test_tables_render_as_json_dumps_writes_them(table):
    report = {"results": {"amplitudes": table, "n_bits": 3}, "verdict": "ok"}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_TABLE_ROWS", 1)  # so that tables of a few rows take the table path
        assert _json(table, "\n") == json.dumps(table, sort_keys=True, indent=2, allow_nan=False)
        assert _json(table, "") == json.dumps(table, sort_keys=True, allow_nan=False)
        for fmt in ("json", "csv", "text"):
            assert render_report(report, fmt) == reference_render(report, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("rows", [1, cli._TABLE_ROWS])  # the recursive and the table path
@pytest.mark.parametrize("table, first", [
    ([[0, math.nan, 0.0]], math.nan),
    ([[0, 0.5, 0.0], [1, math.inf, 0.0]], math.inf),
    ([[-math.inf], [0.5]], -math.inf),
    ([[1.0, math.inf], [math.nan, 1.0]], math.inf),  # the first in document order
])
def test_a_table_with_a_non_finite_float_is_refused_in_every_format(fmt, rows, table, first):
    table = table + table[:1] * (rows - len(table))
    with pytest.raises(ValueError, match=re.escape(f"not JSON compliant: {first!r}")):
        render_report({"results": {"amplitudes": table}}, fmt)
