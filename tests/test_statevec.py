import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from densecode import (
    PauliLabel,
    PauliString,
    StateVector,
    apply_pauli_string,
    apply_two_qubit,
    basis_ket,
    equal_up_to_global_phase,
    ghz_state,
    hadamard_all,
    tensor_product,
)
from densecode.statevec import CHUNK, NORM_TOLERANCE

SQ2 = 1.0 / np.sqrt(2.0)


def random_state(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, v / np.linalg.norm(v))


# Local references for operations the package does not export: <a|b>, a qubit
# permutation, a marginal outcome distribution by a general transpose-sum, and a
# projective measurement drawn from that marginal.


def inner_product(a, b):
    """<a|b>, conjugate-linear in ``a``."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"dimension mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def permute_qubits(state, perm):
    """Reorder qubits; ``perm[i]`` is the new position of qubit i+1."""
    n = state.n_qubits
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{n}")
    return StateVector(n, state.tensor().transpose(np.argsort(perm)).reshape(-1))


def marginal_probabilities(state, qubits):
    """Exact outcome distribution for measuring ``qubits`` (ascending order,
    first listed qubit = most significant outcome bit)."""
    n = state.n_qubits
    others = [q for q in range(1, n + 1) if q not in qubits]
    probs = np.abs(state.tensor()) ** 2
    perm = [q - 1 for q in qubits] + [q - 1 for q in others]
    return probs.transpose(perm).reshape(2 ** len(qubits), -1).sum(axis=1)


def measure_qubits(state, qubits, rng):
    """(outcome, collapsed state): the outcome packs the measured bits with the lowest
    qubit as the high bit; the collapsed state keeps the register, renormalized."""
    qs = sorted(set(qubits))
    if not qs:
        raise ValueError("measurement needs a non-empty qubit set")
    marginal = marginal_probabilities(state, qs)
    outcome = int(rng.choice(marginal.size, p=marginal / marginal.sum()))
    t = state.tensor().copy()
    for pos, q in enumerate(qs):
        sl = [slice(None)] * state.n_qubits
        sl[q - 1] = 1 - ((outcome >> (len(qs) - 1 - pos)) & 1)
        t[tuple(sl)] = 0.0
    flat = t.reshape(-1)
    return outcome, StateVector(state.n_qubits, flat / np.linalg.norm(flat))


# ---------------------------------------------------------------------------
# construction and validation


def test_basis_ket_single_qubit():
    assert np.array_equal(basis_ket(1, 0).amplitudes, [1, 0])


def test_basis_ket_two_qubits():
    assert np.array_equal(basis_ket(2, 3).amplitudes, [0, 0, 0, 1])


def test_basis_ket_qubit_one_is_most_significant():
    # |100>: qubit 1 set means index 4, not index 1
    assert basis_ket(3, 4).amplitudes[4] == 1


def test_basis_ket_index_out_of_range():
    with pytest.raises(ValueError):
        basis_ket(2, 4)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_ghz_state_support(n):
    s = ghz_state(n)
    assert s.amplitudes[0] == pytest.approx(SQ2)
    assert s.amplitudes[2**n - 1] == pytest.approx(SQ2)
    assert np.count_nonzero(s.amplitudes) == 2


def test_ghz_needs_two_qubits():
    with pytest.raises(ValueError):
        ghz_state(1)


def test_statevector_rejects_bad_length():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200, -1e200,  # 1e200 squares to inf
                                 complex(0, np.nan), complex(0, -np.inf), complex(0, 1e200)])
@pytest.mark.filterwarnings("error")  # a norm that overflows to inf is refused, not warned of
def test_statevector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, [bad, 0])


def test_statevector_amplitudes_are_read_only():
    s = ghz_state(2)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


@pytest.mark.parametrize("scale", [1 - 0.4 * NORM_TOLERANCE, 1 + 0.4 * NORM_TOLERANCE])
def test_statevector_accepts_a_norm_within_tolerance(scale):
    amps = np.array([0.6, 0.8j]) * np.sqrt(scale)
    assert StateVector(1, amps).amplitudes[1] == amps[1]


@pytest.mark.parametrize("scale", [1 - 2 * NORM_TOLERANCE, 1 + 2 * NORM_TOLERANCE])
def test_statevector_rejects_a_norm_outside_tolerance(scale):
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([0.6, 0.8j]) * np.sqrt(scale))


def test_statevector_validates_strided_fortran_and_real_inputs():
    rng = np.random.default_rng(3)
    ref = random_state(4, rng).amplitudes
    wide = np.zeros(32, dtype=complex)
    wide[::2] = ref
    grid = np.asfortranarray(ref.reshape(4, 4))
    real = ref.real / np.linalg.norm(ref.real)
    halves = np.full(16, 0.25, dtype=np.float32)  # exact in float32
    cases = [(wide[::2], ref), (ref[::-1], ref[::-1]), (grid, ref), (real, real),
             (halves, halves), (np.eye(16, dtype=int)[3], np.eye(16)[3])]
    for amps, want in cases:
        state = StateVector(4, amps)
        assert state.amplitudes.dtype == complex and state.amplitudes.flags.c_contiguous
        assert np.array_equal(state.amplitudes, np.asarray(want, dtype=complex).reshape(-1))


def test_statevector_keeps_a_private_copy():
    amps = np.array([SQ2, SQ2], dtype=complex)
    state = StateVector(1, amps)
    amps[0] = 5.0
    assert state.amplitudes[0] == SQ2
    assert not np.shares_memory(state.amplitudes, amps)


def chunk_norm(amps):
    """|amps|^2 as a state takes it: each CHUNK's vdot of its real and imaginary parts,
    summed from the left."""
    flat = np.asarray(amps, dtype=complex).view(float)
    total = 0.0
    for i in range(0, flat.size, 2 * CHUNK):
        part = flat[i:i + 2 * CHUNK]
        total += float(np.vdot(part, part))
    return total


@pytest.mark.parametrize("n", [1, 14, 15, 17])
def test_the_norm_is_each_chunks_vdot_summed_from_the_left(n):
    """One chunk up to CHUNK amplitudes, whose norm is the one dot of the whole copy;
    a state of n = 17 qubits is copied and weighed in 2**17 / CHUNK = 8 chunks.  The
    norm a refused state reports is that sum, bit for bit, and a state keeps no
    weights."""
    amps = random_state(n, np.random.default_rng(n)).amplitudes
    state = StateVector(n, amps)
    assert sorted(vars(state)) == ["_copy", "_dead", "_start", "amplitudes", "n_qubits"]
    flat = state.amplitudes.view(float)
    assert math.isclose(chunk_norm(amps), float(np.vdot(flat, flat)), rel_tol=1e-14)
    if 2**n <= CHUNK:
        assert chunk_norm(amps) == float(np.vdot(flat, flat))
    doubled = 2 * amps
    with pytest.raises(ValueError) as caught:
        StateVector(n, doubled)
    assert str(caught.value) == f"state is not normalized: |psi|^2 = {chunk_norm(doubled)!r}"


def scaled_state(n, scale):
    v = random_state(n, np.random.default_rng(17)).amplitudes
    return v * np.sqrt(scale)


@pytest.mark.parametrize("scale", [1 - 0.4 * NORM_TOLERANCE, 1 + 0.4 * NORM_TOLERANCE])
def test_a_multi_chunk_state_within_tolerance_is_accepted(scale):
    amps = scaled_state(17, scale)
    assert np.array_equal(StateVector(17, amps).amplitudes, amps)


@pytest.mark.parametrize("scale", [1 - 2 * NORM_TOLERANCE, 1 + 2 * NORM_TOLERANCE])
def test_a_multi_chunk_state_outside_tolerance_is_refused(scale):
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(17, scaled_state(17, scale))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200, complex(0, np.nan),
                                 complex(0, -np.inf), complex(0, 1e200)])
@pytest.mark.parametrize("at", [-CHUNK, -1])
@pytest.mark.filterwarnings("error")  # the last chunk's weight overflows without a warning
def test_a_non_finite_amplitude_in_the_last_chunk_is_refused(bad, at):
    amps = ghz_state(17).amplitudes.copy()
    amps[at] = bad
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(17, amps)


def test_a_multi_chunk_state_copies_strided_fortran_and_real_inputs():
    """Read in C order from any layout and dtype, as np.array reads them."""
    rng = np.random.default_rng(30)
    ref = random_state(17, rng).amplitudes
    wide = np.zeros(2**18, dtype=complex)
    wide[::2] = ref
    grid = np.asfortranarray(ref.reshape(2**8, 2**9))
    real = ref.real / np.linalg.norm(ref.real)
    sixteenths = np.zeros(2**17, dtype=np.float32)
    sixteenths[::512] = 1 / 16  # exact in float32, 256 of them
    basis = np.zeros(2**17, dtype=int)
    basis[-1] = 1
    for amps in (wide[::2], ref[::-1], grid, real, sixteenths, basis, list(ref)):
        state = StateVector(17, amps)
        assert state.amplitudes.dtype == complex and state.amplitudes.flags.c_contiguous
        assert not state.amplitudes.flags.writeable
        want = np.array(amps, dtype=complex, order="C").reshape(-1)
        assert np.array_equal(state.amplitudes, want)
        assert not np.shares_memory(state.amplitudes, amps)
    with pytest.raises(ValueError, match="expected 131072 amplitudes for 17 qubits, got 65536"):
        StateVector(17, ref[::2])


# A state's chunks of zero bits are left unwritten and zeroed on the first read of
# ``amplitudes``, whatever the input's kind: an object array is first converted, and
# any other input is read as its C-order ravel.  With the first chunk dead or live,
# each must give the bytes of np.array.


def chunk_cases(n, head_zero):
    """(kind, input) of every accepted input kind for one n-qubit state: mass 0.5 in
    four chunks, the first of them chunk 0 unless ``head_zero``; for float dtypes also
    a chunk of -0.0 only and a chunk of the dtype's smallest denormal only; zero bits
    everywhere else.  An int or bool input is one basis state."""
    size = 2**n
    mass = [9 if not head_zero else CHUNK + 1, 4 * CHUNK + 2, size - CHUNK, size - 1]
    cases = []
    for dtype in (complex, np.complex64, float, np.float32):
        x = np.zeros(size, dtype=dtype)
        x[mass] = 0.5
        if x.dtype.kind == "c":
            x[mass[1]] = 0.5j
        x[2 * CHUNK:3 * CHUNK] = -0.0
        x[3 * CHUNK:4 * CHUNK] = np.finfo(x.dtype).smallest_subnormal
        cases.append((x.dtype.name, x))
    for dtype in (int, bool):
        x = np.zeros(size, dtype=dtype)
        x[mass[0]] = 1
        cases.append((x.dtype.name, x))
    ref = cases[0][1]
    wide = np.zeros(2 * size, dtype=complex)
    wide[::2] = ref
    cases += [("list", list(ref)), ("strided", wide[::2]), ("reversed", ref[::-1].copy()[::-1]),
              ("fortran", np.asfortranarray(ref.reshape(2**8, -1))),
              ("object", ref.astype(object))]
    return cases


@pytest.mark.parametrize("head_zero", [True, False])
@pytest.mark.parametrize("n", [17, 18, 20])
def test_every_input_kind_keeps_every_bit_and_dead_chunk(n, head_zero):
    """The bytes of np.array, and dead exactly the chunks whose bytes there are all 0."""
    for kind, x in chunk_cases(n, head_zero):
        state = StateVector(n, x)
        want = np.array(x, dtype=complex).reshape(-1)
        zero = [c for c in range(2**n // CHUNK)
                if not want[c * CHUNK:(c + 1) * CHUNK].view(bool).any()]
        assert state._dead == tuple(zero) and zero, kind
        assert state.amplitudes.tobytes() == want.tobytes(), kind
        assert state.amplitudes.flags.c_contiguous and not state.amplitudes.flags.writeable
        assert isinstance(x, list) or not np.shares_memory(state.amplitudes, x), kind


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("n", [18, 20])
@pytest.mark.filterwarnings("error")
def test_a_non_finite_amplitude_after_a_zero_first_chunk_is_refused(n, bad):
    for dtype in (complex, np.complex64, float, np.float32):
        if isinstance(bad, complex) and np.dtype(dtype).kind != "c":
            continue
        x = np.zeros(2**n, dtype=dtype)
        x[CHUNK + 1] = 1.0
        x[5 * CHUNK + 3] = bad
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(n, x)


def dead_and_live_inputs(n):
    """(kind, input) of n-qubit inputs with dead chunks, of zero bits, and live ones:
    weight 0.36 in chunk 1 and 0.64 in the last; then one more chunk live only
    through a -0.0, or through a 1e-200 whose weight underflows to 0.0."""
    x = np.zeros(2**n, dtype=complex)
    x[CHUNK + 3], x[-5] = 0.6, 0.8j
    minus_zero, underflow = x.copy(), x.copy()
    minus_zero[2 * CHUNK + 1] = complex(-0.0, 0.0)
    underflow[3 * CHUNK + 2] = 1e-200
    return {"two live": x, "minus zero": minus_zero, "underflow": underflow}


def poisoned(n, x):
    """``StateVector(n, x)`` with its dead chunks, left unwritten in its private copy,
    filled with NaN, as memory from np.empty may hold anything: no reader sees them."""
    state = StateVector(n, x)
    for c in state._dead:
        state._copy[c * CHUNK:(c + 1) * CHUNK] = np.nan
    return state


# Each reader of a state, as bytes or text; a state with dead chunks must give a
# full copy's answer whether the reader is the first to read ``amplitudes`` or not.
STATE_READERS = {
    "amplitudes": lambda s: s.amplitudes.tobytes(),
    "read-only": lambda s: (s.amplitudes.flags.writeable, s.amplitudes.flags.c_contiguous),
    "start": lambda s: s._start,
    "repr": repr,
    "tensor": lambda s: (s.tensor().shape, s.tensor().tobytes()),
    "replace": lambda s: dataclasses.replace(s).amplitudes.tobytes(),
    "hadamard_all": lambda s: hadamard_all(s).amplitudes.tobytes(),
    "phase": lambda s: (equal_up_to_global_phase(s, s), equal_up_to_global_phase(
        s, StateVector(s.n_qubits, s.amplitudes[::-1].copy()))),
    "copy": lambda s: (copy.copy(s).amplitudes.tobytes(), s.amplitudes.tobytes()),
    "pickle": lambda s: pickle.loads(pickle.dumps(s)).amplitudes.tobytes(),
}


@pytest.mark.parametrize("n", [17, 18])
@pytest.mark.parametrize("reader", STATE_READERS)
def test_dead_chunks_read_as_a_full_copy(n, reader):
    """The reference is a full copy, np.array(x, dtype=complex), and the norm of its
    chunks computed here: the state gives its bytes, and each reader gives the same
    answer whether it is the first to read ``amplitudes``, reads after that first
    read, or reads a state whose ``amplitudes`` was read before it."""
    read = STATE_READERS[reader]
    for kind, x in dead_and_live_inputs(n).items():
        want = np.array(x, dtype=complex)
        state = poisoned(n, x)
        assert state._dead and "amplitudes" not in vars(state), kind  # built on first read
        first = read(state)
        assert state.amplitudes.tobytes() == want.tobytes(), kind
        assert read(state) == first, (kind, reader)
        again = poisoned(n, x)
        again.amplitudes
        assert read(again) == first, (kind, reader)
        assert abs(chunk_norm(want) - 1.0) <= NORM_TOLERANCE, kind
        with pytest.raises(ValueError) as caught:
            StateVector(n, 2 * x)
        assert str(caught.value) == (
            f"state is not normalized: |psi|^2 = {chunk_norm(2 * want)!r}"), kind


def test_a_live_chunk_of_weight_zero_is_copied():
    x = dead_and_live_inputs(17)
    for kind, chunk in (("minus zero", 2), ("underflow", 3)):
        state = StateVector(17, x[kind])
        assert state._dead == tuple(c for c in range(8) if c not in (1, chunk, 7)), kind
        assert chunk_norm(state.amplitudes[chunk * CHUNK:(chunk + 1) * CHUNK]) == 0.0, kind
        assert state.amplitudes[chunk * CHUNK:(chunk + 1) * CHUNK].tobytes() == (
            x[kind][chunk * CHUNK:(chunk + 1) * CHUNK].tobytes()), kind


def test_a_read_only_input_leaves_the_same_chunks_dead():
    """A chunk is tested by the bool argmax of its bytes, which stops at the first
    nonzero one, and which copies a read-only chunk first: a writeable and a read-only
    input find the same dead chunks and the same start."""
    for kind, x in dead_and_live_inputs(17).items():
        frozen = x.copy()
        frozen.flags.writeable = False
        states = [StateVector(17, amps) for amps in (x, frozen)]
        assert states[0]._dead == states[1]._dead and states[0]._dead, kind
        assert states[0]._start == states[1]._start == CHUNK + 3, kind
        assert states[0].amplitudes.tobytes() == states[1].amplitudes.tobytes(), kind


@pytest.mark.parametrize("bad", [np.nan, complex(0, np.nan), 2.0])
def test_a_state_with_dead_chunks_is_refused_with_a_full_copys_text(bad):
    """A NaN, or a weight past the tolerance, among dead chunks: the norm error text is
    the one a copy of every chunk gives, from a writeable or an object input."""
    x = dead_and_live_inputs(18)["two live"]
    x[5 * CHUNK + 7] = bad
    want = f"state is not normalized: |psi|^2 = {chunk_norm(x)!r}"
    for amps in (x, x.astype(object)):
        with pytest.raises(ValueError) as caught:
            StateVector(18, amps)
        assert str(caught.value) == want


def test_pauli_string_rejects_duplicate_targets():
    with pytest.raises(ValueError):
        PauliString((PauliLabel.X, PauliLabel.Z), (1, 1))


def test_statevector_repr_shows_at_most_six_terms():
    uniform = StateVector(3, np.full(8, 8**-0.5))
    assert repr(uniform) == "StateVector(" + " + ".join(
        f"0.3536+0j|{idx:03b}>" for idx in range(6)) + ")"
    assert repr(StateVector(3, 1j * basis_ket(3, 0b011).amplitudes)) == "StateVector(0+1j|011>)"


def test_pauli_string_label_on_an_untargeted_qubit_is_identity():
    ps = PauliString((PauliLabel.X, PauliLabel.IY), (2, 4))
    assert [ps.label_on(q) for q in (1, 2, 3, 4, 5)] == [
        PauliLabel.I, PauliLabel.X, PauliLabel.I, PauliLabel.IY, PauliLabel.I]


def test_restricted_to_is_the_label_on_scan_of_each_qubit():
    rng = np.random.default_rng(4302)
    labels = list(PauliLabel)
    for size in range(0, 9):
        targets = tuple(rng.permutation(np.arange(1, 12))[:size].tolist())
        ps = PauliString(tuple(labels[i] for i in rng.integers(0, 4, size)), targets)
        for qubits in ((), (5,), tuple(range(1, 12)), tuple(reversed(targets)), targets[:2]):
            sub = ps.restricted_to(qubits)
            assert sub == PauliString(tuple(ps.label_on(q) for q in qubits), qubits)
            assert sub.targets == qubits


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_zero_one():
    s = tensor_product(basis_ket(1, 0), basis_ket(1, 1))
    assert np.array_equal(s.amplitudes, [0, 1, 0, 0])


def test_tensor_bell_bell():
    # Oracle: direct double-loop expansion of the product amplitudes.
    bell = ghz_state(2)
    expected = np.zeros(16, dtype=complex)
    for i, x in enumerate(bell.amplitudes):
        for j, y in enumerate(bell.amplitudes):
            expected[i * 4 + j] = x * y
    got = tensor_product(bell, bell)
    assert np.allclose(got.amplitudes, expected, atol=1e-15)
    assert sorted(np.nonzero(got.amplitudes)[0]) == [0, 3, 12, 15]
    assert np.allclose(got.amplitudes[[0, 3, 12, 15]], 0.5)


def test_tensor_ghz_with_zero():
    s = tensor_product(ghz_state(3), basis_ket(1, 0))
    expected = np.zeros(16, dtype=complex)
    expected[0b0000] = expected[0b1110] = SQ2
    assert np.allclose(s.amplitudes, expected)


# ---------------------------------------------------------------------------
# Pauli strings


def test_x_flips_single_qubit():
    s = apply_pauli_string(basis_ket(1, 0), PauliString((PauliLabel.X,), (1,)))
    assert np.array_equal(s.amplitudes, [0, 1])


def test_zx_on_ghz3_gives_signed_pair():
    # Encoded form of message 101: (|010> - |101>)/sqrt(2)
    ps = PauliString((PauliLabel.Z, PauliLabel.X), (1, 2))
    s = apply_pauli_string(ghz_state(3), ps)
    expected = np.zeros(8, dtype=complex)
    expected[0b010] = SQ2
    expected[0b101] = -SQ2
    assert np.allclose(s.amplitudes, expected, atol=1e-15)


def test_z_iy_matches_alternate_up_to_phase():
    alt = apply_pauli_string(ghz_state(3), PauliString((PauliLabel.Z, PauliLabel.IY), (1, 2)))
    expected = np.zeros(8, dtype=complex)
    expected[0b010] = -SQ2
    expected[0b101] = -SQ2
    assert np.allclose(alt.amplitudes, expected, atol=1e-15)
    canonical = apply_pauli_string(ghz_state(3), PauliString((PauliLabel.I, PauliLabel.X), (1, 2)))
    assert equal_up_to_global_phase(alt, canonical)


@pytest.mark.parametrize("label,period,sign", [
    (PauliLabel.X, 2, 1), (PauliLabel.Z, 2, 1), (PauliLabel.IY, 2, -1), (PauliLabel.IY, 4, 1),
])
def test_label_powers_are_exact(label, period, sign):
    # flips and negations are exact float operations, so no tolerance
    rng = np.random.default_rng(5)
    s = random_state(3, rng)
    out = s
    for _ in range(period):
        out = apply_pauli_string(out, PauliString((label,), (2,)))
    assert np.array_equal(out.amplitudes, sign * s.amplitudes)


def test_apply_rejects_bad_target():
    with pytest.raises(ValueError):
        apply_pauli_string(ghz_state(2), PauliString((PauliLabel.X,), (5,)))


def test_apply_preserves_norm():
    rng = np.random.default_rng(6)
    s = random_state(4, rng)
    ps = PauliString((PauliLabel.IY, PauliLabel.Z, PauliLabel.X), (1, 3, 4))
    out = apply_pauli_string(s, ps)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# inner products


def test_inner_product_identity():
    assert inner_product(basis_ket(1, 0), basis_ket(1, 0)) == 1


def test_inner_product_encoded_norm():
    s = apply_pauli_string(ghz_state(4), PauliString((PauliLabel.IY, PauliLabel.X, PauliLabel.Z), (1, 2, 3)))
    assert inner_product(s, s) == pytest.approx(1.0)


def test_inner_product_orthogonal_codewords():
    a = apply_pauli_string(ghz_state(3), PauliString((PauliLabel.Z, PauliLabel.I), (1, 2)))
    b = ghz_state(3)
    assert inner_product(a, b) == pytest.approx(0.0)


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(7)
    a, b = random_state(3, rng), random_state(3, rng)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(basis_ket(1, 0), basis_ket(2, 0))


# ---------------------------------------------------------------------------
# Hadamard basis


def test_hadamard_all_bell():
    h = hadamard_all(ghz_state(2))
    assert np.allclose(h.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-15)


def test_hadamard_all_ghz3():
    h = hadamard_all(ghz_state(3))
    expected = np.zeros(8)
    expected[[0b000, 0b011, 0b101, 0b110]] = 0.5
    assert np.allclose(h.amplitudes, expected, atol=1e-15)


def test_hadamard_all_single_zero():
    h = hadamard_all(basis_ket(1, 0))
    assert np.allclose(h.amplitudes, [SQ2, SQ2])


def test_hadamard_all_is_involution():
    rng = np.random.default_rng(8)
    s = random_state(5, rng)
    back = hadamard_all(hadamard_all(s))
    assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-12


# ---------------------------------------------------------------------------
# measurement


def test_measure_deterministic_state():
    rng = np.random.default_rng(0)
    outcome, collapsed = measure_qubits(basis_ket(2, 0b10), {1}, rng)
    assert outcome == 1
    assert np.array_equal(collapsed.amplitudes, basis_ket(2, 0b10).amplitudes)


def test_measure_ghz_last_qubit_collapses_everyone():
    counts = [0, 0]
    for seed in range(200):
        rng = np.random.default_rng(seed)
        outcome, collapsed = measure_qubits(ghz_state(3), {3}, rng)
        counts[outcome] += 1
        expected = basis_ket(3, 0) if outcome == 0 else basis_ket(3, 7)
        assert np.allclose(collapsed.amplitudes, expected.amplitudes)
    assert counts[0] > 50 and counts[1] > 50


def test_measure_bell_in_plus_minus_picture():
    # hadamard_all(bell) = bell; measuring qubit 2 leaves qubit 1 in the ket
    # that stands for |+> or |->, each with probability 1/2.
    state = hadamard_all(ghz_state(2))
    seen = set()
    for seed in range(50):
        outcome, collapsed = measure_qubits(state, {2}, np.random.default_rng(seed))
        seen.add(outcome)
        expected = basis_ket(2, 0b00) if outcome == 0 else basis_ket(2, 0b11)
        assert np.allclose(collapsed.amplitudes, expected.amplitudes)
    assert seen == {0, 1}


def test_measure_frequencies_match_marginals():
    rng = np.random.default_rng(9)
    state = random_state(3, rng)
    # Oracle: marginal over qubits {1, 3} by explicit index arithmetic.
    exact = np.zeros(4)
    for idx, amp in enumerate(state.amplitudes):
        b1, b3 = (idx >> 2) & 1, idx & 1
        exact[(b1 << 1) | b3] += abs(amp) ** 2
    trials = 10_000
    counts = np.zeros(4)
    rng2 = np.random.default_rng(10)
    for _ in range(trials):
        outcome, _ = measure_qubits(state, {1, 3}, rng2)
        counts[outcome] += 1
    freq = counts / trials
    sigma = np.sqrt(exact * (1 - exact) / trials)
    assert np.all(np.abs(freq - exact) <= 3 * sigma + 1e-12)


def test_measure_is_seed_deterministic():
    state = ghz_state(4)
    a = measure_qubits(state, {1, 2}, np.random.default_rng(123))
    b = measure_qubits(state, {1, 2}, np.random.default_rng(123))
    assert a[0] == b[0]
    assert np.array_equal(a[1].amplitudes, b[1].amplitudes)


def test_measure_rejects_empty_set():
    with pytest.raises(ValueError):
        measure_qubits(ghz_state(2), set(), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# permutation


def test_permute_swap():
    assert np.array_equal(
        permute_qubits(basis_ket(2, 0b01), (2, 1)).amplitudes,
        basis_ket(2, 0b10).amplitudes,
    )


@pytest.mark.parametrize("perm", [(1, 2, 3), (3, 1, 2), (2, 3, 1), (3, 2, 1)])
def test_permute_ghz_symmetry(perm):
    out = permute_qubits(ghz_state(3), perm)
    assert np.allclose(out.amplitudes, ghz_state(3).amplitudes)


def test_permute_cycle_moves_slot():
    # Oracle: rebuild via per-basis-index bit shuffling.
    state = tensor_product(ghz_state(2), basis_ket(1, 0))
    perm = (2, 3, 1)  # qubit 1 -> position 2, 2 -> 3, 3 -> 1
    expected = np.zeros(8, dtype=complex)
    for idx, amp in enumerate(state.amplitudes):
        bits = [(idx >> (2 - q)) & 1 for q in range(3)]
        new_bits = [0, 0, 0]
        for src, dst in enumerate(perm):
            new_bits[dst - 1] = bits[src]
        new_idx = (new_bits[0] << 2) | (new_bits[1] << 1) | new_bits[2]
        expected[new_idx] = amp
    out = permute_qubits(state, perm)
    assert np.allclose(out.amplitudes, expected)
    assert np.allclose(out.amplitudes, tensor_product(basis_ket(1, 0), ghz_state(2)).amplitudes)


def test_permute_rejects_non_permutation():
    with pytest.raises(ValueError):
        permute_qubits(ghz_state(2), (1, 1))


# ---------------------------------------------------------------------------
# phase comparison and two-qubit gates


def test_equal_up_to_global_phase():
    s = ghz_state(3)
    rotated = StateVector(3, s.amplitudes * np.exp(0.83j))
    assert equal_up_to_global_phase(s, rotated)
    assert not equal_up_to_global_phase(s, basis_ket(3, 0))


def test_states_of_different_sizes_are_never_equal_up_to_phase():
    # |00> and |000> hold the same first amplitudes, yet differ in register size
    assert not equal_up_to_global_phase(basis_ket(2, 0), basis_ket(3, 0))
    assert not equal_up_to_global_phase(ghz_state(3), ghz_state(2), tol=10.0)


def test_apply_two_qubit_cnot():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    out = apply_two_qubit(basis_ket(2, 0b10), cnot, (1, 2))
    assert np.array_equal(out.amplitudes, basis_ket(2, 0b11).amplitudes)


def test_apply_two_qubit_respects_order():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    # control on qubit 2: |01> -> |11>
    out = apply_two_qubit(basis_ket(2, 0b01), cnot, (2, 1))
    assert np.array_equal(out.amplitudes, basis_ket(2, 0b11).amplitudes)


def test_apply_two_qubit_rejects_bad_shape():
    with pytest.raises(ValueError):
        apply_two_qubit(ghz_state(2), np.eye(2), (1, 2))
