import dataclasses
import math

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


# A state of n = 17 qubits is copied and weighed in 2**17 / CHUNK = 8 chunks.


def test_each_chunk_weight_is_its_chunks_vdot_and_read_only():
    state = random_state(17, np.random.default_rng(29))
    flat = state.amplitudes.view(float)
    parts = [flat[i:i + 2 * CHUNK] for i in range(0, flat.size, 2 * CHUNK)]
    assert len(parts) == len(state._chunk_weights) == 8
    for weight, part in zip(state._chunk_weights, parts):
        assert type(weight) is float and weight == np.vdot(part, part)
    assert isinstance(state._chunk_weights, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state._chunk_weights = (1.0,)
    assert len(ghz_state(5)._chunk_weights) == 1


@pytest.mark.parametrize("n", [1, 14, 15, 17])
def test_chunk_weights_sum_to_the_norm(n):
    """One chunk up to CHUNK amplitudes: the weight is the one dot of the whole copy."""
    state = random_state(n, np.random.default_rng(n))
    flat = state.amplitudes.view(float)
    if 2**n <= CHUNK:
        assert state._chunk_weights == (float(np.vdot(flat, flat)),)
    total = sum(state._chunk_weights)
    assert abs(total - 1.0) <= NORM_TOLERANCE
    assert math.isclose(total, float(np.vdot(flat, flat)), rel_tol=1e-14)


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
    """Read in C order from any layout and dtype, as a one-chunk state's np.array reads."""
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


# From statevec._SPARSE = 2**18 amplitudes, an input whose first chunk holds only
# zero bits is copied into np.zeros and its chunks of zero bits are left unwritten;
# every other input is copied chunk by chunk.  Both paths must give the same bytes.


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
def test_both_copy_paths_keep_every_bit_and_weight(n, head_zero):
    for kind, x in chunk_cases(n, head_zero):
        state = StateVector(n, x)
        want = np.array(x, dtype=complex).reshape(-1)
        assert state.amplitudes.tobytes() == want.tobytes(), kind
        assert state.amplitudes.flags.c_contiguous and not state.amplitudes.flags.writeable
        assert isinstance(x, list) or not np.shares_memory(state.amplitudes, x), kind
        flat = state.amplitudes.view(float)
        parts = [flat[i:i + 2 * CHUNK] for i in range(0, flat.size, 2 * CHUNK)]
        assert len(state._chunk_weights) == len(parts), kind
        for weight, part in zip(state._chunk_weights, parts):
            assert type(weight) is float, kind
            assert weight.hex() == float(np.vdot(part, part)).hex(), kind


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
