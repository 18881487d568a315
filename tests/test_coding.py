import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from densecode import coding
from densecode import (
    DnkSpec,
    Message,
    NoMatchError,
    PauliLabel,
    PauliString,
    StateVector,
    all_messages,
    apply_pauli_string,
    bell_code_basis,
    bell_pairs_state,
    decode_bell,
    decode_ghz,
    dnk_code_basis,
    dnk_combined_string,
    dnk_decode,
    dnk_encode,
    dnk_encoded_state,
    dnk_gram_report,
    dnk_spec,
    dnk_state,
    encode_bell,
    encode_ghz,
    encoded_bell_state,
    encoded_state,
    equal_up_to_global_phase,
    ghz_code_basis,
    ghz_state,
    hadamard_on,
    layout_audit,
    pauli_equivalent,
    tensor_product,
    verify_code_orthonormality,
)
from densecode.coding import (
    _ON_COSET,
    OVERLAP_THRESHOLD,
    _circuit_outputs,
    _coset_indices,
    _message_indices,
    _word_masks,
    dnk_code_words,
    dnk_word_support,
)
from densecode.entanglement import (
    capacity,
    entanglement_verdicts,
    optimality_report,
    reduced_density,
)
from densecode.statevec import CHUNK, _parity

SQ2 = 1.0 / np.sqrt(2.0)

I, X, Z, IY = PauliLabel.I, PauliLabel.X, PauliLabel.Z, PauliLabel.IY


def ps(labels, targets):
    return PauliString(tuple(labels), tuple(targets))


def all_bitstrings(n):
    return [Message(bits) for bits in itertools.product((0, 1), repeat=n)]


# ---------------------------------------------------------------------------
# Message


def test_message_parsing_and_str():
    m = Message.from_string("10110")
    assert m.bits == (1, 0, 1, 1, 0)
    assert str(m) == "10110"
    assert len(m) == 5


def test_message_iterates_over_its_bits():
    m = Message.from_string("10110")
    assert list(m) == [1, 0, 1, 1, 0]
    assert sum(m) == 3 and tuple(m) == m.bits


def test_message_validation():
    with pytest.raises(ValueError):
        Message((1,))
    with pytest.raises(ValueError):
        Message((0, 2))
    with pytest.raises(ValueError):
        Message.from_string("01a")


# ---------------------------------------------------------------------------
# GHZ encoding


def test_encode_five_bit_example():
    assert encode_ghz("10110") == ps([Z, X, X, I], [1, 2, 3, 4])


def test_encode_all_zero():
    assert encode_ghz("000") == ps([I, I], [1, 2])


def test_encode_all_one():
    assert encode_ghz("111") == ps([IY, X], [1, 2])


def test_encoded_state_101():
    s = encoded_state("101")
    expected = np.zeros(8, dtype=complex)
    expected[0b010] = SQ2
    expected[0b101] = -SQ2
    assert np.allclose(s.amplitudes, expected, atol=1e-15)


def test_encoded_state_011():
    s = encoded_state("011")
    expected = np.zeros(8, dtype=complex)
    expected[0b110] = SQ2
    expected[0b001] = SQ2
    assert np.allclose(s.amplitudes, expected, atol=1e-15)


@pytest.mark.parametrize("n", [2, 4, 7])
def test_encoded_all_zero_is_ghz(n):
    s = encoded_state("0" * n)
    assert np.allclose(s.amplitudes, ghz_state(n).amplitudes)


THREE_QUBIT_TABLE = {
    # message: (canonical labels, alternate labels, support, relative sign)
    "000": ([I, I], [Z, Z], (0b000, 0b111), +1),
    "001": ([I, X], [Z, IY], (0b010, 0b101), +1),
    "010": ([X, I], [IY, Z], (0b100, 0b011), +1),
    "011": ([X, X], [IY, IY], (0b110, 0b001), +1),
    "100": ([Z, I], [I, Z], (0b000, 0b111), -1),
    "101": ([Z, X], [I, IY], (0b010, 0b101), -1),
    "110": ([IY, I], [X, Z], (0b100, 0b011), -1),
    "111": ([IY, X], [X, IY], (0b110, 0b001), -1),
}


def test_three_qubit_code_table():
    for msg, (canon, alt, support, sign) in THREE_QUBIT_TABLE.items():
        assert encode_ghz(msg) == ps(canon, [1, 2])
        state = encoded_state(msg)
        expected = np.zeros(8, dtype=complex)
        expected[support[0]] = SQ2
        expected[support[1]] = sign * SQ2
        assert equal_up_to_global_phase(
            state, type(state)(3, expected), tol=1e-12
        )
        alt_state = apply_pauli_string(ghz_state(3), ps(alt, [1, 2]))
        assert equal_up_to_global_phase(state, alt_state, tol=1e-12)


# ---------------------------------------------------------------------------
# operator equivalence


def test_pauli_equivalent_examples():
    assert pauli_equivalent(ps([I, I], [1, 2]), ps([Z, Z], [1, 2]), 3)
    assert pauli_equivalent(ps([I, X], [1, 2]), ps([Z, IY], [1, 2]), 3)
    assert not pauli_equivalent(ps([I, I], [1, 2]), ps([Z, I], [1, 2]), 3)


def test_single_z_alternate_is_inequivalent():
    # Switching I -> Z on a single tail qubit has odd Z weight: the encoded
    # states are orthogonal, not equal.
    canonical = encode_ghz("10110")
    single_z = ps([Z, X, X, Z], [1, 2, 3, 4])
    double_swap = ps([Z, IY, IY, I], [1, 2, 3, 4])
    triple = ps([Z, IY, IY, Z], [1, 2, 3, 4])
    assert not pauli_equivalent(canonical, single_z, 5)
    assert pauli_equivalent(canonical, double_swap, 5)
    assert not pauli_equivalent(canonical, triple, 5)
    base = ghz_state(5)
    s_canon = apply_pauli_string(base, canonical)
    s_single = apply_pauli_string(base, single_z)
    assert abs(np.vdot(s_canon.amplitudes, s_single.amplitudes)) < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_equivalence_matches_state_equality_exhaustively(n):
    labels = [I, X, Z, IY]
    strings = [
        ps(combo, range(1, n))
        for combo in itertools.product(labels, repeat=n - 1)
    ]
    base = ghz_state(n)
    states = [apply_pauli_string(base, s) for s in strings]
    for (sa, a), (sb, b) in itertools.combinations(zip(strings, states), 2):
        assert pauli_equivalent(sa, sb, n) == equal_up_to_global_phase(a, b)


# ---------------------------------------------------------------------------
# GHZ decoding


def test_decode_table_row():
    amps = np.zeros(8, dtype=complex)
    amps[0b010] = SQ2
    amps[0b101] = -SQ2
    state = encoded_state("101")
    assert decode_ghz(state) == Message.from_string("101")


def test_decode_ghz_is_all_zero():
    for n in (2, 4, 6):
        assert decode_ghz(ghz_state(n)) == Message((0,) * n)


@pytest.mark.parametrize("method", ["circuit", "overlap"])
def test_decode_roundtrip_exhaustive_n6(method):
    for msg in all_bitstrings(6):
        assert decode_ghz(encoded_state(msg), method=method) == msg


def test_decode_no_match_on_corruption():
    corrupted = hadamard_on(encoded_state("000"), [1])
    with pytest.raises(NoMatchError) as info:
        decode_ghz(corrupted)
    assert info.value.best_overlap < 0.999999
    with pytest.raises(NoMatchError):
        decode_ghz(corrupted, method="overlap")


def test_decode_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown decode method 'guess'"):
        decode_ghz(ghz_state(2), method="guess")


# ---------------------------------------------------------------------------
# code basis / orthonormality


def test_code_basis_entry_count_and_gram():
    basis = ghz_code_basis(3)
    assert len(all_messages(3)) == 8
    assert np.max(np.abs(basis.states @ basis.states.T - np.eye(8))) < 1e-12


def test_orthonormality_report_n3():
    report = verify_code_orthonormality(3)
    assert report.dimension == 8
    assert report.residual() < 1e-12


def test_orthonormality_bell_basis():
    report = verify_code_orthonormality(2)
    assert report.residual() < 1e-12


def test_orthonormality_range_guard():
    with pytest.raises(ValueError):
        verify_code_orthonormality(1)
    with pytest.raises(ValueError):
        verify_code_orthonormality(11)


def test_full_basis_size_cap():
    with pytest.raises(ValueError):
        ghz_code_basis(11)
    with pytest.raises(ValueError):
        bell_code_basis(6)


def test_decode_bell_rejects_odd_register():
    with pytest.raises(ValueError):
        decode_bell(ghz_state(3))


def test_dnk_decode_rejects_wrong_register_size():
    with pytest.raises(ValueError, match="state has 4 qubits, layout expects 6"):
        dnk_decode(ghz_state(4), dnk_spec(6, 2))


# ---------------------------------------------------------------------------
# Bell-pair protocol


def test_encode_bell_examples():
    assert encode_bell("00") == [ps([I], [1])]
    assert encode_bell("0110") == [ps([X], [1]), ps([Z], [3])]
    assert encode_bell("1111") == [ps([IY], [1]), ps([IY], [3])]


def test_encode_bell_rejects_odd_length():
    with pytest.raises(ValueError):
        encode_bell("011")


def test_decode_bell_unencoded():
    assert decode_bell(bell_pairs_state(2)) == Message.from_string("0000")


def test_decode_bell_roundtrip_example():
    assert decode_bell(encoded_bell_state("1001")) == Message.from_string("1001")


def test_single_pair_label_map():
    # Per-pair enumeration: each label decodes to its two bits.
    for bits, label in [("00", I), ("01", X), ("10", Z), ("11", IY)]:
        state = apply_pauli_string(bell_pairs_state(1), ps([label], [1]))
        assert str(decode_bell(state)) == bits


def test_x_on_first_pair_of_two():
    state = apply_pauli_string(bell_pairs_state(2), ps([X], [1]))
    assert str(decode_bell(state)) == "0100"


@pytest.mark.parametrize("method", ["circuit", "overlap"])
def test_bell_roundtrip_exhaustive(method):
    for msg in all_bitstrings(6):
        assert decode_bell(encoded_bell_state(msg), method=method) == msg


def test_bell_code_basis_gram():
    states = bell_code_basis(2).states
    assert np.max(np.abs(states @ states.T - np.eye(16))) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_ghz_code_basis_rows_are_the_encoded_states(n):
    basis = ghz_code_basis(n)
    assert basis.states.dtype == np.float64
    assert not basis.states.flags.writeable
    for i, msg in enumerate(all_messages(n)):
        amps = encoded_state(msg).amplitudes
        assert int(str(msg), 2) == i
        assert not amps.imag.any()
        assert np.array_equal(basis.states[i], amps.real), str(msg)


@pytest.mark.parametrize("pairs", range(1, 5))
def test_bell_code_basis_rows_are_the_encoded_states(pairs):
    basis = bell_code_basis(pairs)
    assert basis.states.dtype == np.float64
    for i, msg in enumerate(all_messages(2 * pairs)):
        amps = encoded_bell_state(msg).amplitudes
        assert not amps.imag.any()
        assert np.array_equal(basis.states[i], amps.real), str(msg)


def test_dnk_encoded_state_is_a_validated_state():
    basis = ghz_code_basis(4)
    state = dnk_encoded_state("1011", basis.spec)
    assert isinstance(state, StateVector)
    assert state.amplitudes.dtype == complex
    assert not state.amplitudes.flags.writeable
    assert np.array_equal(state.amplitudes, encoded_state("1011").amplitudes)
    assert dnk_combined_string("1011", basis.spec) == encode_ghz("1011")


@pytest.mark.parametrize("msg", ["10", "101", "10110", (1, 0)])
def test_dnk_encoded_state_rejects_another_length(msg):
    with pytest.raises(ValueError, match=f"message has {len(msg)} bits, layout expects 4"):
        dnk_encoded_state(msg, ghz_code_basis(4).spec)


def test_gram_report_is_shared_by_every_basis():
    for basis in (ghz_code_basis(4), bell_code_basis(2), dnk_code_basis(6, 3)):
        report = dnk_gram_report(basis.spec.n_bits, basis.spec.n_senders)
        assert (report.n_bits, report.dimension) == (basis.n_qubits, 2**basis.n_qubits)
        assert report.residual() < 1e-12
    assert verify_code_orthonormality(5) == dnk_gram_report(5, 4)


@pytest.mark.parametrize("phase", [1j, -1j, np.exp(0.7j)])
def test_overlap_decode_accepts_complex_states(phase):
    """Code words are stored real; a complex global phase still decodes."""
    for msg in ("1011", "0110"):
        state = StateVector(4, phase * encoded_state(msg).amplitudes)
        assert decode_ghz(state, method="overlap") == Message.from_string(msg)
        bell = StateVector(4, phase * encoded_bell_state(msg).amplitudes)
        assert decode_bell(bell, method="overlap") == Message.from_string(msg)


# ---------------------------------------------------------------------------
# distributed layout


def test_dnk_spec_6_4():
    spec = dnk_spec(6, 4)
    assert spec.ghz_size == 4
    assert spec.bell_pairs == 1
    assert spec.bob_qubits == (4, 6)
    assert [s.qubits for s in spec.shares] == [(1,), (2,), (3,), (5,)]
    assert [s.bits for s in spec.shares] == [(1, 2), (3,), (4,), (5, 6)]


def test_dnk_spec_5_2():
    spec = dnk_spec(5, 2)
    assert spec.ghz_size == 3
    assert spec.bell_pairs == 1


def test_dnk_spec_4_1():
    spec = dnk_spec(4, 1)
    assert spec.ghz_size == 2
    assert spec.bell_pairs == 1
    # single sender holds every sender-side qubit
    assert spec.shares[0].qubits == (1, 3)
    assert spec.shares[0].bits == (1, 2, 3, 4)


def test_dnk_spec_rejects_bad_sender_count():
    with pytest.raises(ValueError):
        dnk_spec(4, 0)
    with pytest.raises(ValueError):
        dnk_spec(4, 4)


@pytest.mark.parametrize("n", range(2, 11))
def test_dnk_spec_invariants(n):
    for k in range(1, n):
        spec = dnk_spec(n, k)
        expected_size = max(2 if n % 2 == 0 else 3, 2 * (k + 1) - n)
        assert spec.ghz_size == expected_size
        assert spec.bell_pairs == (n - spec.ghz_size) // 2
        assert spec.n_qubits == n
        # every sender holds at least one qubit; bits cover 1..n exactly
        all_bits = [b for s in spec.shares for b in s.bits]
        assert sorted(all_bits) == list(range(1, n + 1))
        assert all(len(s.qubits) >= 1 for s in spec.shares)
        # receiver size: floor(n/2) up to k = n/2, then n - k
        expected_bob = n // 2 if k <= n / 2 else n - k
        assert len(spec.bob_qubits) == expected_bob
        # sender and receiver qubits partition the register
        assert sorted(spec.alice_qubits + spec.bob_qubits) == list(range(1, n + 1))


def test_dnk_spec_stores_its_blocks_and_derives_the_rest():
    assert [f.name for f in dataclasses.fields(DnkSpec)] == ["n_bits", "n_senders"]
    spec = dnk_spec(7, 3)
    assert repr(spec) == "DnkSpec(n_bits=7, n_senders=3)"
    assert spec.blocks == ((1, 2, 3), (4, 5), (6, 7))
    for name in ("ghz_size", "bell_pairs", "bob_qubits", "alice_qubits", "n_qubits", "support",
                 "sender_mask", "lead_mask", "block_masks", "blocks", "shares"):
        with pytest.raises(AttributeError):
            setattr(spec, name, 0)
    with pytest.raises(TypeError):
        DnkSpec(7, 3, spec.blocks, spec.shares)


def test_a_fresh_dnk_spec_holds_no_array_and_equals_the_cached_one():
    """A layout is its two numbers: construction sets Python facts only, and equality
    and hash go by (N, k), on every D(N <= 62, k)."""
    for n in range(2, 63):
        for k in range(1, n):
            spec = DnkSpec(n, k)
            assert not [name for name, value in vars(spec).items()
                        if isinstance(value, np.ndarray)], (n, k)
            assert spec == dnk_spec(n, k) and hash(spec) == hash(dnk_spec(n, k)), (n, k)
    spec = dnk_spec(7, 3)
    copy = dataclasses.replace(spec)
    assert copy == spec and copy is not spec and copy.shares == spec.shares


def test_coset_reps_builds_no_array_of_the_whole_register():
    """D(22, 11) keeps 2**11 representatives (16 KiB); filtering the 2**22 indices
    would peak at 36 MiB."""
    spec = DnkSpec(22, 11)
    tracemalloc.start()
    try:
        reps = spec.coset_reps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reps) == 2**11 and peak < 2**20, peak


@pytest.mark.parametrize("n", range(2, 25))
def test_dnk_spec_shares_carry_the_bits_of_their_qubits(n):
    """Party p holds the p-th run of sender qubits, sized as evenly as possible,
    and the message bits those qubits carry: q and q + 1 on a block's first
    qubit q, q + 1 on a later one."""
    for k in range(1, n):
        spec = dnk_spec(n, k)
        senders = [q for block in spec.blocks for q in block[:-1]]
        leads = {block[0] for block in spec.blocks}
        sizes = [len(senders) // k + (p < len(senders) % k) for p in range(k)]
        assert [len(share.qubits) for share in spec.shares] == sizes
        assert [q for share in spec.shares for q in share.qubits] == senders
        for p, share in enumerate(spec.shares, 1):
            assert share.party == p
            assert share.bits == tuple(b for q in share.qubits
                                       for b in ((q, q + 1) if q in leads else (q + 1,)))


def qubit_by_qubit_index_constants(spec):
    """The index constants by formulas that read them off the qubits one by one, and
    up to 16 bits the coset representatives by filtering every index."""
    n, b = spec.n_bits, len(spec.blocks)
    block_masks = np.array([sum(1 << (n - q) for q in block) for block in spec.blocks])
    lead_mask = sum(1 << (n - block[0]) for block in spec.blocks)
    support = ((np.arange(2**b)[:, None] >> np.arange(b - 1, -1, -1)) & 1) @ block_masks
    want = {
        "sender_mask": sum(1 << (n - q) for q in spec.alice_qubits),
        "lead_mask": lead_mask,
        "block_masks": block_masks,
        "support": support,
        "lead_support": support & lead_mask,
    }
    if n <= 16:  # 2**n indices
        want["coset_reps"] = np.flatnonzero((np.arange(2**n) & lead_mask) == 0)
    return want


@pytest.mark.parametrize("n", range(2, 25))
def test_dnk_spec_index_constants_read_off_the_blocks(n):
    """Each constant from the qubit strings, index bit n - q being character q - 1,
    and, dtype included, by the qubit-by-qubit formulas, on every D(N <= 24, k):
    encode's cap.  A fresh spec is read in both orders: the two int masks are set when
    it is built, and each array on first read."""
    def mask(qubits):
        return int("".join("1" if q in qubits else "0" for q in range(1, n + 1)), 2)

    for k in range(1, n):
        spec = dnk_spec(n, k)
        leads = [block[0] for block in spec.blocks]
        block_masks = [mask(block) for block in spec.blocks]
        unions = sorted(sum(m for m, on in zip(block_masks, pick) if on)
                        for pick in itertools.product((0, 1), repeat=len(spec.blocks)))
        assert spec.sender_mask == mask(spec.alice_qubits)
        assert spec.lead_mask == mask(leads)
        assert spec.block_masks.tolist() == block_masks
        assert spec.support.tolist() == unions
        assert spec.lead_support.tolist() == [u & mask(leads) for u in unions]
        if n <= 12:  # 2**n indices
            assert spec.coset_reps.tolist() == [
                i for i in range(2**n) if all(format(i, f"0{n}b")[q - 1] == "0" for q in leads)]

        want = qubit_by_qubit_index_constants(spec)
        for order in (list(want), list(reversed(want))):
            fresh = dataclasses.replace(spec)
            got = {name: getattr(fresh, name) for name in order}
            for name, value in want.items():
                if isinstance(value, np.ndarray):
                    assert got[name].dtype == value.dtype, (k, name)
                    assert got[name].tolist() == value.tolist(), (k, name)
                else:
                    assert type(got[name]) is type(value) and got[name] == value, (k, name)


@pytest.mark.parametrize("name", ["support", "lead_support", "block_masks", "coset_reps"])
def test_dnk_spec_index_arrays_are_read_only(name):
    """The cached spec is shared: no caller can change its arrays for the rest."""
    array = getattr(dnk_spec(4, 3), name)
    before = array.tolist()
    with pytest.raises(ValueError):
        array[1 if array.size > 1 else 0] = 0  # dnk_spec(4, 3).support[1] = 0, ...
    assert getattr(dnk_spec(4, 3), name).tolist() == before
    spec = dnk_spec(4, 3)
    assert dnk_decode(dnk_encoded_state("1011", spec), spec) == Message.from_string("1011")


def test_dnk_state_reductions():
    assert np.allclose(dnk_state(dnk_spec(4, 1)).amplitudes, bell_pairs_state(2).amplitudes)
    assert np.allclose(dnk_state(dnk_spec(3, 2)).amplitudes, ghz_state(3).amplitudes)
    assert np.allclose(
        dnk_state(dnk_spec(6, 4)).amplitudes,
        tensor_product(ghz_state(4), ghz_state(2)).amplitudes,
    )


def test_dnk_encode_3_2():
    spec = dnk_spec(3, 2)
    parties = dnk_encode("101", spec)
    assert parties[1] == ps([Z], [1])
    assert parties[2] == ps([X], [2])


def test_dnk_encode_4_1_identity():
    spec = dnk_spec(4, 1)
    parties = dnk_encode("0000", spec)
    assert parties[1] == ps([I, I], [1, 3])


def test_dnk_encode_6_4_generated_fixture():
    # Fixture produced by the segment map and cross-checked by roundtrip.
    spec = dnk_spec(6, 4)
    parties = dnk_encode("110100", spec)
    assert parties[1] == ps([IY], [1])
    assert parties[2] == ps([I], [2])
    assert parties[3] == ps([X], [3])
    assert parties[4] == ps([I], [5])
    state = dnk_encoded_state("110100", spec)
    assert dnk_decode(state, spec) == Message.from_string("110100")


@pytest.mark.parametrize("n", range(2, 9))
def test_dnk_encode_is_local(n):
    for k in range(1, n):
        spec = dnk_spec(n, k)
        for msg in (Message((0,) * n), Message((1,) * n), Message(tuple((i * 5 + 1) % 2 for i in range(n)))):
            for share in spec.shares:
                string = dnk_encode(msg, spec)[share.party]
                assert set(string.targets) <= set(share.qubits)


@pytest.mark.parametrize("n", range(2, 7))
def test_dnk_roundtrip_exhaustive_small(n):
    for k in range(1, n):
        spec = dnk_spec(n, k)
        for msg in all_bitstrings(n):
            assert dnk_decode(dnk_encoded_state(msg, spec), spec) == msg


def test_dnk_decode_unencoded_is_zero():
    spec = dnk_spec(6, 3)
    assert dnk_decode(dnk_state(spec), spec) == Message((0,) * 6)


def test_dnk_receiver_z_corrupts_one_segment():
    # A Z on a receiver-held qubit flips the phase bit of that block only.
    spec = dnk_spec(6, 4)
    msg = Message.from_string("010011")
    state = dnk_encoded_state(msg, spec)
    tampered = apply_pauli_string(state, ps([Z], [spec.bob_qubits[0]]))
    decoded = dnk_decode(tampered, spec)
    assert decoded != msg
    diff = [i for i in range(6) if decoded.bits[i] != msg.bits[i]]
    assert diff == [0]  # phase bit of the GHZ block


def test_dnk_decode_flags_corrupted_block():
    spec = dnk_spec(6, 4)
    state = dnk_encoded_state("010011", spec)
    corrupted = hadamard_on(state, [5])  # pair 1 sender half
    with pytest.raises(NoMatchError) as info:
        dnk_decode(corrupted, spec)
    assert "pair1" in info.value.blocks
    assert "ghz" not in info.value.blocks


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 1)])
def test_dnk_circuit_matches_overlap(n, k):
    spec = dnk_spec(n, k)
    for msg in all_bitstrings(n):
        state = dnk_encoded_state(msg, spec)
        assert dnk_decode(state, spec, method="circuit") == dnk_decode(
            state, spec, method="overlap"
        )


@pytest.mark.parametrize("n", range(2, 9))
def test_dnk_capacity_and_bob_marginal(n):
    for k in range(1, n):
        spec = dnk_spec(n, k)
        state = dnk_state(spec)
        assert capacity(state, spec.alice_qubits) == pytest.approx(n, abs=1e-9)
        rho = reduced_density(state, spec.bob_qubits)
        dim = 2 ** len(spec.bob_qubits)
        assert np.max(np.abs(rho.matrix - np.eye(dim) / dim)) < 1e-9


# ---------------------------------------------------------------------------
# one layout core: GHZ = D(N, N-1), Bell = D(2P, 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_party_strings_applied_one_at_a_time_give_the_encoded_state(n):
    """Each sender applying its own operator in turn gives, bit for bit, the
    state built by applying the combined string once."""
    for k in range(1, n):
        spec = dnk_spec(n, k)
        for msg in all_bitstrings(n):
            state = dnk_state(spec)
            for string in dnk_encode(msg, spec).values():
                state = apply_pauli_string(state, string)
            assert np.array_equal(
                state.amplitudes, dnk_encoded_state(msg, spec).amplitudes
            ), (n, k, str(msg))


def string_masks(msg, spec):
    """X- and Z-masks of ``msg``'s party strings, read label by label."""
    x = z = 0
    for string in dnk_encode(msg, spec).values():
        for label, q in zip(string.labels, string.targets):
            lx, lz = label.bits
            x |= lx << (spec.n_bits - q)
            z |= lz << (spec.n_bits - q)
    return x, z


@pytest.mark.parametrize("n", range(2, 11))
def test_closed_form_masks_match_the_encoding_strings(n):
    for k in range(1, n):
        spec = dnk_spec(n, k)
        xmask, zmask = _word_masks(spec, np.arange(2**n))
        for i, msg in enumerate(all_messages(n)):
            assert (xmask[i], zmask[i]) == string_masks(msg, spec), (n, k, str(msg))


@pytest.mark.parametrize("k", [58, 61])
def test_index_path_holds_62_bit_layouts(k):
    """At 62 bits, i << 1 of the largest index still fits in int64."""
    spec = dnk_spec(62, k)
    msgs = np.array([2**62 - 1, 2**61, 1, int("10" * 31, 2), 0])
    xmask, zmask = _word_masks(spec, msgs)
    for i, msg in enumerate(msgs.tolist()):
        assert (xmask[i], zmask[i]) == string_masks(format(msg, "062b"), spec), (k, msg)
    cols, _ = dnk_word_support(msgs, spec)
    assert np.array_equal(cols, np.sort(spec.support ^ xmask[:, None], axis=1))


@pytest.mark.parametrize("n", [63, 64])
def test_index_path_refuses_layouts_over_62_bits(n):
    """At 63 bits i << 1 would wrap in int64, at 64 the masks would overflow it; symbolic
    encoding builds no index array and keeps long layouts."""
    spec = dnk_spec(n, n - 1)
    message = rf"int64 index arrays hold layouts of up to 62 bits, got {n}"
    with pytest.raises(ValueError, match=message):
        _word_masks(spec, np.array([1]))
    with pytest.raises(ValueError, match=message):
        dnk_word_support([1], spec)
    assert len(encode_ghz("1" * 100).labels) == 99
    assert len(dnk_encode("1" * 100, dnk_spec(100, 7))) == 7


@pytest.mark.parametrize("pairs", range(1, 6))
def test_bell_pairs_state_is_a_kron_of_bell_pairs(pairs):
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    expected = bell
    for _ in range(pairs - 1):
        expected = np.kron(expected, bell)
    assert np.array_equal(bell_pairs_state(pairs).amplitudes, expected)


def test_layout_blocks():
    assert dnk_spec(7, 3).blocks == ((1, 2, 3), (4, 5), (6, 7))
    assert dnk_spec(6, 4).blocks == ((1, 2, 3, 4), (5, 6))
    assert dnk_spec(5, 4).blocks == ((1, 2, 3, 4, 5),)
    assert dnk_spec(6, 1).blocks == ((1, 2), (3, 4), (5, 6))


def test_no_match_names_two_qubit_blocks_as_pairs():
    with pytest.raises(NoMatchError) as info:
        decode_bell(hadamard_on(bell_pairs_state(2), [1]))
    assert info.value.blocks == ("pair1",)
    with pytest.raises(NoMatchError) as info:
        decode_ghz(hadamard_on(ghz_state(2), [1]))
    assert info.value.blocks == ("pair1",)
    with pytest.raises(NoMatchError) as info:
        dnk_decode(hadamard_on(dnk_state(dnk_spec(4, 1)), [3]), dnk_spec(4, 1))
    assert info.value.blocks == ("pair2",)
    spec = dnk_spec(6, 4)
    with pytest.raises(NoMatchError) as info:
        dnk_decode(hadamard_on(dnk_encoded_state("010011", spec), [2]), spec)
    assert info.value.blocks == ("ghz",)


# ---------------------------------------------------------------------------
# The support kernel


def kron_of_blocks(spec):
    """The resource as the Kronecker product of one GHZ state per block."""
    first, *rest = spec.blocks
    state = ghz_state(len(first))
    for block in rest:
        state = tensor_product(state, ghz_state(len(block)))
    return state


@pytest.mark.parametrize("n", range(2, 13))
def test_dnk_state_is_bitwise_the_kron_of_its_blocks(n):
    for k in range(1, n):
        spec = dnk_spec(n, k)
        got, want = dnk_state(spec).amplitudes, kron_of_blocks(spec).amplitudes
        assert np.array_equal(got, want), (n, k)
        assert np.count_nonzero(got) == 2 ** len(spec.blocks)


@pytest.mark.parametrize("n,k", [(16, 3), (18, 17), (20, 9)])
def test_large_encoded_states_are_bitwise_the_pauli_string_on_the_kron(n, k):
    spec = dnk_spec(n, k)
    msg = "".join(str((7 * i + n) % 3 % 2) for i in range(n))
    want = apply_pauli_string(kron_of_blocks(spec), dnk_combined_string(msg, spec))
    state = dnk_encoded_state(msg, spec)
    assert np.array_equal(state.amplitudes, want.amplitudes)
    assert str(dnk_decode(state, spec)) == msg


@pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (6, 1), (8, 3), (9, 8), (10, 4)])
def test_circuit_outputs_are_bitwise_equal_from_every_member_of_a_coset(n, k):
    spec = dnk_spec(n, k)
    reps, support = spec.coset_reps, spec.support
    rng = np.random.default_rng(n * 10 + k)
    for _ in range(5):
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        base = _circuit_outputs(amps[reps[:, None] ^ support], spec)
        for offset in support:
            assert np.array_equal(_circuit_outputs(amps[(reps ^ offset)[:, None] ^ support], spec),
                                  base)


def test_batched_roundtrip_of_every_message():
    for n, k in [(6, 1), (7, 3), (9, 8), (12, 5)]:
        spec = dnk_spec(n, k)
        words = dnk_code_words(np.arange(2**n), spec)
        decoded = [dnk_decode(StateVector(n, w), spec) for w in words]
        assert [int(str(m), 2) for m in decoded] == list(range(2**n))


def invert_block_bits(z):
    """Message bits of one block from its disentangled computational bits."""
    return [z[0], z[-1]] + [z[j] ^ z[-1] for j in range(1, len(z) - 1)]


def reference_message_at(s, a, spec):
    """The message at circuit output a of the coset of s, one bit at a time: block j's
    fan-out adds its lead to its other bits, its Hadamard puts a's bit j (from the top)
    on it."""
    z = format(s, f"0{spec.n_qubits}b")  # z[q - 1] is qubit q
    bits = []
    for (lead, *rest), a_j in zip(spec.blocks, format(a, f"0{len(spec.blocks)}b")):
        bits += invert_block_bits([a_j == "1"] + [z[q - 1] != z[lead - 1] for q in rest])
    return Message(tuple(bits))


@pytest.mark.parametrize("n", range(2, 9))
def test_message_indices_match_the_bit_by_bit_reference_on_every_output(n):
    for k in range(1, n):
        spec = dnk_spec(n, k)
        s, a = (g.ravel() for g in np.meshgrid(
            np.arange(2**n), np.arange(2 ** len(spec.blocks)), indexing="ij"))
        want = [int(str(reference_message_at(si, ai, spec)), 2)
                for si, ai in zip(s.tolist(), a.tolist())]
        assert _message_indices(s, a, spec).tolist() == want


@pytest.mark.parametrize("n", range(2, 11))
def test_decode_of_every_message_matches_the_reference(n):
    for k in range(1, n):
        spec = dnk_spec(n, k)
        words = dnk_code_words(np.arange(2**n), spec)
        s = np.abs(words).argmax(axis=1)
        a = _circuit_outputs(words[np.arange(2**n)[:, None], s[:, None] ^ spec.support],
                             spec).argmax(axis=1)
        want = [reference_message_at(si, ai, spec) for si, ai in zip(s.tolist(), a.tolist())]
        assert [int(str(m), 2) for m in want] == list(range(2**n))
        assert [dnk_decode(StateVector(n, w), spec) for w in words] == want


def assert_decodes_as_from_the_argmax(states, spec):
    """Each state decodes, to a message or a ``NoMatchError``, as from argmax |psi|."""
    for state in states:
        want = decode_outcome(state, spec, "reference")
        assert decode_outcome(state, spec) == want, (spec, want)


@pytest.mark.parametrize("n", range(15, 21))
def test_code_words_of_many_chunks_decode_as_from_the_argmax(n):
    """Code words of D(N, k) under a random phase, N = 15..20: 2 to 64 chunks, from a
    writeable and from a read-only input."""
    rng = np.random.default_rng(2901 + n)
    for k in sorted({1, n // 2, n - 1}):
        spec = dnk_spec(n, k)
        msgs = rng.choice(2**n, 2, replace=False)
        for msg, word in zip(msgs.tolist(), dnk_code_words(msgs, spec)):
            amps = word * np.exp(2j * np.pi * rng.random())
            states = [StateVector(n, amps)]
            amps.flags.writeable = False
            states.append(StateVector(n, amps))
            assert_decodes_as_from_the_argmax(states, spec)
            assert {decode_outcome(state, spec) for state in states} == {
                format(msg, f"0{n}b")}


def lone_amplitude_states(n, rng):
    """States of n qubits with one large amplitude at CHUNK - 1, CHUNK or the last
    index, over a background of 0, 1e-6 or 2e-3 (around ``_ON_COSET``) per entry,
    under random phases: the start is the background's first entry or the lone one."""
    size = 2**n
    for at in (CHUNK - 1, CHUNK, size - 1):
        for background in (0.0, 1e-6, 2e-3):
            amps = background * np.exp(2j * np.pi * rng.random(size))
            amps[at] = 0.0
            amps[at] = math.sqrt(1 - np.sum(np.abs(amps) ** 2)) * np.exp(2j * np.pi * rng.random())
            yield StateVector(n, amps)


def test_a_lone_amplitude_decodes_as_from_the_argmax():
    rng = np.random.default_rng(2902)
    states = list(lone_amplitude_states(17, rng))
    for k in (1, 8, 16):
        assert_decodes_as_from_the_argmax(states, dnk_spec(17, k))


def test_a_start_under_on_coset_decodes_from_the_argmax():
    """A code word of D(17, k) with a small amplitude at index 0, off its coset: the
    start, which is tried only from ``_ON_COSET`` on.  Under it, at 1e-7 and 2.7e-3,
    the decode starts from the argmax; above it, at 2.8e-3, from the start, whose
    coset fails.  Also the largest magnitude 0.2 in the first chunk, with the rest of
    the weight spread thin over chunk 5, which no coset decodes."""
    rng = np.random.default_rng(2903)
    for k in (1, 8, 16):
        spec = dnk_spec(17, k)
        msgs = rng.choice(np.arange(1, 2**17), 3, replace=False)
        states = []
        for word in dnk_code_words(msgs, spec) * np.exp(2j * np.pi * rng.random(3))[:, None]:
            assert word[0] == 0
            for eps in (1e-7, 2.7e-3, 2.8e-3):
                amps = word.copy()
                amps[0] = eps
                states.append(StateVector(17, unit(amps)))
                assert states[-1]._start == 0
        assert_decodes_as_from_the_argmax(states, spec)
        assert [isinstance(decode_outcome(s, spec), str) for s in states] == [
            True, False, False] * 3
    amps = np.zeros(2**17, dtype=complex)
    amps[7] = 0.2j
    amps[5 * CHUNK:6 * CHUNK] = math.sqrt((1 - 0.04) / CHUNK)
    state = StateVector(17, amps)
    for k in (1, 8, 16):
        assert_decodes_as_from_the_argmax([state], dnk_spec(17, k))
        assert not isinstance(decode_outcome(state, dnk_spec(17, k)), str)


def test_on_coset_lies_between_the_off_coset_and_on_coset_bounds():
    """``_ON_COSET`` is T 2**-8.5: at most the least largest amplitude of a coset that
    decodes, T 2**(-B/2) for B <= 17, and above the most an amplitude off it can hold."""
    T = OVERLAP_THRESHOLD
    assert _ON_COSET == T * 2**-8.5 and 2.76e-3 < _ON_COSET < 2.77e-3
    assert math.sqrt(1 + 1e-9 - T**2) < 1.42e-3 < _ON_COSET <= T * 2 ** (-17 / 2)


def unit(amps):
    return amps / np.linalg.norm(amps)


def near_threshold_states(spec, rng):
    """Seeded states of a layout around the decode threshold: a code word under a
    random phase plus noise of norm 1e-4 to 1e-2; two words mixed at t = 0.999 and
    0.9999995; the word with its first amplitude off the coset, the state's start when
    it lies before the word's first entry, bumped to 1e-3, 1.4e-3, 1.5e-3, 2.7e-3, 2.8e-3, 2.9e-3 (around
    ``_ON_COSET`` and 2 sqrt(1 - T**2), the bound below it) or 3e-3, and one to 3e-3 at
    a random place off the coset; and a Haar state."""
    n = spec.n_qubits
    words = dnk_code_words(rng.choice(2**n, 3, replace=False), spec)
    w0, w1, w2 = words * np.exp(2j * np.pi * rng.random(3))[:, None]
    complex_normal = lambda: rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    for eps in (1e-4, 1e-3, 1.4e-3, 1e-2):
        yield unit(w0 + eps * unit(complex_normal()))
    for t in (0.999, 0.9999995):
        yield unit(t * w1 + math.sqrt(1 - t**2) * w2)
    off = np.flatnonzero(words[0] == 0)
    bumps = [(off[0], eps) for eps in (1e-3, 1.4e-3, 1.5e-3, 2.7e-3, 2.8e-3, 2.9e-3, 3e-3)]
    bumps.append((rng.choice(off), 3e-3))
    for at, eps in bumps:
        bumped = w0.copy()
        bumped[at] = eps * np.exp(2j * np.pi * rng.random())
        yield unit(bumped)
    yield unit(complex_normal())


def reference_decode(state, spec):
    """The circuit decode from s = argmax |psi| over the whole register: the coset of
    s, and ``_no_match`` when its best output is under the threshold."""
    amps = state.amplitudes
    s = np.array([np.abs(amps).argmax()])
    msgs, best = _coset_indices(s, amps[s[:, None] ^ spec.support], spec)
    if not best[0] >= OVERLAP_THRESHOLD:
        coding._no_match(amps, spec)
    return Message.from_string(format(int(msgs[0]), f"0{state.n_qubits}b"))


def decode_outcome(state, spec, method="circuit"):
    """The message, or the ``NoMatchError``'s text, best overlap and blocks."""
    try:
        if method == "reference":
            return str(reference_decode(state, spec))
        return str(dnk_decode(state, spec, method))
    except NoMatchError as err:
        return str(err), err.best_overlap, err.blocks


@pytest.mark.parametrize("n", range(2, 19))
def test_decode_from_the_start_is_the_full_argmax_decode_on_near_threshold_states(n):
    """Against the decode from argmax |psi| byte for byte, and up to 10 qubits against
    the overlap decode, an independent path.  Every layout up to 14 qubits; above,
    Bell pairs only, a mixed layout and one GHZ block, as ``tools/digest.py`` decodes
    every layout."""
    rng = np.random.default_rng(2300 + n)
    for k in range(1, n) if n <= 14 else (1, 3 * n // 4, n - 1):
        spec = dnk_spec(n, k)
        states = [StateVector(n, amps) for amps in near_threshold_states(spec, rng)]
        got = [decode_outcome(state, spec) for state in states]
        assert [decode_outcome(state, spec, "reference") for state in states] == got, (n, k)
        if n <= 10:
            for state, outcome in zip(states, got):
                want = decode_outcome(state, spec, "overlap")
                if isinstance(want, str):
                    assert outcome == want, (n, k)
                else:
                    assert not isinstance(outcome, str), (n, k)
                    assert abs(outcome[1] - want[1]) <= 1e-12, (n, k)
    assert {isinstance(outcome, str) for outcome in got} == {True, False}


@pytest.mark.parametrize("n", [16, 17, 18])
def test_decode_reads_a_fresh_copy_in_place_as_it_reads_amplitudes(n):
    """Code words under a random phase, near-threshold states and a basis state, whose
    coset reaches into dead chunks, of three layouts, decoded fresh, with 1.0 written
    into the dead chunks the state left unwritten, and after a first read of
    ``amplitudes``: the same message or ``NoMatchError``.  The decode of a code word
    reads no dead chunk and builds no ``amplitudes``."""
    rng = np.random.default_rng(3900 + n)
    dead = 0
    for k in (1, n // 2, n - 1):
        spec = dnk_spec(n, k)
        words = dnk_code_words(rng.choice(2**n, 3, replace=False), spec)
        words = words * np.exp(2j * np.pi * rng.random(3))[:, None]
        basis = np.zeros(2**n)
        basis[rng.integers(2**n)] = 1.0
        for i, amps in enumerate([*words, *near_threshold_states(spec, rng), basis]):
            amps = np.where(amps == 0, 0.0, amps)  # +0.0, as a receiver writes only the rest
            fresh = StateVector(n, amps)
            chunks = fresh._dead
            dead += len(chunks)
            for c in chunks:
                fresh._copy[c * CHUNK:(c + 1) * CHUNK] = 1.0
            got = decode_outcome(fresh, spec)
            if i < len(words):  # decoded with the dead chunks left as they were
                assert isinstance(got, str) and fresh._dead == chunks, (k, i)
            read_first = StateVector(n, amps)
            read_first.amplitudes
            assert decode_outcome(read_first, spec) == got, (k, i)
    assert dead


def test_decode_of_an_18_qubit_word_allocates_no_register_sized_array():
    """|psi| of 2**18 amplitudes would take 2 MiB; the decode reads one coset."""
    spec = dnk_spec(18, 17)
    state = dnk_encoded_state("10" * 9, spec)
    dnk_decode(state, spec)  # fills the layout's cached index arrays first
    tracemalloc.start()
    try:
        assert str(dnk_decode(state, spec)) == "10" * 9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16 + 2**12, peak


@pytest.mark.parametrize("n", range(2, 21))
def test_word_support_is_the_sorted_coset_bitwise(n):
    """The closed-form columns are the sorted coset support ^ x, and the values
    are read at those sorted columns, for every message up to 6 bits and 64 seeded
    messages above."""
    rng = np.random.default_rng(1800 + n)
    for k in range(1, n):
        spec = dnk_spec(n, k)
        msgs = np.arange(2**n) if n <= 6 else rng.choice(2**n, 64, replace=False)
        x, z = _word_masks(spec, msgs)
        want = np.sort(spec.support ^ x[:, None], axis=1)
        amp = math.prod([SQ2] * len(spec.blocks))
        want_vals = np.array([amp, -amp])[_parity(want & z[:, None])]
        cols, vals = dnk_word_support(msgs, spec)
        assert cols.dtype == want.dtype and np.array_equal(cols, want), (n, k)
        assert vals.dtype == want_vals.dtype and np.array_equal(vals, want_vals), (n, k)


@pytest.mark.parametrize("n", range(2, 13))
def test_support_roundtrip_is_bitwise_the_dense_decode(n):
    """The audit decodes each word from its support, s = its smallest column and
    t = its values; the dense decode gathers s = argmax |row| and t = row[s ^ support]."""
    rng = np.random.default_rng(1700 + n)
    for k in range(1, n):
        spec = dnk_spec(n, k)
        msgs = np.arange(2**n) if n <= 10 else np.sort(rng.choice(2**n, 64, replace=False))
        cols, vals = dnk_word_support(msgs, spec)
        got, got_best = _coset_indices(cols[:, 0], vals, spec)
        words = dnk_code_words(msgs, spec)
        s = np.abs(words).argmax(axis=1)
        t = words[np.arange(len(msgs))[:, None], s[:, None] ^ spec.support]
        assert np.array_equal(cols[:, 0], s) and np.array_equal(vals, t), (n, k)
        want, want_best = _coset_indices(s, t, spec)
        assert np.array_equal(got, want) and np.array_equal(got_best, want_best), (n, k)
        dense = [int(str(dnk_decode(StateVector(n, w), spec)), 2) for w in words]
        assert dense == got.tolist(), (n, k)
        assert got.tolist() == msgs.tolist()


def reference_circuit(state, spec):
    """The disentangling circuit on the whole register, one CNOT flip and one
    Hadamard stack at a time: (best |amplitude|, its index, the suspect blocks)."""
    n = state.n_qubits
    t = state.tensor().copy()
    for block in spec.blocks:
        control = block[0] - 1
        for q in block[1:]:
            sl = [slice(None)] * n
            sl[control] = 1
            target = q - 1 - (1 if q - 1 > control else 0)
            t[tuple(sl)] = np.flip(t[tuple(sl)], axis=target).copy()
        lo, hi = np.take(t, 0, axis=control), np.take(t, 1, axis=control)
        t = np.stack((lo + hi, lo - hi), axis=control) / np.sqrt(2.0)
    flat = np.abs(t.reshape(-1))
    probs = np.abs(t) ** 2
    suspects, pairs = [], 0
    for block in spec.blocks:
        pairs += len(block) == 2
        other = tuple(ax for ax in range(n) if ax + 1 not in block)
        if float(probs.sum(axis=other).max()) < 0.999999**2:
            suspects.append("ghz" if len(block) > 2 else f"pair{pairs}")
    return float(flat.max()), int(flat.argmax()), tuple(suspects)


@pytest.mark.parametrize("n", range(2, 9))
def test_decode_failures_match_the_reference_circuit_bitwise(n):
    rng = np.random.default_rng(n)
    for k in range(1, n):
        spec = dnk_spec(n, k)
        for trial in range(6):
            word = dnk_encoded_state(format(int(rng.integers(2**n)), f"0{n}b"), spec)
            if trial % 2:
                amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
                state = StateVector(n, amps / np.linalg.norm(amps))
            else:
                state = hadamard_on(word, [int(rng.integers(1, n + 1))])
            best, _, suspects = reference_circuit(state, spec)
            with pytest.raises(NoMatchError) as info:
                dnk_decode(state, spec)
            assert info.value.best_overlap == best
            assert info.value.blocks == suspects
            assert f"(best overlap {best:.6f}; " in str(info.value)


# ---------------------------------------------------------------------------
# the Gram check on coset blocks, against the dense product


def dense_gram_residuals(words):
    """(max off-diagonal, max diagonal deviation) of the dense Gram product."""
    gram = words @ words.T
    deviation = float(np.max(np.abs(np.diag(gram) - 1.0)))
    np.fill_diagonal(gram, 0.0)
    return float(np.max(np.abs(gram))), deviation


@pytest.mark.parametrize("n", range(2, 11))
def test_coset_block_gram_report_matches_the_dense_product(n):
    for k in range(1, n):
        report = dnk_gram_report(n, k)
        off, deviation = dense_gram_residuals(dnk_code_basis(n, k).states)
        assert (report.n_bits, report.dimension) == (n, 2**n)
        assert abs(report.max_off_diagonal - off) <= 1e-15, (n, k)
        assert abs(report.max_diagonal_deviation - deviation) <= 1e-15, (n, k)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (6, 1), (8, 3), (10, 9), (10, 1)])
@pytest.mark.parametrize("repeated", [1, -1])
def test_gram_report_sees_an_encoder_that_repeats_a_word(monkeypatch, n, k, repeated):
    """Message 1 (or the last message) gets message 0's masks: one coset then
    holds 2**B + 1 words, the repeat first after message 0 (or last of all)."""
    masks = coding._word_masks
    repeated %= 2**n
    monkeypatch.setattr(coding, "_word_masks",
                        lambda spec, msgs: masks(spec, np.where(msgs == repeated, 0, msgs)))
    spec = dnk_spec(n, k)
    words = dnk_code_words(np.arange(2**n), spec)
    smallest = np.array([np.flatnonzero(row)[0] for row in words])
    counts = np.unique(smallest, return_counts=True)[1]
    assert (counts.min(), counts.max()) == (2 ** len(spec.blocks) - 1, 2 ** len(spec.blocks) + 1)
    report = dnk_gram_report(n, k)
    off, deviation = dense_gram_residuals(words)
    assert abs(report.max_off_diagonal - 1.0) <= 1e-12
    assert abs(report.max_off_diagonal - off) <= 1e-15
    assert abs(report.max_diagonal_deviation - deviation) <= 1e-15


@pytest.mark.parametrize("n", [1, 11])
def test_gram_report_keeps_the_basis_range(n):
    message = rf"full code bases are supported for 2\.\.10 bits, got {n}"
    with pytest.raises(ValueError, match=message):
        dnk_gram_report(n, 1)
    with pytest.raises(ValueError, match=message):
        verify_code_orthonormality(n)


@pytest.mark.parametrize("n", [2, 5, 9, 14])
def test_kernel_states_are_bitwise_the_validated_construction(n):
    for k in range(1, n):
        spec = dnk_spec(n, k)
        idx = (5 * n + 3 * k) % 2**n
        for state, row in ((dnk_state(spec), 0),
                           (dnk_encoded_state(format(idx, f"0{n}b"), spec), idx)):
            want = StateVector(n, dnk_code_words([row], spec)[0])
            assert state.n_qubits == n
            assert state.amplitudes.dtype == want.amplitudes.dtype
            assert np.array_equal(state.amplitudes, want.amplitudes)
            assert not state.amplitudes.flags.writeable


# ---------------------------------------------------------------------------
# The library audit


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("seed", [0, 2**63 - 1])
def test_layout_audit_is_the_dense_oracles(n, seed):
    """On every D(n, k): the optimality report of the dense resource, field for field
    with ``==``; the every-side verdicts; the dense Gram check; and the overlap decode
    of every checked message, each its own."""
    for k in range(1, n):
        spec = dnk_spec(n, k)
        audit = layout_audit(spec, seed)
        state = dnk_state(spec)
        assert audit.optimality == optimality_report(state, spec.alice_qubits), (n, k)
        ame, gme = entanglement_verdicts(state)
        assert (audit.ame, audit.gme) == (ame.is_ame, gme), (n, k)
        assert abs(audit.ame_residual - ame.max_residual) <= 1e-15, (n, k)
        assert audit.gram == dnk_gram_report(n, k), (n, k)
        picks = range(2**n) if n <= 6 else coding._roundtrip_picks(seed, n).tolist()
        basis = dnk_code_basis(n, k)
        decoded = [int(str(dnk_decode(StateVector(n, basis.states[m]), spec, "overlap")), 2)
                   for m in picks]
        assert decoded == list(picks), (n, k)
        assert (audit.messages_checked, audit.failures) == (len(picks), 0), (n, k)
