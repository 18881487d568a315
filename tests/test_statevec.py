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
    inner_product,
    measure_qubits,
    permute_qubits,
    tensor_product,
)

SQ2 = 1.0 / np.sqrt(2.0)


def random_state(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, v / np.linalg.norm(v))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_statevector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, [bad, 0])


def test_statevector_amplitudes_are_read_only():
    s = ghz_state(2)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_pauli_string_rejects_duplicate_targets():
    with pytest.raises(ValueError):
        PauliString((PauliLabel.X, PauliLabel.Z), (1, 1))


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
