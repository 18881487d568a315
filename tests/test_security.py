import itertools
import json
import math
import time

import numpy as np
import pytest

from densecode import (
    CheckBasis,
    EveAttack,
    Message,
    ParityClass,
    PauliLabel,
    PauliString,
    StateVector,
    apply_eve,
    apply_pauli_string,
    apply_two_qubit,
    basis_ket,
    detection_probability,
    detection_report,
    encoded_state,
    ghz_state,
    hadamard_on,
    parity_class,
    pm_support,
    reduced_density,
    security_simulation,
    tensor_product,
    undetectable_certificate,
)
from densecode import security, statevec
from densecode.cli import main
from densecode.security import round_consistent

SQ2 = 1.0 / np.sqrt(2.0)


def hoeffding(rounds, delta=1e-9):
    """Half-width within which the rate of ``rounds`` Bernoulli draws lies
    around its mean, except with probability ``delta``."""
    return math.sqrt(math.log(2 / delta) / (2 * rounds))


def haar_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ancilla_local_attack(rng):
    """Identity on the receiver qubit times a random ancilla unitary."""
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return EveAttack(phase * np.kron(np.eye(2), haar_unitary(2, rng)))


def controlled_phase_attack(phi):
    return EveAttack(np.diag([1, 1, np.exp(1j * phi), np.exp(1j * phi)]))


def detection_oracle(state, n_protocol):
    """Independent enumeration: raw numpy, no library calls."""
    amps = np.asarray(state.amplitudes)
    n_total = state.n_qubits
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    # computational branch
    p = (np.abs(amps) ** 2).reshape(2**n_protocol, -1).sum(axis=1)
    inc1 = sum(p[m] for m in range(2**n_protocol) if m not in (0, 2**n_protocol - 1))
    # hadamard branch
    t = amps.reshape((2,) * n_total)
    for q in range(n_protocol):
        t = np.moveaxis(np.tensordot(h, np.moveaxis(t, q, 0), axes=([1], [0])), 0, q)
    p2 = (np.abs(t.reshape(2**n_protocol, -1)) ** 2).sum(axis=1)
    inc2 = sum(p2[m] for m in range(2**n_protocol) if bin(m).count("1") % 2 == 1)
    return (inc1 + inc2) / 2


# ---------------------------------------------------------------------------
# parity structure


def test_pm_support_bell():
    support = pm_support(ghz_state(2))
    assert support == [(0b00, pytest.approx(SQ2)), (0b11, pytest.approx(SQ2))]


def test_pm_support_ghz3():
    support = pm_support(ghz_state(3))
    assert [m for m, _ in support] == [0b000, 0b011, 0b101, 0b110]
    assert all(a == pytest.approx(0.5) for _, a in support)


def test_pm_support_single_zero():
    support = pm_support(basis_ket(1, 0))
    assert [m for m, _ in support] == [0, 1]
    assert all(abs(a - SQ2) < 1e-12 for _, a in support)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_ghz_is_even_class(n):
    assert parity_class(ghz_state(n)) is ParityClass.EVEN_GHZ


def test_z_flips_parity_class():
    # Oracle: the +/- amplitudes computed with an explicit Hadamard kron.
    n = 4
    state = apply_pauli_string(ghz_state(n), PauliString((PauliLabel.Z,), (1,)))
    h1 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    hn = h1
    for _ in range(n - 1):
        hn = np.kron(hn, h1)
    pm_amps = hn @ state.amplitudes
    for m, a in enumerate(pm_amps):
        if abs(a) > 1e-12:
            assert bin(m).count("1") % 2 == 1
    assert parity_class(state) is ParityClass.ODD_GHZ


def test_product_state_is_neither():
    assert parity_class(basis_ket(2, 0)) is ParityClass.NEITHER


@pytest.mark.parametrize("n", range(2, 7))
def test_parity_class_of_codewords_tracks_first_bit(n):
    for bits in itertools.product((0, 1), repeat=n):
        cls = parity_class(encoded_state(Message(bits)))
        expected = ParityClass.ODD_GHZ if bits[0] else ParityClass.EVEN_GHZ
        assert cls is expected


# ---------------------------------------------------------------------------
# check rounds


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("basis", [CheckBasis.COMPUTATIONAL, CheckBasis.HADAMARD])
def test_round_consistent_array_matches_scalar_rule(n, basis):
    # Reference: the rule written out per outcome with Python ints.
    expected = []
    for outcome in range(2**n):
        bob, alice = outcome & 1, outcome >> 1
        if basis is CheckBasis.COMPUTATIONAL:
            expected.append((alice, bob) in ((0, 0), (2 ** (n - 1) - 1, 1)))
        else:
            expected.append(bin(alice).count("1") % 2 == bob)
    assert round_consistent(basis, np.arange(2**n), n).tolist() == expected
    assert [bool(round_consistent(basis, o, n)) for o in range(2**n)] == expected


@pytest.mark.parametrize("n", range(2, 13))
def test_exact_scores_are_the_sums_over_inconsistent_outcomes(n):
    # detection_report's masks and round_consistent are one rule: on any
    # distribution, the exact score is the sum over the outcomes the rule fails.
    rng = np.random.default_rng(4500 + n)
    fails = {basis: ~round_consistent(basis, np.arange(2**n), n) for basis in CheckBasis}
    for _ in range(20):
        p_comp, p_had = rng.dirichlet(np.ones(2**n), size=2)
        report = security._score_marginals(p_comp, p_had)
        comp_fail, had_fail = fails[CheckBasis.COMPUTATIONAL], fails[CheckBasis.HADAMARD]
        assert report.computational_inconsistency == float(p_comp[comp_fail].sum())
        assert report.hadamard_inconsistency == float(p_had[had_fail].sum())


# ---------------------------------------------------------------------------
# attack application


def test_identity_attack_appends_ancilla():
    out = apply_eve(ghz_state(3), EveAttack.identity())
    expected = tensor_product(ghz_state(3), basis_ket(1, 0))
    assert np.allclose(out.amplitudes, expected.amplitudes)


@pytest.mark.parametrize("n", [2, 4])
def test_cnot_attack_extends_ghz(n):
    out = apply_eve(ghz_state(n), EveAttack.cnot())
    assert np.allclose(out.amplitudes, ghz_state(n + 1).amplitudes)


def test_bitflip_attack_breaks_correlation():
    # X on the receiver qubit: support appears at (senders all-0, receiver 1).
    atk = EveAttack(np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)))
    out = apply_eve(ghz_state(3), atk)
    idx = 0b0010  # alice 00, bob 1, ancilla 0
    assert abs(out.amplitudes[idx]) > 0.5


def reference_apply_eve(state, atk):
    """The attack as the general two-qubit gate on the register extended by
    a |0> ancilla."""
    n = state.n_qubits
    return apply_two_qubit(tensor_product(state, basis_ket(1, 0)), atk.unitary, (n, n + 1))


def assert_bitwise_equal(got, want):
    assert np.array_equal(got.amplitudes.view(np.int64), want.amplitudes.view(np.int64))


@pytest.mark.parametrize("n", range(1, 9))
def test_apply_eve_is_bitwise_the_two_qubit_gate_on_haar_attacks(n):
    # The product's operand order is pinned: the transposed one,
    # amplitudes.reshape(-1, 4) @ U.T, differs in the last bit on some states.
    rng = np.random.default_rng(4300 + n)
    for _ in range(40):
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state, atk = StateVector(n, v / np.linalg.norm(v)), EveAttack(haar_unitary(4, rng))
        assert_bitwise_equal(apply_eve(state, atk), reference_apply_eve(state, atk))


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("preset", sorted(security.ATTACK_PRESETS))
def test_apply_eve_is_bitwise_the_two_qubit_gate_on_ghz_states(n, preset):
    atk = security.ATTACK_PRESETS[preset]()
    assert_bitwise_equal(apply_eve(ghz_state(n), atk), reference_apply_eve(ghz_state(n), atk))


def test_attack_must_be_unitary():
    with pytest.raises(ValueError):
        EveAttack(np.ones((4, 4)))
    with pytest.raises(ValueError):
        EveAttack(np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_attack_rejects_non_finite_entry(bad):
    m = np.eye(4, dtype=complex)
    m[2, 3] = bad
    with pytest.raises(ValueError):
        EveAttack(m)


def test_branch_vectors_of_cnot():
    atk = EveAttack.cnot()
    assert np.array_equal(atk.branch(0, 0), [1, 0])
    assert np.array_equal(atk.branch(0, 1), [0, 0])
    assert np.array_equal(atk.branch(1, 0), [0, 0])
    assert np.array_equal(atk.branch(1, 1), [0, 1])


# ---------------------------------------------------------------------------
# exact detection probability


@pytest.mark.parametrize("n", range(2, 11))
def test_clean_state_never_detected(n):
    state = tensor_product(ghz_state(n), basis_ket(1, 0))
    assert detection_probability(state) == 0.0


@pytest.mark.parametrize("n", [3, 5])
def test_cnot_detection_quarter(n):
    state = apply_eve(ghz_state(n), EveAttack.cnot())
    report = detection_report(state, n_protocol=n)
    assert report.computational_inconsistency == pytest.approx(0.0, abs=1e-12)
    assert report.hadamard_inconsistency == pytest.approx(0.5, abs=1e-12)
    assert report.probability == pytest.approx(0.25, abs=1e-12)
    assert report.probability == pytest.approx(detection_oracle(state, n), abs=1e-12)


@pytest.mark.parametrize("n", [3, 5])
def test_swap_attack_detection_half(n):
    # Both checks fire half the time: the receiver always reads the ancilla's
    # 0 while the senders stay correlated with the stolen qubit.
    state = apply_eve(ghz_state(n), EveAttack.swap_with_zero())
    report = detection_report(state, n_protocol=n)
    assert report.computational_inconsistency == pytest.approx(0.5, abs=1e-12)
    assert report.hadamard_inconsistency == pytest.approx(0.5, abs=1e-12)
    assert report.probability == pytest.approx(0.5, abs=1e-12)
    assert report.probability == pytest.approx(detection_oracle(state, n), abs=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_detection_matches_oracle_on_random_attacks(seed):
    rng = np.random.default_rng(seed)
    atk = EveAttack(haar_unitary(4, rng))
    state = apply_eve(ghz_state(3), atk)
    assert detection_probability(state) == pytest.approx(
        detection_oracle(state, 3), abs=1e-12
    )


def test_controlled_phase_detection_formula():
    for phi in (0.3, 1.0, np.pi):
        state = apply_eve(ghz_state(4), controlled_phase_attack(phi))
        assert detection_probability(state) == pytest.approx(
            np.sin(phi / 2) ** 2 / 2, abs=1e-12
        )


# ---------------------------------------------------------------------------
# undetectability certificate


def test_identity_certificate_passes():
    cert = undetectable_certificate(EveAttack.identity())
    assert cert.undetectable
    assert cert.flip_01 == cert.flip_10 == cert.branch_mismatch == 0.0


def test_cnot_certificate_fails_on_branch_mismatch():
    cert = undetectable_certificate(EveAttack.cnot())
    assert not cert.undetectable
    assert cert.flip_01 == cert.flip_10 == 0.0
    assert cert.branch_mismatch == pytest.approx(np.sqrt(2))


def test_swap_certificate_fails_on_flip():
    cert = undetectable_certificate(EveAttack.swap_with_zero())
    assert not cert.undetectable
    assert cert.flip_10 == pytest.approx(1.0)


def test_phase_attack_is_caught_despite_phase_aligned_branches():
    # The phase-minimized mismatch is ~0, but the attack is detectable: the
    # verdict must come from the exact branch comparison.
    cert = undetectable_certificate(controlled_phase_attack(0.7))
    assert cert.branch_mismatch_min_phase == pytest.approx(0.0, abs=1e-12)
    assert cert.branch_mismatch > 1e-3
    assert not cert.undetectable
    state = apply_eve(ghz_state(4), controlled_phase_attack(0.7))
    assert detection_probability(state) > 1e-3


@pytest.mark.parametrize("seed", range(50))
def test_certificate_iff_zero_detection(seed):
    rng = np.random.default_rng(1000 + seed)
    kind = seed % 3
    if kind == 0:
        atk = EveAttack(haar_unitary(4, rng))
    elif kind == 1:
        atk = ancilla_local_attack(rng)
    else:
        atk = controlled_phase_attack(rng.uniform(0.1, np.pi))
    state = apply_eve(ghz_state(4), atk)
    detected = detection_probability(state) > 1e-9
    cert = undetectable_certificate(atk)
    assert cert.undetectable == (not detected)


@pytest.mark.parametrize("seed", range(10))
def test_passing_attack_leaves_sender_marginal(seed):
    rng = np.random.default_rng(70 + seed)
    atk = ancilla_local_attack(rng)
    assert undetectable_certificate(atk).undetectable
    clean = reduced_density(ghz_state(4), {1, 2, 3})
    after = reduced_density(apply_eve(ghz_state(4), atk), {1, 2, 3})
    assert np.max(np.abs(clean.matrix - after.matrix)) < 1e-9


# ---------------------------------------------------------------------------
# round simulation


def test_simulation_clean_channel():
    report = security_simulation(5, None, 10_000, np.random.default_rng(3))
    assert report.detections == 0
    assert report.detection_rate == 0.0
    assert not report.aborted
    assert report.computational_rate == 1.0
    assert report.hadamard_rate == 1.0


def test_simulation_cnot_matches_exact_rate():
    rounds = 10_000
    report = security_simulation(5, EveAttack.cnot(), rounds, np.random.default_rng(7))
    sigma = np.sqrt(0.25 * 0.75 / rounds)
    assert abs(report.detection_rate - 0.25) <= 3 * sigma
    assert report.aborted
    # cnot copies the receiver's bit: only the Hadamard check fires, half the time
    assert report.computational_consistent == report.computational_rounds
    h_rounds = report.hadamard_rounds
    h_sigma = np.sqrt(0.5 * 0.5 / h_rounds)
    assert abs((h_rounds - report.hadamard_consistent) / h_rounds - 0.5) <= 3 * h_sigma


def test_simulation_swap_matches_exact_rate():
    rounds = 10_000
    report = security_simulation(3, EveAttack.swap_with_zero(), rounds, np.random.default_rng(8))
    sigma = np.sqrt(0.5 * 0.5 / rounds)
    assert abs(report.detection_rate - 0.5) <= 3 * sigma


def test_simulation_is_seed_deterministic():
    a = security_simulation(4, EveAttack.cnot(), 600, np.random.default_rng(42))
    b = security_simulation(4, EveAttack.cnot(), 600, np.random.default_rng(42))
    assert a == b


def test_simulation_threshold_knob():
    report = security_simulation(
        3, EveAttack.swap_with_zero(), 500, np.random.default_rng(9), threshold=0.9
    )
    assert not report.aborted


def test_simulation_rejects_zero_rounds():
    with pytest.raises(ValueError):
        security_simulation(3, None, 0, np.random.default_rng(0))


def test_simulation_cost_does_not_grow_with_rounds():
    rounds = 10**8
    t0 = time.perf_counter()
    report = security_simulation(5, EveAttack.cnot(), rounds, np.random.default_rng(5))
    assert time.perf_counter() - t0 < 2.0
    assert report.rounds == rounds
    assert abs(report.detection_rate - 0.25) <= hoeffding(rounds)


def test_simulation_rejects_rounds_beyond_int64():
    with pytest.raises(ValueError):
        security_simulation(3, None, 2**63, np.random.default_rng(0))


@pytest.mark.parametrize("n", range(2, 13))
def test_simulation_clean_channel_never_detects(n):
    report = security_simulation(n, None, 10**6, np.random.default_rng(100 + n))
    assert report.detections == 0
    assert report.computational_consistent == report.computational_rounds
    assert report.hadamard_consistent == report.hadamard_rounds


@pytest.mark.parametrize("seed", range(51))
def test_sampled_rates_match_exact_detection(seed):
    # Sampled rates, binomial draws at the inconsistencies of the attacked
    # state's detection_report, against that report within Hoeffding's bound.
    n = (2, 3, 5)[seed % 3]
    rng = np.random.default_rng(3000 + seed)
    atk = EveAttack(haar_unitary(4, rng))
    exact = detection_report(apply_eve(ghz_state(n), atk), n_protocol=n)
    report = security_simulation(n, atk, 20_000, rng)
    for rounds, consistent, want in (
        (report.computational_rounds, report.computational_consistent,
         exact.computational_inconsistency),
        (report.hadamard_rounds, report.hadamard_consistent,
         exact.hadamard_inconsistency),
    ):
        assert abs((rounds - consistent) / rounds - want) <= hoeffding(rounds)
    assert abs(report.computational_rounds / report.rounds - 0.5) <= hoeffding(report.rounds)


def _exact_cases():
    """No attack, every preset, and five Haar-random attacks."""
    rng = np.random.default_rng(4100)
    haar = [EveAttack(haar_unitary(4, rng)) for _ in range(5)]
    return [None, *(make() for make in security.ATTACK_PRESETS.values()), *haar]


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("atk", _exact_cases())
def test_simulation_exact_is_detection_report(n, atk):
    # The report the rounds were drawn from is the exact enumeration of the
    # same attacked state, bit for bit.
    sim = security_simulation(n, atk, 100, np.random.default_rng(n))
    state = ghz_state(n) if atk is None else apply_eve(ghz_state(n), atk)
    assert sim.exact == detection_report(state, n_protocol=n)


def test_simulation_reports_the_detection_report_it_drew_from(monkeypatch):
    returned = []
    original = security.detection_report

    def recording(state, n):
        returned.append(original(state, n))
        return returned[-1]

    monkeypatch.setattr(security, "detection_report", recording)
    sim = security_simulation(4, EveAttack.cnot(), 100, np.random.default_rng(0))
    assert len(returned) == 1 and sim.exact is returned[0]


# A Z on the receiver's qubit flips every Hadamard round; scaled by 1 + 4e-10
# it passes as unitary, and its Hadamard inconsistency exceeds 1.
BARELY_UNITARY_Z = (1 + 4e-10) * np.diag([1.0, 1.0, -1.0, -1.0])


def test_simulation_clips_an_inconsistency_above_one():
    atk = EveAttack(BARELY_UNITARY_Z)
    assert detection_report(apply_eve(ghz_state(4), atk), 4).hadamard_inconsistency > 1
    report = security_simulation(4, atk, 1000, np.random.default_rng(4600))
    assert report.hadamard_rounds > 0 and report.hadamard_consistent == 0
    assert report.computational_consistent == report.computational_rounds
    assert report.aborted


def test_security_cli_clips_an_inconsistency_above_one(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text(json.dumps([[[z, 0.0] for z in row] for row in BARELY_UNITARY_Z.tolist()]))
    argv = ["security", "--n", "4", "--attack", f"file:{path}", "--rounds", "1000", "--seed", "3"]
    assert main(argv) == 4
    empirical = json.loads(capsys.readouterr().out)["results"]["empirical"]
    assert empirical["hadamard_rounds"] > 0 and empirical["hadamard_consistent"] == 0


def test_security_op_builds_one_attacked_state(capsys, monkeypatch):
    calls = []
    original = security.apply_eve

    def counting(state, atk):
        calls.append(state.n_qubits)
        return original(state, atk)

    monkeypatch.setattr(security, "apply_eve", counting)
    code = main(["security", "--n", "4", "--attack", "cnot", "--rounds", "200", "--seed", "5"])
    capsys.readouterr()
    assert code == 4
    assert calls == [4]


def test_security_op_builds_only_the_ghz_and_the_attacked_state(tmp_path, capsys, monkeypatch):
    u = haar_unitary(4, np.random.default_rng(4400))
    path = tmp_path / "haar.json"
    path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in u]))
    want = detection_report(reference_apply_eve(ghz_state(4), EveAttack(u)), 4)

    def forbidden(*args, **kwargs):
        raise AssertionError("a general state operation was called")

    for name in ("tensor_product", "apply_two_qubit", "basis_ket"):
        monkeypatch.setattr(statevec, name, forbidden)
        monkeypatch.setattr(security, name, forbidden, raising=False)
    built = []
    check = StateVector.__post_init__
    monkeypatch.setattr(StateVector, "__post_init__",
                        lambda self: built.append(self.n_qubits) or check(self))
    code = main(["security", "--n", "4", "--attack", f"file:{path}", "--rounds", "400"])
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 4)
    assert built == [4, 5]
    exact = report["results"]["exact"]
    assert exact["detection_probability"] == want.probability
    assert exact["hadamard_inconsistency"] == want.hadamard_inconsistency


def test_security_op_reuses_the_preset_attacks_built_at_import(capsys, monkeypatch):
    monkeypatch.delenv("DENSECODE_SEED", raising=False)
    argv = ["security", "--n", "4", "--attack", "cnot", "--rounds", "200"]
    want_code = main(argv)
    want = capsys.readouterr()

    def forbidden(self):
        raise AssertionError("a preset attack was built again")

    monkeypatch.setattr(EveAttack, "__post_init__", forbidden)
    assert main(argv) == want_code
    assert capsys.readouterr() == want


def marginal_probabilities(state, qubits):
    """Exact outcome distribution for measuring ``qubits`` (ascending order,
    first listed qubit = most significant outcome bit), by a general
    transpose-sum; ``measure_qubits`` in test_statevec.py reads the same code."""
    n = state.n_qubits
    others = [q for q in range(1, n + 1) if q not in qubits]
    probs = np.abs(state.tensor()) ** 2
    perm = [q - 1 for q in qubits] + [q - 1 for q in others]
    return probs.transpose(perm).reshape(2 ** len(qubits), -1).sum(axis=1)


def reference_check_marginals(state, k):
    """Both check marginals of protocol qubits 1..k by ``hadamard_on`` and a
    general transpose-sum."""
    qubits = list(range(1, k + 1))
    return (marginal_probabilities(state, qubits),
            marginal_probabilities(hadamard_on(state, qubits), qubits))


def _marginal_cases():
    """Seeded random states of 2..7 qubits, and the attacked GHZ states."""
    rng = np.random.default_rng(4200)
    cases = []
    for n in range(2, 8):
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        cases += [(StateVector(n, v / np.linalg.norm(v)), k) for k in range(2, n + 1)]
    for n in range(2, 7):
        cases += [(apply_eve(ghz_state(n), make()), n) for make in security.ATTACK_PRESETS.values()]
    return cases


@pytest.mark.parametrize("state, k", _marginal_cases())
def test_check_marginals_are_bitwise_the_reference(state, k):
    want_comp, want_had = reference_check_marginals(state, k)
    got_comp, got_had = security._check_marginals(state, k)
    assert np.array_equal(got_comp, want_comp) and np.array_equal(got_had, want_had)
    assert detection_report(state, k) == security._score_marginals(want_comp, want_had)


def test_security_op_needs_no_hadamard_state(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("hadamard_on was called")

    monkeypatch.setattr(statevec, "hadamard_on", forbidden)
    monkeypatch.setattr(security, "hadamard_on", forbidden, raising=False)
    code = main(["security", "--n", "4", "--attack", "cnot", "--rounds", "200", "--seed", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 4
    assert abs(report["results"]["exact"]["detection_probability"] - 0.25) <= 1e-12
