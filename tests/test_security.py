import dataclasses
import itertools
import json
import math
import time

import numpy as np
import pytest

from densecode import (
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
    detection_closed_form,
    detection_probability,
    detection_report,
    dnk_spec,
    dnk_state,
    encoded_state,
    ghz_state,
    hadamard_on,
    parity_class,
    pm_support,
    reduced_density,
    security_simulation,
    tensor_product,
    undetectable_certificate,
    unitarity_residual,
)
from densecode import cli, coding, security, statevec
from densecode.cli import main

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


def rule_fails(basis, n):
    """The check rule written out per outcome with Python ints: whether each
    outcome of n protocol qubits, packed with qubit 1 as the high bit and the
    receiver's qubit as bit 0, fails ``basis``'s check.  The computational
    check wants the senders all-0 with the receiver 0, or all-1 with the
    receiver 1; the Hadamard check wants the senders' |-> count to have the
    receiver's parity."""
    fails = []
    for outcome in range(2**n):
        bob, alice = outcome & 1, outcome >> 1
        if basis == "computational":
            fails.append((alice, bob) not in ((0, 0), (2 ** (n - 1) - 1, 1)))
        else:
            fails.append(bin(alice).count("1") % 2 != bob)
    return np.array(fails)


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("basis", ["computational", "hadamard"])
def test_score_marginals_fails_exactly_the_outcomes_the_rule_fails(n, basis):
    # Outcome by outcome: all the mass on one outcome of the checked basis
    # scores 1.0 there iff the rule fails it; the other basis sits on outcome
    # 0, which passes both checks.
    fails = rule_fails(basis, n)
    rest = np.eye(2**n)[0]
    for outcome in range(2**n):
        point = np.eye(2**n)[outcome]
        if basis == "computational":
            report = security._score_marginals(point, rest)
            got, other = report.computational_inconsistency, report.hadamard_inconsistency
        else:
            report = security._score_marginals(rest, point)
            got, other = report.hadamard_inconsistency, report.computational_inconsistency
        assert (got, other) == (float(fails[outcome]), 0.0), outcome
        assert report.probability == got / 2.0


@pytest.mark.parametrize("n", range(2, 13))
def test_exact_scores_are_the_sums_over_inconsistent_outcomes(n):
    # detection_report's masks and the per-outcome rule are one rule: on any
    # distribution, the exact score is the sum over the outcomes the rule fails.
    rng = np.random.default_rng(4500 + n)
    comp_fail, had_fail = (rule_fails(basis, n) for basis in ("computational", "hadamard"))
    for _ in range(20):
        p_comp, p_had = rng.dirichlet(np.ones(2**n), size=2)
        report = security._score_marginals(p_comp, p_had)
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
    # apply_eve is pinned to the composition: another operand order, such as
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


def bits(report):
    """A report's floats as hex, so that == is bit for bit (0.0 is not -0.0)."""
    return [float.hex(x) for x in dataclasses.astuple(report)]


def dense_ghz_report(n, atk):
    """The dense path: the attacked GHZ state, scored by enumeration."""
    state = ghz_state(n) if atk is None else apply_eve(ghz_state(n), atk)
    return detection_report(state, n_protocol=n)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("atk", _exact_cases())
def test_simulation_exact_is_the_closed_form(n, atk):
    # The report the rounds were drawn from is the closed form, bit for bit,
    # and the exact enumeration of the attacked state within 1e-12.
    sim = security_simulation(n, atk, 100, np.random.default_rng(n))
    assert bits(sim.exact) == bits(detection_closed_form(atk))
    dense = dense_ghz_report(n, atk)
    for got, want in zip(dataclasses.astuple(sim.exact), dataclasses.astuple(dense)):
        assert abs(got - want) <= 1e-12


class RecordingGenerator:
    """Answers each binomial draw with half its trials and records (trials, p)."""

    def __init__(self):
        self.draws = []

    def binomial(self, trials, p):
        self.draws.append((trials, p))
        return trials // 2


@pytest.mark.parametrize("n, blocks", [(4, 1), (8, 3), (9, 4)])
def test_simulation_draws_from_the_closed_form_it_reports(monkeypatch, n, blocks):
    returned = []
    original = security.detection_closed_form

    def recording(attack, b):
        returned.append((b, original(attack, b)))
        return returned[-1][1]

    monkeypatch.setattr(security, "detection_closed_form", recording)
    rng = RecordingGenerator()
    sim = security_simulation(n, EveAttack.swap_with_zero(), 1001, rng, blocks=blocks)
    assert len(returned) == 1 and returned[0][0] == blocks and sim.exact is returned[0][1]
    exact = sim.exact
    assert rng.draws == [(1001, 0.5), (500, exact.computational_inconsistency),
                         (501, exact.hadamard_inconsistency)]


# A Z on the receiver's qubit flips every Hadamard round; scaled by 1 + 4e-10
# it passes as unitary, and its Hadamard inconsistency exceeds 1.
BARELY_UNITARY_Z = (1 + 4e-10) * np.diag([1.0, 1.0, -1.0, -1.0])


def test_simulation_clips_an_inconsistency_above_one():
    atk = EveAttack(BARELY_UNITARY_Z)
    assert detection_report(apply_eve(ghz_state(4), atk), 4).hadamard_inconsistency > 1
    assert detection_closed_form(atk).hadamard_inconsistency > 1
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


def test_security_op_takes_no_dense_path(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a dense security path was called")

    for name in ("apply_eve", "detection_report", "hadamard_on", "apply_two_qubit",
                 "tensor_product", "basis_ket"):
        monkeypatch.setattr(security, name, forbidden)
    for name in ("dnk_state", "dnk_code_words"):
        monkeypatch.setattr(coding, name, forbidden)
    code = main(["security", "--n", "4", "--attack", "cnot", "--rounds", "200", "--seed", "5"])
    exact = json.loads(capsys.readouterr().out)["results"]["exact"]
    assert code == 4
    assert (exact["hadamard_inconsistency"], exact["detection_probability"]) == (0.5, 0.25)


@pytest.mark.parametrize("layout", [["--n", "4"], ["--ghz", "12"], ["--bell", "3"],
                                    ["--dnk", "8", "3"]])
def test_security_op_builds_no_state(tmp_path, capsys, monkeypatch, layout):
    u = haar_unitary(4, np.random.default_rng(4400))
    path = tmp_path / "haar.json"
    path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in u]))
    args = cli._parse(["security", *layout])
    cli._validate(args)
    spec = cli._named_layout(args)[0]
    # the file's matrix, as the CLI reads it back
    atk = cli._load_attack(f"file:{path}")
    want = detection_closed_form(atk, len(spec.blocks))
    dense = dense_layout_report(spec, atk)

    built = []
    check = StateVector.__post_init__
    monkeypatch.setattr(StateVector, "__post_init__",
                        lambda self: built.append(self.n_qubits) or check(self))
    code = main(["security", *layout, "--attack", f"file:{path}", "--rounds", "400"])
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 4)
    assert built == []
    exact = report["results"]["exact"]
    assert exact["computational_inconsistency"] == want.computational_inconsistency
    assert exact["hadamard_inconsistency"] == want.hadamard_inconsistency
    assert exact["detection_probability"] == want.probability
    assert abs(want.computational_inconsistency - dense.computational_inconsistency) <= 1e-12
    assert abs(want.hadamard_inconsistency - dense.hadamard_inconsistency) <= 1e-12


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
    assert detection_report(state, k) == security._score_marginals(want_comp, want_had)


def test_security_op_needs_no_hadamard_state(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("hadamard_on was called")

    monkeypatch.setattr(statevec, "hadamard_on", forbidden)
    monkeypatch.setattr(security, "hadamard_on", forbidden)
    code = main(["security", "--n", "4", "--attack", "cnot", "--rounds", "200", "--seed", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 4
    assert abs(report["results"]["exact"]["detection_probability"] - 0.25) <= 1e-12


# ---------------------------------------------------------------------------
# every layout: the closed form against a dense oracle


def dense_layout_report(spec, atk):
    """Both inconsistencies of the layout ``spec`` under ``atk``, densely: the
    resource with its own |0> ancilla per receiver qubit, the attack applied
    to each (receiver, ancilla) pair, then every joint outcome of the N
    protocol qubits enumerated.  A round in one basis fails if any block
    fails its check there: its computational bits are not all equal, or its
    count of |-> outcomes is odd."""
    n, b = spec.n_qubits, len(spec.blocks)
    state = dnk_state(spec)
    if atk is not None:
        state = tensor_product(state, basis_ket(b, 0))
        for j, bob in enumerate(spec.bob_qubits):
            state = apply_two_qubit(state, atk.unitary, (bob, n + 1 + j))
    # the Hadamard basis on the protocol qubits, by raw tensordots
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    t = state.amplitudes.reshape((2,) * state.n_qubits)
    for q in range(n):
        t = np.moveaxis(np.tensordot(h, np.moveaxis(t, q, 0), axes=([1], [0])), 0, q)
    p_comp, p_had = ((np.abs(a.reshape(2**n, -1)) ** 2).sum(axis=1)
                     for a in (state.amplitudes, t))
    outcomes = np.arange(2**n)
    odd = np.array([bin(m).count("1") % 2 == 1 for m in outcomes])
    comp_fail = np.zeros(2**n, dtype=bool)
    had_fail = np.zeros(2**n, dtype=bool)
    for block in spec.blocks:
        mask = sum(1 << (n - q) for q in block)
        on = outcomes & mask
        comp_fail |= (on != 0) & (on != mask)
        had_fail |= odd[on]
    comp, had = float(p_comp[comp_fail].sum()), float(p_had[had_fail].sum())
    return security.DetectionReport(comp, had, (comp + had) / 2)


LAYOUTS = [(n, k) for n in range(2, 9) for k in range(1, n)]


def _layout_attacks():
    """No attack, the presets, 50 Haar attacks, then ten each of ancilla-local
    and controlled-phase attacks: the two families on either side of the
    certificate."""
    rng = np.random.default_rng(4700)
    return [None, *(make() for make in security.ATTACK_PRESETS.values()),
            *(EveAttack(haar_unitary(4, rng)) for _ in range(50)),
            *(ancilla_local_attack(rng) for _ in range(10)),
            *(controlled_phase_attack(rng.uniform(0.05, np.pi)) for _ in range(10))]


LAYOUT_ATTACKS = _layout_attacks()


@pytest.mark.parametrize("n, k", LAYOUTS)
def test_closed_form_is_the_dense_oracle_on_every_layout(n, k):
    spec = dnk_spec(n, k)
    for i, atk in enumerate(LAYOUT_ATTACKS):
        got = detection_closed_form(atk, len(spec.blocks))
        want = dense_layout_report(spec, atk)
        for g, w in zip(dataclasses.astuple(got), dataclasses.astuple(want)):
            assert abs(g - w) <= 1e-12, (n, k, i, got, want)


@pytest.mark.parametrize("n, k", LAYOUTS)
def test_detection_is_zero_exactly_when_the_certificate_passes_on_every_layout(n, k):
    # Criterion 8's theorem on every layout: no attack and a certified one
    # score exactly 0.0 in both bases, and every other attack is seen.
    blocks = len(dnk_spec(n, k).blocks)
    assert bits(detection_closed_form(None, blocks)) == [float.hex(0.0)] * 3
    passed = 0
    for atk in LAYOUT_ATTACKS[1:]:
        report = detection_closed_form(atk, blocks)
        certified = undetectable_certificate(atk).undetectable
        assert (report.probability == 0.0) == certified
        passed += certified
    assert passed == 11  # identity and the ten ancilla-local attacks


def test_one_block_is_p_itself_and_b_blocks_compound_it():
    # B = 1 is P itself, and B blocks are 1 - (1 - P)^B of that P.
    for atk in LAYOUT_ATTACKS[1:]:
        one = detection_closed_form(atk, 1)
        assert bits(one) == bits(detection_closed_form(atk))
        v00, v01, v10, v11 = (atk.branch(i, j) for i in (0, 1) for j in (0, 1))
        assert abs(one.computational_inconsistency
                   - (np.sum(np.abs(v01) ** 2) + np.sum(np.abs(v10) ** 2)) / 2) <= 1e-15
        assert abs(one.hadamard_inconsistency
                   - (np.sum(np.abs(v00 - v11) ** 2) + np.sum(np.abs(v01 - v10) ** 2)) / 4) <= 1e-15
        for b in range(2, 7):
            many = detection_closed_form(atk, b)
            assert many.computational_inconsistency == 1 - (1 - one.computational_inconsistency) ** b
            assert many.hadamard_inconsistency == 1 - (1 - one.hadamard_inconsistency) ** b
            assert many.probability == (many.computational_inconsistency
                                        + many.hadamard_inconsistency) / 2



# ---------------------------------------------------------------------------
# the attack's numbers, bitwise those of the norm and identity formulas


def reference_residual(u):
    """max |U^t U - 1| with the identity built by ``np.eye``."""
    m = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def reference_attack_numbers(u):
    """What ``EveAttack(u)`` gives, by ``np.linalg.norm`` and ``np.eye``: the refusal's
    text, else the certificate's four residuals, then detection_closed_form's three
    numbers for B = 1..6, as ``float.hex``, then the certificate's verdict.  The
    branches are views of the C-ordered private copy the attack keeps."""
    residual = reference_residual(u)
    if not residual <= security.UNITARY_TOLERANCE:
        return f"attack matrix is not unitary (U^t U residual {residual:.3e})"
    m = np.asarray(u, dtype=complex).copy()
    v00, v01, v10, v11 = (m[2 * out : 2 * out + 2, 2 * b] for b in (0, 1) for out in (0, 1))
    overlap = np.vdot(v11, v00)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-15 else 1.0
    flips_and_mismatches = [float(np.linalg.norm(v))
                            for v in (v01, v10, v00 - phase * v11, v00 - v11)]
    numbers = list(flips_and_mismatches)

    def norm2(v):
        return float(np.vdot(v, v).real)

    comp = (norm2(v01) + norm2(v10)) / 2.0
    had = (norm2(v00 - v11) + norm2(v01 - v10)) / 4.0
    for blocks in range(1, 7):
        c, h = comp, had
        if blocks > 1:
            c, h = 1.0 - (1.0 - comp) ** blocks, 1.0 - (1.0 - had) ** blocks
        numbers += [c, h, (c + h) / 2.0]
    flip_01, flip_10, _, mismatch = flips_and_mismatches
    tol = security.CERT_TOLERANCE
    return [*map(float.hex, numbers), flip_01 <= tol and flip_10 <= tol and mismatch <= tol]


def attack_numbers(u):
    """``reference_attack_numbers`` of ``u``, as the package computes them."""
    try:
        atk = EveAttack(u)
    except ValueError as exc:
        return str(exc)
    cert = undetectable_certificate(atk)
    numbers = [cert.flip_01, cert.flip_10, cert.branch_mismatch_min_phase, cert.branch_mismatch]
    for blocks in range(1, 7):
        report = detection_closed_form(atk, blocks)
        numbers += [report.computational_inconsistency, report.hadamard_inconsistency,
                    report.probability]
    return [*map(float.hex, numbers), cert.undetectable]


def _preset_matrices():
    """The presets as their constructors are given them: integer matrices."""
    return [make().unitary.real.astype(int) for make in security.ATTACK_PRESETS.values()]


def _negative_zero_matrices():
    """Each preset negated, and with every zero real and imaginary part -0.0."""
    cases = []
    for p in _preset_matrices():
        signed = p.astype(complex)
        signed.real[signed.real == 0] = -0.0
        signed.imag = -0.0
        cases += [-p.astype(complex), signed, np.conj(signed)]
    return cases


def _bitwise_cases(family):
    rng = np.random.default_rng(4800)
    if family == "presets":
        return _preset_matrices()
    if family == "haar":  # every other one Fortran-ordered
        return [haar_unitary(4, rng) if i % 2 else np.asfortranarray(haar_unitary(4, rng))
                for i in range(1000)]
    if family == "negative zeros":
        return _negative_zero_matrices()
    # U^t U = (1 + t) 1 up to rounding: residuals on both sides of the tolerance
    tol = security.UNITARY_TOLERANCE
    return [haar_unitary(4, rng) * math.sqrt(1 + t * tol)
            for t in (0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1, 2.0) for _ in range(20)]


@pytest.mark.parametrize("family", ["presets", "haar", "negative zeros", "scaled"])
def test_attack_numbers_are_bitwise_the_norm_and_eye_formulas(family):
    cases = _bitwise_cases(family)
    outcomes = set()
    for u in cases:
        assert float.hex(unitarity_residual(u)) == float.hex(reference_residual(u))
        want = reference_attack_numbers(u)
        assert attack_numbers(u) == want
        outcomes.add(isinstance(want, str))
    if family == "haar":
        assert sum(u.flags.f_contiguous and not u.flags.c_contiguous for u in cases) == 500
    # the scaled family is refused and accepted, the others only accepted
    assert outcomes == ({False, True} if family == "scaled" else {False})


def test_security_op_needs_no_norm_or_eye(tmp_path, capsys, monkeypatch):
    u = haar_unitary(4, np.random.default_rng(4900))
    path = tmp_path / "haar.json"
    path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in u.tolist()]))
    attacks = {f"file:{path}": cli._load_attack(f"file:{path}").unitary,
               "cnot": EveAttack.cnot().unitary}
    want = {attack: reference_attack_numbers(m) for attack, m in attacks.items()}

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.norm or np.eye was called")

    monkeypatch.setattr(np.linalg, "norm", forbidden)
    monkeypatch.setattr(np, "eye", forbidden)
    for attack in attacks:
        code = main(["security", "--n", "5", "--attack", attack, "--rounds", "400", "--seed", "5"])
        cert = json.loads(capsys.readouterr().out)["results"]["certificate"]
        assert code == 4
        got = [cert[key] for key in ("flip_01", "flip_10", "branch_mismatch_min_phase",
                                     "branch_mismatch")]
        assert [*map(float.hex, got), cert["undetectable"]] == [*want[attack][:4], False]
