"""Eavesdropping analysis for GHZ dense coding.

The shared state's signature in the |+>/|-> basis is a parity pattern: its
support is exactly the even-weight masks, with uniform amplitude modulus.
The two-basis check exploits it.  Each sampled round, the receiver measures
his qubit either in the computational basis (then the senders' outcome must
be all-0 or all-1, matching his bit) or in the Hadamard basis (then the
total number of |-> outcomes across all protocol qubits must be even).

The attack model is a unitary on (receiver qubit x one ancilla qubit), the
ancilla starting in |0>.  Writing  U |b>|0> = |0>|v_b0> + |1>|v_b1>,  the
four "branch" vectors v determine everything: the computational check is
blind exactly when the bit-flip branches v_01 and v_10 vanish, and the
Hadamard check is blind exactly when v_00 equals v_11 -- including their
relative phase, since a phase difference rotates the shared state's parity
pattern.  An attack passing both is the identity on the receiver qubit times
a local ancilla map, so it gains nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .statevec import (
    StateVector,
    apply_two_qubit,
    basis_ket,
    ghz_state,
    hadamard_all,
    hadamard_on,
    measure_qubits,
    tensor_product,
    _marginal_probabilities,
    _mask_parity,
)

SUPPORT_CUTOFF = 1e-10
CERT_TOLERANCE = 1e-6
UNITARY_TOLERANCE = 1e-9
MAX_ROUNDS = 2**63 - 1  # the sampler's counts are int64


class ParityClass(Enum):
    EVEN_GHZ = "even"  # support = even-weight masks, uniform modulus
    ODD_GHZ = "odd"
    NEITHER = "neither"


class CheckBasis(Enum):
    COMPUTATIONAL = "computational"
    HADAMARD = "hadamard"


def pm_support(state: StateVector, cutoff: float = SUPPORT_CUTOFF) -> list[tuple[int, complex]]:
    """(mask, amplitude) pairs in the |+>/|-> basis; mask bit 1 means |->."""
    amps = hadamard_all(state).amplitudes
    return [
        (int(m), complex(amps[m]))
        for m in np.nonzero(np.abs(amps) > cutoff)[0]
    ]


def parity_class(state: StateVector, tol: float = 1e-9) -> ParityClass:
    """Classify the |+>/|-> support: even-weight masks with uniform modulus,
    odd-weight ditto, or neither.  Sign patterns are allowed (bit-flip
    encodings produce them); only the moduli must be uniform."""
    n = state.n_qubits
    moduli = np.abs(hadamard_all(state).amplitudes)
    parity = _mask_parity(n)
    target = 1.0 / np.sqrt(2 ** (n - 1))
    for cls, live in ((ParityClass.EVEN_GHZ, 0), (ParityClass.ODD_GHZ, 1)):
        on = moduli[parity == live]
        off = moduli[parity != live]
        if np.max(np.abs(on - target)) <= tol and np.max(off, initial=0.0) <= tol:
            return cls
    return ParityClass.NEITHER


@dataclass(frozen=True)
class RoundRecord:
    basis: CheckBasis
    bob_outcome: int  # 0/1; in the Hadamard basis 0 means +, 1 means -
    alice_outcome: int  # sender bits packed with qubit 1 as the high bit
    consistent: bool


def round_consistent(basis: CheckBasis, outcome: int | np.ndarray, n: int) -> bool | np.ndarray:
    """Whether measured outcome(s) of the n protocol qubits pass the check.

    ``outcome`` packs the bits with qubit 1 as the high bit and the
    receiver's qubit as bit 0; it may be an int or an integer array, and the
    result is a bool or a bool array of the same shape.  The computational
    check wants the senders all-0 with the receiver 0, or all-1 with the
    receiver 1; the Hadamard check wants the senders' |-> count to have the
    receiver's parity.
    """
    outcome = np.asarray(outcome)
    bob = outcome & 1
    alice = outcome >> 1
    if basis is CheckBasis.COMPUTATIONAL:
        ok = ((alice == 0) & (bob == 0)) | ((alice == 2 ** (n - 1) - 1) & (bob == 1))
    else:
        alice_parity = np.zeros_like(alice)
        for shift in range(n - 1):
            alice_parity ^= (alice >> shift) & 1
        ok = alice_parity == bob
    return ok[()]


def security_round(
    state: StateVector,
    basis: CheckBasis,
    rng: np.random.Generator,
    n_protocol: Optional[int] = None,
) -> RoundRecord:
    """One sampled check round.

    The protocol register is qubits 1..n_protocol with the receiver's qubit
    last; anything beyond (an eavesdropper ancilla) is left unmeasured and
    enters only through the measurement marginals.  ``n_protocol`` defaults
    to the full register.
    """
    n = n_protocol if n_protocol is not None else state.n_qubits
    if not 2 <= n <= state.n_qubits:
        raise ValueError(f"protocol size {n} invalid for {state.n_qubits} qubits")
    prepped = state if basis is CheckBasis.COMPUTATIONAL else hadamard_on(state, range(1, n + 1))
    outcome, _ = measure_qubits(prepped, range(1, n + 1), rng)
    consistent = bool(round_consistent(basis, outcome, n))
    return RoundRecord(basis, outcome & 1, outcome >> 1, consistent)


# ---------------------------------------------------------------------------
# Attack model


def unitarity_residual(matrix: np.ndarray) -> float:
    m = np.asarray(matrix, dtype=complex)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


@dataclass(frozen=True, eq=False)
class EveAttack:
    """A 4x4 unitary on (receiver qubit x ancilla), basis order
    {|00>, |01>, |10>, |11>} with the receiver bit first."""

    unitary: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.unitary, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"attack must be a 4x4 matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("attack matrix has non-finite entries")
        residual = unitarity_residual(m)
        if not residual <= UNITARY_TOLERANCE:
            raise ValueError(f"attack matrix is not unitary (U^t U residual {residual:.3e})")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "unitary", m)

    def branch(self, bob_in: int, bob_out: int) -> np.ndarray:
        """Ancilla vector v_{bob_in, bob_out} of U |bob_in>|0>."""
        return self.unitary[2 * bob_out : 2 * bob_out + 2, 2 * bob_in]

    @classmethod
    def identity(cls) -> "EveAttack":
        return cls(np.eye(4))

    @classmethod
    def cnot(cls) -> "EveAttack":
        """Receiver qubit controls a NOT on the ancilla (copies his bit)."""
        return cls(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))

    @classmethod
    def swap_with_zero(cls) -> "EveAttack":
        """Steal the receiver's qubit, leaving him the ancilla's |0>."""
        return cls(np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))


ATTACK_PRESETS = {
    "identity": EveAttack.identity,
    "cnot": EveAttack.cnot,
    "swap0": EveAttack.swap_with_zero,
}


def apply_eve(state: StateVector, atk: EveAttack) -> StateVector:
    """Append a |0> ancilla and act with the attack on (last qubit, ancilla)."""
    n = state.n_qubits
    extended = tensor_product(state, basis_ket(1, 0))
    return apply_two_qubit(extended, atk.unitary, (n, n + 1))


# ---------------------------------------------------------------------------
# Exact detection probability


@dataclass(frozen=True)
class DetectionReport:
    computational_inconsistency: float
    hadamard_inconsistency: float
    probability: float  # with the basis drawn uniformly


def detection_report(state: StateVector, n_protocol: Optional[int] = None) -> DetectionReport:
    """Exact inconsistency probability of each check, by enumerating every
    joint outcome; no sampling.

    ``n_protocol`` defaults to ``n_qubits - 1``: the expected input is a
    post-attack state with a single trailing ancilla.  Pass it explicitly
    for a bare protocol state.
    """
    n = n_protocol if n_protocol is not None else state.n_qubits - 1
    if not 2 <= n <= state.n_qubits:
        raise ValueError(f"protocol size {n} invalid for {state.n_qubits} qubits")
    measured = list(range(1, n + 1))
    # Sum the inconsistent mass directly: outcomes a clean state never
    # produces have exactly zero amplitude, so no 1-x cancellation noise.
    p_comp = _marginal_probabilities(state, measured)
    inc_comp = float(p_comp[1:-1].sum())
    p_had = _marginal_probabilities(hadamard_on(state, measured), measured)
    inc_had = float(p_had[_mask_parity(n) == 1].sum())
    return DetectionReport(inc_comp, inc_had, (inc_comp + inc_had) / 2.0)


def detection_probability(state: StateVector, n_protocol: Optional[int] = None) -> float:
    return detection_report(state, n_protocol).probability


# ---------------------------------------------------------------------------
# Undetectability certificate


@dataclass(frozen=True)
class CertificateReport:
    """Residuals of the no-detection conditions on the attack's branches.

    ``branch_mismatch`` is the exact ||v_00 - v_11||; the phase-minimized
    variant is reported for diagnosis but cannot clear an attack on its own:
    a relative phase between the branches is physically observable in the
    Hadamard check (it rotates the parity pattern), so the verdict requires
    the exact mismatch -- equivalently, that the attack acts as identity x
    (local ancilla map) on the protocol subspace up to a global phase.
    """

    flip_01: float
    flip_10: float
    branch_mismatch_min_phase: float
    branch_mismatch: float
    undetectable: bool


def undetectable_certificate(atk: EveAttack, tol: float = CERT_TOLERANCE) -> CertificateReport:
    v00 = atk.branch(0, 0)
    v11 = atk.branch(1, 1)
    flip_01 = float(np.linalg.norm(atk.branch(0, 1)))
    flip_10 = float(np.linalg.norm(atk.branch(1, 0)))
    overlap = np.vdot(v11, v00)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-15 else 1.0
    mismatch_min = float(np.linalg.norm(v00 - phase * v11))
    mismatch = float(np.linalg.norm(v00 - v11))
    verdict = flip_01 <= tol and flip_10 <= tol and mismatch <= tol
    return CertificateReport(flip_01, flip_10, mismatch_min, mismatch, verdict)


# ---------------------------------------------------------------------------
# Round simulation


@dataclass(frozen=True)
class SimulationReport:
    rounds: int
    threshold: float
    computational_rounds: int
    computational_consistent: int
    hadamard_rounds: int
    hadamard_consistent: int
    detections: int
    detection_rate: float
    computational_rate: Optional[float]
    hadamard_rate: Optional[float]
    aborted: bool


def security_simulation(
    n: int,
    attack: Optional[EveAttack],
    rounds: int,
    rng: np.random.Generator,
    threshold: float = 0.0,
) -> SimulationReport:
    """Run independent check rounds with a uniformly random basis each.

    All rounds are sampled at once: one binomial draw from ``rng`` splits
    them between the bases, then one multinomial draw per basis (computational
    first) spreads that basis's rounds over the exact 2**n outcome marginal.
    Time and memory are O(2**n) whatever ``rounds`` is, and a fixed seed
    gives identical statistics.  The default threshold 0 aborts on any
    inconsistency: the model is noiseless, so a clean channel never produces
    a false positive.
    """
    if not 1 <= rounds <= MAX_ROUNDS:
        raise ValueError(f"rounds must be in 1..{MAX_ROUNDS}, got {rounds}")
    if n < 2:
        raise ValueError(f"protocol needs at least 2 qubits, got {n}")
    state = ghz_state(n)
    if attack is not None:
        state = apply_eve(state, attack)
    measured = range(1, n + 1)
    outcomes = np.arange(2**n)
    c_rounds = int(rng.binomial(rounds, 0.5))
    tallies = []
    for basis, count in (
        (CheckBasis.COMPUTATIONAL, c_rounds),
        (CheckBasis.HADAMARD, rounds - c_rounds),
    ):
        prepped = state if basis is CheckBasis.COMPUTATIONAL else hadamard_on(state, measured)
        marginal = _marginal_probabilities(prepped, measured)
        counts = rng.multinomial(count, marginal / marginal.sum())
        tallies.append((count, int(counts[round_consistent(basis, outcomes, n)].sum())))
    (c_rounds, c_ok), (h_rounds, h_ok) = tallies
    detections = (c_rounds - c_ok) + (h_rounds - h_ok)
    rate = detections / rounds
    return SimulationReport(
        rounds=rounds,
        threshold=threshold,
        computational_rounds=c_rounds,
        computational_consistent=c_ok,
        hadamard_rounds=h_rounds,
        hadamard_consistent=h_ok,
        detections=detections,
        detection_rate=rate,
        computational_rate=c_ok / c_rounds if c_rounds else None,
        hadamard_rate=h_ok / h_rounds if h_rounds else None,
        aborted=rate > threshold,
    )
