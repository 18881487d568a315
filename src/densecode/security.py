"""Eavesdropping analysis for dense coding on any block layout D(N, k).

The shared state's signature in the |+>/|-> basis is a parity pattern: its
support is exactly the even-weight masks, with uniform amplitude modulus.
The two-basis check exploits it.  Each sampled round, the receiver measures
his qubit of every block either in the computational basis (then each
block's senders must read all-0 or all-1, matching his bit) or in the
Hadamard basis (then each block's number of |-> outcomes must be even).  One
basis is drawn per round, for all blocks, and the round fails if any block
fails its check.

The attack model is a unitary on (receiver qubit x one ancilla qubit), the
ancilla starting in |0>, applied to the receiver's qubit of every block with
a fresh ancilla each.  Writing  U |b>|0> = |0>|v_b0> + |1>|v_b1>,  the four
"branch" vectors v determine everything.  On one block, of any size,

    P_comp = (|v_01|^2 + |v_10|^2) / 2
    P_had  = (|v_00 - v_11|^2 + |v_01 - v_10|^2) / 4,

so the computational check is blind exactly when the bit-flip branches v_01
and v_10 vanish, and the Hadamard check is blind exactly when v_00 equals
v_11 -- including their relative phase, since a phase difference rotates the
shared state's parity pattern.  The blocks and their ancillas form a product
state, so a round in one basis on B blocks fails with probability
1 - (1 - P_basis)^B.  ``detection_closed_form`` gives both from the 4x4
attack alone, with no state built at any size.  An attack passing both
checks is the identity on the receiver qubit times a local ancilla map, so
it gains nothing.

A round either passes or fails its check, so a simulation draws each basis's
failed rounds as one binomial of that basis's exact inconsistency.  The dense
path stays as an independent oracle, composed of ``statevec`` primitives:
``apply_eve`` is ``apply_two_qubit`` on the state extended by a |0> ancilla,
and ``detection_report`` scores every joint outcome of the protocol qubits in
the computational basis and, through ``hadamard_on``, in the Hadamard basis.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

import numpy as np

from .statevec import (
    StateVector,
    apply_two_qubit,
    basis_ket,
    hadamard_all,
    hadamard_on,
    tensor_product,
    _finite,
    _integer,
    _parity,
    _record,
)

SUPPORT_CUTOFF = 1e-10
CERT_TOLERANCE = 1e-6
UNITARY_TOLERANCE = 1e-9
MAX_ROUNDS = 2**63 - 1  # the sampler's counts are int64


class ParityClass(Enum):
    EVEN_GHZ = "even"  # support = even-weight masks, uniform modulus
    ODD_GHZ = "odd"
    NEITHER = "neither"


def pm_support(state: StateVector, cutoff: float = SUPPORT_CUTOFF) -> list[tuple[int, complex]]:
    """(mask, amplitude) pairs in the |+>/|-> basis; mask bit 1 means |->."""
    _finite("cutoff", cutoff)
    amps = hadamard_all(state).amplitudes
    return [
        (int(m), complex(amps[m]))
        for m in np.nonzero(np.abs(amps) > cutoff)[0]
    ]


def parity_class(state: StateVector, tol: float = 1e-9) -> ParityClass:
    """Classify the |+>/|-> support: even-weight masks with uniform modulus,
    odd-weight ditto, or neither.  Sign patterns are allowed (bit-flip
    encodings produce them); only the moduli must be uniform."""
    _finite("tol", tol)
    n = state.n_qubits
    moduli = np.abs(hadamard_all(state).amplitudes)
    parity = _parity(np.arange(2**n))
    target = 1.0 / np.sqrt(2 ** (n - 1))
    for cls, live in ((ParityClass.EVEN_GHZ, 0), (ParityClass.ODD_GHZ, 1)):
        on = moduli[parity == live]
        off = moduli[parity != live]
        if np.max(np.abs(on - target)) <= tol and np.max(off, initial=0.0) <= tol:
            return cls
    return ParityClass.NEITHER


# ---------------------------------------------------------------------------
# Attack model


def unitarity_residual(matrix: np.ndarray) -> float:
    """max |(U^t U - 1)_ij| of a non-empty square, finite ``matrix``: 0.0 for an exact
    unitary, and math.inf, with no warning, where U^t U overflows.  A non-finite entry
    is refused: its residual would be nan or inf whatever the other entries are."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"unitarity is defined for a non-empty square matrix, got shape {m.shape}")
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise ValueError("unitarity is defined for a finite matrix, got a non-finite entry")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or nan
        gram = m.conj().T @ m
        gram.flat[:: m.shape[0] + 1] -= 1.0  # the identity's diagonal, without building it
        residual = float(np.maximum.reduce(np.abs(gram), axis=None))
    return math.inf if math.isnan(residual) else residual


@_record(eq=False)
class EveAttack:
    """A 4x4 unitary on (receiver qubit x ancilla), basis order
    {|00>, |01>, |10>, |11>} with the receiver bit first."""

    unitary: np.ndarray

    def __post_init__(self) -> None:
        # the one private copy, C-ordered whatever the input's order: the strides
        # of the branch views, and so the BLAS calls that read them, follow it
        m = np.array(self.unitary, dtype=complex, order="C")
        if m.shape != (4, 4):
            raise ValueError(f"attack must be a 4x4 matrix, got shape {m.shape}")
        if not np.logical_and.reduce(np.isfinite(m), axis=None):
            raise ValueError("attack matrix has non-finite entries")
        # no part of a unitary's entry exceeds 1; a larger one, up to float max, is
        # refused before U^t U, whose product it could overflow
        part = float(np.maximum.reduce(np.abs(m.view(float)), axis=None))
        if part > 1 + UNITARY_TOLERANCE:
            raise ValueError(
                f"attack matrix is not unitary (an entry has a part of {part:.3e} > 1)")
        residual = unitarity_residual(m)
        if not residual <= UNITARY_TOLERANCE:
            raise ValueError(f"attack matrix is not unitary (U^t U residual {residual:.3e})")
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
    return apply_two_qubit(tensor_product(state, basis_ket(1, 0)), atk.unitary, (n, n + 1))


# ---------------------------------------------------------------------------
# Exact detection probability


@_record
class DetectionReport:
    """The inconsistency probability of each check, and of a round whose basis is
    drawn uniformly."""

    computational_inconsistency: float
    hadamard_inconsistency: float
    probability: float  # with the basis drawn uniformly


def _score_marginals(p_comp: np.ndarray, p_had: np.ndarray) -> DetectionReport:
    # Sum the inconsistent mass directly: outcomes a clean state never
    # produces have exactly zero amplitude, so no 1-x cancellation noise.
    inc_comp = float(p_comp[1:-1].sum())
    inc_had = float(p_had[_parity(np.arange(p_had.size)) == 1].sum())
    return DetectionReport(inc_comp, inc_had, (inc_comp + inc_had) / 2.0)


def detection_report(state: StateVector, n_protocol: int) -> DetectionReport:
    """Exact inconsistency probability of each check on protocol qubits
    1..``n_protocol``, by enumerating every joint outcome; no sampling.  Qubits
    past ``n_protocol`` (an eavesdropper ancilla) are traced out."""
    if not 2 <= n_protocol <= state.n_qubits:
        raise ValueError(f"protocol size {n_protocol} invalid for {state.n_qubits} qubits")
    had = hadamard_on(state, range(1, n_protocol + 1))
    # qubits 1..n are the leading index bits: one row per outcome, the rest traced out
    p_comp, p_had = ((np.abs(s.amplitudes) ** 2).reshape(2**n_protocol, -1).sum(axis=1)
                     for s in (state, had))
    return _score_marginals(p_comp, p_had)


def detection_probability(state: StateVector, n_protocol: Optional[int] = None) -> float:
    """``detection_report``'s probability; ``n_protocol`` defaults to the layout
    of ``apply_eve``'s output, the protocol qubits then one ancilla.

    The default reads the last qubit as that ancilla, so a clean
    ``ghz_state(3)`` scores 0.25 up to rounding: its third qubit is left out of
    the check.
    Score an unattacked state of n qubits with ``n_protocol=n``."""
    n = state.n_qubits - 1 if n_protocol is None else n_protocol
    return detection_report(state, n).probability


def _branches(atk: EveAttack) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The attack's branch vectors (v_00, v_01, v_10, v_11), the views ``branch``
    gives, read at once: columns 0 and 2 of U are U|0>|0> and U|1>|0>."""
    u = atk.unitary
    return u[0:2, 0], u[2:4, 0], u[0:2, 2], u[2:4, 2]


def _norm2(v: np.ndarray) -> float:
    return float(np.vdot(v, v).real)


def _norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` of a complex vector, by that function's own
    formula, without its dispatch."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def detection_closed_form(attack: Optional[EveAttack], blocks: int = 1) -> DetectionReport:
    """Exact inconsistency probability of each check on a layout of ``blocks``
    blocks, from the attack's branch vectors alone; no state is built.

    On one block, of any size, P_comp = (|v_01|^2 + |v_10|^2) / 2 and P_had =
    (|v_00 - v_11|^2 + |v_01 - v_10|^2) / 4: what ``detection_report`` gives
    on ``apply_eve(ghz_state(n), attack)``, up to rounding.  Each receiver
    qubit meets the same attack with its own ancilla and a round checks every
    block in one basis, so with B blocks it fails with probability
    1 - (1 - P)^B; B = 1 returns P itself.  With no attack (None) both
    inconsistencies are exactly 0.0."""
    if _integer("blocks", blocks) < 1:
        raise ValueError(f"blocks must be >= 1, got {blocks}")
    if attack is None:
        return DetectionReport(0.0, 0.0, 0.0)
    v00, v01, v10, v11 = _branches(attack)
    comp = (_norm2(v01) + _norm2(v10)) / 2.0
    had = (_norm2(v00 - v11) + _norm2(v01 - v10)) / 4.0
    if blocks > 1:
        comp, had = 1.0 - (1.0 - comp) ** blocks, 1.0 - (1.0 - had) ** blocks
    return DetectionReport(comp, had, (comp + had) / 2.0)


# ---------------------------------------------------------------------------
# Undetectability certificate


@_record
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
    _finite("tol", tol)
    v00, v01, v10, v11 = _branches(atk)
    overlap = np.vdot(v11, v00)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-15 else 1.0
    flip_01, flip_10, mismatch_min, mismatch = map(
        _norm, (v01, v10, v00 - phase * v11, v00 - v11))
    verdict = flip_01 <= tol and flip_10 <= tol and mismatch <= tol
    return CertificateReport(flip_01, flip_10, mismatch_min, mismatch, verdict)


# ---------------------------------------------------------------------------
# Round simulation


@_record
class SimulationReport:
    """The counts and rates of a run of sampled check rounds, its verdict, and the
    exact report the rounds were drawn from."""

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
    exact: DetectionReport  # the detection_closed_form the rounds were drawn from


def security_simulation(
    n: int,
    attack: Optional[EveAttack],
    rounds: int,
    rng: np.random.Generator,
    threshold: float = 0.0,
    blocks: int = 1,
) -> SimulationReport:
    """Run independent check rounds with a uniformly random basis each, on a
    layout of ``n`` qubits in ``blocks`` blocks (the default 1: GHZ coding).

    ``exact`` is ``detection_closed_form(attack, blocks)``, and no state is
    built.  All rounds are drawn from that report at once, by three binomial
    draws from ``rng``: one splits the rounds between the bases, then one per
    basis (computational first) picks that basis's inconsistent rounds with
    its exact inconsistency.  Time and memory are constant, whatever ``n``
    and ``rounds`` are, and a fixed seed gives identical statistics.  The
    default threshold 0 aborts on any inconsistency: the model is noiseless,
    so a clean channel never produces a false positive.
    """
    if not 1 <= _integer("rounds", rounds) <= MAX_ROUNDS:
        raise ValueError(f"rounds must be in 1..{MAX_ROUNDS}, got {rounds}")
    if _integer("n", n) < 2:
        raise ValueError(f"protocol needs at least 2 qubits, got {n}")
    if not 1 <= _integer("blocks", blocks) <= n // 2:  # each block holds >= 2 qubits
        raise ValueError(f"blocks must be in 1..{n // 2} for {n} qubits, got {blocks}")
    _finite("threshold", threshold, 1.0)
    exact = detection_closed_form(attack, blocks)
    # min: an attack passes as unitary within UNITARY_TOLERANCE, so its
    # inconsistency may exceed 1 by that much, which binomial refuses
    c_rounds = int(rng.binomial(rounds, 0.5))
    c_bad = int(rng.binomial(c_rounds, min(exact.computational_inconsistency, 1.0)))
    h_rounds = rounds - c_rounds
    h_bad = int(rng.binomial(h_rounds, min(exact.hadamard_inconsistency, 1.0)))
    c_ok, h_ok = c_rounds - c_bad, h_rounds - h_bad
    detections = c_bad + h_bad
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
        exact=exact,
    )
