"""Dense pure-state simulation of qubit registers.

Conventions used throughout the package:

* Qubits are numbered 1..n and qubit 1 is the MOST significant bit of the
  amplitude index, so ``basis_ket(3, 4)`` is ``|100>`` (qubit 1 set).
* The label set for encoding operations is {I, X, Z, iY}.  ``iY`` is the
  real matrix [[0, 1], [-1, 0]] (equal to Z @ X), which keeps every state
  produced by the coding protocols real-valued.
* States are immutable; every operation returns a fresh ``StateVector``.
  Randomized operations take a ``numpy.random.Generator`` explicitly.
* Physical states are only defined up to a global phase.  Wherever two
  states must be compared "as states", ``equal_up_to_global_phase`` is the
  single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

NORM_TOLERANCE = 1e-9
PHASE_TOLERANCE = 1e-9

_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of ``n_qubits`` qubits as 2**n complex amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)  # a private copy
        if amps.size != 2**self.n_qubits:
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes for "
                f"{self.n_qubits} qubits, got {amps.size}"
            )
        norm_sq = float((np.abs(amps) ** 2).sum())
        if not abs(norm_sq - 1.0) <= NORM_TOLERANCE:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _trusted(cls, n_qubits: int, amplitudes: np.ndarray) -> "StateVector":
        """1-D kernel output already normalized: the same read-only complex copy, unchecked."""
        state = object.__new__(cls)
        state.__dict__.update(n_qubits=n_qubits, amplitudes=np.array(amplitudes, dtype=complex))
        state.amplitudes.flags.writeable = False
        return state

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qubit (axis k = qubit k+1)."""
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def __repr__(self) -> str:
        terms = []
        for idx in np.nonzero(np.abs(self.amplitudes) > 1e-12)[0][:6]:
            terms.append(f"{self.amplitudes[idx]:.4g}|{idx:0{self.n_qubits}b}>")
        body = " + ".join(terms) if terms else "0"
        return f"StateVector({body})"


class PauliLabel(Enum):
    """Single-qubit encoding operations; all four are real matrices."""

    I = "I"
    X = "X"
    Z = "Z"
    IY = "iY"

    @property
    def matrix(self) -> np.ndarray:
        return _LABEL_MATRIX[self]

    @property
    def bits(self) -> tuple[int, int]:
        """(x, z) decomposition: the label equals Z**z @ X**x up to sign."""
        return _LABEL_BITS[self]

    def __str__(self) -> str:
        return self.value


_LABEL_MATRIX = {
    PauliLabel.I: np.eye(2, dtype=complex),
    PauliLabel.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliLabel.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    PauliLabel.IY: np.array([[0, 1], [-1, 0]], dtype=complex),
}
_LABEL_BITS = {
    PauliLabel.I: (0, 0),
    PauliLabel.X: (1, 0),
    PauliLabel.Z: (0, 1),
    PauliLabel.IY: (1, 1),
}
_BITS_LABEL = {bits: label for label, bits in _LABEL_BITS.items()}


def compose_labels(a: PauliLabel, b: PauliLabel) -> PauliLabel:
    """Product of two labels modulo sign (the group is Klein-four)."""
    ax, az = a.bits
    bx, bz = b.bits
    return _BITS_LABEL[(ax ^ bx, az ^ bz)]


@dataclass(frozen=True)
class PauliString:
    """An ordered list of labels, one per targeted qubit (1-based indices)."""

    labels: tuple[PauliLabel, ...]
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "targets", tuple(self.targets))
        if len(self.labels) != len(self.targets):
            raise ValueError("labels and targets must have equal length")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate target qubits in {self.targets}")
        if any(q < 1 for q in self.targets):
            raise ValueError(f"qubit indices are 1-based, got {self.targets}")

    def label_on(self, qubit: int) -> PauliLabel:
        for lab, q in zip(self.labels, self.targets):
            if q == qubit:
                return lab
        return PauliLabel.I

    def restricted_to(self, qubits: Sequence[int]) -> "PauliString":
        """The sub-string acting on ``qubits`` (identity labels kept)."""
        return PauliString(tuple(self.label_on(q) for q in qubits), tuple(qubits))

    def __str__(self) -> str:
        return "⊗".join(lab.value for lab in self.labels)


def _parity(v: np.ndarray) -> np.ndarray:
    """popcount(v) mod 2 for non-negative int64 v: each nibble's parity into
    its low bit, then one wrapping product sums the nibbles into the top."""
    v = v ^ (v >> 1)
    v = v ^ (v >> 2)
    return (((v & 0x1111111111111111) * 0x1111111111111111) >> 60) & 1


def basis_ket(n: int, index: int) -> StateVector:
    """Computational basis state |index> on an n-qubit register."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def ghz_state(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on n >= 2 qubits."""
    if n < 2:
        raise ValueError(f"GHZ state needs at least 2 qubits, got {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = _SQRT_HALF
    return StateVector(n, amps)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Combined register with a's qubits in the high (leading) positions."""
    return StateVector(a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes))


def _check_targets(n: int, qubits: Iterable[int]) -> None:
    bad = [q for q in qubits if not 1 <= q <= n]
    if bad:
        raise ValueError(f"target qubits {bad} outside register 1..{n}")


def apply_pauli_string(state: StateVector, ps: PauliString) -> StateVector:
    """Apply each label to its qubit.

    I: identity.  X: flip the bit.  Z: negate amplitudes with bit = 1.
    iY: flip the bit and negate the amplitude that came from bit = 0.
    """
    _check_targets(state.n_qubits, ps.targets)
    t = state.tensor().copy()
    for label, qubit in zip(ps.labels, ps.targets):
        ax = qubit - 1
        if label is PauliLabel.I:
            continue
        if label in (PauliLabel.X, PauliLabel.IY):
            t = np.flip(t, axis=ax)
        if label in (PauliLabel.Z, PauliLabel.IY):
            # After the iY flip, the amplitudes that must pick up the minus
            # sign (source bit 0) sit in the bit = 1 slice, same as plain Z.
            sl = [slice(None)] * state.n_qubits
            sl[ax] = 1
            t[tuple(sl)] = -t[tuple(sl)]
    return StateVector(state.n_qubits, t.reshape(-1))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in ``a``."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"dimension mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def hadamard_on(state: StateVector, qubits: Iterable[int]) -> StateVector:
    """Hadamard applied to the given qubits."""
    qs = sorted(set(qubits))
    _check_targets(state.n_qubits, qs)
    t = state.tensor()
    for q in qs:
        ax = q - 1
        lo = np.take(t, 0, axis=ax)
        hi = np.take(t, 1, axis=ax)
        t = np.stack(((lo + hi) * _SQRT_HALF, (lo - hi) * _SQRT_HALF), axis=ax)
    return StateVector(state.n_qubits, t.reshape(-1))


def hadamard_all(state: StateVector) -> StateVector:
    """Rewrite into the |+>/|-> basis: bit 0 of the result means |+>, bit 1
    means |->.  Self-inverse."""
    return hadamard_on(state, range(1, state.n_qubits + 1))


def apply_two_qubit(state: StateVector, matrix: np.ndarray, qubits: tuple[int, int]) -> StateVector:
    """Apply a 4x4 matrix to an ordered qubit pair (first qubit = high bit)."""
    q1, q2 = qubits
    if q1 == q2:
        raise ValueError("two-qubit gate needs two distinct qubits")
    _check_targets(state.n_qubits, (q1, q2))
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    n = state.n_qubits
    t = state.tensor()
    t = np.moveaxis(t, (q1 - 1, q2 - 1), (0, 1))
    shape = t.shape
    t = m @ t.reshape(4, -1)
    t = np.moveaxis(t.reshape(shape), (0, 1), (q1 - 1, q2 - 1))
    return StateVector(n, t.reshape(-1))


def _marginal_probabilities(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Exact outcome distribution for measuring ``qubits`` (ascending order,
    first listed qubit = most significant outcome bit)."""
    n = state.n_qubits
    others = [q for q in range(1, n + 1) if q not in qubits]
    probs = np.abs(state.tensor()) ** 2
    perm = [q - 1 for q in qubits] + [q - 1 for q in others]
    marginal = probs.transpose(perm).reshape(2 ** len(qubits), -1).sum(axis=1)
    return marginal


def measure_qubits(
    state: StateVector, qubits: Iterable[int], rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Projective measurement of a qubit subset in the computational basis.

    Returns ``(outcome, collapsed)``.  The outcome packs the measured bits in
    ascending qubit order (lowest qubit index = most significant bit).  The
    collapsed state keeps the full register, with the measured qubits frozen
    at their outcome values, and is renormalized.
    """
    qs = sorted(set(qubits))
    if not qs:
        raise ValueError("measurement needs a non-empty qubit set")
    _check_targets(state.n_qubits, qs)
    marginal = _marginal_probabilities(state, qs)
    total = marginal.sum()
    outcome = int(rng.choice(marginal.size, p=marginal / total))
    t = state.tensor().copy()
    for pos, q in enumerate(qs):
        bit = (outcome >> (len(qs) - 1 - pos)) & 1
        sl = [slice(None)] * state.n_qubits
        sl[q - 1] = 1 - bit
        t[tuple(sl)] = 0.0
    flat = t.reshape(-1)
    norm = np.linalg.norm(flat)
    if norm < 1e-12:
        raise RuntimeError(
            f"measurement outcome {outcome} has no probability mass; "
            "state and marginals are inconsistent"
        )
    return outcome, StateVector(state.n_qubits, flat / norm)


def permute_qubits(state: StateVector, perm: Sequence[int]) -> StateVector:
    """Reorder qubits; ``perm[i]`` is the new position of qubit i+1."""
    n = state.n_qubits
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{n}")
    axes = [0] * n
    for src, dst in enumerate(perm):
        axes[dst - 1] = src
    return StateVector(n, state.tensor().transpose(axes).reshape(-1))


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = PHASE_TOLERANCE) -> bool:
    """True when a = exp(i theta) b for some phase, entrywise within tol."""
    if a.n_qubits != b.n_qubits:
        return False
    overlap = np.vdot(b.amplitudes, a.amplitudes)
    if abs(overlap) < 1e-12:
        return False
    phase = overlap / abs(overlap)
    return bool(np.max(np.abs(a.amplitudes - phase * b.amplitudes)) <= tol)
