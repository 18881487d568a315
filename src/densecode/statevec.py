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

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Sequence

import numpy as np

NORM_TOLERANCE = 1e-9
PHASE_TOLERANCE = 1e-9
CHUNK = 2**14  # amplitudes per weighed chunk of a state's copy: 256 KiB, within L2

_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _integer(name: str, value: Any) -> int:
    """An integer count or index ``value`` as an int, else a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _finite(name: str, value: float, high: float = math.inf) -> None:
    """Refuse a tolerance or threshold ``value`` outside [0, ``high``], naming ``name``."""
    if not (math.isfinite(value) and 0 <= value <= high):
        span = f"in [0, {high:g}]" if math.isfinite(high) else ">= 0"
        raise ValueError(f"{name} must be a finite number {span}, got {value!r}")


# An input of this many amplitudes or more whose first chunk holds only zero bits
# is copied into np.zeros, which leaves the pages of every chunk of zero bits
# untouched.  A smaller array comes from warm heap memory, which np.zeros must
# clear: with the floor at 2**15, a GHZ code word's receive and decode took 8, 24
# and 11 us longer at 2**15, 2**16 and 2**17 amplitudes (medians of 7 pairs of
# cold calls, two shared x86-64 cores).
_SPARSE = 2**18


def _bits(src: np.ndarray) -> np.ndarray | None:
    """The bits of a contiguous numeric ``src`` as unsigned ints, one row per
    amplitude, so that a slice of rows is all zero bits exactly when its max is 0;
    None for any other input: an object array, whose items are references, or a
    strided one, which no view of another item size can read."""
    if src.dtype.kind not in "biufc" or not src.flags.c_contiguous:
        return None
    return src.view(f"u{math.gcd(src.dtype.itemsize, 8)}").reshape(src.size, -1)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of ``n_qubits`` qubits as 2**n complex amplitudes.

    The state keeps a private, read-only, C-ordered complex copy of the amplitudes
    and ``_chunk_weights``, the |psi|^2 of each ``CHUNK`` of that copy in order,
    which a decode's scan reads to skip the chunks too light to stop it.  A state
    of one chunk is copied whole by np.array.  A larger one is copied from the
    C-order ravel of its input a chunk at a time, and each chunk is weighed right
    after its copy, while it is still in L2: the norm takes no second pass through
    memory.  A contiguous numeric input of at least ``_SPARSE`` amplitudes whose
    first chunk holds only zero bits, as most code words of a large layout do, is
    copied into np.zeros instead, and each chunk of zero bits is left unwritten
    with weight 0.0, so its pages are never touched: the copy, the weights and the
    norm are bitwise the same.  |psi|^2, the weights' sum from the left, must lie within
    NORM_TOLERANCE of 1."""

    n_qubits: int
    amplitudes: np.ndarray
    _chunk_weights: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if _integer("n_qubits", self.n_qubits) < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        size = 2**self.n_qubits
        many = size > CHUNK
        src = (np.ravel(self.amplitudes) if many  # C order, as np.array reads it
               else np.array(self.amplitudes, dtype=complex, order="C").reshape(-1))
        if src.size != size:
            raise ValueError(
                f"expected {size} amplitudes for {self.n_qubits} qubits, got {src.size}"
            )
        bits = _bits(src) if size >= _SPARSE else None
        sparse = bits is not None and not bits[:CHUNK].max()  # the max is a SIMD pass
        amps = (np.zeros(size, dtype=complex) if sparse  # the private copy
                else np.empty(size, dtype=complex) if many else src)
        flat = part = amps.view(float)  # real and imaginary parts: |psi|^2 in one pass
        weights, norm_sq, i = (), 0.0, 0
        while i < size:  # not a for over a range, which costs a small state 0.5 us cold
            if sparse and not bits[i:i + CHUNK].max():
                weight = 0.0  # +0.0 in the input and in np.zeros: the copy is made
            else:
                if many:
                    amps[i:i + CHUNK] = src[i:i + CHUNK]
                    part = flat[2 * i:2 * (i + CHUNK)]
                # vdot runs the same dot product as part @ part, but raises no overflow
                # warning: a norm that overflows to inf is refused just below
                weight = float(np.vdot(part, part))
            weights += (weight,)
            norm_sq += weight
            i += CHUNK
        if not abs(norm_sq - 1.0) <= NORM_TOLERANCE:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_chunk_weights", weights)

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
    def bits(self) -> tuple[int, int]:
        """(x, z) decomposition: the label equals Z**z @ X**x up to sign."""
        return _LABEL_BITS[self]

    def __str__(self) -> str:
        return self.value


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
        object.__setattr__(self, "targets", tuple(_integer("target", q) for q in self.targets))
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
    if _integer("n", n) < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    if not 0 <= _integer("index", index) < 2**n:
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def ghz_state(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on n >= 2 qubits."""
    if _integer("n", n) < 2:
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


def _butterfly(t: np.ndarray, strides: Iterable[int]) -> np.ndarray:
    """A Hadamard on the index bit of each stride of ``t``'s last axis, in the
    order given: each pair (lo, hi) at that stride becomes (lo + hi, lo - hi)
    times sqrt(1/2), in an array of ``t``'s shape."""
    shape = t.shape
    for stride in strides:
        v = t.reshape(-1, 2, stride)
        lo, hi = v[:, :1], v[:, 1:]
        t = np.concatenate((lo + hi, lo - hi), axis=1) * _SQRT_HALF
    return t.reshape(shape)


def hadamard_on(state: StateVector, qubits: Iterable[int]) -> StateVector:
    """Hadamard applied to the given qubits."""
    n = state.n_qubits
    qs = sorted(set(qubits))
    _check_targets(n, qs)
    return StateVector(n, _butterfly(state.amplitudes, [2 ** (n - q) for q in qs]))


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


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = PHASE_TOLERANCE) -> bool:
    """True when a = exp(i theta) b for some phase, entrywise within tol."""
    _finite("tol", tol)
    if a.n_qubits != b.n_qubits:
        return False
    overlap = np.vdot(b.amplitudes, a.amplitudes)
    if abs(overlap) < 1e-12:
        return False
    phase = overlap / abs(overlap)
    return bool(np.max(np.abs(a.amplitudes - phase * b.amplitudes)) <= tol)
