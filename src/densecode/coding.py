"""Encoding and decoding for the dense-coding protocols.

All three protocols are one block layout, the distributed scheme D(N, k): N
message bits on N qubits, one GHZ block followed by Bell pairs, each block
laid out (sender qubits..., receiver qubit), qubit 1 = most significant bit.
GHZ coding is D(N, N-1), one GHZ block, and Bell-pair coding is D(2P, 1),
P two-qubit blocks; their names here are thin wrappers that build that
layout.  Each step has one implementation, in the ``dnk_*`` functions.

The bit rule is the same for every block: its first qubit q carries
Z^b_q X^b_(q+1) (00->I, 01->X, 10->Z, 11->iY) and every later sender qubit q
carries X^b_(q+1).  These canonical representatives make message -> state a
function; on a GHZ block the remaining operator freedom is exactly
multiplication by an even number of Z factors (see ``pauli_equivalent``).

Decoding is implemented two ways that must agree: a brute-force overlap
against the full code basis, and a fast disentangling circuit (CNOT fan-out
from the first qubit of each block, then Hadamard on it, then a bit-map
inversion).  For a GHZ block the circuit turns the encoded state into the
computational ket z with  b1 = z_1,  b2 = z_g,  b_{j+1} = z_j xor z_g.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .statevec import (
    PauliLabel,
    PauliString,
    StateVector,
    _mask_parity,
    apply_pauli_string,
    compose_labels,
    ghz_state,
    tensor_product,
)

#: decode rejects states whose best code-basis overlap magnitude is below this
OVERLAP_THRESHOLD = 1.0 - 1e-6

#: the label Z**z X**x for bits (z, x)
_ZX_LABEL = {
    (0, 0): PauliLabel.I,
    (0, 1): PauliLabel.X,
    (1, 0): PauliLabel.Z,
    (1, 1): PauliLabel.IY,
}


class NoMatchError(Exception):
    """Raised when a state is not close to any code-basis state."""

    def __init__(self, message: str, best_overlap: float, blocks: tuple[str, ...] = ()):
        super().__init__(message)
        self.best_overlap = best_overlap
        self.blocks = blocks


@dataclass(frozen=True)
class Message:
    """Classical bit string of length >= 2."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(int(b) for b in self.bits)
        object.__setattr__(self, "bits", bits)
        if len(bits) < 2:
            raise ValueError(f"messages need at least 2 bits, got {len(bits)}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"message bits must be 0 or 1: {bits}")

    @classmethod
    def from_string(cls, text: str) -> "Message":
        if not set(text) <= {"0", "1"}:
            raise ValueError(f"message must contain only 0 and 1: {text!r}")
        return cls(tuple(int(c) for c in text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)


MessageLike = Union[Message, str, Sequence[int]]


def as_message(msg: MessageLike) -> Message:
    if isinstance(msg, Message):
        return msg
    if isinstance(msg, str):
        return Message.from_string(msg)
    return Message(tuple(msg))


def all_messages(n: int) -> list[Message]:
    """All 2**n messages in integer (lexicographic) order."""
    return [Message(bits) for bits in itertools.product((0, 1), repeat=n)]


# ---------------------------------------------------------------------------
# The layout D(N, k)


@dataclass(frozen=True)
class PartyShare:
    """One sender's qubits and the message-bit positions they carry."""

    party: int
    qubits: tuple[int, ...]
    bits: tuple[int, ...]


def _blocks(ghz_size: int, n_qubits: int) -> tuple[tuple[int, ...], ...]:
    return (tuple(range(1, ghz_size + 1)),) + tuple(
        (q, q + 1) for q in range(ghz_size + 1, n_qubits, 2)
    )


@dataclass(frozen=True)
class DnkSpec:
    """Layout of the distributed scheme for ``n_bits`` bits and ``n_senders``
    senders: one GHZ block followed by Bell pairs, receiver qubits at the end
    of each block."""

    n_bits: int
    n_senders: int
    ghz_size: int
    bell_pairs: int
    shares: tuple[PartyShare, ...]
    bob_qubits: tuple[int, ...]

    @property
    def n_qubits(self) -> int:
        return self.n_bits

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The GHZ block, then each Bell pair, as 1-based qubit tuples."""
        return _blocks(self.ghz_size, self.n_bits)

    @property
    def alice_qubits(self) -> tuple[int, ...]:
        return tuple(q for share in self.shares for q in share.qubits)


def dnk_spec(n_bits: int, n_senders: int) -> DnkSpec:
    """Build the D(N, k) layout.

    The GHZ block has size max(2, 2(k+1)-N) for even N and max(3, 2(k+1)-N)
    for odd N; the remaining bits ride on (N - ghz_size)/2 Bell pairs.
    Senders receive contiguous runs of whole sender qubits, sized as evenly
    as possible, and with them the message bits those qubits carry under the
    bit rule of ``dnk_combined_string``.
    """
    if n_bits < 2:
        raise ValueError(f"need at least 2 message bits, got {n_bits}")
    if not 1 <= n_senders <= n_bits - 1:
        raise ValueError(
            f"sender count must be in 1..{n_bits - 1}, got {n_senders}"
        )
    floor_size = 2 if n_bits % 2 == 0 else 3
    g = max(floor_size, 2 * (n_senders + 1) - n_bits)
    blocks = _blocks(g, n_bits)
    leads = {block[0] for block in blocks}
    sender_qubits = [q for block in blocks for q in block[:-1]]

    base, extra = divmod(len(sender_qubits), n_senders)
    shares = []
    cursor = 0
    for party in range(1, n_senders + 1):
        size = base + (1 if party <= extra else 0)
        qubits = tuple(sender_qubits[cursor : cursor + size])
        cursor += size
        bits = tuple(b for q in qubits for b in ((q, q + 1) if q in leads else (q + 1,)))
        shares.append(PartyShare(party, qubits, bits))

    bob = tuple(block[-1] for block in blocks)
    return DnkSpec(n_bits, n_senders, g, len(blocks) - 1, tuple(shares), bob)


# ---------------------------------------------------------------------------
# Encoding


def dnk_combined_string(msg: MessageLike, spec: DnkSpec) -> PauliString:
    """The encoding operator over all sender qubits, before the party split.

    The one bit rule: a block's first qubit q carries Z^b_q X^b_(q+1), and
    every later sender qubit q carries X^b_(q+1), where b_q is message bit q
    (1-based).
    """
    m = as_message(msg)
    if len(m) != spec.n_bits:
        raise ValueError(
            f"message has {len(m)} bits, layout expects {spec.n_bits}"
        )
    b = (0,) + m.bits
    leads = {block[0] for block in spec.blocks}
    labels = tuple(
        _ZX_LABEL[(b[q] if q in leads else 0, b[q + 1])] for q in spec.alice_qubits
    )
    return PauliString(labels, spec.alice_qubits)


def dnk_encode(msg: MessageLike, spec: DnkSpec) -> dict[int, PauliString]:
    """Per-party encoding operators, each strictly local to that party."""
    full = dnk_combined_string(msg, spec)
    return {share.party: full.restricted_to(share.qubits) for share in spec.shares}


def dnk_state(spec: DnkSpec) -> StateVector:
    """The shared resource: one GHZ state per block, in register order."""
    first, *rest = spec.blocks
    state = ghz_state(len(first))
    for block in rest:
        state = tensor_product(state, ghz_state(len(block)))
    return state


def dnk_encoded_state(msg: MessageLike, spec: DnkSpec) -> StateVector:
    """Resource state after every sender applied its local operator.

    The parties' strings act on disjoint qubits, so applying their product,
    the combined string, in one pass gives the same amplitudes.
    """
    combined = dnk_combined_string(msg, spec)
    return apply_pauli_string(dnk_state(spec), combined)


# ---------------------------------------------------------------------------
# Code bases


@dataclass(frozen=True)
class GramReport:
    n_bits: int
    dimension: int
    max_off_diagonal: float
    max_diagonal_deviation: float

    def residual(self) -> float:
        return max(self.max_off_diagonal, self.max_diagonal_deviation)


@dataclass(frozen=True, eq=False)
class CodeBasis:
    """All 2**n code words of a layout, row-stacked for fast overlaps."""

    spec: DnkSpec
    states: np.ndarray  # real, shape (2**n, 2**n), row i = word of message i

    @property
    def n_qubits(self) -> int:
        return self.spec.n_qubits

    @property
    def messages(self) -> tuple[Message, ...]:
        """The message of each row, in integer order."""
        return tuple(all_messages(self.n_qubits))

    def state_for(self, msg: MessageLike) -> StateVector:
        m = as_message(msg)
        idx = int(str(m), 2)
        return StateVector(self.n_qubits, self.states[idx])

    def strings_for(self, msg: MessageLike) -> tuple[PauliString, ...]:
        return (dnk_combined_string(msg, self.spec),)

    def gram(self) -> np.ndarray:
        return self.states @ self.states.T

    def gram_report(self) -> GramReport:
        """The Gram matrix of the code words against the identity."""
        gram = self.gram()
        deviation = float(np.max(np.abs(np.diag(gram) - 1.0)))
        np.fill_diagonal(gram, 0.0)
        return GramReport(
            n_bits=self.n_qubits,
            dimension=2**self.n_qubits,
            max_off_diagonal=float(np.max(np.abs(gram))),
            max_diagonal_deviation=deviation,
        )


MAX_BASIS_BITS = 10  # a full code basis is a 2**n x 2**n dense matrix


def _check_basis_size(n: int) -> None:
    if not 2 <= n <= MAX_BASIS_BITS:
        raise ValueError(
            f"full code bases are supported for 2..{MAX_BASIS_BITS} bits, got {n}; "
            "use the circuit decode for larger registers"
        )


def _word_masks(spec: DnkSpec) -> tuple[np.ndarray, np.ndarray]:
    """X- and Z-masks of every message's combined string, in closed form.

    Bit b_q of message i sits at index bit n - q, like qubit q.  The bit rule
    puts X^b_(q+1) on every sender qubit q and Z^b_q on every block's first
    qubit, so message i has X-mask (i << 1) & senders and Z-mask i & leads.
    """
    n = spec.n_qubits
    senders = sum(1 << (n - q) for q in spec.alice_qubits)
    leads = sum(1 << (n - block[0]) for block in spec.blocks)
    msgs = np.arange(2**n)
    return (msgs << 1) & senders, msgs & leads


@functools.lru_cache(maxsize=8)
def dnk_code_basis(n_bits: int, n_senders: int) -> CodeBasis:
    """Every code word of D(n_bits, n_senders) at once, by index arithmetic.

    A combined string is Z**z X**x for an X-mask x and a Z-mask z (iY = ZX,
    and labels on distinct qubits commute), so the code word's amplitude at
    index c is (-1)**popcount(c & z) * psi[c ^ x].
    """
    _check_basis_size(n_bits)
    spec = dnk_spec(n_bits, n_senders)
    xmask, zmask = _word_masks(spec)
    cols = np.arange(2**n_bits)
    sign = 1.0 - 2.0 * _mask_parity(n_bits)
    psi = dnk_state(spec).amplitudes.real  # every protocol state is real
    states = sign[cols & zmask[:, None]] * psi[cols ^ xmask[:, None]]
    states.flags.writeable = False
    return CodeBasis(spec, states)


# ---------------------------------------------------------------------------
# Decoding


def _overlap_decode(basis: CodeBasis, state: StateVector) -> Message:
    amps = state.amplitudes  # code words are real: <s|psi> = s.re + i s.im
    overlaps = np.hypot(basis.states @ amps.real, basis.states @ amps.imag)
    best = int(np.argmax(overlaps))
    if overlaps[best] < OVERLAP_THRESHOLD:
        raise NoMatchError(
            f"state matches no code word (best overlap {overlaps[best]:.6f})",
            float(overlaps[best]),
        )
    return Message.from_string(format(best, f"0{basis.n_qubits}b"))


def _disentangle_block(t: np.ndarray, n: int, block: Sequence[int]) -> np.ndarray:
    """CNOT fan-out from the block's first qubit, then Hadamard on it."""
    control_ax = block[0] - 1
    for q in block[1:]:
        sl = [slice(None)] * n
        sl[control_ax] = 1
        target_ax = q - 1 - (1 if q - 1 > control_ax else 0)
        t[tuple(sl)] = np.flip(t[tuple(sl)], axis=target_ax).copy()
    lo = np.take(t, 0, axis=control_ax)
    hi = np.take(t, 1, axis=control_ax)
    return np.stack((lo + hi, lo - hi), axis=control_ax) / np.sqrt(2.0)


def _invert_block_bits(z: Sequence[int]) -> list[int]:
    """Message bits of one block from its disentangled computational bits."""
    g = len(z)
    if g == 2:
        return [z[0], z[1]]
    return [z[0], z[-1]] + [z[j] ^ z[-1] for j in range(1, g - 1)]


def _circuit_decode(state: StateVector, blocks: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """Disentangle every block, read the surviving ket, invert per block.

    Returns the per-block message bits; raises ``NoMatchError`` naming the
    blocks whose outcome is not sharp when the state is off the code basis
    ("ghz" for a block of 3 or more qubits, "pair1", "pair2", ... for the
    2-qubit blocks in order).
    """
    n = state.n_qubits
    t = state.tensor().copy()
    for block in blocks:
        t = _disentangle_block(t, n, block)
    flat = t.reshape(-1)
    idx = int(np.argmax(np.abs(flat)))
    overlap = float(np.abs(flat[idx]))
    if overlap < OVERLAP_THRESHOLD:
        probs = np.abs(t) ** 2
        pair_number = itertools.count(1)
        suspects = []
        for block in blocks:
            name = "ghz" if len(block) > 2 else f"pair{next(pair_number)}"
            other = tuple(ax for ax in range(n) if ax + 1 not in block)
            marginal = probs.sum(axis=other) if other else probs
            if float(marginal.max()) < OVERLAP_THRESHOLD**2:
                suspects.append(name)
        raise NoMatchError(
            f"state matches no code word (best overlap {overlap:.6f}; "
            f"suspect blocks: {', '.join(suspects) or 'none isolated'})",
            overlap,
            tuple(suspects),
        )
    z = [(idx >> (n - q)) & 1 for q in range(1, n + 1)]
    return [_invert_block_bits([z[q - 1] for q in block]) for block in blocks]


def dnk_decode(state: StateVector, spec: DnkSpec, method: str = "circuit") -> Message:
    """Joint decode: every block of the layout, concatenated in bit order."""
    if state.n_qubits != spec.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, layout expects {spec.n_qubits}"
        )
    if method == "overlap":
        return _overlap_decode(dnk_code_basis(spec.n_bits, spec.n_senders), state)
    if method != "circuit":
        raise ValueError(f"unknown decode method {method!r}")
    per_block = _circuit_decode(state, spec.blocks)
    return Message(tuple(itertools.chain.from_iterable(per_block)))


# ---------------------------------------------------------------------------
# GHZ coding, D(N, N-1)


def _ghz_layout(msg: MessageLike) -> tuple[Message, DnkSpec]:
    m = as_message(msg)
    return m, dnk_spec(len(m), len(m) - 1)


def encode_ghz(msg: MessageLike) -> PauliString:
    """Canonical encoding operator on qubits 1..N-1 for an N-bit message."""
    return dnk_combined_string(*_ghz_layout(msg))


def encoded_state(msg: MessageLike) -> StateVector:
    """The code-basis state carrying ``msg`` (GHZ protocol)."""
    return dnk_encoded_state(*_ghz_layout(msg))


def decode_ghz(state: StateVector, method: str = "circuit") -> Message:
    """Recover the message carried by a GHZ-protocol code state."""
    n = state.n_qubits
    return dnk_decode(state, dnk_spec(n, n - 1), method)


def ghz_code_basis(n: int) -> CodeBasis:
    return dnk_code_basis(n, n - 1)


def pauli_equivalent(a: PauliString, b: PauliString, n: int) -> bool:
    """Whether two encoding strings act identically on the n-qubit GHZ state
    up to global phase.

    That holds exactly when the per-qubit product of the two strings reduces
    to a tensor of {I, Z} with an even number of Z factors: even-weight Z
    strings on the sender qubits stabilize the GHZ state, while any X or iY
    component moves its support and a lone Z flips the relative sign.
    """
    for ps in (a, b):
        if any(q >= n for q in ps.targets):
            raise ValueError(f"encoding strings act on qubits 1..{n - 1}")
    z_count = 0
    for q in range(1, n):
        prod = compose_labels(a.label_on(q), b.label_on(q))
        if prod in (PauliLabel.X, PauliLabel.IY):
            return False
        if prod is PauliLabel.Z:
            z_count += 1
    return z_count % 2 == 0


def verify_code_orthonormality(n: int) -> GramReport:
    """Gram matrix of all 2**n GHZ code states against the identity."""
    return ghz_code_basis(n).gram_report()


# ---------------------------------------------------------------------------
# Bell-pair coding, D(2P, 1)


def _bell_layout(msg: MessageLike) -> tuple[Message, DnkSpec]:
    m = as_message(msg)
    if len(m) % 2:
        raise ValueError(f"Bell-pair coding needs an even message length, got {len(m)}")
    return m, dnk_spec(len(m), 1)


def encode_bell(msg: MessageLike) -> list[PauliString]:
    """Per-pair encoding operators; pair p acts on its sender half 2p-1."""
    full = dnk_combined_string(*_bell_layout(msg))
    return [full.restricted_to((q,)) for q in full.targets]


def bell_pairs_state(n_pairs: int) -> StateVector:
    """Product of Bell pairs, each laid out (sender half, receiver half)."""
    if n_pairs < 1:
        raise ValueError("need at least one Bell pair")
    return dnk_state(dnk_spec(2 * n_pairs, 1))


def encoded_bell_state(msg: MessageLike) -> StateVector:
    return dnk_encoded_state(*_bell_layout(msg))


def decode_bell(state: StateVector, method: str = "circuit") -> Message:
    """Recover the message from a product of encoded Bell pairs."""
    n = state.n_qubits
    if n % 2:
        raise ValueError(f"Bell-pair register must have even size, got {n}")
    return dnk_decode(state, dnk_spec(n, 1), method)


def bell_code_basis(n_pairs: int) -> CodeBasis:
    return dnk_code_basis(2 * n_pairs, 1)
