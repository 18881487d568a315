"""Encoding and decoding for the dense-coding protocols.

Three schemes share one register convention (qubit 1 = most significant bit,
receiver qubits interleaved as described below):

* GHZ coding: an N-bit message is encoded on the first N-1 qubits of an
  N-qubit GHZ state.  The first qubit's label comes from bits (b1, b2) via
  00->I, 01->X, 10->Z, 11->iY; every later sender qubit i carries bit b_{i+1}
  via 0->I, 1->X.  These canonical representatives make message -> state a
  function; the remaining operator freedom is exactly multiplication by an
  even number of Z factors (see ``pauli_equivalent``).
* Bell-pair coding: a message of even length 2P is encoded pairwise on P
  Bell pairs laid out as (sender half, receiver half) per pair, using the
  same 2-bit label map on each sender half.
* Distributed coding D(N, k): N message bits split across k senders, using
  one GHZ block tensored with Bell pairs.  ``dnk_spec`` fixes the layout.

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
from typing import Callable, Iterable, Sequence, Union

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

_FIRST_QUBIT_LABEL = {
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
# GHZ coding


def encode_ghz(msg: MessageLike) -> PauliString:
    """Canonical encoding operator on qubits 1..N-1 for an N-bit message."""
    m = as_message(msg)
    n = len(m)
    labels = [_FIRST_QUBIT_LABEL[(m.bits[0], m.bits[1])]]
    labels += [PauliLabel.X if m.bits[i + 1] else PauliLabel.I for i in range(1, n - 1)]
    return PauliString(tuple(labels), tuple(range(1, n)))


def encoded_state(msg: MessageLike) -> StateVector:
    """The code-basis state carrying ``msg`` (GHZ protocol)."""
    m = as_message(msg)
    return apply_pauli_string(ghz_state(len(m)), encode_ghz(m))


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


# ---------------------------------------------------------------------------
# Code bases and brute-force decoding


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
    """All 2**n encoded states of a protocol, row-stacked for fast overlaps."""

    n_qubits: int
    messages: tuple[Message, ...]
    strings: tuple[tuple[PauliString, ...], ...]
    states: np.ndarray  # real, shape (2**n, 2**n), row i = state for messages[i]

    def state_for(self, msg: MessageLike) -> StateVector:
        m = as_message(msg)
        idx = int(str(m), 2)
        return StateVector(self.n_qubits, self.states[idx])

    def strings_for(self, msg: MessageLike) -> tuple[PauliString, ...]:
        return self.strings[int(str(as_message(msg)), 2)]

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


def _code_basis(
    resource: StateVector, encode: Callable[[Message], Iterable[PauliString]]
) -> CodeBasis:
    """Every code word of ``resource`` at once, by index arithmetic.

    The strings of one message act on distinct qubits, so together they are
    Z**z X**x for an X-mask x and a Z-mask z (iY = ZX, and labels on distinct
    qubits commute).  The code word's amplitude at index c is therefore
    (-1)**popcount(c & z) * psi[c ^ x].
    """
    n = resource.n_qubits
    msgs = all_messages(n)
    strings = tuple(tuple(encode(m)) for m in msgs)
    xmask, zmask = [], []
    for per_message in strings:
        x = z = 0
        for ps in per_message:
            for label, q in zip(ps.labels, ps.targets):
                lx, lz = label.bits
                x |= lx << (n - q)
                z |= lz << (n - q)
        xmask.append(x)
        zmask.append(z)
    cols = np.arange(2**n)
    sign = 1.0 - 2.0 * _mask_parity(n)
    psi = resource.amplitudes.real  # every protocol state is real
    states = sign[cols & np.array(zmask)[:, None]] * psi[cols ^ np.array(xmask)[:, None]]
    states.flags.writeable = False
    return CodeBasis(n, tuple(msgs), strings, states)


@functools.lru_cache(maxsize=6)
def ghz_code_basis(n: int) -> CodeBasis:
    _check_basis_size(n)
    return _code_basis(ghz_state(n), lambda m: (encode_ghz(m),))


@functools.lru_cache(maxsize=6)
def bell_code_basis(n_pairs: int) -> CodeBasis:
    _check_basis_size(2 * n_pairs)
    return _code_basis(bell_pairs_state(n_pairs), encode_bell)


def _overlap_decode(basis: CodeBasis, state: StateVector) -> Message:
    if state.n_qubits != basis.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, code basis {basis.n_qubits}"
        )
    amps = state.amplitudes  # code words are real: <s|psi> = s.re + i s.im
    overlaps = np.hypot(basis.states @ amps.real, basis.states @ amps.imag)
    best = int(np.argmax(overlaps))
    if overlaps[best] < OVERLAP_THRESHOLD:
        raise NoMatchError(
            f"state matches no code word (best overlap {overlaps[best]:.6f})",
            float(overlaps[best]),
        )
    return basis.messages[best]


# ---------------------------------------------------------------------------
# Fast-circuit decoding


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


def _circuit_decode(
    state: StateVector, blocks: Sequence[tuple[int, ...]], block_names: Sequence[str]
) -> list[list[int]]:
    """Disentangle every block, read the surviving ket, invert per block.

    Returns the per-block message bits; raises ``NoMatchError`` naming the
    blocks whose outcome is not sharp when the state is off the code basis.
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
        suspects = []
        for block, name in zip(blocks, block_names):
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


def decode_ghz(state: StateVector, method: str = "circuit") -> Message:
    """Recover the message carried by a GHZ-protocol code state."""
    n = state.n_qubits
    if method == "overlap":
        return _overlap_decode(ghz_code_basis(n), state)
    if method != "circuit":
        raise ValueError(f"unknown decode method {method!r}")
    bits = _circuit_decode(state, [tuple(range(1, n + 1))], ["ghz"])
    return Message(tuple(bits[0]))


# ---------------------------------------------------------------------------
# Bell-pair coding (even-length messages)


def encode_bell(msg: MessageLike) -> list[PauliString]:
    """Per-pair encoding operators; pair p acts on its sender half 2p-1."""
    m = as_message(msg)
    if len(m) % 2:
        raise ValueError(f"Bell-pair coding needs an even message length, got {len(m)}")
    out = []
    for p in range(len(m) // 2):
        label = _FIRST_QUBIT_LABEL[(m.bits[2 * p], m.bits[2 * p + 1])]
        out.append(PauliString((label,), (2 * p + 1,)))
    return out


def bell_pairs_state(n_pairs: int) -> StateVector:
    """Product of Bell pairs, each laid out (sender half, receiver half)."""
    if n_pairs < 1:
        raise ValueError("need at least one Bell pair")
    state = ghz_state(2)
    for _ in range(n_pairs - 1):
        state = tensor_product(state, ghz_state(2))
    return state


def encoded_bell_state(msg: MessageLike) -> StateVector:
    m = as_message(msg)
    state = bell_pairs_state(len(m) // 2)
    for ps in encode_bell(m):
        state = apply_pauli_string(state, ps)
    return state


def decode_bell(state: StateVector, method: str = "circuit") -> Message:
    """Recover the message from a product of encoded Bell pairs."""
    n = state.n_qubits
    if n % 2:
        raise ValueError(f"Bell-pair register must have even size, got {n}")
    if method == "overlap":
        return _overlap_decode(bell_code_basis(n // 2), state)
    if method != "circuit":
        raise ValueError(f"unknown decode method {method!r}")
    blocks = [(2 * p + 1, 2 * p + 2) for p in range(n // 2)]
    names = [f"pair{p + 1}" for p in range(n // 2)]
    bits = _circuit_decode(state, blocks, names)
    return Message(tuple(itertools.chain.from_iterable(bits)))


# ---------------------------------------------------------------------------
# Distributed coding D(N, k)


@dataclass(frozen=True)
class PartyShare:
    """One sender's qubits and the message-bit positions they carry."""

    party: int
    qubits: tuple[int, ...]
    bits: tuple[int, ...]


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
    def ghz_block(self) -> tuple[int, ...]:
        return tuple(range(1, self.ghz_size + 1))

    @property
    def pair_blocks(self) -> tuple[tuple[int, int], ...]:
        g = self.ghz_size
        return tuple((g + 2 * i + 1, g + 2 * i + 2) for i in range(self.bell_pairs))

    @property
    def alice_qubits(self) -> tuple[int, ...]:
        return tuple(q for share in self.shares for q in share.qubits)


def dnk_spec(n_bits: int, n_senders: int) -> DnkSpec:
    """Build the D(N, k) layout.

    The GHZ block has size max(2, 2(k+1)-N) for even N and max(3, 2(k+1)-N)
    for odd N; the remaining bits ride on (N - ghz_size)/2 Bell pairs.  Bit
    positions are assigned left to right (GHZ first qubit takes 2 bits, other
    GHZ sender qubits 1 bit, each pair's sender half 2 bits) and senders
    receive contiguous runs of whole qubits, sized as evenly as possible.
    """
    if n_bits < 2:
        raise ValueError(f"need at least 2 message bits, got {n_bits}")
    if not 1 <= n_senders <= n_bits - 1:
        raise ValueError(
            f"sender count must be in 1..{n_bits - 1}, got {n_senders}"
        )
    floor_size = 2 if n_bits % 2 == 0 else 3
    g = max(floor_size, 2 * (n_senders + 1) - n_bits)
    pairs = (n_bits - g) // 2

    sender_qubits = list(range(1, g)) + [g + 2 * i + 1 for i in range(pairs)]
    qubit_bits: dict[int, tuple[int, ...]] = {1: (1, 2)}
    for j in range(2, g):
        qubit_bits[j] = (j + 1,)
    for i in range(pairs):
        qubit_bits[g + 2 * i + 1] = (g + 2 * i + 1, g + 2 * i + 2)

    base, extra = divmod(len(sender_qubits), n_senders)
    shares = []
    cursor = 0
    for party in range(1, n_senders + 1):
        size = base + (1 if party <= extra else 0)
        qubits = tuple(sender_qubits[cursor : cursor + size])
        cursor += size
        bits = tuple(b for q in qubits for b in qubit_bits[q])
        shares.append(PartyShare(party, qubits, bits))

    bob = (g,) + tuple(g + 2 * i + 2 for i in range(pairs))
    return DnkSpec(n_bits, n_senders, g, pairs, tuple(shares), bob)


def dnk_state(spec: DnkSpec) -> StateVector:
    """The shared resource: GHZ block tensored with the Bell pairs."""
    state = ghz_state(spec.ghz_size)
    for _ in range(spec.bell_pairs):
        state = tensor_product(state, ghz_state(2))
    return state


def dnk_combined_string(msg: MessageLike, spec: DnkSpec) -> PauliString:
    """The encoding operator over all sender qubits, before the party split."""
    m = as_message(msg)
    if len(m) != spec.n_bits:
        raise ValueError(
            f"message has {len(m)} bits, layout expects {spec.n_bits}"
        )
    g = spec.ghz_size
    ghz_part = encode_ghz(Message(m.bits[:g]))
    labels = list(ghz_part.labels)
    targets = list(ghz_part.targets)
    for i in range(spec.bell_pairs):
        b1, b2 = m.bits[g + 2 * i], m.bits[g + 2 * i + 1]
        labels.append(_FIRST_QUBIT_LABEL[(b1, b2)])
        targets.append(g + 2 * i + 1)
    return PauliString(tuple(labels), tuple(targets))


def dnk_encode(msg: MessageLike, spec: DnkSpec) -> dict[int, PauliString]:
    """Per-party encoding operators, each strictly local to that party."""
    full = dnk_combined_string(msg, spec)
    return {share.party: full.restricted_to(share.qubits) for share in spec.shares}


def dnk_encoded_state(msg: MessageLike, spec: DnkSpec) -> StateVector:
    """Resource state after every sender applied its local operator."""
    state = dnk_state(spec)
    for ps in dnk_encode(msg, spec).values():
        state = apply_pauli_string(state, ps)
    return state


@functools.lru_cache(maxsize=4)
def dnk_code_basis(n_bits: int, n_senders: int) -> CodeBasis:
    _check_basis_size(n_bits)
    spec = dnk_spec(n_bits, n_senders)
    return _code_basis(dnk_state(spec), lambda m: dnk_encode(m, spec).values())


def dnk_decode(state: StateVector, spec: DnkSpec, method: str = "circuit") -> Message:
    """Joint decode: GHZ block and each Bell pair, concatenated in bit order."""
    if state.n_qubits != spec.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, layout expects {spec.n_qubits}"
        )
    if method == "overlap":
        return _overlap_decode(dnk_code_basis(spec.n_bits, spec.n_senders), state)
    if method != "circuit":
        raise ValueError(f"unknown decode method {method!r}")
    blocks = [spec.ghz_block, *spec.pair_blocks]
    names = ["ghz"] + [f"pair{i + 1}" for i in range(spec.bell_pairs)]
    per_block = _circuit_decode(state, blocks, names)
    return Message(tuple(itertools.chain.from_iterable(per_block)))


# ---------------------------------------------------------------------------
# Orthonormality certification


def verify_code_orthonormality(n: int) -> GramReport:
    """Gram matrix of all 2**n GHZ code states against the identity."""
    return ghz_code_basis(n).gram_report()
