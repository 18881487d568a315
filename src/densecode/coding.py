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

A code word is Z^z X^x on the resource, nonzero on one coset support ^ x of
2^B indices for B blocks: ``encode`` reports it, the Gram check works per coset.
Decoding is done two ways that must agree: overlap against the code basis,
and a circuit (CNOT fan-out from each block's first qubit, Hadamard on it,
bit-map inversion) on the coset of the largest amplitude, a 2^B-point
Walsh-Hadamard transform; for a GHZ block it gives the ket z with  b1 = z_1,
b2 = z_g,  b_{j+1} = z_j xor z_g.  The circuit on the whole register only
explains a failure: it names the blocks that are not sharp.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NoReturn, Optional, Sequence, Union

import numpy as np

from .statevec import (
    _BITS_LABEL,
    CHUNK,
    _SQRT_HALF,
    PauliLabel,
    PauliString,
    StateVector,
    _butterfly,
    _integer,
    _parity,
    compose_labels,
)

#: decode rejects states whose best code-basis overlap magnitude is below this
OVERLAP_THRESHOLD = 1.0 - 1e-6


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
        bits = tuple(self.bits)
        if len(bits) < 2:
            raise ValueError(f"messages need at least 2 bits, got {len(bits)}")
        if not {0, 1}.issuperset(bits):  # before int(), which would truncate 1.7 to 1
            raise ValueError(f"message bits must be 0 or 1: {bits}")
        object.__setattr__(self, "bits", tuple(map(int, bits)))

    @classmethod
    def from_string(cls, text: str) -> "Message":
        if not set(text) <= {"0", "1"}:
            raise ValueError(f"message must contain only 0 and 1: {text!r}")
        return cls(tuple(map(int, text)))

    def __str__(self) -> str:
        return "".join(map(str, self.bits))

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


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, read-only: a spec's arrays are shared by every caller of its cache."""
    a.flags.writeable = False
    return a


def _unions(masks: Sequence[int], dtype: np.dtype) -> np.ndarray:
    """The 2**len(masks) unions of the disjoint ``masks``, each lying below the ones
    before it, ascending: bit j of a union's place, from the top, selects mask j, so
    each mask from the last doubles the list."""
    unions = np.zeros(1, dtype=dtype)
    for mask in reversed(masks):
        unions = np.concatenate((unions, unions | mask))
    return _frozen(unions)


@dataclass(frozen=True)
class DnkSpec:
    """The layout of the distributed scheme D(N, k), for N = ``n_bits`` message bits
    and k = ``n_senders`` senders, which are its only fields.

    The GHZ block has size max(2, 2(k+1)-N) for even N and max(3, 2(k+1)-N)
    for odd N; the remaining bits ride on (N - ghz_size)/2 Bell pairs, receiver
    qubits at the end of each block.  Senders receive contiguous runs of whole
    sender qubits, sized as evenly as possible, and with them the message bits
    those qubits carry under the bit rule of ``dnk_combined_string``.

    Construction checks (N, k) and sets the facts that hold one entry per qubit or
    block, as Python tuples and ints: ``blocks``, ``shares``, ``alice_qubits``,
    ``sender_mask`` and ``lead_mask``.  The index constants put qubit q at index
    bit n - q.  Every numpy array is built on first read."""

    n_bits: int
    n_senders: int

    def __post_init__(self) -> None:
        n, k = self.n_bits, self.n_senders
        if _integer("n_bits", n) < 2:
            raise ValueError(f"need at least 2 message bits, got {n}")
        if not 1 <= _integer("n_senders", k) <= n - 1:
            raise ValueError(f"sender count must be in 1..{n - 1}, got {k}")
        g = max(2 if n % 2 == 0 else 3, 2 * (k + 1) - n)
        blocks = (tuple(range(1, g + 1)),) + tuple(zip(range(g + 1, n, 2),
                                                        range(g + 2, n + 1, 2)))
        # the sender qubits: the GHZ block's first g - 1, then each pair's lead
        senders = (*range(1, g), *range(g + 1, n, 2))
        # A run of them carries a run of message bits: a lead q carries q and q + 1, a
        # later GHZ sender q only q + 1
        base, extra = divmod(len(senders), k)
        shares, start = [], 0
        for party in range(1, k + 1):
            stop = start + base + (party <= extra)
            first = senders[start]
            shares.append(PartyShare(party, senders[start:stop],
                                     tuple(range(first + (1 < first < g), senders[stop - 1] + 2))))
            start = stop
        vars(self).update(  # frozen: set past the dataclass's __setattr__
            blocks=blocks,  # the GHZ block, then each Bell pair, 1-based
            shares=tuple(shares),
            alice_qubits=senders,
            sender_mask=sum(1 << (n - q) for q in senders),
            lead_mask=sum(1 << (n - block[0]) for block in blocks),
        )

    @property
    def n_qubits(self) -> int:
        return self.n_bits

    @property
    def ghz_size(self) -> int:
        return len(self.blocks[0])

    @property
    def bell_pairs(self) -> int:
        return len(self.blocks) - 1

    @property
    def bob_qubits(self) -> tuple[int, ...]:
        return tuple(block[-1] for block in self.blocks)

    # The arrays are built on first read, so that a spec read only for its blocks,
    # as ``security`` reads one, never pays for them: D(62, 1)'s support alone would
    # hold 2**31 indices.  Every block is a run of qubits, so the one that ends at
    # qubit q has the mask ((1 << size) - 1) << (n - q), whose lowest bit is its
    # receiver's

    @functools.cached_property
    def block_masks(self) -> np.ndarray:
        n = self.n_bits
        return _frozen(np.array([((1 << len(block)) - 1) << (n - block[-1])
                                 for block in self.blocks]))

    @functools.cached_property
    def last_bits(self) -> np.ndarray:
        return _frozen(np.array([self.n_bits - block[-1] for block in self.blocks]))

    @functools.cached_property
    def support(self) -> np.ndarray:
        """The 2**B unions of whole blocks, ascending: the resource's nonzero indices."""
        return _unions(self.block_masks.tolist(), self.block_masks.dtype)

    @functools.cached_property
    def lead_support(self) -> np.ndarray:
        """The lead bits of each support index: circuit output a sets lead_support[a]."""
        return _frozen(self.support & self.lead_mask)

    @functools.cached_property
    def coset_reps(self) -> np.ndarray:
        """The 2**(N-B) indices with every lead bit 0, ascending, one per coset of the
        support: the unions of the other qubits' bits."""
        bits = [1 << i for i in reversed(range(self.n_bits)) if not self.lead_mask >> i & 1]
        return _unions(bits, np.intp)


@functools.lru_cache(maxsize=64, typed=True)
def dnk_spec(n_bits: int, n_senders: int) -> DnkSpec:
    """The D(N, k) layout, one cached ``DnkSpec`` per (N, k)."""
    return DnkSpec(n_bits, n_senders)


# ---------------------------------------------------------------------------
# Encoding


def _layout_message(msg: MessageLike, spec: DnkSpec) -> Message:
    m = as_message(msg)
    if len(m) != spec.n_bits:
        raise ValueError(f"message has {len(m)} bits, layout expects {spec.n_bits}")
    return m


def dnk_combined_string(msg: MessageLike, spec: DnkSpec) -> PauliString:
    """The encoding operator over all sender qubits, before the party split.

    The one bit rule: a block's first qubit q carries Z^b_q X^b_(q+1), and
    every later sender qubit q carries X^b_(q+1), where b_q is message bit q
    (1-based).
    """
    b = (0,) + _layout_message(msg, spec).bits
    labels = tuple(_BITS_LABEL[(b[q + 1], b[q] if q == block[0] else 0)]
                   for block in spec.blocks for q in block[:-1])
    return PauliString(labels, spec.alice_qubits)


def dnk_encode(msg: MessageLike, spec: DnkSpec) -> dict[int, PauliString]:
    """Per-party encoding operators, each strictly local to that party."""
    full = dnk_combined_string(msg, spec)
    return {share.party: full.restricted_to(share.qubits) for share in spec.shares}


def dnk_state(spec: DnkSpec) -> StateVector:
    """The shared resource: one GHZ state per block, in register order."""
    return StateVector(spec.n_qubits, dnk_code_words([0], spec)[0])


def dnk_encoded_state(msg: MessageLike, spec: DnkSpec) -> StateVector:
    """Resource state after every sender applied its local operator."""
    idx = int(str(_layout_message(msg, spec)), 2)
    return StateVector(spec.n_qubits, dnk_code_words([idx], spec)[0])


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


MAX_BASIS_BITS = 10  # a full code basis is a 2**n x 2**n dense matrix


def _basis_spec(n_bits: int, n_senders: int) -> DnkSpec:
    if not 2 <= n_bits <= MAX_BASIS_BITS:
        raise ValueError(f"full code bases are supported for 2..{MAX_BASIS_BITS} bits, "
                         f"got {n_bits}; use the circuit decode for larger registers")
    return dnk_spec(n_bits, n_senders)


def _word_masks(spec: DnkSpec, msgs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X- and Z-masks of each message's combined string, in closed form.

    Bit b_q of message i sits at index bit n - q, like qubit q.  The bit rule
    puts X^b_(q+1) on every sender qubit q and Z^b_q on every block's first
    qubit, so message i has X-mask (i << 1) & sender_mask and Z-mask i & lead_mask.
    Indices are int64, so i << 1 fits only for layouts of up to 62 bits.
    """
    if spec.n_bits > 62:
        raise ValueError(f"int64 index arrays hold layouts of up to 62 bits, got {spec.n_bits}")
    return (msgs << 1) & spec.sender_mask, msgs & spec.lead_mask


def _word_support(msgs: Sequence[int], spec: DnkSpec) -> tuple[np.ndarray, np.ndarray]:
    """Ascending columns c = support ^ x of the words of messages ``msgs``, and their
    values (-1)**popcount(c & z) * psi[c ^ x] for Z**z X**x (iY = ZX) on resource psi.
    The first column is x with each block whose lead x sets flipped whole: every lead
    bit 0.  A block's lead is its top index bit, so that column ^ support ascends in
    support order, with no sort: the coset the receiver reads, in its order."""
    x, z = _word_masks(spec, np.asarray(msgs, dtype=np.int64))
    rep = x ^ (((x[:, None] & spec.block_masks & spec.lead_mask) != 0) @ spec.block_masks)
    cols = rep[:, None] ^ spec.support
    amp = math.prod([_SQRT_HALF] * len(spec.blocks))
    return cols, np.array([amp, -amp])[_parity(cols & z[:, None])]


def dnk_code_words(msgs: Sequence[int], spec: DnkSpec) -> np.ndarray:
    """The code words of message indices ``msgs``, one dense real row each."""
    cols, vals = _word_support(msgs, spec)
    words = np.zeros((len(cols), 2**spec.n_qubits))
    words[np.arange(len(cols))[:, None], cols] = vals
    return words


@functools.lru_cache(maxsize=8)
def dnk_code_basis(n_bits: int, n_senders: int) -> CodeBasis:
    """Every code word of D(n_bits, n_senders) at once, row i for message i."""
    spec = _basis_spec(n_bits, n_senders)
    states = dnk_code_words(np.arange(2**n_bits), spec)
    states.flags.writeable = False
    return CodeBasis(spec, states)


def dnk_gram_report(n_bits: int, n_senders: int) -> GramReport:
    """Every code word's Gram matrix against the identity, by ``_gram_report``, the one
    Gram check, which the audit calls on the word table it has already built."""
    spec = _basis_spec(n_bits, n_senders)
    return _gram_report(n_bits, *_word_support(np.arange(2**n_bits), spec))


def _gram_report(n_bits: int, cols: np.ndarray, vals: np.ndarray) -> GramReport:
    """The Gram matrix of the 2**n_bits words ``_word_support`` gave as ``cols``, ``vals``
    against the identity, one block per coset of the support (named by its smallest
    column; words on two cosets have a product of exactly 0), padded to the fullest coset
    so that an encoder repeating a word still shows."""
    order = np.argsort(cols[:, 0], kind="stable")
    key = cols[order, 0]
    rank = np.arange(len(key)) - np.searchsorted(key, key)  # place within the coset
    coset, size = np.cumsum(rank == 0) - 1, rank.max() + 1
    blocks = np.zeros((coset[-1] + 1, size, vals.shape[1]))
    blocks[coset, rank] = vals[order]
    gram = blocks @ blocks.transpose(0, 2, 1)
    off = np.max(np.abs(gram), where=~np.eye(size, dtype=bool), initial=0.0)
    filled = np.arange(size) < np.bincount(coset)[:, None]  # padding rows have a 0 diagonal
    deviation = np.max(np.abs(np.diagonal(gram, 0, 1, 2) - filled))
    return GramReport(n_bits, 2**n_bits, float(off), float(deviation))


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


def _message_indices(s: np.ndarray, a: np.ndarray, spec: DnkSpec) -> np.ndarray:
    """Message index at circuit output ``a`` of the coset of ``s``, elementwise.  Block
    j's Hadamard puts a's bit j (from the top) on its lead; its fan-out leaves y, s with
    the lead's bit added to the whole block.  The block's second message bit is y_last,
    each later bit q is y_(q-1) ^ y_last (for GHZ, b_(j+1) = z_j xor z_g).  The lead's
    bit cancels in both, so each bit q after a lead is s_(q-1) ^ s_last of its block."""
    last = ((s[:, None] >> spec.last_bits) & 1) @ spec.block_masks  # s_last on its block
    return spec.lead_support[a] | (((s >> 1) ^ last) & ~spec.lead_mask)


def _circuit_outputs(t: np.ndarray, spec: DnkSpec) -> np.ndarray:
    """|circuit output| of each coset's 2**B amplitudes ``t`` (..., 2**B), in support
    order, output a as ``_message_indices`` reads it: the fan-outs fix a coset's non-lead
    bits, so the lead Hadamards are a Walsh-Hadamard transform of its amplitudes.  From
    any start in the coset |output| is bitwise equal: +, - and * are odd."""
    return np.abs(_butterfly(t, [2**j for j in reversed(range(len(spec.blocks)))]))


def _coset_indices(s: np.ndarray, t: np.ndarray, spec: DnkSpec) -> tuple[np.ndarray, np.ndarray]:
    """Message index and best |circuit output| of each coset s ^ support, from ``t``
    (batch, 2**B), its amplitudes at s ^ support in support order."""
    out = _circuit_outputs(t, spec)
    return _message_indices(s, out.argmax(axis=1), spec), out.max(axis=1)


def _no_match(amps: np.ndarray, spec: DnkSpec) -> NoReturn:
    """Raise ``NoMatchError`` with the best output of the circuit on the whole register
    and the blocks not sharp ("ghz" for a block of 3 or more qubits, "pair1", "pair2",
    ... for pairs in order).

    Called when the coset of s has no output >= T = OVERLAP_THRESHOLD; then no coset
    has one, so the result does not depend on s.  A scan that stopped at s has it on
    any coset with an output >= T, by the weight bound in ``dnk_decode``; s = argmax
    |psi| has, for B <= 17 (every register under 36 qubits, as a block has 2 or more).
    Were output a of coset C at least T on a unit state, psi on C would be o h_a + r,
    with |o| >= T, every entry of h_a +-2**(-B/2), r orthogonal to h_a and |r|**2 + w
    <= 1 - T**2 for the weight w off C.  Each amplitude on C would be at least
    T 2**(-B/2) - |r| and each off it at most sqrt(w), and |r| + sqrt(w) <=
    sqrt(2 (1 - T**2)) ~ 2.0e-3 < T 2**(-B/2), so s would lie on C."""
    n, reps = spec.n_qubits, spec.coset_reps
    out = _circuit_outputs(amps[reps[:, None] ^ spec.support], spec)
    overlap = float(out.max())
    probs = np.empty((2,) * n)
    probs.reshape(-1)[reps[:, None] | spec.lead_support] = out**2
    pair_number = itertools.count(1)
    suspects = []
    for block in spec.blocks:
        name = "ghz" if len(block) > 2 else f"pair{next(pair_number)}"
        marginal = probs.sum(axis=tuple(ax for ax in range(n) if ax + 1 not in block))
        if float(marginal.max()) < OVERLAP_THRESHOLD**2:
            suspects.append(name)
    raise NoMatchError(
        f"state matches no code word (best overlap {overlap:.6f}; "
        f"suspect blocks: {', '.join(suspects) or 'none isolated'})",
        overlap,
        tuple(suspects),
    )


#: magnitudes per pass of ``_argmax_abs``: one 64 KiB float buffer.  It divides
#: ``CHUNK``, so each chunk a state weighs starts on a pass
_SCAN = 2**13
#: an amplitude this large lies on the coset of any output >= OVERLAP_THRESHOLD
_ON_COSET = 2 * math.sqrt(1 - OVERLAP_THRESHOLD**2)


def _argmax_abs(amps: np.ndarray, enough: float = math.inf,
                weights: Optional[Sequence[float]] = None) -> int:
    """``np.abs(amps).argmax()`` bitwise, in passes of ``_SCAN`` entries through one
    reused buffer, so a decode allocates no 2**n array of its own, except that the
    argmax of the first pass whose largest magnitude reaches ``enough`` is returned at
    once.  A later pass wins only with a strictly larger magnitude, or with a NaN over a
    number, which keeps the first largest magnitude or the first NaN, as the full argmax
    does.  The buffer is writeable: numpy copies a read-only array, such as a state's
    own amplitudes, before its argmax.

    ``weights``, a state's ``_chunk_weights``, are the |amps|^2 of each ``CHUNK`` of
    ``amps``.  With them the passes start at the first chunk whose weight is not below
    (enough/2)**2: a lighter chunk holds neither a NaN nor a magnitude >= ``enough``,
    whose square alone would outweigh it 4 to 1, far past any rounding of the sum, so no
    pass in it could stop.  A chunk starts on a pass, so a pass that stops is the one
    the full scan stops at.  Skipped chunks matter only when no pass stops, and then the
    scan reruns from 0 without weights."""
    start = 0
    if weights is not None:
        light = (enough / 2) ** 2
        for weight in weights:
            if not weight < light:
                break
            start += CHUNK
    buf = np.empty(min(len(amps), _SCAN), dtype=amps.real.dtype)  # |amps|' dtype
    top, at = -1.0, 0  # below every magnitude: the first pass always takes over
    for i in range(start, len(amps), _SCAN):
        part = np.abs(amps[i:i + _SCAN], out=buf[:len(amps) - i])
        j = int(part.argmax())
        if math.isnan(part[j]) or part[j] >= enough:
            return i + j
        if part[j] > top:
            top, at = part[j], i + j
    return _argmax_abs(amps, enough) if start else at


def dnk_decode(state: StateVector, spec: DnkSpec, method: str = "circuit") -> Message:
    """Joint decode: every block of the layout, concatenated in bit order.  The circuit
    decode reads the coset of an index s of large |psi|; a state whose best output there
    is under OVERLAP_THRESHOLD matches no code word (see ``_no_match``).

    The scan for s = argmax |psi| stops at the first pass holding a magnitude of at
    least ``_ON_COSET`` = 2 sqrt(1 - T**2) ~ 2.8e-3, T = OVERLAP_THRESHOLD, and takes
    that pass's argmax; it starts at the first chunk of the state's copy heavy enough
    to hold one, by the chunk weights the state took as it copied its amplitudes.  Were
    output a of coset C at least T, C would hold weight at least T**2 (the lead
    Hadamards are unitary), so every amplitude off C would be at most
    sqrt(1 + NORM_TOLERANCE - T**2) ~ 1.4e-3: a pass that stops has found an index on
    C, from which the outputs are bitwise those from argmax |psi|.  If no coset reaches
    T, ``_no_match`` reads the whole register, whatever s is.  So the message, or the
    error, is the full scan's."""
    if state.n_qubits != spec.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, layout expects {spec.n_qubits}"
        )
    if method == "overlap":
        return _overlap_decode(dnk_code_basis(spec.n_bits, spec.n_senders), state)
    if method != "circuit":
        raise ValueError(f"unknown decode method {method!r}")
    amps = state.amplitudes
    s = np.array([_argmax_abs(amps, _ON_COSET, state._chunk_weights)])
    msgs, best = _coset_indices(s, amps[s[:, None] ^ spec.support], spec)
    if not best[0] >= OVERLAP_THRESHOLD:
        _no_match(amps, spec)
    return Message.from_string(format(int(msgs[0]), f"0{spec.n_qubits}b"))


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
    if any(q >= n for ps in (a, b) for q in ps.targets):
        raise ValueError(f"encoding strings act on qubits 1..{n - 1}")
    prods = [compose_labels(a.label_on(q), b.label_on(q)) for q in range(1, n)]
    moves = PauliLabel.X in prods or PauliLabel.IY in prods
    return not moves and prods.count(PauliLabel.Z) % 2 == 0


def verify_code_orthonormality(n: int) -> GramReport:
    """Gram matrix of all 2**n GHZ code states against the identity."""
    return dnk_gram_report(n, n - 1)


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
    if _integer("n_pairs", n_pairs) < 1:
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
