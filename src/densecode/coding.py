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
Two builders give those entries, bit for bit alike: ``dnk_word``, the single-word
builder ``encode`` reads, in Python integers, and ``dnk_word_support``, the batch
builder of the audit's table and the Gram check, in int64 arrays.
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
from typing import NoReturn, Optional, Sequence, Union

from .entanglement import DEFAULT_TOLERANCE, OptimalityReport, layout_optimality, layout_verdicts
from .statevec import (
    _BITS_LABEL,
    _SQRT_HALF,
    PauliLabel,
    PauliString,
    StateVector,
    _butterfly,
    _integer,
    _parity,
    _record,
    compose_labels,
    np,
)

#: decode rejects states whose best code-basis overlap magnitude is below this
OVERLAP_THRESHOLD = 1.0 - 1e-6


class NoMatchError(Exception):
    """Raised when a state is not close to any code-basis state."""

    def __init__(self, message: str, best_overlap: float, blocks: tuple[str, ...] = ()):
        super().__init__(message)
        self.best_overlap = best_overlap
        self.blocks = blocks


@_record
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
    if _integer("n", n) < 2:
        raise ValueError(f"messages need at least 2 bits, got {n}")
    return [Message(bits) for bits in itertools.product((0, 1), repeat=n)]


# ---------------------------------------------------------------------------
# The layout D(N, k)


@_record
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
    each mask from the last doubles the list, into the upper half of one array."""
    unions = np.zeros(2 ** len(masks), dtype=dtype)
    size = 1
    for mask in reversed(masks):
        np.bitwise_or(unions[:size], mask, out=unions[size:2 * size])
        size *= 2
    return _frozen(unions)


@_record
class DnkSpec:
    """The layout of the distributed scheme D(N, k), for N = ``n_bits`` message bits
    and k = ``n_senders`` senders, which are its only fields.

    The GHZ block has size max(2, 2(k+1)-N) for even N and max(3, 2(k+1)-N)
    for odd N; the remaining bits ride on (N - ghz_size)/2 Bell pairs, receiver
    qubits at the end of each block.  Senders receive contiguous runs of whole
    sender qubits, sized as evenly as possible, and with them the message bits
    those qubits carry under the bit rule of ``dnk_combined_string``.

    Construction checks (N, k) and sets the facts that hold one entry per qubit or
    block, as Python tuples and ints: ``blocks``, ``alice_qubits``, ``sender_mask``
    and ``lead_mask``.  The index constants put qubit q at index bit n - q.
    ``shares`` and every numpy array are built on first read."""

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
        vars(self).update(  # frozen: set past the dataclass's __setattr__
            blocks=blocks,  # the GHZ block, then each Bell pair, 1-based
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

    @functools.cached_property
    def shares(self) -> tuple[PartyShare, ...]:
        """Each sender's run of sender qubits, built on first read: ``security``, a
        plain ``encode`` and every decode read none.  A run carries a run of message
        bits: a lead q carries q and q + 1, a later GHZ sender q only q + 1."""
        senders, g = self.alice_qubits, self.ghz_size
        base, extra = divmod(len(senders), self.n_senders)
        shares, start = [], 0
        for party in range(1, self.n_senders + 1):
            stop = start + base + (party <= extra)
            first = senders[start]
            shares.append(PartyShare(party, senders[start:stop],
                                     tuple(range(first + (1 < first < g), senders[stop - 1] + 2))))
            start = stop
        return tuple(shares)

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


@_record
class GramReport:
    """The Gram check of a layout's 2**n_bits code words: the largest |<w_i|w_j>|
    off the diagonal and the largest |<w_i|w_i> - 1| on it."""

    n_bits: int
    dimension: int
    max_off_diagonal: float
    max_diagonal_deviation: float

    def residual(self) -> float:
        return max(self.max_off_diagonal, self.max_diagonal_deviation)


@_record(eq=False)
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
    _refuse_long(spec)
    return (msgs << 1) & spec.sender_mask, msgs & spec.lead_mask


def _refuse_long(spec: DnkSpec) -> None:
    """Refuse a layout of over 62 bits, whose i << 1 an int64 index would not hold."""
    if spec.n_bits > 62:
        raise ValueError(f"int64 index arrays hold layouts of up to 62 bits, got {spec.n_bits}")


def dnk_word_support(msgs: Sequence[int], spec: DnkSpec) -> tuple[np.ndarray, np.ndarray]:
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


def dnk_word(msg: MessageLike, spec: DnkSpec) -> tuple[list[int], list[float]]:
    """The columns and values of one message's code word, as Python ints and floats,
    bit for bit the row ``dnk_word_support`` gives its index, built in integers: the
    first column rep is x with each block whose lead x sets flipped whole, its value
    +-amp by the parity of rep & z, and then each block, from the last, doubles the
    lists, the new half flipped on that block and negated where z sets an odd number
    of its bits.  ``encode``'s builder, which builds no array of the spec; the audit's
    table of many words takes ``dnk_word_support``.  It refuses what that kernel and
    ``dnk_encoded_state`` refuse: a message of the wrong length, a layout over 62 bits."""
    i = int(str(_layout_message(msg, spec)), 2)
    _refuse_long(spec)
    n = spec.n_bits
    x, z = (i << 1) & spec.sender_mask, i & spec.lead_mask
    masks = [((1 << len(block)) - 1) << (n - block[-1]) for block in spec.blocks]
    rep = x
    for block, mask in zip(spec.blocks, masks):
        if x >> (n - block[0]) & 1:
            rep ^= mask
    amp = float(math.prod([_SQRT_HALF] * len(masks)))
    cols, vals = [rep], [-amp if (rep & z).bit_count() & 1 else amp]
    for mask in reversed(masks):
        cols += [c ^ mask for c in cols]
        vals += [-v for v in vals] if (mask & z).bit_count() & 1 else vals
    return cols, vals


def dnk_code_words(msgs: Sequence[int], spec: DnkSpec) -> np.ndarray:
    """The code words of message indices ``msgs``, one dense real row each."""
    cols, vals = dnk_word_support(msgs, spec)
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
    Gram check, which ``layout_audit`` calls on the word table it has already built."""
    spec = _basis_spec(n_bits, n_senders)
    return _gram_report(n_bits, *dnk_word_support(np.arange(2**n_bits), spec))


def _gram_report(n_bits: int, cols: np.ndarray, vals: np.ndarray) -> GramReport:
    """The Gram matrix of the 2**n_bits words ``dnk_word_support`` gave as ``cols``, ``vals``
    against the identity, one block per coset of the support (named by its smallest
    column; words on two cosets have a product of exactly 0), padded to the fullest coset
    so that an encoder repeating a word still shows."""
    order = cols[:, 0].argsort(kind="stable")
    key = cols[order, 0]
    rank = np.arange(len(key)) - key.searchsorted(key)  # place within the coset
    coset, size = (rank == 0).cumsum() - 1, np.maximum.reduce(rank) + 1
    blocks = np.zeros((coset[-1] + 1, size, vals.shape[1]))
    blocks[coset, rank] = vals[order]
    gram = blocks @ blocks.transpose(0, 2, 1)
    places = np.arange(size)
    off = np.maximum.reduce(np.abs(gram), axis=None, initial=0.0,
                            where=places[:, None] != places)
    filled = places < np.bincount(coset)[:, None]  # padding rows have a 0 diagonal
    deviation = np.maximum.reduce(np.abs(gram.diagonal(0, 1, 2) - filled), axis=None)
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


def _message_indices(s: Union[np.ndarray, int], a: Union[np.ndarray, int],
                     spec: DnkSpec) -> Union[np.ndarray, int]:
    """Message index at circuit output ``a`` of the coset of ``s``, elementwise, on int64
    arrays (the audit's batch) or on Python ints (one decode).  Block
    j's Hadamard puts a's bit j (from the top) on its lead; its fan-out leaves y, s with
    the lead's bit added to the whole block.  The block's second message bit is y_last,
    each later bit q is y_(q-1) ^ y_last (for GHZ, b_(j+1) = z_j xor z_g).  The lead's
    bit cancels in both, so each bit q after a lead is s_(q-1) ^ s_last of its block.
    s_last goes on its block by two products: the GHZ block's g bits by their mask, and
    each pair's receiver bit, at an even bit below the GHZ block, by 3 onto its pair."""
    n, g = spec.n_bits, spec.ghz_size
    pairs = n - g  # the pairs' bit count: (2**pairs - 1) // 3 is 0101...01, their receivers
    last = ((s >> pairs) & 1) * (((1 << g) - 1) << pairs) | (s & ((1 << pairs) - 1) // 3) * 3
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
    return _message_indices(s, out.argmax(axis=1), spec), np.maximum.reduce(out, axis=1)


def _no_match(amps: np.ndarray, spec: DnkSpec) -> NoReturn:
    """Raise ``NoMatchError`` with the best output of the circuit on the whole register
    and the blocks not sharp ("ghz" for a block of 3 or more qubits, "pair1", "pair2",
    ... for pairs in order).

    Called when the coset the decode read has no output >= T = OVERLAP_THRESHOLD; then
    no coset has one, by the bounds at ``_ON_COSET``, for B <= 17 (every register under
    36 qubits, as a block has 2 or more).  So the result does not depend on where the
    decode started."""
    n, reps = spec.n_qubits, spec.coset_reps
    out = _circuit_outputs(amps[reps[:, None] ^ spec.support], spec)
    overlap = float(np.maximum.reduce(out, axis=None))
    probs = np.empty((2,) * n)
    probs.reshape(-1)[reps[:, None] | spec.lead_support] = out**2
    pair_number = itertools.count(1)
    suspects = []
    for block in spec.blocks:
        name = "ghz" if len(block) > 2 else f"pair{next(pair_number)}"
        marginal = np.add.reduce(probs, axis=tuple(ax for ax in range(n) if ax + 1 not in block))
        if float(np.maximum.reduce(marginal, axis=None)) < OVERLAP_THRESHOLD**2:
            suspects.append(name)
    raise NoMatchError(
        f"state matches no code word (best overlap {overlap:.6f}; "
        f"suspect blocks: {', '.join(suspects) or 'none isolated'})",
        overlap,
        tuple(suspects),
    )


#: a decode tries its start only at a magnitude this large, T 2**-8.5 ~ 2.762e-3 for
#: T = OVERLAP_THRESHOLD.  Were output a of coset C at least T on a state of
#: |psi|**2 <= 1 + NORM_TOLERANCE, then, as every entry of h_a is +-2**(-B/2), C would
#: hold an amplitude of at least T 2**(-B/2), and, as the lead Hadamards are unitary,
#: weight at least T**2, so every amplitude off C would be at most
#: sqrt(1 + NORM_TOLERANCE - T**2) ~ 1.415e-3.  For B <= 17 the first bound is at
#: least this one and the second below it: a coset that decodes holds argmax |psi|
#: and every index of this magnitude, such as a start that is tried
_ON_COSET = OVERLAP_THRESHOLD * 2**-8.5


def dnk_decode(state: StateVector, spec: DnkSpec, method: str = "circuit") -> Message:
    """Joint decode: every block of the layout, concatenated in bit order.  The circuit
    decode reads the coset of an index s of large |psi|; a state whose best output there
    is under OVERLAP_THRESHOLD matches no code word (see ``_no_match``).

    s is the state's ``_start``, the first nonzero its chunk test found, where a code
    word's first live chunk begins with one of its entries; if its magnitude is under
    ``_ON_COSET`` ~ 2.76e-3, the state is no clean code word and s is argmax |psi|.  By
    the bounds at ``_ON_COSET``, a coset that decodes holds both, from which the
    outputs are bitwise equal, and a start of that magnitude off such a coset leaves no
    coset to decode.  So the message, or the error, is that of the decode from argmax
    |psi|.  The coset is read from the state's copy in place, by
    ``StateVector._amplitudes_at``; only a state that is no clean code word reads
    ``state.amplitudes``, which builds the full copy."""
    if state.n_qubits != spec.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, layout expects {spec.n_qubits}"
        )
    if method == "overlap":
        return _overlap_decode(dnk_code_basis(spec.n_bits, spec.n_senders), state)
    if method != "circuit":
        raise ValueError(f"unknown decode method {method!r}")
    at = state._start
    t = state._amplitudes_at(at ^ spec.support)
    if not abs(t[0]) >= _ON_COSET:  # t[0] is the start's: support[0] is 0
        at = int(np.abs(state.amplitudes).argmax())
        t = state._amplitudes_at(at ^ spec.support)
    out = _circuit_outputs(t, spec)
    a = int(out.argmax())
    if not out[a] >= OVERLAP_THRESHOLD:
        _no_match(state.amplitudes, spec)
    index = int(_message_indices(at, a, spec))
    return Message(tuple(map(int, format(index, f"0{spec.n_qubits}b"))))


# ---------------------------------------------------------------------------
# The audit


_ROUNDTRIP_WORDS = 64  # the audit decodes every word up to 6 qubits, else 64 picks
_MASK64 = 2**64 - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """splitmix64's next state and its output, from ``state``, in Python ints."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _roundtrip_picks(seed: int, n: int) -> np.ndarray:
    """The audit's ``_ROUNDTRIP_WORDS`` messages of ``n`` bits (6 < n <= 62) for
    ``seed``, sorted, as int64: the images of 0..63 under x -> a x + b mod 2^n,
    with b and an odd a from the seed's first two splitmix64 outputs, in integer
    arithmetic, so that no audit imports numpy.random.  An odd a makes the map a
    bijection of Z/2^n, so the picks are distinct and their low 6 bits take each
    value once.  uint64 arrays wrap mod 2^64, which 2^n divides, so the arithmetic
    is exact; no numpy scalar takes part, as one warns on overflow, and no int64,
    which numpy 1.24 would promote with uint64 to float."""
    mask = 2**n - 1
    state, b = _splitmix64(seed)
    _, a = _splitmix64(state)
    picks = np.arange(_ROUNDTRIP_WORDS, dtype=np.uint64)
    picks *= (a | 1) & mask
    picks += b & mask
    picks &= mask
    picks.sort()
    return picks.astype(np.int64)


@_record
class AuditReport:
    """A layout's audit: its resource's optimality, AME and GME verdicts, the Gram
    check (None above ``MAX_BASIS_BITS``) and the roundtrip's count of failures."""

    optimality: OptimalityReport
    ame: bool
    gme: bool
    ame_residual: float
    gram: Optional[GramReport]
    messages_checked: int
    failures: int


def layout_audit(spec: DnkSpec, seed: int = 0, tol: float = DEFAULT_TOLERANCE) -> AuditReport:
    """The audit of layout ``spec`` in closed form, from one table of code words on
    their support: every word up to ``MAX_BASIS_BITS``, else the resource (message 0)
    and the roundtrip's picks for ``seed``, in [0, 2**63).  A roundtrip word fails on
    a wrong message or a best circuit output under ``OVERLAP_THRESHOLD``."""
    seed = _integer("seed", seed)
    if not 0 <= seed < 2**63:
        raise ValueError(f"seed must be in [0, 2**63), got {seed}")
    n = spec.n_qubits
    picks = np.arange(2**n) if 2**n <= _ROUNDTRIP_WORDS else _roundtrip_picks(seed, n)
    every_word = n <= MAX_BASIS_BITS
    if every_word:
        table = np.arange(2**n)
    else:
        table = np.zeros(len(picks) + 1, dtype=np.int64)
        table[1:] = picks
    cols, vals = dnk_word_support(table, spec)
    optimality = layout_optimality(map(len, spec.blocks), vals[0], tol)
    ame, gme, ame_residual = layout_verdicts(map(len, spec.blocks), tol)
    rows = picks if every_word else slice(1, None)
    decoded, best = _coset_indices(cols[rows, 0], vals[rows], spec)
    failures = int(np.add.reduce((decoded != picks) | ~(best >= OVERLAP_THRESHOLD)))
    gram = _gram_report(spec.n_bits, cols, vals) if every_word else None
    return AuditReport(optimality, ame, gme, ame_residual, gram, len(picks), failures)


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
    if _integer("n", n) < 2:
        raise ValueError(f"GHZ state needs at least 2 qubits, got {n}")
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
