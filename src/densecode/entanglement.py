"""Marginals, entropies, entanglement verdicts, and dense-coding capacity.

Entropies are in bits (log base 2).  The capacity of a shared state rho_AB
with sender register A is  log2(dim A) + S(rho_B) - S(rho_AB);  a protocol is
optimal when this reaches the Holevo bound of the full register (n bits for
n qubits).
"""

from __future__ import annotations

import itertools
from dataclasses import field
from typing import Iterable, Union

from .statevec import StateVector, _finite, _integer, _record, np

DEFAULT_TOLERANCE = 1e-9
_EIG_CUTOFF = 1e-12  # eigenvalues at or below this contribute 0 to entropy


def _check_traces(traces: np.ndarray) -> None:
    """Every trace, an array or a numpy scalar, must be 1 within ``DEFAULT_TOLERANCE``."""
    traces = traces.ravel()
    bad = (np.abs(traces.real - 1.0) > DEFAULT_TOLERANCE).nonzero()[0]
    if bad.size:
        raise ValueError(f"trace is {traces[bad[0]]!r}, expected 1")


def _psd(eigs: np.ndarray) -> np.ndarray:
    """``eigs``, once none is below ``-DEFAULT_TOLERANCE``."""
    if np.minimum.reduce(eigs, axis=None) < -DEFAULT_TOLERANCE:
        raise ValueError("density matrix has a negative eigenvalue")
    return eigs


def _density_spectra(m: np.ndarray) -> np.ndarray:
    """Validate a density matrix, or a stack of them on the last two axes,
    and return the ascending spectrum of each symmetrized matrix.

    Every matrix must be finite, Hermitian, of unit trace and PSD, each
    within ``DEFAULT_TOLERANCE``; the PSD check reads the returned spectra.
    """
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise ValueError("density matrix has non-finite entries")
    m_h = m.swapaxes(-1, -2).conj()  # a view when m is real
    if np.maximum.reduce(np.abs(m - m_h), axis=None) > DEFAULT_TOLERANCE:
        raise ValueError("density matrix is not Hermitian")
    _check_traces(m.trace(axis1=-2, axis2=-1))
    return _psd(np.linalg.eigvalsh((m + m_h) / 2))


@_record(eq=False)
class DensityOperator:
    """Hermitian, unit-trace, PSD matrix on a subset of qubits."""

    n_qubits: int
    matrix: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if _integer("n_qubits", self.n_qubits) < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        m = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.n_qubits
        if m.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape}")
        spectrum = _density_spectra(m)
        spectrum.flags.writeable = False
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_spectrum", spectrum)

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum of the symmetrized matrix, ascending (read-only)."""
        return self._spectrum


@_record
class Bipartition:
    """A split of qubits 1..n into sender side ``alice`` and the complement
    ``bob``, with the convention |bob| <= |alice|."""

    alice: tuple[int, ...]
    bob: tuple[int, ...]

    def __post_init__(self) -> None:
        alice = tuple(sorted([_integer("qubit", q) for q in self.alice]))
        bob = tuple(sorted([_integer("qubit", q) for q in self.bob]))
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)
        if not alice or not bob:
            raise ValueError("both sides of a bipartition must be non-empty")
        if set(alice) & set(bob):
            raise ValueError("bipartition sides overlap")
        n = len(alice) + len(bob)
        if set(alice) | set(bob) != set(range(1, n + 1)):
            raise ValueError("bipartition must cover qubits 1..n exactly")
        if len(bob) > len(alice):
            raise ValueError("convention requires |bob| <= |alice|; swap the sides")

    @classmethod
    def of(cls, n_qubits: int, alice: Iterable[int]) -> "Bipartition":
        alice_set = set(alice)
        bob = tuple(q for q in range(1, _integer("n_qubits", n_qubits) + 1)
                    if q not in alice_set)
        return cls(tuple(alice_set), bob)

    @property
    def n_qubits(self) -> int:
        return len(self.alice) + len(self.bob)


def _split(qubits: Iterable[int], n: int, name: str) -> tuple[list[int], list[int]]:
    """``qubits`` and the rest of the register 1..n, each ascending.  The
    ``name``d set must be a non-empty proper subset of the register."""
    chosen = {_integer("qubit", q) for q in qubits}
    kept = sorted(chosen)
    if not kept or kept[0] < 1 or kept[-1] > n or len(kept) == n:
        raise ValueError(f"{name} {kept} must be a non-empty proper subset of 1..{n}")
    return kept, [q for q in range(1, n + 1) if q not in chosen]


def reduced_density(state: StateVector, keep: Iterable[int]) -> DensityOperator:
    """Partial trace onto ``keep`` (1-based indices, ascending in the result)."""
    kept, traced = _split(keep, state.n_qubits, "keep set")
    perm = [q - 1 for q in kept + traced]
    a = state.tensor().transpose(perm).reshape(2 ** len(kept), -1)
    return DensityOperator(len(kept), a @ a.conj().T)


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Partial trace of a density operator onto ``keep``."""
    n = rho.n_qubits
    kept, traced = _split(keep, n, "keep set")
    perm = [q - 1 for q in kept + traced]
    k, t = len(kept), len(traced)
    m = rho.matrix.reshape((2,) * (2 * n))
    m = m.transpose(perm + [n + p for p in perm])
    m = m.reshape(2**k, 2**t, 2**k, 2**t)
    return DensityOperator(k, np.einsum("atbt->ab", m))


def _entropies(spectra: np.ndarray) -> np.ndarray:
    """-sum(lam * log2(lam)) along the last axis, in bits; eigenvalues at or
    below the cutoff count as 1, which contributes 0."""
    eigs = np.where(spectra > _EIG_CUTOFF, spectra, 1.0)
    return -np.add.reduce(eigs * np.log2(eigs), axis=-1)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum(lam * log2(lam)) over the spectrum, in bits."""
    return float(_entropies(rho.eigenvalues()))


def schmidt_spectrum(state: StateVector, bp: Bipartition) -> np.ndarray:
    """Squared Schmidt coefficients across ``bp``, descending, summing to 1."""
    if bp.n_qubits != state.n_qubits:
        raise ValueError(
            f"bipartition covers {bp.n_qubits} qubits, state has {state.n_qubits}"
        )
    eigs = _receiver_marginal(state, bp.alice)[1]
    return np.clip(eigs, 0.0, None)[::-1]


@_record
class AmeReport:
    """Verdict of the every-bipartition maximal-mixedness test."""

    is_ame: bool
    max_residual: float
    entropies: dict[tuple[int, ...], float] = field(repr=False)
    failing: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.is_ame


#: bytes of the compact amplitude stack per batch of sides.  Larger batches
#: were no faster, and with 16 MiB batches a Haar-random 12-qubit pass peaked
#: at 211 MiB RSS, not 48 MiB.
_STACK_BYTES = 2**20


def _mixedness_residual(rho: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Largest entry of |rho - I/dim| for a matrix or each matrix of a stack;
    ``dim`` defaults to the matrix size."""
    places = np.arange(rho.shape[-1])
    eye = places[:, None] == places  # True / dim is exactly np.eye's 1.0 / dim
    return np.maximum.reduce(np.abs(rho - eye / (dim or places.size)), axis=(-2, -1))


def _distinct_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank every row of ``keys`` among that row's distinct values, from one
    sort of all rows; also return the number of distinct values per row."""
    rows = np.arange(len(keys))[:, None]
    order = keys.argsort(axis=1)
    ordered = keys[rows, order]
    steps = np.zeros(keys.shape, np.int64)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=steps[:, 1:])
    dense = steps.cumsum(axis=1)
    ranks = np.empty(keys.shape, np.int64)
    ranks[rows, order] = dense
    return ranks, dense[:, -1] + 1


def _weights(values: np.ndarray) -> np.ndarray:
    """|v|^2 of the amplitudes ``values``, once all are finite; real when they are."""
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        raise ValueError("density matrix has non-finite entries")
    return values.real**2 + values.imag**2 if values.dtype.kind == "c" else values * values


def _marginals(
    n: int, support: np.ndarray, values: np.ndarray, masks: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """The reduced states on sides of ``m`` qubits (bit ``masks``) of the pure
    n-qubit state with nonzero ``values`` at ``support``.

    On a side an index splits into a row key (its bits on the side) and a
    column key (the rest); the distinct keys, ranked by one sort per batch,
    index a compact R x C amplitude matrix with R = min(K, 2**m) and
    C = min(K, 2**(n-m)).  Its Gram matrix is the reduced state with its
    all-zero rows and columns dropped, in the same row order, so the spectra
    carry the same nonzero eigenvalues.  A side whose column keys are all
    distinct is diagonal, and its diagonal, one ``bincount`` of |v|^2, is
    its spectrum.  The other sides' matrices are stacked (at most
    ``_STACK_BYTES`` a batch), validated like a ``DensityOperator`` and
    diagonalized by one batched ``eigvalsh``; the arithmetic is real when the
    values are.  The residual is the largest |rho - I/2**m| of the compact
    matrix, raised to 1/2**m when the side reaches fewer than 2**m rows (a
    dropped diagonal entry): the dense residual, entry for entry.

    Returns the (sides, R) spectra, zero-padded, and the residual per side.
    """
    weights = _weights(values)
    k, dim = support.size, 2**m
    rows, cols = min(k, dim), min(k, 2 ** (n - m))
    spectra = np.zeros((len(masks), rows))
    residuals = np.empty(len(masks))
    per_batch = max(1, _STACK_BYTES // (rows * cols * values.itemsize))
    for start in range(0, len(masks), per_batch):
        batch = masks[start : start + per_batch, None]
        count = len(batch)
        ranks, counts = _distinct_ranks(np.concatenate([support & batch, support & ~batch]))
        dropped = (counts[:count] < dim) / dim  # a zero diagonal entry
        diagonal = (counts[count:] == k).nonzero()[0]  # one entry per column key
        if diagonal.size:
            at = ranks[diagonal] + rows * np.arange(diagonal.size)[:, None]
            diag = np.bincount(at.ravel(), weights[None].repeat(diagonal.size, 0).ravel(),
                               diagonal.size * rows).reshape(-1, rows)
            _check_traces(np.add.reduce(diag, axis=1))
            spectra[start + diagonal] = diag
            residuals[start + diagonal] = np.maximum(
                np.maximum.reduce(np.abs(diag - 1 / dim), axis=1), dropped[diagonal])
        other = (counts[count:] < k).nonzero()[0]
        if other.size:
            a = np.zeros((other.size, rows, cols), values.dtype)
            a[np.arange(other.size)[:, None], ranks[other], ranks[count + other]] = values
            # np.conj copies even a real stack: a product of two buffers
            # rounds like a dense reduction does, a @ a.T of one buffer does not
            rhos = a @ np.conj(a).transpose(0, 2, 1)
            spectra[start + other] = _density_spectra(rhos)
            residuals[start + other] = np.maximum(_mixedness_residual(rhos, dim), dropped[other])
    return spectra, residuals


def _support(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the nonzero amplitudes (an exact zero test) and their
    values, real when no amplitude has an imaginary part."""
    amps = state.amplitudes
    # two float comparisons run about twice as fast as flatnonzero on complex
    support = ((amps.real != 0) | (amps.imag != 0)).nonzero()[0]
    values = amps[support]
    return support, values if np.logical_or.reduce(values.imag != 0) else values.real


def entanglement_verdicts(
    state: StateVector, tol: float = DEFAULT_TOLERANCE
) -> tuple[AmeReport, bool]:
    """The AME report and the pure-state GME verdict from one pass over the
    smaller side of every bipartition.

    Only the K nonzero amplitudes (an exact zero test) enter, through one
    call of ``_marginals`` per side size.  The entropies read the spectra.
    Sides come in size order, then in ``itertools.combinations`` order.
    """
    n = state.n_qubits
    if n < 2:
        raise ValueError("entanglement verdicts need at least 2 qubits")
    _finite("tol", tol)
    support, values = _support(state)
    sides: list[tuple[int, ...]] = []
    residuals, entropies = [], []
    for m in range(1, n // 2 + 1):
        size_sides = list(itertools.combinations(range(1, n + 1), m))
        masks = np.add.reduce(1 << (n - np.array(size_sides, dtype=np.int64)), axis=1)
        spectra, residual = _marginals(n, support, values, masks, m)
        entropies.append(_entropies(spectra))
        residuals.append(residual)
        sides += size_sides
    residual = np.concatenate(residuals)
    entropy = np.concatenate(entropies)
    over = (residual > tol).nonzero()[0]
    failing = sides[over[0]] if over.size else None
    ame = AmeReport(
        failing is None,
        max(0.0, float(np.maximum.reduce(residual))),
        dict(zip(sides, entropy.tolist())),
        failing,
    )
    return ame, bool(np.logical_and.reduce(entropy > tol))


def _block_sizes(block_sizes: Iterable[int]) -> list[int]:
    """The sizes of a product of one or more GHZ blocks of 2 or more qubits each."""
    sizes = [_integer("block size", size) for size in block_sizes]
    if not sizes or min(sizes) < 2:
        raise ValueError(f"GHZ blocks need at least 2 qubits each, got {sizes}")
    return sizes


def layout_verdicts(
    block_sizes: Iterable[int], tol: float = DEFAULT_TOLERANCE
) -> tuple[bool, bool, float]:
    """``(is_ame, is_gme, max_residual)`` of a product of GHZ blocks of the
    given sizes, each at least 2 qubits, in closed form: the verdicts of
    ``entanglement_verdicts`` on such a state without enumerating its sides.

    The state is a stabilizer state, so the entropy of a side A is
    |A| - dim G_A (Fattal et al., quant-ph/0406168): the number of blocks A
    cuts, holding some of a block's qubits but not all.  On a cut block A's
    factor is (|0..0><0..0| + |1..1><1..1|)/2, on a whole block a GHZ
    projector; every entry of either is 0 or 1/2.
    - One block of n qubits: every side cuts it, so each entropy is 1 bit.
      The side of m qubits deviates from I/2**m by 1/2 - 2**-m on its two
      filled diagonal entries and by 2**-m on the others (m >= 2), so the
      residual is 1/2 - 2**-(n//2): 0 for n <= 3.
    - Two or more blocks: the smallest has at most n/2 qubits and is itself
      a side, of entropy 0 and a pure, off-diagonal 1/2 entry.  No entry of
      a product of factors with entries of at most 1/2 exceeds 1/2, so the
      residual is 1/2.

    GME holds when the least entropy exceeds ``tol`` and AME when the
    residual is at most ``tol``, as in the numerical pass: with the default
    tolerance, GME exactly with one block and AME exactly with one block of
    at most 3 qubits.
    """
    sizes = _block_sizes(block_sizes)
    _finite("tol", tol)
    one = len(sizes) == 1
    residual = 0.5 - 2.0 ** -(sizes[0] // 2) if one else 0.5
    return residual <= tol, (1.0 if one else 0.0) > tol, residual


def is_ame(state: StateVector, tol: float = DEFAULT_TOLERANCE) -> AmeReport:
    """Absolutely maximally entangled: every reduced state on the smaller
    side of every bipartition equals I / 2**m entrywise within ``tol``."""
    return entanglement_verdicts(state, tol)[0]


def is_gme_pure(state: StateVector, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Genuine multipartite entanglement for a global pure state: positive
    marginal entropy across every bipartition.

    Only pure global states are supported; spectra alone cannot decide
    separability for mixed states, so no density-operator variant exists.
    """
    return entanglement_verdicts(state, tol)[1]


def holevo_bound(n: int) -> int:
    """Maximum classical bits extractable from an n-qubit register."""
    if _integer("n", n) < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    return n


def _receiver_marginal(
    state_or_rho: Union[StateVector, DensityOperator], alice: Iterable[int]
) -> tuple[int, np.ndarray, float, float]:
    """The reduced state rho_B on the receiver side of the sender set A, a
    non-empty proper subset of the register: its qubit count, its ascending
    spectrum (with a zero per dimension it does not reach) and its residual
    max |rho_B - I/d_B|, and the capacity log2(d_A) + S(rho_B) - S(rho_AB).
    A pure state's rho_B is taken on its support by ``_marginals``, without
    the dense matrix, and S(rho_AB) = 0."""
    n = state_or_rho.n_qubits
    alice_set, bob = _split(alice, n, "sender set")
    if isinstance(state_or_rho, StateVector):
        mask = np.array([sum(1 << (n - q) for q in bob)])
        spectra, residuals = _marginals(n, *_support(state_or_rho), mask, len(bob))
        zeros = np.zeros(2 ** len(bob) - spectra.shape[1])
        spectrum = np.concatenate([spectra[0], zeros])
        spectrum.sort()
        return len(bob), spectrum, float(residuals[0]), len(alice_set) + float(_entropies(spectrum))
    rho_b = partial_trace(state_or_rho, bob)
    spectrum = rho_b.eigenvalues()
    capacity_bits = len(alice_set) + float(_entropies(spectrum)) - von_neumann_entropy(state_or_rho)
    return len(bob), spectrum, float(_mixedness_residual(rho_b.matrix)), capacity_bits


def capacity(
    state_or_rho: Union[StateVector, DensityOperator], alice: Iterable[int]
) -> float:
    """Dense-coding capacity log2(d_A) + S(rho_B) - S(rho_AB) in bits."""
    return _receiver_marginal(state_or_rho, alice)[3]


@_record
class OptimalityReport:
    """The dense-coding capacity against the Holevo bound, and the verdicts that
    decide whether a resource is optimal."""

    capacity: float
    holevo_bound: int
    alice_size_sufficient: bool  # |A| >= n/2, so 4**|A| >= 2**n operations
    bob_marginal_maximally_mixed: bool
    bob_marginal_residual: float
    optimal: bool


def _optimality_verdicts(
    n: int, n_bob: int, residual: float, cap: float, tol: float
) -> OptimalityReport:
    """The report on n qubits whose receiver side of ``n_bob`` qubits has the
    residual max |rho_B - I/d_B| and the capacity ``cap``."""
    bound = holevo_bound(n)
    return OptimalityReport(
        capacity=cap,
        holevo_bound=bound,
        alice_size_sufficient=n_bob <= n / 2,  # |A| >= n/2
        bob_marginal_maximally_mixed=residual <= tol,
        bob_marginal_residual=residual,
        optimal=abs(cap - bound) <= tol,
    )


def optimality_report(
    state: StateVector, alice: Iterable[int], tol: float = DEFAULT_TOLERANCE
) -> OptimalityReport:
    """Checks whether the given sender split achieves the Holevo bound."""
    _finite("tol", tol)
    n_bob, _, residual, cap = _receiver_marginal(state, alice)
    return _optimality_verdicts(state.n_qubits, n_bob, residual, cap, tol)


def layout_optimality(
    block_sizes: Iterable[int], values: np.ndarray, tol: float = DEFAULT_TOLERANCE
) -> OptimalityReport:
    """``optimality_report`` of a layout's resource, a product of GHZ blocks of
    the given sizes with ``values`` its 2**B amplitudes in support order, for
    its ``alice_qubits``: a receiver with one qubit of each block, in closed
    form.  Each block keeps a sender qubit, whose bits tell the support apart, so
    rho_B is diagonal with the weights |v|^2: its spectrum is their sort and its
    residual max |w - 2**-B|.  ``_marginals`` takes it in its diagonal branch,
    one weight per ``bincount`` bin, so every field is bitwise the same; only the
    support comes from the layout, and the values are still read."""
    sizes = _block_sizes(block_sizes)
    _finite("tol", tol)
    values = np.asarray(values)
    if values.shape != (2 ** len(sizes),):
        raise ValueError(f"{len(sizes)} blocks need {2 ** len(sizes)} values, got {values.shape}")
    weights = _weights(values)  # a fresh array: sorted in place below
    _check_traces(np.add.reduce(weights))
    n, n_bob = sum(sizes), len(sizes)
    residual = float(np.maximum.reduce(np.abs(weights - 1 / 2**n_bob)))
    weights.sort()
    cap = n - n_bob + float(_entropies(weights))
    return _optimality_verdicts(n, n_bob, residual, cap, tol)
