"""Marginals, entropies, entanglement verdicts, and dense-coding capacity.

Entropies are in bits (log base 2).  The capacity of a shared state rho_AB
with sender register A is  log2(dim A) + S(rho_B) - S(rho_AB);  a protocol is
optimal when this reaches the Holevo bound of the full register (n bits for
n qubits).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from .statevec import StateVector

DEFAULT_TOLERANCE = 1e-9
_EIG_CUTOFF = 1e-12  # eigenvalues at or below this contribute 0 to entropy


def _density_spectra(m: np.ndarray) -> np.ndarray:
    """Validate a density matrix, or a stack of them on the last two axes,
    and return the ascending spectrum of each symmetrized matrix.

    Every matrix must be finite, Hermitian, of unit trace and PSD, each
    within ``DEFAULT_TOLERANCE``; the PSD check reads the returned spectra.
    """
    if not np.isfinite(m).all():
        raise ValueError("density matrix has non-finite entries")
    m_h = np.swapaxes(m, -1, -2).conj()  # a view when m is real
    if np.max(np.abs(m - m_h)) > DEFAULT_TOLERANCE:
        raise ValueError("density matrix is not Hermitian")
    traces = np.ravel(np.trace(m, axis1=-2, axis2=-1))
    bad = np.flatnonzero(np.abs(traces.real - 1.0) > DEFAULT_TOLERANCE)
    if bad.size:
        raise ValueError(f"trace is {traces[bad[0]]!r}, expected 1")
    eigs = np.linalg.eigvalsh((m + m_h) / 2)
    if eigs.min() < -DEFAULT_TOLERANCE:
        raise ValueError("density matrix has a negative eigenvalue")
    return eigs


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, PSD matrix on a subset of qubits."""

    n_qubits: int
    matrix: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class Bipartition:
    """A split of qubits 1..n into sender side ``alice`` and the complement
    ``bob``, with the convention |bob| <= |alice|."""

    alice: tuple[int, ...]
    bob: tuple[int, ...]

    def __post_init__(self) -> None:
        alice = tuple(sorted(self.alice))
        bob = tuple(sorted(self.bob))
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
        bob = tuple(q for q in range(1, n_qubits + 1) if q not in alice_set)
        return cls(tuple(alice_set), bob)

    @property
    def n_qubits(self) -> int:
        return len(self.alice) + len(self.bob)


def reduced_density(state: StateVector, keep: Iterable[int]) -> DensityOperator:
    """Partial trace onto ``keep`` (1-based indices, ascending in the result)."""
    kept = sorted(set(keep))
    n = state.n_qubits
    if not kept:
        raise ValueError("keep set must be non-empty")
    if any(q < 1 or q > n for q in kept):
        raise ValueError(f"keep set {kept} outside register 1..{n}")
    if len(kept) == n:
        raise ValueError("keep set must be a proper subset; nothing to trace out")
    traced = [q for q in range(1, n + 1) if q not in kept]
    perm = [q - 1 for q in kept] + [q - 1 for q in traced]
    a = state.tensor().transpose(perm).reshape(2 ** len(kept), -1)
    return DensityOperator(len(kept), a @ a.conj().T)


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Partial trace of a density operator onto ``keep``."""
    kept = sorted(set(keep))
    n = rho.n_qubits
    if not kept or len(kept) == n:
        raise ValueError("keep set must be a non-empty proper subset")
    if any(q < 1 or q > n for q in kept):
        raise ValueError(f"keep set {kept} outside register 1..{n}")
    traced = [q for q in range(1, n + 1) if q not in kept]
    perm = [q - 1 for q in kept] + [q - 1 for q in traced]
    k, t = len(kept), len(traced)
    m = rho.matrix.reshape((2,) * (2 * n))
    m = m.transpose(perm + [n + p for p in perm])
    m = m.reshape(2**k, 2**t, 2**k, 2**t)
    return DensityOperator(k, np.einsum("atbt->ab", m))


def _entropies(spectra: np.ndarray) -> np.ndarray:
    """-sum(lam * log2(lam)) along the last axis, in bits; eigenvalues at or
    below the cutoff count as 1, which contributes 0."""
    eigs = np.where(spectra > _EIG_CUTOFF, spectra, 1.0)
    return -np.sum(eigs * np.log2(eigs), axis=-1)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum(lam * log2(lam)) over the spectrum, in bits."""
    return float(_entropies(rho.eigenvalues()))


def schmidt_spectrum(state: StateVector, bp: Bipartition) -> np.ndarray:
    """Squared Schmidt coefficients across ``bp``, descending, summing to 1."""
    if bp.n_qubits != state.n_qubits:
        raise ValueError(
            f"bipartition covers {bp.n_qubits} qubits, state has {state.n_qubits}"
        )
    eigs = _receiver_marginal(state, bp.alice)[0].eigenvalues()
    return np.clip(eigs, 0.0, None)[::-1]


@dataclass(frozen=True)
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
    size = rho.shape[-1]
    return np.abs(rho - np.eye(size) / (dim or size)).max(axis=(-2, -1))


def _distinct_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank every row of ``keys`` among that row's distinct values, from one
    sort of all rows; also return the number of distinct values per row."""
    rows = np.arange(len(keys))[:, None]
    order = keys.argsort(axis=1)
    ordered = keys[rows, order]
    steps = np.zeros(keys.shape, np.int64)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=steps[:, 1:])
    dense = steps.cumsum(axis=1)
    ranks = np.empty_like(dense)
    ranks[rows, order] = dense
    return ranks, dense[:, -1] + 1


def entanglement_verdicts(
    state: StateVector, tol: float = DEFAULT_TOLERANCE
) -> tuple[AmeReport, bool]:
    """The AME report and the pure-state GME verdict from one pass over the
    smaller side of every bipartition.

    Only the K nonzero amplitudes (an exact zero test) enter.  On a side of
    m qubits an amplitude index splits into a row key (its bits on the side)
    and a column key (the rest); the distinct keys, ranked by one sort per
    batch, index a compact R x C amplitude matrix with R = min(K, 2**m) and
    C = min(K, 2**(n-m)).  Its Gram matrix is the reduced state with its
    all-zero rows and columns dropped, in the same row order, so the spectra
    carry the same nonzero eigenvalues.  The arithmetic is real when no
    amplitude has an imaginary part.  The AME residual is the compact
    block's largest |rho - I/2**m|, raised to 1/2**m when the side reaches
    fewer than 2**m rows (a dropped diagonal entry): the dense residual,
    entry for entry.

    The compact matrices of one side size are stacked (at most
    ``_STACK_BYTES`` a batch), validated like a ``DensityOperator`` and
    diagonalized by one batched ``eigvalsh``; the residuals read the stack
    and the entropies read the spectra.  Sides come in size order, then in
    ``itertools.combinations`` order.
    """
    n = state.n_qubits
    if n < 2:
        raise ValueError("entanglement verdicts need at least 2 qubits")
    amps = state.amplitudes
    support = np.flatnonzero(amps)
    values = amps[support]
    if not values.imag.any():
        values = values.real
    k = support.size
    sides: list[tuple[int, ...]] = []
    residuals, entropies = [], []
    for m in range(1, n // 2 + 1):
        size_sides = list(itertools.combinations(range(1, n + 1), m))
        masks = (1 << (n - np.array(size_sides, dtype=np.int64))).sum(axis=1)
        rows, cols = min(k, 2**m), min(k, 2 ** (n - m))
        per_batch = max(1, _STACK_BYTES // (rows * cols * values.itemsize))
        for start in range(0, len(size_sides), per_batch):
            batch = masks[start : start + per_batch, None]
            keys = np.concatenate([support & batch, support & ~batch])
            ranks, counts = _distinct_ranks(keys)
            count = len(batch)
            a = np.zeros((count, rows, cols), values.dtype)
            a[np.arange(count)[:, None], ranks[:count], ranks[count:]] = values
            # np.conj copies even a real stack: a product of two buffers
            # rounds like the dense pass did, a @ a.T of one buffer does not
            rhos = a @ np.conj(a).transpose(0, 2, 1)
            entropies.append(_entropies(_density_spectra(rhos)))
            dropped = (counts[:count] < 2**m) / 2**m  # a zero diagonal entry
            residuals.append(np.maximum(_mixedness_residual(rhos, 2**m), dropped))
        sides += size_sides
    residual = np.concatenate(residuals)
    entropy = np.concatenate(entropies)
    over = np.flatnonzero(residual > tol)
    failing = sides[over[0]] if over.size else None
    ame = AmeReport(
        failing is None,
        max(0.0, float(residual.max())),
        dict(zip(sides, entropy.tolist())),
        failing,
    )
    return ame, bool(np.all(entropy > tol))


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
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    return n


def _receiver_marginal(
    state_or_rho: Union[StateVector, DensityOperator], alice: Iterable[int]
) -> tuple[DensityOperator, float]:
    """The reduced state rho_B on the receiver side of the sender set A, a
    non-empty proper subset of the register, and the capacity
    log2(d_A) + S(rho_B) - S(rho_AB); a StateVector is pure, S(rho_AB) = 0."""
    alice_set = sorted(set(alice))
    n = state_or_rho.n_qubits
    if not alice_set or len(alice_set) >= n:
        raise ValueError("sender set must be a non-empty proper subset")
    if any(q < 1 or q > n for q in alice_set):
        raise ValueError(f"sender set {alice_set} outside register 1..{n}")
    bob = [q for q in range(1, n + 1) if q not in alice_set]
    if isinstance(state_or_rho, StateVector):
        rho_b, s_ab = reduced_density(state_or_rho, bob), 0.0
    else:
        rho_b, s_ab = partial_trace(state_or_rho, bob), von_neumann_entropy(state_or_rho)
    return rho_b, len(alice_set) + von_neumann_entropy(rho_b) - s_ab


def capacity(
    state_or_rho: Union[StateVector, DensityOperator], alice: Iterable[int]
) -> float:
    """Dense-coding capacity log2(d_A) + S(rho_B) - S(rho_AB) in bits."""
    return _receiver_marginal(state_or_rho, alice)[1]


@dataclass(frozen=True)
class OptimalityReport:
    capacity: float
    holevo_bound: int
    alice_size_sufficient: bool  # |A| >= n/2, so 4**|A| >= 2**n operations
    bob_marginal_maximally_mixed: bool
    bob_marginal_residual: float
    optimal: bool


def optimality_report(
    state: StateVector, alice: Iterable[int], tol: float = DEFAULT_TOLERANCE
) -> OptimalityReport:
    """Checks whether the given sender split achieves the Holevo bound."""
    rho_b, cap = _receiver_marginal(state, alice)
    residual = float(_mixedness_residual(rho_b.matrix))
    n = state.n_qubits
    bound = holevo_bound(n)
    return OptimalityReport(
        capacity=cap,
        holevo_bound=bound,
        alice_size_sufficient=rho_b.n_qubits <= n / 2,  # |A| >= n/2
        bob_marginal_maximally_mixed=residual <= tol,
        bob_marginal_residual=residual,
        optimal=abs(cap - bound) <= tol,
    )
