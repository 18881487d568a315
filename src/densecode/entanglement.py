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


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, PSD matrix on a subset of qubits."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.n_qubits
        if m.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has non-finite entries")
        if np.max(np.abs(m - m.conj().T)) > DEFAULT_TOLERANCE:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > DEFAULT_TOLERANCE:
            raise ValueError(f"trace is {np.trace(m)!r}, expected 1")
        if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -DEFAULT_TOLERANCE:
            raise ValueError("density matrix has a negative eigenvalue")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum of the symmetrized matrix, ascending."""
        return np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2)


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


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum(lam * log2(lam)) over the spectrum, in bits."""
    eigs = rho.eigenvalues()
    eigs = eigs[eigs > _EIG_CUTOFF]
    return float(-np.sum(eigs * np.log2(eigs)))


def schmidt_spectrum(state: StateVector, bp: Bipartition) -> np.ndarray:
    """Squared Schmidt coefficients across ``bp``, descending, summing to 1."""
    if bp.n_qubits != state.n_qubits:
        raise ValueError(
            f"bipartition covers {bp.n_qubits} qubits, state has {state.n_qubits}"
        )
    eigs = reduced_density(state, bp.bob).eigenvalues()
    return np.clip(eigs, 0.0, None)[::-1]


def _smaller_sides(n: int) -> Iterable[tuple[int, ...]]:
    """All candidate smaller sides: subsets of size 1..floor(n/2)."""
    for m in range(1, n // 2 + 1):
        yield from itertools.combinations(range(1, n + 1), m)


@dataclass(frozen=True)
class AmeReport:
    """Verdict of the every-bipartition maximal-mixedness test."""

    is_ame: bool
    max_residual: float
    entropies: dict[tuple[int, ...], float] = field(repr=False)
    failing: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.is_ame


def is_ame(state: StateVector, tol: float = DEFAULT_TOLERANCE) -> AmeReport:
    """Absolutely maximally entangled: every reduced state on the smaller
    side of every bipartition equals I / 2**m entrywise within ``tol``."""
    n = state.n_qubits
    if n < 2:
        raise ValueError("entanglement verdicts need at least 2 qubits")
    entropies: dict[tuple[int, ...], float] = {}
    worst = 0.0
    failing = None
    verdict = True
    for side in _smaller_sides(n):
        rho = reduced_density(state, side)
        entropies[side] = von_neumann_entropy(rho)
        dim = 2 ** len(side)
        residual = float(np.max(np.abs(rho.matrix - np.eye(dim) / dim)))
        if residual > worst:
            worst = residual
        if residual > tol and verdict:
            verdict = False
            failing = side
    return AmeReport(verdict, worst, entropies, failing)


def is_gme_pure(state: StateVector, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Genuine multipartite entanglement for a global pure state: positive
    marginal entropy across every bipartition.

    Only pure global states are supported; spectra alone cannot decide
    separability for mixed states, so no density-operator variant exists.
    """
    n = state.n_qubits
    if n < 2:
        raise ValueError("entanglement verdicts need at least 2 qubits")
    for side in _smaller_sides(n):
        if von_neumann_entropy(reduced_density(state, side)) <= tol:
            return False
    return True


def holevo_bound(n: int) -> int:
    """Maximum classical bits extractable from an n-qubit register."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    return n


def capacity(
    state_or_rho: Union[StateVector, DensityOperator], alice: Iterable[int]
) -> float:
    """Dense-coding capacity log2(d_A) + S(rho_B) - S(rho_AB) in bits."""
    alice_set = sorted(set(alice))
    if isinstance(state_or_rho, StateVector):
        n = state_or_rho.n_qubits
        _validate_alice(alice_set, n)
        bob = [q for q in range(1, n + 1) if q not in alice_set]
        s_b = von_neumann_entropy(reduced_density(state_or_rho, bob))
        s_ab = 0.0  # pure by construction
    else:
        n = state_or_rho.n_qubits
        _validate_alice(alice_set, n)
        bob = [q for q in range(1, n + 1) if q not in alice_set]
        s_b = von_neumann_entropy(partial_trace(state_or_rho, bob))
        s_ab = von_neumann_entropy(state_or_rho)
    return len(alice_set) + s_b - s_ab


def _validate_alice(alice: list[int], n: int) -> None:
    if not alice or len(alice) >= n:
        raise ValueError("sender set must be a non-empty proper subset")
    if any(q < 1 or q > n for q in alice):
        raise ValueError(f"sender set {alice} outside register 1..{n}")


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
    alice_set = sorted(set(alice))
    n = state.n_qubits
    _validate_alice(alice_set, n)
    bob = [q for q in range(1, n + 1) if q not in alice_set]
    rho_b = reduced_density(state, bob)
    dim_b = 2 ** len(bob)
    residual = float(np.max(np.abs(rho_b.matrix - np.eye(dim_b) / dim_b)))
    cap = capacity(state, alice_set)
    bound = holevo_bound(n)
    return OptimalityReport(
        capacity=cap,
        holevo_bound=bound,
        alice_size_sufficient=len(alice_set) >= n / 2,
        bob_marginal_maximally_mixed=residual <= tol,
        bob_marginal_residual=residual,
        optimal=abs(cap - bound) <= tol,
    )
