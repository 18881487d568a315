"""Marginals, entropies, entanglement verdicts, and dense-coding capacity.

Entropies are in bits (log base 2).  The capacity of a shared state rho_AB
with sender register A is  log2(dim A) + S(rho_B) - S(rho_AB);  a protocol is
optimal when this reaches the Holevo bound of the full register (n bits for
n qubits).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

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
    m_h = np.conj(np.swapaxes(m, -1, -2))
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


def _kept_rows(t: np.ndarray, kept: Sequence[int]) -> np.ndarray:
    """An amplitude tensor as a matrix whose rows index the ``kept`` qubits
    (1-based, ascending) and whose columns index the rest."""
    traced = [q for q in range(1, t.ndim + 1) if q not in kept]
    perm = [q - 1 for q in kept] + [q - 1 for q in traced]
    return t.transpose(perm).reshape(2 ** len(kept), -1)


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
    a = _kept_rows(state.tensor(), kept)
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
    eigs = reduced_density(state, bp.bob).eigenvalues()
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


#: amplitude bytes stacked per batch of sides.  Larger batches were no faster,
#: and with 16 MiB batches a 12-qubit pass peaked at 110 MiB RSS, not 37 MiB.
_STACK_BYTES = 2**20


def _mixedness_residual(rho: np.ndarray) -> np.ndarray:
    """Largest entry of |rho - I/dim| for a matrix or each matrix of a stack."""
    dim = rho.shape[-1]
    return np.abs(rho - np.eye(dim) / dim).max(axis=(-2, -1))


def entanglement_verdicts(
    state: StateVector, tol: float = DEFAULT_TOLERANCE
) -> tuple[AmeReport, bool]:
    """The AME report and the pure-state GME verdict from one pass over the
    smaller side of every bipartition.

    The reductions onto the sides of one size are stacked (at most
    ``_STACK_BYTES`` of amplitudes a batch), validated like a
    ``DensityOperator`` and diagonalized by one batched ``eigvalsh``; the AME
    residuals read the stack and the entropies read the spectra.  Sides come
    in size order, then in ``itertools.combinations`` order.
    """
    n = state.n_qubits
    if n < 2:
        raise ValueError("entanglement verdicts need at least 2 qubits")
    t = state.tensor()
    per_batch = max(1, _STACK_BYTES // t.nbytes)
    sides: list[tuple[int, ...]] = []
    residuals, entropies = [], []
    for m in range(1, n // 2 + 1):
        size_sides = list(itertools.combinations(range(1, n + 1), m))
        for start in range(0, len(size_sides), per_batch):
            batch = size_sides[start : start + per_batch]
            a = np.stack([_kept_rows(t, side) for side in batch])
            rhos = a @ np.conj(a).transpose(0, 2, 1)
            entropies.append(_entropies(_density_spectra(rhos)))
            residuals.append(_mixedness_residual(rhos))
            sides += batch
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
    residual = float(_mixedness_residual(rho_b.matrix))
    cap = len(alice_set) + von_neumann_entropy(rho_b)  # as capacity(state, alice)
    bound = holevo_bound(n)
    return OptimalityReport(
        capacity=cap,
        holevo_bound=bound,
        alice_size_sufficient=len(alice_set) >= n / 2,
        bob_marginal_maximally_mixed=residual <= tol,
        bob_marginal_residual=residual,
        optimal=abs(cap - bound) <= tol,
    )
