"""Marginals, entropies, entanglement verdicts, and dense-coding capacity.

Entropies are in bits (log base 2).  The capacity of a shared state rho_AB
with sender register A is  log2(dim A) + S(rho_B) - S(rho_AB);  a protocol is
optimal when this reaches the Holevo bound of the full register (n bits for
n qubits).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from .statevec import StateVector

DEFAULT_TOLERANCE = 1e-9
_EIG_CUTOFF = 1e-12  # eigenvalues at or below this contribute 0 to entropy


def _check_traces(traces: np.ndarray) -> None:
    """Every trace must be 1 within ``DEFAULT_TOLERANCE``."""
    traces = np.ravel(traces)
    bad = np.flatnonzero(np.abs(traces.real - 1.0) > DEFAULT_TOLERANCE)
    if bad.size:
        raise ValueError(f"trace is {traces[bad[0]]!r}, expected 1")


def _psd(eigs: np.ndarray) -> np.ndarray:
    """``eigs``, once none is below ``-DEFAULT_TOLERANCE``."""
    if eigs.min() < -DEFAULT_TOLERANCE:
        raise ValueError("density matrix has a negative eigenvalue")
    return eigs


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
    _check_traces(np.trace(m, axis1=-2, axis2=-1))
    return _psd(np.linalg.eigvalsh((m + m_h) / 2))


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


def _split(qubits: Iterable[int], n: int, name: str) -> tuple[list[int], list[int]]:
    """``qubits`` and the rest of the register 1..n, each ascending.  The
    ``name``d set must be a non-empty proper subset of the register."""
    chosen = set(qubits)
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
    eigs = _receiver_marginal(state, bp.alice)[1]
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


#: bytes of the keys of one batch of sides (16 per nonzero amplitude and
#: side), and of the block stack solved at once.  Larger batches were no
#: faster, and with 16 MiB batches a Haar-random 12-qubit pass peaked at
#: 211 MiB RSS, not 48 MiB.
_STACK_BYTES = 2**20


def _mixedness_residual(rho: np.ndarray) -> float:
    """Largest entry of |rho - I/d| for a d x d matrix."""
    return float(np.abs(rho - np.eye(rho.shape[-1]) / rho.shape[-1]).max())


def _key_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of each row of ``keys`` in ascending order,
    the ids running on from row to row, from one sort of all rows; also
    return the number of distinct values per row."""
    count, k = keys.shape
    order = (keys.argsort(axis=1) + (np.arange(count) * k)[:, None]).ravel()
    ordered = keys.ravel()[order]
    new = np.empty(order.size, bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    new[::k] = True
    ids = np.empty(order.size, np.int64)
    ids[order] = np.cumsum(new, dtype=np.int32) - 1
    return ids.reshape(count, k), new.reshape(count, k).sum(axis=1)


def _component_heads(
    row_ids: np.ndarray, col_ids: np.ndarray, n_rows: int, n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the entries (row id, column id), two entries
    linked when they share a row or a column: the smallest row id of its
    component for every row and column id, ``n_rows`` for ids without an
    entry.  Min-label propagation over all entries at once: the labels stay
    constant on rows, and are final once they are constant on columns."""
    labels = row_ids
    row_low = np.full(n_rows, n_rows)
    row_low[row_ids] = row_ids
    while True:
        col_low = np.full(n_cols, n_rows)
        np.minimum.at(col_low, col_ids, labels)
        spread = col_low[col_ids]
        if np.array_equal(spread, labels):
            return row_low, col_low
        row_low = np.full(n_rows, n_rows)
        np.minimum.at(row_low, row_ids, spread)
        labels = row_low[row_ids]


def _places(ids: np.ndarray, owners: np.ndarray, n_owners: int, size: int):
    """The place of each of ``ids`` (ascending) among the ids of its owner,
    as an array over 0..size-1, and the number of ids per owner."""
    order = np.argsort(owners, kind="stable")
    counts = np.bincount(owners, minlength=n_owners)
    place = np.zeros(size, np.int64)
    place[ids[order]] = np.arange(ids.size) - (np.cumsum(counts) - counts)[owners[order]]
    return place, counts


def _block_stacks(row_ids, col_ids, row_side, col_side, row_first, full, split, values):
    """The blocks of the reduced states of one batch of sides.

    ``row_ids`` and ``col_ids`` number the row and column keys of every
    entry (one row per side, ids unique over the batch), ``row_side`` and
    ``col_side`` give the side of each id and ``row_first`` each side's first
    row id.  A ``full`` side is one block; the entries of a ``split`` side
    are split into connected components by ``_component_heads``.  Blocks are
    numbered by their head row.  The sides are cut into groups at every
    ``_STACK_BYTES`` of blocks, and each group's blocks, ordered by shape,
    are written into one buffer with a single scatter, so a buffer holds at
    most ``_STACK_BYTES`` plus one side's blocks.  Yields stacks (q, r, c)
    of blocks of one shape, rows on the side and columns on the rest, with
    the side of each block.
    """
    n_rows, n_cols = row_side.size, col_side.size
    k = row_ids.shape[1]
    row_head = np.where(full[row_side], row_first[row_side], n_rows)
    col_head = np.where(full[col_side], row_first[col_side], n_rows)
    if split.any():
        part = split if not split.all() else slice(None)
        low = _component_heads(row_ids[part].ravel(), col_ids[part].ravel(), n_rows, n_cols)
        row_head, col_head = np.minimum(row_head, low[0]), np.minimum(col_head, low[1])
    heads = row_head == np.arange(n_rows)
    comp_of = np.append(np.cumsum(heads) - 1, -1)  # by head row id; n_rows -> -1
    n_comps = int(heads.sum())
    row_comp, col_comp = comp_of[row_head], comp_of[col_head]
    block_rows, block_cols = np.flatnonzero(row_comp >= 0), np.flatnonzero(col_comp >= 0)
    row_comp, col_comp = row_comp[block_rows], col_comp[block_cols]
    row_place, r = _places(block_rows, row_comp, n_comps, n_rows)
    col_place, c = _places(block_cols, col_comp, n_comps, n_cols)
    shape = r * (k + 1) + c
    size = r * c
    comp_side = row_side[heads]
    side_size = np.bincount(comp_side, size, full.size).astype(np.int64)
    group = (np.cumsum(side_size) - side_size) * values.itemsize // _STACK_BYTES
    key = group[comp_side] * (k + 1) ** 2 + shape
    order = np.argsort(key, kind="stable")
    offset = np.empty(n_comps, np.int64)
    offset[order] = np.cumsum(size[order]) - size[order]
    # an entry's place in the buffer: its row's start there, plus its column
    row_start = np.zeros(n_rows, np.int64)
    row_start[block_rows] = offset[row_comp] + row_place[block_rows] * c[row_comp]
    used = np.flatnonzero(full | split)
    if used.size < len(row_ids):
        row_ids, col_ids = row_ids[used], col_ids[used]
    dest = row_start[row_ids] + col_place[col_ids]
    group_size = np.bincount(group, side_size)
    keys, firsts = np.unique(key[order], return_index=True)
    current = -1
    for group_shape, first, last in zip(keys, firsts, np.append(firsts[1:], n_comps)):
        g, shape_key = divmod(int(group_shape), (k + 1) ** 2)
        if g != current:
            current, base = g, int(offset[order[first]])
            buffer = np.zeros(int(group_size[g]), values.dtype)
            buffer[dest[group[used] == g] - base] = values
        rr, cc = divmod(shape_key, k + 1)
        start = int(offset[order[first]]) - base
        yield (buffer[start : start + (last - first) * rr * cc].reshape(last - first, rr, cc),
               comp_side[order[first:last]])


def _solve_blocks(stacks, paired: np.ndarray):
    """Spectra and off-diagonal residuals of the blocks of one batch.

    ``stacks`` yields (a, sides): blocks of one shape, rows on the side and
    columns on the rest, with the side of each.  A block's reduced state is
    a a^H on its side and a^T a^* on the rest; the rest's is formed at a
    ``paired`` side, for its residual, and where it is the smaller Gram
    matrix.  A block with one row or one column has rank one, its trace the
    one nonzero eigenvalue; otherwise the smaller Gram matrix is solved.
    Gram matrices of one size, whatever their blocks' shapes, are checked
    Hermitian and their largest off-diagonal |rho_ij| taken together, laid
    out (size, size, q) so that every step runs along q; their spectra come
    from one ``eigvalsh``.

    Returns the nonzero eigenvalues with the side of each, and (sides,
    residuals) of the side Gram matrices and of the rest Gram matrices.
    """
    spectra, owners = [], []
    by_size: dict[int, list] = {}  # size -> [(grams, sides, rest?, solve?)]
    for a, sides in stacks:
        count, r, c = a.shape
        if min(r, c) == 1:
            w = a.real**2 + a.imag**2 if np.iscomplexobj(a) else a * a
            spectra.append(w.sum(axis=(1, 2)))
            owners.append(sides)
        if r > 1:
            # np.conj copies even a real stack: a product of two buffers
            # rounds like a dense reduction did, a @ a.T of one buffer does not
            rho = a @ np.conj(a).transpose(0, 2, 1)
            by_size.setdefault(r, []).append((rho, sides, False, r <= c))
        need = paired[sides] if c >= r else np.ones(count, bool)
        if c > 1 and need.any():
            b = a[need]
            by_size.setdefault(c, []).append(
                (np.swapaxes(b, 1, 2) @ np.conj(b), sides[need], True, c < r))
    side_res, rest_res = [], []
    for size, parts in by_size.items():
        grams = np.concatenate([g for g, *_ in parts])
        sides = np.concatenate([s for _, s, *_ in parts])
        rest = np.concatenate([np.full(s.size, flag) for _, s, flag, _ in parts])
        solve = np.concatenate([np.full(s.size, flag) for _, s, _, flag in parts])
        laid = np.ascontiguousarray(grams.transpose(1, 2, 0))
        laid_h = laid.transpose(1, 0, 2).conj()
        if np.max(np.abs(laid - laid_h)) > DEFAULT_TOLERANCE:
            raise ValueError("density matrix is not Hermitian")
        off = np.abs(laid).reshape(size * size, -1)
        off[:: size + 1] = 0
        off = off.max(axis=0)
        side_res.append((sides[~rest], off[~rest]))
        rest_res.append((sides[rest], off[rest]))
        if solve.any():
            if not solve.all():
                laid, laid_h = laid[:, :, solve], laid_h[:, :, solve]
            eigs = _psd(np.linalg.eigvalsh(((laid + laid_h) / 2).transpose(2, 0, 1)))
            spectra.append(eigs.ravel())
            owners.append(np.repeat(sides[solve], size))
    return spectra, owners, side_res, rest_res


def _marginals(
    support: np.ndarray, values: np.ndarray, masks: np.ndarray, dims: np.ndarray,
    paired: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The reduced states of a pure state on the sides ``masks`` (bit masks of
    ``dims[s] = 2**m`` qubits), from its nonzero ``values`` at ``support``.

    A side splits each index into a row key (its bits on the side) and a
    column key (the rest); the distinct keys of a batch of sides are
    numbered by one sort.  The diagonal of every reduced state is one
    ``bincount`` of |v|^2 over the row ids; it gives each side's trace and
    the diagonal part of its residual.  A side whose column keys are all
    distinct is diagonal, and its diagonal is its spectrum.  Any other side
    is block diagonal over the connected components of its entries, two
    entries linked when they share a row or a column key: one R x C block
    when its R rows and C columns give R * C == K, else split by
    ``_block_stacks``.  ``_solve_blocks`` gives the blocks' spectra and the
    off-diagonal part of the residual.

    Returns the nonzero eigenvalues of all sides with the side of each, and
    per side the residual max |rho - I/dim| (a side reaching fewer than dim
    rows has a zero diagonal entry, 1/dim) and, for ``paired`` sides, the
    same residual of the complement, whose spectrum is the side's.  Every
    side's trace must be 1 and each block Hermitian and PSD, within
    ``DEFAULT_TOLERANCE``.
    """
    if not np.isfinite(values).all():
        raise ValueError("density matrix has non-finite entries")
    k = support.size
    n_sides = len(masks)
    weights = values.real**2 + values.imag**2 if np.iscomplexobj(values) else values * values
    spectra, owners = [], []
    traces = np.zeros(n_sides)
    residuals = np.zeros(n_sides)
    rest_residuals = np.zeros(n_sides)
    per_batch = max(1, _STACK_BYTES // (16 * k))
    for start in range(0, n_sides, per_batch):
        batch = masks[start : start + per_batch, None]
        count = len(batch)
        here = slice(start, start + count)
        keys = np.empty((2 * count, k), support.dtype)
        np.bitwise_and(support, batch, out=keys[:count])
        np.bitwise_and(support, ~batch, out=keys[count:])
        ids, counts = _key_ids(keys)
        n_rows, n_cols = counts[:count], counts[count:]
        row_ids, col_ids = ids[:count], ids[count:] - n_rows.sum()
        row_first = np.cumsum(n_rows) - n_rows
        row_side = np.repeat(np.arange(count), n_rows)
        col_side = np.repeat(np.arange(count), n_cols)
        dim, pair = dims[here], paired[here]
        tiled = np.tile(weights, count)
        diag = np.bincount(row_ids.ravel(), tiled, row_side.size)
        traces[here] = np.add.reduceat(diag, row_first)
        deviation = np.abs(diag - 1 / dim[row_side])
        residuals[here] = np.maximum((n_rows < dim) / dim, np.maximum.reduceat(deviation, row_first))
        if pair.any():
            rest = np.bincount(col_ids.ravel(), tiled, col_side.size)
            deviation = np.abs(rest - 1 / dim[col_side])
            rest_residuals[here] = np.maximum(
                (n_cols < dim) / dim, np.maximum.reduceat(deviation, np.cumsum(n_cols) - n_cols)
            )
        # all column keys distinct: diagonal; at m = n/2 the complement is
        # diagonal too when the row keys are all distinct as well
        diagonal = (n_cols == k) & ((n_rows == k) | ~pair)
        on_diagonal = diagonal[row_side]
        spectra.append(diag[on_diagonal])
        owners.append(row_side[on_diagonal] + start)
        if diagonal.all():
            continue
        full = ~diagonal & (n_rows * n_cols == k)
        split = ~diagonal & (n_rows * n_cols != k)
        stacks = _block_stacks(row_ids, col_ids, row_side, col_side, row_first, full, split,
                               values)
        eigs, eig_sides, side_res, rest_res = _solve_blocks(
            ((a, block_sides + start) for a, block_sides in stacks), paired
        )
        spectra += eigs
        owners += eig_sides
        for into, found in ((residuals, side_res), (rest_residuals, rest_res)):
            for block_sides, residual in found:
                np.maximum.at(into, block_sides, residual)
    _check_traces(traces)
    return np.concatenate(spectra), np.concatenate(owners), residuals, rest_residuals


def _support(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the nonzero amplitudes (an exact zero test) and their
    values, real when no amplitude has an imaginary part."""
    amps = state.amplitudes
    # two float comparisons run about twice as fast as flatnonzero on complex
    support = np.flatnonzero((amps.real != 0) | (amps.imag != 0))
    values = amps[support]
    return support, values if values.imag.any() else values.real


def _side_masks(n: int) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """The smaller side of every bipartition of n qubits, in size order and
    then in ``itertools.combinations`` order, and the bit mask of each (qubit
    q is bit n - q).  Within one size that order is the masks' descending
    order, read off one popcount table.  Also returns each side's size."""
    popcount = np.zeros(1, np.int64)
    for _ in range(n):
        popcount = np.concatenate([popcount, popcount + 1])
    sizes = range(1, n // 2 + 1)
    masks = np.concatenate([np.flatnonzero(popcount == m)[::-1] for m in sizes])
    qubits = range(1, n + 1)
    sides = list(itertools.chain.from_iterable(itertools.combinations(qubits, m) for m in sizes))
    return sides, masks, popcount[masks]


def entanglement_verdicts(
    state: StateVector, tol: float = DEFAULT_TOLERANCE
) -> tuple[AmeReport, bool]:
    """The AME report and the pure-state GME verdict from one pass over the
    smaller side of every bipartition.

    Only the K nonzero amplitudes (an exact zero test) enter, in one call of
    ``_marginals`` over every side: each side's reduced state splits into
    blocks, one per connected component of its row and column keys (for a
    stabilizer state, one per coset of S_A + S_B; Fattal et al.,
    quant-ph/0406168).  A side whose column keys are all distinct, as every
    GHZ side's are, is diagonal, and its diagonal is its spectrum.  A block
    with one row or one column has rank one and its trace is its one
    nonzero eigenvalue; the other blocks are stacked by shape, and the
    smaller Gram matrix of each is solved by one batched ``eigvalsh`` per
    size.  At m = n/2 a side and its complement
    share their blocks: the spectrum is solved once, and each keeps its own
    residual.

    The AME residual is the largest |rho - I/2**m| over a side's blocks,
    raised to 1/2**m when the side reaches fewer than 2**m rows (a dropped
    diagonal entry): the dense residual, entry for entry.  The entropies
    read the spectra.  Sides come in size order, then in
    ``itertools.combinations`` order.
    """
    n = state.n_qubits
    if n < 2:
        raise ValueError("entanglement verdicts need at least 2 qubits")
    sides, masks, sizes = _side_masks(n)
    # at m = n/2 the sides holding qubit 1 come first; side j of the other
    # half is the complement of side -1 - j of the first
    half = len(sides) - (math.comb(n, n // 2) // 2 if n % 2 == 0 else 0)
    paired = (sizes == n / 2)[:half]
    eigs, owners, residual, rest = _marginals(
        *_support(state), masks[:half], 2.0 ** sizes[:half], paired
    )
    entropy = np.bincount(owners, weights=_entropies(eigs[:, None]), minlength=half)
    entropy = np.concatenate([entropy, entropy[paired][::-1]])
    residual = np.concatenate([residual, rest[paired][::-1]])
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
) -> tuple[int, np.ndarray, float, float]:
    """The reduced state rho_B on the receiver side of the sender set A, a
    non-empty proper subset of the register: its qubit count, its ascending
    spectrum (with a zero per dimension it does not reach) and its residual
    max |rho_B - I/d_B|, and the capacity log2(d_A) + S(rho_B) - S(rho_AB).
    A StateVector is pure, S(rho_AB) = 0, and rho_B is taken on its support
    by ``_marginals``, without the dense matrix."""
    n = state_or_rho.n_qubits
    alice_set, bob = _split(alice, n, "sender set")
    if isinstance(state_or_rho, StateVector):
        dim = 2 ** len(bob)
        mask = np.array([sum(1 << (n - q) for q in bob)])
        eigs, _, residuals, _ = _marginals(*_support(state_or_rho), mask, np.array([float(dim)]),
                                           np.zeros(1, bool))
        spectrum = np.sort(np.concatenate([eigs, np.zeros(dim - eigs.size)]))
        residual = float(residuals[0])
        s_ab = 0.0
    else:
        rho_b = partial_trace(state_or_rho, bob)
        spectrum = rho_b.eigenvalues()
        residual = _mixedness_residual(rho_b.matrix)
        s_ab = von_neumann_entropy(state_or_rho)
    return len(bob), spectrum, residual, len(alice_set) + float(_entropies(spectrum)) - s_ab


def capacity(
    state_or_rho: Union[StateVector, DensityOperator], alice: Iterable[int]
) -> float:
    """Dense-coding capacity log2(d_A) + S(rho_B) - S(rho_AB) in bits."""
    return _receiver_marginal(state_or_rho, alice)[3]


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
    n_bob, _, residual, cap = _receiver_marginal(state, alice)
    n = state.n_qubits
    bound = holevo_bound(n)
    return OptimalityReport(
        capacity=cap,
        holevo_bound=bound,
        alice_size_sufficient=n_bob <= n / 2,  # |A| >= n/2
        bob_marginal_maximally_mixed=residual <= tol,
        bob_marginal_residual=residual,
        optimal=abs(cap - bound) <= tol,
    )
