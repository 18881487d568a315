import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecode import (
    Bipartition,
    DensityOperator,
    StateVector,
    basis_ket,
    capacity,
    dnk_spec,
    dnk_state,
    entanglement_verdicts,
    ghz_state,
    holevo_bound,
    is_ame,
    is_gme_pure,
    optimality_report,
    partial_trace,
    reduced_density,
    schmidt_spectrum,
    tensor_product,
    von_neumann_entropy,
)
from densecode.entanglement import _density_spectra


def random_state(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, v / np.linalg.norm(v))


def w_state():
    v = np.zeros(8, dtype=complex)
    v[[0b100, 0b010, 0b001]] = 1.0 / np.sqrt(3.0)
    return StateVector(3, v)


def partial_trace_oracle(state, keep):
    """Independent partial trace: explicit index loops, no shared code."""
    n = state.n_qubits
    keep = sorted(keep)
    traced = [q for q in range(1, n + 1) if q not in keep]
    dim_k, dim_t = 2 ** len(keep), 2 ** len(traced)
    rho = np.zeros((dim_k, dim_k), dtype=complex)

    def full_index(kept_bits, traced_bits):
        idx = 0
        for q in range(1, n + 1):
            if q in keep:
                bit = (kept_bits >> (len(keep) - 1 - keep.index(q))) & 1
            else:
                bit = (traced_bits >> (len(traced) - 1 - traced.index(q))) & 1
            idx = (idx << 1) | bit
        return idx

    for i in range(dim_k):
        for j in range(dim_k):
            for t in range(dim_t):
                rho[i, j] += state.amplitudes[full_index(i, t)] * np.conj(
                    state.amplitudes[full_index(j, t)]
                )
    return rho


# ---------------------------------------------------------------------------
# reduced densities


@pytest.mark.parametrize("n", [2, 3, 5])
def test_ghz_single_qubit_marginals(n):
    for q in range(1, n + 1):
        rho = reduced_density(ghz_state(n), {q})
        assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) < 1e-12


def test_bell_product_alice_marginal():
    state = tensor_product(ghz_state(2), ghz_state(2))
    rho = reduced_density(state, {1, 3})
    assert np.max(np.abs(rho.matrix - np.eye(4) / 4)) < 1e-12


def test_ghz4_two_qubit_marginal():
    rho = reduced_density(ghz_state(4), {1, 2})
    assert np.allclose(rho.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)


@pytest.mark.parametrize("keep", [{1}, {2}, {1, 3}, {2, 4}, {1, 2, 3}])
def test_reduced_density_matches_oracle(keep):
    state = random_state(4, np.random.default_rng(sum(keep)))
    got = reduced_density(state, keep)
    assert np.max(np.abs(got.matrix - partial_trace_oracle(state, keep))) < 1e-12


def test_tensor_then_reduce_recovers_factors():
    rng = np.random.default_rng(11)
    a, b = random_state(2, rng), random_state(2, rng)
    joint = tensor_product(a, b)
    rho_a = reduced_density(joint, {1, 2}).matrix
    rho_b = reduced_density(joint, {3, 4}).matrix
    assert np.max(np.abs(rho_a - np.outer(a.amplitudes, a.amplitudes.conj()))) < 1e-12
    assert np.max(np.abs(rho_b - np.outer(b.amplitudes, b.amplitudes.conj()))) < 1e-12


def test_reduced_density_rejects_empty_and_full():
    with pytest.raises(ValueError):
        reduced_density(ghz_state(2), set())
    with pytest.raises(ValueError):
        reduced_density(ghz_state(2), {1, 2})


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(1, np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(1, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(1, np.diag([1.5, -0.5]))  # negative eigenvalue


def test_density_operator_keeps_its_spectrum():
    m = reduced_density(random_state(4, np.random.default_rng(3)), {1, 3}).matrix
    rho = DensityOperator(2, m)
    assert rho.eigenvalues() is rho.eigenvalues()
    assert np.array_equal(rho.eigenvalues(), np.linalg.eigvalsh((m + m.conj().T) / 2))
    assert not rho.eigenvalues().flags.writeable


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([[0.5, 1.0], [0.0, 0.5]]), "not Hermitian"),
        (np.eye(2), "trace is"),
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
        (np.array([[np.nan, 0.0], [0.0, 0.5]]), "non-finite"),
    ],
)
def test_stacked_density_checks_match_density_operator(bad, message):
    """A stack fails on one bad matrix with DensityOperator's own message."""
    with pytest.raises(ValueError, match=message) as single:
        DensityOperator(1, bad)
    good = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError, match=message) as stacked:
        _density_spectra(np.stack([good, bad.astype(complex), good]))
    assert str(stacked.value) == str(single.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_operator_rejects_non_finite(bad):
    m = np.eye(2, dtype=complex) / 2
    m[0, 0] = bad
    with pytest.raises(ValueError):
        DensityOperator(1, m)


def test_partial_trace_of_density_operator():
    state = tensor_product(ghz_state(2), basis_ket(1, 1))
    rho = DensityOperator(3, np.outer(state.amplitudes, state.amplitudes.conj()))
    rho_pair = partial_trace(rho, {1, 2})
    expected = np.outer(ghz_state(2).amplitudes, ghz_state(2).amplitudes.conj())
    assert np.max(np.abs(rho_pair.matrix - expected)) < 1e-12


# ---------------------------------------------------------------------------
# entropy


def test_entropy_of_pure_projector_is_zero():
    s = ghz_state(2)
    rho = DensityOperator(2, np.outer(s.amplitudes, s.amplitudes.conj()))
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_entropy_of_maximally_mixed():
    assert von_neumann_entropy(DensityOperator(1, np.eye(2) / 2)) == pytest.approx(1.0)
    assert von_neumann_entropy(DensityOperator(2, np.eye(4) / 4)) == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(4))
def test_purity_symmetry(seed):
    # For a global pure state both sides of any bipartition have equal entropy.
    rng = np.random.default_rng(seed)
    state = random_state(4, rng)
    alice = sorted(rng.choice(range(1, 5), size=2, replace=False).tolist())
    bob = [q for q in range(1, 5) if q not in alice]
    s_a = von_neumann_entropy(reduced_density(state, alice))
    s_b = von_neumann_entropy(reduced_density(state, bob))
    assert abs(s_a - s_b) < 1e-9


def test_entropy_invariant_under_permutation():
    rng = np.random.default_rng(13)
    state = random_state(4, rng)
    perm = (3, 1, 4, 2)
    moved = StateVector(4, state.tensor().transpose(np.argsort(perm)).reshape(-1))
    subset = [1, 3]
    moved_subset = [perm[q - 1] for q in subset]
    s0 = von_neumann_entropy(reduced_density(state, subset))
    s1 = von_neumann_entropy(reduced_density(moved, moved_subset))
    assert abs(s0 - s1) < 1e-9


# ---------------------------------------------------------------------------
# Schmidt spectra


def test_schmidt_bell():
    spec = schmidt_spectrum(ghz_state(2), Bipartition((1,), (2,)))
    assert np.allclose(spec, [0.5, 0.5])


def test_schmidt_product_state():
    spec = schmidt_spectrum(basis_ket(2, 0), Bipartition((1,), (2,)))
    assert np.allclose(spec, [1.0, 0.0], atol=1e-12)


def test_schmidt_ghz4_balanced():
    spec = schmidt_spectrum(ghz_state(4), Bipartition((1, 2), (3, 4)))
    assert np.allclose(spec, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_schmidt_properties(seed):
    state = random_state(4, np.random.default_rng(seed + 100))
    bp = Bipartition((1, 2), (3, 4))
    spec = schmidt_spectrum(state, bp)
    assert np.all(spec >= 0)
    assert np.all(np.diff(spec) <= 1e-12)  # descending
    assert spec.sum() == pytest.approx(1.0, abs=1e-9)
    entropy = -sum(p * np.log2(p) for p in spec if p > 1e-12)
    assert entropy == pytest.approx(
        von_neumann_entropy(reduced_density(state, bp.bob)), abs=1e-9
    )


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition((1,), (1, 2))  # overlap
    with pytest.raises(ValueError):
        Bipartition((1,), (3,))  # does not cover 1..n
    with pytest.raises(ValueError):
        Bipartition((1,), (2, 3))  # |bob| > |alice|
    bp = Bipartition.of(3, [1, 2])
    assert bp.bob == (3,)


# ---------------------------------------------------------------------------
# AME / GME verdicts


def test_bell_is_ame():
    report = is_ame(ghz_state(2))
    assert report
    assert report.max_residual < 1e-12


def test_ghz3_is_ame():
    report = is_ame(ghz_state(3))
    assert report.is_ame
    assert all(abs(s - 1.0) < 1e-9 for s in report.entropies.values())


def test_ghz4_is_not_ame():
    report = is_ame(ghz_state(4))
    assert not report.is_ame
    assert report.entropies[(1, 2)] == pytest.approx(1.0, abs=1e-9)
    assert len(report.failing) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ghz_is_gme(n):
    assert is_gme_pure(ghz_state(n))


def test_bell_product_is_not_gme():
    assert not is_gme_pure(tensor_product(ghz_state(2), ghz_state(2)))


def test_product_state_is_not_gme():
    assert not is_gme_pure(basis_ket(3, 0))


def test_ame_implies_gme_on_fixtures():
    fixtures = [ghz_state(2), ghz_state(3), ghz_state(4), ghz_state(5),
                tensor_product(ghz_state(2), ghz_state(2)), w_state(), basis_ket(3, 0)]
    for state in fixtures:
        if is_ame(state).is_ame:
            assert is_gme_pure(state)


def per_side_reference(state, tol=1e-9):
    """AME and GME verdicts one side at a time, with an eigensolve of its own
    per reduced state: (is_ame, max_residual, failing, entropies, gme)."""
    n = state.n_qubits
    entropies, worst, failing = {}, 0.0, None
    for m in range(1, n // 2 + 1):
        for side in itertools.combinations(range(1, n + 1), m):
            rho = reduced_density(state, side).matrix
            eigs = np.linalg.eigvalsh(rho)
            eigs = eigs[eigs > 1e-12]
            entropies[side] = float(-np.sum(eigs * np.log2(eigs)))
            residual = float(np.max(np.abs(rho - np.eye(2**m) / 2**m)))
            worst = max(worst, residual)
            if residual > tol and failing is None:
                failing = side
    gme = all(s > tol for s in entropies.values())
    return failing is None, worst, failing, entropies, gme


_VERDICT_CASES = (
    [("haar", n) for n in range(2, 9)]
    + [("ghz", n) for n in range(2, 9)]
    + [("bell-product", 4), ("product", 3)]
)


@pytest.mark.parametrize("kind, n", _VERDICT_CASES)
def test_batched_verdicts_match_per_side_reference(kind, n):
    if kind == "haar":
        state = random_state(n, np.random.default_rng(100 + n))
    elif kind == "ghz":
        state = ghz_state(n)
    elif kind == "bell-product":
        state = tensor_product(ghz_state(2), ghz_state(2))
    else:
        state = basis_ket(n, 5)
    ref_ame, ref_residual, ref_failing, ref_entropies, ref_gme = per_side_reference(state)
    ame, gme = entanglement_verdicts(state)
    assert ame.is_ame == ref_ame == is_ame(state).is_ame
    assert ame.failing == ref_failing
    assert gme == ref_gme == is_gme_pure(state)
    assert abs(ame.max_residual - ref_residual) <= 1e-15
    assert list(ame.entropies) == list(ref_entropies)
    for side, entropy in ref_entropies.items():
        assert abs(ame.entropies[side] - entropy) <= 1e-12, side


def test_batched_verdicts_over_several_batches(monkeypatch):
    """Sides split across batches keep their order and verdicts."""
    import densecode.entanglement as ent

    state = random_state(6, np.random.default_rng(7))
    whole, whole_gme = entanglement_verdicts(state, tol=0.3)
    monkeypatch.setattr(ent, "_STACK_BYTES", 3 * 16 * 2**6)  # three sides a batch
    split, split_gme = entanglement_verdicts(state, tol=0.3)
    assert split.entropies == whole.entropies
    assert (split.is_ame, split.failing, split.max_residual, split_gme) == (
        whole.is_ame, whole.failing, whole.max_residual, whole_gme
    )


def _sparse_state(n, rng):
    """Three random complex amplitudes at random indices: a support that is
    not a subgroup of the index group."""
    v = np.zeros(2**n, dtype=complex)
    v[rng.choice(2**n, size=3, replace=False)] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return StateVector(n, v / np.linalg.norm(v))


def _tiny_amplitude_state():
    """|000> plus a 1e-200 amplitude on |011>, whose square underflows."""
    v = np.zeros(8)
    v[0], v[0b011] = 1.0, 1e-200
    return StateVector(3, v)


def _three_equal_state():
    """Equal weights on |0000>, |0101>, |1010>: on side (1, 2) the reduction
    is diag(1/3, 1/3, 1/3, 0), whose residual 1/4 sits on the zero row."""
    v = np.zeros(16)
    v[[0b0000, 0b0101, 0b1010]] = 1.0 / np.sqrt(3.0)
    return StateVector(4, v)


_COMPACT_CASES = [("sparse", n) for n in range(2, 9)] + [
    ("tiny", 3),
    ("ghz3-plus", 4),
    ("three-equal", 4),
]


@pytest.mark.parametrize("kind, n", _COMPACT_CASES)
def test_compact_pass_matches_reference_off_subgroup_supports(kind, n):
    if kind == "sparse":
        state = _sparse_state(n, np.random.default_rng(300 + n))
    elif kind == "tiny":
        state = _tiny_amplitude_state()
    elif kind == "ghz3-plus":
        state = tensor_product(ghz_state(3), StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2)))
    else:
        state = _three_equal_state()
    ref_ame, ref_residual, ref_failing, ref_entropies, ref_gme = per_side_reference(state)
    ame, gme = entanglement_verdicts(state)
    assert (ame.is_ame, ame.failing, gme) == (ref_ame, ref_failing, ref_gme)
    assert abs(ame.max_residual - ref_residual) <= 1e-15
    assert list(ame.entropies) == list(ref_entropies)
    for side, entropy in ref_entropies.items():
        assert abs(ame.entropies[side] - entropy) <= 1e-12, side
    # the first side over a tolerance shows residuals that the maximum hides
    for tol in (0.05, 0.1, 0.2, 0.3, 0.4):
        assert entanglement_verdicts(state, tol)[0].failing == per_side_reference(state, tol)[2]


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 11) for k in range(1, n)])
def test_layout_entropies_count_the_blocks_a_side_cuts(n, k):
    """Stabilizer oracle (Fattal et al., quant-ph/0406168): S_A = |A| - dim G_A,
    which for a product of GHZ blocks is the number of blocks that A cuts."""
    spec = dnk_spec(n, k)
    ame, gme = entanglement_verdicts(dnk_state(spec))
    for side, entropy in ame.entropies.items():
        cut = sum(0 < len(set(block) & set(side)) < len(block) for block in spec.blocks)
        assert abs(entropy - cut) <= 1e-12, side
    assert gme == (len(spec.blocks) == 1)


@st.composite
def sparse_states(draw):
    """A normalized state on a drawn support: random indices, a coset of a
    random subgroup of the index group (one rectangle per component on each
    side, of shapes that differ from side to side), or such a coset with a
    few indices more; real or complex amplitudes."""
    n = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["random", "coset", "coset-plus"]))
    index = st.integers(0, 2**n - 1)
    if kind == "random":
        support = draw(st.sets(index, min_size=1, max_size=min(2**n, 24)))
    else:
        support = {draw(index)}
        for generator in draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=4)):
            support |= {i ^ generator for i in support}
        if kind == "coset-plus":
            support |= draw(st.sets(index, min_size=1, max_size=3))
    support = sorted(support)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(len(support))
    if draw(st.booleans()):
        values = values + 1j * rng.standard_normal(len(support))
    v = np.zeros(2**n, dtype=complex)
    v[support] = values
    return StateVector(n, v / np.linalg.norm(v))


@settings(max_examples=80, deadline=None)
@given(sparse_states())
def test_component_pass_matches_the_dense_reference_on_sparse_states(state):
    ref_ame, ref_residual, ref_failing, ref_entropies, ref_gme = per_side_reference(state)
    ame, gme = entanglement_verdicts(state)
    assert (ame.is_ame, ame.failing, gme) == (ref_ame, ref_failing, ref_gme)
    assert abs(ame.max_residual - ref_residual) <= 1e-12
    assert list(ame.entropies) == list(ref_entropies)
    for side, entropy in ref_entropies.items():
        assert abs(ame.entropies[side] - entropy) <= 1e-12, side
    n = state.n_qubits
    for alice in ([1], list(range(1, n)), list(range(1, n + 1, 2))):
        bob = [q for q in range(1, n + 1) if q not in alice]
        rho = reduced_density(state, bob)
        rep = optimality_report(state, alice)
        dense_residual = np.abs(rho.matrix - np.eye(2 ** len(bob)) / 2 ** len(bob)).max()
        assert abs(rep.bob_marginal_residual - dense_residual) <= 1e-12
        assert abs(rep.capacity - (len(alice) + von_neumann_entropy(rho))) <= 1e-12
        assert rep.alice_size_sufficient == (len(alice) >= n / 2)
        if len(bob) <= len(alice):
            spectrum = schmidt_spectrum(state, Bipartition.of(n, alice))
            dense = np.clip(rho.eigenvalues(), 0.0, None)[::-1]
            assert spectrum.shape == dense.shape
            assert np.abs(spectrum - dense).max() <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_component_pass_in_small_pieces_matches_the_whole_pass(monkeypatch, seed):
    """Batches of one side, and block buffers cut into many groups."""
    rng = np.random.default_rng(400 + seed)
    n = 5 + seed % 3
    v = np.zeros(2**n, dtype=complex)
    v[rng.choice(2**n, size=12, replace=False)] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    state = tensor_product(StateVector(n, v / np.linalg.norm(v)), ghz_state(2))
    whole, whole_gme = entanglement_verdicts(state, tol=0.3)
    import densecode.entanglement as ent

    monkeypatch.setattr(ent, "_STACK_BYTES", 64)
    split, split_gme = entanglement_verdicts(state, tol=0.3)
    assert (split.is_ame, split.failing, split_gme) == (whole.is_ame, whole.failing, whole_gme)
    assert abs(split.max_residual - whole.max_residual) <= 1e-15
    for side, entropy in whole.entropies.items():
        assert abs(split.entropies[side] - entropy) <= 1e-12, side


@pytest.mark.parametrize("n", range(2, 13))
def test_every_layout_is_optimal_and_gme_exactly_with_one_block(n):
    """The paper's claim, for every D(N, k): the Alice|Bob cut reaches the
    Holevo bound through a maximally mixed receiver marginal, while the state
    is GME only with one block, and AME only at N <= 3."""
    for k in range(1, n):
        spec = dnk_spec(n, k)
        state = dnk_state(spec)
        rep = optimality_report(state, spec.alice_qubits)
        assert rep.optimal and rep.bob_marginal_maximally_mixed, (n, k)
        assert rep.bob_marginal_residual <= 1e-12, (n, k)
        ame, gme = entanglement_verdicts(state)
        assert gme == (len(spec.blocks) == 1), (n, k)
        assert ame.is_ame == (n <= 3), (n, k)


def test_bell_product_verdicts_name_the_first_failing_side():
    ame, gme = entanglement_verdicts(tensor_product(ghz_state(2), ghz_state(2)))
    assert not ame.is_ame and not gme
    assert ame.failing == (1, 2)  # one whole Bell pair: a pure marginal


# ---------------------------------------------------------------------------
# capacity and optimality


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_ghz_capacity_hits_holevo_bound(n):
    assert capacity(ghz_state(n), range(1, n)) == pytest.approx(holevo_bound(n), abs=1e-9)


@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_bell_product_capacity_is_two_bits_per_pair(pairs):
    state = ghz_state(2)
    for _ in range(pairs - 1):
        state = tensor_product(state, ghz_state(2))
    alice = [2 * p + 1 for p in range(pairs)]
    assert capacity(state, alice) == pytest.approx(2 * pairs, abs=1e-9)


def test_capacity_of_product_state():
    assert capacity(basis_ket(2, 0), {1}) == pytest.approx(1.0, abs=1e-12)


def test_capacity_of_maximally_mixed_density():
    rho = DensityOperator(2, np.eye(4) / 4)
    assert capacity(rho, {1}) == pytest.approx(0.0, abs=1e-9)


def test_holevo_bound_values():
    assert holevo_bound(3) == 3
    assert holevo_bound(1) == 1
    assert holevo_bound(12) == 12


def test_capacity_iff_bob_maximally_mixed():
    # capacity reaches n exactly when the receiver marginal is I/2**|B|
    fixtures = [
        (ghz_state(4), [1, 2, 3]),
        (tensor_product(ghz_state(2), ghz_state(2)), [1, 3]),
        (basis_ket(3, 0), [1, 2]),
        (w_state(), [1, 2]),
    ]
    for state, alice in fixtures:
        rep = optimality_report(state, alice)
        assert rep.optimal == rep.bob_marginal_maximally_mixed
        assert rep.capacity == pytest.approx(
            len(alice) + von_neumann_entropy(
                reduced_density(state, set(range(1, state.n_qubits + 1)) - set(alice))
            ),
            abs=1e-9,
        )


def test_w_state_is_suboptimal():
    rep = optimality_report(w_state(), [1, 2])
    assert not rep.optimal
    assert rep.capacity < 3.0
    assert not rep.bob_marginal_maximally_mixed


def test_optimality_report_ghz5():
    rep = optimality_report(ghz_state(5), [1, 2, 3, 4])
    assert rep.optimal
    assert rep.alice_size_sufficient
    assert rep.capacity == pytest.approx(5.0, abs=1e-9)
    assert rep.bob_marginal_residual < 1e-12


def test_optimality_report_product_state():
    rep = optimality_report(basis_ket(4, 0), [1, 2])
    assert not rep.optimal
    assert rep.capacity == pytest.approx(2.0, abs=1e-12)


def test_optimality_report_bell():
    rep = optimality_report(ghz_state(2), [1])
    assert rep.optimal
    assert rep.capacity == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_optimality_report_capacity_equals_capacity(seed):
    state = random_state(5, np.random.default_rng(seed))
    for alice in ([1, 2, 3], [2, 4], [1, 3, 4, 5]):
        assert optimality_report(state, alice).capacity == capacity(state, alice)


def test_capacity_rejects_bad_sender_set():
    with pytest.raises(ValueError):
        capacity(ghz_state(3), [])
    with pytest.raises(ValueError):
        capacity(ghz_state(3), [1, 2, 3])
