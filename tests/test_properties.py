"""Property tests over randomly drawn layouts, messages and attacks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from densecode import (
    EveAttack,
    Message,
    apply_eve,
    detection_report,
    dnk_code_basis,
    dnk_decode,
    dnk_encoded_state,
    dnk_spec,
    ghz_state,
)


@st.composite
def layouts(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    return n, draw(st.integers(min_value=1, max_value=n - 1))


@st.composite
def layouts_and_messages(draw):
    n, k = draw(layouts())
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return n, k, Message(tuple(bits))


@settings(max_examples=60, deadline=None)
@given(layouts_and_messages())
def test_dnk_basis_row_is_the_encoded_state_and_decodes(case):
    n, k, msg = case
    spec = dnk_spec(n, k)
    state = dnk_code_basis(n, k).state_for(msg)
    assert np.array_equal(state.amplitudes, dnk_encoded_state(msg, spec).amplitudes)
    assert dnk_decode(state, spec) == msg
    assert dnk_decode(state, spec, method="overlap") == dnk_decode(state, spec)


@settings(max_examples=30, deadline=None)
@given(layouts())
def test_dnk_code_basis_is_orthonormal(layout):
    assert dnk_code_basis(*layout).gram_report().residual() < 1e-12


def haar_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_detection_matches_the_closed_form_on_haar_attacks(n, seed):
    """With U |b>|0> = |0>|v_b0> + |1>|v_b1>, the exact detection rates are
    P_comp = (|v01|^2 + |v10|^2)/2 and P_had = (|v00 - v11|^2 + |v01 - v10|^2)/4,
    whatever n."""
    u = haar_unitary(4, np.random.default_rng(seed))
    v = {(b, o): u[2 * o : 2 * o + 2, 2 * b] for b in (0, 1) for o in (0, 1)}
    p_comp = (np.linalg.norm(v[0, 1]) ** 2 + np.linalg.norm(v[1, 0]) ** 2) / 2
    p_had = (
        np.linalg.norm(v[0, 0] - v[1, 1]) ** 2 + np.linalg.norm(v[0, 1] - v[1, 0]) ** 2
    ) / 4
    report = detection_report(apply_eve(ghz_state(n), EveAttack(u)), n_protocol=n)
    rates = (report.computational_inconsistency, report.hadamard_inconsistency, report.probability)
    assert all(0.0 <= rate <= 1.0 for rate in rates)
    assert abs(report.computational_inconsistency - p_comp) < 1e-12
    assert abs(report.hadamard_inconsistency - p_had) < 1e-12
    assert abs(report.probability - (p_comp + p_had) / 2) < 1e-12
