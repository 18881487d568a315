"""Property tests over randomly drawn layouts and messages."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from densecode import Message, dnk_code_basis, dnk_decode, dnk_encoded_state, dnk_spec


@st.composite
def layouts_and_messages(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    k = draw(st.integers(min_value=1, max_value=n - 1))
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
