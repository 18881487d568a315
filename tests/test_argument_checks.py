"""The library's argument checks: each bad call raises a ValueError that says
what is wrong."""

import re

import numpy as np
import pytest

from densecode import (
    Bipartition,
    DensityOperator,
    PauliLabel,
    PauliString,
    StateVector,
    apply_two_qubit,
    basis_ket,
    bell_pairs_state,
    detection_report,
    dnk_spec,
    entanglement_verdicts,
    ghz_state,
    holevo_bound,
    layout_verdicts,
    pauli_equivalent,
    schmidt_spectrum,
    security_simulation,
)

X = PauliLabel.X


@pytest.mark.parametrize("call, args, message", [
    (StateVector, (0, [1.0]), "need at least one qubit, got 0"),
    (PauliString, ((X,), (1, 2)), "labels and targets must have equal length"),
    (PauliString, ((X,), (0,)), "qubit indices are 1-based"),
    (basis_ket, (0, 0), "need at least one qubit, got 0"),
    (apply_two_qubit, (ghz_state(2), np.eye(4), (1, 1)), "two distinct qubits"),
    (dnk_spec, (1, 1), "need at least 2 message bits, got 1"),
    (pauli_equivalent, (PauliString((X,), (3,)), PauliString((X,), (1,)), 3),
     "encoding strings act on qubits 1..2"),
    (bell_pairs_state, (0,), "need at least one Bell pair"),
    (DensityOperator, (1, np.eye(4) / 4), "expected a 2x2 matrix, got (4, 4)"),
    (Bipartition, ((), (1,)), "both sides of a bipartition must be non-empty"),
    (schmidt_spectrum, (ghz_state(3), Bipartition.of(4, [1, 2])),
     "bipartition covers 4 qubits, state has 3"),
    (entanglement_verdicts, (basis_ket(1, 0),), "need at least 2 qubits"),
    (holevo_bound, (0,), "need at least one qubit, got 0"),
    (detection_report, (ghz_state(3), 4), "protocol size 4 invalid for 3 qubits"),
    (detection_report, (ghz_state(3), 1), "protocol size 1 invalid for 3 qubits"),
    (security_simulation, (1, None, 10, np.random.default_rng(0)),
     "protocol needs at least 2 qubits, got 1"),
    (layout_verdicts, ([3, 1],), "GHZ blocks need at least 2 qubits each, got [3, 1]"),
])
def test_bad_arguments_raise_a_value_error_saying_why(call, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)
