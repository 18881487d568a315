"""The library's argument checks: each bad call raises a ValueError that says
what is wrong."""

import re

import numpy as np
import pytest

from densecode import (
    Bipartition,
    DensityOperator,
    EveAttack,
    Message,
    PauliLabel,
    PauliString,
    StateVector,
    apply_two_qubit,
    basis_ket,
    bell_pairs_state,
    detection_report,
    dnk_spec,
    entanglement_verdicts,
    equal_up_to_global_phase,
    ghz_state,
    holevo_bound,
    is_ame,
    is_gme_pure,
    layout_verdicts,
    optimality_report,
    parity_class,
    pauli_equivalent,
    pm_support,
    schmidt_spectrum,
    security_simulation,
    undetectable_certificate,
)

X = PauliLabel.X
NAN = float("nan")
GHZ2_AMPS = ghz_state(2).amplitudes


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
    (security_simulation, (3, EveAttack.cnot(), 1000, np.random.default_rng(0), NAN),
     "threshold must be a finite number in [0, 1], got nan"),
    (security_simulation, (3, None, 10, np.random.default_rng(0), 1.5),
     "threshold must be a finite number in [0, 1], got 1.5"),
    (security_simulation, (3, None, 10, np.random.default_rng(0), -0.1),
     "threshold must be a finite number in [0, 1], got -0.1"),
    (security_simulation, (3, None, 10.5, np.random.default_rng(0)),
     "rounds must be an integer, got 10.5"),
    (security_simulation, (3, None, True, np.random.default_rng(0)),
     "rounds must be an integer, got True"),
    (Message, ((1.7, 0),), "message bits must be 0 or 1: (1.7, 0)"),
    (Message, ((1, 0.5),), "message bits must be 0 or 1: (1, 0.5)"),
    (holevo_bound, (2.5,), "n must be an integer, got 2.5"),
    (StateVector, (2.0, GHZ2_AMPS), "n_qubits must be an integer, got 2.0"),
    (PauliString, ((X,), (1.5,)), "target must be an integer, got 1.5"),
    (layout_verdicts, ([4], NAN), "tol must be a finite number >= 0, got nan"),
    (layout_verdicts, ([4], -1e-9), "tol must be a finite number >= 0, got -1e-09"),
    (optimality_report, (ghz_state(3), [1, 2], NAN), "tol must be a finite number >= 0, got nan"),
    (undetectable_certificate, (EveAttack.identity(), NAN),
     "tol must be a finite number >= 0, got nan"),
    (undetectable_certificate, (EveAttack.identity(), -1.0),
     "tol must be a finite number >= 0, got -1.0"),
    (entanglement_verdicts, (ghz_state(3), NAN), "tol must be a finite number >= 0, got nan"),
    (is_ame, (ghz_state(3), NAN), "tol must be a finite number >= 0, got nan"),
    (is_gme_pure, (ghz_state(3), -1.0), "tol must be a finite number >= 0, got -1.0"),
    (basis_ket, (2.0, 1), "n must be an integer, got 2.0"),
    (basis_ket, (2, 1.0), "index must be an integer, got 1.0"),
    (ghz_state, (2.5,), "n must be an integer, got 2.5"),
    (dnk_spec, (4.0, 3), "n_bits must be an integer, got 4.0"),
    (dnk_spec, (4, True), "n_senders must be an integer, got True"),
    (bell_pairs_state, (1.5,), "n_pairs must be an integer, got 1.5"),
    (parity_class, (ghz_state(3), NAN), "tol must be a finite number >= 0, got nan"),
    (parity_class, (ghz_state(3), -1), "tol must be a finite number >= 0, got -1"),
    (pm_support, (ghz_state(3), NAN), "cutoff must be a finite number >= 0, got nan"),
    (pm_support, (ghz_state(3), -1), "cutoff must be a finite number >= 0, got -1"),
    (equal_up_to_global_phase, (ghz_state(3), ghz_state(3), NAN),
     "tol must be a finite number >= 0, got nan"),
    (equal_up_to_global_phase, (ghz_state(3), ghz_state(3), -1),
     "tol must be a finite number >= 0, got -1"),
])
def test_bad_arguments_raise_a_value_error_saying_why(call, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)
