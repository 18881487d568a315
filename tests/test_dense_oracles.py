"""No CLI op enters a dense oracle.

The commands read closed forms: ``audit`` one ``coding.layout_audit`` call, ``encode``
one word's support, and ``security`` the attack's closed form and the check-round
sampler.  The tests hold each closed form against a dense oracle, which builds a
2^n array or reads every bipartition: ``optimality_report`` and
``entanglement_verdicts`` of ``dnk_state``, ``dnk_code_basis`` and the overlap
decode, ``detection_report`` of ``apply_eve``.  Such a check compares two paths
only while no command takes the oracle's.

This test runs each command under ``sys.setprofile``, as
``tests/test_numpy_entry_points.py`` runs its own, and names each function of
``ORACLES`` entered from a ``densecode`` frame: ``encode`` with and without
``--senders``, the audit of every ``_AUDIT_TARGETS`` layout, and ``security`` under
no attack, each preset and one attack file.
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

import densecode
from densecode import cli, security
from test_cli import _AUDIT_TARGETS
from test_numpy_entry_points import clear_caches

PACKAGE = os.path.dirname(os.path.abspath(densecode.__file__))

# file basename in the package -> the dense oracles in it
ORACLES = {
    "entanglement.py": {"reduced_density", "partial_trace", "entanglement_verdicts",
                        "_marginals", "optimality_report"},
    "security.py": {"detection_report", "apply_eve"},
    "coding.py": {"dnk_state", "dnk_code_words", "dnk_code_basis", "_overlap_decode"},
}


def in_package(code):
    return os.path.dirname(os.path.abspath(code.co_filename)) == PACKAGE


def oracles_entered(argv):
    """``cli.main(argv)``'s exit code, and each oracle it entered from a ``densecode``
    frame, as "file:oracle from caller"."""
    entered = []

    def profile(frame, event, arg):
        if event != "call":
            return
        code, back = frame.f_code, frame.f_back
        if (code.co_name in ORACLES.get(os.path.basename(code.co_filename), ())
                and in_package(code) and back is not None and in_package(back.f_code)):
            entered.append(f"{os.path.basename(code.co_filename)}:{code.co_name} "
                           f"from {back.f_code.co_name}")

    clear_caches()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.setprofile(None)
    return code, entered


@pytest.fixture(scope="module")
def attack_file(tmp_path_factory):
    rng = np.random.default_rng(42)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    unitary = q * (np.diag(r) / np.abs(np.diag(r)))
    path = tmp_path_factory.mktemp("attack") / "haar.json"
    path.write_text(json.dumps([[[v.real, v.imag] for v in row] for row in unitary.tolist()]))
    return str(path)


CLI_OPS = {
    "encode": ["encode", "--message", "1011001110001011"],
    "encode --senders": ["encode", "--message", "110100111010", "--senders", "4"],
    **{f"audit {' '.join(target)}": ["audit", *target] for target in _AUDIT_TARGETS},
    **{f"security {attack}": ["security", "--n", "4", "--rounds", "400", "--attack", attack]
       for attack in ("none", *security.ATTACK_PRESETS)},
    "security file": ["security", "--dnk", "5", "2", "--rounds", "400", "--attack", "file:"],
}


@pytest.mark.parametrize("name", CLI_OPS)
def test_a_cli_op_enters_no_dense_oracle(name, attack_file):
    argv = [word + attack_file if word == "file:" else word for word in CLI_OPS[name]]
    code, entered = oracles_entered([*argv, "--seed", "7"])
    assert code in (0, 4), code  # 4 is the verdict of a detecting attack
    assert not entered, f"{name} entered dense oracles: {sorted(set(entered))}"


def test_the_guard_sees_an_oracle(monkeypatch):
    """An audit routed through ``optimality_report`` of the dense resource is caught,
    by the oracles those two enter in the package."""
    from densecode import coding, entanglement

    def dense(sizes, values, tol):
        spec = coding.dnk_spec(4, 3)
        return entanglement.optimality_report(coding.dnk_state(spec), spec.alice_qubits, tol)

    monkeypatch.setattr(coding, "layout_optimality", dense)
    code, entered = oracles_entered(["audit", "--ghz", "4"])
    assert code == 0
    assert {"entanglement.py:_marginals from _receiver_marginal",
            "coding.py:dnk_code_words from dnk_state"} <= set(entered)
