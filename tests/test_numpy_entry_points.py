"""The CLI paths call numpy's C entry points, not the Python wrappers in front of them.

Every ``densecode`` op runs cold: a fresh process runs each path for the first time,
and the benchmark clears the package's caches and collects garbage before each op.
Cold, a numpy Python-level wrapper costs 2 to 3 times the C call it forwards to:
``np.max`` took 16 us against 5 us for ``np.maximum.reduce``, ``np.sum`` 11 against
3, and ``np.argsort`` 11 against 4.  So the commands and the decode reduce with
``np.maximum.reduce``, ``np.add.reduce`` and ``np.logical_and.reduce`` and call the
ndarray methods numpy implements in C (``argsort``, ``searchsorted``, ``cumsum``,
``diagonal``, ``sort``, ``ravel``).  ``.max()``, ``.sum()`` and ``.all()`` are not
among those: they forward to ``numpy/_core/_methods.py``.

This test runs one op of each benchmark workload class under ``sys.setprofile`` and
names each wrapper of ``WRAPPERS`` entered straight from a ``densecode`` frame.  A
wrapper is matched by file basename and function name, so that numpy 1.x, which
keeps them under ``numpy/core``, matches as 2.x does.  Before numpy 1.25 a
dispatched wrapper is entered through a shim compiled as ``<__array_function__
internals>`` under the wrapper's name, so the shim counts as the wrapper.  Only
these wrappers are flagged, not every numpy frame under a ``densecode`` caller:
``Generator`` methods are compiled code that may call numpy's Python functions
themselves, so their frames would sit right under a command's.
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

import densecode
from densecode import cli, coding
from densecode.statevec import CHUNK, StateVector

PACKAGE = os.path.dirname(os.path.abspath(densecode.__file__))

_REDUCTIONS = {"max", "amax", "min", "amin", "sum", "all", "any"}
_DISPATCHED = _REDUCTIONS | {"argsort", "searchsorted", "cumsum", "diagonal", "sort", "ravel",
                             "swapaxes", "trace", "count_nonzero", "flatnonzero",
                             "iscomplexobj", "tile"}
# file basename -> the wrappers in it that the CLI paths no longer enter
WRAPPERS = {
    "fromnumeric.py": _REDUCTIONS | {"argsort", "searchsorted", "cumsum", "diagonal", "sort",
                                     "ravel", "swapaxes", "trace"},
    "_methods.py": {"_amax", "_amin", "_sum", "_all", "_any"},  # ndarray.max(), .sum(), ...
    "numeric.py": {"count_nonzero", "flatnonzero"},
    "twodim_base.py": {"eye"},
    "_twodim_base_impl.py": {"eye"},
    "type_check.py": {"iscomplexobj"},
    "_type_check_impl.py": {"iscomplexobj"},
    "shape_base.py": {"tile"},
    "_shape_base_impl.py": {"tile"},
    "<__array_function__ internals>": _DISPATCHED,  # numpy < 1.25
}
# ``np.concatenate``'s dispatcher, a Python frame under numpy 2.x, refused where no
# densecode frame calls it: on the encode and audit ops and the receive.  A
# security op's ``Generator`` may enter it from compiled code, under a densecode
# frame.
NO_CONCATENATE = {**WRAPPERS, "multiarray.py": {"concatenate"},
                  "<__array_function__ internals>": _DISPATCHED | {"concatenate"}}


def wrappers_entered(run, wrappers=WRAPPERS):
    """``run()``, and each wrapper of ``wrappers`` it entered from a ``densecode``
    frame, as "file:wrapper from caller"."""
    entered = []

    def profile(frame, event, arg):
        if event != "call":
            return
        code, back = frame.f_code, frame.f_back
        base = os.path.basename(code.co_filename)
        if (code.co_name in wrappers.get(base, ()) and back is not None
                and os.path.dirname(os.path.abspath(back.f_code.co_filename)) == PACKAGE):
            entered.append(f"{base}:{code.co_name} from {back.f_code.co_name}")

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, entered


def clear_caches():
    """Every lru_cache of the package, as the benchmark clears them before an op."""
    for name, module in list(sys.modules.items()):
        if name.startswith("densecode."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@pytest.fixture(scope="module")
def attack_file(tmp_path_factory):
    rng = np.random.default_rng(38)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    unitary = q * (np.diag(r) / np.abs(np.diag(r)))
    path = tmp_path_factory.mktemp("attack") / "haar.json"
    path.write_text(json.dumps([[[v.real, v.imag] for v in row] for row in unitary.tolist()]))
    return str(path)


CLI_OPS = {
    "audit --ghz 6": ["audit", "--ghz", "6"],
    "audit --ghz 9": ["audit", "--ghz", "9"],
    "audit --dnk 12 5": ["audit", "--dnk", "12", "5"],
    "encode": ["encode", "--message", "1011001110001011"],
    "encode --senders 4": ["encode", "--message", "110100111010", "--senders", "4"],
    "security cnot": ["security", "--n", "5", "--rounds", "400", "--attack", "cnot"],
    "security file": ["security", "--n", "4", "--rounds", "1500", "--attack", "file:"],
}


@pytest.mark.parametrize("name", CLI_OPS)
def test_a_cli_op_enters_no_numpy_wrapper(name, attack_file):
    argv = [word + attack_file if word == "file:" else word for word in CLI_OPS[name]]
    wrappers = WRAPPERS if argv[0] == "security" else NO_CONCATENATE
    clear_caches()
    with contextlib.redirect_stdout(io.StringIO()):
        code, entered = wrappers_entered(lambda: cli.main([*argv, "--seed", "7"]), wrappers)
    assert code in (0, 4), code  # 4 is the verdict of a detecting attack
    assert not entered, f"{name} entered numpy wrappers: {sorted(set(entered))}"


def test_an_18_qubit_receive_enters_no_numpy_wrapper():
    """The roundtrip receiver's part: the state's chunked copy, which takes the max of
    each chunk's bits, and the circuit decode, which reads the copy in place."""
    message = "110101100111010110"
    spec = coding.dnk_spec(18, 17)
    amps = coding.dnk_encoded_state(message, spec).amplitudes.copy()
    assert not amps[:CHUNK].any()  # the first chunk is dead: the copy skips it
    clear_caches()
    decoded, entered = wrappers_entered(
        lambda: coding.dnk_decode(StateVector(18, amps), coding.dnk_spec(18, 17)),
        NO_CONCATENATE)
    assert str(decoded) == message
    assert not entered, f"the receive entered numpy wrappers: {sorted(set(entered))}"


def test_the_library_marginals_enter_no_numpy_wrapper():
    """The same rule on the library's marginals: a GHZ state's receiver takes the
    diagonal branch of ``_marginals``, a random state's sides the stacked eigensolve."""
    rng = np.random.default_rng(38)
    v = rng.standard_normal(2**5) + 1j * rng.standard_normal(2**5)
    haar = StateVector(5, v / np.linalg.norm(v))
    ghz = densecode.ghz_state(6)

    def run():
        densecode.optimality_report(ghz, range(1, 6))
        densecode.entanglement_verdicts(ghz)
        densecode.entanglement_verdicts(haar)
        return densecode.equal_up_to_global_phase(haar, haar)

    same, entered = wrappers_entered(run)
    assert same
    assert not entered, f"the marginals entered numpy wrappers: {sorted(set(entered))}"
