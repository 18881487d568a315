"""A ``densecode`` process pays at start-up only for what its command runs.

Most of a user's run is start-up: an ``encode`` or ``audit`` op takes under a
millisecond, its process about 150 ms with numpy and 70 ms without.  So
``import densecode.cli`` generates no code: the records are built without
dataclass's ``exec`` of generated methods (``statevec._record``).  It imports no
module that a plain-form argv does not run: ``_read_plain`` reads such an argv
without argparse, and json is imported only to read an attack file.  And it loads
no numpy: ``statevec`` binds the one ``np`` of every layer to a lazy module that
loads numpy on its first attribute read, which an ``encode`` never makes, while
``audit`` and ``security`` load it on first use.  Each check runs in a fresh
interpreter, under an audit hook that sees every ``compile`` of a source string,
once with numpy imported before densecode and once without.
"""

import ast
import os
import subprocess
import sys

import numpy as np
import pytest

import densecode
from densecode import cli, coding, security

SRC = os.path.dirname(os.path.dirname(os.path.abspath(densecode.__file__)))
LAYERS = ["densecode.cli", "densecode.coding", "densecode.entanglement",
          "densecode.security", "densecode.statevec"]
LAZY = ("argparse", "json", "numpy.random")
RUNS = {  # in the order the probe runs them; security last, as it loads numpy.random
    "encode": ["encode", "--message", "1011011101"],
    "senders": ["encode", "--message", "1011011101", "--senders", "3"],
    "audit": ["audit", "--ghz", "6", "--seed", "7"],
    "security": ["security", "--n", "5", "--rounds", "400", "--attack", "cnot", "--seed", "7"],
}

PROBE = r"""
import contextlib, io, sys
%(numpy)s
before = set(sys.modules)
compiled = []
sys.addaudithook(lambda event, args: compiled.append(args[1]) if event == "compile" else None)
import densecode.cli as cli

def loaded():
    return [name for name in %(lazy)r if name in sys.modules and name not in before]

def numpy_modules():
    return sorted(name for name in sys.modules if name.startswith("numpy."))

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()

seen = {"strings": [name for name in compiled if name == "<string>"], "import": loaded(),
        "layers": sorted(name for name in sys.modules if name.startswith("densecode.")),
        "numpy": {"import": numpy_modules()}, "reports": {}}
for name, argv in %(runs)r.items():
    seen["reports"][name] = run(argv)
    seen["numpy"][name] = numpy_modules()
    if name == "audit":
        seen["plain"] = loaded()
seen["np"] = [sys.modules[layer].np is sys.modules["numpy"] for layer in seen["layers"]]
plain = run(["audit", "--ghz", "3", "--seed", "7"])
seen["argparse"] = "argparse" in sys.modules
flagged = run(["audit", "--ghz=3", "--seed=7"])
seen["argparse"] = (seen["argparse"], "argparse" in sys.modules)
seen["same"] = plain == flagged and plain[0] == 0 and plain[1].startswith("{")
print(repr(seen))
"""

# Four threads make their first numpy read at once, in a process without numpy
THREADS = r"""
import sys, threading
import densecode
start = threading.Barrier(4)
states, errors = [], []

def first_use():
    start.wait()
    try:
        states.append(densecode.ghz_state(3).amplitudes.tolist())
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_use) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
print(repr({"errors": errors, "states": len(states), "distinct": len(set(map(repr, states))),
            "alive": sum(thread.is_alive() for thread in threads),
            "numpy": type(sys.modules["numpy"]).__name__}))
"""


def run_probe(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def probe(numpy_first: bool) -> dict:
    return run_probe(PROBE % {"numpy": "import numpy" if numpy_first else "",
                              "lazy": LAZY, "runs": RUNS})


@pytest.fixture(scope="module")
def seen() -> dict:
    """The probe with numpy imported first, as the benchmark's worker does: what
    densecode itself loads (numpy 1.x loads numpy.random with numpy)."""
    return probe(numpy_first=True)


@pytest.fixture(scope="module")
def cold() -> dict:
    """The probe of a user's process, which imports no numpy before densecode."""
    return probe(numpy_first=False)


def test_the_import_compiles_no_source_string(seen):
    # with numpy first: without it, the stdlib modules that dataclasses loads
    # (inspect, dis) build their namedtuples from source strings
    assert seen["strings"] == []


def test_the_import_loads_every_layer_module(seen, cold):
    # clibench's worker and tracer read the layers from sys.modules
    assert seen["layers"] == cold["layers"] == LAYERS


def test_neither_the_import_nor_plain_commands_load_argparse_json_or_numpy_random(seen):
    assert seen["import"] == []
    assert (seen["reports"]["senders"][0], seen["reports"]["audit"][0]) == (0, 0)
    assert seen["plain"] == []


def test_an_argv_not_in_plain_form_goes_through_argparse_to_the_same_bytes(seen):
    assert seen["argparse"] == (False, True)
    assert seen["same"]


def test_the_import_and_encode_load_no_numpy(cold):
    loaded = {name: cold["numpy"][name] for name in ("import", "encode", "senders")}
    assert loaded == {"import": [], "encode": [], "senders": []}
    assert cold["numpy"]["audit"], "audit loads numpy on its first numpy call"


def test_a_lazy_numpy_gives_the_same_reports_as_a_loaded_one(seen, cold):
    assert [code for code, _ in seen["reports"].values()] == [0, 0, 0, 4]
    assert cold["reports"] == seen["reports"]
    assert "numpy.random" in cold["numpy"]["security"]


def test_every_layer_binds_numpy_itself(seen, cold):
    # numpy imported first is bound as it is; a lazy one becomes numpy on first use
    assert seen["np"] == cold["np"] == [True] * len(LAYERS)


def test_threads_that_first_use_numpy_at_once_all_get_numpy():
    # the first read loads numpy under a lock, which a read from another thread waits on
    seen = run_probe(THREADS)
    assert seen == {"errors": [], "states": 4, "distinct": 1, "alive": 0, "numpy": "module"}


@pytest.mark.parametrize("blocks", range(1, 13))
def test_the_norm_sum_is_numpys_bit_for_bit(blocks):
    _, vals = coding.dnk_word("10" * blocks, coding.dnk_spec(2 * blocks, 1))
    assert len(vals) == 2**blocks
    want = float(np.add.reduce(np.array(vals) ** 2))
    assert cli._pairwise_sum([v * v for v in vals]).hex() == want.hex()


def test_a_preset_attack_is_built_once_and_shared(monkeypatch):
    built = []

    def make():
        built.append(security.EveAttack.cnot())
        return built[-1]

    monkeypatch.setattr(cli, "_ATTACKS", {})
    monkeypatch.setitem(security.ATTACK_PRESETS, "cnot", make)
    assert cli._load_attack("cnot") is cli._load_attack("cnot") is built[0]
    assert len(built) == 1
    assert cli._ATTACKS == {"cnot": built[0]}
