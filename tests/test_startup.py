"""A ``densecode`` process pays at start-up only for what its command runs.

Most of a user's run is start-up: an ``encode`` or ``audit`` op takes under a
millisecond, the process about 150 ms.  So ``import densecode.cli`` generates no
code: the records are built without dataclass's ``exec`` of generated methods
(``statevec._record``).  And it imports no module that a plain-form argv does not
run: ``_read_plain`` reads such an argv without argparse, and json is imported
only to read an attack file.  Each check runs in a fresh interpreter, under an
audit hook that sees every ``compile`` of a source string.
"""

import ast
import os
import subprocess
import sys

import pytest

import densecode

SRC = os.path.dirname(os.path.dirname(os.path.abspath(densecode.__file__)))
LAYERS = ["densecode.cli", "densecode.coding", "densecode.entanglement",
          "densecode.security", "densecode.statevec"]
LAZY = ("argparse", "json", "numpy.random")

PROBE = r"""
import contextlib, io, sys
import numpy  # numpy's own start-up is not densecode's; numpy 1.x loads numpy.random
before = set(sys.modules)
compiled = []
sys.addaudithook(lambda event, args: compiled.append(args[1]) if event == "compile" else None)
import densecode.cli as cli

def loaded():
    return [name for name in %(lazy)r if name in sys.modules and name not in before]

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()

seen = {"strings": [name for name in compiled if name == "<string>"], "import": loaded(),
        "layers": sorted(name for name in sys.modules if name.startswith("densecode."))}
seen["encode"] = run(["encode", "--message", "1011011101", "--senders", "3"])[0]
seen["audit"] = run(["audit", "--ghz", "6", "--seed", "7"])[0]
seen["plain"] = loaded()
plain = run(["audit", "--ghz", "3", "--seed", "7"])
seen["argparse"] = "argparse" in sys.modules
flagged = run(["audit", "--ghz=3", "--seed=7"])
seen["argparse"] = (seen["argparse"], "argparse" in sys.modules)
seen["same"] = plain == flagged and plain[0] == 0 and plain[1].startswith("{")
print(repr(seen))
"""


@pytest.fixture(scope="module")
def seen() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE % {"lazy": LAZY}], env=env,
                          capture_output=True, text=True, check=True)
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def test_the_import_compiles_no_source_string(seen):
    assert seen["strings"] == []


def test_the_import_loads_every_layer_module(seen):
    # clibench's worker and tracer read the layers from sys.modules
    assert seen["layers"] == LAYERS


def test_neither_the_import_nor_plain_commands_load_argparse_json_or_numpy_random(seen):
    assert seen["import"] == []
    assert (seen["encode"], seen["audit"]) == (0, 0)
    assert seen["plain"] == []


def test_an_argv_not_in_plain_form_goes_through_argparse_to_the_same_bytes(seen):
    assert seen["argparse"] == (False, True)
    assert seen["same"]
