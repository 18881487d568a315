"""Every seeded CLI report of ``tools/digest.py``'s report sweep, run in-process
and checked line by line against ``tools/digests-argv.txt``: exit code, stdout
and stderr of each argv, byte for byte, under the numpy version that wrote the
file.  A change that moves a report on purpose rewrites the file with
``python tools/digest.py --write tools/digests.txt``."""

import importlib.util
import pathlib

import numpy as np
import pytest

from densecode import cli

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def load_digest():
    spec = importlib.util.spec_from_file_location("digest", TOOLS / "digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest = load_digest()


def test_every_report_argv_is_the_recorded_one():
    version, expected = digest.read_argv_file(str(TOOLS / "digests-argv.txt"))
    if version != np.__version__:
        pytest.skip(f"tools/digests-argv.txt was written under numpy {version}, "
                    f"and this is numpy {np.__version__}")
    lines = []
    for _ in digest.reports(cli, lines):
        pass
    moved = digest.moved_argv(lines, expected)
    assert not moved, f"{len(moved)} argv moved:\n" + "\n".join(moved)
