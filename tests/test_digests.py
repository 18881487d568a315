"""Every seeded CLI report of ``tools/digest.py``'s report sweep, run in-process
and checked line by line against ``tools/digests-argv.txt``: exit code, stdout
and stderr of each argv, byte for byte, under the numpy version that wrote the
file.  A change that moves a report on purpose rewrites the file with
``python tools/digest.py --write tools/digests.txt``."""

import argparse
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


def test_every_value_error_argv_exits_2_with_one_densecode_line(capsys):
    for cmd in digest.VALUE_ERRORS:
        assert cli.main([*cmd, "--seed", "0"]) == 2, cmd
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, (cmd, lines)
        assert lines[0].startswith("densecode: "), cmd


def test_every_sweep_argv_runs_without_argparse(capsys, monkeypatch):
    def run(argv):
        code = cli.main(argv)
        return (code, *capsys.readouterr())

    argvs = [[*cmd, "--seed", "7", "--format", "json"] for cmd in digest.commands()]
    want = [run(argv) for argv in argvs]

    def forbidden(*args, **kwargs):
        raise AssertionError("argparse was called")

    for name in ("parse_known_args", "parse_args"):
        monkeypatch.setattr(argparse.ArgumentParser, name, forbidden)
    assert [run(argv) for argv in argvs] == want
    with pytest.raises(AssertionError, match="argparse was called"):
        cli.main(["audit", "--ghz=3", "--seed", "7"])
