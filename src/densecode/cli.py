"""Command-line interface: encode / audit / security.

Every run emits one machine-readable report with the stable top-level keys
{command, params, results, residuals, verdict, seed}.  Identical arguments
and seed produce byte-identical JSON.  Exit codes: 0 success, 2 validation
error, 4 security-abort verdict.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from . import coding, entanglement, security, statevec

from _json import encode_basestring_ascii  # json.encoder's own C escaper

# A plain-form argv imports neither argparse nor json: ``_read_plain`` reads it
# into a SimpleNamespace, and only an attack file is parsed as JSON.
if TYPE_CHECKING:
    import argparse

    Args = SimpleNamespace | argparse.Namespace

ENV_SEED = "DENSECODE_SEED"
MAX_AUDIT_QUBITS = 12  # the largest register the audit benchmark runs (--dnk 12)
MAX_ENCODE_BITS = 24  # the report's amplitude table: 2^B rows, B <= n/2 blocks, 4096 at 24


def _operator_entry(ps: statevec.PauliString) -> dict[str, Any]:
    return {
        "labels": [lab.value for lab in ps.labels],
        "targets": list(ps.targets),
        "text": str(ps),
    }


def _report(command: str, params: dict, results: dict, residuals: dict,
            verdict: str, seed: int) -> dict:
    return {
        "command": command,
        "params": params,
        "results": results,
        "residuals": residuals,
        "verdict": verdict,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# encode


def _layout_entry(spec: coding.DnkSpec) -> dict[str, Any]:
    return {
        "ghz_size": spec.ghz_size,
        "bell_pairs": spec.bell_pairs,
        "bob_qubits": list(spec.bob_qubits),
    }


def _layout(flag: str, n: int, k: int) -> coding.DnkSpec:
    """D(n, k), with the sender count checked against the flag that gave it."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"{flag} must be in 1..{n - 1}, got {k}")
    return coding.dnk_spec(n, k)


def _named_layout(args: Args) -> tuple[coding.DnkSpec, dict[str, Any]]:
    """The layout named by the one layout flag the command was given, with that
    flag's params entry: --ghz N is D(N, N-1), --bell P is D(2P, 1), --dnk N K
    is D(N, K), and security's --n N is --ghz N."""
    flags = [flag for flag in ("ghz", "bell", "dnk", "n") if hasattr(args, flag)]
    given = [flag for flag in flags if getattr(args, flag) is not None]
    if len(given) != 1:
        names = ", ".join(f"--{flag}" for flag in flags)
        raise ValueError(f"{args.command} requires exactly one of {names}")
    flag = given[0]
    value = getattr(args, flag)
    if flag == "bell":
        spec = coding.dnk_spec(2 * value, 1)
    elif flag == "dnk":
        spec = _layout("--dnk K", *value)
    else:
        spec = coding.dnk_spec(value, value - 1)
    return spec, {flag: value}


def _share_entry(share: coding.PartyShare) -> dict[str, Any]:
    return {"qubits": list(share.qubits), "bits": list(share.bits)}


def cmd_encode(args: Args) -> tuple[dict, int]:
    msg = coding.Message.from_string(args.message)
    n = len(msg)
    if n > MAX_ENCODE_BITS:
        raise ValueError(f"--message supports at most {MAX_ENCODE_BITS} bits, got {n}")
    spec = _layout("--senders", n, n - 1 if args.senders is None else args.senders)
    cols, vals = coding.dnk_word(msg, spec)
    full = coding.dnk_combined_string(msg, spec)
    results: dict[str, Any] = {
        "message": str(msg),
        "n_bits": n,
        "operator": _operator_entry(full),
        "parties": None,
    }
    if args.senders is not None:
        results["layout"] = _layout_entry(spec)
        results["parties"] = {  # each party's operator, as ``coding.dnk_encode`` splits it
            str(share.party): {
                **_share_entry(share),
                "operator": _operator_entry(full.restricted_to(share.qubits)),
            }
            for share in spec.shares
        }
    results["amplitudes"] = [[c, v, 0.0] for c, v in zip(cols, vals)]
    norm_dev = abs(float(np.add.reduce(np.array(vals) ** 2)) - 1.0)
    params = {"message": args.message, "senders": args.senders}
    return _report("encode", params, results, {"norm_deviation": norm_dev}, "ok", args.seed), 0


# ---------------------------------------------------------------------------
# audit


def cmd_audit(args: Args) -> tuple[dict, int]:
    spec, params = _named_layout(args)
    params["tolerance"] = args.tolerance
    audit = coding.layout_audit(spec, args.seed, args.tolerance)
    opt, gram = audit.optimality, audit.gram
    results: dict[str, Any] = {
        "capacity": opt.capacity,
        "holevo_bound": opt.holevo_bound,
        "alice_size_sufficient": opt.alice_size_sufficient,
        "bob_marginal_maximally_mixed": opt.bob_marginal_maximally_mixed,
        "optimal": opt.optimal,
        "ame": audit.ame,
        "gme": audit.gme,
        "orthonormality": None if gram is None else dict(vars(gram)),
        "layout": {**_layout_entry(spec),
                   "parties": {str(share.party): _share_entry(share) for share in spec.shares}},
        "roundtrip": {"messages_checked": audit.messages_checked, "failures": audit.failures},
    }
    residuals = {
        "capacity_gap": abs(opt.capacity - opt.holevo_bound),
        "bob_marginal_residual": opt.bob_marginal_residual,
        "ame_max_residual": audit.ame_residual,
        "gram_residual": None if gram is None else gram.residual(),
    }
    verdict = "optimal" if opt.optimal else "suboptimal"
    return _report("audit", params, results, residuals, verdict, args.seed), 0


# ---------------------------------------------------------------------------
# security


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite number {name} is not allowed")


def _refuse_constants(path: str, text: str) -> None:
    """Raise the "cannot read" error of the strict parse of an attack file's
    ``text``, which refuses NaN, Infinity and -Infinity, if it gives one.  A file
    is parsed with json's default decoder, which takes them, and again strictly
    only when its rows fail to parse or to make a matrix, or ``EveAttack``
    refuses the matrix: the strict parse names the first constant or the first
    syntax error, in the order the file reads, so each error is the one a strict
    parse alone gives."""
    import json

    try:
        json.loads(text, parse_constant=_reject_constant)
    except (RecursionError, ValueError) as exc:  # RecursionError: arrays nested too deep
        raise ValueError(f"cannot read attack matrix file {path!r}: {exc}") from exc


# One validated instance per preset, built once at import: an ``EveAttack`` is
# frozen with a read-only unitary, so every op can share it.
_ATTACKS = {name: make() for name, make in security.ATTACK_PRESETS.items()}


def _load_attack(spec_text: str) -> Optional[security.EveAttack]:
    if spec_text == "none":
        return None
    if spec_text in _ATTACKS:
        return _ATTACKS[spec_text]
    if spec_text.startswith("file:"):
        import json

        path = spec_text[len("file:"):]
        text = None
        try:
            with open(path, "rb", buffering=0) as fh:  # one read of the whole file
                data = fh.read()
            # decoded as text mode reads it: UTF-8, each \r\n and \r a \n
            text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            rows = json.loads(text)
        except (OSError, RecursionError, ValueError) as exc:
            if text is not None:
                _refuse_constants(path, text)
            raise ValueError(f"cannot read attack matrix file {path!r}: {exc}") from exc
        try:
            matrix = np.array(
                [[complex(re, im) for re, im in row] for row in rows], dtype=complex
            )
        except (OverflowError, TypeError, ValueError) as exc:  # an int too large for a float
            _refuse_constants(path, text)
            raise ValueError(
                f"malformed attack matrix in {path!r}: expected 4 rows of 4 "
                f"[re, im] pairs ({exc})"
            ) from exc
        try:
            return security.EveAttack(matrix)
        except ValueError as exc:
            _refuse_constants(path, text)  # else a number past float range, as 1e999
            raise ValueError(f"invalid attack matrix in {path!r}: {exc}") from exc
    raise ValueError(
        f"unknown attack {spec_text!r}: use none, "
        f"{', '.join(sorted(security.ATTACK_PRESETS))}, or file:PATH"
    )


def cmd_security(args: Args) -> tuple[dict, int]:
    spec, params = _named_layout(args)
    attack = _load_attack(args.attack)

    rng = np.random.default_rng(args.seed)
    sim = security.security_simulation(
        spec.n_qubits, attack, args.rounds, rng, threshold=args.threshold,
        blocks=len(spec.blocks),
    )

    empirical = dict(vars(sim))  # shallow: asdict's recursive copy is 2% of a security op
    exact = dict(vars(empirical.pop("exact")))
    exact["detection_probability"] = exact.pop("probability")
    del empirical["threshold"], empirical["aborted"]  # params and verdict report them
    results: dict[str, Any] = {
        "n": spec.n_qubits,
        "layout": _layout_entry(spec),
        "attack": args.attack,
        "exact": exact,
        "empirical": empirical,
        "threshold": args.threshold,
    }
    residuals: dict[str, Any] = {
        "empirical_vs_exact": abs(sim.detection_rate - sim.exact.probability),
    }
    if attack is not None:
        cert = security.undetectable_certificate(attack, tol=args.cert_tolerance)
        results["certificate"] = dict(vars(cert))
        residuals["certificate_max"] = max(
            cert.flip_01, cert.flip_10, cert.branch_mismatch
        )
    else:
        results["certificate"] = None

    verdict = "abort" if sim.aborted else "pass"
    params.update(attack=args.attack, rounds=args.rounds, threshold=args.threshold,
                  cert_tolerance=args.cert_tolerance)
    report = _report("security", params, results, residuals, verdict, args.seed)
    return report, (4 if sim.aborted else 0)


# ---------------------------------------------------------------------------
# rendering and entry point


def _float_json(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# Each JSON scalar's text by exact type, as ``json.dumps`` writes it.
_SCALAR = {str: encode_basestring_ascii, int: int.__repr__, float: _float_json,
           bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


# A table of fewer rows takes the recursive path: the column pass saves less
# than its fixed cost there.  Rendered with the CPU caches cold, as one CLI
# call finds them, 2 rows took 47 us by columns against 29 us by rows, and
# the two met at about 16 rows (Python 3.11, two shared x86-64 cores).
_TABLE_ROWS = 16


def _column(col: tuple) -> Any:
    """One table column as (printf spec, values): ints as they are under
    ``%d``, which writes ``int.__repr__``, floats as texts with one
    ``_float_json`` call per distinct value.  None for any other column.  The
    memo is keyed on the value, where ``0.0 == -0.0``, so a column that holds
    zeros of both signs takes one ``_float_json`` call per float instead."""
    kinds = set(map(type, col))
    if kinds == {int}:
        return "%d", col
    if kinds != {float}:
        return None
    texts = {v: _float_json(v) for v in set(col)}
    if 0.0 in texts and len({math.copysign(1.0, v) for v in col if not v}) > 1:
        return "%s", map(_float_json, col)
    return "%s", map(texts.__getitem__, col)


def _rows(rows: list, pad: str) -> Any:
    """The texts of ``rows``, as ``_json`` joins them for ``pad``, as one text
    made by one ``%`` over a format of every row, when there are at least
    ``_TABLE_ROWS`` rows, all lists of one length >= 1 whose columns each hold
    only ints or only floats (``_column``).  None for any other list, and for a
    table with a non-finite float, so that the recursive path raises on the
    first in document order, as ``json.dumps`` does."""
    if len(rows) < _TABLE_ROWS or set(map(type, rows)) != {list}:
        return None
    width = len(rows[0])
    if len(set(map(len, rows))) != 1 or not width:
        return None
    try:
        cols = [_column(col) for col in zip(*rows)]
    except ValueError:
        return None
    if None in cols:
        return None
    specs, values = zip(*cols)
    flat = [None] * (len(rows) * width)  # row by row, as the format reads them
    for j, column in enumerate(values):
        flat[j::width] = column
    inner = pad + "  " if pad else ""
    row = "[" + inner + ("," + (inner or " ")).join(specs) + pad + "]"
    return [("," + (pad or " ")).join([row] * len(rows)) % tuple(flat)]


def _json(value: Any, pad: str) -> str:
    """``json.dumps(value, sort_keys=True, allow_nan=False)`` for plain JSON
    values, with ``indent=2`` when ``pad`` is the newline and indent that
    ``value`` starts at, else on one line (``pad`` empty).  A list of scalars
    takes one pass through ``_SCALAR``, a table of numeric rows one pass per
    column (``_rows``); any other container recurses."""
    scalar = _SCALAR.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = pad + "  " if pad else ""
    if isinstance(value, dict):
        ends, items = "{}", [f"{_SCALAR[str](key)}: {_json(value[key], inner)}"
                             for key in sorted(value)]
    elif isinstance(value, list):
        ends = "[]"
        try:
            items = [_SCALAR[type(v)](v) for v in value]
        except KeyError:
            items = _rows(value, inner) or [_json(v, inner) for v in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return ends
    return ends[0] + inner + ("," + (inner or " ")).join(items) + pad + ends[1]


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    """One (key, text) row per leaf of ``value``: a list of JSON scalars joined
    by ``;`` as ``str`` writes them, any other list as its JSON, which refuses
    a non-JSON item with ``json.dumps``'s ``TypeError``.  Either list refuses a
    non-finite float with the json format's ``ValueError``."""
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    elif isinstance(value, list) and set(map(type, value)) <= _SCALAR.keys():
        for item in value:
            if type(item) is float and not math.isfinite(item):
                _float_json(item)  # raises json's ValueError
        rows.append((prefix, ";".join(map(str, value))))
    else:
        rows.append((prefix, _json(value, "")))


def _csv_field(value: str) -> str:
    """``value`` as one CSV field: quoted, its quotes doubled, when it holds a
    comma, as the JSON of a nested list does."""
    return '"' + value.replace('"', '""') + '"' if "," in value else value


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(report, "\n") + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    if fmt == "csv":
        return "".join(f"{key},{_csv_field(value)}\n" for key, value in rows)
    if fmt == "text":
        width = max(len(key) for key, _ in rows)
        return "".join(f"{key.ljust(width)}  {value}\n" for key, value in rows)
    raise ValueError(f"unknown format {fmt!r}")


def _write_output(text: str, output: Optional[str]) -> None:
    """Write the report to stdout, or to ``output`` through any symlinks.
    An existing FIFO, device or other non-regular file is written in place;
    a regular file is replaced atomically and keeps its mode where the file
    system can set one, and a new one gets the mode the umask allows."""
    if output is None:
        sys.stdout.write(text)
        return
    path = os.path.realpath(output)
    try:
        try:
            mode: Optional[int] = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        tmp_path = os.path.join(os.path.dirname(path), f".densecode-{os.urandom(8).hex()}")
        try:
            # "x" creates the file exclusively, with the mode the umask allows
            with open(tmp_path, "x", encoding="utf-8") as fh:
                if mode is not None:
                    try:
                        os.fchmod(fh.fileno(), stat.S_IMODE(mode))
                    except OSError:
                        pass  # a file system without modes (vfat) keeps its own
                fh.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write the report to {output!r}: {exc.strerror or exc}") from exc


def _seed(args: Args) -> int:
    """``--seed``, else ``$DENSECODE_SEED``, else 0; an integer in [0, 2**63)."""
    if args.seed is not None:
        name, raw = "--seed", args.seed
    else:
        name, raw = ENV_SEED, os.environ.get(ENV_SEED, "0")
    try:
        seed = int(raw)
        if 0 <= seed < 2**63:
            return seed
    except ValueError:
        pass
    raise ValueError(f"{name} must be an integer in [0, 2**63), got {raw!r}")


_COMMON = (
    ("--seed", dict(default=None, help=f"RNG seed in [0, 2**63) (default ${ENV_SEED} or 0)")),
    ("--format", dict(choices=("json", "csv", "text"), default="json")),
    ("--output", dict(default=None, help="write the report to a file")),
)
# The caps bound the table of code words ``coding.layout_audit`` reads; one is
# raised only with a paired benchmark run at the new size.  security builds no
# state at any size, so these caps, and --n's, bound only the audit's cost.
_LAYOUTS = (  # exactly one: _named_layout
    ("--ghz", dict(default=None, metavar="N"), 2, MAX_AUDIT_QUBITS, "qubits"),
    ("--bell", dict(default=None, metavar="PAIRS"),
     1, 10, "pairs"),  # 2P qubits on 2^P support indices
    ("--dnk", dict(nargs=2, default=None, metavar=("N", "K")),
     2, MAX_AUDIT_QUBITS, "bits"),  # N, as --ghz; K: 1..N-1
)
# Each command's help line and its flags as (option string, ``add_argument``
# keywords), in the order its help lists them and its namespace holds them.  A
# flag stores its text: no type, action or variable nargs, which ``_TABLES``
# does not read.  A numeric flag's row goes on with its range, (low, high,
# unit), which ``_validate`` checks before a command runs: a row without a unit
# is a float flag, finite and >= 0 (``statevec._finite``).  A count bounded by
# another flag is checked where both are known, so its row has no low or high:
# --senders and K of --dnk against N in ``_layout``, and the length of
# --message in ``cmd_encode``.
_COMMAND_FLAGS = {
    "encode": ("encode a classical message", _COMMON + (
        ("--message", dict(required=True, help="bit string, length >= 2")),
        ("--senders", dict(default=None,
                           help="split across this many senders (distributed layout)"),
         None, None, "senders"),  # 1..N-1, N from --message
    )),
    "audit": ("verify code and entanglement properties", _COMMON + (
        ("--tolerance", dict(default=entanglement.DEFAULT_TOLERANCE),
         0.0, math.inf, None),  # a distance
    ) + _LAYOUTS),
    "security": ("simulate the eavesdropping check", _COMMON + _LAYOUTS + (
        ("--n", dict(default=None, metavar="N", help="alias of --ghz N"),
         2, MAX_AUDIT_QUBITS, "qubits"),
        ("--attack", dict(default="none", help="none, identity, cnot, swap0, or file:PATH")),
        ("--rounds", dict(default=10000),
         1, security.MAX_ROUNDS, "rounds"),  # int64 sample counts
        ("--threshold", dict(default=0.0, help="abort when the detection rate exceeds this"),
         0.0, 1.0, None),  # compared with a detection rate
        ("--cert-tolerance", dict(default=security.CERT_TOLERANCE),
         0.0, math.inf, None),  # a distance
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of ``_COMMAND_FLAGS``, one subparser per command.  argparse
    is imported here, by the first argv that is not in plain form."""
    import argparse
    import re

    class _Parser(argparse.ArgumentParser):
        """Takes a word that starts as a negative number does, -1e-3 and -inf as
        well as argparse's own -1 and -.5, for a value and never for an option,
        so that ``_validate`` names the flag of a bad one in one line."""

        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    parser = _Parser(
        prog="densecode",
        description="Simulate and audit dense-coding protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMAND_FLAGS.items():
        command = sub.add_parser(name, help=help_text)
        for option, kwargs, *_ in flags:
            command.add_argument(option, **kwargs)
    return parser


def _number(flag: str, text: Any, kind: type, want: str) -> Any:
    """A numeric flag's text as ``kind``.  Numeric flags are parsed as text,
    so a bad value gives one line naming the flag, not argparse's usage block."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{flag} must be {want}, got {text!r}") from None


def _validate(args: Args) -> None:
    """Refuse any flag left without a value, then check, in place and in
    declaration order, every flag of the command's ``_CHECKS``: its text
    becomes an int, or a float for a row without a unit.  Then resolve the
    seed.  The first bad value raises a ValueError naming its flag."""
    for field, value in vars(args).items():
        if value == [] or value == "--":  # argparse reads --FLAG=-- as [], or from 3.13 as "--"
            raise ValueError(f"--{field.replace('_', '-')} needs a value, got '--'")
    for flag, field, kind, want, low, high, unit in _CHECKS[args.command]:
        value = getattr(args, field)
        if value is None:
            continue
        many = isinstance(value, list)  # --dnk N K; the range is N's
        numbers = [_number(flag, text, kind, want) for text in (value if many else [value])]
        first = numbers[0]
        if unit is None:
            statevec._finite(flag, first, high)
        elif low is not None and not low <= first <= high:
            raise ValueError(f"{flag} supports {low}..{high} {unit}, got {first}")
        setattr(args, field, numbers if many else first)
    args.seed = _seed(args)


def _dest(option: str) -> str:
    """The namespace field argparse derives from an option string:
    --cert-tolerance -> cert_tolerance."""
    return option[2:].replace("-", "_")


def _table(flags: tuple) -> tuple[dict, dict, frozenset]:
    """A command's flags as ``_read_plain`` reads them: option string ->
    (dest, nargs, choices), the defaults by dest in declaration order, and the
    required dests."""
    options, defaults, required = {}, {}, set()
    for option, kwargs, *_ in flags:
        dest = _dest(option)
        options[option] = (dest, kwargs.get("nargs"), kwargs.get("choices"))
        defaults[dest] = kwargs.get("default")
        if kwargs.get("required"):
            required.add(dest)
    return options, defaults, frozenset(required)


def _checks(flags: tuple) -> tuple[tuple, ...]:
    """A command's numeric flags as ``_validate`` reads them, in declaration
    order: (flag, dest, type, the text of what it must be, low, high, unit)."""
    checks = []
    for flag, _, *numeric in flags:
        if not numeric:
            continue
        low, high, unit = numeric
        if unit is None:
            span = f"in [{low:g}, {high:g}]" if math.isfinite(high) else f">= {low:g}"
            kind, want = float, f"a finite number {span}"
        else:
            kind, want = int, "an integer"
        checks.append((flag, _dest(flag), kind, want, low, high, unit))
    return tuple(checks)


_COMMANDS = {"encode": cmd_encode, "audit": cmd_audit, "security": cmd_security}
# Each command's option table and numeric checks, derived once at import
_TABLES = {name: _table(flags) for name, (_, flags) in _COMMAND_FLAGS.items()}
_CHECKS = {name: _checks(flags) for name, (_, flags) in _COMMAND_FLAGS.items()}


def _read_plain(argv: list[str]) -> Optional[SimpleNamespace]:
    """The fields of the namespace argparse builds for an argv in plain form,
    read from the command's ``_TABLES`` entry, else None.  Plain form:
    ``argv[0]`` names a command and each later word is one of its exact option
    strings (not -h/--help), followed by its nargs values, none of which starts
    with "-"; each value is among its choices and every required flag is given."""
    table = _TABLES.get(argv[0]) if argv else None
    if table is None:
        return None
    options, defaults, required = table
    values: dict[str, Any] = {}
    at, end = 1, len(argv)
    while at < end:
        entry = options.get(argv[at])
        if entry is None:
            return None
        dest, nargs, choices = entry
        count = 1 if nargs is None else nargs
        words = argv[at + 1:at + 1 + count]
        if len(words) < count:
            return None
        for word in words:
            if word[:1] == "-" or (choices is not None and word not in choices):
                return None
        values[dest] = words[0] if nargs is None else words  # the last occurrence wins
        at += 1 + count
    if not required <= values.keys():
        return None
    return SimpleNamespace(command=argv[0], **{**defaults, **values})


def _parse(argv: list[str]) -> Args:
    """``build_parser().parse_args(argv)``: an argv in plain form is read from
    its command's option table (``_read_plain``), with no parser built and no
    argparse imported."""
    return _read_plain(argv) or build_parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        _validate(args)
        report, code = _COMMANDS[args.command](args)
        _write_output(render_report(report, args.format), args.output)
        return code
    except ValueError as exc:
        print(f"densecode: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
