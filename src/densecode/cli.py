"""Command-line interface: encode / audit / security.

Every run emits one machine-readable report with the stable top-level keys
{command, params, results, residuals, verdict, seed}.  Identical arguments
and seed produce byte-identical JSON.  Exit codes: 0 success, 2 validation
error, 3 decode failure (no code-word match), 4 security-abort verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass
from typing import Any, Optional

import numpy as np

from . import coding, entanglement, security, statevec

ENV_SEED = "DENSECODE_SEED"
MAX_AUDIT_QUBITS = 12  # every-bipartition checks stay desk-scale up to here
MAX_ENCODE_BITS = 24  # a receiver's dense state holds 2^n amplitudes: 256 MiB at 24


@dataclass
class RunConfig:
    command: str
    seed: int = 0
    fmt: str = "json"
    output: Optional[str] = None
    tolerance: float = 1e-9
    cert_tolerance: float = security.CERT_TOLERANCE
    message: Optional[str] = None
    senders: Optional[int] = None
    ghz: Optional[int] = None
    bell: Optional[int] = None
    dnk: Optional[tuple[int, int]] = None
    n: Optional[int] = None
    attack: str = "none"
    rounds: int = 1
    threshold: float = 0.0


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/containers into plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _operator_entry(ps: statevec.PauliString) -> dict[str, Any]:
    return {
        "labels": [lab.value for lab in ps.labels],
        "targets": list(ps.targets),
        "text": str(ps),
    }


def _report(command: str, params: dict, results: dict, residuals: dict,
            verdict: str, seed: int) -> dict:
    return _jsonable(
        {
            "command": command,
            "params": params,
            "results": results,
            "residuals": residuals,
            "verdict": verdict,
            "seed": seed,
        }
    )


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


def _share_entry(share: coding.PartyShare) -> dict[str, Any]:
    return {"qubits": list(share.qubits), "bits": list(share.bits)}


def cmd_encode(cfg: RunConfig) -> tuple[dict, int]:
    if cfg.message is None:
        raise ValueError("encode requires --message")
    msg = coding.Message.from_string(cfg.message)
    n = len(msg)
    if n > MAX_ENCODE_BITS:
        raise ValueError(f"--message supports at most {MAX_ENCODE_BITS} bits, got {n}")
    spec = _layout("--senders", n, n - 1 if cfg.senders is None else cfg.senders)
    (cols,), (vals,) = coding._word_support([int(str(msg), 2)], spec)
    results: dict[str, Any] = {
        "message": str(msg),
        "n_bits": n,
        "operator": _operator_entry(coding.dnk_combined_string(msg, spec)),
        "parties": None,
    }
    if cfg.senders is not None:
        per_party = coding.dnk_encode(msg, spec)
        results["layout"] = _layout_entry(spec)
        results["parties"] = {
            str(share.party): {
                **_share_entry(share),
                "operator": _operator_entry(per_party[share.party]),
            }
            for share in spec.shares
        }
    results["amplitudes"] = [[c, v, 0.0] for c, v in zip(cols.tolist(), vals.tolist())]
    norm_dev = abs(float(np.sum(vals**2)) - 1.0)
    params = {"message": cfg.message, "senders": cfg.senders}
    return _report("encode", params, results, {"norm_deviation": norm_dev}, "ok", cfg.seed), 0


# ---------------------------------------------------------------------------
# audit


def _audit_common(state: statevec.StateVector, alice: list[int], tol: float) -> tuple[dict, dict]:
    opt = entanglement.optimality_report(state, alice, tol=tol)
    results = {
        "capacity": opt.capacity,
        "holevo_bound": opt.holevo_bound,
        "alice_size_sufficient": opt.alice_size_sufficient,
        "bob_marginal_maximally_mixed": opt.bob_marginal_maximally_mixed,
        "optimal": opt.optimal,
    }
    residuals = {
        "capacity_gap": abs(opt.capacity - opt.holevo_bound),
        "bob_marginal_residual": opt.bob_marginal_residual,
    }
    return results, residuals


def cmd_audit(cfg: RunConfig) -> tuple[dict, int]:
    tol = cfg.tolerance
    chosen = [x for x in (cfg.ghz, cfg.bell, cfg.dnk) if x is not None]
    if len(chosen) != 1:
        raise ValueError("audit requires exactly one of --ghz, --bell, --dnk")

    if cfg.ghz is not None:
        n = cfg.ghz
        if not 2 <= n <= MAX_AUDIT_QUBITS:
            raise ValueError(f"--ghz supports 2..{MAX_AUDIT_QUBITS} qubits, got {n}")
        spec, params = coding.dnk_spec(n, n - 1), {"ghz": n}
    elif cfg.bell is not None:
        pairs = cfg.bell
        if not 1 <= pairs <= 10:
            raise ValueError(f"--bell supports 1..10 pairs, got {pairs}")
        spec, params = coding.dnk_spec(2 * pairs, 1), {"bell": pairs}
    else:
        n, k = cfg.dnk
        if not 2 <= n <= MAX_AUDIT_QUBITS:
            raise ValueError(f"--dnk supports 2..{MAX_AUDIT_QUBITS} bits, got {n}")
        spec, params = _layout("--dnk K", n, k), {"dnk": [n, k]}
    params["tolerance"] = tol

    n = spec.n_qubits
    state = coding.dnk_state(spec)
    alice = list(spec.alice_qubits)
    results, residuals = _audit_common(state, alice, tol)
    if cfg.bell is not None:
        residuals["alice_marginal_residual"] = entanglement._side_marginal(state, alice)[1]
    if cfg.dnk is None:
        results["ame"] = results["gme"] = results["orthonormality"] = None
        if n <= MAX_AUDIT_QUBITS:
            ame, gme = entanglement.entanglement_verdicts(state, tol=tol)
            results["ame"], results["gme"] = ame.is_ame, gme
            residuals["ame_max_residual"] = ame.max_residual
        if n <= coding.MAX_BASIS_BITS:
            gram = coding.dnk_gram_report(spec.n_bits, spec.n_senders)
            results["orthonormality"] = asdict(gram)
            residuals["gram_residual"] = gram.residual()
    else:
        results["layout"] = _layout_entry(spec)
        results["layout"]["parties"] = {
            str(share.party): _share_entry(share) for share in spec.shares
        }
        rng = np.random.default_rng(cfg.seed)
        picks = sorted(rng.choice(2**n, size=min(2**n, 64), replace=False).tolist())
        decoded = coding._decode_indices(coding.dnk_code_words(picks, spec), spec)
        failures = int(np.count_nonzero(decoded != picks))
        results["roundtrip"] = {"messages_checked": len(picks), "failures": failures}

    verdict = "optimal" if results.get("optimal") else "suboptimal"
    return _report("audit", params, results, residuals, verdict, cfg.seed), 0


# ---------------------------------------------------------------------------
# security


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite number {name} is not allowed")


def _load_attack(spec_text: str) -> Optional[security.EveAttack]:
    if spec_text == "none":
        return None
    if spec_text in security.ATTACK_PRESETS:
        return security.ATTACK_PRESETS[spec_text]()
    if spec_text.startswith("file:"):
        path = spec_text[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                rows = json.load(fh, parse_constant=_reject_constant)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read attack matrix file {path!r}: {exc}") from exc
        try:
            matrix = np.array(
                [[complex(re, im) for re, im in row] for row in rows], dtype=complex
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"malformed attack matrix in {path!r}: expected 4 rows of 4 "
                f"[re, im] pairs ({exc})"
            ) from exc
        try:
            return security.EveAttack(matrix)
        except ValueError as exc:
            raise ValueError(f"invalid attack matrix in {path!r}: {exc}") from exc
    raise ValueError(
        f"unknown attack {spec_text!r}: use none, "
        f"{', '.join(sorted(security.ATTACK_PRESETS))}, or file:PATH"
    )


def cmd_security(cfg: RunConfig) -> tuple[dict, int]:
    if cfg.n is None:
        raise ValueError("security requires --n")
    if not 2 <= cfg.n <= MAX_AUDIT_QUBITS:
        raise ValueError(f"--n supports 2..{MAX_AUDIT_QUBITS} qubits, got {cfg.n}")
    if not 1 <= cfg.rounds <= security.MAX_ROUNDS:
        raise ValueError(f"--rounds must be in 1..{security.MAX_ROUNDS}, got {cfg.rounds}")
    attack = _load_attack(cfg.attack)

    rng = np.random.default_rng(cfg.seed)
    sim = security.security_simulation(
        cfg.n, attack, cfg.rounds, rng, threshold=cfg.threshold
    )

    results: dict[str, Any] = {
        "n": cfg.n,
        "attack": cfg.attack,
        "exact": {
            "computational_inconsistency": sim.exact.computational_inconsistency,
            "hadamard_inconsistency": sim.exact.hadamard_inconsistency,
            "detection_probability": sim.exact.probability,
        },
        "empirical": {
            "rounds": sim.rounds,
            "computational_rounds": sim.computational_rounds,
            "computational_consistent": sim.computational_consistent,
            "computational_rate": sim.computational_rate,
            "hadamard_rounds": sim.hadamard_rounds,
            "hadamard_consistent": sim.hadamard_consistent,
            "hadamard_rate": sim.hadamard_rate,
            "detections": sim.detections,
            "detection_rate": sim.detection_rate,
        },
        "threshold": cfg.threshold,
    }
    residuals: dict[str, Any] = {
        "empirical_vs_exact": abs(sim.detection_rate - sim.exact.probability),
    }
    if attack is not None:
        cert = security.undetectable_certificate(attack, tol=cfg.cert_tolerance)
        results["certificate"] = asdict(cert)
        residuals["certificate_max"] = max(
            cert.flip_01, cert.flip_10, cert.branch_mismatch
        )
    else:
        results["certificate"] = None

    verdict = "abort" if sim.aborted else "pass"
    params = {
        "n": cfg.n,
        "attack": cfg.attack,
        "rounds": cfg.rounds,
        "threshold": cfg.threshold,
        "cert_tolerance": cfg.cert_tolerance,
    }
    report = _report("security", params, results, residuals, verdict, cfg.seed)
    return report, (4 if sim.aborted else 0)


# ---------------------------------------------------------------------------
# rendering and entry point


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        rows.append((prefix, json.dumps(value, sort_keys=True, allow_nan=False)))
    elif isinstance(value, list):
        rows.append((prefix, ";".join(str(v) for v in value)))
    else:
        rows.append((prefix, json.dumps(value, allow_nan=False)))


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    if fmt == "csv":
        return "".join(f"{key},{value}\n" for key, value in rows)
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


def _seed(args: argparse.Namespace) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densecode",
        description="Simulate and audit dense-coding protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", default=None,
                       help=f"RNG seed in [0, 2**63) (default ${ENV_SEED} or 0)")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--output", default=None, help="write the report to a file")
        p.add_argument("--tolerance", type=float, default=1e-9)

    enc = sub.add_parser("encode", help="encode a classical message")
    common(enc)
    enc.add_argument("--message", required=True, help="bit string, length >= 2")
    enc.add_argument("--senders", default=None,
                     help="split across this many senders (distributed layout)")

    aud = sub.add_parser("audit", help="verify code and entanglement properties")
    common(aud)
    aud.add_argument("--ghz", default=None, metavar="N")
    aud.add_argument("--bell", default=None, metavar="PAIRS")
    aud.add_argument("--dnk", nargs=2, default=None, metavar=("N", "K"))

    sec = sub.add_parser("security", help="simulate the eavesdropping check")
    common(sec)
    sec.add_argument("--n", required=True, help="protocol qubits")
    sec.add_argument("--attack", default="none",
                     help="none, identity, cnot, swap0, or file:PATH")
    sec.add_argument("--rounds", default=10000)
    sec.add_argument("--threshold", type=float, default=0.0,
                     help="abort when the detection rate exceeds this")
    sec.add_argument("--cert-tolerance", type=float, default=security.CERT_TOLERANCE)
    return parser


def _check_finite(flag: str, value: float, low: float, high: float = math.inf) -> None:
    if not (math.isfinite(value) and low <= value <= high):
        span = f"in [{low:g}, {high:g}]" if math.isfinite(high) else f">= {low:g}"
        raise ValueError(f"{flag} must be a finite number {span}, got {value!r}")


def _integer(flag: str, raw: Any) -> Optional[int]:
    """An integer flag's value, None when it is not given.  Integer flags are
    parsed as text, so a bad value gives one line naming the flag, not
    argparse's usage block."""
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{flag} must be an integer, got {raw!r}") from None


def config_from_args(args: argparse.Namespace) -> RunConfig:
    _check_finite("--tolerance", args.tolerance, 0.0)
    if args.command == "security":
        _check_finite("--threshold", args.threshold, 0.0, 1.0)
        _check_finite("--cert-tolerance", args.cert_tolerance, 0.0)
    return RunConfig(
        command=args.command,
        seed=_seed(args),
        fmt=args.format,
        output=args.output,
        tolerance=args.tolerance,
        cert_tolerance=getattr(args, "cert_tolerance", security.CERT_TOLERANCE),
        message=getattr(args, "message", None),
        senders=_integer("--senders", getattr(args, "senders", None)),
        ghz=_integer("--ghz", getattr(args, "ghz", None)),
        bell=_integer("--bell", getattr(args, "bell", None)),
        dnk=tuple(_integer("--dnk", raw) for raw in args.dnk)
        if getattr(args, "dnk", None) else None,
        n=_integer("--n", getattr(args, "n", None)),
        attack=getattr(args, "attack", "none"),
        rounds=_integer("--rounds", getattr(args, "rounds", 1)),
        threshold=getattr(args, "threshold", 0.0),
    )


_COMMANDS = {"encode": cmd_encode, "audit": cmd_audit, "security": cmd_security}
_PARSER = build_parser()  # holds no per-run state: parse_args makes a new Namespace


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = config_from_args(args)
        report, code = _COMMANDS[cfg.command](cfg)
        _write_output(render_report(report, cfg.fmt), cfg.output)
        return code
    except coding.NoMatchError as exc:
        print(f"densecode: decode failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"densecode: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
