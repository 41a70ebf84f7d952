"""Command-line front end.

Three subcommands:

* ``pauli``    closed forms for two qubit Pauli channels given as weight vectors.
* ``general``  two channels from spec files, answered by
               discrimination.discriminate: closed forms when both are
               recognized as Pauli mixtures or as mixtures of one
               orthogonal unitary family, the see-saw optimizer otherwise.
               It prints discriminate's report, so pe_entangled prints at
               most pe_unentangled, and lower_bound at most pe_entangled.
* ``oracle``   naive brute-force reference values for two channels (d <= 4).

Channel spec files are JSON documents:

    {"dim": 2, "kind": "kraus", "kraus": [[[ [re, im], ... ], ...], ...]}
    {"dim": 2, "kind": "pauli", "q": [0.7, 0.1, 0.1, 0.1]}
    {"dim": 3, "kind": "weyl", "q": [0.9, 0.0125, ...]}        # d^2 weights
    {"dim": 3, "kind": "depolarizing"}
    {"dim": 2, "kind": "unitary", "u": [[ [re, im], ... ], ...]}

Results are printed as a JSON document with a fixed key order; numbers are
decimal strings with 10 significant digits so output is diff-stable. Weight
vectors are accepted when they sum to 1 within config.INPUT_TOL (1e-9) and
are renormalized exactly before use. Exit codes: 0 on success, 1 when the
reader of stdout has gone away (a closed pipe), 2 on any parse or validation
problem (a spec nested too deep for json or numpy included), 3 when the
optimizer fails outright.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .channels import (
    DiscriminationProblem,
    QuantumOperation,
    RandomUnitaryChannel,
    make_operation,
    pauli_channel,
    weyl_channel,
)
from .config import CERTIFIED_GAP, FTOL, INPUT_TOL
from .discrimination import _DEFAULT_STARTS, _SEED_BITS, discriminate, pauli_delta_summary
from .errors import OpdiscError, OptimizerFailure
from .linalg import check_count, check_prior, is_unitary, require_finite
from .oracle import brute_force_entangled, brute_force_unentangled

_KINDS = ("kraus", "pauli", "weyl", "depolarizing", "unitary")


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


@dataclass
class ParsedChannel:
    """A channel spec file after validation.

    pauli_q is set when the channel is a qubit Pauli mixture; family is set
    when it mixes a shift-phase (orthogonal) unitary family. Either enables
    the matching closed form when both inputs carry it.
    """

    operation: QuantumOperation
    pauli_q: np.ndarray | None = None
    family: RandomUnitaryChannel | None = None


def _normalize_weights(q, length: int, what: str) -> np.ndarray:
    values = require_finite(q, what, float)
    if values.shape != (length,):
        raise ValueError(f"{what}: expected {length} entries, got {q!r}")
    if not np.min(values) >= 0.0:
        raise ValueError(f"{what}: negative entry {float(np.min(values))!r}")
    total = float(np.sum(values))
    if not abs(total - 1.0) <= INPUT_TOL:
        raise ValueError(f"{what}: entries sum to {total!r}, not 1")
    return values / total


def _parse_weights_arg(text: str, what: str, length: int) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated decimals, got {text!r}") from None
    return _normalize_weights(values, length, what)


def _count_arg(least: int, bits: int | None = None):
    """argparse type for an integer flag of at least `least` (and below 2**bits); argparse names the flag on error."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        if bits is not None and value >= 2**bits:
            raise argparse.ArgumentTypeError(f"must be below 2**{bits}, got {value}")
        return value

    return count


def _prior_arg(text: str) -> float:
    """argparse type for --p1, a decimal in [0, 1]; argparse names the flag on error."""
    try:
        return check_prior(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_matrix(entries, what: str, dim: int) -> np.ndarray:
    pairs = require_finite(entries, what, float)
    if pairs.shape != (dim, dim, 2):
        raise ValueError(f"{what}: expected {dim} rows of {dim} [re, im] pairs, got shape {pairs.shape}")
    return pairs[..., 0] + 1j * pairs[..., 1]


def parse_channel_file(path: str) -> ParsedChannel:
    """Read, validate and build one channel from a spec file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # undecodable bytes, malformed JSON, too deep for json
            raise ValueError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"{path}: kind must be one of {', '.join(_KINDS)}; got {kind!r}")
    dim = check_count(doc.get("dim"), f"{path}: dim", 2)

    if kind == "kraus":
        if "kraus" not in doc:
            raise ValueError(f"{path}: kind kraus needs a 'kraus' list")
        matrices = doc["kraus"]
        if not isinstance(matrices, list) or not matrices:
            raise ValueError(f"{path}: 'kraus' must be a nonempty list of matrices")
        kraus = [_parse_matrix(m, f"{path}: kraus[{i}]", dim) for i, m in enumerate(matrices)]
        return ParsedChannel(make_operation(kraus))

    if kind == "pauli":
        if dim != 2:
            raise ValueError(f"{path}: kind pauli requires dim 2, got {dim}")
        q = _normalize_weights(doc.get("q", []), 4, f"{path}: q")
        return ParsedChannel(pauli_channel(q), pauli_q=q)

    if kind == "weyl":
        family = weyl_channel(dim, _normalize_weights(doc.get("q", []), dim * dim, f"{path}: q"))
        return ParsedChannel(family.as_operation(), family=family)

    if kind == "depolarizing":
        family = weyl_channel(dim, np.full(dim * dim, 1.0 / (dim * dim)))
        pauli_q = np.full(4, 0.25) if dim == 2 else None
        return ParsedChannel(family.as_operation(), pauli_q=pauli_q, family=family)

    # kind == "unitary"
    if "u" not in doc:
        raise ValueError(f"{path}: kind unitary needs a 'u' matrix")
    u = _parse_matrix(doc["u"], f"{path}: u", dim)
    if not is_unitary(u):
        raise ValueError(f"{path}: u is not unitary within tolerance")
    return ParsedChannel(make_operation([u]))


def operation_to_spec(op: QuantumOperation) -> dict:
    """ChannelSpec document (kind kraus, full precision) for an operation."""
    return {
        "dim": op.dim,
        "kind": "kraus",
        "kraus": [
            [[[float(entry.real), float(entry.imag)] for entry in row] for row in k]
            for k in op.kraus
        ],
    }


def _tolerances_doc(optimized: bool = False, certified: bool = False) -> dict:
    """The tolerances in force: hermiticity always, the optimizer's FTOL when it
    ran, and the certified gap pe_entangled aims for when it ran."""
    doc = {"hermiticity": _fmt(INPUT_TOL)}
    if optimized:
        doc["optimizer"] = _fmt(FTOL)
    if certified:
        doc["certified_gap"] = _fmt(CERTIFIED_GAP)
    return doc


def cmd_pauli(args: argparse.Namespace) -> dict:
    """Closed-form report for two qubit Pauli channels."""
    q1 = _parse_weights_arg(args.q1, "--q1", 4)
    q2 = _parse_weights_arg(args.q2, "--q2", 4)
    summary = pauli_delta_summary(q1, q2, args.p1)
    doc = {
        "pe_entangled": _fmt(summary.pe_entangled),
        "pe_unentangled": _fmt(summary.pe_unentangled),
        "r": [_fmt(x) for x in summary.r],
        "M": _fmt(summary.m),
        "det_sign": summary.det_sign,
        "entanglement_needed": summary.entanglement_needed,
        "optimal_unentangled_axis": summary.optimal_unentangled_axis,
        "method": "closed-form-pauli",
        "tolerances": _tolerances_doc(),
    }
    if args.dump_spec:
        doc["channel1_spec"] = operation_to_spec(pauli_channel(q1))
        doc["channel2_spec"] = operation_to_spec(pauli_channel(q2))
    return doc


def _read_pair(args: argparse.Namespace) -> tuple[ParsedChannel, ParsedChannel, DiscriminationProblem]:
    """The two channels named by --file1 and --file2, and the problem they pose with prior --p1."""
    ch1 = parse_channel_file(args.file1)
    ch2 = parse_channel_file(args.file2)
    return ch1, ch2, DiscriminationProblem(ch1.operation, ch2.operation, args.p1)


def cmd_general(args: argparse.Namespace) -> dict:
    """Discrimination report for two channels given as spec files."""
    ch1, ch2, prob = _read_pair(args)
    # a route hint holds only when both channels carry it
    pauli = (ch1.pauli_q, ch2.pauli_q) if ch1.pauli_q is not None and ch2.pauli_q is not None else None
    family = (ch1.family, ch2.family) if ch1.family is not None and ch2.family is not None else None
    report = discriminate(prob, pauli=pauli, family=family, num_starts=args.starts, seed=args.seed)
    # only the strategies whose optimizer ran carry diagnostics
    ran = {name: r.diagnostics for name, r in report.results.items() if r.diagnostics is not None}

    doc = {
        "pe_entangled": _fmt(report.pe_entangled),
        "pe_unentangled": _fmt(report.pe_unentangled),
        "upper_bound": _fmt(report.upper_bound),
        "lower_bound": _fmt(report.lower_bound),
        "method": report.method,
        "optimizer": {
            "starts": int(args.starts),
            "starts_run": {name: diag.n_starts for name, diag in ran.items()},
            "seed": int(args.seed),
            "converged": all(diag.converged for diag in ran.values()),
        },
        "tolerances": _tolerances_doc(optimized=bool(ran), certified=report.method == "numeric"),
    }
    if args.dump_spec:
        doc["channel1_spec"] = operation_to_spec(ch1.operation)
        doc["channel2_spec"] = operation_to_spec(ch2.operation)
    return doc


def cmd_oracle(args: argparse.Namespace) -> dict:
    """Brute-force reference values for two channels given as spec files."""
    _, _, prob = _read_pair(args)
    unent = brute_force_unentangled(prob, args.grid, seed=args.seed)
    ent = brute_force_entangled(prob, args.samples, seed=args.seed)
    return {
        "oracle_pe_entangled": _fmt(ent),
        "oracle_pe_unentangled": _fmt(unent),
        "grid_density": int(args.grid),
        "samples": int(args.samples),
        "seed": int(args.seed),
        "tolerances": _tolerances_doc(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opdisc",
        description="Minimal-error discrimination of two quantum operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)  # the two spec files and the prior, for general and oracle
    pair.add_argument("--file1", required=True, help="channel spec file for the first channel")
    pair.add_argument("--file2", required=True, help="channel spec file for the second channel")
    pair.add_argument("--p1", type=_prior_arg, default=0.5, help="prior of the first channel")

    pauli = sub.add_parser("pauli", help="closed forms for two qubit Pauli channels")
    pauli.add_argument("--q1", required=True, help="four comma-separated weights over I,x,y,z")
    pauli.add_argument("--q2", required=True, help="four comma-separated weights over I,x,y,z")
    pauli.add_argument("--p1", type=_prior_arg, default=0.5, help="prior of the first channel")
    pauli.add_argument("--dump-spec", action="store_true", help="embed Kraus spec documents in the output")
    pauli.set_defaults(handler=cmd_pauli)

    general = sub.add_parser("general", parents=[pair], help="discriminate two channels from spec files")
    general.add_argument(
        "--starts",
        type=_count_arg(1),
        default=_DEFAULT_STARTS,
        help="pe_unentangled's optimizer starts at d >= 3 (d = 2 is solved exactly); pe_entangled "
        "has no settings and always runs its one start, the maximally entangled input",
    )
    general.add_argument(
        "--seed",
        type=_count_arg(0, bits=_SEED_BITS),
        default=0,
        help="optimizer seed (pe_unentangled's random starts, at d >= 3)",
    )
    general.add_argument("--dump-spec", action="store_true", help="embed Kraus spec documents in the output")
    general.set_defaults(handler=cmd_general)

    oracle = sub.add_parser("oracle", parents=[pair], help="brute-force reference values (d <= 4)")
    oracle.add_argument(
        "--grid",
        type=_count_arg(2),
        default=200,
        help="unentangled search: a grid x grid Bloch-sphere grid at d = 2, each pole once "
        "((grid - 2) * grid + 2 states), grid^3 random pure states at d >= 3 "
        "(8,000,000 at the default)",
    )
    oracle.add_argument(
        "--samples",
        type=_count_arg(1),
        default=500,
        help="entangled search: |phi+> once, then this many random positive-direction inputs",
    )
    oracle.add_argument("--seed", type=_count_arg(0), default=0, help="sampling seed")
    oracle.set_defaults(handler=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        doc = args.handler(args)
    except (OpdiscError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OptimizerFailure) else 2
    try:
        print(json.dumps(doc, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
