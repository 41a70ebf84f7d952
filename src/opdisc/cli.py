"""Command-line front end.

Three subcommands:

* ``pauli``    closed forms for two qubit Pauli channels given as weight vectors.
* ``general``  two channels from spec files; closed forms when both are
               recognized as mixtures of one orthogonal unitary family,
               the multi-start optimizer otherwise; lower_bound is the
               closed form or pe_entangled's certified dual bound.
* ``oracle``   naive brute-force reference values for two channels (d <= 4).

Channel spec files are JSON documents:

    {"dim": 2, "kind": "kraus", "kraus": [[[ [re, im], ... ], ...], ...]}
    {"dim": 2, "kind": "pauli", "q": [0.7, 0.1, 0.1, 0.1]}
    {"dim": 3, "kind": "weyl", "q": [0.9, 0.0125, ...]}        # d^2 weights
    {"dim": 3, "kind": "depolarizing"}
    {"dim": 2, "kind": "unitary", "u": [[ [re, im], ... ], ...]}

Results are printed as a JSON document with a fixed key order; numbers are
decimal strings with 10 significant digits so output is diff-stable. Weight
vectors are accepted when they sum to 1 within 1e-9 and are renormalized
exactly before use. Exit codes: 0 on success, 1 when the reader of stdout
has gone away (a closed pipe), 2 on any parse or validation problem, 3 when
the optimizer fails outright.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .channels import (
    QuantumOperation,
    RandomUnitaryChannel,
    make_operation,
    pauli_channel,
    weyl_channel,
)
from .config import CERTIFIED_GAP, FTOL, HERMITICITY_TOL
from .discrimination import (
    DiscriminationProblem,
    bound_max_entangled,
    pauli_delta_summary,
    pe_entangled,
    pe_random_unitary_exact,
    pe_unentangled,
)
from .errors import OpdiscError, OptimizerFailure
from .linalg import is_unitary, require_finite
from .optimizer import OptimizerConfig
from .oracle import brute_force_entangled, brute_force_unentangled

# Weight vectors typed on a command line get this much slack before rejection.
_CLI_SUM_TOL = 1e-9

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


def _number(value, what: str) -> float:
    """`value` as a float if it is a JSON number (bool is not); else ValueError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what}: integer too large for a float") from None


def _normalize_weights(q, length: int, what: str) -> np.ndarray:
    if not isinstance(q, list):
        raise ValueError(f"{what}: expected a list of {length} numbers, got {q!r}")
    q = require_finite(np.array([_number(x, f"{what}[{i}]") for i, x in enumerate(q)], dtype=float), what)
    if q.size != length:
        raise ValueError(f"{what}: expected {length} entries, got {q.size}")
    if not np.min(q) >= 0.0:
        raise ValueError(f"{what}: negative entry {float(np.min(q))!r}")
    total = float(np.sum(q))
    if not abs(total - 1.0) <= _CLI_SUM_TOL:
        raise ValueError(f"{what}: entries sum to {total!r}, not 1")
    return q / total


def _parse_weights_arg(text: str, what: str, length: int) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated decimals, got {text!r}") from None
    return _normalize_weights(values, length, what)


def _count_arg(least: int):
    """argparse type for an integer flag of at least `least`; argparse names the flag on error."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return count


def _parse_p1(value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"--p1 must lie in [0, 1], got {value!r}")
    return float(value)


def _parse_matrix(entries, what: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{what}: expected a list of rows")
    rows = []
    width = None
    for row in entries:
        if not isinstance(row, list) or not row:
            raise ValueError(f"{what}: each row must be a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"{what}: ragged rows")
        parsed = []
        for c, entry in enumerate(row):
            at = f"{what}[{len(rows)}][{c}]"
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"{at}: entries must be [re, im] pairs")
            parsed.append(complex(_number(entry[0], f"{at}[0]"), _number(entry[1], f"{at}[1]")))
        rows.append(parsed)
    return require_finite(np.array(rows, dtype=complex), what)


def parse_channel_file(path: str) -> ParsedChannel:
    """Read, validate and build one channel from a spec file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ValueError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"{path}: kind must be one of {', '.join(_KINDS)}; got {kind!r}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise ValueError(f"{path}: dim must be an integer >= 2, got {dim!r}")

    if kind == "kraus":
        if "kraus" not in doc:
            raise ValueError(f"{path}: kind kraus needs a 'kraus' list")
        matrices = doc["kraus"]
        if not isinstance(matrices, list) or not matrices:
            raise ValueError(f"{path}: 'kraus' must be a nonempty list of matrices")
        kraus = [_parse_matrix(m, f"{path}: kraus[{i}]") for i, m in enumerate(matrices)]
        for i, k in enumerate(kraus):
            if k.shape != (dim, dim):
                raise ValueError(f"{path}: kraus[{i}] is {k.shape[0]}x{k.shape[1]}, dim is {dim}")
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
    u = _parse_matrix(doc["u"], f"{path}: u")
    if u.shape != (dim, dim):
        raise ValueError(f"{path}: u is {u.shape[0]}x{u.shape[1]}, dim is {dim}")
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
    doc = {"hermiticity": _fmt(HERMITICITY_TOL)}
    if optimized:
        doc["optimizer"] = _fmt(FTOL)
    if certified:
        doc["certified_gap"] = _fmt(CERTIFIED_GAP)
    return doc


def cmd_pauli(args: argparse.Namespace) -> dict:
    """Closed-form report for two qubit Pauli channels."""
    q1 = _parse_weights_arg(args.q1, "--q1", 4)
    q2 = _parse_weights_arg(args.q2, "--q2", 4)
    p1 = _parse_p1(args.p1)
    summary = pauli_delta_summary(q1, q2, p1)
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


def cmd_general(args: argparse.Namespace) -> dict:
    """Discrimination report for two channels given as spec files."""
    ch1 = parse_channel_file(args.file1)
    ch2 = parse_channel_file(args.file2)
    p1 = _parse_p1(args.p1)
    config = OptimizerConfig(num_starts=args.starts, seed=args.seed)
    prob = DiscriminationProblem(ch1.operation, ch2.operation, p1)

    if ch1.pauli_q is not None and ch2.pauli_q is not None:
        summary = pauli_delta_summary(ch1.pauli_q, ch2.pauli_q, p1)
        method = "closed-form-pauli"
        ent, unent = summary.pe_entangled, summary.pe_unentangled
        lower = ent
        results = {}
    elif ch1.family is not None and ch2.family is not None:
        method = "closed-form-orthogonal"
        ent = pe_random_unitary_exact(ch1.family, ch2.family, p1)
        lower = ent
        # no closed form for the unentangled value above the qubit case
        result_u = pe_unentangled(prob, config)
        unent = result_u.pe_unentangled
        results = {"unentangled": result_u}
    else:
        method = "numeric"
        result_e = pe_entangled(prob, config)
        result_u = pe_unentangled(prob, config)
        ent, unent = result_e.pe_entangled, result_u.pe_unentangled
        lower = result_e.lower_bound
        results = {"entangled": result_e, "unentangled": result_u}
    # only the strategies whose optimizer ran carry diagnostics
    ran = {name: r.diagnostics for name, r in results.items() if r.diagnostics is not None}

    doc = {
        "pe_entangled": _fmt(ent),
        "pe_unentangled": _fmt(unent),
        "upper_bound": _fmt(bound_max_entangled(prob)),
        "lower_bound": _fmt(lower),
        "method": method,
        "optimizer": {
            "starts": int(args.starts),
            "starts_run": {name: diag.n_starts for name, diag in ran.items()},
            "seed": int(args.seed),
            "converged": all(diag.converged for diag in ran.values()),
        },
        "tolerances": _tolerances_doc(optimized=bool(results), certified=method == "numeric"),
    }
    if args.dump_spec:
        doc["channel1_spec"] = operation_to_spec(ch1.operation)
        doc["channel2_spec"] = operation_to_spec(ch2.operation)
    return doc


def cmd_oracle(args: argparse.Namespace) -> dict:
    """Brute-force reference values for two channels given as spec files."""
    ch1 = parse_channel_file(args.file1)
    ch2 = parse_channel_file(args.file2)
    p1 = _parse_p1(args.p1)
    prob = DiscriminationProblem(ch1.operation, ch2.operation, p1)
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

    pauli = sub.add_parser("pauli", help="closed forms for two qubit Pauli channels")
    pauli.add_argument("--q1", required=True, help="four comma-separated weights over I,x,y,z")
    pauli.add_argument("--q2", required=True, help="four comma-separated weights over I,x,y,z")
    pauli.add_argument("--p1", type=float, default=0.5, help="prior of the first channel")
    pauli.add_argument("--dump-spec", action="store_true", help="embed Kraus spec documents in the output")
    pauli.set_defaults(handler=cmd_pauli)

    general = sub.add_parser("general", help="discriminate two channels from spec files")
    general.add_argument("--file1", required=True, help="channel spec file for the first channel")
    general.add_argument("--file2", required=True, help="channel spec file for the second channel")
    general.add_argument("--p1", type=float, default=0.5, help="prior of the first channel")
    general.add_argument(
        "--starts",
        type=_count_arg(1),
        default=32,
        help="optimizer starts: pe_unentangled runs all of them, pe_entangled only its seed "
        "starts (4 at d = 2, 2 at d >= 3), at most this many",
    )
    general.add_argument(
        "--seed", type=_count_arg(0), default=0, help="optimizer seed (pe_unentangled's random starts)"
    )
    general.add_argument("--dump-spec", action="store_true", help="embed Kraus spec documents in the output")
    general.set_defaults(handler=cmd_general)

    oracle = sub.add_parser("oracle", help="brute-force reference values (d <= 4)")
    oracle.add_argument("--file1", required=True, help="channel spec file for the first channel")
    oracle.add_argument("--file2", required=True, help="channel spec file for the second channel")
    oracle.add_argument("--p1", type=float, default=0.5, help="prior of the first channel")
    oracle.add_argument(
        "--grid",
        type=_count_arg(2),
        default=200,
        help="unentangled search: a grid x grid Bloch-sphere grid at d = 2, each pole once "
        "((grid - 2) * grid + 2 states), grid^3 random pure states at d >= 3 "
        "(8,000,000 at the default: 15 s on a qutrit pair, 2-vCPU VM)",
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
    except OptimizerFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OpdiscError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
