"""Command-line front end.

Exit codes: 0 success, 1 parameter or I/O error, 2 validation or guarantee
failure.  A failed check writes its report, as does a `partition` whose driver
gives up (the report names the error); a solver, embedding or invariant failure,
or a partition error elsewhere, writes none and prints one `bufpart: failure:`
line.  Reports are deterministic JSON; a fixed seed reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .balanced import buffered_balanced_cut, cheeger2_buffered, kway_balanced
from .certify import (brute_force_h_k_eps, certify_run,
                      check_buffered_lower_bound)
from .graph import (BufferedPartition, Graph, GraphError, PartitionError, _cut_report,
                    _read_text, load_graph, partition_cost, validate_partition)
from .partition import RESTARTS, buffered_k_partition, lifted_k
from .reports import write_report
from .spectral import (EmbeddingError, SolverError, eigenbasis,
                       normalized_laplacian)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARANTEE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class ParameterError(ValueError):
    pass


def _check_range(name: str, value: float, lo: float, hi: float,
                 lo_open: bool = False) -> None:
    """Require value in [lo, hi), or in (lo, hi) when lo_open."""
    if not ((value > lo if lo_open else value >= lo) and value < hi):
        raise ParameterError(f"{name} must lie in {'(' if lo_open else '['}{lo}, {hi}), "
                             f"got {value}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bufpart", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", required=True, help="edge-list file: 'u v [cost]' per line")
        p.add_argument("--weights", help="vertex-weight file: 'u weight' per line")
        p.add_argument("--out", help="write the JSON report here (default stdout)")

    p = sub.add_parser("partition", help="epsilon-buffered k-way partition")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=RESTARTS)

    p = sub.add_parser("cheeger2", help="two-way buffered Cheeger cut")
    common(p)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("balanced-cut", help="buffered balanced cut")
    common(p)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("kbalanced", help="buffered (6,k)-balanced partition")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("spectrum", help="bottom-k eigenvalues of the normalized Laplacian")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--embedding-tsv", help="also dump per-vertex embedding rows as TSV")

    p = sub.add_parser("verify", help="validate a buffered partition and its lower bound")
    common(p)
    p.add_argument("--partition", required=True, help="assignment JSON from 'partition'")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("certify", help="certificate for a stored partition")
    common(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)

    p = sub.add_parser("brute", help="exact h^{k,eps} on a tiny graph")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    return parser


def _load(args) -> Graph:
    return load_graph(args.graph, args.weights)


def _assignment_dict(g: Graph, parts, buffers) -> dict:
    names = g.labels
    out = {}
    roles = {}
    for i, p in enumerate(parts):
        for v in np.asarray(p).tolist():
            out[names[v]] = i
            roles[names[v]] = "core"
    for i, b in enumerate(buffers):
        for v in np.asarray(b).tolist():
            out[names[v]] = i
            roles[names[v]] = "buffer"
    return {name: {"part_id": out[name], "role": roles[name]}
            for name in sorted(out, key=lambda s: (len(s), s))}


def _read_partition_file(path, g: Graph, epsilon: float) -> BufferedPartition:
    """Parse an assignment file of {vertex: {"part_id": int, "role": "core"|"buffer"}}."""
    try:
        data = json.loads(_read_text(path, "partition"))
    except json.JSONDecodeError as exc:
        raise GraphError(f"partition file {str(path)!r}: {exc}") from exc
    assignment = data.get("assignment", data) if isinstance(data, dict) else None
    if not isinstance(assignment, dict) or not assignment:
        raise GraphError("partition file holds no assignment object of vertices")
    index = {name: i for i, name in enumerate(g.labels)}
    placed = []
    for name, entry in assignment.items():
        if name not in index:
            raise GraphError(f"partition file names unknown vertex {name!r}")
        part_id = entry.get("part_id") if isinstance(entry, dict) else None
        if type(part_id) is not int or not 0 <= part_id < g.n:
            raise GraphError(f"partition file gives vertex {name!r} no integer part_id "
                             f"in [0, {g.n})")
        role = entry.get("role", "core")
        if role not in ("core", "buffer"):
            raise GraphError(f"partition file gives vertex {name!r} the unknown role {role!r}")
        placed.append((index[name], part_id, role))
    k = 1 + max(part_id for _, part_id, _ in placed)
    parts = [[] for _ in range(k)]
    buffers = [[] for _ in range(k)]
    for vertex, part_id, role in placed:
        (parts if role == "core" else buffers)[part_id].append(vertex)
    return BufferedPartition.from_sets(parts, buffers, epsilon)


def _cmd_partition(args) -> tuple[dict, int]:
    g = _load(args)
    _check_range("--eps", args.eps, 0.0, 1.0)
    _check_range("--delta", args.delta, 0.0, 1.0, lo_open=True)
    if args.k < 2:
        raise ParameterError(f"--k must be at least 2, got {args.k}")
    if args.restarts < 1:
        raise ParameterError(f"--restarts must be at least 1, got {args.restarts}")
    try:
        bp, report, info = buffered_k_partition(g, args.k, args.eps, args.delta,
                                                seed=args.seed, restarts=args.restarts)
    except PartitionError as exc:
        return {"command": "partition", "error": str(exc)}, EXIT_GUARANTEE
    doc = {
        "command": "partition",
        "params": {"k": args.k, "eps": args.eps, "delta": args.delta,
                   "seed": args.seed, "restarts": args.restarts},
        "epsilon_realized": bp.epsilon,
        "assignment": _assignment_dict(g, bp.parts, bp.buffers),
        "cut_report": report.to_dict(),
        "certificate": info["certificate"],
        "diagnostics": {k: v for k, v in info.items() if k != "certificate"},
    }
    code = EXIT_OK if info["certificate"]["lower_bound_buffered_check"] else EXIT_GUARANTEE
    return doc, code


def _cmd_cheeger2(args) -> tuple[dict, int]:
    g = _load(args)
    _check_range("--eps", args.eps, 0.0, 0.25, lo_open=True)
    cut = cheeger2_buffered(g, args.eps)
    doc = {
        "command": "cheeger2",
        "params": {"eps": args.eps},
        "assignment": _assignment_dict(g, [cut.s, cut.t], [cut.b, []]),
        "phi": cut.phi,
        "cut_value": cut.cut_value,
        "buffer_ratio": cut.buffer_ratio,
        "lambda2": cut.lambda2,
        "threshold": cut.threshold,
        "guarantee": 4.0 * (1.0 + 2.0 / args.eps) * cut.lambda2,
    }
    code = EXIT_OK if cut.phi <= doc["guarantee"] + 1e-9 else EXIT_GUARANTEE
    return doc, code


def _cmd_balanced_cut(args) -> tuple[dict, int]:
    g = _load(args)
    _check_range("--eps", args.eps, 0.0, 0.25, lo_open=True)
    res = buffered_balanced_cut(g, args.eps)
    doc = {
        "command": "balanced-cut",
        "params": {"eps": args.eps},
        "assignment": _assignment_dict(g, [res.left, res.right], [res.buffer, []]),
        "cut_value": res.cut_value,
        "balance": {"left": g.weight_of(res.left), "right": g.weight_of(res.right),
                    "total": g.total_weight},
        "buffer_ratio": (g.weight_of(res.buffer) /
                         min(g.weight_of(res.left), g.weight_of(res.right))
                         if res.left.size and res.right.size else None),
        "per_level_lambda2": list(res.per_level_lambda2),
        "per_level_phi": list(res.per_level_phi),
        "balanced": res.balanced,
        "violations": list(res.violations),
    }
    return doc, EXIT_OK if res.balanced else EXIT_GUARANTEE


def _cmd_kbalanced(args) -> tuple[dict, int]:
    g = _load(args)
    _check_range("--eps", args.eps, 0.0, 0.25, lo_open=True)
    if args.k < 1:
        raise ParameterError(f"--k must be at least 1, got {args.k}")
    res = kway_balanced(g, args.k, args.eps)
    doc = {
        "command": "kbalanced",
        "params": {"k": args.k, "eps": args.eps},
        "assignment": _assignment_dict(g, res.parts, [res.buffer] + [[]] * (len(res.parts) - 1)
                                       if len(res.parts) else [res.buffer]),
        "part_weights": [g.weight_of(p) for p in res.parts],
        "max_part_weight": res.max_part_weight,
        "weight_limit": 6.0 * g.total_weight / args.k,
        "buffer_weight": res.buffer_weight,
        "buffer_constant": (res.buffer_weight / (args.eps * g.total_weight)
                            if args.eps > 0 else None),
        "crossing_cost": res.crossing_cost,
        "per_level_lambda2": list(res.per_level_lambda2),
        "violations": list(res.violations),
    }
    return doc, EXIT_OK if not res.violations else EXIT_GUARANTEE


def _cmd_spectrum(args) -> tuple[dict, int]:
    g = _load(args)
    if not 1 <= args.k <= g.n:
        raise ParameterError(f"--k must lie in [1, n={g.n}], got {args.k}")
    basis = eigenbasis(normalized_laplacian(g), args.k)
    if args.embedding_tsv:
        with open(args.embedding_tsv, "w", encoding="utf-8") as fh:
            for name, vector in zip(g.labels, basis.eigenvectors):
                row = "\t".join("%.17g" % x for x in vector)
                fh.write(f"{name}\t{row}\n")
    doc = {
        "command": "spectrum",
        "params": {"k": args.k},
        "eigenvalues": [float(v) for v in basis.eigenvalues],
        "residuals": [float(r) for r in basis.residuals],
    }
    return doc, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    g = _load(args)
    _check_range("--eps", args.eps, 0.0, 1.0)
    part = _read_partition_file(args.partition, g, args.eps)
    validation = validate_partition(g, part)
    doc = {
        "command": "verify",
        "params": {"k": args.k, "eps": args.eps},
        "valid": validation.valid,
        "violations": list(validation.violations),
    }
    if not validation.valid:
        return doc, EXIT_GUARANTEE
    report = _cut_report(g, part)
    passed, slack = check_buffered_lower_bound(g, part, args.k, report=report)
    doc["cut_report"] = report.to_dict()
    doc["lower_bound_buffered_check"] = passed
    doc["lower_bound_buffered_slack"] = slack
    if not passed:
        doc["note"] = ("the buffered lower bound always holds in the weight-dominated "
                       "regime; its failure indicates an implementation bug")
    return doc, EXIT_OK if passed else EXIT_GUARANTEE


def _cmd_certify(args) -> tuple[dict, int]:
    g = _load(args)
    _check_range("--eps", args.eps, 0.0, 1.0)
    _check_range("--delta", args.delta, 0.0, 1.0, lo_open=True)
    part = _read_partition_file(args.partition, g, args.eps)
    if not 1 <= args.k <= g.n:
        raise ParameterError(f"--k must lie in [1, n={g.n}], got {args.k}")
    basis = eigenbasis(normalized_laplacian(g), lifted_k(args.k, args.delta, g.n))
    cert = certify_run(g, args.k, args.eps, part, partition_cost(g, part), basis)
    doc = {
        "command": "certify",
        "params": {"k": args.k, "eps": args.eps, "delta": args.delta},
        "certificate": cert.to_dict(),
    }
    return doc, EXIT_OK if cert.lower_bound_buffered_check else EXIT_GUARANTEE


def _cmd_brute(args) -> tuple[dict, int]:
    g = _load(args)
    _check_range("--eps", args.eps, 0.0, 1.0)
    [(optimum, witness)] = brute_force_h_k_eps(g, args.k, [args.eps])
    doc = {
        "command": "brute",
        "params": {"k": args.k, "eps": args.eps},
        "optimum": optimum,
        "witness": _assignment_dict(g, witness.parts, witness.buffers),
    }
    return doc, EXIT_OK


_HANDLERS = {
    "partition": _cmd_partition,
    "cheeger2": _cmd_cheeger2,
    "balanced-cut": _cmd_balanced_cut,
    "kbalanced": _cmd_kbalanced,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "certify": _cmd_certify,
    "brute": _cmd_brute,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc, code = _HANDLERS[args.command](args)
    except (ParameterError, GraphError, ValueError, OSError) as exc:
        print(f"bufpart: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PartitionError, SolverError, EmbeddingError) as exc:
        print(f"bufpart: failure: {exc}", file=sys.stderr)
        return EXIT_GUARANTEE
    except AssertionError as exc:
        print(f"bufpart: failure: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_GUARANTEE
    text = write_report(doc, args.out)
    if not args.out:
        sys.stdout.write(text)
    return code


def main() -> None:
    raise SystemExit(run())
