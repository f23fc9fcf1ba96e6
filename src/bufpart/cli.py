"""Command-line front end.

`run` loads the graph, calls the command's handler and maps its errors, once for
every command.  Exit codes: 0 success, 1 parameter or I/O error (one `bufpart:
error:` line), 2 validation or guarantee failure.  A failed check writes its
report, as does a `partition` whose driver gives up (the report names the error);
a solver, embedding or invariant failure, or a partition error elsewhere, writes
none and prints one `bufpart: failure:` line.  Each parameter's range is checked
once, by the library call that takes it; the front end checks only what no library
call on its path checks: a stored partition's `--eps` and part count against `--k`
as it reads the file, and `certify`'s `--delta`.  `verify` and `certify` validate
the partition before they solve.  Every command that takes `--k` needs k <= n.
Reports are deterministic JSON; a fixed seed reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .balanced import (PART_WEIGHT_FACTOR, buffered_balanced_cut, cheeger2_buffered,
                       kway_balanced)
from .certify import (brute_force_h_k_eps, certify_run,
                      check_buffered_lower_bound)
from .graph import (BufferedPartition, Graph, GraphError, PartitionError, _cut_report,
                    _read_text, load_graph, partition_cost, validate_partition)
from .partition import RESTARTS, buffered_k_partition, lifted_k
from .reports import Verbatim, json_string, write_report
from .spectral import EmbeddingError, SolverError, eigenbasis

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARANTEE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache     # parse_args leaves the parser as it was, so one serves every run()
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


def _assignment_json(g: Graph, part: BufferedPartition) -> Verbatim:
    """The object {name: {"part_id": i, "role": "core"|"buffer"}} of part's labelled
    vertices as JSON text, in (len(name), name) order."""
    names, label, roles = g.labels, part.label.tolist(), ("core", "buffer")
    placed = sorted(np.flatnonzero(part.label >= 0).tolist(),
                    key=lambda v: (len(names[v]), names[v]))
    return Verbatim("{" + ",".join(f'{json_string(names[v])}:{{"part_id":{label[v] >> 1},'
                                   f'"role":"{roles[label[v] & 1]}"}}' for v in placed) + "}")


def _read_partition_file(path, g: Graph, k: int, epsilon: float) -> BufferedPartition:
    """Parse an assignment file of {vertex: {"part_id": int, "role": "core"|"buffer"}},
    bare or as a report's "assignment", whose part count must be k.  epsilon is
    checked here: validate_partition would report a bad one as a violation of the
    partition."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0,1), got {epsilon}")
    text = _read_text(path, "partition")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:    # bad JSON, huge ints, deep nesting
        raise GraphError(f"partition file {str(path)!r}: {exc}") from exc
    assignment = data.get("assignment", data) if isinstance(data, dict) else None
    if assignment is data and isinstance(data.get("error"), str):    # a failed run's report
        raise GraphError(f"partition file {str(path)!r} reports an error, not an assignment: "
                         f"{data['error']}")
    if not isinstance(assignment, dict) or not assignment:
        raise GraphError("partition file holds no assignment object of vertices")
    index = {name: i for i, name in enumerate(g.labels)}
    label = np.full(g.n, -1, dtype=np.int64)
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
        label[index[name]] = 2 * part_id + (role == "buffer")
    parts = 1 + int(label.max()) // 2
    if parts != k:
        raise ValueError(f"partition has {parts} parts, expected {k}")
    return BufferedPartition(label=label, k=parts, epsilon=epsilon)


def _cmd_partition(args, g: Graph) -> tuple[dict, int]:
    try:
        bp, report, info = buffered_k_partition(g, args.k, args.eps, args.delta,
                                                seed=args.seed, restarts=args.restarts)
    except PartitionError as exc:
        return {"error": str(exc)}, EXIT_GUARANTEE
    doc = {
        "params": {"k": args.k, "eps": args.eps, "delta": args.delta,
                   "seed": args.seed, "restarts": args.restarts},
        "epsilon_realized": bp.epsilon,
        "assignment": _assignment_json(g, bp),
        "cut_report": report.to_dict(),
        "certificate": info["certificate"],
        "diagnostics": {k: v for k, v in info.items() if k != "certificate"},
    }
    code = EXIT_OK if info["certificate"]["lower_bound_buffered_check"] else EXIT_GUARANTEE
    return doc, code


def _cmd_cheeger2(args, g: Graph) -> tuple[dict, int]:
    cut = cheeger2_buffered(g, args.eps)
    doc = {
        "params": {"eps": args.eps},
        "assignment": _assignment_json(g, BufferedPartition(cut.label, 2, args.eps)),
        "phi": cut.phi,
        "cut_value": cut.cut_value,
        "buffer_ratio": cut.buffer_ratio,
        "lambda2": cut.lambda2,
        "threshold": cut.threshold,
        "guarantee": 4.0 * (1.0 + 2.0 / args.eps) * cut.lambda2,
    }
    code = EXIT_OK if cut.phi <= doc["guarantee"] + 1e-9 else EXIT_GUARANTEE
    return doc, code


def _cmd_balanced_cut(args, g: Graph) -> tuple[dict, int]:
    res = buffered_balanced_cut(g, args.eps)
    wl, wb, wr = res.weights
    doc = {
        "params": {"eps": args.eps},
        "assignment": _assignment_json(g, BufferedPartition(res.label, 2, args.eps)),
        "cut_value": res.cut_value,
        "balance": {"left": wl, "right": wr, "total": g.total_weight},
        "buffer_ratio": wb / min(wl, wr),
        "per_level_lambda2": list(res.per_level_lambda2),
        "per_level_phi": list(res.per_level_phi),
        "balanced": res.balanced,
        "violations": list(res.violations),
    }
    return doc, EXIT_OK if res.balanced else EXIT_GUARANTEE


def _cmd_kbalanced(args, g: Graph) -> tuple[dict, int]:
    res = kway_balanced(g, args.k, args.eps)
    doc = {
        "params": {"k": args.k, "eps": args.eps},
        "assignment": _assignment_json(
            g, BufferedPartition(res.label, len(res.part_weights), args.eps)),
        "part_weights": list(res.part_weights),
        "max_part_weight": max(res.part_weights),
        "weight_limit": PART_WEIGHT_FACTOR * g.total_weight / args.k,
        "buffer_weight": res.buffer_weight,
        "buffer_constant": res.buffer_weight / (args.eps * g.total_weight),
        "crossing_cost": res.crossing_cost,
        "per_level_lambda2": list(res.per_level_lambda2),
        "violations": list(res.violations),
    }
    return doc, EXIT_OK if not res.violations else EXIT_GUARANTEE


def _cmd_spectrum(args, g: Graph) -> tuple[dict, int]:
    basis = eigenbasis(g, args.k)
    if args.embedding_tsv:
        with open(args.embedding_tsv, "w", encoding="utf-8") as fh:
            for name, vector in zip(g.labels, basis.eigenvectors):
                row = "\t".join("%.17g" % x for x in vector)
                fh.write(f"{name}\t{row}\n")
    doc = {
        "params": {"k": args.k},
        "eigenvalues": [float(v) for v in basis.eigenvalues],
        "residuals": [float(r) for r in basis.residuals],
    }
    return doc, EXIT_OK


def _cmd_verify(args, g: Graph) -> tuple[dict, int]:
    part = _read_partition_file(args.partition, g, args.k, args.eps)
    validation = validate_partition(g, part)
    doc = {
        "params": {"k": args.k, "eps": args.eps},
        "valid": validation.valid,
        "violations": list(validation.violations),
    }
    if not validation.valid:
        return doc, EXIT_GUARANTEE
    report = _cut_report(g, part)
    passed, slack = check_buffered_lower_bound(g, part, eigenbasis(g, part.k), report)
    doc["cut_report"] = report.to_dict()
    doc["lower_bound_buffered_check"] = passed
    doc["lower_bound_buffered_slack"] = slack
    if not passed:
        doc["note"] = ("the bound in force always holds; its failure indicates an "
                       "implementation bug")
    return doc, EXIT_OK if passed else EXIT_GUARANTEE


def _cmd_certify(args, g: Graph) -> tuple[dict, int]:
    part = _read_partition_file(args.partition, g, args.k, args.eps)
    if not 0.0 < args.delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {args.delta}")
    report = partition_cost(g, part)
    basis = eigenbasis(g, lifted_k(part.k, args.delta, g.n))
    cert = certify_run(g, args.eps, part, report, basis)
    doc = {
        "params": {"k": args.k, "eps": args.eps, "delta": args.delta},
        "certificate": cert.to_dict(),
    }
    return doc, EXIT_OK if cert.lower_bound_buffered_check else EXIT_GUARANTEE


def _cmd_brute(args, g: Graph) -> tuple[dict, int]:
    [(optimum, witness)] = brute_force_h_k_eps(g, args.k, [args.eps])
    doc = {
        "params": {"k": args.k, "eps": args.eps},
        "optimum": optimum,
        "witness": _assignment_json(g, witness),
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
        # no name holds the graph, so it is freed before the report renders
        doc, code = _HANDLERS[args.command](args, load_graph(args.graph, args.weights))
        # an unwritable --out is an I/O error too
        text = write_report({"command": args.command, **doc}, args.out)
    # PartitionError is a ValueError, so this clause comes first
    except (PartitionError, SolverError, EmbeddingError) as exc:
        print(f"bufpart: failure: {exc}", file=sys.stderr)
        return EXIT_GUARANTEE
    except (ValueError, OSError) as exc:
        print(f"bufpart: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"bufpart: failure: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_GUARANTEE
    if not args.out:
        sys.stdout.write(text)
    return code


def main() -> None:
    raise SystemExit(run())
