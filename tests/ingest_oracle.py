"""Reference edge-list ingest: parse every line, then remap ids, then build.

This is the three-pass pipeline load_graph replaced (raw-id edge tuples, a
second id -> index dict with a remap of every tuple, then Graph.build on the
tuples' columns).  tests/test_graph.py requires load_graph to give the same Graph, or
the same first GraphError text, on generated inputs.
"""

from __future__ import annotations

from typing import Iterable

from bufpart.graph import Graph, GraphError
from conftest import columns


def parse_edge_lines(lines: Iterable[str]):
    """Whitespace 'u v [cost]' lines; returns (edges on raw ids, id order)."""
    edges = []
    order: dict[str, int] = {}
    for ln_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) not in (2, 3):
            raise GraphError(f"edge line {ln_no}: expected 'u v [cost]', got {raw!r}")
        u, v = fields[0], fields[1]
        try:
            cost = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError as exc:
            raise GraphError(f"edge line {ln_no}: bad cost {fields[2]!r}") from exc
        for ident in (u, v):
            if ident not in order:
                order[ident] = len(order)
        edges.append((u, v, cost))
    return edges, list(order)


def parse_weight_lines(lines: Iterable[str]) -> dict[str, float]:
    weights: dict[str, float] = {}
    for ln_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 2:
            raise GraphError(f"weight line {ln_no}: expected 'u weight', got {raw!r}")
        try:
            value = float(fields[1])
        except ValueError as exc:
            raise GraphError(f"weight line {ln_no}: bad weight {fields[1]!r}") from exc
        if fields[0] in weights:
            raise GraphError(f"weight line {ln_no}: duplicate vertex {fields[0]!r}")
        weights[fields[0]] = value
    return weights


def reference_load_graph(edge_lines: list, weight_lines: list | None = None) -> Graph:
    raw_edges, ids = parse_edge_lines(edge_lines)
    if not ids:
        raise GraphError("edge source contains no edges")
    index = {ident: i for i, ident in enumerate(ids)}
    edges = [(index[u], index[v], c) for u, v, c in raw_edges]

    weights = None
    if weight_lines is not None:
        table = parse_weight_lines(weight_lines)
        unknown = sorted(set(table) - set(index))
        if unknown:
            raise GraphError(f"weight file names unknown vertices: {unknown[:5]}")
        missing = sorted(set(index) - set(table))
        if missing:
            raise GraphError(f"weight file is missing vertices: {missing[:5]}")
        weights = [table[ident] for ident in ids]

    return Graph.build(len(ids), *columns(edges), weights=weights, labels=ids)
