"""Weighted graph model, buffered partitions, and cut arithmetic.

Vertices are dense 0-based integers.  load_graph tokenizes the edge and
weight sources with one reader, _records: one regex drops the comments of each
piece of the text, array passes find the field starts and each line's field
count, and one str.split() per piece gives the fields.  It numbers the external
ids in order of first appearance, keeps them as the graph's labels (which name
vertices in error messages), and hands the numbered edges to Graph.build as
typed columns: int64 ids u and v and float64 costs.  Vertex weights and edge
costs are float64 and must be strictly positive.  Buffer budgets are checked
with exact <= (an input contract, not a numerical estimate).

A graph is its edge arrays: every edge is stored once as (u < v, cost), sorted
by (u, v), and the Laplacian, cuts and expansions are all computed from them.
Graph.build validates edges with array operations and sorts them by one int64
key, min(u, v) n + max(u, v) (n^2 when out of range), in a stable radix sort of
16-bit digits; equal neighbours in that order are repeated edges.  subgraph()
does not need to: it renumbers the kept vertices in increasing order, so the
parent's edges between them keep u < v and their (u, v) order, and a subset of
valid, distinct, loop-free edges with positive costs is still one.  It only
re-applies the scale rule, which depends on n and the incident costs.

A buffered partition is one int64 label per vertex: 2i for a core vertex of
part i, 2i+1 for a buffer vertex of part i, -1 for a vertex in no set.
Validation and costing read the labels with bincounts and one edge pass: a core
vertex of part i pays for an edge exactly when the other end's label >> 1 is not
i, and _group_sums adds each part's costs in edge order, as its masked .sum() would.

The threshold searches of cheeger2 and Step 3 share interval_sums(), which
scores every candidate threshold at once under one stated float error bound,
and least_exact(), which lets only the exact masked sums pick the winner.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "BufferedPartition",
    "CutReport",
    "ValidationReport",
    "GraphError",
    "PartitionError",
    "cut_cost",
    "interval_sums",
    "least_exact",
    "buffered_expansion",
    "partition_cost",
    "validate_partition",
    "load_graph",
]


class GraphError(ValueError):
    """Malformed graph input."""


class PartitionError(ValueError):
    """Operation applied to an invalid buffered partition."""


UNIT = np.finfo(np.float64).eps / 2.0  # float64 unit roundoff u = 2^-53
_TINY = np.finfo(np.float64).tiny     # smallest normal float64, 2.2e-308
_HUGE = np.finfo(np.float64).max
_TOTAL_LIMIT = _HUGE / 1024.0


def _as_vertex_array(vertices: Iterable[int], n: int) -> np.ndarray:
    """Sorted distinct int64 ids in [0, n); only a non-array iterable is listed first."""
    if not isinstance(vertices, np.ndarray):
        vertices = list(vertices)
    arr = np.unique(np.asarray(vertices, dtype=np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise GraphError(f"vertex id out of range [0, {n}): {arr[arr < 0] if arr[0] < 0 else arr[-1]}")
    return arr


def _incident_cost(n: int, eu: np.ndarray, ev: np.ndarray, ec: np.ndarray) -> np.ndarray:
    inc = np.zeros(n)
    np.add.at(inc, eu, ec)
    np.add.at(inc, ev, ec)
    return inc


@dataclass(frozen=True)
class Graph:
    """Undirected graph with vertex weights w_u > 0 and edge costs c_uv > 0."""

    n: int
    weights: np.ndarray          # (n,) float64, > 0
    edge_u: np.ndarray           # (m,) int64, edge_u[i] < edge_v[i]
    edge_v: np.ndarray
    edge_cost: np.ndarray        # (m,) float64, > 0
    incident: np.ndarray         # (n,) float64, inc_u: the total cost of u's edges
    labels: tuple = ()           # external ids in internal order, () when native

    @staticmethod
    def build(n: int, u: Sequence[int] | np.ndarray, v: Sequence[int] | np.ndarray,
              cost: Sequence[float] | np.ndarray, weights: Sequence[float] | None = None,
              labels: Sequence | None = None) -> "Graph":
        """Graph on vertices 0..n-1 with edges (u[i], v[i]) of cost cost[i].

        u and v are integer columns within int64 and cost a float column, all of
        one length.  On bad input the GraphError names the first bad edge in input
        order, checked for a self-loop, then the vertex range, then the cost, then
        an earlier edge with the same endpoints; it names vertices as given, or by
        their ``labels`` when the graph has them.  Then the scale rule applies:
        costs and weights must be normal float64 numbers (a subnormal one
        keeps fewer than 53 significant bits), and every normalized Laplacian
        entry must stay within what the solvers' float64 norms can hold.
        The int64 edge keys (module docstring) need n^2 < 2^63: n is at most
        3,037,000,499, and a graph that size would need 24 GB for its weights.
        """
        if n <= 0:
            raise GraphError("graph needs at least one vertex")
        if n > 3_037_000_499:
            raise GraphError(f"graph has {n} vertices; its edge keys need n^2 < 2^63")
        u, v, cost = np.asarray(u), np.asarray(v), np.asarray(cost, dtype=np.float64)
        if not u.shape == v.shape == cost.shape == (cost.size,):
            raise GraphError("edge columns u, v and cost must be 1-d and of one length")
        for ids in (u, v) if cost.size else ():     # empty columns may have any dtype
            if not (np.issubdtype(ids.dtype, np.integer) and ids.max() <= np.iinfo(np.int64).max):
                raise GraphError(f"vertex id columns must hold integers within int64; "
                                 f"this one has dtype {ids.dtype}")
        u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
        outside = (u < 0) | (v < 0) | (u >= n) | (v >= n)
        key = np.minimum(u, v) * n + np.maximum(u, v)     # one key per pair in range
        key[outside] = n * n
        order = _radix_order(key)               # stable: repeats keep input order
        key = key[order]

        loop = u == v
        bad_cost = (cost <= 0.0) | ~np.isfinite(cost)
        repeat = np.zeros(u.size, dtype=bool)
        repeat[order[1:]] = key[1:] == key[:-1]
        bad = loop | outside | bad_cost | repeat
        labels = tuple(labels) if labels is not None else ()
        if bad.any():
            i = int(np.argmax(bad))
            a, b = int(u[i]), int(v[i])

            def name(x: int) -> str:
                return repr(labels[x]) if 0 <= x < len(labels) else str(x)

            if loop[i]:
                raise GraphError(f"self-loop at vertex {name(a)}")
            if outside[i]:
                raise GraphError(f"edge ({a},{b}) outside vertex range [0,{n})")
            if bad_cost[i]:
                kind = "non-finite" if not np.isfinite(cost[i]) else "nonpositive"
                raise GraphError(f"edge ({name(a)},{name(b)}) has {kind} cost {float(cost[i])}")
            raise GraphError(f"duplicate edge ({name(min(a, b))}, {name(max(a, b))})")

        ec = cost[order]
        del order           # frees m int64 before the split
        eu, ev = np.divmod(key, n)
        with np.errstate(over="ignore"):
            incident = _incident_cost(n, eu, ev, ec)
        if weights is None:
            w = incident
            if np.any(w <= 0.0):
                bad_vertex = int(np.argmin(w))
                raise GraphError(f"vertex {bad_vertex} is isolated; give it an explicit weight")
        else:
            w = np.array(weights, dtype=np.float64)
            if w.shape != (n,):
                raise GraphError(f"expected {n} vertex weights, got {w.shape}")
            if np.any(~np.isfinite(w)) or np.any(w <= 0.0):
                raise GraphError("vertex weights must be positive and finite")
        _check_scale(n, ec, w, incident)
        return Graph(n=int(n), weights=w, edge_u=eu, edge_v=ev, edge_cost=ec, incident=incident,
                     labels=labels)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def mask(self, vertices: Iterable[int]) -> np.ndarray:
        m = np.zeros(self.n, dtype=bool)
        m[_as_vertex_array(vertices, self.n)] = True
        return m

    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph with original weights/costs; returns (graph, old ids).

        Its edges are the parent's, renumbered in order (valid and sorted, as
        the module docstring says); only the scale rule is checked again.
        The subgraph has no labels.
        """
        keep = _as_vertex_array(vertices, self.n)
        if not keep.size:
            raise GraphError("graph needs at least one vertex")
        remap = -np.ones(self.n, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        ru, rv = remap[self.edge_u], remap[self.edge_v]
        inside = (ru >= 0) & (rv >= 0)
        eu, ev, ec, w = ru[inside], rv[inside], self.edge_cost[inside], self.weights[keep]
        incident = _incident_cost(keep.size, eu, ev, ec)
        _check_scale(keep.size, ec, w, incident)
        return Graph(n=int(keep.size), weights=w, edge_u=eu, edge_v=ev, edge_cost=ec,
                     incident=incident), keep


def _radix_order(key: np.ndarray) -> np.ndarray:
    """np.argsort(key, kind="stable") for a nonnegative int64 key.

    LSD radix sort: one stable argsort of uint16 digits per 16 bits of the
    largest key, least significant first, so small keys need few passes.
    """
    order = np.arange(key.size)
    for shift in range(0, int(key.max(initial=0)).bit_length(), 16):
        order = order[np.argsort((key[order] >> shift).astype(np.uint16), kind="stable")]
    return order


def _check_scale(n: int, cost: np.ndarray, w: np.ndarray, incident: np.ndarray) -> None:
    """The scale rule of Graph.build, on finite positive costs and weights.

    Bounds and reports multiply the total cost and the total weight by
    constants up to 192 (the Step-3 buffer slack c' eps), so both totals stay
    within 2^-10 of the largest float64.  Costs and weights must be normal.

    The largest normalized Laplacian entry is B = max_u inc_u / w_u: an
    off-diagonal c_uv / sqrt(w_u w_v) is at most the geometric mean of its two
    diagonal entries, since c_uv is at most both inc_u and inc_v.  For a unit
    x, each entry of L x - lambda x is at most 2 n B in size (|lambda| <= n B),
    so the residual norm, a sum of n squares, stays finite while
    4 n^3 B^2 <= the largest float64.  B also bounds every buffered
    expansion: cut(P, .) / w(P) <= sum_P inc_u / sum_P w_u <= B.
    """
    with np.errstate(over="ignore"):
        totals = incident.sum(), w.sum()
    for total, what, which in zip(totals, ("incident edge cost", "vertex weight"),
                                  ("costs", "weights")):
        if not total <= _TOTAL_LIMIT:
            raise GraphError(f"the total {what} overflows {_TOTAL_LIMIT:.3g}, 2^-10 of the "
                             f"largest float64, which bounds and reports need; "
                             f"rescale the {which}")
    if cost.size and cost.min() < _TINY:
        raise GraphError(f"edge cost {float(cost.min())!r} is subnormal in float64; "
                         f"rescale the costs")
    if w.min() < _TINY:
        raise GraphError(f"vertex weight {float(w.min())!r} is subnormal in float64; "
                         f"rescale the weights")
    limit = np.sqrt(_HUGE / (4.0 * float(n) ** 3))
    with np.errstate(over="ignore"):
        largest = float((incident / w).max())
    if largest > limit:
        raise GraphError(f"a vertex's incident cost over its weight is {largest!r}, above "
                         f"{limit:.3g}, the largest normalized Laplacian entry whose float64 "
                         f"solver norms stay finite at n = {n}; rescale the costs or the weights")


def cut_cost(g: Graph, a: Iterable[int], b: Iterable[int]) -> float:
    """delta_G(A,B): total cost of edges with one endpoint in each set."""
    ma = g.mask(a)
    mb = g.mask(b)
    if np.any(ma & mb):
        raise PartitionError("cut_cost requires disjoint vertex sets")
    return cut_cost_masks(g, ma, mb)


def cut_cost_masks(g: Graph, ma: np.ndarray, mb: np.ndarray) -> float:
    crossing = (ma[g.edge_u] & mb[g.edge_v]) | (mb[g.edge_u] & ma[g.edge_v])
    return float(g.edge_cost[crossing].sum())


def interval_sums(start: np.ndarray, end: np.ndarray, values: np.ndarray,
                  count: int) -> tuple[np.ndarray, float]:
    """(sums, tol): for each i in [0, count), the sum of the values[j] >= 0
    with start[j] <= i < end[j] (indices in [0, count]), and its error bound.

    A set's weight or a cut at every candidate threshold: two bincounts add
    each value at start[j] and take it back at end[j], one cumsum sums them.
    The bound, stated once: with u = UNIT, N values with start < end and V
    their total, a sum here is within 2 (N + count + 1) u V (1 + small) of
    the exact one, and numpy's .sum() of any subset of them within
    (N - 1) u V (1 + small) of its own; so for N + count < 2^40 the gap to
    the masked .sum() of the same set is at most tol = 4 (N + count + 1) u V.
    """
    keep = start < end
    v = values[keep]
    sums = np.cumsum(np.bincount(start[keep], v, count + 1)
                     - np.bincount(end[keep], v, count + 1))[:count]
    return sums, 4.0 * (v.size + count + 1) * UNIT * float(v.sum())


def least_exact(order: np.ndarray, lower: np.ndarray, evaluate):
    """The result of the least exact key over the candidates, or None.

    Visits the candidates in `order`; evaluate(i) returns (key, result) from
    exact masked sums, key[0] being phi >= lower[i], or None if i is
    infeasible.  Once there is a best key, candidates with lower > its phi
    are dropped unevaluated; lower == phi is kept, so ties on phi go to the
    rest of the key and the result is that of evaluating every candidate.
    """
    best_key = best = None
    rest = np.asarray(order)
    while rest.size:
        i, rest = rest[0], rest[1:]
        found = evaluate(int(i))
        if found is not None and (best_key is None or found[0] < best_key):
            best_key, best = found
            rest = rest[lower[rest] <= best_key[0]]
    return best


def buffered_expansion(g: Graph, p: Iterable[int], b: Iterable[int]) -> float:
    """phi_G(P || B) = delta_G(P, V minus (P u B)) / w(P); edges into B are free."""
    mp = g.mask(p)
    mb = g.mask(b)
    if not mp.any():
        raise PartitionError("buffered expansion of an empty set is undefined")
    if np.any(mp & mb):
        raise PartitionError("part and buffer must be disjoint")
    outside = ~(mp | mb)
    return cut_cost_masks(g, mp, outside) / float(g.weights[mp].sum())


@dataclass(frozen=True)
class BufferedPartition:
    """Parts P_0..P_{k-1}, buffers B_0..B_{k-1} and budget epsilon as vertex labels."""

    label: np.ndarray       # int64: 2i on P_i, 2i + 1 on B_i, -1 in no set
    k: int
    epsilon: float

    @property
    def parts(self) -> tuple:
        """P_0..P_{k-1} as sorted vertex arrays."""
        return tuple(np.flatnonzero(self.label == 2 * i) for i in range(self.k))

    @property
    def buffers(self) -> tuple:
        return tuple(np.flatnonzero(self.label == 2 * i + 1) for i in range(self.k))


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple


@dataclass(frozen=True)
class CutReport:
    per_part_expansion: tuple
    max_expansion: float
    buffer_ratios: tuple
    violations: tuple

    def to_dict(self) -> dict:
        return {
            "per_part_expansion": list(self.per_part_expansion),
            "max_expansion": self.max_expansion,
            "buffer_ratios": list(self.buffer_ratios),
            "violations": list(self.violations),
        }


def validate_partition(g: Graph, part: BufferedPartition) -> ValidationReport:
    """Check the four buffered-partition conditions; report every violation.

    Condition 1 holds by construction: a label puts each vertex in one set."""
    violations: list[str] = []
    outside = np.bincount(part.label[g.n:] + 1, minlength=2 * part.k + 1)[1:] > 0
    violations += [f"part {i} has out-of-range vertices" for i in np.flatnonzero(outside[::2])]
    violations += [f"buffer {i} has out-of-range vertices" for i in np.flatnonzero(outside[1::2])]
    label = np.full(g.n, -1, dtype=np.int64)
    label[:part.label.size] = part.label[:g.n]
    if np.any(label < 0):
        missing = int(np.argmax(label < 0))
        violations.append(f"condition 2 violated: union does not cover V (vertex {missing})")
    cores = np.bincount(part.label[part.label >= 0], minlength=2 * part.k)[:2 * part.k:2]
    violations += [f"condition 3 violated: part {i} is empty" for i in np.flatnonzero(cores == 0)]
    if not (0.0 <= part.epsilon < 1.0):
        violations.append(f"epsilon {part.epsilon} outside [0,1)")
    sums = _group_sums(label, g.weights, 2 * part.k)
    for i, (wp, wb) in enumerate(zip(sums[::2], sums[1::2])):
        if cores[i] and wb > part.epsilon * wp:
            violations.append(
                f"condition 4 violated: w(B_{i})={wb!r} > eps*w(P_{i})={part.epsilon * wp!r}")
    return ValidationReport(valid=not violations, violations=tuple(violations))


def partition_cost(g: Graph, part: BufferedPartition) -> CutReport:
    """Per-part buffered expansions and their maximum (the partition's cost)."""
    report = validate_partition(g, part)
    if not report.valid:
        raise PartitionError(f"invalid buffered partition: {report.violations[0]}")
    return _cut_report(g, part)


def _cut_report(g: Graph, part: BufferedPartition) -> CutReport:
    """partition_cost() of a partition that validate_partition() has passed.

    One edge pass (module docstring): a core end u of part i pays for (u, v) when
    label[v] >> 1 != i.  Each edge gets a key per end, the paying part or -1."""
    label = part.label
    ends = np.column_stack([label[g.edge_u], label[g.edge_v]])
    pays = ((ends & 1) == 0) & (ends >= 0) & ((ends >> 1) != (ends >> 1)[:, ::-1])
    cuts = _group_sums(np.where(pays, ends >> 1, -1).ravel(), np.repeat(g.edge_cost, 2),
                       part.k)
    weights = _group_sums(label, g.weights, 2 * part.k)
    phis = [cut / wp for cut, wp in zip(cuts, weights[::2])]
    return CutReport(per_part_expansion=tuple(phis), max_expansion=max(phis),
                     buffer_ratios=tuple(wb / wp for wb, wp in zip(weights[1::2], weights[::2])),
                     violations=())


def _groups(key: np.ndarray, groups: int) -> list:
    """[np.flatnonzero(key == j) for j in range(groups)] from one stable sort by
    key, which keeps each group's indices ascending.  Other keys are dropped."""
    order = np.argsort(key, kind="stable")
    ends = np.searchsorted(key[order], np.arange(groups + 1)).tolist()
    return [order[lo:hi] for lo, hi in zip(ends[:-1], ends[1:])]


def _group_sums(key: np.ndarray, values: np.ndarray, groups: int) -> list:
    """[float(values[key == j].sum()) for j in range(groups)], bit for bit: each
    group's values come in input order, as in its masked array, so numpy's
    pairwise .sum() adds them alike."""
    return [float(values[members].sum()) for members in _groups(key, groups)]


# The code points str.isspace() accepts, which are those str.split() splits at.
_WHITESPACE = (*range(0x09, 0x0E), *range(0x1C, 0x21), 0x85, 0xA0, 0x1680,
               *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
_SPACE = np.zeros(0x3002, dtype=bool)   # by code point; the last entry stands for all above
_SPACE[list(_WHITESPACE)] = True
_PIECE = 1 << 14    # characters tokenized at a time; bounds the fields held as str
_COMMENT = re.compile(r"#[^\n]*")


def _records(source, kind: str, form: str, arities: tuple, number: str):
    """(ids, numbers, line numbers) of the records of a line source, per piece.

    A record is a line with fields ('#' starts a comment).  Its ids are its
    first arities[-1] - 1 fields; its number is the last field of a line of
    arities[-1] fields, else 1.0.  source is a list of lines or a file path.
    A file's lines end at newlines only, so the line numbers are the file's
    own; the other Unicode line breaks (U+2028 and the like) are whitespace
    between fields, and so is a newline inside a listed line.

    The text goes in pieces of about _PIECE characters that end at line ends.
    One regex drops a piece's comments, keeping every newline; array passes
    over its code points find where its fields start and each line's field
    count, and one str.split() gives the fields.  At the first line with a
    wrong field count or a bad number, the records before it are yielded and
    the next step raises its GraphError (quoting the source's line), so a
    consumer's checks of earlier lines come first.
    """
    listed = isinstance(source, (list, tuple))
    if listed:
        text = "\n".join(line.replace("\n", " ") for line in source)
    else:
        text = _read_text(source, kind)
    most, line0, start = arities[-1], 1, 0
    while start < len(text):
        end = text.find("\n", start + _PIECE) + 1 or len(text)
        piece, start = text[start:end], end
        if "#" in piece:
            piece = _COMMENT.sub("", piece)
        codes = np.frombuffer(piece.encode("utf-32-le", "surrogatepass"), np.uint32)
        space = _SPACE.take(np.minimum(codes, _SPACE.size - 1))
        newline = np.flatnonzero(codes == 10)
        starts = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))
        count = np.diff(np.searchsorted(starts, newline), prepend=0, append=starts.size)  # per line
        fields = piece.split()

        lines = np.flatnonzero(count)
        sizes = count[lines]
        bad = np.flatnonzero((sizes != arities[0]) & (sizes != most))
        stop = int(bad[0]) if bad.size else lines.size     # records before a bad line
        numbered = np.flatnonzero(sizes[:stop] == most)
        last = (np.cumsum(sizes) - 1)[numbered]       # where in fields each number is
        numbers = [fields[i] for i in last.tolist()]
        values = np.ones(stop)
        error = None
        try:
            values[numbered] = np.fromiter(map(float, numbers), np.float64, len(numbers))
        except ValueError:
            j = next(j for j, field in enumerate(numbers) if not _is_float(field))
            values[numbered[:j]] = np.fromiter(map(float, numbers[:j]), np.float64, j)
            stop = int(numbered[j])
            error = GraphError(f"{kind} line {line0 + lines[stop]}: bad {number} {numbers[j]!r}")
        if error is None and stop < lines.size:
            ln_no = int(line0 + lines[stop])
            raw = (source if listed else text.split("\n"))[ln_no - 1]
            error = GraphError(f"{kind} line {ln_no}: expected {form!r}, got {raw!r}")
        ids = fields[:int(sizes[:stop].sum())]
        if numbered.size:       # the fields but the numbers
            is_id = np.ones(len(fields), dtype=bool)
            is_id[last] = False
            ids = list(compress(ids, is_id.tolist()))
        yield ids, values[:stop], line0 + lines[:stop]
        if error is not None:
            raise error
        line0 += newline.size


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_text(path, kind: str) -> str:
    """A UTF-8 file's text with universal newlines and no leading byte-order
    mark; bytes that do not decode raise GraphError naming the file and the line."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:     # exc.object holds the file's bytes after the mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise GraphError(f"{kind} file {str(path)!r} line {line}: not UTF-8 text "
                         f"({exc.reason})") from exc


class _Numbering(dict):
    """Ids numbered 0, 1, ... in order of first lookup."""

    def __missing__(self, ident: str) -> int:
        self[ident] = number = len(self)
        return number


def load_graph(edge_source, weight_source=None) -> Graph:
    """Build a Graph from an edge-list text source and optional weight source.

    Sources are paths or lists of lines.  Vertices are numbered in the
    order their ids first appear in the edge lines.  Without a weight source
    every w_u defaults to the total cost of edges incident on u.
    """
    index = _Numbering()
    ends, costs = [], []
    for ids, cost, _ in _records(edge_source, "edge", "u v [cost]", (2, 3), "cost"):
        ends.append(np.fromiter(map(index.__getitem__, ids), np.int64, len(ids)))
        costs.append(cost)
    if not index:
        raise GraphError("edge source contains no edges")

    weights = None
    if weight_source is not None:
        table: dict[str, float] = {}
        for ids, values, lines in _records(weight_source, "weight", "u weight", (2,), "weight"):
            named = dict(zip(ids, values.tolist()))
            if len(named) < len(ids) or not table.keys().isdisjoint(named):
                seen = set(table)
                for ident, ln_no in zip(ids, lines.tolist()):
                    if ident in seen:
                        raise GraphError(f"weight line {ln_no}: duplicate vertex {ident!r}")
                    seen.add(ident)
            table.update(named)
        unknown = sorted(set(table) - set(index))
        if unknown:
            raise GraphError(f"weight file names unknown vertices: {unknown[:5]}")
        missing = sorted(set(index) - set(table))
        if missing:
            raise GraphError(f"weight file is missing vertices: {missing[:5]}")
        weights = [table[ident] for ident in index]

    ends, costs = np.concatenate(ends).reshape(-1, 2), np.concatenate(costs)  # frees the pieces
    return Graph.build(len(index), ends[:, 0], ends[:, 1], costs,
                       weights=weights, labels=tuple(index))
