"""Weighted graph model, buffered partitions, and cut arithmetic.

Vertices are dense 0-based integers.  load_graph tokenizes the edge and
weight sources with one reader, _records: array passes over each piece of
the text find the comments, the field starts and each line's field count,
and one str.split() per piece gives the fields.  It numbers the external ids
in order of first appearance, keeps them as the graph's labels (which name
vertices in error messages), and hands the numbered edges to Graph.build as
one (m, 3) array.  Vertex weights and edge costs are float64 and must be
strictly positive.  Buffer budgets are checked with exact <= (an input
contract, not a numerical estimate).

A graph is its edge arrays: every edge is stored once as (u < v, cost), sorted
by (u, v), and the Laplacian, cuts and expansions are all computed from them.
Graph.build validates edges with array operations and sorts them by a stable
radix sort of 16-bit digits, in np.lexsort's order.  subgraph() does not need
to: it renumbers the kept vertices in increasing order, so the parent's edges
between them keep u < v and their (u, v) order, and a subset of valid,
distinct, loop-free edges with positive costs is still one.  It only
re-applies the scale rule, which depends on n and the incident costs.

The threshold searches of cheeger2 and Step 3 share interval_sums(), which
scores every candidate threshold at once under one stated float error bound,
and least_exact(), which lets only the exact masked sums pick the winner.
"""

from __future__ import annotations

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


def _vertex_set(vertices: Iterable[int]) -> np.ndarray:
    """Sorted distinct int64 ids; only a non-array iterable is listed first."""
    if not isinstance(vertices, np.ndarray):
        vertices = list(vertices)
    return np.unique(np.asarray(vertices, dtype=np.int64))


def _as_vertex_array(vertices: Iterable[int], n: int) -> np.ndarray:
    arr = _vertex_set(vertices)
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
    labels: tuple = ()           # external ids in internal order, () when native

    @staticmethod
    def build(n: int, edges: Sequence[tuple[int, int, float]] | np.ndarray,
              weights: Sequence[float] | None = None,
              labels: Sequence | None = None) -> "Graph":
        """Graph on vertices 0..n-1 from rows of (u, v, cost).

        On bad input the GraphError names the first bad edge in input order,
        checked for a vertex id that is not an int64, then a self-loop, then
        the vertex range, then the cost, then an earlier edge with the same
        endpoints; it names vertices as given, or by their ``labels`` when the
        graph has them.  Then the scale rule applies:
        costs and weights must be normal float64 numbers (a subnormal one
        keeps fewer than 53 significant bits), and every normalized Laplacian
        entry must stay within what the solvers' float64 norms can hold.
        """
        if n <= 0:
            raise GraphError("graph needs at least one vertex")
        rows = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
        with np.errstate(invalid="ignore"):     # an id that is no int64 becomes bad_id
            u = rows[:, 0].astype(np.int64)
            v = rows[:, 1].astype(np.int64)
        cost = rows[:, 2]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        order = _radix_order(hi, lo)            # stable: repeats keep input order
        eu, ev, ec = lo[order], hi[order], cost[order]

        bad_id = (u != rows[:, 0]) | (v != rows[:, 1])
        loop = u == v
        outside = (lo < 0) | (hi >= n)
        bad_cost = (cost <= 0.0) | ~np.isfinite(cost)
        repeat = np.zeros(u.size, dtype=bool)
        repeat[order[1:]] = (eu[1:] == eu[:-1]) & (ev[1:] == ev[:-1])
        bad = bad_id | loop | outside | bad_cost | repeat
        labels = tuple(labels) if labels is not None else ()
        if bad.any():
            i = int(np.argmax(bad))
            a, b = float(rows[i, 0]), float(rows[i, 1])

            def given(x: float) -> str:
                return str(int(x)) if x.is_integer() else str(x)

            def name(x: float) -> str:
                return repr(labels[int(x)]) if 0 <= x < len(labels) else given(x)

            if bad_id[i]:
                raise GraphError(f"edge ({given(a)},{given(b)}) has a vertex id that is not "
                                 f"an int64")
            if loop[i]:
                raise GraphError(f"self-loop at vertex {name(a)}")
            if outside[i]:
                raise GraphError(f"edge ({given(a)},{given(b)}) outside vertex range [0,{n})")
            if bad_cost[i]:
                kind = "non-finite" if not np.isfinite(cost[i]) else "nonpositive"
                raise GraphError(f"edge ({name(a)},{name(b)}) has {kind} cost {float(cost[i])}")
            raise GraphError(f"duplicate edge ({name(min(a, b))}, {name(max(a, b))})")

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
        return Graph(n=int(n), weights=w, edge_u=eu, edge_v=ev, edge_cost=ec, labels=labels)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def edge_count(self) -> int:
        return int(self.edge_cost.size)

    def weight_of(self, vertices: np.ndarray) -> float:
        return float(self.weights[np.asarray(vertices, dtype=np.int64)].sum())

    def incident_cost(self) -> np.ndarray:
        return _incident_cost(self.n, self.edge_u, self.edge_v, self.edge_cost)

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
        _check_scale(keep.size, ec, w, _incident_cost(keep.size, eu, ev, ec))
        return Graph(n=int(keep.size), weights=w, edge_u=eu, edge_v=ev, edge_cost=ec), keep


def _radix_order(*keys: np.ndarray) -> np.ndarray:
    """The permutation np.lexsort(keys) gives (the last key primary), for int64 keys.

    LSD radix sort: one stable argsort of uint16 digits per 16 bits of each
    key, least significant key and digit first.  Flipping the sign bit and
    subtracting the least key maps int64 to uint64 in order, so negative and
    large keys sort exactly and small ones need few digits.
    """
    order = np.arange(keys[0].size)
    for key in keys:
        k = key.view(np.uint64) ^ np.uint64(1 << 63)
        k -= k.min(initial=np.iinfo(np.uint64).max)
        for shift in range(0, int(k.max(initial=0)).bit_length(), 16):
            digit = (k[order] >> np.uint64(shift)).astype(np.uint16)
            order = order[np.argsort(digit, kind="stable")]
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
    """Parts P_1..P_k with per-part buffers B_1..B_k and budget epsilon."""

    parts: tuple            # tuple of sorted int64 arrays
    buffers: tuple
    epsilon: float

    @staticmethod
    def from_sets(parts: Sequence[Iterable[int]], buffers: Sequence[Iterable[int]],
                  epsilon: float) -> "BufferedPartition":
        ps = tuple(_vertex_set(p) for p in parts)
        bs = tuple(_vertex_set(b) for b in buffers)
        if len(ps) != len(bs):
            raise PartitionError("need one buffer per part (may be empty)")
        return BufferedPartition(parts=ps, buffers=bs, epsilon=float(epsilon))

    @property
    def k(self) -> int:
        return len(self.parts)

    def assignment(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(part index, role) per vertex; role 0 = core, 1 = buffer, -1 = unassigned."""
        part = -np.ones(n, dtype=np.int64)
        role = -np.ones(n, dtype=np.int64)
        for i, (p, b) in enumerate(zip(self.parts, self.buffers)):
            part[p] = i
            role[p] = 0
            part[b] = i
            role[b] = 1
        return part, role


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple

    def first(self) -> str:
        return self.violations[0] if self.violations else ""


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
    """Check the four buffered-partition conditions; report every violation."""
    violations: list[str] = []
    coverage = np.zeros(g.n, dtype=np.int64)
    for i, p in enumerate(part.parts):
        if p.size and (p[0] < 0 or p[-1] >= g.n):
            violations.append(f"part {i} has out-of-range vertices")
            continue
        coverage[p] += 1
    for i, b in enumerate(part.buffers):
        if b.size and (b[0] < 0 or b[-1] >= g.n):
            violations.append(f"buffer {i} has out-of-range vertices")
            continue
        coverage[b] += 1
    if np.any(coverage > 1):
        dup = int(np.argmax(coverage > 1))
        violations.append(f"condition 1 violated: sets are not pairwise disjoint (vertex {dup})")
    if np.any(coverage == 0):
        missing = int(np.argmax(coverage == 0))
        violations.append(f"condition 2 violated: union does not cover V (vertex {missing})")
    for i, p in enumerate(part.parts):
        if p.size == 0:
            violations.append(f"condition 3 violated: part {i} is empty")
    if not (0.0 <= part.epsilon < 1.0):
        violations.append(f"epsilon {part.epsilon} outside [0,1)")
    for i, (p, b) in enumerate(zip(part.parts, part.buffers)):
        if p.size == 0:
            continue
        wb = g.weight_of(b) if b.size else 0.0
        wp = g.weight_of(p)
        if wb > part.epsilon * wp:
            violations.append(
                f"condition 4 violated: w(B_{i})={wb!r} > eps*w(P_{i})={part.epsilon * wp!r}")
    return ValidationReport(valid=not violations, violations=tuple(violations))


def partition_cost(g: Graph, part: BufferedPartition) -> CutReport:
    """Per-part buffered expansions and their maximum (the partition's cost)."""
    report = validate_partition(g, part)
    if not report.valid:
        raise PartitionError(f"invalid buffered partition: {report.first()}")
    return _cut_report(g, part)


def _cut_report(g: Graph, part: BufferedPartition) -> CutReport:
    """partition_cost() of a partition that validate_partition() has passed."""
    phis = []
    ratios = []
    for p, b in zip(part.parts, part.buffers):
        phis.append(buffered_expansion(g, p, b))
        ratios.append((g.weight_of(b) if b.size else 0.0) / g.weight_of(p))
    return CutReport(per_part_expansion=tuple(phis), max_expansion=max(phis),
                     buffer_ratios=tuple(ratios), violations=())


# The code points str.isspace() accepts, which are those str.split() splits at.
_WHITESPACE = (*range(0x09, 0x0E), *range(0x1C, 0x21), 0x85, 0xA0, 0x1680,
               *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
_SPACE = np.zeros(0x3002, dtype=bool)   # by code point; the last entry stands for all above
_SPACE[list(_WHITESPACE)] = True
_PIECE = 1 << 14    # characters tokenized at a time; bounds the fields held as str


def _records(source, kind: str, form: str, arities: tuple, number: str):
    """(ids, numbers, line numbers) of the records of a line source, per piece.

    A record is a line with fields ('#' starts a comment).  Its ids are its
    first arities[-1] - 1 fields; its number is the last field of a line of
    arities[-1] fields, else 1.0.  source is a list of lines or a file path.
    A file's lines end at newlines only, so the line numbers are the file's
    own; the other Unicode line breaks (U+2028 and the like) are whitespace
    between fields, and so is a newline inside a listed line.

    The text goes in pieces of about _PIECE characters that end at line ends.
    Array passes over a piece's code points find where its fields start and
    each line's field count, and one str.split() gives the fields.  At the
    first line with a wrong field count or a bad number, the records before
    it are yielded and the next step raises its GraphError, so a consumer's
    checks of earlier lines come first.
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
        codes = np.frombuffer(piece.encode("utf-32-le", "surrogatepass"), np.uint32)
        space = _SPACE.take(np.minimum(codes, _SPACE.size - 1))
        newline = np.flatnonzero(codes == 10)
        hashes = np.flatnonzero(codes == 35)
        if hashes.size:        # blank each line from its first '#' to its end
            line = np.searchsorted(newline, hashes)
            first = np.flatnonzero(np.diff(line, prepend=-1))
            mark = np.zeros(codes.size + 1, dtype=np.int8)
            mark[hashes[first]] = 1
            mark[np.append(newline, codes.size)[line[first]]] = -1
            comment = np.cumsum(mark[:-1], dtype=np.int8).astype(bool)
            space |= comment
            codes = codes.copy()
            codes[comment] = 32
            piece = codes.tobytes().decode("utf-32-le", "surrogatepass")
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
    """A UTF-8 file's text with universal newlines; bytes that do not decode
    raise GraphError naming the file and the line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:     # exc.object holds the whole file's bytes
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

    uv = np.concatenate(ends).reshape(-1, 2)
    return Graph.build(len(index), np.column_stack((uv, np.concatenate(costs))),
                       weights=weights, labels=tuple(index))
