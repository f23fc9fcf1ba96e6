"""Seeded, vectorized input generators for the benchmark workloads.

Every graph is a hierarchical planted-block graph: a ring through each block
(so no vertex is isolated and every block is connected), random intra-block
pairs up to a target mean degree, and sparser random pairs within each
coarser group of blocks.  Duplicate pairs and self-loops are dropped with one
``np.unique`` over packed edge keys, so the cost is O(m log m) numpy work with
no Python loop over vertices or edges.

Files are written in the formats the CLI reads.  The arrays handed back to
the checks are parsed from the written text, so they hold exactly the floats
the program will read.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class GraphFiles:
    """One generated graph: files for the CLI and arrays for the checks."""

    edges_path: Path
    weights_path: Path | None
    names: list          # external vertex id of each internal index
    edge_u: np.ndarray   # internal indices, in file order
    edge_v: np.ndarray
    edge_cost: np.ndarray
    weights: np.ndarray  # vertex weights the program will use

    @property
    def n(self) -> int:
        return len(self.names)


def planted_edges(rng: np.random.Generator, levels) -> tuple[np.ndarray, np.ndarray]:
    """Undirected simple edges (u < v) of a hierarchical planted-block graph.

    ``levels`` lists ``(unit sizes, mean degree)`` from the finest blocks to
    the coarsest groups; each level tiles the same vertex range with
    contiguous units.  Each unit gets uniform random pairs up to the level's
    mean degree, and each finest block also a ring through a random order.
    """
    us, vs = [], []
    for depth, (sizes, degree) in enumerate(levels):
        start = 0
        for size in sizes:
            count = int(round(size * degree / 2.0))
            if depth == 0:
                ring = start + rng.permutation(size)
                us.append(ring)
                vs.append(np.roll(ring, 1))
                count = max(count - size, 0)
            us.append(start + rng.integers(0, size, count))
            vs.append(start + rng.integers(0, size, count))
            start += size
    n = start
    u = np.concatenate(us)
    v = np.concatenate(vs)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = np.unique(lo[lo != hi] * n + hi[lo != hi])
    return keys // n, keys % n


def _incident(n: int, u: np.ndarray, v: np.ndarray, cost: np.ndarray) -> np.ndarray:
    return np.bincount(u, cost, minlength=n) + np.bincount(v, cost, minlength=n)


def write_graph(directory: Path, stem: str, rng: np.random.Generator, levels,
                string_ids: bool = False,
                costs: bool = False, weight_file: bool = False) -> GraphFiles:
    """Generate a planted graph and write it as an edge list (plus weights).

    Vertex ids are shuffled and edges written in random order and random
    orientation, so ingest sees ids in no particular order.  With
    ``string_ids`` ids are strings like ``v03a7f``; with ``costs`` each line
    carries a cost in [0.5, 2); with ``weight_file`` every vertex gets an
    explicit weight of 1 to 2 times its incident cost.
    """
    lo, hi = planted_edges(rng, levels)
    n = int(np.sum(levels[0][0]))
    m = lo.size
    external = rng.permutation(n)
    order = rng.permutation(m)
    flip = rng.random(m) < 0.5
    a = np.where(flip, hi, lo)[order]
    b = np.where(flip, lo, hi)[order]
    if string_ids:
        id_text = np.array([f"v{x:05x}" for x in external.tolist()])
    else:
        id_text = external.astype(str)
    cols = [id_text[a], id_text[b]]
    cost_text = None
    if costs:
        cost_text = np.char.mod("%.4f", rng.uniform(0.5, 2.0, m))
        cols.append(cost_text)
    lines = cols[0]
    for col in cols[1:]:
        lines = np.char.add(np.char.add(lines, " "), col)
    edges_path = directory / f"{stem}.edges"
    edges_path.write_text("\n".join(lines.tolist()) + "\n", encoding="utf-8")

    # The program numbers vertices by first appearance in the edge file.
    first = np.stack([a, b], axis=1).ravel()
    _, pos = np.unique(first, return_index=True)
    appear = first[np.sort(pos)]                 # generator ids in appearance order
    internal = np.empty(n, dtype=np.int64)
    internal[appear] = np.arange(n)
    edge_u, edge_v = internal[a], internal[b]
    edge_cost = cost_text.astype(np.float64) if costs else np.ones(m)
    names = id_text[appear].tolist()

    weights_path = None
    weights = _incident(n, edge_u, edge_v, edge_cost)
    if weight_file:
        scale = rng.uniform(1.0, 2.0, n)
        w_text = np.char.mod("%.4f", weights * scale)
        weights = w_text.astype(np.float64)
        weights_path = directory / f"{stem}.weights"
        w_lines = np.char.add(np.char.add(np.asarray(names), " "), w_text)
        weights_path.write_text("\n".join(w_lines.tolist()) + "\n", encoding="utf-8")
    return GraphFiles(edges_path=edges_path, weights_path=weights_path, names=names,
                      edge_u=edge_u, edge_v=edge_v, edge_cost=edge_cost, weights=weights)
