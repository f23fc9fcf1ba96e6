"""Shared graph builders for the test suite.  Everything is seeded."""

from __future__ import annotations

import numpy as np
import pytest

from bufpart import Graph


def triangle() -> Graph:
    return Graph.build(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def k4() -> Graph:
    edges = [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)]
    return Graph.build(4, edges)


def path(costs) -> Graph:
    edges = [(i, i + 1, c) for i, c in enumerate(costs)]
    return Graph.build(len(costs) + 1, edges)


def cycle(n: int) -> Graph:
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    return Graph.build(n, edges)


def clique(n: int, offset: int = 0, cost: float = 1.0):
    return [(offset + u, offset + v, cost) for u in range(n) for v in range(u + 1, n)]


def disjoint_cliques(sizes) -> Graph:
    edges = []
    start = 0
    for s in sizes:
        edges.extend(clique(s, start))
        start += s
    return Graph.build(start, edges)


def clique_labels(sizes) -> np.ndarray:
    return np.repeat(np.arange(len(sizes)), sizes)


def planted(sizes, p_in: float, p_out: float, seed: int,
            weights=None) -> tuple[Graph, np.ndarray]:
    """Planted-partition graph; retries isolated vertices away by reseeding."""
    rng = np.random.default_rng(seed)
    labels = clique_labels(sizes)
    n = int(labels.size)
    for _ in range(50):
        edges = []
        touched = np.zeros(n, dtype=bool)
        for u in range(n):
            for v in range(u + 1, n):
                p = p_in if labels[u] == labels[v] else p_out
                if rng.random() < p:
                    edges.append((u, v, 1.0))
                    touched[u] = touched[v] = True
        if touched.all():
            return Graph.build(n, edges, weights=weights), labels
    raise RuntimeError("could not build a planted graph without isolated vertices")


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Circulant d-regular graph randomized by double-edge swaps."""
    assert d % 2 == 0 and d < n
    rng = np.random.default_rng(seed)
    edges = set()
    for shift in range(1, d // 2 + 1):
        for u in range(n):
            v = (u + shift) % n
            edges.add((min(u, v), max(u, v)))
    edge_list = sorted(edges)
    for _ in range(20 * len(edge_list)):
        i, j = rng.integers(0, len(edge_list), size=2)
        (a, b), (c, e) = edge_list[i], edge_list[j]
        if len({a, b, c, e}) < 4:
            continue
        new1 = (min(a, c), max(a, c))
        new2 = (min(b, e), max(b, e))
        if new1 in edges or new2 in edges:
            continue
        edges.discard((a, b))
        edges.discard((c, e))
        edges.add(new1)
        edges.add(new2)
        edge_list[i], edge_list[j] = new1, new2
    return Graph.build(n, [(u, v, 1.0) for u, v in sorted(edges)])


def weighted_er(n: int, p: float, seed: int) -> Graph:
    """Connected-ish ER graph with random costs and random vertex weights."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        edges = []
        touched = np.zeros(n, dtype=bool)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v, float(rng.uniform(0.5, 2.0))))
                    touched[u] = touched[v] = True
        if touched.all():
            weights = rng.uniform(0.5, 3.0, size=n)
            return Graph.build(n, edges, weights=weights)
    raise RuntimeError("could not build a weighted ER graph without isolated vertices")


def _connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v, _ in edges:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(n)}) == 1


def tiny_connected(n: int, seed: int, default_weights: bool = True) -> Graph:
    """Random connected graph on n <= 10 vertices with unit costs."""
    rng = np.random.default_rng(seed)
    while True:
        edges = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.45]
        if edges and _connected(n, edges):
            return Graph.build(n, edges)


def tiny_connected_suite(count: int, sizes=(5, 6, 7, 8), seed0: int = 100):
    graphs = []
    s = seed0
    while len(graphs) < count:
        n = sizes[len(graphs) % len(sizes)]
        graphs.append(tiny_connected(n, s))
        s += 1
    return graphs


def ring_with_chords(n: int, seed: int) -> np.ndarray:
    """(m, 3) unit-cost edges of one connected graph: a ring plus 3n random chords."""
    rng = np.random.default_rng(seed)
    u = np.concatenate([np.arange(n), rng.integers(0, n, 3 * n)])
    v = np.concatenate([(np.arange(n) + 1) % n, rng.integers(0, n, 3 * n)])
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = np.unique((lo * n + hi)[lo != hi])
    return np.column_stack([keys // n, keys % n, np.ones(keys.size)])


def four_component_union() -> tuple[np.ndarray, np.ndarray]:
    """Two copies of a 2-component 1200-vertex graph, ids shuffled: (edges, component).

    Each 600-vertex component is two ring-plus-chords halves joined by six edges, so
    its Fiedler value (~0.004) sits well below the rest of its spectrum.  Components
    are numbered 0-3 in the order they were built, not by smallest vertex id."""
    def component(seed):
        bridges = np.column_stack([np.arange(0, 300, 50), np.arange(300, 600, 50),
                                   np.ones(6)])
        return np.vstack([ring_with_chords(300, seed),
                          ring_with_chords(300, seed + 1) + [300, 300, 0.0], bridges])

    pair = np.vstack([component(21), component(23) + [600, 600, 0.0]])
    both = np.vstack([pair, pair + [1200, 1200, 0.0]])
    ids = np.random.default_rng(8).permutation(2400)
    edges = np.column_stack([ids[both[:, 0].astype(np.int64)],
                             ids[both[:, 1].astype(np.int64)], both[:, 2]])
    component_of = np.empty(2400, dtype=np.int64)
    component_of[ids] = np.arange(2400) // 600
    return edges, component_of


def planted_blocks(n: int, blocks: int, seed: int, pairs: int = 15,
                   weighted: bool = False) -> Graph:
    """Planted graph on the residue classes mod `blocks`: pairs*n random pairs, 95% of
    them inside a class.  Weighted: costs in [0.5, 2), weights 1-2x the incident cost."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=pairs * n)
    v = np.where(rng.random(u.size) < 0.95,
                 rng.integers(0, n // blocks, u.size) * blocks + u % blocks,
                 rng.integers(0, n, u.size))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = np.unique((lo * n + hi)[lo != hi])
    cost = rng.uniform(0.5, 2.0, keys.size) if weighted else np.ones(keys.size)
    edges = np.column_stack([keys // n, keys % n, cost])
    g = Graph.build(n, edges)
    if weighted:
        g = Graph.build(n, edges, weights=g.incident_cost() * rng.uniform(1.0, 2.0, n))
    return g


def laplacian_matrix(g: Graph) -> np.ndarray:
    """Test-only oracle: the n x n normalized Laplacian D_w^{-1/2} (D_c - C) D_w^{-1/2},
    built from the edge arrays alone."""
    C = np.zeros((g.n, g.n))
    C[g.edge_u, g.edge_v] = g.edge_cost
    C[g.edge_v, g.edge_u] = g.edge_cost
    s = 1.0 / np.sqrt(g.weights)
    return s[:, None] * (np.diag(C.sum(axis=1)) - C) * s[None, :]


def lapack_spectrum(g: Graph, k: int) -> np.ndarray:
    """The bottom k eigenvalues of laplacian_matrix(g), by LAPACK's dense eigh."""
    return np.linalg.eigh(laplacian_matrix(g))[0][:k]


def small_solver_suite():
    """Graphs with n <= 64 used for the eigensolver oracle comparison."""
    suite = [
        ("k4", k4()),
        ("triangle", triangle()),
        ("cycle8", cycle(8)),
        ("cycle16", cycle(16)),
        ("path5", path([0.5, 2.0, 1.0, 1.5])),
        ("two_triangles", disjoint_cliques([3, 3])),
        ("three_cliques", disjoint_cliques([4, 5, 6])),
        ("regular16", random_regular(16, 4, 3)),
        ("regular32", random_regular(32, 6, 4)),
        ("regular64", random_regular(64, 8, 5)),
        ("weighted20", weighted_er(20, 0.3, 6)),
        ("weighted48", weighted_er(48, 0.15, 7)),
        ("tiny7", tiny_connected(7, 8)),
    ]
    return suite


@pytest.fixture(scope="session")
def planted4() -> tuple[Graph, np.ndarray]:
    return planted([50, 50, 50, 50], 0.3, 0.01, seed=11)


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
