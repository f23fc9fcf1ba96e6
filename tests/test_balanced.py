"""Two-threshold cut, recursive balanced cut, and k-way bisection."""

import itertools

import numpy as np
import pytest

from bufpart import (Graph, balanced, buffered_balanced_cut, cheeger2_buffered, cut_cost,
                     kway_balanced)
from bufpart.balanced import _break_points
from conftest import (clique, columns, disjoint_cliques, planted, tiny_connected, weight,
                      weighted_er)


def two_triangles_bridge() -> Graph:
    edges = clique(3) + clique(3, offset=3) + [(2, 3, 1.0)]
    return Graph.build(6, *columns(edges))


def brute_tripartition(g: Graph, eps: float) -> float:
    """Best delta(S,T)/min(w(S),w(T)) over (S,T||B) with w(B) <= eps min side."""
    best = np.inf
    for assign in itertools.product(range(3), repeat=g.n):
        s = [v for v in range(g.n) if assign[v] == 0]
        t = [v for v in range(g.n) if assign[v] == 1]
        b = [v for v in range(g.n) if assign[v] == 2]
        if not s or not t:
            continue
        ws, wt, wb = weight(g, s), weight(g, t), weight(g, b)
        if wb > eps * min(ws, wt):
            continue
        best = min(best, cut_cost(g, s, t) / min(ws, wt))
    return best


class TestCheeger2:
    def test_two_disjoint_triangles(self):
        g = disjoint_cliques([3, 3])
        cut = cheeger2_buffered(g, 0.1)
        assert cut.phi == pytest.approx(0.0, abs=1e-9)
        assert cut.lambda2 == pytest.approx(0.0, abs=1e-10)

    def test_bridged_triangles_match_brute_force(self):
        g = two_triangles_bridge()
        eps = 0.05
        cut = cheeger2_buffered(g, eps)
        # min side weight is 7, one bridge edge crosses
        assert cut.phi == pytest.approx(1.0 / 7.0, abs=1e-9)
        assert cut.phi == pytest.approx(brute_tripartition(g, 2 * eps), abs=1e-9)

    def test_explicit_constant_bound(self):
        for seed in (1, 2, 3):
            g = weighted_er(24, 0.2, seed)
            for eps in (0.05, 0.1, 0.2):
                cut = cheeger2_buffered(g, eps)
                assert cut.phi <= 4.0 * (1.0 + 2.0 / eps) * cut.lambda2 + 1e-9

    def test_buffer_within_slack(self):
        for seed in (4, 5):
            g = weighted_er(20, 0.25, seed)
            for eps in (0.05, 0.2):
                cut = cheeger2_buffered(g, eps)
                assert cut.buffer_ratio <= 2.0 * eps + 1e-12

    def test_light_side_is_s(self):
        for seed in (6, 7, 8):
            g = tiny_connected(8, seed)
            cut = cheeger2_buffered(g, 0.1)
            ws, wt = weight(g, cut.label == 0), weight(g, cut.label == 2)
            assert ws <= g.total_weight / 2.0 + 1e-9
            assert ws <= wt + 1e-9

    def test_threshold_reconstructs_sets(self):
        g = weighted_er(18, 0.3, 9)
        cut = cheeger2_buffered(g, 0.1)
        usq = cut.side_vector ** 2
        assert np.array_equal(cut.label == 0, usq > cut.threshold)
        assert np.array_equal(cut.label == 2, usq <= cut.threshold / 1.1)

    def test_partition_is_tripartition(self):
        g = weighted_er(15, 0.3, 10)
        cut = cheeger2_buffered(g, 0.2)
        assert cut.label.shape == (g.n,) and set(cut.label.tolist()) <= {0, 1, 2}

    def test_tiny_graph_rejected(self):
        with pytest.raises(Exception):
            cheeger2_buffered(Graph.build(1, [], [], [], weights=[1.0]), 0.1)

    def test_eps_domain(self):
        g = tiny_connected(6, 11)
        entry_points = (cheeger2_buffered, buffered_balanced_cut,
                        lambda graph, eps: kway_balanced(graph, 1, eps))
        for cut in entry_points:
            for eps in (0.0, 0.25, 0.3):
                with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1/4\)"):
                    cut(g, eps)


def test_threshold_gap_inequality_fuzz():
    # a^2 - (1+eps) b^2 <= (1 + 1/eps)(a-b)^2 for a million random triples
    rng = np.random.default_rng(12)
    a = rng.normal(scale=3.0, size=1_000_000)
    b = rng.normal(scale=3.0, size=1_000_000)
    eps = rng.uniform(1e-3, 5.0, size=1_000_000)
    lhs = a * a - (1.0 + eps) * b * b
    rhs = (1.0 + 1.0 / eps) * (a - b) ** 2
    assert np.all(lhs <= rhs + 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_edge_break_points_equal_the_searches_of_their_endpoints(seed):
    # usq values repeat, and with eps = 1 a value doubled is often another
    # value, so break points of T and S coincide.
    rng = np.random.default_rng(seed)
    g = weighted_er(40, 0.2, seed)
    eps = 1.0 if seed % 2 else 0.1
    usq = rng.choice([0.0, 0.25, 0.5, 1.0, 1.1, 2.0, 4.0], g.n)
    thresholds = np.unique(np.concatenate([usq, (1.0 + eps) * usq]))
    tq = thresholds / (1.0 + eps)
    s_end, t_start, lo, hi = _break_points(g, usq, thresholds, tq)
    ux, uy = usq[g.edge_u], usq[g.edge_v]
    assert np.array_equal(s_end, np.searchsorted(thresholds, usq, "left"))
    assert np.array_equal(t_start, np.searchsorted(tq, usq, "left"))
    assert np.array_equal(lo, np.searchsorted(tq, np.minimum(ux, uy), "left"))
    assert np.array_equal(hi, np.searchsorted(thresholds, np.maximum(ux, uy), "left"))


class TestBalancedCut:
    def test_single_level_when_first_cut_is_big(self):
        g = disjoint_cliques([5, 5])
        res = buffered_balanced_cut(g, 0.1)
        assert res.balanced
        assert len(res.per_level_lambda2) == 1

    def test_balance_and_buffer_postconditions(self):
        for seed in (13, 14, 15):
            g, _ = planted([30, 30], 0.3, 0.02, seed)
            res = buffered_balanced_cut(g, 0.2)
            total = g.total_weight
            wl, wb, wr = (weight(g, res.label == j) for j in range(3))
            assert res.balanced
            assert total / 4 - 1e-9 <= wl <= 3 * total / 4 + 1e-9
            assert total / 4 - 1e-9 <= wr <= 3 * total / 4 + 1e-9
            assert wb <= 3 * 0.2 * min(wl, wr) + 1e-9

    def test_levels_are_disjoint_and_cover(self):
        g, _ = planted([25, 25], 0.25, 0.02, 16)
        res = buffered_balanced_cut(g, 0.15)
        assert res.label.shape == (g.n,) and set(res.label.tolist()) <= {0, 1, 2}

    def test_per_level_guarantee(self):
        g, _ = planted([20, 20], 0.3, 0.03, 17)
        res = buffered_balanced_cut(g, 0.2)
        # each level ran the two-threshold cut at eps/2
        for lam, phi in zip(res.per_level_lambda2, res.per_level_phi):
            assert phi <= 4.0 * (1.0 + 2.0 / 0.1) * lam + 1e-9

    def test_planted_cut_recovered(self):
        hits = 0
        for seed in range(5):
            g, labels = planted([40, 40], 0.25, 0.01, 100 + seed)
            planted_cut = cut_cost(g, np.flatnonzero(labels == 0),
                                   np.flatnonzero(labels == 1))
            res = buffered_balanced_cut(g, 0.2)
            if res.cut_value <= 10.0 * planted_cut:
                hits += 1
        assert hits >= 4


def heavy_vertex_path(scale: float = 1.0) -> Graph:
    # one vertex holds 90% of the weight: no cut can balance
    return Graph.build(4, [0, 1, 2], [1, 2, 3], [scale] * 3,
                       weights=[90.0 * scale, scale, scale, scale])


class TestBalancedCutDegenerate:
    def test_heavy_vertex_reports_best_effort(self):
        # the result must say so instead of raising, bottoming out first
        res = buffered_balanced_cut(heavy_vertex_path(), 0.2)
        assert not res.balanced
        assert res.violations == (
            "recursion bottomed out with 1 active vertices before reaching the balance target",
            "w(L)=3.0 outside [23.25, 69.75]",
            "w(R)=90.0 outside [23.25, 69.75]")

    def test_heavy_vertex_fails_at_any_weight_scale(self):
        # The balance slacks are relative to w(V): at w(V) = 9.3e-11 an absolute
        # 1e-9 slack would pass both sides and report the cut balanced.
        res = buffered_balanced_cut(heavy_vertex_path(1e-12), 0.2)
        assert not res.balanced
        assert len(res.violations) == 3

    def test_heavy_vertex_kway_keeps_the_unsplittable_branch(self):
        res = kway_balanced(heavy_vertex_path(), 3, 0.2)
        assert res.violations == ("branch with 1 vertices could not host 2 parts",)
        assert res.label.tolist() == [0, 2, 2, 2]


class TestKwayBalanced:
    def test_k1_identity(self):
        g = tiny_connected(7, 18)
        res = kway_balanced(g, 1, 0.1)
        assert res.label.tolist() == [0] * g.n
        assert res.crossing_cost == 0.0

    def test_equal_cliques_zero_crossing(self):
        g = disjoint_cliques([8, 8, 8, 8])
        res = kway_balanced(g, 4, 0.1)
        assert res.crossing_cost == pytest.approx(0.0)
        assert np.bincount(res.label).tolist() == [8, 0, 8, 0, 8, 0, 8]

    def test_weight_limit(self):
        for seed in (19, 20):
            g = weighted_er(48, 0.15, seed)
            for k in (4, 8):
                res = kway_balanced(g, k, 0.2)
                assert max(res.part_weights) <= 6.0 * g.total_weight / k + 1e-9

    def test_parts_and_buffer_tile_v(self):
        g = weighted_er(30, 0.2, 21)
        res = kway_balanced(g, 4, 0.15)
        parts = range(0, 2 * len(res.part_weights), 2)
        assert res.label.shape == (g.n,) and set(res.label.tolist()) <= {1, *parts}


def test_kway_subgraphs_are_cut_from_the_caller_graph(monkeypatch):
    # Each Graph.subgraph call keeps fewer vertices than its graph has (no
    # identity copies) and is made on the graph its caller cut: a level's
    # graph keeping that level's T, or a branch's graph keeping one of its
    # sides (so a grandchild branch is not cut from the root).
    g, _ = planted([3, 5, 24, 24, 10], 0.5, 0.02, seed=22)    # small blocks: 2+ levels
    calls, levels, branches = [], [], []
    real_subgraph = Graph.subgraph
    real_cut, real_balanced = balanced.cheeger2_buffered, balanced.buffered_balanced_cut

    def subgraph(self, vertices):
        child, keep = real_subgraph(self, vertices)
        calls.append((self, keep))
        return child, keep

    def cut(sub, eps):
        levels.append((sub, real_cut(sub, eps)))
        return levels[-1][1]

    def balanced_cut(sub, eps):
        branches.append((sub, real_balanced(sub, eps)))
        return branches[-1][1]

    monkeypatch.setattr(Graph, "subgraph", subgraph)
    monkeypatch.setattr(balanced, "cheeger2_buffered", cut)
    monkeypatch.setattr(balanced, "buffered_balanced_cut", balanced_cut)
    res = kway_balanced(g, 5, 0.1)
    assert len(res.part_weights) == 5
    for parent, keep in calls:
        assert keep.size < parent.n
        assert (any(sub is parent and np.array_equal(np.flatnonzero(c.label == 2), keep)
                    for sub, c in levels)
                or any(sub is parent and (np.array_equal(np.flatnonzero(r.label == 0), keep)
                                          or np.array_equal(np.flatnonzero(r.label == 2), keep))
                       for sub, r in branches))
    # one call per branch below the root and per level below a branch's first
    assert len(calls) == len(levels) - 1
    assert len(levels) > len(branches) >= 4
