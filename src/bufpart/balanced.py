"""Two-threshold buffered Cheeger cut and the recursive balanced variants.

cheeger2_buffered() thresholds the second eigenvector twice: with u the
infinity-normalized positive or negative half of the shifted Fiedler vector,

    S = {u(i)^2 > t}      T = {u(i)^2 <= t/(1+eps)}      B = the band between

and the random threshold of the probabilistic argument is replaced by a
search over every break point {u(i)^2, (1+eps) u(i)^2}; among thresholds with
w(B) <= 2 eps w(S) the one minimizing (delta(S,T)/w(S), t) wins.  Since a
feasible threshold meeting delta(S,T) <= 2(1+1/eps) lambda_2 w(S) exists by
the two-variable averaging argument, the winner is at least as good, so
phi <= 4(1+2/eps) lambda_2 holds unconditionally.

The search is the shared one of graph.py (the sweep-cut evaluation of Chung,
Spectral Graph Theory, and Andersen-Chung-Lang): S, B and the S-T crossing of
each edge hold on one interval of sorted thresholds, so graph.interval_sums
scores every threshold and prunes; graph.least_exact visits the rest by
ascending sweep (phi, t) and the exact masked sums pick the winner.

buffered_balanced_cut() stacks such cuts until the accumulated small sides
reach a quarter of the total weight (each level runs at eps/2 so its buffer
obeys w(B_t) <= eps w(L_t)); kway_balanced() recursively bisects, giving the
heavier side the larger half of the part budget.  Each level cuts the subgraph
the previous level's T induces, and each split branch the subgraph its side
induces in its parent branch; level 1 and the root branch cut g itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import (UNIT, Graph, PartitionError, _group_sums, cut_cost_masks, interval_sums,
                    least_exact)
from .spectral import eigenbasis, normalized_laplacian

__all__ = [
    "BufferedCut",
    "BalancedCutResult",
    "KwayBalancedResult",
    "cheeger2_buffered",
    "buffered_balanced_cut",
    "kway_balanced",
]


BALANCE_FRACTION = 0.25     # balanced cut: w(L) and w(R) lie in [W/4, 3W/4]
PART_WEIGHT_FACTOR = 6.0    # (6,k)-balanced partition: every part weighs <= 6 w(V)/k


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 0.25:
        raise ValueError(f"epsilon must lie in (0, 1/4), got {epsilon}")


@dataclass(frozen=True)
class BufferedCut:
    s: np.ndarray           # the light side, w(S) <= w(T)
    t: np.ndarray
    b: np.ndarray
    phi: float              # delta(S,T) / min(w(S), w(T))
    buffer_ratio: float     # w(B) / min(w(S), w(T))
    cut_value: float        # delta(S,T)
    lambda2: float
    threshold: float
    side_vector: np.ndarray  # the normalized thresholding vector u; bench/layers.py reads it


@dataclass(frozen=True)
class BalancedCutResult:
    left: np.ndarray
    right: np.ndarray
    buffer: np.ndarray
    cut_value: float
    balanced: bool
    violations: tuple
    per_level_lambda2: tuple  # bench/layers.py counts the levels by it
    per_level_phi: tuple
    per_level_cuts: tuple   # BufferedCut per recursion level, in global ids


@dataclass(frozen=True)
class KwayBalancedResult:
    parts: tuple
    buffer: np.ndarray
    crossing_cost: float
    max_part_weight: float
    buffer_weight: float
    per_level_lambda2: tuple
    violations: tuple


def _weighted_median_shift(v: np.ndarray, w: np.ndarray) -> float:
    """Smallest coordinate value z with w({i : v(i) > z}) <= w(V)/2."""
    vals = np.unique(v)
    bucket_w = np.zeros(vals.size)
    np.add.at(bucket_w, np.searchsorted(vals, v), w)
    above = float(w.sum()) - np.cumsum(bucket_w)   # strict-above weight at each z
    half = 0.5 * float(w.sum())
    return float(vals[int(np.argmax(above <= half + 1e-12 * half))])


def _break_points(g: Graph, usq: np.ndarray, thresholds: np.ndarray, tq: np.ndarray) -> tuple:
    """(s_end, t_start, lo, hi): vertex i is in S at the thresholds j < s_end[i],
    in T at j >= t_start[i] and in B between; edge e crosses S-T at j in [lo[e], hi[e]).

    Edge (x, y) = (min, max) of its endpoints' usq crosses exactly when
    x <= tq[j] and y > thresholds[j].  Both searches are monotone in the
    value, so its break points are gathered from its endpoints' own.
    """
    s_end = np.searchsorted(thresholds, usq, "left")
    t_start = np.searchsorted(tq, usq, "left")
    lo = np.minimum(t_start[g.edge_u], t_start[g.edge_v])
    hi = np.maximum(s_end[g.edge_u], s_end[g.edge_v])
    return s_end, t_start, lo, hi


def _two_threshold_cut(g: Graph, usq: np.ndarray, epsilon: float) -> tuple:
    """The feasible break point t of least (delta(S,T)/w(S), t), with its sets and sums.

    Returns (t, s_mask, t_mask, b_mask, cut, ws, wb) where cut, ws and wb are
    the exact masked sums cut_cost_masks(g, S, T), w(S) and w(B).
    """
    w = g.weights
    thresholds = np.unique(np.concatenate([usq, (1.0 + epsilon) * usq]))
    tq = thresholds / (1.0 + epsilon)      # the T limit, same expression as the masks
    count = thresholds.size
    s_end, t_start, lo, hi = _break_points(g, usq, thresholds, tq)
    ws_a, tol_s = interval_sums(np.zeros_like(s_end), s_end, w, count)
    wb_a, tol_b = interval_sums(s_end, t_start, w, count)
    cut_a, tol_c = interval_sums(lo, hi, g.edge_cost, count)
    # Drop only thresholds whose S or T is empty, or whose buffer exceeds
    # 2 eps w(S) even after both error bounds (the 1 - 4u and 1 + 4u factors
    # absorb the rounding of this comparison itself).
    j = np.arange(count)
    feasible = (j < s_end.max()) & (j >= t_start.min()) & ~(
        (wb_a - tol_b) * (1.0 - 4.0 * UNIT)
        > 2.0 * epsilon * (ws_a + tol_s) * (1.0 + 4.0 * UNIT))
    cand = np.flatnonzero(feasible)
    # phi_lb <= cut/ws in exact arithmetic for the exact sums; (1 - 8u) absorbs
    # the rounding of these four operations, and phi >= 0 always.
    phi_lb = np.maximum(
        (cut_a[cand] - tol_c) / (ws_a[cand] + tol_s) * (1.0 - 8.0 * UNIT), 0.0)
    phi_a = np.divide(cut_a[cand], ws_a[cand], out=np.full(cand.size, np.inf),
                      where=ws_a[cand] > 0)

    def evaluate(i: int):
        t = float(thresholds[cand[i]])
        s_mask = usq > t
        t_mask = usq <= t / (1.0 + epsilon)
        b_mask = ~s_mask & ~t_mask
        ws = float(w[s_mask].sum())
        wb = float(w[b_mask].sum()) if b_mask.any() else 0.0
        if wb > 2.0 * epsilon * ws:
            return None
        cut = cut_cost_masks(g, s_mask, t_mask)
        return (cut / ws, t), (t, s_mask, t_mask, b_mask, cut, ws, wb)

    best = least_exact(np.lexsort((thresholds[cand], phi_a)), phi_lb, evaluate)
    if best is None:
        raise PartitionError("no feasible two-threshold cut found (implementation bug)")
    return best


def cheeger2_buffered(g: Graph, epsilon: float) -> BufferedCut:
    """Buffered two-way cut with phi <= 4(1+2/eps) lambda_2 and w(B) <= 2 eps w(S)."""
    if g.n < 2:
        raise PartitionError("a two-way cut needs at least two vertices")
    _check_epsilon(epsilon)
    w = g.weights
    basis = eigenbasis(normalized_laplacian(g), 2)
    lam = float(basis.eigenvalues[1])
    y = basis.eigenvectors[:, 1]
    v = y / np.sqrt(w)

    z = _weighted_median_shift(v, w)
    shifted = v - z
    v_plus = np.where(v >= z, shifted, 0.0)
    v_minus = np.where(v < z, shifted, 0.0)

    def rayleigh(u: np.ndarray) -> float:
        d = u[g.edge_u] - u[g.edge_v]
        quad = float((g.edge_cost * d * d).sum())
        norm = float((w * u * u).sum())
        return quad / norm if norm > 0 else math.inf

    candidates = [u for u in (v_plus, v_minus) if float(np.abs(u).max()) > 0]
    quotients = [rayleigh(u) for u in candidates]
    pick = int(np.argmin(quotients))
    u = np.abs(candidates[pick])
    u = u / float(u.max())
    usq = u * u

    t, s_mask, t_mask, b_mask, cut, ws, wb = _two_threshold_cut(g, usq, epsilon)

    wt = float(w[t_mask].sum())
    if ws > wt + 1e-9 * (ws + wt):
        raise AssertionError("median split invariant failed: w(S) > w(T)")
    min_side = min(ws, wt)
    return BufferedCut(
        s=np.flatnonzero(s_mask), t=np.flatnonzero(t_mask), b=np.flatnonzero(b_mask),
        phi=cut / min_side, buffer_ratio=wb / min_side, cut_value=cut,
        lambda2=lam, threshold=t, side_vector=u)


def buffered_balanced_cut(g: Graph, epsilon: float) -> BalancedCutResult:
    """Stacked buffered cuts giving w(L), w(R) in [W/4, 3W/4], w(B) <= 3 eps min side."""
    _check_epsilon(epsilon)
    if g.n < 2:
        raise PartitionError("balanced cut needs at least two vertices")
    total = g.total_weight
    sub, ids = g, np.arange(g.n)       # this level's graph; ids[i] is its vertex i in g
    levels: list[BufferedCut] = []     # each level's cut, in g's ids
    left_weight = 0.0
    while True:
        # eps/2 per level: the enumerated cut guarantees w(B_t) <= 2(eps/2) w(L_t).
        cut = cheeger2_buffered(sub, epsilon / 2.0)
        levels.append(replace(cut, s=ids[cut.s], t=ids[cut.t], b=ids[cut.b]))
        left_weight += g.weight_of(levels[-1].s)
        if left_weight >= BALANCE_FRACTION * total or cut.t.size < 2:
            break
        sub, keep = sub.subgraph(cut.t)
        ids = ids[keep]
    left_idx = np.concatenate([c.s for c in levels])
    buf_idx = np.concatenate([c.b for c in levels])
    left_mask = np.zeros(g.n, dtype=bool)
    left_mask[left_idx] = True
    buf_mask = np.zeros(g.n, dtype=bool)
    buf_mask[buf_idx] = True
    right_mask = ~left_mask & ~buf_mask
    right_idx = np.flatnonzero(right_mask)
    wl, wr = g.weight_of(left_idx), g.weight_of(right_idx)
    wb = g.weight_of(buf_idx)
    cut_lr = cut_cost_masks(g, left_mask, right_mask)
    violations: list[str] = []
    lo, hi = BALANCE_FRACTION * total, (1.0 - BALANCE_FRACTION) * total
    slack = 1e-9 * total        # rounding slack, relative to w(V) like the bounds
    if not (lo - slack <= wl <= hi + slack):
        violations.append(f"w(L)={wl!r} outside [{lo!r}, {hi!r}]")
    if not (lo - slack <= wr <= hi + slack):
        violations.append(f"w(R)={wr!r} outside [{lo!r}, {hi!r}]")
    if wl > 0 and wr > 0 and wb > 3.0 * epsilon * min(wl, wr) + 1e-12 * total:
        violations.append(f"w(B)={wb!r} exceeds 3 eps min(w(L), w(R))")
    balanced = not violations
    if not balanced and left_weight < BALANCE_FRACTION * total:
        violations.insert(0, f"recursion bottomed out with {levels[-1].t.size} active "
                             f"vertices before reaching the balance target")
    return BalancedCutResult(
        left=left_idx, right=right_idx, buffer=buf_idx, cut_value=cut_lr,
        balanced=balanced, violations=tuple(violations),
        per_level_lambda2=tuple(c.lambda2 for c in levels),
        per_level_phi=tuple(c.phi for c in levels), per_level_cuts=tuple(levels))


def kway_balanced(g: Graph, k: int, epsilon: float) -> KwayBalancedResult:
    """Recursive bisection into k parts with one shared buffer pool."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    _check_epsilon(epsilon)
    total = g.total_weight
    parts: list[np.ndarray] = []
    buffer: list[np.ndarray] = []
    lambdas: list[float] = []
    violations: list[str] = []

    def recurse(sub: Graph, ids: np.ndarray, side: np.ndarray, k_here: int) -> None:
        """Split side, vertices of sub (ids[i] is vertex i in g), into k_here parts.

        A leaf keeps side's order; a split cuts the subgraph side induces in sub
        (sub itself at the root), whose ids come back sorted.
        """
        if k_here <= 1 or side.size < 2:
            if k_here > 1:
                violations.append(
                    f"branch with {side.size} vertices could not host {k_here} parts")
            parts.append(ids[side])
            return
        if side.size < sub.n:
            sub, keep = sub.subgraph(side)
            ids = ids[keep]
        res = buffered_balanced_cut(sub, epsilon)
        lambdas.extend(res.per_level_lambda2)
        buffer.append(ids[res.buffer])
        wl, wr = g.weight_of(ids[res.left]), g.weight_of(ids[res.right])
        big, small = (res.left, res.right) if wl >= wr else (res.right, res.left)
        # Part budget proportional to realized side weights, heavier side
        # rounding up (equal weights reduce to ceil(k/2) / floor(k/2)).
        ratio = max(wl, wr) / (wl + wr)
        k_big = min(max(math.floor(k_here * ratio + 0.5), 1), k_here - 1)
        recurse(sub, ids, big, k_big)
        recurse(sub, ids, small, k_here - k_big)

    recurse(g, np.arange(g.n), np.arange(g.n), k)
    buf_idx = np.concatenate(buffer) if buffer else np.empty(0, dtype=np.int64)
    part_w = [g.weight_of(p) for p in parts]
    limit = PART_WEIGHT_FACTOR * total / k
    for i, pw in enumerate(part_w):
        if pw > limit + 1e-9 * total:
            violations.append(f"part {i} weight {pw!r} exceeds 6 w(V)/k = {limit!r}")
    return KwayBalancedResult(
        parts=tuple(parts), buffer=buf_idx, crossing_cost=_crossing_cost(g, parts),
        max_part_weight=max(part_w) if part_w else 0.0,
        buffer_weight=g.weight_of(buf_idx),
        per_level_lambda2=tuple(lambdas), violations=tuple(violations))


def _crossing_cost(g: Graph, parts: list) -> float:
    """Sum of cut_cost_masks(g, P_i, P_j) over part pairs i < j, added in (i, j) order.

    One labelled pass: an edge between parts i < j gets pair id i k + j, and
    graph._group_sums sums each pair's edges in edge order, as its masked sum does.
    """
    k = len(parts)
    label = np.full(g.n, -1, dtype=np.int64)
    for i, p in enumerate(parts):
        label[p] = i
    a, b = label[g.edge_u], label[g.edge_v]
    between = (a >= 0) & (b >= 0) & (a != b)
    crossing = 0.0
    for pair in _group_sums((np.minimum(a, b) * k + np.maximum(a, b))[between],
                            g.edge_cost[between], k * k):
        crossing += pair
    return crossing
