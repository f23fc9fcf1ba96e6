"""Two-threshold buffered Cheeger cut and the recursive balanced variants.

cheeger2_buffered() thresholds the second eigenvector twice: with u the
infinity-normalized positive or negative half of the shifted Fiedler vector,

    S = {u(i)^2 > t}      T = {u(i)^2 <= t/(1+eps)}      B = the band between

and the random threshold of the probabilistic argument is replaced by exact
enumeration of the break points {u(i)^2, (1+eps) u(i)^2}; among thresholds
with w(B) <= 2 eps w(S) the one minimizing delta(S,T)/w(S) wins.  Since a
feasible threshold meeting delta(S,T) <= 2(1+1/eps) lambda_2 w(S) exists by
the two-variable averaging argument, the enumerated winner is at least as
good, so phi <= 4(1+2/eps) lambda_2 holds unconditionally.

buffered_balanced_cut() stacks such cuts until the accumulated small sides
reach a quarter of the total weight (each level runs at eps/2 so its buffer
obeys w(B_t) <= eps w(L_t)); kway_balanced() recursively bisects, giving the
heavier side the larger half of the part budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, PartitionError, cut_cost_masks
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
    side_vector: np.ndarray  # the normalized thresholding vector u


@dataclass(frozen=True)
class BalancedCutResult:
    left: np.ndarray
    right: np.ndarray
    buffer: np.ndarray
    cut_value: float
    balanced: bool
    violations: tuple
    per_level_lambda2: tuple
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
    good = [i for i, q in enumerate(quotients) if q <= lam * (1.0 + 1e-9) + 1e-12]
    pick = min(good, key=lambda i: quotients[i]) if good else int(np.argmin(quotients))
    u = np.abs(candidates[pick])
    u = u / float(u.max())
    usq = u * u

    thresholds = np.unique(np.concatenate([usq, (1.0 + epsilon) * usq]))
    best = None
    for t in thresholds:
        s_mask = usq > t
        if not s_mask.any():
            continue
        t_mask = usq <= t / (1.0 + epsilon)
        if not t_mask.any():
            continue
        b_mask = ~s_mask & ~t_mask
        ws = float(w[s_mask].sum())
        wb = float(w[b_mask].sum()) if b_mask.any() else 0.0
        if wb > 2.0 * epsilon * ws:
            continue
        cut = cut_cost_masks(g, s_mask, t_mask)
        key = (cut / ws, float(t))
        if best is None or key < best[0]:
            best = (key, float(t), s_mask, t_mask, b_mask, cut, ws, wb)
    if best is None:
        raise PartitionError("no feasible two-threshold cut found (implementation bug)")
    _, t, s_mask, t_mask, b_mask, cut, ws, wb = best

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
    active = np.arange(g.n)
    left: list[np.ndarray] = []
    buf: list[np.ndarray] = []
    lambdas: list[float] = []
    phis: list[float] = []
    levels: list[BufferedCut] = []
    violations: list[str] = []
    left_weight = 0.0
    while True:
        if active.size < 2:
            violations.append(
                f"recursion bottomed out with {active.size} active vertices before "
                f"reaching the balance target")
            break
        sub, ids = g.subgraph(active)
        # eps/2 per level: the enumerated cut guarantees w(B_t) <= 2(eps/2) w(L_t).
        cut = cheeger2_buffered(sub, epsilon / 2.0)
        lifted = BufferedCut(
            s=ids[cut.s], t=ids[cut.t], b=ids[cut.b], phi=cut.phi,
            buffer_ratio=cut.buffer_ratio, cut_value=cut.cut_value,
            lambda2=cut.lambda2, threshold=cut.threshold, side_vector=cut.side_vector)
        levels.append(lifted)
        lambdas.append(cut.lambda2)
        phis.append(cut.phi)
        left.append(lifted.s)
        buf.append(lifted.b)
        left_weight += g.weight_of(lifted.s)
        active = lifted.t
        if left_weight >= BALANCE_FRACTION * total:
            break
    left_idx = np.concatenate(left) if left else np.empty(0, dtype=np.int64)
    buf_idx = np.concatenate(buf) if buf else np.empty(0, dtype=np.int64)
    left_mask = np.zeros(g.n, dtype=bool)
    left_mask[left_idx] = True
    buf_mask = np.zeros(g.n, dtype=bool)
    buf_mask[buf_idx] = True
    right_mask = ~left_mask & ~buf_mask
    right_idx = np.flatnonzero(right_mask)
    wl, wr = g.weight_of(left_idx), g.weight_of(right_idx)
    wb = g.weight_of(buf_idx)
    cut_lr = cut_cost_masks(g, left_mask, right_mask)
    balanced = True
    lo, hi = BALANCE_FRACTION * total, (1.0 - BALANCE_FRACTION) * total
    if not (lo - 1e-9 <= wl <= hi + 1e-9):
        balanced = False
        violations.append(f"w(L)={wl!r} outside [{lo!r}, {hi!r}]")
    if not (lo - 1e-9 <= wr <= hi + 1e-9):
        balanced = False
        violations.append(f"w(R)={wr!r} outside [{lo!r}, {hi!r}]")
    if wl > 0 and wr > 0 and wb > 3.0 * epsilon * min(wl, wr) + 1e-12:
        balanced = False
        violations.append(f"w(B)={wb!r} exceeds 3 eps min(w(L), w(R))")
    if balanced:
        violations = [v for v in violations if "bottomed out" not in v]
    return BalancedCutResult(
        left=left_idx, right=right_idx, buffer=buf_idx, cut_value=cut_lr,
        balanced=balanced, violations=tuple(violations),
        per_level_lambda2=tuple(lambdas), per_level_phi=tuple(phis),
        per_level_cuts=tuple(levels))


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

    def recurse(vertices: np.ndarray, k_here: int) -> None:
        if k_here <= 1 or vertices.size < 2:
            if k_here > 1:
                violations.append(
                    f"branch with {vertices.size} vertices could not host {k_here} parts")
            parts.append(vertices)
            return
        sub, ids = g.subgraph(vertices)
        res = buffered_balanced_cut(sub, epsilon)
        lambdas.extend(res.per_level_lambda2)
        if res.left.size == 0 or res.right.size == 0:
            violations.append("degenerate split; keeping branch whole")
            parts.append(vertices)
            return
        buffer.append(ids[res.buffer])
        side_l, side_r = ids[res.left], ids[res.right]
        wl, wr = g.weight_of(side_l), g.weight_of(side_r)
        big, small = (side_l, side_r) if wl >= wr else (side_r, side_l)
        # Part budget proportional to realized side weights, heavier side
        # rounding up (equal weights reduce to ceil(k/2) / floor(k/2)).
        ratio = max(wl, wr) / (wl + wr)
        k_big = min(max(math.floor(k_here * ratio + 0.5), 1), k_here - 1)
        recurse(big, k_big)
        recurse(small, k_here - k_big)

    recurse(np.arange(g.n), k)
    buf_idx = np.concatenate(buffer) if buffer else np.empty(0, dtype=np.int64)
    part_w = [g.weight_of(p) for p in parts]
    limit = PART_WEIGHT_FACTOR * total / k
    for i, pw in enumerate(part_w):
        if pw > limit + 1e-9:
            violations.append(f"part {i} weight {pw!r} exceeds 6 w(V)/k = {limit!r}")
    crossing = 0.0
    for i in range(len(parts)):
        mi = np.zeros(g.n, dtype=bool)
        mi[parts[i]] = True
        for j in range(i + 1, len(parts)):
            mj = np.zeros(g.n, dtype=bool)
            mj[parts[j]] = True
            crossing += cut_cost_masks(g, mi, mj)
    return KwayBalancedResult(
        parts=tuple(parts), buffer=buf_idx, crossing_cost=crossing,
        max_part_weight=max(part_w) if part_w else 0.0,
        buffer_weight=g.weight_of(buf_idx),
        per_level_lambda2=tuple(lambdas), violations=tuple(violations))
