"""Reference implementations of the two-threshold search, the k-way crossing
cost and the two recursions that stack and bisect buffered cuts.

The first two are the straightforward per-threshold and per-pair loops the
library replaced with one sorted sweep and one labelled pass: every candidate
threshold and every part pair scans all edges with ``cut_cost_masks``.  The
oracle tests require the library to reproduce them exactly; patched in for
``balanced._two_threshold_cut``, the first gives the old ``cheeger2_buffered``.

The partition checks are the per-part loops the library replaced with one
label pass: validate_partition and partition_cost as two masks per part,
each part's expansion from buffered_expansion, and each set's weight as the
sum of its sorted vertices' weights.

The recursions rebuild every level and branch from the root graph with
``g.subgraph``, where the library cuts the subgraph of the graph its parent
already holds, and write each level's sets into one label over the root.
Every reported weight is the masked sum float(w[label == j].sum()), and the
L-R cut and the crossing cost are masked edge sums.  Both call the library's
``cheeger2_buffered``, so they check only the recursion.
"""

from __future__ import annotations

import math

import numpy as np

from bufpart import balanced
from bufpart.balanced import BALANCE_FRACTION, PART_WEIGHT_FACTOR
from bufpart.graph import (BufferedPartition, CutReport, Graph, PartitionError,
                           buffered_expansion, cut_cost_masks)


def reference_two_threshold_cut(g: Graph, usq: np.ndarray, epsilon: float) -> tuple:
    """(t, s_mask, t_mask, b_mask, cut, ws, wb) of the least (cut/w(S), t), one scan per t."""
    w = g.weights
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
    return best[1:]


def reference_crossing_cost(g: Graph, parts) -> float:
    """Sum of cut_cost_masks(g, P_i, P_j) over every pair i < j, one edge scan per pair."""
    crossing = 0.0
    for i in range(len(parts)):
        mi = np.zeros(g.n, dtype=bool)
        mi[parts[i]] = True
        for j in range(i + 1, len(parts)):
            mj = np.zeros(g.n, dtype=bool)
            mj[parts[j]] = True
            crossing += cut_cost_masks(g, mi, mj)
    return crossing


def reference_violations(g: Graph, part: BufferedPartition) -> tuple:
    """validate_partition(g, part).violations, one pass over each set in turn."""
    violations: list[str] = []
    coverage = np.zeros(g.n, dtype=np.int64)
    for kind, sets in (("part", part.parts), ("buffer", part.buffers)):
        for i, s in enumerate(sets):
            if s.size and (s[0] < 0 or s[-1] >= g.n):
                violations.append(f"{kind} {i} has out-of-range vertices")
                continue
            coverage[s] += 1
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
        wb, wp = float(g.weights[b].sum()), float(g.weights[p].sum())
        if wb > part.epsilon * wp:
            violations.append(
                f"condition 4 violated: w(B_{i})={wb!r} > eps*w(P_{i})={part.epsilon * wp!r}")
    return tuple(violations)


def reference_cut_report(g: Graph, part: BufferedPartition) -> CutReport:
    """graph._cut_report(g, part) for a partition whose parts are non-empty, part by part."""
    phis = []
    ratios = []
    for p, b in zip(part.parts, part.buffers):
        phis.append(buffered_expansion(g, p, b))
        ratios.append(float(g.weights[b].sum()) / float(g.weights[p].sum()))
    return CutReport(per_part_expansion=tuple(phis), max_expansion=max(phis),
                     buffer_ratios=tuple(ratios), violations=())


def reference_balanced_cut(g: Graph, epsilon: float) -> balanced.BalancedCutResult:
    """buffered_balanced_cut with every level cut from g.subgraph(active vertices)."""
    balanced._check_epsilon(epsilon)
    if g.n < 2:
        raise PartitionError("balanced cut needs at least two vertices")
    total = g.total_weight
    w = g.weights
    label = np.full(g.n, 2, dtype=np.int64)       # 0 on L, 1 on B, 2 on the active T
    lambdas, phis, violations = [], [], []
    left_weight = 0.0
    while True:
        active = np.flatnonzero(label == 2)
        if active.size < 2:
            violations.append(
                f"recursion bottomed out with {active.size} active vertices before "
                f"reaching the balance target")
            break
        sub, ids = g.subgraph(active)
        cut = balanced.cheeger2_buffered(sub, epsilon / 2.0)
        lambdas.append(cut.lambda2)
        phis.append(cut.phi)
        s = ids[cut.label == 0]
        label[s] = 0
        label[ids[cut.label == 1]] = 1
        left_weight += float(w[s].sum())
        if left_weight >= BALANCE_FRACTION * total:
            break
    wl, wb, wr = (float(w[label == j].sum()) for j in range(3))
    cut_lr = cut_cost_masks(g, label == 0, label == 2)
    is_balanced = True
    lo, hi = BALANCE_FRACTION * total, (1.0 - BALANCE_FRACTION) * total
    if not (lo - 1e-9 <= wl <= hi + 1e-9):
        is_balanced = False
        violations.append(f"w(L)={wl!r} outside [{lo!r}, {hi!r}]")
    if not (lo - 1e-9 <= wr <= hi + 1e-9):
        is_balanced = False
        violations.append(f"w(R)={wr!r} outside [{lo!r}, {hi!r}]")
    if wl > 0 and wr > 0 and wb > 3.0 * epsilon * min(wl, wr) + 1e-12:
        is_balanced = False
        violations.append(f"w(B)={wb!r} exceeds 3 eps min(w(L), w(R))")
    if is_balanced:
        violations = [v for v in violations if "bottomed out" not in v]
    return balanced.BalancedCutResult(
        label=label, weights=(wl, wb, wr), cut_value=cut_lr,
        balanced=is_balanced, violations=tuple(violations),
        per_level_lambda2=tuple(lambdas), per_level_phi=tuple(phis))


def reference_kway(g: Graph, k: int, epsilon: float) -> balanced.KwayBalancedResult:
    """kway_balanced with every branch cut from g.subgraph(its vertices)."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k must lie in [1, n={g.n}], got {k}")
    balanced._check_epsilon(epsilon)
    total = g.total_weight
    w = g.weights
    parts, buffer, lambdas, violations = [], [], [], []

    def recurse(vertices: np.ndarray, k_here: int) -> None:
        if k_here <= 1 or vertices.size < 2:
            if k_here > 1:
                violations.append(
                    f"branch with {vertices.size} vertices could not host {k_here} parts")
            parts.append(vertices)
            return
        sub, ids = g.subgraph(vertices)
        res = reference_balanced_cut(sub, epsilon)
        lambdas.extend(res.per_level_lambda2)
        side_l, side_r = ids[res.label == 0], ids[res.label == 2]
        if side_l.size == 0 or side_r.size == 0:
            violations.append("degenerate split; keeping branch whole")
            parts.append(vertices)
            return
        buffer.append(ids[res.label == 1])
        wl, wr = float(w[side_l].sum()), float(w[side_r].sum())
        big, small = (side_l, side_r) if wl >= wr else (side_r, side_l)
        ratio = max(wl, wr) / (wl + wr)
        k_big = min(max(math.floor(k_here * ratio + 0.5), 1), k_here - 1)
        recurse(big, k_big)
        recurse(small, k_here - k_big)

    recurse(np.arange(g.n), k)
    label = np.full(g.n, -1, dtype=np.int64)
    for i, p in enumerate(parts):
        label[p] = 2 * i
    for b in buffer:
        label[b] = 1
    part_w = [float(w[label == 2 * i].sum()) for i in range(len(parts))]
    limit = PART_WEIGHT_FACTOR * total / k
    for i, pw in enumerate(part_w):
        if pw > limit + 1e-9:
            violations.append(f"part {i} weight {pw!r} exceeds 6 w(V)/k = {limit!r}")
    return balanced.KwayBalancedResult(
        label=label, part_weights=tuple(part_w), buffer_weight=float(w[label == 1].sum()),
        crossing_cost=reference_crossing_cost(g, parts),
        per_level_lambda2=tuple(lambdas), violations=tuple(violations))
