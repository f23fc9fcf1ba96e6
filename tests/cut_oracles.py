"""Reference implementations of the two-threshold search and the k-way crossing cost.

These are the straightforward per-threshold and per-pair loops the library
replaced with one sorted sweep and one labelled pass: every candidate
threshold and every part pair scans all edges with ``cut_cost_masks``.  The
oracle tests require the library to reproduce them exactly; patched in for
``balanced._two_threshold_cut``, the first gives the old ``cheeger2_buffered``.
"""

from __future__ import annotations

import numpy as np

from bufpart.graph import Graph, PartitionError, cut_cost_masks


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
