"""Reference implementations of the Step-2 round loop and the Step-3/4 refinement.

These are the straightforward per-draw and global-mask versions the library
replaced with block evaluation, float pruning and per-round sweeps.  They
share no code with the library's draw and refinement paths: every draw is
projected with the fixed-order per-coordinate sum and measured with the
all-pairs distance matrix, and every refinement threshold is evaluated with
full-length masks.  The oracle tests require the library to reproduce them
exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from bufpart.partition import BUFFER_SLACK, EXPANSION_SLACK, CrudePartition

CHUNK_VALUES = 2 ** 16      # projections summed per cache-sized chunk


def reference_project(columns: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Projections of every vector onto each row of g, shape (draws, count).

    columns is the (dim, count) transpose of the vector list.  Each entry is
    summed over the coordinates in a fixed order, one elementwise pass each,
    so a draw's projections are the same bits whether it is projected alone
    or with others.  Rows are processed in chunks of about CHUNK_VALUES
    entries, which does not change any entry's arithmetic.
    """
    draws, count = g.shape[0], columns.shape[1]
    proj = np.empty((draws, count))
    rows = max(1, CHUNK_VALUES // max(count, 1))
    term = np.empty((min(rows, draws), count))
    for lo in range(0, draws, rows):
        out, gs = proj[lo:lo + rows], g[lo:lo + rows]
        t = term[:out.shape[0]]
        np.multiply(gs[:, 0, None], columns[0], out=out)
        for j in range(1, columns.shape[0]):
            np.multiply(gs[:, j, None], columns[j], out=t)
            out += t
    return proj


def reference_leftover_rows(vectors, measures, x_idx, r) -> np.ndarray:
    """mu(X minus Ball(u, r)) for each u in X, from the all-pairs distance matrix."""
    pts = vectors[x_idx]
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    outside = (d > r) * measures[x_idx][None, :]
    return outside.sum(axis=1)


def reference_min_ball_leftover(vectors, measures, x_idx, r) -> float:
    """min over u in X of mu(X minus Ball(u, r))."""
    return float(reference_leftover_rows(vectors, measures, x_idx, r).min())


def reference_ranks(values, groups, queries, q_groups, side: str) -> np.ndarray:
    """For each query, the number of (group, value) pairs that sort before
    (q_group, query): those of a smaller group, and of its own group those
    below it ("left") or at most it ("right").  One np.lexsort of values and
    queries together, the query placed after its equal values for "right".
    This is the two-key form the library's complex-key searches replaced."""
    count = values.size
    tie = np.concatenate([np.full(count, side == "left"), np.full(queries.size, side == "right")])
    order = np.lexsort((tie, np.concatenate([values, queries]),
                        np.concatenate([groups, q_groups])))
    asked = order >= count
    out = np.empty(queries.size, dtype=np.int64)
    out[order[asked] - count] = np.cumsum(~asked)[asked]
    return out


def reference_pivots(score, seg, starts) -> np.ndarray:
    """The first member of largest score of each set, by one lexsort of (set, -score)."""
    return np.lexsort((-score, seg))[starts]


def reference_draw(vectors, measures, limit, r, p, rng):
    """One measured two-buffer draw: (x, y, z, rejected).

    Takes one normals(dim) direction from rng, classifies every vector by its
    projection and rejects (all sets empty) when the min-ball leftover of X
    exceeds limit = delta mu(U).
    """
    columns = np.ascontiguousarray(vectors.T)
    proj = reference_project(columns, rng.normals(vectors.shape[1]).reshape(1, -1))[0]
    x = np.flatnonzero(proj >= p.t)
    y = np.flatnonzero((proj > p.t - p.eps_prime) & (proj < p.t))
    z = np.flatnonzero((proj > p.t - 2.0 * p.eps_prime) & (proj <= p.t - p.eps_prime))
    if x.size and reference_min_ball_leftover(vectors, measures, x, r) > limit:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, True
    return x, y, z, False


@dataclass(frozen=True)
class ReferenceCrude:
    """Step 2 as the reference loop records it."""

    draws: tuple            # (x, y, z, rejected) of every draw, in draw order
    active: tuple           # (index, Ptilde, Btilde) of each draw that set either
    sigma: np.ndarray
    gamma: np.ndarray
    r_p: np.ndarray
    r_b: np.ndarray
    reject_count: int


def draw_columns(draws):
    """The (x, y, z, rejected) draws as measured_draws() returns a run:
    (draw, vertex, role, rejected), the X, Y and Z members (role 0, 1, 2) of
    each accepted draw by draw and then vertex, and the rejected draws."""
    empty = np.empty(0, dtype=np.int64)
    parts = [(empty, empty, np.empty(0, dtype=np.int8))] + [
        (np.full(s.size, t, dtype=np.int64), s, np.full(s.size, role, dtype=np.int8))
        for t, (x, y, z, rejected) in enumerate(draws) if not rejected
        for role, s in enumerate((x, y, z))]
    draw, vertex, role = (np.concatenate(c) for c in zip(*parts))
    order = np.lexsort((vertex, draw))
    rejected = np.array([t for t, d in enumerate(draws) if d[3]], dtype=np.int64)
    return draw[order], vertex[order], role[order], rejected


def reference_crude_partition(e, eff, rng) -> ReferenceCrude:
    """Step 2 with one reference_draw call per draw and reference_rounds() bookkeeping."""
    limit = eff.delta_sep * float(e.mu.sum())
    return reference_rounds(e.graph.n, [reference_draw(e.psi, e.mu, limit, eff.params.r,
                                                       eff.params, rng)
                                        for _ in range(eff.rounds)])


def reference_rounds(n, draws) -> ReferenceCrude:
    """Step 2's bookkeeping over (x, y, z, rejected) draws, full-length masks per draw."""
    sigma = np.zeros(n, dtype=bool)
    gamma = np.zeros(n, dtype=bool)
    touched = np.zeros(n, dtype=bool)
    active = []
    for t, (sx, sy, sz, _) in enumerate(draws):
        x = np.zeros(n, dtype=bool)
        x[sx] = True
        xy = x.copy()
        xy[sy] = True
        xyz = xy.copy()
        xyz[sz] = True
        p_tilde = x & ~touched
        sigma |= p_tilde
        b_tilde = xy & ~sigma & ~gamma
        gamma |= b_tilde
        touched |= xyz
        if p_tilde.any() or b_tilde.any():
            active.append((t, np.flatnonzero(p_tilde), np.flatnonzero(b_tilde)))
    return ReferenceCrude(
        draws=tuple(draws), active=tuple(active), sigma=np.flatnonzero(sigma),
        gamma=np.flatnonzero(gamma), r_p=np.flatnonzero(~touched),
        r_b=np.flatnonzero(touched & ~sigma & ~gamma),
        reject_count=sum(d[3] for d in draws))


@dataclass(frozen=True)
class ReferenceTuple:
    round_index: int
    p: np.ndarray
    b: np.ndarray
    a_prime: np.ndarray
    a_double: np.ndarray
    threshold: float
    phi: float


def crude_sets(c) -> tuple:
    """(Sigma, Gamma, R_P, R_B) of a CrudePartition, read off its labels."""
    label = c.label
    return (np.flatnonzero((label >= 0) & (label % 2 == 0)),
            np.flatnonzero((label >= 0) & (label % 2 == 1)),
            np.flatnonzero(label == -1), np.flatnonzero(label == -2))


def refined_tuples(pp) -> tuple:
    """ReferenceTuple of each kept tuple of a PartialPartition, in draw order:
    its sets read off pp.label (4i + role), with pp's round_index, threshold and phi."""
    return tuple(ReferenceTuple(t, *(np.flatnonzero(pp.label == 4 * i + role) for role in range(4)),
                                r, phi)
                 for i, (t, r, phi) in enumerate(zip(pp.round_index, pp.threshold, pp.phi)))


@dataclass(frozen=True)
class ReferencePartial:
    """Steps 3 and 4 as the reference records them."""

    tuples: tuple           # ReferenceTuple of each kept tuple, in round order
    r_p_prime: np.ndarray
    r_b_prime: np.ndarray
    diagnostics: dict


def crude_of_rounds(n, rounds, r_b, effective) -> CrudePartition:
    """A crude partition over n vertices from (draw index, Ptilde, Btilde) rounds:
    R_B is r_b and R_P every other vertex."""
    label = np.full(n, -1, dtype=np.int64)
    label[np.asarray(r_b, dtype=np.int64)] = -2
    for j, (_, p_tilde, b_tilde) in enumerate(rounds):
        label[np.asarray(p_tilde, dtype=np.int64)] = 2 * j
        label[np.asarray(b_tilde, dtype=np.int64)] = 2 * j + 1
    return CrudePartition(label=label, draws=np.array([t for t, _, _ in rounds], dtype=np.int64),
                          effective=effective, reject_count=0)


def reference_refine_and_discard(c, e, tally: Counter | None = None) -> ReferencePartial:
    """Steps 3 and 4 with full-length vertex and edge masks for every candidate r.

    k, epsilon and delta are those of c.effective and the graph is e.graph.

    When tally is given it counts, per Step-3 filter ("buffer", "a_double",
    "a1_cut", "out_cut"), the candidates that filter rejects, and under
    "buffer_on_limit" and "a_double_on_limit" the candidates whose w(B) or
    w(A'') equals its limit exactly (and so passes).
    """
    tally = Counter() if tally is None else tally
    k, epsilon, delta = c.effective.k, c.effective.epsilon, c.effective.delta
    g = e.graph
    n = g.n
    lam_k = float(e.basis.eigenvalues[k - 1])
    c_prime = BUFFER_SLACK / delta
    c_dprime = EXPANSION_SLACK / delta
    bound = (c_dprime / epsilon) * lam_k * math.log(k) if epsilon > 0 else math.inf
    mu = e.mu
    w = g.weights
    eu, ev, ec = g.edge_u, g.edge_v, g.edge_cost

    sigma, _, r_p, r_b = crude_sets(c)
    sigma_rp = np.zeros(n, dtype=bool)
    sigma_rp[sigma] = True
    sigma_rp[r_p] = True

    r_p_prime = np.zeros(n, dtype=bool)
    r_b_prime = np.zeros(n, dtype=bool)
    r_p_prime[r_p] = True
    r_b_prime[r_b] = True

    survivors = []
    infeasible_rounds = 0
    for rec in c.rounds:
        if rec.p_tilde.size == 0:
            if rec.b_tilde.size:
                r_b_prime[rec.b_tilde] = True
            continue
        pt = np.zeros(n, dtype=bool)
        pt[rec.p_tilde] = True
        bt = np.zeros(n, dtype=bool)
        bt[rec.b_tilde] = True
        members = np.concatenate([rec.p_tilde, rec.b_tilde]) if rec.b_tilde.size else rec.p_tilde
        outside_pt = sigma_rp & ~pt

        best = None
        for r in np.unique(mu[members]):
            p_mask = pt & (mu >= r)
            if not p_mask.any():
                continue
            lo = r / (1.0 + epsilon)
            b_mask = (bt & (mu >= lo)) | (pt & (mu >= lo) & (mu < r))
            a2_mask = pt & (mu > lo / (1.0 + epsilon)) & (mu < lo)
            a1_mask = pt & ~p_mask & ~b_mask & ~a2_mask
            wp = float(w[p_mask].sum())
            wb, wb_limit = float(w[b_mask].sum()), c_prime * epsilon * wp
            tally["buffer_on_limit"] += wb == wb_limit
            if wb > wb_limit:
                tally["buffer"] += 1
                continue
            wa2, wa2_limit = float(w[a2_mask].sum()), 10.0 * epsilon * wp
            tally["a_double_on_limit"] += wa2 == wa2_limit
            if wa2 > wa2_limit:
                tally["a_double"] += 1
                continue
            pb = p_mask | b_mask
            if math.isfinite(bound):
                a1_cut = float(ec[(a1_mask[eu] & pb[ev]) | (a1_mask[ev] & pb[eu])].sum())
                if a1_cut > bound * wp:
                    tally["a1_cut"] += 1
                    continue
                out_cut = float(ec[(pb[eu] & outside_pt[ev] & ~pb[ev]) |
                                   (pb[ev] & outside_pt[eu] & ~pb[eu])].sum())
                if out_cut > bound * wp:
                    tally["out_cut"] += 1
                    continue
            phi_cut = float(ec[(p_mask[eu] & ~pb[ev]) | (p_mask[ev] & ~pb[eu])].sum())
            phi = phi_cut / wp
            key = (phi, -wp, float(r))
            if best is None or key < best[0]:
                best = (key, float(r), p_mask, b_mask, a1_mask, a2_mask, phi)

        if best is None:
            infeasible_rounds += 1
            r_p_prime[rec.p_tilde] = True
            if rec.b_tilde.size:
                r_b_prime[rec.b_tilde] = True
            continue
        _, r, p_mask, b_mask, a1_mask, a2_mask, phi = best
        survivors.append(ReferenceTuple(
            round_index=rec.index, p=np.flatnonzero(p_mask), b=np.flatnonzero(b_mask),
            a_prime=np.flatnonzero(a1_mask), a_double=np.flatnonzero(a2_mask),
            threshold=r, phi=phi))
        stray = bt & ~b_mask
        if stray.any():
            r_b_prime |= stray

    kept = [t for t in survivors if t.phi <= bound]
    kept_ids = {t.round_index for t in kept}
    by_round = {rec.index: rec for rec in c.rounds}
    for t in survivors:
        if t.round_index not in kept_ids:
            rec = by_round[t.round_index]
            r_p_prime[rec.p_tilde] = True
            if rec.b_tilde.size:
                r_b_prime[rec.b_tilde] = True

    owned = np.zeros(n, dtype=bool)
    for t in kept:
        for arr in (t.p, t.b, t.a_prime, t.a_double):
            owned[arr] = True
    r_p_prime &= ~owned
    r_b_prime &= ~owned

    leftover_ratio = 0.0
    if kept and epsilon > 0 and lam_k > 0:
        a_and_rp = r_p_prime.copy()
        for t in survivors:
            if t.round_index in kept_ids:
                a_and_rp[t.a_prime] = True
        unit = lam_k * math.log(k) / epsilon
        for t in kept:
            pb = np.zeros(n, dtype=bool)
            pb[t.p] = True
            pb[t.b] = True
            agg = float(ec[(a_and_rp[eu] & pb[ev]) | (a_and_rp[ev] & pb[eu])].sum())
            leftover_ratio = max(leftover_ratio, agg / (unit * float(w[t.p].sum())))

    return ReferencePartial(
        tuples=tuple(sorted(kept, key=lambda t: t.round_index)),
        r_p_prime=np.flatnonzero(r_p_prime), r_b_prime=np.flatnonzero(r_b_prime),
        diagnostics={
            "expansion_bound": bound,
            "buffer_slack": c_prime,
            "expansion_slack": c_dprime,
            "infeasible_rounds": infeasible_rounds,
            "survivors_step3": len(survivors),
            "kept_theory": len(kept),
            "reject_count": c.reject_count,
            "r_b_prime_weight": float(w[r_b_prime].sum()),
            "r_b_prime_bound": 16.0 * epsilon * float(w.sum()),
            "leftover_cut_ratio": leftover_ratio,
        })
