"""Multi-round buffered partitioning via measure-constrained separators.

Step 1 embeds the graph with the bottom-k eigenvectors.  Step 2 repeatedly
draws two-buffer separators over the unit directions psi(u) with measure mu
and keeps the bookkeeping

    Ptilde_t = X_t minus everything touched before
    Btilde_t = (X_t u Y_t) minus (Sigma_t u Gamma_{t-1})
    R_P      = never touched        R_B = touched but unassigned

Each step hands on one int64 label per vertex, so its sets tile V by
construction.  Step 2's CrudePartition has 2j on Ptilde and 2j+1 on Btilde of
recorded round j, -1 on R_P and -2 on R_B; Steps 3-4's PartialPartition has
4i + role on kept tuple i (role 0 P, 1 B, 2 A', 3 A''), -1 on R'_P and -2 on
R'_B; completion's graph.BufferedPartition has 2i and 2i+1.  Each step
reads the sets it needs off the labels; the one set view, CrudePartition.rounds,
is there for bench/layers.py.

The draws come from separators.measured_draws(), which evaluates a whole
restart's draws at once and returns only the draws that reach a vector; a
draw that reaches nothing changes no set.  Each reached draw's bookkeeping
touches only the labels of X u Y u Z, and a round gets a number j (with its
draw index in draws[j]) only when its Ptilde or Btilde is non-empty.

Step 3 refines each round by a threshold search over the member measures (a
strictly stronger replacement for the probabilistic-method existence argument:
it finds a feasible threshold whenever one exists).  The rounds have disjoint
members and read only the crude state, so one sweep serves all of them: their
members share one slot axis, their candidate thresholds one candidate axis and
their incident edges one list (_step3_rounds).  It is the shared threshold
search of graph.py: one graph.interval_sums call per quantity gives every
candidate's weights and cuts with one stated float error bound and prunes;
per round, graph.least_exact evaluates the survivors with the exact masked
sums of the round's own members and edges in ascending order of a phi lower
bound, and those alone pick the threshold, so the result is that of the
exhaustive search.  Step 4 runs in the same pass: a refined tuple whose
buffered expansion exceeds the expansion-slack bound goes back to the
leftovers, like a round with no feasible threshold.  complete_partition()
keeps the k-1 tuples of lowest buffered expansion as parts and folds the
leftovers and the other tuples into the last part, through one table from
partial label to final label; partial_partition() keeps the restart whose
completion has the lowest max expansion, the quantity the paper bounds.

Each parameter is derived once: buffered_k_partition() lifts (k, eps, delta)
to (k_hat, delta_hat, delta_slack, eps_hat), resolve_step2() turns those into
the Step-2 record, and partial_partition() runs one rung from that record.

Desk-scale practicality: Step 2 always runs at the practical scale
alpha = min(Phi_bar(1), max(1/n, 1e-4)) with T = ceil((2/alpha) ln(1/delta))
draws per restart.  The certified scale of calibrate() cannot fire at a
desk-scale sample budget: every admissible input has m = 4k/delta >= 8 and
R = sqrt(delta/6) < 0.41, which put its threshold t above 9.7 (alpha about
1e-22 at most).  The min-ball rejection enforces the separator's separation
condition on every draw regardless of alpha, so every structural guarantee
survives; the notes of the run record the certified scale it replaces.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .certify import certify_run
from .graph import (UNIT, BufferedPartition, CutReport, Graph, PartitionError, _group_sums,
                    _groups, interval_sums, least_exact, partition_cost)
from .rng import RandomStream
from .separators import (CalibrationError, SeparatorParams, calibrate,
                         measured_draws, practical_params)
from .spectral import Embedding, embed, eigenbasis, normalized_laplacian

__all__ = [
    "EffectiveParams",
    "RoundRecord",
    "CrudePartition",
    "PartialPartition",
    "resolve_step2",
    "crude_partition",
    "refine_and_discard",
    "partial_partition",
    "complete_partition",
    "lifted_k",
    "buffered_k_partition",
]

PRACTICAL_ALPHA_MIN = 1e-4
PRACTICAL_ALPHA_MAX = 0.15865525393145707   # Phi_bar(1)
BUFFER_SLACK = 192.0       # Step 3 buffer slack c' = BUFFER_SLACK / delta
EXPANSION_SLACK = 10.0     # Step 4 expansion slack c'' = EXPANSION_SLACK / delta
RESTARTS = 8


@dataclass(frozen=True)
class EffectiveParams:
    """Step-2 parameters after the standard adjustments."""

    k: int
    epsilon: float          # clamped to min(epsilon, delta)
    delta: float            # raised to max(delta, 1/(3k))
    delta_sep: float        # delta/(2k), the separator's measure slack
    rounds: int
    params: SeparatorParams  # radius params.r = sqrt(delta/6), params.m = 2/delta_sep
    notes: tuple

    def to_dict(self) -> dict:
        return {
            "k": self.k, "epsilon": self.epsilon, "delta": self.delta,
            "radius": self.params.r, "delta_sep": self.delta_sep, "m": self.params.m,
            "rounds": self.rounds, "threshold": self.params.t,
            "alpha": self.params.alpha, "calibrated": self.params.calibrated,
            "notes": list(self.notes),
        }


def resolve_step2(n_vectors: int, k: int, epsilon: float, delta: float) -> EffectiveParams:
    """Apply the epsilon/delta adjustments and fix the separator family and round count.

    The only place that sets them: the practical scale of the module
    docstring, and T = ceil((2/alpha) ln(1/delta)) rounds.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0,1), got {epsilon}")
    notes: list[str] = []
    delta_eff = delta
    floor = 1.0 / (3.0 * k)
    if delta_eff < floor:
        delta_eff = floor
        notes.append(f"delta raised to 1/(3k) = {floor!r}")
    if delta_eff >= 1.0 / 80.0:
        notes.append(f"delta {delta_eff!r} outside the (0, 1/80) analysis regime")
    eps_eff = epsilon
    if eps_eff > delta_eff:
        eps_eff = delta_eff
        notes.append(f"epsilon clamped to delta = {delta_eff!r}")
    radius = math.sqrt(delta_eff / 6.0)
    delta_sep = delta_eff / (2.0 * k)
    m = 2.0 / delta_sep

    try:
        cand = calibrate(eps_eff, m, radius)
        notes.append(
            f"certified scale alpha={cand.alpha!r} (t={cand.t!r}) cannot fire "
            f"at this sample budget; using the practical scale")
    except CalibrationError as exc:
        notes.append(f"calibration infeasible ({exc}); using the practical scale")
    alpha = min(PRACTICAL_ALPHA_MAX, max(1.0 / n_vectors, PRACTICAL_ALPHA_MIN))
    params = practical_params(eps_eff, m, radius, alpha)
    rounds = math.ceil(2.0 / params.alpha * math.log(1.0 / delta_eff))
    return EffectiveParams(k=k, epsilon=eps_eff, delta=delta_eff, delta_sep=delta_sep,
                           rounds=rounds, params=params, notes=tuple(notes))


# The record of the rounds view, which bench/layers.py reads; index is a draw index.
RoundRecord = namedtuple("RoundRecord", "index p_tilde b_tilde")


@dataclass(frozen=True)
class CrudePartition:
    """Step 2's sets as one label per vertex (module docstring)."""

    label: np.ndarray       # int64: 2j / 2j+1 on Ptilde / Btilde of round j, -1 R_P, -2 R_B
    draws: np.ndarray       # int64: the draw index of each recorded round
    effective: EffectiveParams
    reject_count: int

    @property
    def rounds(self) -> tuple:
        """RoundRecord of each recorded round, in draw order (bench/layers.py reads it)."""
        sets = _groups(self.label, 2 * self.draws.size)
        return tuple(RoundRecord(t, sets[2 * j], sets[2 * j + 1])
                     for j, t in enumerate(self.draws.tolist()))

    def buffer_mass(self, g: Graph) -> float:
        """w(R_B) + sum_t w(Btilde_t), the Step-2 acceptance quantity."""
        sums = _group_sums(self.label + 2, g.weights, 2 * self.draws.size + 2)
        mass = sums[0]
        for wb in sums[3::2]:
            mass += wb
        return mass


def crude_partition(e: Embedding, eff: EffectiveParams, rng: RandomStream) -> CrudePartition:
    """Step 2: the eff.rounds separator draws of eff.params, with the
    crude-partition bookkeeping; a draw is rejected when its min-ball leftover
    exceeds eff.delta_sep mu(U)."""
    label = np.full(e.graph.n, -1, dtype=np.int64)      # R_P until touched
    draws: list[int] = []
    rejects = 0
    for t, s in measured_draws(e.psi, e.mu, eff.delta_sep, eff.params, rng, eff.rounds):
        rejects += s.rejected   # a rejected draw has empty sets and changes nothing
        # Index work on X u Y u Z only; the round is recorded as j if it sets anything.
        j = len(draws)
        p_tilde = s.x[label[s.x] == -1]
        label[p_tilde] = 2 * j
        xy = np.union1d(s.x, s.y) if s.y.size else s.x
        b_tilde = xy[label[xy] < 0]
        label[b_tilde] = 2 * j + 1
        label[s.z[label[s.z] == -1]] = -2   # a draw that only adds Z still moves it to R_B
        if p_tilde.size or b_tilde.size:
            draws.append(t)
    return CrudePartition(label=label, draws=np.array(draws, dtype=np.int64), effective=eff,
                          reject_count=rejects)


@dataclass(frozen=True)
class PartialPartition:
    """Steps 3-4's sets as one label per vertex (module docstring), with the
    phi, threshold and round's draw index of each kept tuple."""

    label: np.ndarray       # int64: 4i + role on kept tuple i, -1 R'_P, -2 R'_B
    phi: tuple
    threshold: tuple
    round_index: tuple
    effective: EffectiveParams
    diagnostics: dict

    @property
    def k_prime(self) -> int:
        return len(self.phi)


def _ranks(values, groups, queries, q_groups, side: str) -> np.ndarray:
    """For each query, np.searchsorted(values of its group, query, side) plus the
    group's offset in values, which is sorted by (group, value): one exact
    lexsort of both counts the values that sort before each query."""
    count = values.size
    tie = np.concatenate([np.full(count, side == "left"), np.full(queries.size, side == "right")])
    order = np.lexsort((tie, np.concatenate([values, queries]),
                        np.concatenate([groups, q_groups])))
    asked = order >= count
    out = np.empty(queries.size, dtype=np.int64)
    out[order[asked] - count] = np.cumsum(~asked)[asked]
    return out


def _step3_rounds(label, refinable, g: Graph, mu: np.ndarray, sigma_rp: np.ndarray,
                  epsilon: float, c_prime: float, bound: float):
    """Step 3 of the crude label's rounds with refinable[j] set (those with a
    non-empty Ptilde) as one threshold sweep.

    Yields per round, in order: its members in index order and the feasible
    threshold r of least (phi, -w(P), r) as (r, p_mask, b_mask, a1_mask,
    a2_mask, phi), or None.  The masks cover the members and a sentinel slot
    (never selected) that the edges' non-member ends point to.

    A round's candidates are its members' unique mu; lo = r/(1+eps) and
    lo2 = lo/(1+eps) are nondecreasing in r.  A Ptilde slot is in P while
    r <= mu, a member is in P u B while lo <= mu, a Ptilde slot is in A''
    while lo2 < mu < lo and in A' once mu < lo and mu <= lo2: each set holds a
    slot on one interval of candidates, each filtered cut an edge on at most
    two, and one graph.interval_sums call per quantity scores every candidate
    of every round.  A candidate is dropped when its P is empty or it breaks a
    filter by more than the error bound (the 1 -/+ 4u factors absorb the
    rounding of the comparison); the bound is that of the whole axis, so
    looser pruning costs exact evaluations, never another result.  Per round,
    graph.least_exact visits the rest by ascending phi lower bound, and the
    exact masked sums over the round's own slice decide alone; they select
    the same elements in the same order as global masks would.
    """
    n, count = g.n, int(refinable.sum())
    if not count:
        return
    # The refinable rounds renumbered 0..count-1; label >> 1 is -1 on R_P and R_B.
    renumber = np.append(np.where(refinable, np.cumsum(refinable) - 1, -1), -1)
    round_of = renumber[label >> 1]

    # Slots: each round's members in index order, then its sentinel (vertex n).
    verts = np.flatnonzero(round_of >= 0)
    vertex = np.concatenate([verts, np.full(count, n)])
    slot_round = np.concatenate([round_of[verts], np.arange(count)])
    order = np.lexsort((vertex, slot_round))
    vertex, slot_round = vertex[order], slot_round[order]
    member = vertex < n
    pt = np.append(label, -1)[vertex] % 2 == 0      # a sentinel's -1 is odd
    bt = member & ~pt
    mu_s, w_s = np.append(mu, 0.0)[vertex], np.append(g.weights, 0.0)[vertex]
    sentinel = np.flatnonzero(~member)
    first_slot = np.append(0, sentinel[:-1] + 1)
    local = np.empty(n + 1, dtype=np.int64)
    local[vertex] = np.arange(vertex.size)

    # Candidates: each round's unique mu, ascending, rounds in order.
    cand_round, cands = slot_round[member], mu_s[member]
    order = np.lexsort((cands, cand_round))
    cand_round, cands = cand_round[order], cands[order]
    first = np.append(True, (cand_round[1:] != cand_round[:-1]) | (cands[1:] != cands[:-1]))
    cand_round, cands = cand_round[first], cands[first]
    total = cands.size
    cand_start = np.searchsorted(cand_round, np.arange(count + 1))
    los = cands / (1.0 + epsilon)        # the same expressions as evaluate()'s masks
    lo2s = los / (1.0 + epsilon)
    # Slot s is in P for off <= i < p_end[s], in B for p_end[s] <= i < pb_end[s],
    # in A'' for pb_end[s] <= i < a2_end[s] and in A' for a1_start[s] <= i < end,
    # [off, end) being its round's candidates.  A sentinel is in none.
    off, end = cand_start[slot_round], cand_start[slot_round + 1]
    p_end = np.where(pt, _ranks(cands, cand_round, mu_s, slot_round, "right"), off)
    pb_end = np.where(member, _ranks(los, cand_round, mu_s, slot_round, "right"), off)
    a2_end = np.where(pt, _ranks(lo2s, cand_round, mu_s, slot_round, "left"), off)
    a1_start = np.where(pt, np.maximum(pb_end, a2_end), end)

    # Edges with an end in a round; an edge between two rounds is in both.
    eu, ev = g.edge_u, g.edge_v
    ru, rv = round_of[eu], round_of[ev]
    second = (rv >= 0) & (rv != ru)
    edge = np.concatenate([np.flatnonzero(ru >= 0), np.flatnonzero(second)])
    e_round = np.concatenate([ru[ru >= 0], rv[second]])
    order = np.lexsort((edge, e_round))
    edge, e_round = edge[order], e_round[order]
    ends_u, ends_v, ec = eu[edge], ev[edge], g.edge_cost[edge]
    lu = np.where(round_of[ends_u] == e_round, local[ends_u], sentinel[e_round])
    lv = np.where(round_of[ends_v] == e_round, local[ends_v], sentinel[e_round])
    out_u = sigma_rp[ends_u] & ~pt[lu]
    out_v = sigma_rp[ends_v] & ~pt[lv]
    edge_start = np.searchsorted(e_round, np.arange(count + 1))

    def cut_sweep(first, last, cost_v, cost_u):
        """Per edge: cost_v on [first[v], last[u]) plus cost_u on [first[u], last[v])."""
        return interval_sums(np.concatenate([first[lv], first[lu]]),
                             np.concatenate([last[lu], last[lv]]),
                             np.concatenate([cost_v, cost_u]), total)

    wp_a, tol_p = interval_sums(off, p_end, w_s, total)
    wb_a, tol_b = interval_sums(p_end, pb_end, w_s, total)
    wa2_a, tol_a2 = interval_sums(pb_end, a2_end, w_s, total)
    wp_hi = (wp_a + tol_p) * (1.0 + 4.0 * UNIT)
    lower = 1.0 - 4.0 * UNIT
    feasible = (np.arange(total) < np.maximum.reduceat(p_end, first_slot)[cand_round]) & ~(
        (wb_a - tol_b) * lower > c_prime * epsilon * wp_hi) & ~(
        (wa2_a - tol_a2) * lower > 10.0 * epsilon * wp_hi)
    if math.isfinite(bound):
        a1_a, tol_a1 = cut_sweep(a1_start, pb_end, ec, ec)
        out_a, tol_out = cut_sweep(pb_end, pb_end, np.where(out_v, ec, 0.0),
                                   np.where(out_u, ec, 0.0))
        with np.errstate(over="ignore"):     # to inf, as bound * wp may below
            limit = bound * wp_hi
        feasible &= ~((a1_a - tol_a1) * lower > limit) & ~((out_a - tol_out) * lower > limit)
    cand = np.flatnonzero(feasible)
    phi_a, tol_phi = cut_sweep(pb_end, p_end, ec, ec)
    # phi_lb <= the exact phi; (1 - 8u) absorbs the rounding of these four
    # operations and of the exact division, and phi >= 0 always.
    phi_lb = np.maximum((phi_a[cand] - tol_phi) / (wp_a[cand] + tol_p) * (1.0 - 8.0 * UNIT),
                        0.0)
    visit = np.lexsort((phi_lb, cand_round[cand]))     # by round, then phi_lb
    visit_start = np.searchsorted(cand, cand_start)

    for j in range(count):
        ss = slice(first_slot[j], sentinel[j] + 1)
        es = slice(edge_start[j], edge_start[j + 1])
        mu_l, w_l, pt_l, bt_l = mu_s[ss], w_s[ss], pt[ss], bt[ss]
        lu_l, lv_l = lu[es] - first_slot[j], lv[es] - first_slot[j]
        ec_l, out_u_l, out_v_l = ec[es], out_u[es], out_v[es]

        def evaluate(i: int):
            r = float(cands[cand[i]])
            p_mask = pt_l & (mu_l >= r)
            lo = r / (1.0 + epsilon)
            b_mask = (bt_l & (mu_l >= lo)) | (pt_l & (mu_l >= lo) & (mu_l < r))
            a2_mask = pt_l & (mu_l > lo / (1.0 + epsilon)) & (mu_l < lo)
            # A' is the untouched remainder of Ptilde; for eps > 0 this is
            # exactly {mu <= r/(1+eps)^2}, and it keeps the bands tiling when
            # eps = 0 collapses the interval endpoints.
            a1_mask = pt_l & ~p_mask & ~b_mask & ~a2_mask
            wp = float(w_l[p_mask].sum())
            if float(w_l[b_mask].sum()) > c_prime * epsilon * wp:
                return None
            if float(w_l[a2_mask].sum()) > 10.0 * epsilon * wp:
                return None
            pb = p_mask | b_mask
            pb_u, pb_v = pb[lu_l], pb[lv_l]
            if math.isfinite(bound):
                a1_cut = float(ec_l[(a1_mask[lu_l] & pb_v) | (a1_mask[lv_l] & pb_u)].sum())
                if a1_cut > bound * wp:
                    return None
                out_cut = float(ec_l[(pb_u & out_v_l & ~pb_v) | (pb_v & out_u_l & ~pb_u)].sum())
                if out_cut > bound * wp:
                    return None
            phi = float(ec_l[(p_mask[lu_l] & ~pb_v) | (p_mask[lv_l] & ~pb_u)].sum()) / wp
            return (phi, -wp, r), (r, p_mask, b_mask, a1_mask, a2_mask, phi)

        best = least_exact(visit[visit_start[j]:visit_start[j + 1]], phi_lb, evaluate)
        yield vertex[ss][:-1], best


def refine_and_discard(c: CrudePartition, e: Embedding) -> PartialPartition:
    """Steps 3 and 4: one threshold sweep over the rounds, then the expansion filter.

    k, epsilon and delta are the effective Step-2 values of c.effective.  Every
    vertex starts in R'_P (Sigma u R_P) or R'_B (Gamma u R_B); a kept tuple
    relabels the members of its round.
    """
    k, epsilon, delta = c.effective.k, c.effective.epsilon, c.effective.delta
    if e.k_prime < k:
        raise ValueError("embedding has fewer eigenpairs than k")
    g = e.graph
    lam_k = float(e.basis.eigenvalues[k - 1])
    c_prime = BUFFER_SLACK / delta
    c_dprime = EXPANSION_SLACK / delta
    bound = (c_dprime / epsilon) * lam_k * math.log(k) if epsilon > 0 else math.inf
    w = g.weights

    sigma_rp = (c.label == -1) | ((c.label >= 0) & (c.label % 2 == 0))
    label = np.where(sigma_rp, -1, -2)
    refinable = np.bincount(c.label[sigma_rp & (c.label >= 0)] >> 1,
                            minlength=c.draws.size) > 0
    phis, thresholds, round_index = [], [], []
    refined = infeasible_rounds = 0
    sweep = _step3_rounds(c.label, refinable, g, e.mu, sigma_rp, epsilon, c_prime, bound)
    for j, (members, best) in zip(np.flatnonzero(refinable).tolist(), sweep):
        refined += best is not None
        infeasible_rounds += best is None
        # Step 4 in the same pass: a refined tuple above the expansion bound
        # leaves its round in the leftovers like an infeasible round.
        if best is None or best[-1] > bound:
            continue
        r, *masks, phi = best
        if not masks[0].any():
            raise AssertionError("kept tuple with an empty core")
        for role, mask in enumerate(masks):         # P, B, A', A''
            label[members[mask[:-1]]] = 4 * len(phis) + role
        phis.append(phi)
        thresholds.append(r)
        round_index.append(int(c.draws[j]))

    # Measured leftover-cut aggregate: for each kept tuple i, the total cost
    # from all A' sets and R'_P into P_i u B_i, expressed as a multiple of
    # (lambda_k ln k / eps) w(P_i).  Reported, never asserted.  An edge counts
    # for the tuple of its P or B end when its other end is in A' or R'_P.
    leftover_ratio = 0.0
    if phis and epsilon > 0 and lam_k > 0:
        ends = np.column_stack([label[g.edge_u], label[g.edge_v]])
        source = (ends == -1) | ((ends >= 0) & (ends % 4 == 2))
        pays = source[:, ::-1] & (ends >= 0) & (ends % 4 < 2)
        aggs = _group_sums(ends[pays] >> 2, np.repeat(g.edge_cost, 2)[pays.ravel()], len(phis))
        unit = lam_k * math.log(k) / epsilon
        for agg, wp in zip(aggs, _group_sums(label, w, 4 * len(phis))[::4]):
            leftover_ratio = max(leftover_ratio, agg / (unit * wp))

    return PartialPartition(
        label=label, phi=tuple(phis), threshold=tuple(thresholds), round_index=tuple(round_index),
        effective=c.effective,
        diagnostics={
            "expansion_bound": bound,
            "buffer_slack": c_prime,
            "expansion_slack": c_dprime,
            "infeasible_rounds": infeasible_rounds,
            "survivors_step3": refined,
            "kept_theory": len(phis),
            "reject_count": c.reject_count,
            "r_b_prime_weight": float(w[label == -2].sum()),
            "r_b_prime_bound": 16.0 * epsilon * float(w.sum()),
            "leftover_cut_ratio": leftover_ratio,
        })


@dataclass(frozen=True)
class PartialRun:
    partial: PartialPartition
    embedding: Embedding
    restart_index: int
    buffer_mass: float
    # complete_partition(partial, g, k) with its partition_cost, or the
    # PartitionError that completing or costing it raised
    completion: tuple[BufferedPartition, CutReport] | PartitionError
    notes: tuple            # the Step-2 notes, then the max-weight note


def partial_partition(g: Graph, eff: EffectiveParams, k: int, seed: int = 0,
                      restarts: int = RESTARTS) -> PartialRun:
    """Steps 1-4 of one rung from its Step-2 record eff; returns the best restart.

    eff comes from resolve_step2: nothing here validates or derives a
    parameter.  A run is accepted when w(R_B) + sum_t w(Btilde_t) <= 16 eps w(V)
    (the Step-2 acceptance event), up to a rounding slack of 1e-12 w(V).
    Accepted runs rank by the max buffered expansion of their
    complete_partition() into k parts, ties going to the lower restart index;
    a run whose completion raises PartitionError ranks last.  The tuple count
    does not rank runs: singleton fragments raise it without lowering the
    expansion.
    """
    e = embed(eigenbasis(normalized_laplacian(g), eff.k), g)
    notes = eff.notes
    w_max, total = float(g.weights.max()), g.total_weight
    w_cap = eff.epsilon * total / (3.0 * eff.k)
    if eff.epsilon > 0 and w_max > w_cap:
        notes += (f"max vertex weight {w_max!r} exceeds eps*w(V)/(3k) = {w_cap!r}; "
                  f"the weighted guarantee is not in force",)

    best: PartialRun | None = None
    best_completed = math.inf
    rejected = []
    for restart in range(restarts):
        crude = crude_partition(e, eff, RandomStream(seed, "partition", restart))
        mass = crude.buffer_mass(g)
        if not mass <= (16.0 * eff.epsilon + 1e-12) * total:
            rejected.append({"restart": restart, "accepted": False, "buffer_mass": mass})
            continue
        pp = refine_and_discard(crude, e)
        try:
            bp = complete_partition(pp, g, k)
            completion = (bp, partition_cost(g, bp))
            completed = completion[1].max_expansion
        except PartitionError as exc:
            completion, completed = exc, math.inf
        if best is None or completed < best_completed:
            best_completed = completed
            best = PartialRun(partial=pp, embedding=e, restart_index=restart,
                              buffer_mass=mass, completion=completion, notes=notes)
    if best is None:
        raise PartitionError(
            f"all {restarts} restarts failed the Step-2 acceptance check; "
            f"attempts: {rejected}")
    return best


def complete_partition(pp: PartialPartition, g: Graph, k_target: int) -> BufferedPartition:
    """Keep the k_target-1 tuples of lowest expansion; fold the rest into one part.

    Tuples sort by (phi, -w(P), index): the lowest buffered expansion first,
    then the heavier core, then the earlier tuple.  The first k_target-1
    survive as-is, in that order, and the final part takes R'_P, every A',
    and the remaining cores, with R'_B, every A'', and the remaining buffers
    as its buffer: one table maps each partial label to its final one.
    Raises PartitionError when fewer than k_target tuples exist or a part's
    buffer is not lighter than its core.
    """
    k_prime = pp.k_prime
    if k_target < 1:
        raise ValueError("k_target must be at least 1")
    if k_target > k_prime:
        raise PartitionError(
            f"partial partition has only {k_prime} tuples but {k_target} parts were "
            f"requested; rerun with a larger delta slack")
    core_weight = _group_sums(pp.label, g.weights, 4 * k_prime)[::4]
    order = sorted(range(k_prime), key=lambda i: (pp.phi[i], -core_weight[i], i))
    # Indexed by partial label + 2: R'_B, R'_P, then P, B, A', A'' of each tuple.
    last = 2 * (k_target - 1)
    table = np.array([last + 1, last] + [last, last + 1] * (2 * k_prime), dtype=np.int64)
    for rank, i in enumerate(order[:k_target - 1]):
        table[2 + 4 * i:4 + 4 * i] = 2 * rank, 2 * rank + 1
    label = table[pp.label + 2]

    sums = _group_sums(label, g.weights, 2 * k_target)
    realized = max(wb / wp for wp, wb in zip(sums[::2], sums[1::2]))
    if realized >= 1.0:
        raise PartitionError(
            f"completion produced a buffer ratio {realized!r} >= 1; the output is not "
            f"a buffered partition (rerun with a larger delta slack)")
    # Nudge the reported budget up a hair so the exact <= re-check cannot
    # trip on the rounding of (w_b/w_p) * w_p.
    budget = realized * (1.0 + 1e-12) if realized > 0.0 else 0.0
    return BufferedPartition(label=label, k=k_target, epsilon=budget)


def lifted_k(k: int, delta: float, n: int) -> int:
    """k_hat = min(floor((1 + delta) k), n), the embedding dimension of a run."""
    return min(math.floor((1.0 + delta) * k), n)


def buffered_k_partition(g: Graph, k: int, epsilon: float, delta: float, seed: int = 0,
                         restarts: int = RESTARTS):
    """End-to-end driver: partial partition at lifted parameters, then completion.

    Validates (k, epsilon, delta) and derives the Step-2 record of the run
    once (module docstring).  Returns (BufferedPartition, CutReport, info dict
    holding the certificate).
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k must lie in [2, n={g.n}], got {k}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0,1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    k_hat = lifted_k(k, delta, g.n)
    # (1 - 1/sqrt(1 + delta))/2 without its cancellation, which gives 0 for delta <= 2e-16
    s = math.sqrt(1.0 + delta)
    delta_hat = min(delta / (2.0 * s * (1.0 + s)), 1.0 / 80.0)
    k_prime_guess = math.ceil((1.0 - 2.0 * delta_hat) * k_hat)
    delta_slack = (k_prime_guess - k + 1) / k_prime_guess
    if delta_slack <= 0:
        delta_slack = 1.0 / k_hat
    eps_hat = epsilon * delta_slack / 54.0

    eff = resolve_step2(g.n, k_hat, eps_hat, delta_hat)
    run = partial_partition(g, eff, k, seed, restarts)
    if isinstance(run.completion, PartitionError):
        raise run.completion
    bp, report = run.completion
    cert = certify_run(g, k, epsilon, bp, report, run.embedding.basis)
    info = {
        "k": k, "epsilon": epsilon, "delta": delta,
        "k_hat": k_hat, "delta_hat": delta_hat,
        "delta_slack": delta_slack, "eps_hat": eps_hat,
        "tuples": run.partial.k_prime,
        "effective": eff.to_dict(),
        "restart_index": run.restart_index,
        "partial_diagnostics": run.partial.diagnostics,
        "run_notes": list(run.notes),
        "tuple_target_met": run.partial.k_prime >= (1.0 - 2.0 * eff.delta) * eff.k,
        "certificate": cert.to_dict(),
    }
    return bp, report, info
