"""Multi-round buffered partitioning via measure-constrained separators.

Step 1 embeds the graph with the bottom-k eigenvectors.  Step 2 repeatedly
draws two-buffer separators over the unit directions psi(u) with measure mu
and keeps the bookkeeping

    Ptilde_t = X_t minus everything touched before
    Btilde_t = (X_t u Y_t) minus (Sigma_t u Gamma_{t-1})
    R_P      = never touched        R_B = touched but unassigned

The draws come from separators.measured_draws(), which evaluates them in
blocks and yields only the draws that reach a vector; a draw that reaches
nothing changes no set.  Each reached draw's bookkeeping touches only the
indices of X u Y u Z, and a RoundRecord is kept only for a round whose
Ptilde or Btilde is non-empty, under its draw index.  Steps 3 and 4 read
nothing else, so the records of the other draws would change no result.

Step 3 refines each round by a threshold search over the member measures (a
strictly stronger replacement for the probabilistic-method existence argument:
it finds a feasible threshold whenever one exists), on arrays restricted to
the round's members and their incident edges.  It is the shared threshold
search of graph.py: graph.interval_sums gives every candidate's weights and
cuts with one stated float error bound and prunes; graph.least_exact
evaluates the survivors with the exact masked sums in ascending order of a
phi lower bound, and those alone pick the threshold, so the result is that of
the exhaustive search.  Step 4 runs in the same pass: a refined tuple whose
buffered expansion exceeds the expansion-slack bound goes back to the
leftovers, like a round with no feasible threshold.  complete_partition()
keeps the k-1 tuples of lowest buffered expansion as parts and folds the
leftovers and the other tuples into the last part; partial_partition() keeps
the restart whose completion has the lowest max expansion, the quantity the
paper bounds.

Desk-scale practicality: the certified probability scale alpha of the Step-2
separator family is astronomically small for every usable (k, delta) pairing
(threshold t in the dozens, alpha below 1e-300), so runs fall back to a
practical scale alpha = min(Phi_bar(1), 1/n) unless the certified scale is
itself usable.  The min-ball rejection enforces the separator's separation
condition on every draw regardless of alpha, so every structural guarantee
survives; the fallback is recorded in the run diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import certify_run
from .graph import (UNIT, BufferedPartition, CutReport, Graph, PartitionError, interval_sums,
                    least_exact, partition_cost)
from .rng import RandomStream, derive_stream
from .separators import (CalibrationError, SeparatorParams, calibrate,
                         measured_draws, practical_params)
from .spectral import Embedding, embed, eigenbasis, normalized_laplacian

__all__ = [
    "EffectiveParams",
    "RoundRecord",
    "CrudePartition",
    "RefinedTuple",
    "PartialPartition",
    "resolve_step2",
    "crude_partition",
    "refine_and_discard",
    "partial_partition",
    "complete_partition",
    "lifted_k",
    "buffered_k_partition",
]

ALPHA_FLOOR = 1e-3         # below this a certified scale cannot fire at desk scale
PRACTICAL_ALPHA_MIN = 1e-4
PRACTICAL_ALPHA_MAX = 0.15865525393145707   # Phi_bar(1)
MAX_ROUNDS = 20000
BUFFER_SLACK = 192.0       # Step 3 buffer slack c' = BUFFER_SLACK / delta
EXPANSION_SLACK = 10.0     # Step 4 expansion slack c'' = EXPANSION_SLACK / delta
RESTARTS = 8


@dataclass(frozen=True)
class EffectiveParams:
    """Step-2 parameters after the standard adjustments."""

    k: int
    epsilon: float          # clamped to min(epsilon, delta)
    delta: float            # raised to max(delta, 1/(3k))
    radius: float           # sqrt(delta/6)
    delta_sep: float        # delta/(2k), the separator's measure slack
    m: float                # 2/delta_sep
    rounds: int
    params: SeparatorParams
    notes: tuple

    def to_dict(self) -> dict:
        return {
            "k": self.k, "epsilon": self.epsilon, "delta": self.delta,
            "radius": self.radius, "delta_sep": self.delta_sep, "m": self.m,
            "rounds": self.rounds, "threshold": self.params.t,
            "alpha": self.params.alpha, "calibrated": self.params.calibrated,
            "notes": list(self.notes),
        }


def resolve_step2(n_vectors: int, k: int, epsilon: float, delta: float) -> EffectiveParams:
    """Apply the epsilon/delta adjustments and fix the separator scale and round count."""
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

    params: SeparatorParams | None = None
    try:
        cand = calibrate(eps_eff, m, radius)
        if cand.alpha >= ALPHA_FLOOR:
            params = cand
        else:
            notes.append(
                f"certified scale alpha={cand.alpha!r} (t={cand.t!r}) cannot fire "
                f"at this sample budget; using the practical scale")
    except CalibrationError as exc:
        notes.append(f"calibration infeasible ({exc}); using the practical scale")
    if params is None:
        alpha = min(PRACTICAL_ALPHA_MAX, max(1.0 / n_vectors, PRACTICAL_ALPHA_MIN))
        params = practical_params(eps_eff, m, radius, alpha)

    rounds = math.ceil(2.0 / params.alpha * math.log(1.0 / delta_eff))
    if rounds > MAX_ROUNDS:
        rounds = MAX_ROUNDS
        notes.append(f"round count capped at {MAX_ROUNDS}")
    return EffectiveParams(k=k, epsilon=eps_eff, delta=delta_eff, radius=radius,
                           delta_sep=delta_sep, m=m, rounds=rounds, params=params,
                           notes=tuple(notes))


@dataclass(frozen=True)
class RoundRecord:
    index: int              # the draw index t of the round
    p_tilde: np.ndarray
    b_tilde: np.ndarray


@dataclass(frozen=True)
class CrudePartition:
    rounds: tuple           # RoundRecord of each round with a non-empty Ptilde or Btilde
    sigma: np.ndarray
    gamma: np.ndarray
    r_p: np.ndarray
    r_b: np.ndarray
    effective: EffectiveParams
    reject_count: int

    def buffer_mass(self, g: Graph) -> float:
        """w(R_B) + sum_t w(Btilde_t), the Step-2 acceptance quantity."""
        mass = g.weight_of(self.r_b)
        for rec in self.rounds:
            if rec.b_tilde.size:
                mass += g.weight_of(rec.b_tilde)
        return mass


def crude_partition(e: Embedding, k: int, epsilon: float, delta: float,
                    rng: RandomStream,
                    effective: EffectiveParams | None = None) -> CrudePartition:
    """Step 2: T separator draws with the crude-partition bookkeeping."""
    n = e.graph.n
    eff = effective if effective is not None else resolve_step2(n, k, epsilon, delta)
    sigma = np.zeros(n, dtype=bool)
    gamma = np.zeros(n, dtype=bool)
    touched = np.zeros(n, dtype=bool)
    rounds: list[RoundRecord] = []
    rejects = 0
    draws = measured_draws(e.psi, e.mu, eff.epsilon, eff.delta_sep, eff.radius, rng,
                           eff.rounds, params=eff.params)
    for t, s in draws:          # a rejected draw has empty sets and changes nothing
        rejects += s.rejected
        # Index work on X u Y u Z only.
        p_tilde = s.x[~touched[s.x]]
        sigma[p_tilde] = True
        xy = np.union1d(s.x, s.y) if s.y.size else s.x
        b_tilde = xy[~sigma[xy] & ~gamma[xy]]
        gamma[b_tilde] = True
        touched[s.x] = True
        touched[s.y] = True
        touched[s.z] = True     # a draw that only adds Z still moves it from R_P to R_B
        if p_tilde.size or b_tilde.size:
            rounds.append(RoundRecord(index=t, p_tilde=p_tilde, b_tilde=b_tilde))
    r_p = np.flatnonzero(~touched)
    r_b = np.flatnonzero(touched & ~sigma & ~gamma)
    crude = CrudePartition(rounds=tuple(rounds), sigma=np.flatnonzero(sigma),
                           gamma=np.flatnonzero(gamma), r_p=r_p, r_b=r_b,
                           effective=eff, reject_count=rejects)
    _assert_crude_structure(crude, n)
    return crude


def _assert_crude_structure(c: CrudePartition, n: int) -> None:
    sets = [arr for rec in c.rounds for arr in (rec.p_tilde, rec.b_tilde) if arr.size]
    coverage = np.bincount(np.concatenate(sets + [c.r_p, c.r_b]), minlength=n)
    if np.any(coverage != 1):
        raise AssertionError("crude partition bookkeeping violated Sigma u Gamma u R_P u R_B = V")


@dataclass(frozen=True)
class RefinedTuple:
    round_index: int
    p: np.ndarray
    b: np.ndarray
    a_prime: np.ndarray
    a_double: np.ndarray
    threshold: float
    phi: float


@dataclass(frozen=True)
class PartialPartition:
    tuples: tuple
    r_p_prime: np.ndarray
    r_b_prime: np.ndarray
    effective: EffectiveParams
    lambda_k: float
    diagnostics: dict

    @property
    def k_prime(self) -> int:
        return len(self.tuples)

    def max_phi(self) -> float:
        return max((t.phi for t in self.tuples), default=math.inf)


def _round_threshold(mu_l, w_l, pt, bt, lu, lv, ec_l, out_u, out_v,
                     epsilon: float, c_prime: float, bound: float):
    """Step 3 on one round: the feasible threshold r of least (phi, -w(P), r).

    The arguments are the round's local view built by refine_and_discard();
    returns (r, p_mask, b_mask, a1_mask, a2_mask, phi), or None when no
    threshold is feasible.

    The candidates are the members' unique mu in ascending order, and
    lo = r/(1+eps), lo2 = lo/(1+eps) are nondecreasing in r.  Membership is
    monotone in r: a Ptilde slot is in P while r <= mu, a member is in
    P u B while lo <= mu, a Ptilde slot is in A'' while lo2 < mu < lo and in
    A' once mu < lo and mu <= lo2.  So each set holds a slot on one interval
    of candidate indices, each filtered cut counts an edge on at most two
    disjoint intervals, and graph.interval_sums gives w(P), w(B), w(A''), the
    a1, out and phi cuts of every candidate with its error bound.  A
    candidate is dropped when its P is empty or it breaks a filter by more
    than those bounds (the 1 -/+ 4u factors absorb the rounding of the
    comparison); graph.least_exact visits the rest by ascending phi lower
    bound, and the exact masked sums alone decide feasibility, phi and the key.
    """
    cands = np.unique(mu_l[:-1])
    count = cands.size
    los = cands / (1.0 + epsilon)        # the same expressions as the masks below
    lo2s = los / (1.0 + epsilon)
    # Slot s is in P for i < p_end[s], in B for p_end[s] <= i < pb_end[s], in
    # A'' for pb_end[s] <= i < a2_end[s] and in A' for i >= a1_start[s].  The
    # sentinel slot is in none of them.
    p_end = np.where(pt, np.searchsorted(cands, mu_l, "right"), 0)
    pb_end = np.where(pt | bt, np.searchsorted(los, mu_l, "right"), 0)
    a2_end = np.where(pt, np.searchsorted(lo2s, mu_l, "left"), 0)
    a1_start = np.where(pt, np.maximum(pb_end, a2_end), count)

    def cut_sweep(first, last, cost_v, cost_u):
        """Per edge: cost_v on [first[v], last[u]) plus cost_u on [first[u], last[v])."""
        return interval_sums(np.concatenate([first[lv], first[lu]]),
                             np.concatenate([last[lu], last[lv]]),
                             np.concatenate([cost_v, cost_u]), count)

    wp_a, tol_p = interval_sums(np.zeros_like(p_end), p_end, w_l, count)
    wb_a, tol_b = interval_sums(p_end, pb_end, w_l, count)
    wa2_a, tol_a2 = interval_sums(pb_end, a2_end, w_l, count)
    wp_hi = (wp_a + tol_p) * (1.0 + 4.0 * UNIT)
    lower = 1.0 - 4.0 * UNIT
    feasible = (np.arange(count) < p_end.max()) & ~(
        (wb_a - tol_b) * lower > c_prime * epsilon * wp_hi) & ~(
        (wa2_a - tol_a2) * lower > 10.0 * epsilon * wp_hi)
    if math.isfinite(bound):
        a1_a, tol_a1 = cut_sweep(a1_start, pb_end, ec_l, ec_l)
        out_a, tol_out = cut_sweep(pb_end, pb_end, np.where(out_v, ec_l, 0.0),
                                   np.where(out_u, ec_l, 0.0))
        with np.errstate(over="ignore"):     # to inf, as bound * wp may below
            limit = bound * wp_hi
        feasible &= ~((a1_a - tol_a1) * lower > limit) & ~((out_a - tol_out) * lower > limit)
    cand = np.flatnonzero(feasible)
    phi_a, tol_phi = cut_sweep(pb_end, p_end, ec_l, ec_l)
    # phi_lb <= the exact phi; (1 - 8u) absorbs the rounding of these four
    # operations and of the exact division, and phi >= 0 always.
    phi_lb = np.maximum((phi_a[cand] - tol_phi) / (wp_a[cand] + tol_p) * (1.0 - 8.0 * UNIT),
                        0.0)

    def evaluate(i: int):
        r = float(cands[cand[i]])
        p_mask = pt & (mu_l >= r)
        lo = r / (1.0 + epsilon)
        b_mask = (bt & (mu_l >= lo)) | (pt & (mu_l >= lo) & (mu_l < r))
        a2_mask = pt & (mu_l > lo / (1.0 + epsilon)) & (mu_l < lo)
        # A' is the untouched remainder of Ptilde; for eps > 0 this is
        # exactly {mu <= r/(1+eps)^2}, and it keeps the bands tiling when
        # eps = 0 collapses the interval endpoints.
        a1_mask = pt & ~p_mask & ~b_mask & ~a2_mask
        wp = float(w_l[p_mask].sum())
        if float(w_l[b_mask].sum()) > c_prime * epsilon * wp:
            return None
        if float(w_l[a2_mask].sum()) > 10.0 * epsilon * wp:
            return None
        pb = p_mask | b_mask
        pb_u, pb_v = pb[lu], pb[lv]
        if math.isfinite(bound):
            a1_cut = float(ec_l[(a1_mask[lu] & pb_v) | (a1_mask[lv] & pb_u)].sum())
            if a1_cut > bound * wp:
                return None
            out_cut = float(ec_l[(pb_u & out_v & ~pb_v) | (pb_v & out_u & ~pb_u)].sum())
            if out_cut > bound * wp:
                return None
        phi_cut = float(ec_l[(p_mask[lu] & ~pb_v) | (p_mask[lv] & ~pb_u)].sum())
        phi = phi_cut / wp
        return (phi, -wp, r), (r, p_mask, b_mask, a1_mask, a2_mask, phi)

    return least_exact(np.argsort(phi_lb, kind="stable"), phi_lb, evaluate)


def refine_and_discard(c: CrudePartition, e: Embedding, g: Graph, k: int,
                       epsilon: float, delta: float) -> PartialPartition:
    """Steps 3 and 4: per-round threshold search, then the expansion filter.

    epsilon/delta are the effective Step-2 values (crude.effective carries them).
    """
    if e.k_prime < k:
        raise ValueError("embedding has fewer eigenpairs than k")
    n = g.n
    lam_k = float(e.basis.eigenvalues[k - 1])
    c_prime = BUFFER_SLACK / delta
    c_dprime = EXPANSION_SLACK / delta
    bound = (c_dprime / epsilon) * lam_k * math.log(k) if epsilon > 0 else math.inf
    mu = e.mu
    w = g.weights
    eu, ev, ec = g.edge_u, g.edge_v, g.edge_cost

    sigma_rp = np.zeros(n, dtype=bool)
    sigma_rp[c.sigma] = True
    sigma_rp[c.r_p] = True

    r_p_prime = np.zeros(n, dtype=bool)
    r_b_prime = np.zeros(n, dtype=bool)
    r_p_prime[c.r_p] = True
    r_b_prime[c.r_b] = True

    local = np.full(n, -1, dtype=np.int64)    # vertex -> index in the current round
    kept: list[RefinedTuple] = []    # in draw order, as c.rounds is
    refined = infeasible_rounds = 0
    for rec in c.rounds:
        if rec.p_tilde.size == 0:
            r_b_prime[rec.b_tilde] = True
            continue
        # Local view of the round: its members in index order plus a sentinel
        # slot at the end (never selected) that non-member endpoints reach as
        # index -1, and the member-incident edges in global edge order.  The
        # masked sums of _round_threshold() select the same elements in the
        # same order as global masks would, so phi, thresholds and tie-breaks
        # are unchanged.
        members = np.union1d(rec.p_tilde, rec.b_tilde)
        size = members.size
        pt = np.zeros(size + 1, dtype=bool)
        pt[np.searchsorted(members, rec.p_tilde)] = True
        bt = np.zeros(size + 1, dtype=bool)
        bt[:size] = ~pt[:size]
        mu_l = np.append(mu[members], 0.0)
        w_l = np.append(w[members], 0.0)
        local[members] = np.arange(size)
        incident = np.flatnonzero((local[eu] >= 0) | (local[ev] >= 0))
        lu, lv = local[eu[incident]], local[ev[incident]]
        ec_l = ec[incident]
        out_u = sigma_rp[eu[incident]] & ~pt[lu]
        out_v = sigma_rp[ev[incident]] & ~pt[lv]
        local[members] = -1

        best = _round_threshold(mu_l, w_l, pt, bt, lu, lv, ec_l, out_u, out_v,
                                epsilon, c_prime, bound)
        refined += best is not None
        infeasible_rounds += best is None
        # Step 4 in the same pass: a refined tuple above the expansion bound
        # returns its round to the leftovers like an infeasible round.
        if best is None or best[-1] > bound:
            r_p_prime[rec.p_tilde] = True
            r_b_prime[rec.b_tilde] = True
            continue
        r, p_mask, b_mask, a1_mask, a2_mask, phi = best
        kept.append(RefinedTuple(
            round_index=rec.index, p=members[p_mask[:size]], b=members[b_mask[:size]],
            a_prime=members[a1_mask[:size]], a_double=members[a2_mask[:size]],
            threshold=r, phi=phi))
        r_b_prime[members[(bt & ~b_mask)[:size]]] = True

    # Measured leftover-cut aggregate: for each kept tuple i, the total cost
    # from all A' sets and R'_P into P_i u B_i, expressed as a multiple of
    # (lambda_k ln k / eps) w(P_i).  Reported, never asserted.
    leftover_ratio = 0.0
    if kept and epsilon > 0 and lam_k > 0:
        a_and_rp = r_p_prime.copy()
        for t in kept:
            a_and_rp[t.a_prime] = True
        unit = lam_k * math.log(k) / epsilon
        for t in kept:
            pb = np.zeros(n, dtype=bool)
            pb[t.p] = True
            pb[t.b] = True
            agg = float(ec[(a_and_rp[eu] & pb[ev]) | (a_and_rp[ev] & pb[eu])].sum())
            leftover_ratio = max(leftover_ratio, agg / (unit * float(w[t.p].sum())))

    pp = PartialPartition(
        tuples=tuple(kept),
        r_p_prime=np.flatnonzero(r_p_prime), r_b_prime=np.flatnonzero(r_b_prime),
        effective=c.effective, lambda_k=lam_k,
        diagnostics={
            "expansion_bound": bound,
            "buffer_slack": c_prime,
            "expansion_slack": c_dprime,
            "infeasible_rounds": infeasible_rounds,
            "survivors_step3": refined,
            "kept_theory": len(kept),
            "reject_count": c.reject_count,
            "r_b_prime_weight": float(w[r_b_prime].sum()),
            "r_b_prime_bound": 16.0 * epsilon * float(w.sum()),
            "leftover_cut_ratio": leftover_ratio,
        })
    _assert_partial_structure(pp, n)
    return pp


def _assert_partial_structure(pp: PartialPartition, n: int) -> None:
    coverage = np.zeros(n, dtype=np.int64)
    for t in pp.tuples:
        for arr in (t.p, t.b, t.a_prime, t.a_double):
            coverage[arr] += 1
    coverage[pp.r_p_prime] += 1
    coverage[pp.r_b_prime] += 1
    if np.any(coverage != 1):
        bad = int(np.argmax(coverage != 1))
        raise AssertionError(f"partial partition sets do not tile V (vertex {bad})")
    for t in pp.tuples:
        if t.p.size == 0:
            raise AssertionError("kept tuple with an empty core")


@dataclass(frozen=True)
class PartialRun:
    partial: PartialPartition
    embedding: Embedding
    restart_index: int
    buffer_mass: float
    # complete_partition(partial, g, k_target) with its partition_cost, or the
    # PartitionError that completing or costing it raised
    completion: tuple[BufferedPartition, CutReport] | PartitionError
    diagnostics: dict


def partial_partition(g: Graph, k: int, epsilon: float, delta: float, seed: int = 0,
                      k_target: int | None = None, restarts: int = RESTARTS) -> PartialRun:
    """Steps 1-4 with restarts; returns the best accepted run.

    A run is accepted when w(R_B) + sum_t w(Btilde_t) <= 16 eps w(V) (the
    Step-2 acceptance event).  Accepted runs rank by the max buffered
    expansion of their complete_partition() into k_target parts (default k),
    ties going to the lower restart index; a run whose completion raises
    PartitionError ranks last.  The tuple count does not rank runs: singleton
    fragments raise it without lowering the expansion.
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k must lie in [2, n={g.n}], got {k}")
    k_target = k if k_target is None else k_target
    basis = eigenbasis(normalized_laplacian(g), k)
    e = embed(basis, g)
    eff = resolve_step2(g.n, k, epsilon, delta)
    notes = list(eff.notes)
    w_cap = eff.epsilon * g.total_weight / (3.0 * k)
    if eff.epsilon > 0 and float(g.weights.max()) > w_cap:
        notes.append(
            f"max vertex weight {float(g.weights.max())!r} exceeds eps*w(V)/(3k) = {w_cap!r}; "
            f"the weighted guarantee is not in force")

    best: PartialRun | None = None
    best_completed = math.inf
    attempts = []
    for restart in range(restarts):
        stream = derive_stream(seed, "partition", restart)
        crude = crude_partition(e, k, epsilon, delta, stream, effective=eff)
        mass = crude.buffer_mass(g)
        accepted = mass <= 16.0 * eff.epsilon * g.total_weight + 1e-12
        if not accepted:
            attempts.append({"restart": restart, "accepted": False, "buffer_mass": mass})
            continue
        pp = refine_and_discard(crude, e, g, k, eff.epsilon, eff.delta)
        try:
            bp = complete_partition(pp, g, k_target)
            completion = (bp, partition_cost(g, bp))
            completed = completion[1].max_expansion
        except PartitionError as exc:
            completion, completed = exc, math.inf
        attempts.append({"restart": restart, "accepted": True, "buffer_mass": mass,
                         "tuples": pp.k_prime, "max_phi": pp.max_phi(),
                         "completed_max_phi": completed if completed < math.inf else None})
        if best is None or completed < best_completed:
            best_completed = completed
            best = PartialRun(partial=pp, embedding=e, restart_index=restart,
                              buffer_mass=mass, completion=completion,
                              diagnostics={"notes": notes, "attempts": attempts})
    if best is None:
        raise PartitionError(
            f"all {restarts} restarts failed the Step-2 acceptance check; "
            f"attempts: {attempts}")
    target = (1.0 - 2.0 * eff.delta) * k
    best.diagnostics["tuple_target"] = target
    best.diagnostics["tuple_target_met"] = best.partial.k_prime >= target
    return best


def complete_partition(pp: PartialPartition, g: Graph, k_target: int) -> BufferedPartition:
    """Keep the k_target-1 tuples of lowest expansion; fold the rest into one part.

    Tuples sort by (phi, -w(P), index): the lowest buffered expansion first,
    then the heavier core, then the earlier tuple.  The first k_target-1
    survive as-is, in that order, and the final part takes R'_P, every A',
    and the remaining cores, with R'_B, every A'', and the remaining buffers
    as its buffer.  Raises PartitionError when fewer than k_target tuples
    exist or a part's buffer is not lighter than its core.
    """
    k_prime = pp.k_prime
    if k_target < 1:
        raise ValueError("k_target must be at least 1")
    if k_target > k_prime:
        raise PartitionError(
            f"partial partition has only {k_prime} tuples but {k_target} parts were "
            f"requested; rerun with a larger delta slack")
    order = sorted(range(k_prime),
                   key=lambda i: (pp.tuples[i].phi, -float(g.weights[pp.tuples[i].p].sum()), i))
    kept = order[:k_target - 1]
    merged = order[k_target - 1:]
    parts = [pp.tuples[i].p for i in kept]
    buffers = [pp.tuples[i].b for i in kept]
    last_part = [pp.r_p_prime] + [pp.tuples[i].a_prime for i in range(k_prime)] + \
                [pp.tuples[i].p for i in merged]
    last_buf = [pp.r_b_prime] + [pp.tuples[i].a_double for i in range(k_prime)] + \
               [pp.tuples[i].b for i in merged]
    parts.append(np.concatenate(last_part))
    buffers.append(np.concatenate(last_buf))

    ratios = []
    for p, b in zip(parts, buffers):
        wp = float(g.weights[p].sum())
        wb = float(g.weights[b].sum()) if b.size else 0.0
        ratios.append(wb / wp)
    realized = max(ratios)
    if realized >= 1.0:
        raise PartitionError(
            f"completion produced a buffer ratio {realized!r} >= 1; the output is not "
            f"a buffered partition (rerun with a larger delta slack)")
    # Nudge the reported budget up a hair so the exact <= re-check cannot
    # trip on the rounding of (w_b/w_p) * w_p.
    budget = realized * (1.0 + 1e-12) if realized > 0.0 else 0.0
    return BufferedPartition.from_sets(parts, buffers, budget)


def lifted_k(k: int, delta: float, n: int) -> int:
    """k_hat = min(floor((1 + delta) k), n), the embedding dimension of a run."""
    return min(math.floor((1.0 + delta) * k), n)


def buffered_k_partition(g: Graph, k: int, epsilon: float, delta: float, seed: int = 0,
                         restarts: int = RESTARTS):
    """End-to-end driver: partial partition at lifted parameters, then completion.

    Returns (BufferedPartition, CutReport, info dict holding the certificate).
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k must lie in [2, n={g.n}], got {k}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0,1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    k_hat = lifted_k(k, delta, g.n)
    delta_hat = min((1.0 - 1.0 / math.sqrt(1.0 + delta)) / 2.0, 1.0 / 80.0)
    k_prime_guess = math.ceil((1.0 - 2.0 * delta_hat) * k_hat)
    delta_slack = (k_prime_guess - k + 1) / k_prime_guess
    if delta_slack <= 0:
        delta_slack = 1.0 / k_hat
    eps_hat = epsilon * delta_slack / 54.0

    run = partial_partition(g, k_hat, eps_hat, delta_hat, seed, k_target=k, restarts=restarts)
    if isinstance(run.completion, PartitionError):
        raise run.completion
    bp, report = run.completion
    cert = certify_run(g, k, epsilon, bp, report, run.embedding.basis)
    info = {
        "k": k, "epsilon": epsilon, "delta": delta,
        "k_hat": k_hat, "delta_hat": delta_hat,
        "delta_slack": delta_slack, "eps_hat": eps_hat,
        "tuples": run.partial.k_prime,
        "effective": run.partial.effective.to_dict(),
        "restart_index": run.restart_index,
        "partial_diagnostics": run.partial.diagnostics,
        "run_notes": run.diagnostics.get("notes", []),
        "tuple_target_met": run.diagnostics.get("tuple_target_met"),
        "certificate": cert.to_dict(),
    }
    return bp, report, info
