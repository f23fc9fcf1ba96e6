"""Multi-round buffered partitioning via measure-constrained separators.

Step 1 embeds the graph with the bottom-k eigenvectors.  Step 2 repeatedly
draws two-buffer separators over the unit directions psi(u) with measure mu
and keeps the bookkeeping

    Ptilde_t = X_t minus everything touched before
    Btilde_t = (X_t u Y_t) minus (Sigma_t u Gamma_{t-1})
    R_P      = never touched        R_B = touched but unassigned

The draws come from separators.measured_draws(), which evaluates them in
blocks; each round's bookkeeping touches only the indices of X u Y u Z.

Step 3 refines each round by an exhaustive threshold search over the member
measures (a strictly stronger replacement for the probabilistic-method
existence argument: it finds a feasible threshold whenever one exists),
evaluated on arrays restricted to the round's members and their incident
edges, and Step 4 discards refined tuples whose buffered expansion exceeds the
expansion-slack bound.  complete_partition() keeps the k-1 tuples of lowest
buffered expansion as parts and folds the leftovers and the other tuples into
the last part; partial_partition() keeps the restart whose completion has the
lowest max expansion, the quantity the paper bounds.

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
from .graph import BufferedPartition, Graph, PartitionError, partition_cost
from .rng import RandomStream, derive_stream
from .separators import (CalibrationError, SeparatorParams, calibrate,
                         measured_draws, practical_params)
from .spectral import Embedding, embed, eigenbasis, normalized_laplacian

__all__ = [
    "AlgoConstants",
    "EffectiveParams",
    "RoundRecord",
    "CrudePartition",
    "EtaCosts",
    "RefinedTuple",
    "PartialPartition",
    "resolve_step2",
    "crude_partition",
    "eta_costs",
    "refine_and_discard",
    "partial_partition",
    "complete_partition",
    "buffered_k_partition",
]

ALPHA_FLOOR = 1e-3         # below this a certified scale cannot fire at desk scale
PRACTICAL_ALPHA_MIN = 1e-4
PRACTICAL_ALPHA_MAX = 0.15865525393145707   # Phi_bar(1)
MAX_ROUNDS = 20000


@dataclass(frozen=True)
class AlgoConstants:
    """Tunable slack multipliers; None picks the per-delta defaults at use."""

    c_prime: float | None = None          # buffer slack, default 192/delta
    c_double_prime: float | None = None   # expansion slack, practical default 10/delta
    max_restarts: int = 8

    def buffer_slack(self, delta: float) -> float:
        return self.c_prime if self.c_prime is not None else 192.0 / delta

    def expansion_slack(self, delta: float) -> float:
        return self.c_double_prime if self.c_double_prime is not None else 10.0 / delta


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
    index: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    p_tilde: np.ndarray
    b_tilde: np.ndarray
    rejected: bool


@dataclass(frozen=True)
class CrudePartition:
    rounds: tuple
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
    """Step 2: T separator rounds with the crude-partition bookkeeping."""
    n = e.graph.n
    eff = effective if effective is not None else resolve_step2(n, k, epsilon, delta)
    sigma = np.zeros(n, dtype=bool)
    gamma = np.zeros(n, dtype=bool)
    touched = np.zeros(n, dtype=bool)
    rounds: list[RoundRecord] = []
    rejects = 0
    draws = measured_draws(e.psi, e.mu, eff.epsilon, eff.delta_sep, eff.radius, rng,
                           eff.rounds, params=eff.params)
    for t, s in enumerate(draws):
        if s.rejected:
            rejects += 1
        if s.is_empty():        # the draw reached nothing: no state changes
            rounds.append(RoundRecord(index=t, x=s.x, y=s.y, z=s.z, p_tilde=s.x,
                                      b_tilde=s.y, rejected=s.rejected))
            continue
        # Index work on X u Y u Z only.
        p_tilde = s.x[~touched[s.x]]
        sigma[p_tilde] = True
        xy = np.union1d(s.x, s.y) if s.y.size else s.x
        b_tilde = xy[~sigma[xy] & ~gamma[xy]]
        gamma[b_tilde] = True
        touched[s.x] = True
        touched[s.y] = True
        touched[s.z] = True
        rounds.append(RoundRecord(
            index=t, x=s.x, y=s.y, z=s.z, p_tilde=p_tilde, b_tilde=b_tilde,
            rejected=s.rejected))
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
class EtaCosts:
    """Edge-boundary estimates eta / eta-tilde for the realized random sets.

    Directed slots: entry i covers the ordered pair (directed_u[i], directed_v[i]);
    both orders of every edge appear.
    """

    directed_u: np.ndarray
    directed_v: np.ndarray
    eta: np.ndarray
    eta_tilde: np.ndarray
    per_round_eta: dict
    per_round_eta_tilde: dict


def eta_costs(c: CrudePartition, e: Embedding, g: Graph, epsilon: float) -> EtaCosts:
    """Exact eta and eta-tilde evaluation over both directed slots of every edge."""
    n = g.n
    round_of_p = -np.ones(n, dtype=np.int64)
    round_of_b = -np.ones(n, dtype=np.int64)
    for rec in c.rounds:
        round_of_p[rec.p_tilde] = rec.index
        round_of_b[rec.b_tilde] = rec.index
    du = np.concatenate([g.edge_u, g.edge_v])
    dv = np.concatenate([g.edge_v, g.edge_u])
    dist2 = ((e.zhat[du] - e.zhat[dv]) ** 2).sum(axis=1)
    inv_eps = (1.0 / epsilon) if epsilon > 0 else math.inf

    eta = np.zeros(du.size)
    in_p = round_of_p[du] >= 0
    same = in_p & ((round_of_p[dv] == round_of_p[du]) | (round_of_b[dv] == round_of_p[du]))
    esc = in_p & ~same
    eta[esc] = e.mu[du[esc]]
    if math.isfinite(inv_eps):
        eta[same] = inv_eps * dist2[same]
    else:
        eta[same] = np.where(dist2[same] > 0.0, math.inf, 0.0)

    eta_tilde = np.zeros(du.size)
    member_round = np.where(round_of_p[du] >= 0, round_of_p[du], round_of_b[du])
    by_round = {rec.index: rec for rec in c.rounds}
    for t in sorted(set(member_round[member_round >= 0].tolist())):
        rec = by_round[t]
        fresh = np.zeros(n, dtype=bool)
        fresh[rec.x] = True
        fresh[rec.y] = True
        fresh[rec.z] = True
        fresh &= ~((round_of_p >= 0) & (round_of_p < t))    # Sigma before round t
        slot = member_round == t
        escapes = slot & ~fresh[dv]
        eta_tilde[escapes] = e.mu[du[escapes]]

    per_round_eta: dict[int, float] = {}
    per_round_eta_tilde: dict[int, float] = {}
    for rec in c.rounds:
        if rec.p_tilde.size or rec.b_tilde.size:
            per_round_eta[rec.index] = float(eta[round_of_p[du] == rec.index].sum())
            per_round_eta_tilde[rec.index] = float(eta_tilde[member_round == rec.index].sum())
    return EtaCosts(directed_u=du, directed_v=dv, eta=eta, eta_tilde=eta_tilde,
                    per_round_eta=per_round_eta, per_round_eta_tilde=per_round_eta_tilde)


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

    def thresholds(self) -> list[float]:
        return [t.threshold for t in self.tuples]


def refine_and_discard(c: CrudePartition, e: Embedding, g: Graph, k: int,
                       epsilon: float, delta: float,
                       consts: AlgoConstants | None = None) -> PartialPartition:
    """Steps 3 and 4: per-round threshold search, then the expansion filter.

    epsilon/delta are the effective Step-2 values (crude.effective carries them).
    """
    consts = consts or AlgoConstants()
    if e.k_prime < k:
        raise ValueError("embedding has fewer eigenpairs than k")
    n = g.n
    lam_k = float(e.basis.eigenvalues[k - 1])
    c_prime = consts.buffer_slack(delta)
    c_dprime = consts.expansion_slack(delta)
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
    survivors: list[RefinedTuple] = []
    infeasible_rounds = 0
    for rec in c.rounds:
        if rec.p_tilde.size == 0:
            if rec.b_tilde.size:
                r_b_prime[rec.b_tilde] = True
            continue
        # Local view of the round: its members in index order plus a sentinel
        # slot at the end (never selected) that non-member endpoints reach as
        # index -1, and the member-incident edges in global edge order.  The
        # masked sums below select the same elements in the same order as
        # global masks would, so phi, thresholds and tie-breaks are unchanged.
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

        best = None
        for r in np.unique(mu_l[:size]):
            p_mask = pt & (mu_l >= r)
            if not p_mask.any():
                continue
            lo = r / (1.0 + epsilon)
            b_mask = (bt & (mu_l >= lo)) | (pt & (mu_l >= lo) & (mu_l < r))
            a2_mask = pt & (mu_l > lo / (1.0 + epsilon)) & (mu_l < lo)
            # A' is the untouched remainder of Ptilde; for eps > 0 this is
            # exactly {mu <= r/(1+eps)^2}, and it keeps the bands tiling when
            # eps = 0 collapses the interval endpoints.
            a1_mask = pt & ~p_mask & ~b_mask & ~a2_mask
            wp = float(w_l[p_mask].sum())
            if float(w_l[b_mask].sum()) > c_prime * epsilon * wp:
                continue
            if float(w_l[a2_mask].sum()) > 10.0 * epsilon * wp:
                continue
            pb = p_mask | b_mask
            pb_u, pb_v = pb[lu], pb[lv]
            if math.isfinite(bound):
                a1_cut = float(ec_l[(a1_mask[lu] & pb_v) | (a1_mask[lv] & pb_u)].sum())
                if a1_cut > bound * wp:
                    continue
                out_cut = float(ec_l[(pb_u & out_v & ~pb_v) | (pb_v & out_u & ~pb_u)].sum())
                if out_cut > bound * wp:
                    continue
            phi_cut = float(ec_l[(p_mask[lu] & ~pb_v) | (p_mask[lv] & ~pb_u)].sum())
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
        survivors.append(RefinedTuple(
            round_index=rec.index, p=members[p_mask[:size]], b=members[b_mask[:size]],
            a_prime=members[a1_mask[:size]], a_double=members[a2_mask[:size]],
            threshold=r, phi=phi))
        r_b_prime[members[(bt & ~b_mask)[:size]]] = True

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

    # Measured leftover-cut aggregate: for each kept tuple i, the total cost
    # from all A' sets and R'_P into P_i u B_i, expressed as a multiple of
    # (lambda_k ln k / eps) w(P_i).  Reported, never asserted: the matching
    # slack constant is configurable.
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

    pp = PartialPartition(
        tuples=tuple(sorted(kept, key=lambda t: t.round_index)),
        r_p_prime=np.flatnonzero(r_p_prime), r_b_prime=np.flatnonzero(r_b_prime),
        effective=c.effective, lambda_k=lam_k,
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
    crude: CrudePartition
    restart_index: int
    buffer_mass: float
    diagnostics: dict


def partial_partition(g: Graph, k: int, epsilon: float, delta: float,
                      consts: AlgoConstants | None = None, seed: int = 0,
                      k_target: int | None = None) -> PartialRun:
    """Steps 1-4 with restarts; returns the best accepted run.

    A run is accepted when w(R_B) + sum_t w(Btilde_t) <= 16 eps w(V) (the
    Step-2 acceptance event).  Accepted runs rank by the max buffered
    expansion of their complete_partition() into k_target parts (default k),
    ties going to the lower restart index; a run whose completion raises
    PartitionError ranks last.  The tuple count does not rank runs: singleton
    fragments raise it without lowering the expansion.
    """
    consts = consts or AlgoConstants()
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
    for restart in range(consts.max_restarts):
        stream = derive_stream(seed, "partition", restart)
        crude = crude_partition(e, k, epsilon, delta, stream, effective=eff)
        mass = crude.buffer_mass(g)
        accepted = mass <= 16.0 * eff.epsilon * g.total_weight + 1e-12
        if not accepted:
            attempts.append({"restart": restart, "accepted": False, "buffer_mass": mass})
            continue
        pp = refine_and_discard(crude, e, g, k, eff.epsilon, eff.delta, consts)
        try:
            completed = partition_cost(g, complete_partition(pp, g, k_target)).max_expansion
        except PartitionError:
            completed = math.inf
        attempts.append({"restart": restart, "accepted": True, "buffer_mass": mass,
                         "tuples": pp.k_prime, "max_phi": pp.max_phi(),
                         "completed_max_phi": completed if completed < math.inf else None})
        if best is None or completed < best_completed:
            best_completed = completed
            best = PartialRun(partial=pp, embedding=e, crude=crude, restart_index=restart,
                              buffer_mass=mass,
                              diagnostics={"notes": notes, "attempts": attempts})
    if best is None:
        raise PartitionError(
            f"all {consts.max_restarts} restarts failed the Step-2 acceptance check; "
            f"attempts: {attempts}")
    target = (1.0 - 2.0 * eff.delta) * k
    best.diagnostics["tuple_target"] = target
    best.diagnostics["tuple_target_met"] = best.partial.k_prime >= target
    best.diagnostics["attempts"] = attempts
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
    parts.append(np.concatenate(last_part) if last_part else np.empty(0, dtype=np.int64))
    buffers.append(np.concatenate(last_buf) if last_buf else np.empty(0, dtype=np.int64))

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


def buffered_k_partition(g: Graph, k: int, epsilon: float, delta: float,
                         consts: AlgoConstants | None = None, seed: int = 0):
    """End-to-end driver: partial partition at lifted parameters, then completion.

    Returns (BufferedPartition, CutReport, certificate dict).
    """
    consts = consts or AlgoConstants()
    if not 2 <= k <= g.n:
        raise ValueError(f"k must lie in [2, n={g.n}], got {k}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0,1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    k_hat = min(math.floor((1.0 + delta) * k), g.n)
    delta_hat = min((1.0 - 1.0 / math.sqrt(1.0 + delta)) / 2.0, 1.0 / 80.0)
    k_prime_guess = math.ceil((1.0 - 2.0 * delta_hat) * k_hat)
    delta_slack = (k_prime_guess - k + 1) / k_prime_guess
    if delta_slack <= 0:
        delta_slack = 1.0 / k_hat
    eps_hat = epsilon * delta_slack / 54.0

    run = partial_partition(g, k_hat, eps_hat, delta_hat, consts, seed, k_target=k)
    bp = complete_partition(run.partial, g, k)
    report = partition_cost(g, bp)
    cert = certify_run(g, k, epsilon, delta, bp, run.embedding.basis)
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
