"""Reference implementations of the Step-2 round loop and the Step-3/4 refinement.

These are the straightforward per-draw and global-mask versions the library
replaced with block evaluation and per-round local arrays.  The oracle tests
require the library to reproduce them exactly.
"""

from __future__ import annotations

import math

import numpy as np

from bufpart.partition import (BUFFER_SLACK, EXPANSION_SLACK, CrudePartition,
                               PartialPartition, RefinedTuple, RoundRecord,
                               resolve_step2)
from bufpart.separators import sample_two_buffers


def reference_crude_partition(e, k, epsilon, delta, rng, effective=None):
    """Step 2 with one sample_two_buffers call and full-length masks per round.

    Returns (CrudePartition, snapshots), where snapshots maps each active round
    (one with a non-empty Ptilde or Btilde) to its full-length Sigma mask from
    before that round.
    """
    n = e.graph.n
    eff = effective if effective is not None else resolve_step2(n, k, epsilon, delta)
    psi, mu = e.psi, e.mu
    sigma = np.zeros(n, dtype=bool)
    gamma = np.zeros(n, dtype=bool)
    touched = np.zeros(n, dtype=bool)
    rounds = []
    snapshots = {}
    rejects = 0
    for t in range(eff.rounds):
        s = sample_two_buffers(psi, mu, eff.epsilon, eff.delta_sep, eff.radius,
                               rng, params=eff.params)
        if s.rejected:
            rejects += 1
        x = np.zeros(n, dtype=bool)
        x[s.x] = True
        xy = x.copy()
        xy[s.y] = True
        xyz = xy.copy()
        xyz[s.z] = True
        snapshot = sigma.copy()
        p_tilde = x & ~touched
        sigma |= p_tilde
        b_tilde = xy & ~sigma & ~gamma
        gamma |= b_tilde
        touched |= xyz
        if p_tilde.any() or b_tilde.any():
            snapshots[t] = snapshot
        rounds.append(RoundRecord(
            index=t, x=s.x, y=s.y, z=s.z,
            p_tilde=np.flatnonzero(p_tilde), b_tilde=np.flatnonzero(b_tilde),
            rejected=s.rejected))
    r_p = np.flatnonzero(~touched)
    r_b = np.flatnonzero(touched & ~sigma & ~gamma)
    crude = CrudePartition(rounds=tuple(rounds), sigma=np.flatnonzero(sigma),
                           gamma=np.flatnonzero(gamma), r_p=r_p, r_b=r_b,
                           effective=eff, reject_count=rejects)
    return crude, snapshots


def reference_refine_and_discard(c, e, g, k, epsilon, delta) -> PartialPartition:
    """Steps 3 and 4 with full-length vertex and edge masks for every candidate r."""
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
            if float(w[b_mask].sum()) > c_prime * epsilon * wp:
                continue
            if float(w[a2_mask].sum()) > 10.0 * epsilon * wp:
                continue
            pb = p_mask | b_mask
            if math.isfinite(bound):
                a1_cut = float(ec[(a1_mask[eu] & pb[ev]) | (a1_mask[ev] & pb[eu])].sum())
                if a1_cut > bound * wp:
                    continue
                out_cut = float(ec[(pb[eu] & outside_pt[ev] & ~pb[ev]) |
                                   (pb[ev] & outside_pt[eu] & ~pb[eu])].sum())
                if out_cut > bound * wp:
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
        survivors.append(RefinedTuple(
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

    return PartialPartition(
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
