"""Certification: eigenvalue lower bounds, brute-force oracles, robust expansion.

The brute-force oracle realizes the definition of h^{k,eps} by enumerating
every assignment of vertices to {core 1..k, buffer 1..k}, pruned by part-label
symmetry (part indices must appear in first-encounter order).  It is the
ground truth the algorithms are measured against on tiny instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (BufferedPartition, Graph, PartitionError, partition_cost,
                    validate_partition)
from .spectral import SpectralBasis, eigenbasis, normalized_laplacian

__all__ = [
    "Certificate",
    "lower_bound_unbuffered",
    "check_buffered_lower_bound",
    "brute_force_h_k_eps",
    "robust_expansion",
    "certify_run",
]

BRUTE_FORCE_CAP = 10
_CHUNK = 1 << 17


def lower_bound_unbuffered(g: Graph, k: int) -> float:
    """lambda_k / 2: a lower bound on any non-buffered k-partition's max expansion."""
    if not 2 <= k <= g.n:
        raise ValueError(f"k must lie in [2, n={g.n}], got {k}")
    basis = eigenbasis(normalized_laplacian(g), k)
    return float(basis.eigenvalues[k - 1]) / 2.0


def check_buffered_lower_bound(g: Graph, part: BufferedPartition, k: int,
                               tol: float = 1e-9,
                               basis: SpectralBasis | None = None) -> tuple[bool, float]:
    """Evaluate lambda_k <= 2 phi(partition) + eps; returns (passed, slack).

    basis, when given, is a bottom-k' eigenbasis of g with k' >= k that the
    caller already holds; otherwise the bottom-k basis is solved here.

    This inequality always holds when no vertex weight falls below its
    incident edge cost (the default-weight and regular regimes), so a failure
    there means an implementation bug, not a property of the input.
    """
    report = validate_partition(g, part)
    if not report.valid:
        raise PartitionError(f"invalid partition: {report.first()}")
    if len(part.parts) != k:
        raise ValueError(f"partition has {len(part.parts)} parts, expected {k}")
    if basis is None:
        basis = eigenbasis(normalized_laplacian(g), k)
    elif basis.eigenvectors.shape[0] != g.n or basis.k_prime < k:
        raise ValueError(f"basis of shape {basis.eigenvectors.shape} does not hold "
                         f"the bottom {k} eigenpairs of this {g.n}-vertex graph")
    lam = basis.eigenvalues[k - 1]
    phi = partition_cost(g, part).max_expansion
    slack = 2.0 * phi + part.epsilon - float(lam)
    return slack >= -tol, slack


def _canonical_order_mask(labels: np.ndarray, k: int) -> np.ndarray:
    """Keep assignments whose part indices first appear in increasing order."""
    n_assign, n = labels.shape
    parts = labels >> 1
    seen_rank = np.full(n_assign, -1, dtype=np.int64)
    rank = np.zeros((n_assign, k), dtype=np.int64)  # assigned rank per part, -1 if unseen
    rank[:] = -1
    next_rank = np.zeros(n_assign, dtype=np.int64)
    ok = np.ones(n_assign, dtype=bool)
    for j in range(n):
        p = parts[:, j]
        cur = rank[np.arange(n_assign), p]
        new = cur == -1
        # a newly seen part must take the next free rank == its own index order
        rank[np.arange(n_assign)[new], p[new]] = next_rank[new]
        ok &= ~new | (p == next_rank)
        next_rank[new] += 1
    return ok


def _enumerate_assignments(g: Graph, k: int):
    """Yield (labels_chunk, core_w, buf_w, phi) over canonical valid-core assignments.

    labels: vertex -> 2*i (core of part i) or 2*i+1 (buffer of part i).
    phi is the max buffered expansion, independent of the epsilon budget.
    """
    n = g.n
    total = (2 * k) ** n
    w = g.weights
    eu, ev, ec = g.edge_u, g.edge_v, g.edge_cost
    base = np.empty(n, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        count = min(_CHUNK, total - start)
        codes = np.arange(start, start + count, dtype=np.int64)
        labels = np.empty((count, n), dtype=np.int8)
        rem = codes.copy()
        for j in range(n - 1, -1, -1):
            labels[:, j] = rem % (2 * k)
            rem //= 2 * k
        keep = _canonical_order_mask(labels, k)
        labels = labels[keep]
        if labels.shape[0] == 0:
            continue
        count = labels.shape[0]
        core_w = np.zeros((count, k))
        buf_w = np.zeros((count, k))
        for i in range(k):
            core_w[:, i] = ((labels == 2 * i) * w[None, :]).sum(axis=1)
            buf_w[:, i] = ((labels == 2 * i + 1) * w[None, :]).sum(axis=1)
        valid = (core_w > 0.0).all(axis=1)
        labels = labels[valid]
        core_w = core_w[valid]
        buf_w = buf_w[valid]
        if labels.shape[0] == 0:
            continue
        count = labels.shape[0]
        cut = np.zeros((count, k))
        lu = labels[:, eu]
        lv = labels[:, ev]
        for i in range(k):
            cu = lu == 2 * i
            cv = lv == 2 * i
            inside_u = cu | (lu == 2 * i + 1)
            inside_v = cv | (lv == 2 * i + 1)
            crossing = (cu & ~inside_v) | (cv & ~inside_u)
            cut[:, i] = (crossing * ec[None, :]).sum(axis=1)
        phi = (cut / core_w).max(axis=1)
        yield labels, core_w, buf_w, phi


def brute_force_h_k_eps(g: Graph, k: int, epsilon: float,
                        cap: int = BRUTE_FORCE_CAP) -> tuple[float, BufferedPartition]:
    """Exact h^{k,eps} with an optimal witness, by exhaustive enumeration."""
    if g.n > cap:
        raise ValueError(f"brute force capped at n <= {cap} (graph has {g.n})")
    if not 1 <= k <= g.n:
        raise ValueError(f"k must lie in [1, n={g.n}], got {k}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0,1), got {epsilon}")
    best_phi = math.inf
    best_labels: np.ndarray | None = None
    for labels, core_w, buf_w, phi in _enumerate_assignments(g, k):
        feasible = (buf_w <= epsilon * core_w + 0.0).all(axis=1)
        if not feasible.any():
            continue
        idx = np.flatnonzero(feasible)
        local = idx[np.argmin(phi[idx])]
        if phi[local] < best_phi:
            best_phi = float(phi[local])
            best_labels = labels[local].copy()
    if best_labels is None:
        raise PartitionError(f"no feasible {epsilon}-buffered {k}-partition exists")
    parts = [np.flatnonzero(best_labels == 2 * i) for i in range(k)]
    buffers = [np.flatnonzero(best_labels == 2 * i + 1) for i in range(k)]
    witness = BufferedPartition.from_sets(parts, buffers, epsilon)
    return best_phi, witness


def brute_force_many(g: Graph, k: int, epsilons,
                     cap: int = BRUTE_FORCE_CAP) -> dict:
    """h^{k,eps} for several budgets from one enumeration pass (no witnesses)."""
    if g.n > cap:
        raise ValueError(f"brute force capped at n <= {cap} (graph has {g.n})")
    eps_list = [float(e) for e in epsilons]
    best = {e: math.inf for e in eps_list}
    for _, core_w, buf_w, phi in _enumerate_assignments(g, k):
        for e in eps_list:
            feasible = (buf_w <= e * core_w).all(axis=1)
            if feasible.any():
                best[e] = min(best[e], float(phi[feasible].min()))
    return best


def robust_expansion(g: Graph, s: np.ndarray, eta: float) -> tuple[int, float]:
    """(N_eta(S), phi^V_eta(S)).

    N_eta(S) is the smallest number of outside vertices that capture a (1-eta)
    fraction of S's cut cost; computed by taking outside vertices in
    decreasing order of their cut cost to S, which is optimal because each
    vertex contributes additively and counts 1 toward |T|.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0,1], got {eta}")
    ms = g.mask(s)
    if not ms.any() or ms.all():
        raise ValueError("S must be a nonempty proper subset of V")
    contrib = np.zeros(g.n)
    out_v = ms[g.edge_u] & ~ms[g.edge_v]
    out_u = ms[g.edge_v] & ~ms[g.edge_u]
    np.add.at(contrib, g.edge_v[out_v], g.edge_cost[out_v])
    np.add.at(contrib, g.edge_u[out_u], g.edge_cost[out_u])
    total = float(contrib.sum())
    target = (1.0 - eta) * total
    if target <= 0.0:
        return 0, 0.0
    outside = np.flatnonzero(~ms)
    order = outside[np.lexsort((outside, -contrib[outside]))]
    acc = 0.0
    for count, v in enumerate(order, start=1):
        acc += contrib[v]
        if acc >= target - 1e-12 * max(1.0, total):
            return count, count / float(ms.sum())
    return int(order.size), float(order.size) / float(ms.sum())


@dataclass(frozen=True)
class Certificate:
    lambda_k: float                      # eigenvalue the run is certified against
    k_hat: int                           # its index (embedding dimension of the run)
    achieved_cost: float
    lower_bound_unbuffered: float        # lambda_k / 2
    lower_bound_buffered_check: bool
    lower_bound_buffered_slack: float
    approx_ratio: float | None           # achieved * eps / (lambda_khat * ln khat)
    brute_force_optimum: float | None

    def to_dict(self) -> dict:
        return {
            "lambda_k": self.lambda_k,
            "k_hat": self.k_hat,
            "achieved_cost": self.achieved_cost,
            "lower_bound_unbuffered": self.lower_bound_unbuffered,
            "lower_bound_buffered_check": self.lower_bound_buffered_check,
            "lower_bound_buffered_slack": self.lower_bound_buffered_slack,
            "approx_ratio": self.approx_ratio,
            "brute_force_optimum": self.brute_force_optimum,
        }


def certify_run(g: Graph, k: int, epsilon: float, delta: float,
                part: BufferedPartition, basis: SpectralBasis,
                brute_cap: int = BRUTE_FORCE_CAP) -> Certificate:
    """Bundle the eigenvalue bounds and (small instances) brute-force baseline."""
    k_hat = basis.k_prime
    lam_hat = float(basis.eigenvalues[k_hat - 1])
    achieved = partition_cost(g, part).max_expansion
    passed, slack = check_buffered_lower_bound(g, part, k, basis=basis)
    denom = lam_hat * math.log(k_hat) if k_hat > 1 else 0.0
    if denom > 0.0:
        ratio: float | None = achieved * epsilon / denom
    else:
        ratio = 0.0 if achieved <= 0.0 else None
    brute: float | None = None
    if g.n <= brute_cap:
        brute = brute_force_h_k_eps(g, k, epsilon, cap=brute_cap)[0]
    return Certificate(
        lambda_k=lam_hat, k_hat=k_hat, achieved_cost=achieved,
        lower_bound_unbuffered=lam_hat / 2.0,
        lower_bound_buffered_check=passed, lower_bound_buffered_slack=slack,
        approx_ratio=ratio, brute_force_optimum=brute)
