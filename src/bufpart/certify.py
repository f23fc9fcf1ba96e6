"""Certification: eigenvalue lower bounds, the exact oracle, robust expansion.

A run's certificate holds only polynomial quantities: lambda at the lifted
index k_hat, the unbuffered bound lambda_k / 2 and the buffered lower bound in
force for the input.

The exact oracle realizes the definition of h^{k,eps} on graphs of at most
BRUTE_FORCE_CAP vertices.  It enumerates each assignment of vertices to
{core 1..k, buffer 1..k} once up to renaming the parts: the part indices form
a restricted-growth string, generated directly and in lexicographic order.
One enumeration scores every epsilon budget it is given.  It is the ground
truth the algorithms are measured against on tiny instances, reached through
the brute command and the tests, never through a certificate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .graph import (BufferedPartition, CutReport, Graph, PartitionError, _cut_report,
                    partition_cost)
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
                               basis: SpectralBasis | None = None,
                               report: CutReport | None = None) -> tuple[bool, float]:
    """Evaluate the buffered lower bound on lambda_k; returns (passed, bound - lambda_k).

    basis, when given, is a bottom-k' eigenbasis of g with k' >= k that the
    caller already holds; otherwise the bottom-k basis is solved here.  report,
    when given, is partition_cost(g, part), which the caller already holds;
    otherwise it is computed here, raising PartitionError on an invalid part.

    The bound is 2 phi + eps when every w_u >= inc_u, else 2 max_i phi(P_i u B_i),
    phi(S) = delta(S, V - S) / w(S), by Courant-Fischer on the k disjoint indicators:
    a theorem either way, so a failure means an implementation bug.
    """
    if report is None:
        report = partition_cost(g, part)
    if part.k != k:
        raise ValueError(f"partition has {part.k} parts, expected {k}")
    if basis is None:
        basis = eigenbasis(normalized_laplacian(g), k)
    elif basis.eigenvectors.shape[0] != g.n or basis.k_prime < k:
        raise ValueError(f"basis of shape {basis.eigenvectors.shape} does not hold "
                         f"the bottom {k} eigenpairs of this {g.n}-vertex graph")
    if np.all(g.weights >= g.incident_cost()):
        bound = 2.0 * report.max_expansion + part.epsilon
    else:       # P_i u B_i as the core of part i with no buffer: phi is phi(P_i u B_i)
        merged = BufferedPartition(label=part.label[:g.n] & ~1, k=part.k, epsilon=part.epsilon)
        bound = 2.0 * _cut_report(g, merged).max_expansion
    slack = bound - float(basis.eigenvalues[k - 1])
    return slack >= -1e-9, slack


def _canonical_labels(n: int, k: int):
    """Yield, in chunks and in ascending order, every canonical k-part label matrix row.

    Column v of a row labels vertex v with 2*i (core of part i) or 2*i+1
    (buffer of part i).  The part indices form a restricted-growth string
    (Knuth, TAOCP Vol. 4A, 7.2.1.5): a vertex may open at most the next unused
    part.  A prefix is pruned once its remaining vertices cannot give every
    part a core vertex, so each row uses all k parts and has a core in each.
    Each prefix is extended by its labels in ascending order, so the rows come
    out in lexicographic order.  Expansion is depth first and no block grows by
    more than _CHUNK candidate rows at once.
    """
    step = max(1, _CHUNK // (2 * k))

    def expand(labels, opened, cored, lacking):
        # per prefix: parts opened, bitmask of parts with a core, parts without one
        j = labels.shape[1]
        if j == n:
            yield labels
            return
        for start in range(0, labels.shape[0], step):
            stop = start + step
            m, mask = opened[start:stop], cored[start:stop]
            counts = 2 * np.minimum(m + 1, k)
            parent = np.repeat(np.arange(m.size), counts)
            label = np.arange(parent.size) - (np.cumsum(counts) - counts)[parent]
            part = label >> 1
            first_core = ((label & 1) == 0) & (((mask[parent] >> part) & 1) == 0)
            need = lacking[start:stop][parent] - first_core
            viable = need <= n - j - 1          # one vertex left per coreless part
            parent, label, part = parent[viable], label[viable], part[viable]
            child = np.empty((parent.size, j + 1), dtype=np.int8)
            child[:, :j] = labels[start + parent]
            child[:, j] = label
            yield from expand(child, np.maximum(m[parent], part + 1),
                              mask[parent] | (first_core[viable] << part), need[viable])

    yield from expand(np.zeros((1, 0), dtype=np.int8), np.zeros(1, dtype=np.int64),
                      np.zeros(1, dtype=np.int64), np.full(1, k, dtype=np.int64))


def brute_force_h_k_eps(g: Graph, k: int,
                        epsilons) -> list[tuple[float, BufferedPartition]]:
    """Exact h^{k,eps} with an optimal witness for each budget, from one enumeration.

    Returns one (optimum, witness) pair per budget, in input order.  A
    budget's witness is its first optimal label row in enumeration order.
    """
    if g.n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_CAP} (graph has {g.n})")
    if not 1 <= k <= g.n:
        raise ValueError(f"k must lie in [1, n={g.n}], got {k}")
    eps_list = [float(e) for e in epsilons]
    for e in eps_list:
        if not 0.0 <= e < 1.0:
            raise ValueError(f"epsilon must lie in [0,1), got {e}")
    w = g.weights
    eu, ev, ec = g.edge_u, g.edge_v, g.edge_cost
    best_phi = [math.inf] * len(eps_list)
    best_labels: list[np.ndarray | None] = [None] * len(eps_list)
    for labels in _canonical_labels(g.n, k):
        # every part has a core vertex and weights are positive, so core_w > 0
        label_w = np.stack([((labels == j) * w[None, :]).sum(axis=1) for j in range(2 * k)], 1)
        core_w, buf_w = label_w[:, ::2], label_w[:, 1::2]
        lu = labels[:, eu]
        lv = labels[:, ev]
        # an edge between two parts counts toward the part of each core endpoint
        between = (lu >> 1) != (lv >> 1)
        cut = np.stack([((between & ((lu == 2 * i) | (lv == 2 * i))) * ec[None, :]).sum(axis=1)
                        for i in range(k)], 1)
        phi = (cut / core_w).max(axis=1)
        for b, e in enumerate(eps_list):
            idx = np.flatnonzero((buf_w <= e * core_w).all(axis=1))
            if idx.size == 0:
                continue
            local = idx[np.argmin(phi[idx])]
            if phi[local] < best_phi[b]:
                best_phi[b] = float(phi[local])
                best_labels[b] = labels[local].astype(np.int64)
    results = []
    for e, phi_e, lab in zip(eps_list, best_phi, best_labels):
        if lab is None:
            raise PartitionError(f"no feasible {e}-buffered {k}-partition exists")
        results.append((phi_e, BufferedPartition(label=lab, k=k, epsilon=e)))
    return results


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
    lambda_k: float                      # lambda at k_hat, which approx_ratio reads
    k_hat: int                           # its index (embedding dimension of the run)
    achieved_cost: float
    lower_bound_unbuffered: float        # lambda at k / 2, over unbuffered k-partitions
    lower_bound_buffered_check: bool     # the buffered bound checked against lambda at k
    lower_bound_buffered_slack: float
    approx_ratio: float | None           # achieved * eps / (lambda_khat * ln khat)

    def to_dict(self) -> dict:
        return asdict(self)


def certify_run(g: Graph, k: int, epsilon: float, part: BufferedPartition,
                report: CutReport, basis: SpectralBasis) -> Certificate:
    """The eigenvalue bounds for part, whose partition_cost is report.

    basis is the run's bottom-k_hat eigenbasis; the approximation ratio is taken
    against its last eigenvalue, the unbuffered and buffered lower bounds against
    lambda_k.
    """
    k_hat = basis.k_prime
    lam_hat = float(basis.eigenvalues[k_hat - 1])
    achieved = report.max_expansion
    passed, slack = check_buffered_lower_bound(g, part, k, basis=basis, report=report)
    denom = lam_hat * math.log(k_hat) if k_hat > 1 else 0.0
    if denom > 0.0:
        ratio: float | None = achieved * epsilon / denom
    else:
        ratio = 0.0 if achieved <= 0.0 else None
    return Certificate(
        lambda_k=lam_hat, k_hat=k_hat, achieved_cost=achieved,
        lower_bound_unbuffered=float(basis.eigenvalues[k - 1]) / 2.0,
        lower_bound_buffered_check=passed, lower_bound_buffered_slack=slack,
        approx_ratio=ratio)
