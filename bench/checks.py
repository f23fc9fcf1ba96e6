"""Independent checks of bufpart's reports, recomputed with numpy over the edge list.

Each check takes the parsed report, the generated graph (``inputs.GraphFiles``)
and the command's parameters, and returns a list of failure reasons; an empty
list means the report passed.  Nothing here imports bufpart.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _labels(assignment: dict, g) -> tuple[np.ndarray, np.ndarray, list]:
    """(part id, is-core) per internal vertex, plus reasons if the map is not total."""
    reasons = []
    if len(assignment) != g.n:
        reasons.append(f"assignment names {len(assignment)} vertices, graph has {g.n}")
    part = -np.ones(g.n, dtype=np.int64)
    core = np.zeros(g.n, dtype=bool)
    for i, name in enumerate(g.names):
        entry = assignment.get(name)
        if entry is None:
            reasons.append(f"vertex {name!r} is missing from the assignment")
            break
        part[i] = int(entry["part_id"])
        core[i] = entry["role"] == "core"
    return part, core, reasons


def _core_cuts(g, part: np.ndarray, core: np.ndarray, k: int) -> np.ndarray:
    """Per part i: cost of edges from P_i to V minus (P_i u B_i)."""
    pu, pv = part[g.edge_u], part[g.edge_v]
    leaves = pu != pv
    from_u = leaves & core[g.edge_u]
    from_v = leaves & core[g.edge_v]
    return (np.bincount(pu[from_u], g.edge_cost[from_u], minlength=k)
            + np.bincount(pv[from_v], g.edge_cost[from_v], minlength=k))


def _cut_between(g, a: np.ndarray, b: np.ndarray) -> float:
    crossing = (a[g.edge_u] & b[g.edge_v]) | (b[g.edge_u] & a[g.edge_v])
    return float(g.edge_cost[crossing].sum())


def check_partition(doc: dict, g, k: int) -> list:
    part, core, reasons = _labels(doc["assignment"], g)
    if reasons:
        return reasons
    if part.min() < 0 or part.max() >= k:
        return [f"part ids outside [0, {k})"]
    w = g.weights
    wp = np.bincount(part[core], w[core], minlength=k)
    wb = np.bincount(part[~core], w[~core], minlength=k)
    if np.any(wp <= 0.0):
        reasons.append("a part has an empty core")
        return reasons
    eps = float(doc["epsilon_realized"])
    for i in np.flatnonzero(wb > eps * wp):
        reasons.append(f"w(B_{i})={wb[i]!r} > eps_realized*w(P_{i})={eps * wp[i]!r}")
    phi = _core_cuts(g, part, core, k) / wp
    reported = doc["cut_report"]
    if not _close(float(phi.max()), float(reported["max_expansion"])):
        reasons.append(f"recomputed max expansion {float(phi.max())!r} != reported "
                       f"{reported['max_expansion']!r}")
    if not all(_close(a, b) for a, b in zip(phi.tolist(), reported["per_part_expansion"])):
        reasons.append("recomputed per-part expansions differ from the report")
    if not doc["certificate"]["lower_bound_buffered_check"]:
        reasons.append("certificate lower-bound check failed")
    return reasons


def check_certify(doc: dict, partition_doc: dict) -> list:
    cert = doc["certificate"]
    reasons = []
    if not cert["lower_bound_buffered_check"]:
        reasons.append("lower-bound check failed")
    if not _close(float(cert["achieved_cost"]),
                  float(partition_doc["cut_report"]["max_expansion"])):
        reasons.append(f"achieved cost {cert['achieved_cost']!r} != the partition's "
                       f"max expansion {partition_doc['cut_report']['max_expansion']!r}")
    return reasons


def check_verify(doc: dict, partition_doc: dict) -> list:
    reasons = []
    if not doc["valid"]:
        reasons.append(f"stored partition judged invalid: {doc['violations']}")
        return reasons
    if not doc["lower_bound_buffered_check"]:
        reasons.append("lower-bound check failed")
    if not _close(float(doc["cut_report"]["max_expansion"]),
                  float(partition_doc["cut_report"]["max_expansion"])):
        reasons.append("verified max expansion differs from the partition report")
    return reasons


def check_cheeger2(doc: dict, g, eps: float) -> list:
    part, core, reasons = _labels(doc["assignment"], g)
    if reasons:
        return reasons
    s, t, b = core & (part == 0), core & (part == 1), ~core
    ws, wt, wb = (float(g.weights[m].sum()) for m in (s, t, b))
    if ws <= 0.0 or wt <= 0.0:
        return ["a side of the cut is empty"]
    phi = _cut_between(g, s, t) / min(ws, wt)
    if not _close(phi, float(doc["phi"])):
        reasons.append(f"recomputed phi {phi!r} != reported {doc['phi']!r}")
    if wb > 2.0 * eps * ws:
        reasons.append(f"w(B)={wb!r} > 2 eps w(S)={2.0 * eps * ws!r}")
    guarantee = 4.0 * (1.0 + 2.0 / eps) * float(doc["lambda2"])
    if phi > guarantee + 1e-9:
        reasons.append(f"phi {phi!r} exceeds the guarantee {guarantee!r}")
    return reasons


def check_balanced_cut(doc: dict, g, eps: float) -> list:
    part, core, reasons = _labels(doc["assignment"], g)
    if reasons:
        return reasons
    left, right, buf = core & (part == 0), core & (part == 1), ~core
    wl, wr, wb = (float(g.weights[m].sum()) for m in (left, right, buf))
    total = float(g.weights.sum())
    lo, hi = 0.25 * total, 0.75 * total
    for side, wx in (("L", wl), ("R", wr)):
        if not lo - 1e-9 <= wx <= hi + 1e-9:
            reasons.append(f"w({side})={wx!r} outside [{lo!r}, {hi!r}]")
    if wb > 3.0 * eps * min(wl, wr) + 1e-12:
        reasons.append(f"w(B)={wb!r} > 3 eps min(w(L), w(R))")
    if not _close(_cut_between(g, left, right), float(doc["cut_value"])):
        reasons.append("recomputed cut value differs from the report")
    if not doc["balanced"]:
        reasons.append(f"report says unbalanced: {doc['violations']}")
    return reasons


def check_kbalanced(doc: dict, g, k: int, eps: float) -> list:
    part, core, reasons = _labels(doc["assignment"], g)
    if reasons:
        return reasons
    parts = int(part[core].max()) + 1
    wp = np.bincount(part[core], g.weights[core], minlength=parts)
    total = float(g.weights.sum())
    limit = 6.0 * total / k
    for i in np.flatnonzero(wp > limit + 1e-9):
        reasons.append(f"part {i} weight {wp[i]!r} exceeds 6 w(V)/k = {limit!r}")
    wb = float(g.weights[~core].sum())
    if not _close(wb, float(doc["buffer_weight"])):
        reasons.append("recomputed buffer weight differs from the report")
    pu, pv = part[g.edge_u], part[g.edge_v]
    both_core = core[g.edge_u] & core[g.edge_v]
    crossing = float(g.edge_cost[both_core & (pu != pv)].sum())
    if not _close(crossing, float(doc["crossing_cost"])):
        reasons.append(f"recomputed crossing cost {crossing!r} != reported "
                       f"{doc['crossing_cost']!r}")
    if doc["violations"]:
        reasons.append(f"report lists violations: {doc['violations']}")
    return reasons


def normalized_laplacian(g):
    """scipy.sparse form of D_w^{-1/2} (Diag(incident cost) - C) D_w^{-1/2}."""
    from scipy import sparse

    inc = (np.bincount(g.edge_u, g.edge_cost, minlength=g.n)
           + np.bincount(g.edge_v, g.edge_cost, minlength=g.n))
    s = 1.0 / np.sqrt(g.weights)
    off = -g.edge_cost * s[g.edge_u] * s[g.edge_v]
    rows = np.concatenate([g.edge_u, g.edge_v, np.arange(g.n)])
    cols = np.concatenate([g.edge_v, g.edge_u, np.arange(g.n)])
    vals = np.concatenate([off, off, inc / g.weights])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))


def check_spectrum(doc: dict, g, k: int, tol: float = 1e-8) -> list:
    """Eigenvalues against scipy's ARPACK ``eigsh`` (a test-only oracle)."""
    from scipy import sparse
    from scipy.sparse.linalg import eigsh

    # Largest eigenvalues of 2I - L are the smallest of L; the spectrum lies in [0, 2].
    shifted = 2.0 * sparse.identity(g.n) - normalized_laplacian(g)
    vals = eigsh(shifted, k=k, which="LA", tol=1e-13, v0=np.ones(g.n),
                 return_eigenvectors=False)
    expect = np.sort(2.0 - vals)
    got = np.asarray(doc["eigenvalues"], dtype=np.float64)
    if got.shape != expect.shape:
        return [f"expected {k} eigenvalues, got {got.size}"]
    err = float(np.abs(got - expect).max())
    if err > tol:
        return [f"eigenvalues differ from eigsh by {err:.3e} > {tol:g}"]
    return []
