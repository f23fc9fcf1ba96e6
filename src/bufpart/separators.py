"""Orthogonal separators with buffers over a finite set of unit vectors.

One draw projects every vector onto a shared Gaussian direction g and slices
the projection line at t, t - eps', t - 2 eps':

    X = {g_u >= t}     Y = {t - eps' < g_u < t}     Z = {t - 2 eps' < g_u <= t - eps'}

with eps' = eps / (e (t + 1/t)).  Boundary convention (fixed once so draws are
reproducible): g_u = t lands in X, g_u = t - eps' lands in Z.

calibrate() picks the smallest threshold t whose exact joint-tail condition

    Phi_bar(t / sqrt(1 - R^2/4)) <= Phi_bar(t) / m

holds; that inequality is precisely what bounds the probability of two
R-separated vectors landing in X together, so no loose tail constants enter.
Every draw that reaches a vector is measured: it is rejected (empty sets) unless
min over u in X of mu(X minus Ball(u, R)) <= delta mu(U), which makes the
separation property hold on every returned draw by construction.

measured_draws() evaluates a run of draws at once: it validates the vectors
and measures once and takes each block's Gaussian directions from one
normals() call.  Fast float arithmetic only discards what provably cannot
matter, and the exact formulas decide the rest:

  * a direction whose norm, widened by its rounding and the unit-norm
    tolerance, is below floor - margin reaches nothing (g . psi(u) <=
    ||g|| ||psi(u)||), so only the other directions of a block enter the
    BLAS product with the vectors (_aimed);
  * that product keeps the entries whose value is at least floor - margin,
    floor = min(t - 2 eps', t) and margin = 4 (dim + 2) u (||g||_1 + |floor|)
    with u = 2^-53, which bounds how far the BLAS sum can be from the exact
    one; only those entries are recomputed with the fixed-order per-entry sum
    that defines a projection, and classified from it (_draw_blocks);
  * the min-ball test decides, it does not measure: one vectorized pass over
    the X sets of every reached draw of the run accepts by mass or by the
    row of a pivot member and rejects by triangle-inequality bounds through
    that pivot, each with a stated float margin; only the draws it leaves
    open are scored exactly, on the rows of the centers the bound kept
    (_min_ball_accepted).

So X, Y, Z and every rejection are the same bits for any BLAS build, thread
count and block size.  Only the draws that reach a vector are returned, as
(draw index, sample), rejected or not.  A draw that reaches nothing consumes
its direction from the stream and returns nothing.  sample_two_buffers() is
a one-draw run of the same routine, so it gives the same bits as the
matching draw of a longer run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import gaussian_tail, gaussian_tail_inv, log_gaussian_tail
from .graph import UNIT
from .rng import RandomStream

__all__ = [
    "SeparatorParams",
    "SeparatorSample",
    "CalibrationError",
    "calibrate",
    "practical_params",
    "sample_two_buffers",
    "measured_draws",
    "classify",
]

T_MAX = 40.0
BLOCK_VALUES = 2 ** 18      # projections evaluated per block of measured draws


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SeparatorParams:
    """Threshold geometry of one separator family."""

    epsilon: float
    m: float
    r: float
    t: float
    alpha: float            # Phi_bar(t); may underflow for extreme t
    eps_prime: float        # buffer width eps / (e (t + 1/t))
    calibrated: bool        # True when the joint-tail certificate holds at (t, m, r)


def _params_at(t: float, epsilon: float, m: float, r: float, calibrated: bool) -> SeparatorParams:
    eps_prime = epsilon / (math.e * (t + 1.0 / t))
    if eps_prime >= t:
        raise CalibrationError(f"buffer width {eps_prime} >= threshold {t}")
    return SeparatorParams(
        epsilon=float(epsilon), m=float(m), r=float(r), t=float(t),
        alpha=gaussian_tail(t), eps_prime=eps_prime, calibrated=calibrated)


def calibrate(epsilon: float, m: float, r: float) -> SeparatorParams:
    """Smallest t with Phi_bar(t / sqrt(1 - r^2/4)) <= Phi_bar(t)/m, by bisection."""
    if not 0.0 <= epsilon < 1.0:
        raise CalibrationError(f"epsilon must lie in [0,1), got {epsilon}")
    if m < 3.0:
        raise CalibrationError(f"separation strength m must be >= 3, got {m}")
    if not 0.0 < r < 2.0:
        raise CalibrationError(f"separation radius must lie in (0,2), got {r}")
    rho = 1.0 / math.sqrt(1.0 - r * r / 4.0)

    def excess(t: float) -> float:
        # <= 0 exactly when the joint-tail condition holds at t.
        return log_gaussian_tail(rho * t) - (log_gaussian_tail(t) - math.log(m))

    lo, hi = 1e-8, T_MAX
    if excess(hi) > 0.0:
        raise CalibrationError(
            f"no threshold below t={T_MAX} satisfies the joint-tail condition "
            f"(m={m}, r={r}); the required probability scale is not representable")
    if excess(lo) <= 0.0:
        hi = lo
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if excess(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-13 * max(1.0, hi):
                break
    return _params_at(hi, epsilon, m, r, calibrated=True)


def practical_params(epsilon: float, m: float, r: float, alpha: float) -> SeparatorParams:
    """Separator thresholds at a caller-chosen probability scale.

    Step 2 of partition uses it because the certified scale from calibrate()
    is too small to ever fire at its sample budget.  The min-ball rejection
    still enforces the separation condition on every draw; only the tail
    certificate is waived (calibrated=False).
    """
    if not 0.0 < alpha < 0.5:
        raise CalibrationError(f"probability scale must lie in (0, 0.5), got {alpha}")
    return _params_at(gaussian_tail_inv(alpha), epsilon, m, r, calibrated=False)


@dataclass(frozen=True)
class SeparatorSample:
    x: np.ndarray           # indices into the vector list
    y: np.ndarray
    z: np.ndarray
    rejected: bool = False  # True when the min-ball test emptied the draw


def _check_unit(vectors: np.ndarray) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("vectors must be a (count, dim) array")
    norms = np.linalg.norm(vectors, axis=1)
    off = np.abs(norms - 1.0)
    if off.size and off.max() > 1e-9:
        raise ValueError(f"input vectors must be unit norm within 1e-9 (max deviation {off.max():.3e})")
    return vectors


def classify(proj: np.ndarray, p: SeparatorParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interval membership for one draw of projections."""
    x = proj >= p.t
    y = (proj > p.t - p.eps_prime) & (proj < p.t)
    z = (proj > p.t - 2.0 * p.eps_prime) & (proj <= p.t - p.eps_prime)
    return x, y, z


def _leftover_rows(vectors: np.ndarray, measures: np.ndarray, x_idx: np.ndarray,
                   centres: np.ndarray, r: float) -> np.ndarray:
    """mu(X minus Ball(u, r)) in the psi metric for each center u = x_idx[c], c in centres.

    v lies outside Ball(u, r) when np.linalg.norm(psi(u) - psi(v)) > r; that
    rule alone decides.  The Gram form d2 = |p|^2 + |q|^2 - 2 <p, q> (one BLAS
    product for the centers' rows) only settles the pairs it provably puts on
    the same side.  For vectors of norm at most 1 + 1e-9 (checked by
    _check_unit) and gamma = (dim + 4) u, u = 2^-53:

        |d2 - |p - q|^2|                <= 4.1 gamma
        rule value = |p - q| (1 + theta),  |theta| <= gamma

    so a pair with |d2 - r^2| > 16 gamma (1 + r^2), at least twice both
    errors together, is outside exactly when d2 > r^2; every other pair is
    re-decided by the rule.  Each row sums the same 0/mu vector as that row of
    the all-pairs matrix, so it is the same bits.
    """
    pts = vectors[x_idx]
    sq = np.einsum("ij,ij->i", pts, pts)
    d2 = sq[centres, None] + sq[None, :] - 2.0 * (pts[centres] @ pts.T)
    r2 = r * r
    far = d2 > r2
    unsure = np.abs(d2 - r2) <= 16.0 * (pts.shape[1] + 4) * UNIT * (1.0 + r2)
    if unsure.any():
        i, j = np.nonzero(unsure)
        far[i, j] = np.linalg.norm(pts[centres[i]] - pts[j], axis=1) > r
    return (far * measures[x_idx]).sum(axis=1)


def _min_ball_accepted(vectors: np.ndarray, measures: np.ndarray, members: np.ndarray,
                       starts: np.ndarray, limit: float, r: float) -> np.ndarray:
    """Whether min over u in X of mu(X minus Ball(u, r)) <= limit, for each set
    X = members[starts[i]:starts[i + 1]] (the last one ends with members; none
    is empty), as the all-pairs rule of _leftover_rows() decides it.

    One pass settles most sets through a pivot p per set, its member of largest
    psi(p) . sum_v mu_v psi(v), and the rule distances d(v, p).  Those are
    within gamma = (dim + 4) u of the real ones (u = 2^-53, norms at most
    1 + 1e-9) and the keys 16 i + d of set i round by at most 16 (S + 1) u for
    S sets, which slack = 8 gamma + 64 (S + 1) u covers; for N members of total
    measure V the sums here are within tol = 8 (N + 1) u V of the rule's.  So:

      * accept when the pivot's row, counting every v with d(v, p) > r - slack
        as outside, plus tol is at most limit (this covers mu(X) <= limit);
      * exclude a center u when mu(X) minus the mass in its window
        |d(u, p) - d(v, p)| <= r + slack, minus tol, is above limit: every v
        outside the window is outside Ball(u, r) by the triangle inequality
        (one sorted sweep and a cumsum give every window); reject when every
        center is excluded.

    The other sets are decided on the exact rows of the centers kept.
    """
    count = starts.size
    if not count:
        return np.zeros(0, dtype=bool)
    ends = np.append(starts[1:], members.size)
    seg = np.repeat(np.arange(count), ends - starts)
    pts = vectors[members]
    mu = measures[members]
    tol = 8.0 * (members.size + 1) * UNIT * float(mu.sum())
    slack = (8.0 * (vectors.shape[1] + 4) + 64.0 * (count + 1)) * UNIT
    pull = np.add.reduceat(mu[:, None] * pts, starts)
    pivot = np.lexsort((-np.einsum("ij,ij->i", pts, pull[seg]), seg))[starts]
    dist = np.linalg.norm(pts - pts[pivot][seg], axis=1)
    row = np.add.reduceat(np.where(dist > r - slack, mu, 0.0), starts)
    accepted = row + tol <= limit
    # Set i's distances sit at 16 i + d; a window of half-width at most 4
    # never reaches another set, and no two distances differ by 4.
    width = min(r + slack, 4.0)
    key = 16.0 * seg + dist
    order = np.lexsort((dist, seg))
    ranked = key[order]
    cum = np.append(0.0, np.cumsum(mu[order]))
    near = (cum[np.searchsorted(ranked, key + width, "right")]
            - cum[np.searchsorted(ranked, key - width, "left")])
    kept = np.add.reduceat(mu, starts)[seg] - near - tol <= limit
    for i in np.flatnonzero(~accepted & np.logical_or.reduceat(kept, starts)).tolist():
        lo, hi = starts[i], ends[i]
        rows = _leftover_rows(vectors, measures, members[lo:hi], np.flatnonzero(kept[lo:hi]), r)
        accepted[i] = rows.min() <= limit
    return accepted


def measured_draws(vectors: np.ndarray, measures: np.ndarray, delta: float,
                   params: SeparatorParams, stream: RandomStream, count: int
                   ) -> list[tuple[int, SeparatorSample]]:
    """(index, sample) for each of count successive draws that reaches a vector.

    params fixes the thresholds and the min-ball radius params.r; a draw is
    rejected when its min-ball leftover exceeds delta mu(U).  The inputs are
    validated once.  Each block of up to
    max(1, BLOCK_VALUES // len(vectors)) draws takes its Gaussian directions
    from one normals() call, which consumes the stream exactly as one call
    per draw would, so the draws do not depend on the block size.  A draw
    whose X u Y u Z is empty is consumed but not returned; every other draw
    is checked by the min-ball rejection and returned, rejected or not, with
    its index in 0..count-1, in draw order.
    """
    if delta <= 0.0 or delta > 2.0 / 3.0:
        raise ValueError(f"measured separators need delta in (0, 2/3], got {delta}")
    measures = np.asarray(measures, dtype=np.float64)
    if np.any(measures < 0.0):
        raise ValueError("measures must be nonnegative")
    vectors = _check_unit(vectors)
    if measures.shape[0] != vectors.shape[0]:
        raise ValueError("need one measure per vector")
    return _draw_blocks(vectors, measures, delta * float(measures.sum()), params, stream,
                        int(count))


def _projections(gs: np.ndarray, columns: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
    """The projection of vector cols[i] onto direction gs[rows[i]], for each i.

    The only definition of a projection value: the products g_j v_j summed in
    coordinate order, one elementwise pass per coordinate, so an entry's bits
    do not depend on which other entries are evaluated with it.
    """
    g = gs[rows]
    proj = g[:, 0] * columns[0, cols]
    for j in range(1, columns.shape[0]):
        proj += g[:, j] * columns[j, cols]
    return proj


def _aimed(gs: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows of gs that may reach a vector, and their margins (see _draw_blocks).

    For vectors of norm at most 1 + 1e-9, g . psi(u) <= ||g||_2 (1 + 1e-9).
    The computed norm is within (dim + 2) u of ||g||_2, below 1e-9 for any
    dim under 10^6, so a row whose norm times (1 + 2e-9) is below
    floor - margin has no projection, exact or computed, at floor or above.
    """
    margin = 4.0 * (gs.shape[1] + 2) * UNIT * (np.abs(gs).sum(axis=1) + abs(floor))
    rows = np.flatnonzero(np.linalg.norm(gs, axis=1) * (1.0 + 2e-9) >= floor - margin)
    return rows, margin[rows]


def _draw_blocks(vectors, measures, limit, p, stream, count):
    """measured_draws() after its checks; limit is delta mu(U).

    A block's BLAS product only prunes: it may group the sums differently by
    batch size, thread count or BLAS build, but for vectors of norm at most
    1 + 1e-9 both it and _projections() are within gamma_dim (1 + 1e-9)
    ||g||_1 of the real-number sum (gamma_dim ~ dim u, u = 2^-53), so they
    differ by less than 2 gamma_dim (1 + 1e-9) ||g||_1, and by less than

        margin = 4 (dim + 2) u (||g||_1 + |floor|)

    together with the rounding of floor - margin.  An entry whose BLAS value
    is below floor - margin cannot reach X u Y u Z; every other entry is
    recomputed by _projections() and classified from that value alone, so X,
    Y and Z are the same bits for any BLAS and any block size.  The X sets of
    the whole run then go through one _min_ball_accepted() call.
    """
    count_v, dim = vectors.shape
    columns = np.ascontiguousarray(vectors.T)
    block = max(1, BLOCK_VALUES // max(count_v, 1))
    floor = min(p.t - 2.0 * p.eps_prime, p.t)     # no entry below it is reached
    found = []
    for first in range(0, count, block):
        size = min(block, count - first)
        gs = stream.normals(dim * size).reshape(size, dim)
        aimed, margin = _aimed(gs, floor)
        rows, cols = np.divmod(np.flatnonzero(gs[aimed] @ columns >= (floor - margin)[:, None]),
                               count_v)
        rows = aimed[rows]
        x, y, z = classify(_projections(gs, columns, rows, cols), p)
        hit = x | y | z
        found.append((first + rows[hit], cols[hit], x[hit], y[hit], z[hit]))
    if not found:
        return []
    draw, cols, x, y, z = (np.concatenate(parts) for parts in zip(*found))
    # draw is sorted, so each reached draw is one run of equal entries and
    # its X set one run of the X entries.
    starts = np.flatnonzero(np.diff(draw, prepend=-1))
    x_draw = draw[x]
    x_starts = np.flatnonzero(np.diff(x_draw, prepend=-1))
    passed = _min_ball_accepted(vectors, measures, cols[x], x_starts, limit, p.r)
    refused_draws = np.isin(draw[starts], x_draw[x_starts[~passed]]).tolist()
    empty = np.empty(0, dtype=np.int64)
    refused = SeparatorSample(x=empty, y=empty, z=empty, rejected=True)
    out = []
    for lo, hi, index, no in zip(starts.tolist(), starts[1:].tolist() + [draw.size],
                                 draw[starts].tolist(), refused_draws):
        span = cols[lo:hi]
        out.append((index, refused if no else
                    SeparatorSample(x=span[x[lo:hi]], y=span[y[lo:hi]], z=span[z[lo:hi]])))
    return out


def sample_two_buffers(vectors: np.ndarray, measures: np.ndarray, epsilon: float,
                       delta: float, r: float, stream: RandomStream,
                       params: SeparatorParams | None = None) -> SeparatorSample:
    """Measure-constrained separator with both buffer layers Y and Z.

    One draw of measured_draws(); its sets are all empty when it reaches no
    vector.  Without params the family is calibrate(epsilon, 2/delta, r);
    with params, epsilon and r are those of params.  bench/layers.py wraps it
    by name, and its install() raises without it.
    """
    p = params if params is not None else calibrate(epsilon, 2.0 / delta, r)
    for _, sample in measured_draws(vectors, measures, delta, p, stream, 1):
        return sample
    empty = np.empty(0, dtype=np.int64)
    return SeparatorSample(x=empty, y=empty, z=empty)
