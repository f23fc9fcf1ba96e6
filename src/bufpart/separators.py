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

measured_draws() evaluates a run of draws in blocks: it validates the vectors
and measures once and takes each block's Gaussian directions from one normals()
call.  Fast float arithmetic only discards what provably cannot matter, and
the exact formulas decide the rest:

  * a BLAS product of the block with the vectors keeps the entries whose
    value is at least floor - margin, floor = min(t - 2 eps', t) and
    margin = 4 (dim + 2) u (||g||_1 + |floor|) with u = 2^-53, which bounds
    how far the BLAS sum can be from the exact one; only those entries are
    recomputed with the fixed-order per-entry sum that defines a projection,
    and classified from it (_draw_blocks);
  * the min-ball rejection reads squared distances d2 off a Gram matrix and
    re-decides, with the norm of the difference, only the pairs with
    |d2 - R^2| <= 16 (dim + 4) u (1 + R^2) (_min_ball_leftover).

So X, Y, Z and every rejection are the same bits for any BLAS build, thread
count and block size.  Only the draws that reach a vector are visited: one
np.diff over the sorted rows of a block's reached entries finds them, and
measured_draws() yields each as (draw index, sample), rejected or not.  A
draw that reaches nothing consumes its direction from the stream and yields
nothing.  sample_two_buffers() is a one-draw run of the same routine, so it
gives the same bits as the matching draw of a longer run.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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

    Used when the certified scale from calibrate() is too small to ever fire
    at the given sample budget.  The min-ball rejection still enforces the
    separation condition on every draw; only the tail certificate is waived
    (calibrated=False).
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


def _reached(proj: np.ndarray, p: SeparatorParams) -> np.ndarray:
    """X u Y u Z of classify() in one comparison."""
    low = p.t - 2.0 * p.eps_prime
    # With eps' > 0 the three intervals tile (t - 2 eps', inf); when eps' is
    # zero or lost to rounding, Y and Z are empty and only X = [t, inf) is left.
    return proj > low if low < p.t else proj >= p.t


def _min_ball_leftover(vectors: np.ndarray, measures: np.ndarray,
                       x_idx: np.ndarray, r: float) -> float:
    """min over u in X of mu(X minus Ball(u, r)) in the psi metric.

    v lies outside Ball(u, r) when np.linalg.norm(psi(u) - psi(v)) > r; that
    rule alone decides.  The Gram form d2 = |p|^2 + |q|^2 - 2 <p, q> (one BLAS
    product for all pairs) only settles the pairs it provably puts on the same
    side.  For vectors of norm at most 1 + 1e-9 (checked by _check_unit) and
    gamma = (dim + 4) u, u = 2^-53:

        |d2 - |p - q|^2|                <= 4.1 gamma
        rule value = |p - q| (1 + theta),  |theta| <= gamma

    so a pair with |d2 - r^2| > 16 gamma (1 + r^2), at least twice both
    errors together, is outside exactly when d2 > r^2; every other pair is
    re-decided by the rule.  The leftover sums the same 0/mu matrix as the
    all-pairs rule, so the value is the same bits.
    """
    pts = vectors[x_idx]
    sq = np.einsum("ij,ij->i", pts, pts)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    r2 = r * r
    far = d2 > r2
    unsure = np.abs(d2 - r2) <= 16.0 * (pts.shape[1] + 4) * UNIT * (1.0 + r2)
    if unsure.any():
        i, j = np.nonzero(unsure)
        far[i, j] = np.linalg.norm(pts[i] - pts[j], axis=1) > r
    return float((far * measures[x_idx]).sum(axis=1).min())


def measured_draws(vectors: np.ndarray, measures: np.ndarray, epsilon: float,
                   delta: float, r: float, stream: RandomStream, count: int,
                   params: SeparatorParams | None = None
                   ) -> Iterator[tuple[int, SeparatorSample]]:
    """(index, sample) for each of count successive draws that reaches a vector.

    The inputs are validated once.  Each block of up to
    max(1, BLOCK_VALUES // len(vectors)) draws takes its Gaussian directions
    from one normals() call, which consumes the stream exactly as one call
    per draw would, so the draws do not depend on the block size.  A draw
    whose X u Y u Z is empty is consumed but not yielded; every other draw
    is checked by the min-ball rejection and yielded, rejected or not, with
    its index in 0..count-1.
    """
    if delta <= 0.0 or delta > 2.0 / 3.0:
        raise ValueError(f"measured separators need delta in (0, 2/3], got {delta}")
    measures = np.asarray(measures, dtype=np.float64)
    if np.any(measures < 0.0):
        raise ValueError("measures must be nonnegative")
    vectors = _check_unit(vectors)
    if measures.shape[0] != vectors.shape[0]:
        raise ValueError("need one measure per vector")
    p = params if params is not None else calibrate(epsilon, 2.0 / delta, r)
    return _draw_blocks(vectors, measures, delta * float(measures.sum()), r, p, stream,
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


def _draw_blocks(vectors, measures, limit, r, p, stream, count):
    """The generator behind measured_draws(); limit is delta mu(U).

    A block's BLAS product gs @ columns only prunes: it may group the sums
    differently by batch size, thread count or BLAS build, but for vectors of
    norm at most 1 + 1e-9 both it and _projections() are within
    gamma_dim (1 + 1e-9) ||g||_1 of the real-number sum (gamma_dim ~ dim u,
    u = 2^-53), so they differ by less than 2 gamma_dim (1 + 1e-9) ||g||_1,
    and by less than

        margin = 4 (dim + 2) u (||g||_1 + |floor|)

    together with the rounding of floor - margin.  An entry whose BLAS value
    is below floor - margin cannot reach X u Y u Z; every other entry is
    recomputed by _projections() and classified from that value alone, so X,
    Y and Z are the same bits for any BLAS and any block size.
    """
    count_v, dim = vectors.shape
    columns = np.ascontiguousarray(vectors.T)
    block = max(1, BLOCK_VALUES // max(count_v, 1))
    floor = min(p.t - 2.0 * p.eps_prime, p.t)     # no entry below it is reached
    empty = np.empty(0, dtype=np.int64)
    refused = SeparatorSample(x=empty, y=empty, z=empty, rejected=True)
    for first in range(0, count, block):
        size = min(block, count - first)
        gs = stream.normals(dim * size).reshape(size, dim)
        margin = 4.0 * (dim + 2) * UNIT * (np.abs(gs).sum(axis=1) + abs(floor))
        rows, cols = np.divmod(np.flatnonzero(gs @ columns >= (floor - margin)[:, None]),
                               count_v)
        proj = _projections(gs, columns, rows, cols)
        hit = _reached(proj, p)
        rows, cols = rows[hit], cols[hit]
        x, y, z = classify(proj[hit], p)
        # rows is sorted, so each reached draw is one run of equal rows.
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [rows.size]):
            index = first + int(rows[lo])
            span = cols[lo:hi]
            x_idx = span[x[lo:hi]]
            if x_idx.size and _min_ball_leftover(vectors, measures, x_idx, r) > limit:
                yield index, refused
                continue
            yield index, SeparatorSample(x=x_idx, y=span[y[lo:hi]], z=span[z[lo:hi]])


def sample_two_buffers(vectors: np.ndarray, measures: np.ndarray, epsilon: float,
                       delta: float, r: float, stream: RandomStream,
                       params: SeparatorParams | None = None) -> SeparatorSample:
    """Measure-constrained separator with both buffer layers Y and Z.

    One draw; its sets are all empty when it reaches no vector.
    """
    for _, sample in measured_draws(vectors, measures, epsilon, delta, r, stream, 1, params):
        return sample
    empty = np.empty(0, dtype=np.int64)
    return SeparatorSample(x=empty, y=empty, z=empty)
