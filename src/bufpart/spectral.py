"""Normalized Laplacian, bottom-k eigensolver, and the spectral embedding.

L = D_w^{-1/2} Ltilde D_w^{-1/2} where Ltilde is the edge-cost Laplacian and
D_w the vertex-weight diagonal.  The embedding maps u to the row
ubar = (x_1(u), ..., x_k'(u)) of the bottom eigenvectors, with measure
mu(u) = ||ubar||^2 and unit direction psi(u) = ubar/||ubar||, which is also
zhat_u/||zhat_u|| for the scaled vectors zhat_u = ubar/sqrt(w_u) of edge_energy.

One entry, eigenbasis(g, k'), builds L and returns its bottom k' eigenpairs at
every size.  The kernel is exact: each connected component C, found by
hook-and-shortcut, gives the eigenvector D_w^{1/2} 1_C / ||.|| of eigenvalue 0, and
these come first, in the order of the components' smallest vertices.  Block Lanczos
with thick restarts solves the rest on the kernel's orthogonal complement, on L / 2^e
for 2^e the power of two nearest max(diag) (e = 0 on a zero diagonal), so its
thresholds are relative to the operator's scale; the scaling and the ldexp back are
exact.  Start and refill columns come from a seeded Philox stream, so results are
deterministic.  The basis holds max(BASIS, 16 b + 2 k') columns, plus the Ritz vectors
a restart keeps: O(n k') floats, never n^2.

Each block step applies L to the whole block in one matvec call (two bincounts
per column, no temporary longer than the edge list) and orthogonalizes the result
against the kernel and the two newest blocks.  The pass against the whole basis
runs only when it is due, after the step that follows a thick restart, and when
the short pass nearly cancels a column.  It is due by a periodic reorthogonalization
schedule in the spirit of Simon (Math. Comp. 42, 1984).  Each full pass measures
the loss of orthogonality the short passes let through: the largest coefficient
on the older columns, relative to the block's norm.  The next pass comes after
the most steps, at most 8, over which that loss stays below 1e-12 if it keeps
growing at the largest rate measured since the last restart.  The new block joins
the basis a column at a time by classical Gram-Schmidt, twice, and the full pass when
that leaves at most half a column's norm; fresh columns from the stream replace the
ones the passes cancel, and make up the start block.

The attempt loop.  A block of b columns finds at most b copies of an eigenvalue, so
an attempt starts at b = min(BLOCK, want) and, while a solve reports b equal values
below a larger one, solves again with twice the block, carrying its matvec count
forward.  The answer is then checked by its residuals on L itself: the solver's
convergence test reads the Ritz residual that the Lanczos relation predicts, which a
loss of orthogonality can make small for a wrong spectrum.  When the largest is above
1e-8 on L / 2^e, or the solver raised SolverError, one more attempt runs the full pass
at every block step, from a fresh stream and block; its failure raises SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph
from .rng import RandomStream

__all__ = [
    "LaplacianOperator",
    "SpectralBasis",
    "Embedding",
    "SolverError",
    "EmbeddingError",
    "normalized_laplacian",
    "eigenbasis",
    "embed",
    "edge_energy",
]

LANCZOS_TOL = 1e-10     # Lanczos stops when every Ritz residual on L / 2^e is below it
BLOCK = 3               # first block size; a block of b columns finds b copies of a value
BASIS = 128             # basis columns held before a thick restart (16 blocks at least)
SAME = 1e-8             # Ritz values this close on L / 2^e count as copies of one value
_TINY = np.finfo(np.float64).tiny


class SolverError(RuntimeError):
    pass


class EmbeddingError(RuntimeError):
    pass


@dataclass(frozen=True)
class LaplacianOperator:
    """Symmetric operator z -> L z exposed as an O(|E|) matvec."""

    graph: Graph
    diag: np.ndarray        # inc_u / w_u
    off_scale: np.ndarray   # c_uv / sqrt(w_u w_v), aligned with edge arrays

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """L z for a vector z, or for an (n, b) block z one column at a time."""
        g, scale = self.graph, self.off_scale
        Z = z if z.ndim == 2 else z[:, None]
        out = np.empty(Z.shape, order="F")
        for j in range(Z.shape[1]):
            col = Z[:, j]
            out[:, j] = (self.diag * col
                         - np.bincount(g.edge_u, scale * col[g.edge_v], minlength=g.n)
                         - np.bincount(g.edge_v, scale * col[g.edge_u], minlength=g.n))
        return out.reshape(z.shape)


def normalized_laplacian(g: Graph) -> LaplacianOperator:
    """The operator of L; Graph.build has bounded every entry (graph._check_scale)."""
    wu, wv = g.weights[g.edge_u], g.weights[g.edge_v]
    with np.errstate(over="ignore", under="ignore"):
        prod = wu * wv
    # sqrt(w_u) sqrt(w_v) only where w_u w_v left the normal range, so every
    # other entry keeps the bits of c_uv / sqrt(w_u w_v)
    normal = (prod >= _TINY) & np.isfinite(prod)
    root = np.sqrt(prod, where=normal, out=np.sqrt(wu) * np.sqrt(wv))
    return LaplacianOperator(graph=g, diag=g.incident / g.weights,
                             off_scale=g.edge_cost / root)


@dataclass(frozen=True)
class SpectralBasis:
    k_prime: int
    eigenvalues: np.ndarray    # nondecreasing, length k'
    eigenvectors: np.ndarray   # (n, k'), orthonormal columns
    residuals: np.ndarray      # ||L x_i - lambda_i x_i||

    method = "lanczos"         # not a field: bench/layers.py counts solves by it


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry (lowest index on ties) is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    return np.where(vectors[idx, np.arange(vectors.shape[1])] < 0, -vectors, vectors)


def _components(g: Graph) -> tuple[int, np.ndarray]:
    """(c, label): connected components numbered 0..c-1 in order of their smallest vertex.

    Hook and shortcut: every round hooks each root that an edge joins to a smaller root
    onto that root, then jumps pointers until every vertex points at a root."""
    parent = np.arange(g.n)
    while True:
        pu, pv = parent[g.edge_u], parent[g.edge_v]
        cross = pu != pv
        if not cross.any():
            break
        pu, pv = pu[cross], pv[cross]
        parent[np.maximum(pu, pv)] = np.minimum(pu, pv)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    roots = parent == np.arange(g.n)
    return int(roots.sum()), (np.cumsum(roots) - 1)[parent]


def _kernel(g: Graph, columns: int) -> tuple[int, np.ndarray]:
    """(c, K): c components and the unit kernel vectors D_w^{1/2} 1_C of the first
    `columns` of them, in component order, as the columns of K."""
    c, label = _components(g)
    root_w = np.sqrt(g.weights)
    norm = np.sqrt(np.bincount(label, g.weights, minlength=c))
    K = np.zeros((g.n, min(c, columns)))
    rows = np.flatnonzero(label < K.shape[1])
    K[rows, label[rows]] = root_w[rows] / norm[label[rows]]
    return c, K


def _saturated(vals: np.ndarray, b: int) -> bool:
    """True when b Ritz values agree and a larger one follows them: a block of b columns
    finds at most b copies of an eigenvalue, so a further copy may have been missed."""
    run = 1
    for gap in np.diff(vals):
        if gap > SAME and run >= b:
            return True
        run = run + 1 if gap <= SAME else 1
    return False


def _full_pass(X: np.ndarray, K: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Remove X's components on the kernel and on span(Q), and again while a pass
    cancels over half a column's norm (three passes at most); return the Q ones."""
    coef = np.zeros((Q.shape[1], X.shape[1]))
    for _ in range(3):
        before = np.linalg.norm(X, axis=0)
        X -= K @ (K.T @ X)
        part = Q.T @ X
        X -= Q @ part
        coef += part
        if np.all(np.linalg.norm(X, axis=0) > 0.5 * before):
            break
    return coef


def _steps_to_full(last: tuple[int, float, float] | None, step: int, loss: float
                   ) -> tuple[int, float]:
    """(s, growth): block steps from the full pass at `step`, which measured `loss`, to the
    next one, and the largest growth per step measured since the last restart.

    The loss of orthogonality grows about geometrically between full passes (Simon 1984).
    `last` = (step, loss, growth) is the measurement before, None after a restart.  The
    pass falls due after the most steps s <= 8 with loss g^s < 1e-12, g the largest
    growth measured (at least 2), or 10 before a growth is measured.  The largest, not
    the last: a pass that cleans the loss makes the last growth fall below 1."""
    growth = 0.0 if last is None else last[2]
    if last is not None and last[1] > 0.0:
        growth = max(growth, (loss / last[1]) ** (1.0 / (step - last[0])))
    g = max(2.0, growth) if growth else 10.0
    s, grown = 1, loss * g * g
    while s < 8 and grown < 1e-12:
        s, grown = s + 1, grown * g
    return s, growth


def _block_lanczos(op: LaplacianOperator, K: np.ndarray, want: int, b: int, stream,
                   matvecs: int, full: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """Bottom `want` eigenpairs of L on the complement of span(K), with blocks of b columns.

    Each block step orthogonalizes L's new block against the kernel and the two newest
    blocks, and against the whole basis when a full pass is due (_steps_to_full), the
    short pass nearly cancelled a column, or `full` asks for it at every step; a thick
    restart when the basis is full.  The start block and the columns a block lacks rank
    for come from `stream`.  `matvecs` counts the ones spent before; returns (values,
    vectors, matvecs spent in all)."""
    n = op.graph.n
    max_matvecs = 50 * n
    room = n - K.shape[1]              # dimension of the kernel's complement
    b = min(b, room)
    cap = min(room, max(BASIS, 16 * b + 2 * want))
    keep = want + (cap - want) // 2    # Ritz vectors a thick restart keeps
    Q = np.zeros((n, cap), order="F")
    H = np.zeros((cap, cap))           # Q^T L Q, filled one block column at a time

    def extend(W: np.ndarray, used: int, width: int) -> int:
        """Append `width` orthonormal columns to Q, orthogonal to K and Q[:, :used]: W's
        columns (which miss both) in order, then fresh ones from the stream.  A W column
        takes classical Gram-Schmidt, twice, against the columns appended before it, and
        the full pass too when it keeps at most half its norm; a fresh one the full pass."""
        col = used
        for j in range(W.shape[1] + width):
            if col == used + width:
                break
            fresh = j >= W.shape[1]
            if fresh:
                w = stream.normals(n)[:, None]
            else:
                w = W[:, j:j + 1].copy()
                before = np.linalg.norm(w)
                for _ in range(2):
                    w -= Q[:, used:col] @ (Q[:, used:col].T @ w)
            if fresh or np.linalg.norm(w) <= 0.5 * before:
                _full_pass(w, K, Q[:, :col])
            norm = float(np.linalg.norm(w))
            if norm > (1e-8 if fresh else 1e-12):
                Q[:, col] = w[:, 0] / norm
                col += 1
            elif fresh:
                raise SolverError("could not extend the block Lanczos basis with a fresh vector")
        return col

    used = extend(Q[:, :0], 0, b)       # the start block: b fresh vectors
    done = lo = 0
    step = due = 0                     # block steps taken; the step a full pass is due
    measured = None                    # (step, loss, growth) of the last full pass
    check = matvecs + b                # matvec count of the next Rayleigh-Ritz step
    last = (matvecs, np.inf)           # (matvecs, least worst residual) at the last one
    while True:
        block = slice(done, used)
        W = op.matvec(Q[:, block])
        matvecs += used - done
        step += 1
        C = np.zeros((used, used - done))
        if lo:
            # the short pass: L Q_j meets only its neighbour blocks in exact arithmetic,
            # and W's columns already miss the rest
            before = np.linalg.norm(W, axis=0)
            W -= K @ (K.T @ W)
            C[lo:] = Q[:, lo:used].T @ W
            W -= Q[:, lo:used] @ C[lo:]
            after = np.linalg.norm(W, axis=0)
        # a column the short pass leaves under a tenth of its norm would carry the loss
        # the schedule allows magnified over tenfold (near breakdown), so it passes too
        if full or not lo or step >= due or np.any(after <= 0.1 * before):
            C += _full_pass(W, K, Q[:, :used])
            if lo:
                # the loss of orthogonality: what the short pass left on Q[:, :lo]
                loss = float((np.abs(C[:lo]) / np.maximum(after, _TINY)).max())
                s, growth = _steps_to_full(measured, step, loss)
                due, measured = step + s, (step, loss, growth)
        H[:used, block] = C
        H[block, :used] = C.T
        done = used
        width = min(b, room - done)
        if matvecs < check and width and done + width <= cap:
            lo = block.start
            used = extend(W, done, width)
            continue
        try:
            vals, S = np.linalg.eigh(H[:done, :done])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"block Lanczos, Rayleigh-Ritz step (LAPACK eigh on a "
                              f"{done}x{done} matrix) failed: {exc}") from exc
        # L Q = Q H + W E^T, so ||L y - theta y|| = ||W s_last|| for the Ritz vector y = Q s
        worst = float(np.linalg.norm(W @ S[block, :want], axis=0).max())
        if done >= want and worst <= (LANCZOS_TOL if width else 1e-7):
            return vals[:want], Q[:, :done] @ S[:, :want], matvecs
        if not width:
            raise SolverError(f"block Lanczos spanned the {room}-dimensional complement of "
                              f"the kernel but relative residual {worst:.3e} exceeds 1e-7")
        if matvecs >= max_matvecs:
            raise SolverError(f"block Lanczos hit the {max_matvecs}-matvec cap; best relative "
                              f"residual {min(worst, last[1]):.3e}")
        # the next check comes after half the matvecs the residual's last rate still
        # needs, or after twice the last interval while it does not fall
        gap = matvecs - last[0]
        ahead = 2 * gap
        if 0.0 < worst < last[1] < np.inf:
            ahead = np.log(LANCZOS_TOL / worst) / np.log(worst / last[1]) * gap / 2
        check = matvecs + int(min(max(ahead, b), 16 * b))
        last = (matvecs, min(worst, last[1]))
        if done + width > cap:
            # thick restart: the lowest Ritz vectors stay, the rest of the basis goes; the
            # next step passes over the whole basis (lo = 0), the one after measures afresh
            Q[:, :keep] = Q[:, :done] @ S[:, :keep]
            H[:done, :done] = 0.0
            H[:keep, :keep] = np.diag(vals[:keep])
            done = keep
            due, measured = 0, None
        lo = block.start if done == block.stop else 0
        used = extend(W, done, width)


def eigenbasis(g: Graph, k_prime: int) -> SpectralBasis:
    """Bottom-k' eigenpairs of g's normalized Laplacian L by the attempt loop (module
    docstring), with canonical signs and the residuals ||L x - lambda x|| of one more
    matvec."""
    if not 1 <= k_prime <= g.n:
        raise ValueError(f"k must lie in [1, n={g.n}], got {k_prime}")
    op = normalized_laplacian(g)
    top = float(op.diag.max())
    e = int(np.round(np.log2(top))) if top > 0.0 else 0
    limit = 1e-8 * np.ldexp(1.0, e)
    scaled = (replace(op, diag=np.ldexp(op.diag, -e), off_scale=np.ldexp(op.off_scale, -e))
              if e else op)
    c, K = _kernel(g, k_prime)
    want = k_prime - c
    full, b, matvecs, stream = False, min(BLOCK, want), 0, RandomStream(0, "lanczos")
    while True:
        try:
            vals, vecs, matvecs = (_block_lanczos(scaled, K, want, b, stream, matvecs, full)
                                   if want > 0 else (np.zeros(0), K[:, :0], 0))
        except SolverError:
            if full:
                raise
        else:
            if b < want and _saturated(vals, b):
                b = min(2 * b, want)
                continue
            vecs = _canonical_signs(np.hstack([K, vecs]))
            vals = np.ldexp(np.concatenate([np.zeros(K.shape[1]), vals]), e)
            # A Ritz value of an eigenvalue near 0 can land a rounding error below it;
            # reflect such values to nonnegative ones, which the sort then reorders.
            vals = np.where(np.abs(vals) < 1e-12, np.abs(vals), vals)
            order = np.argsort(vals, kind="stable")
            vals = vals[order]
            vecs = vecs[:, order]
            residuals = np.linalg.norm(op.matvec(vecs) - vecs * vals, axis=0)
            if float(residuals.max()) <= limit:
                return SpectralBasis(k_prime=int(k_prime), eigenvalues=vals,
                                     eigenvectors=vecs, residuals=residuals)
            if full:
                raise SolverError(f"block Lanczos with full reorthogonalization left a "
                                  f"residual of {float(residuals.max()):.3e}, above "
                                  f"{limit:.3e} (1e-8 on L / 2^e)")
        full, b, matvecs, stream = True, min(BLOCK, want), 0, RandomStream(0, "lanczos")


@dataclass(frozen=True)
class Embedding:
    graph: Graph
    basis: SpectralBasis    # ubar is row u of basis.eigenvectors
    mu: np.ndarray          # ||ubar||^2
    psi: np.ndarray         # unit rows zhat/||zhat|| = ubar/||ubar||

    @property
    def k_prime(self) -> int:
        return self.basis.k_prime


def embed(basis: SpectralBasis, g: Graph) -> Embedding:
    if basis.eigenvectors.shape[0] != g.n:
        raise ValueError("basis was not computed on this graph")
    U = basis.eigenvectors
    mu = (U * U).sum(axis=1)
    if np.any(mu <= 0.0):
        # A component's kernel vector is nonzero on all of it, so a zero row
        # means that some component has no kernel vector among the k' columns.
        bad = int(np.argmin(mu))
        name = repr(g.labels[bad]) if g.labels else str(bad)
        c, _ = _components(g)
        why = (f": the graph has {c} connected components, more than the "
               f"{basis.k_prime} eigenvectors of the embedding" if c > basis.k_prime else "")
        raise EmbeddingError(f"vertex {name} embeds to the zero vector{why}")
    psi = U / np.sqrt(mu)[:, None]
    return Embedding(graph=g, basis=basis, mu=mu, psi=psi)


def edge_energy(e: Embedding) -> float:
    """sum over edges of c_uv ||zhat_u - zhat_v||^2 (equals sum of the eigenvalues)."""
    g = e.graph
    zhat = e.basis.eigenvectors / np.sqrt(g.weights)[:, None]
    d = zhat[g.edge_u] - zhat[g.edge_v]
    return float((g.edge_cost * (d * d).sum(axis=1)).sum())
