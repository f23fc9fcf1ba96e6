"""Normalized Laplacian, bottom-k eigensolver, and the spectral embedding.

L = D_w^{-1/2} Ltilde D_w^{-1/2} where Ltilde is the edge-cost Laplacian and
D_w the vertex-weight diagonal.  The embedding maps u to the row
ubar = (x_1(u), ..., x_k'(u)) of the bottom eigenvectors, with measure
mu(u) = ||ubar||^2, scaled vectors zhat_u = ubar/sqrt(w_u), and unit
directions psi(u) = zhat_u/||zhat_u|| (= ubar/||ubar||, the scaling cancels).

One solver path for every size.  The kernel is exact: each connected component
C, found by hook-and-shortcut, gives the eigenvector D_w^{1/2} 1_C / ||.|| of
eigenvalue 0, and these come first, in the order of the components' smallest
vertices.  Block Lanczos with full reorthogonalization and thick restarts solves
the rest on the kernel's orthogonal complement.  A block of b columns finds at
most b copies of an eigenvalue, so the block starts at BLOCK columns and a solve
that reports b equal values below a larger one is redone with twice the block.
Start and refill columns come from a seeded Philox stream, so results are
deterministic.  The basis holds max(BASIS, 16 b + 2 k') columns, plus the Ritz
vectors a restart keeps: O(n k') floats, never n^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph
from .rng import derive_stream

__all__ = [
    "LaplacianOperator",
    "SpectralBasis",
    "Embedding",
    "SolverError",
    "EmbeddingError",
    "normalized_laplacian",
    "eigenbasis",
    "embed",
    "ball_measure",
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
    n: int
    diag: np.ndarray        # inc_u / w_u
    off_scale: np.ndarray   # c_uv / sqrt(w_u w_v), aligned with edge arrays

    def matvec(self, z: np.ndarray) -> np.ndarray:
        g = self.graph
        out = self.diag * z
        np.add.at(out, g.edge_u, -self.off_scale * z[g.edge_v])
        np.add.at(out, g.edge_v, -self.off_scale * z[g.edge_u])
        return out

    def quadratic_form(self, z: np.ndarray) -> float:
        g = self.graph
        s = 1.0 / np.sqrt(g.weights)
        d = z[g.edge_u] * s[g.edge_u] - z[g.edge_v] * s[g.edge_v]
        return float((g.edge_cost * d * d).sum())


def normalized_laplacian(g: Graph) -> LaplacianOperator:
    """The operator of L; Graph.build has bounded every entry (graph._check_scale)."""
    wu, wv = g.weights[g.edge_u], g.weights[g.edge_v]
    with np.errstate(over="ignore", under="ignore"):
        prod = wu * wv
    # sqrt(w_u) sqrt(w_v) only where w_u w_v left the normal range, so every
    # other entry keeps the bits of c_uv / sqrt(w_u w_v)
    normal = (prod >= _TINY) & np.isfinite(prod)
    root = np.sqrt(prod, where=normal, out=np.sqrt(wu) * np.sqrt(wv))
    return LaplacianOperator(graph=g, n=g.n, diag=g.incident_cost() / g.weights,
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
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            out[:, j] = -col
    return out


def _residuals(op: LaplacianOperator, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    res = np.empty(vals.size)
    for i in range(vals.size):
        res[i] = np.linalg.norm(op.matvec(vecs[:, i]) - vals[i] * vecs[:, i])
    return res


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
        parent[np.maximum(pu[cross], pv[cross])] = np.minimum(pu[cross], pv[cross])
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


def _block_lanczos(op: LaplacianOperator, K: np.ndarray, want: int, b: int, stream,
                   matvecs: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Bottom `want` eigenpairs of L on the complement of span(K), with blocks of b columns.

    Full reorthogonalization, a thick restart when the basis is full, and block columns
    that run out of rank refilled from `stream`.  `matvecs` counts the ones spent before;
    returns (values, vectors, matvecs spent in all)."""
    n = op.n
    max_matvecs = 50 * n
    room = n - K.shape[1]              # dimension of the kernel's complement
    b = min(b, room)
    cap = min(room, max(BASIS, 16 * b + 2 * want))
    keep = want + (cap - want) // 2    # Ritz vectors a thick restart keeps
    Q = np.zeros((n, cap), order="F")
    H = np.zeros((cap, cap))           # Q^T L Q, filled one block column at a time

    def project(X: np.ndarray, used: int, lo: int = 0, full: bool = True) -> np.ndarray:
        """Remove X's components on the kernel and Q[:, :used]; return the Q ones.

        Q[:, lo:used] goes first (L Q_j meets only its neighbour blocks in exact
        arithmetic, and W's columns already miss the rest), then the whole basis unless
        `full` is off and nothing cancelled, again while a pass cancels over half a norm."""
        coef = np.zeros((used, X.shape[1]))
        start = lo
        for _ in range(3):
            before = np.linalg.norm(X, axis=0)
            X -= K @ (K.T @ X)
            part = Q[:, start:used].T @ X
            X -= Q[:, start:used] @ part
            coef[start:] += part
            if (start == 0 or not full) and np.all(np.linalg.norm(X, axis=0) > 0.5 * before):
                break
            start = 0
        return coef

    def extend(W: np.ndarray, used: int, width: int) -> int:
        """Append `width` orthonormal columns spanning W (orthogonal to Q[:, :used]) to Q,
        refilling the columns W lacks rank for from the stream."""
        col = 0
        for j in range(W.shape[1]):
            if col == width:
                break
            w = W[:, j:j + 1].copy()
            project(w, used + col, used, full=False)
            norm = float(np.linalg.norm(w))
            if norm > 1e-12:
                Q[:, used + col] = w[:, 0] / norm
                col += 1
        while col < width:
            w = stream.normals(n)[:, None]
            project(w, used + col)
            norm = float(np.linalg.norm(w))
            if norm <= 1e-8:
                raise SolverError("could not extend the block Lanczos basis with a fresh vector")
            Q[:, used + col] = w[:, 0] / norm
            col += 1
        return used + width

    used = extend(np.zeros((n, 0)), 0, b)
    done = lo = 0
    check = matvecs + b                # matvec count of the next Rayleigh-Ritz step
    last = (matvecs, np.inf)           # (matvecs, least worst residual) at the last one
    while True:
        block = slice(done, used)
        W = np.empty((n, used - done), order="F")
        for j in range(done, used):
            W[:, j - done] = op.matvec(Q[:, j])
        matvecs += used - done
        C = project(W, used, lo)
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
            # thick restart: the lowest Ritz vectors stay, the rest of the basis goes
            Q[:, :keep] = Q[:, :done] @ S[:, :keep]
            H[:done, :done] = 0.0
            H[:keep, :keep] = np.diag(vals[:keep])
            done = keep
        lo = block.start if done == block.stop else 0
        used = extend(W, done, width)


def _block_lanczos_eigenbasis(op: LaplacianOperator, k_prime: int
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Bottom-k' eigenpairs: the exact kernel first, then block Lanczos on its complement.

    The block starts at BLOCK columns and doubles, with a fresh solve, while a value
    the block may hold too few copies of is reported.  It runs on L / 2^e, 2^e the power
    of two nearest max(diag), so its thresholds are relative to the operator's scale;
    the scaling and the ldexp back are exact."""
    top = float(op.diag.max())
    e = int(np.round(np.log2(top))) if top > 0.0 else 0
    if e:
        op = replace(op, diag=np.ldexp(op.diag, -e), off_scale=np.ldexp(op.off_scale, -e))
    c, K = _kernel(op.graph, k_prime)
    want = k_prime - c
    if want <= 0:
        return np.zeros(k_prime), K
    stream = derive_stream(0, "lanczos")
    b = min(BLOCK, want)
    matvecs = 0
    while True:
        vals, vecs, matvecs = _block_lanczos(op, K, want, b, stream, matvecs)
        if b == want or not _saturated(vals, b):
            return np.ldexp(np.concatenate([np.zeros(c), vals]), e), np.hstack([K, vecs])
        b = min(2 * b, want)


def eigenbasis(op: LaplacianOperator, k_prime: int) -> SpectralBasis:
    """Bottom-k' eigenpairs of the normalized Laplacian: the exact kernel, then block
    Lanczos, with canonical signs and residuals checked by separate matvecs."""
    if not 1 <= k_prime <= op.n:
        raise ValueError(f"k_prime must lie in [1, n={op.n}], got {k_prime}")
    vals, vecs = _block_lanczos_eigenbasis(op, k_prime)
    vecs = _canonical_signs(vecs)
    # A Ritz value of an eigenvalue near 0 can land a rounding error below it;
    # reflect such values to nonnegative ones, which the sort then reorders.
    vals = np.where(np.abs(vals) < 1e-12, np.abs(vals), vals)
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    return SpectralBasis(k_prime=int(k_prime), eigenvalues=vals, eigenvectors=vecs,
                         residuals=_residuals(op, vals, vecs))


@dataclass(frozen=True)
class Embedding:
    graph: Graph
    basis: SpectralBasis
    vectors: np.ndarray     # (n, k') rows ubar
    zhat: np.ndarray        # rows ubar / sqrt(w_u)
    mu: np.ndarray          # ||ubar||^2
    psi: np.ndarray         # unit rows zhat/||zhat|| = ubar/||ubar||

    @property
    def k_prime(self) -> int:
        return self.basis.k_prime

    def mu_of(self, vertices: np.ndarray) -> float:
        return float(self.mu[np.asarray(vertices, dtype=np.int64)].sum())


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
    zhat = U / np.sqrt(g.weights)[:, None]
    psi = U / np.sqrt(mu)[:, None]
    return Embedding(graph=g, basis=basis, vectors=U, zhat=zhat, mu=mu, psi=psi)


def ball_measure(e: Embedding, u: int, r: float) -> float:
    """mu of the ball {v : ||psi(u) - psi(v)|| <= r}."""
    if not 0.0 <= r <= 2.0:
        raise ValueError("ball radius must lie in [0, 2]")
    d = np.linalg.norm(e.psi - e.psi[int(u)], axis=1)
    return float(e.mu[d <= r].sum())


def edge_energy(e: Embedding) -> float:
    """sum over edges of c_uv ||zhat_u - zhat_v||^2 (equals sum of the eigenvalues)."""
    g = e.graph
    d = e.zhat[g.edge_u] - e.zhat[g.edge_v]
    return float((g.edge_cost * (d * d).sum(axis=1)).sum())
