"""Normalized Laplacian, bottom-k eigensolver, and the spectral embedding.

L = D_w^{-1/2} Ltilde D_w^{-1/2} where Ltilde is the edge-cost Laplacian and
D_w the vertex-weight diagonal.  The embedding maps u to the row
ubar = (x_1(u), ..., x_k'(u)) of the bottom eigenvectors, with measure
mu(u) = ||ubar||^2, scaled vectors zhat_u = ubar/sqrt(w_u), and unit
directions psi(u) = zhat_u/||zhat_u|| (= ubar/||ubar||, the scaling cancels).

Two solver paths: dense symmetric eigendecomposition up to DENSE_LIMIT
vertices, and Lanczos with full reorthogonalization and deterministic seeded
start vectors above that (also used directly by the oracle tests).  Lanczos
restarts with a fresh orthogonalized vector on breakdown, which is what
recovers eigenvalue multiplicities on disconnected graphs.  Its basis starts
at 64 columns and doubles when full, so it holds O(n * steps) floats rather
than n^2 (the steps taken, not k', set its size; there is no thick restart).
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

DENSE_LIMIT = 2048
LANCZOS_TOL = 1e-10     # Lanczos stops when every Ritz residual on L / 2^e is below it
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

    def dense(self) -> np.ndarray:
        g = self.graph
        L = np.zeros((self.n, self.n))
        L[np.arange(self.n), np.arange(self.n)] = self.diag
        L[g.edge_u, g.edge_v] = -self.off_scale
        L[g.edge_v, g.edge_u] = -self.off_scale
        return L


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
    method: str


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


def _eigh(matrix: np.ndarray, solver: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{solver} (LAPACK eigh on a {matrix.shape[0]}x{matrix.shape[0]} "
                          f"matrix) failed: {exc}") from exc


def _dense_eigenbasis(op: LaplacianOperator, k_prime: int) -> tuple[np.ndarray, np.ndarray]:
    L = op.dense()
    L = 0.5 * (L + L.T)
    vals, vecs = _eigh(L, "dense eigensolver")
    return vals[:k_prime], vecs[:, :k_prime]


def _lanczos_eigenbasis(op: LaplacianOperator, k_prime: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-reorthogonalization Lanczos; restarts on breakdown to pick up multiplicities.

    It runs on L / 2^e, 2^e the power of two nearest max(diag), so its thresholds are
    relative to the operator's scale; the scaling and the ldexp back are exact."""
    top = float(op.diag.max())
    e = int(np.round(np.log2(top))) if top > 0.0 else 0
    if e:
        op = replace(op, diag=np.ldexp(op.diag, -e), off_scale=np.ldexp(op.off_scale, -e))
    n = op.n
    stream = derive_stream(0, "lanczos")
    max_matvecs = 50 * n
    Q = np.zeros((n, min(n, 64)))   # doubled when full: memory follows the steps taken
    alphas: list[float] = []
    betas: list[float] = []      # betas[j] couples vectors j and j+1; 0.0 marks a restart
    used = 0
    matvecs = 0
    best_res = np.inf

    def fresh_vector() -> np.ndarray:
        for _ in range(16):
            v = stream.normals(n)
            v -= Q[:, :used] @ (Q[:, :used].T @ v)
            v -= Q[:, :used] @ (Q[:, :used].T @ v)
            norm = float(np.linalg.norm(v))
            if norm > 1e-8:
                return v / norm
        raise SolverError("could not extend the Lanczos basis with a fresh vector")

    def ritz(m: int) -> tuple[np.ndarray, np.ndarray]:
        T = np.diag(np.asarray(alphas[:m]))
        if m > 1:
            off = np.asarray(betas[: m - 1])
            T = T + np.diag(off, 1) + np.diag(off, -1)
        tvals, tvecs = _eigh(T, "Lanczos Ritz step")
        take = min(k_prime, m)
        return tvals[:take], Q[:, :m] @ tvecs[:, :take]

    Q[:, 0] = fresh_vector()
    used = 1
    beta_prev = 0.0
    q_prev = np.zeros(n)
    cadence = max(k_prime, 16)

    while True:
        q = Q[:, used - 1]
        w = op.matvec(q)
        matvecs += 1
        alphas.append(float(q @ w))
        w = w - alphas[-1] * q - beta_prev * q_prev
        # Full reorthogonalization, applied twice.
        w -= Q[:, :used] @ (Q[:, :used].T @ w)
        w -= Q[:, :used] @ (Q[:, :used].T @ w)
        beta = float(np.linalg.norm(w))
        m = used                      # alphas has m entries, betas has m-1

        if m == n:
            vals, vecs = ritz(n)
            res = _residuals(op, vals, vecs)
            if float(res.max()) <= 1e-7:
                return np.ldexp(vals, e), vecs
            raise SolverError(f"Lanczos spanned R^{n} but relative residual "
                              f"{float(res.max()):.3e} exceeds 1e-7")

        if m >= k_prime and (m % cadence == 0 or matvecs >= max_matvecs):
            vals, vecs = ritz(m)
            res = _residuals(op, vals, vecs)
            matvecs += vals.size
            best_res = min(best_res, float(res.max()))
            if float(res.max()) <= LANCZOS_TOL:
                return np.ldexp(vals, e), vecs
            if matvecs >= max_matvecs:
                raise SolverError(f"Lanczos hit the {max_matvecs}-matvec cap; best relative "
                                  f"residual {best_res:.3e}")

        if used == Q.shape[1]:
            grown = np.zeros((n, min(n, 2 * used)))
            grown[:, :used] = Q
            Q = grown
        if beta <= 1e-12:
            betas.append(0.0)
            Q[:, used] = fresh_vector()
            beta_prev = 0.0
            q_prev = np.zeros(n)
        else:
            betas.append(beta)
            Q[:, used] = w / beta
            beta_prev = beta
            q_prev = q
        used += 1


def eigenbasis(op: LaplacianOperator, k_prime: int) -> SpectralBasis:
    """Bottom-k' eigenpairs of the normalized Laplacian.

    The dense solver runs up to DENSE_LIMIT vertices, Lanczos beyond; the
    basis records which one ran.
    """
    if not 1 <= k_prime <= op.n:
        raise ValueError(f"k_prime must lie in [1, n={op.n}], got {k_prime}")
    if op.n <= DENSE_LIMIT:
        method = "dense"
        vals, vecs = _dense_eigenbasis(op, k_prime)
    else:
        method = "lanczos"
        vals, vecs = _lanczos_eigenbasis(op, k_prime)
    vecs = _canonical_signs(vecs)
    # Clip the tiny negative dust LAPACK leaves on the kernel.
    vals = np.where(np.abs(vals) < 1e-12, np.abs(vals), vals)
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    return SpectralBasis(k_prime=int(k_prime), eigenvalues=vals, eigenvectors=vecs,
                         residuals=_residuals(op, vals, vecs), method=method)


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
        bad = int(np.argmin(mu))
        raise EmbeddingError(
            f"vertex {bad} embeds to the zero vector; re-randomize the eigenbasis "
            f"(degenerate sign cancellation)")
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
