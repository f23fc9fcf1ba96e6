"""Laplacian, eigensolver (dense and Lanczos), embedding, ball measure."""

import tracemalloc

import numpy as np
import pytest

from bufpart import (EmbeddingError, Graph, ball_measure, edge_energy, eigenbasis,
                     embed, normalized_laplacian)
from bufpart.spectral import SpectralBasis, _lanczos_eigenbasis
from conftest import (cycle, disjoint_cliques, k4, random_regular,
                      small_solver_suite, triangle, weighted_er)


class TestLaplacianOperator:
    def test_kernel_direction(self):
        g = triangle()
        lap = normalized_laplacian(g)
        z = np.sqrt(g.weights)
        assert lap.quadratic_form(z) == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(lap.matvec(z)) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_quadratic_form(self):
        # z = sqrt(2) e_1 over unit costs, w_u = 2: two incident edges each
        # contribute (sqrt(2)/sqrt(2) - 0)^2 = 1, the far edge contributes 0.
        lap = normalized_laplacian(triangle())
        z = np.array([np.sqrt(2.0), 0.0, 0.0])
        assert lap.quadratic_form(z) == pytest.approx(2.0, rel=1e-12)

    def test_form_nonnegative(self):
        g = weighted_er(15, 0.4, 2)
        lap = normalized_laplacian(g)
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(size=g.n)
            assert lap.quadratic_form(z) >= -1e-12

    def test_matvec_matches_dense(self):
        g = weighted_er(12, 0.5, 3)
        lap = normalized_laplacian(g)
        L = lap.dense()
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = rng.normal(size=g.n)
            assert np.allclose(lap.matvec(z), L @ z, atol=1e-12)


class TestEigenbasis:
    def test_k4_spectrum(self):
        basis = eigenbasis(normalized_laplacian(k4()), 4)
        assert np.allclose(basis.eigenvalues, [0.0, 4.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0],
                           atol=1e-10)

    def test_cycle4_spectrum(self):
        basis = eigenbasis(normalized_laplacian(cycle(4)), 4)
        assert np.allclose(basis.eigenvalues, [0.0, 1.0, 1.0, 2.0], atol=1e-10)

    def test_kernel_multiplicity_counts_components(self):
        g = disjoint_cliques([3, 4, 5])
        basis = eigenbasis(normalized_laplacian(g), 4)
        assert np.all(np.abs(basis.eigenvalues[:3]) <= 1e-10)
        assert basis.eigenvalues[3] > 0.1

    def test_orthonormal_columns(self):
        g = weighted_er(30, 0.2, 4)
        basis = eigenbasis(normalized_laplacian(g), 8)
        gram = basis.eigenvectors.T @ basis.eigenvectors
        assert np.abs(gram - np.eye(8)).max() <= 1e-8

    def test_residuals_small(self):
        g = weighted_er(25, 0.25, 5)
        basis = eigenbasis(normalized_laplacian(g), 6)
        assert basis.residuals.max() <= 1e-10

    def test_rayleigh_monotone_in_k(self):
        g = weighted_er(24, 0.3, 6)
        lap = normalized_laplacian(g)
        small = eigenbasis(lap, 4)
        large = eigenbasis(lap, 10)
        assert np.allclose(small.eigenvalues, large.eigenvalues[:4], atol=1e-7)

    def test_lanczos_matches_dense_suite(self):
        # the acceptance-criterion oracle at module granularity
        for name, g in small_solver_suite():
            lap = normalized_laplacian(g)
            k = min(6, g.n)
            dense = eigenbasis(lap, k, method="dense")
            lanczos = eigenbasis(lap, k, method="lanczos")
            assert np.abs(dense.eigenvalues - lanczos.eigenvalues).max() <= 1e-8, name

    def test_lanczos_kernel_multiplicity(self):
        # breakdown restarts must find all three kernel vectors
        g = disjoint_cliques([4, 4, 4])
        basis = eigenbasis(normalized_laplacian(g), 4, method="lanczos")
        assert np.all(np.abs(basis.eigenvalues[:3]) <= 1e-9)

    def test_lanczos_memory_follows_steps(self):
        # Planted 6-block graph, n = 3000: the Krylov basis grows past its first
        # 64 columns, yet the traced peak stays far below one n x n array.
        rng = np.random.default_rng(47)
        n, blocks = 3000, 6
        u = rng.integers(0, n, size=15 * n)
        v = np.where(rng.random(u.size) < 0.95,
                     rng.integers(0, n // blocks, u.size) * blocks + u % blocks,
                     rng.integers(0, n, u.size))
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = np.unique((lo * n + hi)[lo != hi])
        g = Graph.build(n, np.column_stack([keys // n, keys % n, np.ones(keys.size)]))
        lap = normalized_laplacian(g)
        tracemalloc.start()
        try:
            vals, vecs = _lanczos_eigenbasis(lap, 4, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 // 8
        assert peak > 64 * n * 8            # the basis did grow
        for i in range(4):
            assert np.linalg.norm(lap.matvec(vecs[:, i]) - vals[i] * vecs[:, i]) <= 1e-8
        assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-10)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            eigenbasis(normalized_laplacian(k4()), 5)
        with pytest.raises(ValueError):
            eigenbasis(normalized_laplacian(k4()), 0)


class TestEmbedding:
    def test_total_measure_is_k(self):
        for g in (k4(), cycle(9), weighted_er(40, 0.2, 7)):
            for k in (1, 3):
                basis = eigenbasis(normalized_laplacian(g), k)
                e = embed(basis, g)
                assert e.mu.sum() == pytest.approx(k, abs=1e-9 * k)

    def test_regular_first_coordinate(self):
        g = random_regular(20, 4, 9)
        e = embed(eigenbasis(normalized_laplacian(g), 3), g)
        assert np.allclose(e.vectors[:, 0], 1.0 / np.sqrt(20), atol=1e-9)

    def test_edge_energy_identity(self):
        for g in (triangle(), weighted_er(30, 0.25, 8)):
            for k in (2, min(5, g.n)):
                basis = eigenbasis(normalized_laplacian(g), k)
                e = embed(basis, g)
                assert edge_energy(e) == pytest.approx(basis.eigenvalues.sum(), abs=1e-8)

    def test_regular_energy_bound(self):
        g = random_regular(200, 8, 10)
        basis = eigenbasis(normalized_laplacian(g), 10)
        e = embed(basis, g)
        raw = ((e.vectors[g.edge_u] - e.vectors[g.edge_v]) ** 2).sum()
        assert raw <= 10 * 8 * basis.eigenvalues[-1] + 1e-9

    def test_mu_in_unit_interval_default_weights(self):
        for g in (k4(), cycle(7), weighted_er(25, 0.3, 11)):
            e = embed(eigenbasis(normalized_laplacian(g), 3), g)
            assert np.all(e.mu > 0)
            assert np.all(e.mu <= 1.0 + 1e-12)

    def test_psi_unit_norm(self):
        g = weighted_er(20, 0.3, 12)
        e = embed(eigenbasis(normalized_laplacian(g), 4), g)
        assert np.allclose(np.linalg.norm(e.psi, axis=1), 1.0, atol=1e-12)

    def test_zero_row_raises(self):
        g = k4()
        basis = eigenbasis(normalized_laplacian(g), 2)
        vecs = basis.eigenvectors.copy()
        vecs[0, :] = 0.0
        broken = SpectralBasis(k_prime=2, eigenvalues=basis.eigenvalues,
                               eigenvectors=vecs, residuals=basis.residuals,
                               method="dense")
        with pytest.raises(EmbeddingError, match="re-randomize"):
            embed(broken, g)


class TestBallMeasure:
    def test_total_at_radius_two(self):
        g = weighted_er(25, 0.3, 13)
        e = embed(eigenbasis(normalized_laplacian(g), 5), g)
        for u in range(0, 25, 5):
            assert ball_measure(e, u, 2.0) == pytest.approx(e.mu.sum(), rel=1e-12)

    def test_self_always_inside(self):
        g = weighted_er(25, 0.3, 14)
        e = embed(eigenbasis(normalized_laplacian(g), 5), g)
        for u in range(0, 25, 3):
            assert ball_measure(e, u, 0.0) >= e.mu[u] - 1e-15

    def test_spread_bound(self):
        # mu(Ball(u, R)) <= 1/(1 - 2 R^2) for every vertex and grid radius
        for g in (random_regular(60, 6, 15), weighted_er(40, 0.2, 16)):
            e = embed(eigenbasis(normalized_laplacian(g), 6), g)
            for r in (0.1, 0.2, 0.25, 0.3):
                limit = 1.0 / (1.0 - 2.0 * r * r) + 1e-9
                for u in range(g.n):
                    assert ball_measure(e, u, r) <= limit

    def test_radius_validated(self):
        g = k4()
        e = embed(eigenbasis(normalized_laplacian(g), 2), g)
        with pytest.raises(ValueError):
            ball_measure(e, 0, 2.5)
