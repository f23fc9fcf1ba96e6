"""Laplacian, eigensolver (exact kernel plus block Lanczos), embedding."""

import json
import tracemalloc

import numpy as np
import pytest

from bufpart import (EmbeddingError, Graph, cheeger2_buffered, edge_energy, eigenbasis, embed,
                     lower_bound_unbuffered, normalized_laplacian)
from bufpart import load_graph, spectral
from bufpart.cli import run
from bufpart.spectral import LaplacianOperator, SpectralBasis, _block_lanczos_eigenbasis
from conftest import (columns, cycle, disjoint_cliques, four_component_union, k4,
                      lapack_spectrum, laplacian_matrix, path, planted_blocks, random_regular,
                      ring_with_chords, small_solver_suite, triangle, weighted_er,
                      wide_spectrum_draws)


def eigsh_bottom(g: Graph, k: int) -> np.ndarray:
    """Test-only oracle: scipy's ARPACK in shift-invert mode about -0.01."""
    from scipy import sparse
    from scipy.sparse.linalg import eigsh

    lap = normalized_laplacian(g)
    rows = np.concatenate([g.edge_u, g.edge_v, np.arange(g.n)])
    cols = np.concatenate([g.edge_v, g.edge_u, np.arange(g.n)])
    vals = np.concatenate([-lap.off_scale, -lap.off_scale, lap.diag])
    L = sparse.csc_matrix((vals, (rows, cols)), shape=(g.n, g.n))
    found = eigsh(L, k=k, sigma=-0.01, which="LM", tol=1e-14, v0=np.ones(g.n),
                  return_eigenvectors=False)
    return np.sort(found)


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid graph, unit costs: its spectrum has doubled values."""
    ids = np.arange(rows * cols).reshape(rows, cols)
    pairs = np.vstack([np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),
                       np.column_stack([ids[:-1].ravel(), ids[1:].ravel()])])
    return Graph.build(rows * cols, pairs[:, 0], pairs[:, 1], np.ones(len(pairs)))


def joined_halves(n: int = 500) -> Graph:
    """Two copies of one random n-vertex graph (5n random pairs) joined by one edge."""
    rng = np.random.default_rng(1)
    u, v = rng.integers(0, n, 5 * n), rng.integers(0, n, 5 * n)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = np.unique((lo * n + hi)[lo != hi])
    one = np.column_stack([keys // n, keys % n, np.ones(keys.size)])
    return Graph.build(2 * n, *columns(np.vstack([one, one + [n, n, 0.0], [[0, n, 1.0]]])))


class TestLaplacianOperator:
    def test_kernel_direction(self):
        g = triangle()
        lap = normalized_laplacian(g)
        z = np.sqrt(g.weights)
        assert z @ lap.matvec(z) == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(lap.matvec(z)) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_quadratic_form(self):
        # z = sqrt(2) e_1 over unit costs, w_u = 2: two incident edges each
        # contribute (sqrt(2)/sqrt(2) - 0)^2 = 1, the far edge contributes 0.
        lap = normalized_laplacian(triangle())
        z = np.array([np.sqrt(2.0), 0.0, 0.0])
        assert z @ lap.matvec(z) == pytest.approx(2.0, rel=1e-12)

    def test_form_nonnegative(self):
        g = weighted_er(15, 0.4, 2)
        lap = normalized_laplacian(g)
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(size=g.n)
            assert z @ lap.matvec(z) >= -1e-12

    def test_matvec_matches_dense(self):
        g = weighted_er(12, 0.5, 3)
        lap = normalized_laplacian(g)
        L = laplacian_matrix(g)
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
            lanczos, _ = _block_lanczos_eigenbasis(lap, k)
            assert np.abs(lapack_spectrum(g, k) - lanczos).max() <= 1e-8, name

    def test_lanczos_kernel_multiplicity(self):
        # the exact kernel holds all three zero eigenvalues, even below the block size
        g = disjoint_cliques([4, 4, 4])
        vals, _ = _block_lanczos_eigenbasis(normalized_laplacian(g), 4)
        assert np.all(np.abs(vals[:3]) <= 1e-9)

    @pytest.mark.parametrize("scale", [1e-200, 1e100])
    def test_lanczos_matches_dense_at_any_operator_scale(self, scale):
        # 40 vertices, 90 edges, unit weights: every Laplacian entry is a multiple
        # of the cost, so the spectrum is the unit-cost one times `scale`.
        rng = np.random.default_rng(5)
        pairs = {(i, i + 1) for i in range(39)} | {(0, 39)}
        while len(pairs) < 90:
            a, b = sorted(rng.choice(40, 2, replace=False).tolist())
            pairs.add((a, b))
        edges = np.array([(a, b, 1.0) for a, b in sorted(pairs)])
        spectra = []
        for factor in (1.0, scale):
            g = Graph.build(40, *columns(edges * [1.0, 1.0, factor]), weights=np.ones(40))
            lap = normalized_laplacian(g)
            dense = lapack_spectrum(g, 4)
            lanczos, vecs = _block_lanczos_eigenbasis(lap, 4)
            assert np.abs(lanczos - dense).max() <= 1e-8 * factor
            for i in range(4):
                assert (np.linalg.norm(lap.matvec(vecs[:, i]) - lanczos[i] * vecs[:, i])
                        <= 1e-8 * factor)
            spectra.append(lanczos / factor)
        assert np.abs(spectra[1] - spectra[0]).max() <= 1e-8

    def test_block_lanczos_memory_is_linear_in_n_k(self):
        # Planted 6-block graph, n = 3000, k' = 4: the basis holds max(128, 16 b + 2 want)
        # columns (b <= want = 3 here), 32 n k' floats, and a thick restart forms its
        # 65 kept Ritz vectors beside it: at most 48 n k' floats, nothing of size n x n.
        n, k = 3000, 4
        g = planted_blocks(n, 6, 47)
        lap = normalized_laplacian(g)
        tracemalloc.start()
        try:
            vals, vecs = _block_lanczos_eigenbasis(lap, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n * k * 8
        for i in range(k):
            assert np.linalg.norm(lap.matvec(vecs[:, i]) - vals[i] * vecs[:, i]) <= 1e-8
        assert np.allclose(vecs.T @ vecs, np.eye(k), atol=1e-10)

    def test_20k_weighted_graph_solves_within_100_mb(self):
        g = planted_blocks(20000, 8, 5, pairs=9, weighted=True)
        tracemalloc.start()
        try:
            basis = eigenbasis(normalized_laplacian(g), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        assert basis.residuals.max() <= 1e-8

    @pytest.mark.parametrize("copies", [2, 4])
    def test_disjoint_copies_repeat_the_one_copy_spectrum(self, copies):
        # One connected 1100-vertex graph (a ring plus random chords), solved by
        # LAPACK; c disjoint copies have the one-copy spectrum with each value
        # repeated c times.
        n = 1100
        one = ring_with_chords(n, 3)
        single = lapack_spectrum(Graph.build(n, *columns(one)), 2)
        assert single[1] > 0.1
        union = Graph.build(copies * n, *columns(np.vstack([one + [c * n, c * n, 0.0]
                                                            for c in range(copies)])))
        basis = eigenbasis(normalized_laplacian(union), 2 * copies)
        want = np.repeat(single, copies)
        assert np.abs(basis.eigenvalues - want).max() <= 1e-8

    @pytest.mark.parametrize("n", [2100, 3000])
    def test_cycle_spectrum_comes_in_pairs(self, n):
        # 1 - cos(2 pi j / n) for j = 0, 1, 1, 2, 2: each nonzero value twice
        basis = eigenbasis(normalized_laplacian(cycle(n)), 5)
        want = 1.0 - np.cos(2.0 * np.pi * np.array([0, 1, 1, 2, 2]) / n)
        assert np.abs(basis.eigenvalues - want).max() <= 1e-10

    @pytest.mark.parametrize("n, blocks, k, weighted", [
        (512, 4, 6, True), (2100, 4, 2, False), (2500, 2, 4, True), (3000, 6, 5, False),
        (4000, 8, 8, True), (5000, 5, 3, False), (5000, 8, 6, True)])
    def test_block_lanczos_matches_eigsh_on_planted_graphs(self, n, blocks, k, weighted):
        g = planted_blocks(n, blocks, n + k, pairs=6, weighted=weighted)
        vals, _ = _block_lanczos_eigenbasis(normalized_laplacian(g), k)
        assert np.abs(vals - eigsh_bottom(g, k)).max() <= 1e-8

    def test_block_lanczos_matches_eigsh_on_two_identical_blocks(self):
        # two copies of one weighted planted graph: every nonzero value repeats
        one = planted_blocks(1100, 4, 9, pairs=6, weighted=True)
        union = Graph.build(2 * one.n, np.concatenate([one.edge_u, one.edge_u + one.n]),
                            np.concatenate([one.edge_v, one.edge_v + one.n]),
                            np.tile(one.edge_cost, 2), weights=np.tile(one.weights, 2))
        vals, _ = _block_lanczos_eigenbasis(normalized_laplacian(union), 8)
        assert np.abs(vals[2::2] - vals[3::2]).max() <= 1e-10 and vals[2] > 1e-3
        assert np.abs(vals - eigsh_bottom(union, 8)).max() <= 1e-8

    @pytest.mark.parametrize("make, k", [
        # doubled eigenvalues: 0, 7.03e-4 twice, 1.42e-3, 2.81e-3 twice, 3.54e-3 twice
        pytest.param(lambda: grid(60, 60), 8, id="grid60x60"),
        # no gap after lambda_5, so the basis fills and restarts thick
        pytest.param(lambda: cycle(1024), 5, id="cycle1024"),
        # lambda_2 = 2.3e-4, then six values in [0.405, 0.418], two of them 1e-9 apart
        pytest.param(joined_halves, 8, id="joined_halves"),
    ])
    def test_block_lanczos_matches_lapack_on_hard_spectra(self, make, k):
        # the full reorthogonalization pass is skipped on most steps; skipping must
        # neither move an eigenvalue nor let the returned vectors lose orthogonality
        g = make()
        vals, vecs = _block_lanczos_eigenbasis(normalized_laplacian(g), k)
        assert np.abs(vals - np.linalg.eigvalsh(laplacian_matrix(g))[:k]).max() <= 1e-10
        assert np.abs(vecs.T @ vecs - np.eye(k)).max() <= 1e-10

    def test_full_reorthogonalization_is_skipped_but_follows_every_restart(self, monkeypatch):
        # Record each block step (the basis columns L is applied to) and each full pass
        # (the columns it orthogonalizes and the basis width it covers).
        events = []
        full_pass, matvec = spectral._full_pass, LaplacianOperator.matvec

        def record_full_pass(X, K, Q):
            events.append(("full", X.shape[1], Q.shape[1]))
            return full_pass(X, K, Q)

        def record_matvec(op, z):
            start = (z.__array_interface__["data"][0]
                     - z.base.__array_interface__["data"][0]) // z.strides[1]
            events.append(("step", start, z.shape[1]))
            return matvec(op, z)

        monkeypatch.setattr(spectral, "_full_pass", record_full_pass)
        monkeypatch.setattr(LaplacianOperator, "matvec", record_matvec)
        g = planted_blocks(600, 4, 608, pairs=6)
        vals, _ = _block_lanczos_eigenbasis(normalized_laplacian(g), 8)
        assert np.abs(vals - lapack_spectrum(g, 8)).max() <= 1e-10
        steps = [i for i, e in enumerate(events) if e[0] == "step"] + [len(events)]
        assert sum(e[0] == "full" for e in events) < len(steps) - 1
        # a thick restart: the next block starts at a lower basis column than the last
        restarts = [(i, j) for h, i, j in zip(steps, steps[1:], steps[2:])
                    if events[i][1] < events[h][1]]
        assert restarts
        for i, j in restarts:
            _, start, width = events[i]
            # that step's own pass covers the kept Ritz vectors and the new block
            assert ("full", width, start + width) in events[i + 1:j]

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            eigenbasis(normalized_laplacian(k4()), 5)
        with pytest.raises(ValueError):
            eigenbasis(normalized_laplacian(k4()), 0)


def tiny_graphs():
    graphs = [("edge", path([1.0])), ("triangle", triangle()), ("k4", k4())]
    graphs += [(f"path{m}", path([1.0] * m)) for m in range(2, 8)]
    graphs += [("two_triangles", disjoint_cliques([3, 3])),
               ("weighted8", weighted_er(8, 0.5, 21))]
    return [pytest.param(g, id=name) for name, g in graphs]


class TestTinyGraphs:
    """Every k' from 1 to n, so the basis also spans the kernel's whole complement."""

    @pytest.mark.parametrize("g", tiny_graphs())
    def test_every_k_prime_matches_lapack(self, g):
        lap = normalized_laplacian(g)
        for k in range(1, g.n + 1):
            basis = eigenbasis(lap, k)
            assert np.abs(basis.eigenvalues - lapack_spectrum(g, k)).max() <= 1e-10, k
            gram = basis.eigenvectors.T @ basis.eigenvectors
            assert np.abs(gram - np.eye(k)).max() <= 1e-10, k
            assert basis.residuals.max() <= 1e-8, k


def assert_bottom_spectrum(g: Graph, vals: np.ndarray) -> None:
    truth = np.linalg.eigvalsh(laplacian_matrix(g))
    assert np.abs(vals - truth[:vals.size]).max() <= 1e-8 * max(1.0, truth[-1])


class TestWideSpectrumDraws:
    """The solver checks its answer's residuals on L and solves again with full
    reorthogonalization when they are large.  Without that check, seed 7 draw 1212
    gave lambda_1 = -0.1016 (residual 0.251) where the true value is 0, draw 1990
    raised SolverError, and seed 11 draw 1074 gave a wrong spectrum."""

    @pytest.mark.parametrize("seed, t", [(7, 1212), (7, 1990), (11, 1074)])
    def test_pinned_draws_match_eigvalsh(self, seed, t):
        *_, (drawn, edges, weights) = wide_spectrum_draws(seed, t + 1)
        assert drawn == t
        g = load_graph(edges, weights)
        lap = normalized_laplacian(g)
        basis = eigenbasis(lap, 3)
        assert_bottom_spectrum(g, basis.eigenvalues)
        assert basis.residuals.max() <= 1e-8 * 2.0 * lap.diag.max()

    def test_first_600_draws_of_seed_11_match_eigvalsh(self):
        count = 0
        for _, edges, weights in wide_spectrum_draws(11, 600):
            g = load_graph(edges, weights)
            assert_bottom_spectrum(g, eigenbasis(normalized_laplacian(g), min(3, g.n)).eigenvalues)
            count += 1
        assert count >= 550

    def test_spectrum_command_on_draw_1212(self, tmp_path):
        *_, (_, edges, weights) = wide_spectrum_draws(7, 1213)
        (tmp_path / "g.edges").write_text("\n".join(edges) + "\n")
        (tmp_path / "g.weights").write_text("\n".join(weights) + "\n")
        out = tmp_path / "spectrum.json"
        code = run(["spectrum", "--graph", str(tmp_path / "g.edges"), "--weights",
                    str(tmp_path / "g.weights"), "--k", "3", "--out", str(out)])
        assert code == 0
        g = load_graph(edges, weights)
        assert_bottom_spectrum(g, np.array(json.loads(out.read_text())["eigenvalues"]))


class TestFourComponentUnion:
    """conftest.four_component_union: n = 2400 and four components, so
    lambda_1..4 = 0 and the four components are a partition that cuts nothing."""

    @pytest.fixture(scope="class")
    def union(self):
        edges, component = four_component_union()
        return Graph.build(component.size, *columns(edges)), component

    def test_lower_bound_is_zero(self, union):
        g, _ = union
        assert lower_bound_unbuffered(g, 4) <= 1e-12

    def test_cheeger2_finds_the_zero_cut(self, union):
        cut = cheeger2_buffered(union[0], 0.1)
        assert abs(cut.lambda2) <= 1e-12
        assert cut.phi == 0.0

    def test_kernel_columns_come_first_in_component_order(self, union):
        g, component = union
        basis = eigenbasis(normalized_laplacian(g), 6)
        assert np.all(basis.eigenvalues[:4] == 0.0) and basis.eigenvalues[4] > 1e-3
        # components numbered by their smallest vertex id
        firsts = [int(np.flatnonzero(component == c).min()) for c in range(4)]
        order = np.argsort(firsts)
        for col, c in enumerate(order):
            inside = component == c
            want = np.where(inside, np.sqrt(g.weights), 0.0)
            want /= np.linalg.norm(want)
            assert np.abs(basis.eigenvectors[:, col] - want).max() <= 1e-12


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
        assert np.allclose(e.basis.eigenvectors[:, 0], 1.0 / np.sqrt(20), atol=1e-9)

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
        U = e.basis.eigenvectors
        raw = ((U[g.edge_u] - U[g.edge_v]) ** 2).sum()
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
                               eigenvectors=vecs, residuals=basis.residuals)
        with pytest.raises(EmbeddingError, match="^vertex 0 embeds to the zero vector$"):
            embed(broken, g)

    def test_zero_row_names_the_missing_components(self):
        # Three disjoint 200-cycles at k' = 2: the third component has no
        # kernel vector in the basis, so its rows are zero.
        g = Graph.build(600, *columns([(200 * c + i, 200 * c + (i + 1) % 200, 1.0)
                                       for c in range(3) for i in range(200)]),
                        labels=[f"v{i}" for i in range(600)])
        basis = eigenbasis(normalized_laplacian(g), 2)
        with pytest.raises(EmbeddingError, match="^vertex 'v400' embeds to the zero vector: "
                           "the graph has 3 connected components, more than the 2 "
                           "eigenvectors of the embedding$"):
            embed(basis, g)
