"""Oracles and lower bounds; greedy-vs-exhaustive equivalence checks."""

import itertools
import math

import numpy as np
import pytest

from bufpart import (BufferedPartition, Graph, brute_force_h_k_eps, buffered_expansion,
                     buffered_k_partition, check_buffered_lower_bound, cut_cost, eigenbasis,
                     lower_bound_unbuffered, normalized_laplacian, partition_cost,
                     robust_expansion, validate_partition)
from bufpart import certify
from bufpart.certify import _canonical_labels, certify_run
from conftest import (cycle, disjoint_cliques, k4, planted, tiny_connected,
                      tiny_connected_suite, weighted_er)


def exhaustive_h_k_eps(g, k, eps):
    """Reference enumerator, written independently of the library's oracle."""
    best = np.inf
    n = g.n
    for assign in itertools.product(range(2 * k), repeat=n):
        parts = [[v for v in range(n) if assign[v] == 2 * i] for i in range(k)]
        if any(not p for p in parts):
            continue
        buffers = [[v for v in range(n) if assign[v] == 2 * i + 1] for i in range(k)]
        ok = all(sum(g.weights[v] for v in buffers[i]) <=
                 eps * sum(g.weights[v] for v in parts[i]) for i in range(k))
        if not ok:
            continue
        phi = max(buffered_expansion(g, parts[i], buffers[i]) for i in range(k))
        best = min(best, phi)
    return best


def reference_canonical_rows(n, k):
    """Every label code in [0, (2k)^n), ascending, whose parts first appear in order.

    This is the library's former enumeration: decode all (2k)^n base-2k codes
    (vertex 0 most significant) and keep those the canonical-order mask passes.
    """
    codes = np.arange((2 * k) ** n, dtype=np.int64)
    labels = np.empty((codes.size, n), dtype=np.int8)
    for j in range(n - 1, -1, -1):
        labels[:, j] = codes % (2 * k)
        codes //= 2 * k
    parts = labels >> 1
    rows = np.arange(labels.shape[0])
    rank = np.full((labels.shape[0], k), -1, dtype=np.int64)
    next_rank = np.zeros(labels.shape[0], dtype=np.int64)
    ok = np.ones(labels.shape[0], dtype=bool)
    for j in range(n):
        p = parts[:, j]
        new = rank[rows, p] == -1
        rank[rows[new], p[new]] = next_rank[new]
        ok &= ~new | (p == next_rank)
        next_rank[new] += 1
    return labels[ok]


def reference_brute_force(g, k, eps):
    """The library's former exact oracle over reference_canonical_rows, one budget."""
    labels = reference_canonical_rows(g.n, k)
    w = g.weights
    core_w = np.zeros((labels.shape[0], k))
    buf_w = np.zeros((labels.shape[0], k))
    for i in range(k):
        core_w[:, i] = ((labels == 2 * i) * w[None, :]).sum(axis=1)
        buf_w[:, i] = ((labels == 2 * i + 1) * w[None, :]).sum(axis=1)
    valid = (core_w > 0.0).all(axis=1)
    labels, core_w, buf_w = labels[valid], core_w[valid], buf_w[valid]
    cut = np.zeros((labels.shape[0], k))
    lu, lv = labels[:, g.edge_u], labels[:, g.edge_v]
    for i in range(k):
        cu, cv = lu == 2 * i, lv == 2 * i
        inside_u, inside_v = cu | (lu == 2 * i + 1), cv | (lv == 2 * i + 1)
        crossing = (cu & ~inside_v) | (cv & ~inside_u)
        cut[:, i] = (crossing * g.edge_cost[None, :]).sum(axis=1)
    phi = (cut / core_w).max(axis=1)
    idx = np.flatnonzero((buf_w <= eps * core_w + 0.0).all(axis=1))
    best = labels[idx[np.argmin(phi[idx])]]
    parts = [np.flatnonzero(best == 2 * i) for i in range(k)]
    buffers = [np.flatnonzero(best == 2 * i + 1) for i in range(k)]
    return float(phi[idx].min()), parts, buffers


def stirling2(n, k):
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def cored_partition_count(n, k):
    """Buffered k-partitions of n vertices up to part renaming, every part with a core.

    Choose the c core vertices, split them into k parts (S(c, k) ways), then
    put each of the other n - c vertices in the buffer of one of the k parts.
    """
    return sum(math.comb(n, c) * stirling2(c, k) * k ** (n - c) for c in range(n + 1))


def generated_rows(n, k):
    return np.concatenate(list(_canonical_labels(n, k)))


class TestLowerBoundUnbuffered:
    def test_components_bound_zero(self):
        g = disjoint_cliques([3, 3, 4])
        assert lower_bound_unbuffered(g, 3) == pytest.approx(0.0, abs=1e-10)

    def test_k4_tight(self):
        g = k4()
        bound = lower_bound_unbuffered(g, 2)
        assert bound == pytest.approx(2.0 / 3.0, abs=1e-10)
        [(opt, _)] = brute_force_h_k_eps(g, 2, [0.0])
        assert opt == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_below_oracle_on_tiny_suite(self):
        for g in tiny_connected_suite(6, sizes=(5, 6), seed0=40):
            for k in (2, 3):
                assert lower_bound_unbuffered(g, k) <= \
                    brute_force_h_k_eps(g, k, [0.0])[0][0] + 1e-9


class TestBruteForce:
    def test_k4_witness(self):
        [(opt, witness)] = brute_force_h_k_eps(k4(), 2, [0.0])
        assert opt == pytest.approx(2.0 / 3.0)
        sizes = sorted(len(p) for p in witness.parts)
        assert sizes == [2, 2]

    def test_components_give_zero(self):
        g = disjoint_cliques([3, 4])
        for opt, witness in brute_force_h_k_eps(g, 2, [0.0, 0.3]):
            assert opt == 0.0
            assert validate_partition(g, witness).valid

    def test_monotone_in_eps(self):
        for seed in range(30, 36):
            g = tiny_connected(6, seed)
            vals = [opt for opt, _ in brute_force_h_k_eps(g, 2, [0.0, 0.25, 0.5])]
            assert vals[0] >= vals[1] - 1e-12 >= vals[2] - 2e-12

    def test_matches_reference_enumerator(self):
        for seed in (50, 51):
            g = tiny_connected(5, seed)
            for k, eps in [(2, 0.0), (2, 0.5), (3, 0.25)]:
                assert brute_force_h_k_eps(g, k, [eps])[0][0] == pytest.approx(
                    exhaustive_h_k_eps(g, k, eps), abs=1e-12)

    def test_witness_validates(self):
        for seed in (60, 61, 62):
            g = tiny_connected(7, seed)
            [(opt, witness)] = brute_force_h_k_eps(g, 2, [0.25])
            assert validate_partition(g, witness).valid
            assert partition_cost(g, witness).max_expansion == pytest.approx(opt, abs=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="capped at n <= 10"):
            brute_force_h_k_eps(cycle(11), 2, [0.1])

    def test_matches_former_oracle_exactly(self):
        eps_list = [0.0, 0.1, 0.25, 0.5]
        # real costs and weights as well, so sums that round must round alike
        graphs = tiny_connected_suite(6, sizes=(5, 6, 7), seed0=110) + \
            [weighted_er(n, 0.5, 110 + n) for n in (6, 7)]
        for g in graphs:
            for k in (2, 3):
                got = brute_force_h_k_eps(g, k, eps_list)
                assert len(got) == len(eps_list)
                for eps, (opt, witness) in zip(eps_list, got):
                    want_opt, want_parts, want_buffers = reference_brute_force(g, k, eps)
                    assert opt == want_opt
                    assert witness.epsilon == eps
                    for a, b in zip(witness.parts + witness.buffers,
                                    want_parts + want_buffers):
                        assert np.array_equal(a, b)

    def test_many_budgets_equal_one_call_each(self):
        eps_list = [0.5, 0.0, 0.25, 0.1, 0.25]
        for g in tiny_connected_suite(4, sizes=(6, 7), seed0=120):
            for k in (2, 3):
                many = brute_force_h_k_eps(g, k, eps_list)
                for eps, (opt, witness) in zip(eps_list, many):
                    [(one_opt, one_witness)] = brute_force_h_k_eps(g, k, [eps])
                    assert opt == one_opt
                    assert witness.epsilon == one_witness.epsilon == eps
                    for a, b in zip(witness.parts + witness.buffers,
                                    one_witness.parts + one_witness.buffers):
                        assert np.array_equal(a, b)
        assert brute_force_h_k_eps(k4(), 2, []) == []

    def test_small_chunks_keep_the_first_optimum(self, monkeypatch):
        g = cycle(7)    # many tied optima, spread over many chunks below
        monkeypatch.setattr(certify, "_CHUNK", 512)
        for eps, (opt, witness) in zip([0.0, 0.25], brute_force_h_k_eps(g, 3, [0.0, 0.25])):
            want_opt, want_parts, want_buffers = reference_brute_force(g, 3, eps)
            assert opt == want_opt
            for a, b in zip(witness.parts + witness.buffers, want_parts + want_buffers):
                assert np.array_equal(a, b)

    def test_budget_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            brute_force_h_k_eps(k4(), 2, [0.1, 1.0])


class TestCanonicalLabels:
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 8)
                                     for k in range(1, min(n, 3) + 1)] + [(6, 4)])
    def test_rows_are_former_survivors_with_a_core_per_part(self, n, k):
        rows = generated_rows(n, k)
        ref = reference_canonical_rows(n, k)
        ref = ref[np.all([(ref == 2 * i).any(axis=1) for i in range(k)], axis=0)]
        assert rows.dtype == np.int8
        assert np.array_equal(rows, ref)
        assert rows.shape[0] == cored_partition_count(n, k)

    @pytest.mark.parametrize("n,k", [(8, 3), (10, 2), (8, 4)])
    def test_rows_canonical_unique_ascending(self, n, k):
        rows = generated_rows(n, k).astype(np.int64)
        assert rows.shape == (cored_partition_count(n, k), n)
        parts = rows >> 1
        first = np.maximum.accumulate(parts, axis=1)
        assert (parts[:, 0] == 0).all()
        # a vertex opens at most the next part
        assert (parts[:, 1:] <= first[:, :-1] + 1).all()
        for i in range(k):
            assert (rows == 2 * i).any(axis=1).all()
        codes = (rows * (2 * k) ** np.arange(n - 1, -1, -1)).sum(axis=1)
        assert (np.diff(codes) > 0).all()

    @pytest.mark.parametrize("n,k", [(8, 3), (10, 2), (7, 4)])
    def test_chunks_bounded_and_equal_to_one_block(self, n, k, monkeypatch):
        whole = generated_rows(n, k)
        monkeypatch.setattr(certify, "_CHUNK", 512)
        chunks = list(_canonical_labels(n, k))
        assert len(chunks) > 1
        assert max(c.shape[0] for c in chunks) <= 512
        assert np.array_equal(np.concatenate(chunks), whole)


class TestBufferedLowerBound:
    def test_component_partition_zero_slack_side(self):
        g = disjoint_cliques([3, 3])
        part = BufferedPartition.from_sets([[0, 1, 2], [3, 4, 5]], [[], []], 0.0)
        passed, slack = check_buffered_lower_bound(g, part, 2)
        assert passed
        assert slack == pytest.approx(0.0, abs=1e-9)

    def test_random_partitions_fuzz(self):
        rng = np.random.default_rng(5)
        cases = 0
        while cases < 2000:
            n = int(rng.integers(4, 9))
            g = tiny_connected(n, int(rng.integers(0, 10_000)))
            k = int(rng.integers(2, 4))
            assign = rng.integers(0, 2 * k, size=n)
            parts = [np.flatnonzero(assign == 2 * i) for i in range(k)]
            if any(p.size == 0 for p in parts):
                continue
            buffers = [np.flatnonzero(assign == 2 * i + 1) for i in range(k)]
            ratios = [g.weight_of(b) / g.weight_of(p) if b.size else 0.0
                      for p, b in zip(parts, buffers)]
            eps = max(ratios)
            if eps >= 1.0:
                continue
            part = BufferedPartition.from_sets(parts, buffers, min(eps * 1.0000001, 0.999999))
            passed, slack = check_buffered_lower_bound(g, part, k)
            assert passed, f"lower bound violated: slack {slack}"
            cases += 1

    def test_light_weights_check_the_disjoint_support_bound(self):
        # Some w_u < inc_u: the bound is lambda_k <= 2 max_i phi(P_i u B_i), whatever
        # the weights, costs and buffers.  Random partitions of such graphs pass it.
        rng = np.random.default_rng(17)
        cases = 0
        while cases < 300:
            n = int(rng.integers(4, 10))
            g = tiny_connected(n, int(rng.integers(0, 10_000)))
            g = Graph.build(n, g.edge_u, g.edge_v, rng.choice([1.0, 5.0, 50.0], g.edge_cost.size),
                            weights=rng.choice([1.0, 5.0, 50.0], n))
            k = int(rng.integers(2, 4))
            assign = rng.integers(0, 2 * k, size=n)
            parts = [np.flatnonzero(assign == 2 * i) for i in range(k)]
            buffers = [np.flatnonzero(assign == 2 * i + 1) for i in range(k)]
            if any(p.size == 0 for p in parts) or np.all(g.weights >= g.incident_cost()):
                continue
            part = BufferedPartition.from_sets(parts, buffers, 0.999999)
            if not validate_partition(g, part).valid:
                continue
            passed, slack = check_buffered_lower_bound(g, part, k)
            sets = [np.union1d(p, b) for p, b in zip(parts, buffers)]
            phis = [cut_cost(g, s, np.setdiff1d(np.arange(n), s)) / g.weight_of(s) for s in sets]
            lam = eigenbasis(normalized_laplacian(g), k).eigenvalues[k - 1]
            assert passed, f"lower bound violated: slack {slack}"
            assert slack == pytest.approx(2.0 * max(phis) - lam, rel=1e-12, abs=1e-12)
            cases += 1

    def test_given_basis_matches_own_solve(self):
        # A given basis supplies lambda_k as is; a k' = 4 solve and the k = 2 one
        # agree on lambda_2 to rounding, not to the bit.
        g = tiny_connected(8, 71)
        part = BufferedPartition.from_sets([[0, 1, 2, 3], [4, 5, 6, 7]], [[], []], 0.0)
        own = check_buffered_lower_bound(g, part, 2)
        wider = eigenbasis(normalized_laplacian(g), 4)
        passed, slack = check_buffered_lower_bound(g, part, 2, basis=wider)
        phi = partition_cost(g, part).max_expansion
        assert slack == 2.0 * phi + part.epsilon - float(wider.eigenvalues[1])
        assert passed == own[0] and abs(slack - own[1]) <= 1e-12

    def test_mismatched_basis_rejected(self):
        g = tiny_connected(8, 71)
        part = BufferedPartition.from_sets([[0, 1, 2, 3], [4, 5, 6, 7]], [[], []], 0.0)
        other = eigenbasis(normalized_laplacian(tiny_connected(7, 72)), 3)
        with pytest.raises(ValueError, match="basis"):
            check_buffered_lower_bound(g, part, 2, basis=other)
        narrow = eigenbasis(normalized_laplacian(g), 1)
        with pytest.raises(ValueError, match="basis"):
            check_buffered_lower_bound(g, part, 2, basis=narrow)

    def test_invalid_partition_raises(self):
        g = k4()
        part = BufferedPartition.from_sets([[0], []], [[], []], 0.0)
        with pytest.raises(Exception, match="condition"):
            check_buffered_lower_bound(g, part, 2)


class TestRobustExpansion:
    def test_eta_one_zero_target(self):
        n, phi = robust_expansion(k4(), np.array([0]), 1.0)
        assert (n, phi) == (0, 0.0)

    def test_k4_two_thirds(self):
        n, phi = robust_expansion(k4(), np.array([0]), 1.0 / 3.0)
        assert n == 2
        assert phi == pytest.approx(2.0)

    def test_greedy_matches_exhaustive(self):
        for seed in range(80, 88):
            g = tiny_connected(int(np.random.default_rng(seed).integers(5, 9)), seed)
            for eta in (0.25, 0.5, 0.75):
                for s_bits in range(1, 2 ** g.n - 1):
                    s = [i for i in range(g.n) if (s_bits >> i) & 1]
                    if len(s) == g.n or len(s) == 0 or len(s) > 4:
                        continue
                    n_greedy, _ = robust_expansion(g, np.array(s), eta)
                    n_exh = exhaustive_robust(g, s, eta)
                    assert n_greedy == n_exh, (seed, s, eta)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            robust_expansion(k4(), np.array([0]), 0.0)
        with pytest.raises(ValueError):
            robust_expansion(k4(), np.array([0, 1, 2, 3]), 0.5)


def exhaustive_robust(g, s, eta):
    """Minimum |T| over all outside subsets reaching the (1-eta) cut target."""
    outside = [v for v in range(g.n) if v not in set(s)]
    total = cut_cost(g, s, outside)
    target = (1.0 - eta) * total
    if target <= 0:
        return 0
    for size in range(0, len(outside) + 1):
        for t_set in itertools.combinations(outside, size):
            if t_set and cut_cost(g, s, list(t_set)) >= target - 1e-12 * max(1.0, total):
                return size
            if not t_set and 0.0 >= target:
                return 0
    return len(outside)


def graph_expansion(g):
    """h_G: exact sweep over all sets with w(S) <= w(V)/2 (tiny graphs only)."""
    best = np.inf
    half = g.total_weight / 2.0
    for bits in range(1, 2 ** g.n - 1):
        s = np.array([i for i in range(g.n) if (bits >> i) & 1])
        if g.weight_of(s) > half:
            continue
        rest = np.array([i for i in range(g.n) if not (bits >> i) & 1])
        best = min(best, cut_cost(g, s, rest) / g.weight_of(s))
    return best


def robust_graph_expansion(g, eta):
    best = np.inf
    for bits in range(1, 2 ** g.n - 1):
        s = [i for i in range(g.n) if (bits >> i) & 1]
        if len(s) > g.n // 2:
            continue
        _, phi_v = robust_expansion(g, np.array(s), eta)
        best = min(best, phi_v)
    return best


def test_robust_expansion_eigenvalue_spot_check():
    # lambda_2 >= c* eta h_G phi^V_eta(G) for one positive fitted constant
    # across the tiny suite; c* is reported, never asserted against a formula
    ratios = []
    for g in tiny_connected_suite(6, sizes=(5, 6), seed0=150):
        lam2 = float(eigenbasis(normalized_laplacian(g), 2).eigenvalues[1])
        for eta in (0.25, 0.5):
            denom = eta * graph_expansion(g) * robust_graph_expansion(g, eta)
            if denom > 0:
                ratios.append(lam2 / denom)
    assert ratios
    fitted = min(ratios)
    assert fitted > 0.0
    print(f"fitted robust-expansion constant: {fitted:.4f}")


class TestCertifyRun:
    def test_disconnected_zero_ratio(self):
        g = disjoint_cliques([3, 3])
        part = BufferedPartition.from_sets([[0, 1, 2], [3, 4, 5]], [[], []], 0.0)
        basis = eigenbasis(normalized_laplacian(g), 2)
        cert = certify_run(g, 2, 0.1, part, partition_cost(g, part), basis)
        assert cert.approx_ratio == 0.0
        assert cert.lower_bound_buffered_check
        [(opt, _)] = brute_force_h_k_eps(g, 2, [0.1])
        assert opt == pytest.approx(0.0)

    def test_achieved_at_least_oracle(self):
        for seed in (90, 91):
            g = tiny_connected(6, seed)
            [(opt, witness)] = brute_force_h_k_eps(g, 2, [0.25])
            basis = eigenbasis(normalized_laplacian(g), 2)
            cert = certify_run(g, 2, 0.25, witness, partition_cost(g, witness), basis)
            assert cert.achieved_cost >= opt - 1e-9

    def test_unbuffered_bound_reads_lambda_k_not_lambda_k_hat(self):
        # delta = 0.5 lifts k = 4 to k_hat = 6, and lambda_6 / 2 exceeds the
        # planted unbuffered 4-partition's max phi, so it bounds nothing.
        g, labels = planted([15] * 4, 0.6, 0.02, 7)
        _, _, info = buffered_k_partition(g, 4, 0.1, 0.5, seed=1)
        assert info["k_hat"] == 6
        basis = eigenbasis(normalized_laplacian(g), 6)
        bound = info["certificate"]["lower_bound_unbuffered"]
        assert bound == float(basis.eigenvalues[3]) / 2.0
        planted_part = BufferedPartition(label=2 * labels, k=4, epsilon=0.0)
        assert bound <= partition_cost(g, planted_part).max_expansion
