"""The block round loop and the local refinement against their reference loops.

Reports stay byte-identical only if every round record, threshold and phi is
reproduced exactly, so these comparisons use exact equality throughout.
"""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bufpart import (Graph, RandomStream, buffered_k_partition, crude_partition,
                     eigenbasis, embed, normalized_laplacian, refine_and_discard)
from bufpart import certify, partition, separators
from bufpart.partition import resolve_step2
from conftest import columns, disjoint_cliques, planted, weighted_er
from round_oracles import (crude_of_rounds, crude_sets, reached, reference_crude_partition,
                           reference_draw, reference_min_ball_leftover, reference_project,
                           reference_refine_and_discard, refined_tuples)

CLIQUES6 = disjoint_cliques([34, 34, 33, 33, 33, 33])
WEIGHTED = weighted_er(60, 0.15, 31)
PLANTED = planted([50, 50, 50, 50], 0.3, 0.01, seed=11)[0]

# (graph, k' of the embedding, epsilon, delta); WEIGHTED has non-integer costs
# and weights.
CASES = {
    "cliques6-k6": (CLIQUES6, 6, 0.01, 0.01),
    "weighted-k4": (WEIGHTED, 4, 0.05, 0.05),
    "weighted-k5": (WEIGHTED, 5, 0.1, 0.2),
    "planted-k4": (PLANTED, 4, 0.05, 0.1),
    "planted-k5": (PLANTED, 5, 0.02, 0.05),
    "planted-k6": (PLANTED, 6, 0.0, 0.05),
}


def _embedding(g, k):
    return embed(eigenbasis(normalized_laplacian(g), k), g)


def _same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


def assert_same_crude(got, want):
    """The library keeps exactly the reference's active rounds, under their draw index."""
    assert got.reject_count == want.reject_count
    assert got.rounds and len(got.rounds) == len(want.active)
    for rec, (index, p_tilde, b_tilde) in zip(got.rounds, want.active):
        assert rec.index == index
        assert _same_array(rec.p_tilde, p_tilde), (index, "p_tilde")
        assert _same_array(rec.b_tilde, b_tilde), (index, "b_tilde")
    for name, arr in zip(("sigma", "gamma", "r_p", "r_b"), crude_sets(got)):
        assert _same_array(arr, getattr(want, name)), name


def assert_same_draws(got, want):
    """measured_draws() pairs against the reference's reached (index, draw) pairs."""
    assert [index for index, _ in got] == [index for index, _ in want]
    for (index, a), (_, (x, y, z, rejected)) in zip(got, want):
        assert a.rejected == rejected, index
        for name, arr in (("x", x), ("y", y), ("z", z)):
            assert _same_array(getattr(a, name), arr), (index, name)


def assert_same_partial(got, want):
    tuples = refined_tuples(got)
    assert len(tuples) == len(want.tuples)
    for a, b in zip(tuples, want.tuples):
        assert a.round_index == b.round_index
        assert a.threshold == b.threshold
        assert a.phi == b.phi
        for name in ("p", "b", "a_prime", "a_double"):
            assert _same_array(getattr(a, name), getattr(b, name)), name
    assert _same_array(np.flatnonzero(got.label == -1), want.r_p_prime)
    assert _same_array(np.flatnonzero(got.label == -2), want.r_b_prime)
    assert got.diagnostics == want.diagnostics


@pytest.mark.parametrize("block_values", [None, 7 * 200 + 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_block_rounds_match_per_draw_reference(case, block_values, monkeypatch):
    if block_values is not None:
        # Small blocks: many block boundaries and a partial last block.
        monkeypatch.setattr(separators, "BLOCK_VALUES", block_values)
    g, k, eps, delta = CASES[case]
    e = _embedding(g, k)
    eff = resolve_step2(g.n, k, eps, delta)
    for seed in range(3):
        got = crude_partition(e, eff, RandomStream(seed, "oracle", k))
        want = reference_crude_partition(e, eff, RandomStream(seed, "oracle", k))
        assert_same_crude(got, want)
        draws = separators.measured_draws(e.psi, e.mu, eff.delta_sep, eff.params,
                                          RandomStream(seed, "oracle", k), eff.rounds)
        assert_same_draws(list(draws), reached(want.draws))


def test_oracle_cases_include_rejections():
    rejects = 0
    for g, k, eps, delta in CASES.values():
        e = _embedding(g, k)
        eff = resolve_step2(g.n, k, eps, delta)
        rejects += crude_partition(e, eff, RandomStream(0, "oracle", k)).reject_count
    assert rejects > 0


# The ids keep the name of Step 4's rule, "theory" (keep every tuple within
# the expansion bound), which is the only rule there is.
@pytest.mark.parametrize("case", sorted(CASES), ids=[f"{c}-theory" for c in sorted(CASES)])
def test_local_refinement_matches_global_mask_reference(case):
    g, k, eps, delta = CASES[case]
    e = _embedding(g, k)
    eff = resolve_step2(g.n, k, eps, delta)
    kept = 0
    for seed in range(4):
        c = crude_partition(e, eff, RandomStream(seed, "refine-oracle", k))
        got = refine_and_discard(c, e)
        want = reference_refine_and_discard(c, e)
        assert_same_partial(got, want)
        kept += got.k_prime
    assert kept > 0


# (delta, epsilon, mu of each vertex): c' eps = 256 / 256 = 1 with mu inside
# the narrow bands; 10 eps = 1; and mu = 1.5^j with eps = 0.5, which puts
# members exactly on r/(1+eps) and r/(1+eps)^2.
REFINEMENT_KINDS = [
    (0.75, 1.0 / 256.0, lambda rng, n: 1.0 + 0.003 * rng.integers(0, 6, n)),
    (0.5, 0.1, lambda rng, n: 1.0 + 0.08 * rng.integers(0, 6, n)),
    (0.5, 0.5, lambda rng, n: 1.5 ** rng.integers(0, 5, n)),
]


def _synthetic_refinement(seed):
    """A hand-made crude partition and an embedding stand-in over a graph.

    Built so that every Step-3 filter fires: mu takes a few values (ties among
    a round's members, non-empty A''), weights and costs are small integers
    with some heavy vertices, so sums land exactly on limits of 1 w(P), and
    lambda_k sets a finite expansion bound near the rounds' cut ratios.
    Returns (crude, embedding).
    """
    rng = np.random.default_rng(seed)
    n, k, rounds = 40, 2, 4
    delta, eps, mu_of = REFINEMENT_KINDS[seed % len(REFINEMENT_KINDS)]
    pairs = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(110)}
    rows = [(u, v, float(rng.integers(1, 4))) for u, v in sorted(pairs)]
    g = Graph.build(n, *columns(rows), weights=rng.choice([1.0, 2.0, 3.0, 24.0], n))
    # Label 2t: Ptilde of round t; 2t + 1: its Btilde; then R_P and R_B.
    label = rng.integers(0, 2 * rounds + 2, n)
    crude = crude_of_rounds(
        n, [(t, np.flatnonzero(label == 2 * t), np.flatnonzero(label == 2 * t + 1))
            for t in range(rounds)], np.flatnonzero(label == 2 * rounds + 1),
        SimpleNamespace(k=k, epsilon=eps, delta=delta))
    target = float(rng.choice([0.5, 2.0, 5.0, 50.0]))      # the expansion bound
    lam = target * eps * delta / (partition.EXPANSION_SLACK * math.log(k))
    e = SimpleNamespace(graph=g, k_prime=k, mu=mu_of(rng, n),
                        basis=SimpleNamespace(eigenvalues=np.array([0.0, lam])))
    return crude, e


def test_refinement_oracle_cases_fire_every_filter():
    tally = Counter()
    ties = 0
    for seed in range(48):
        c, e = _synthetic_refinement(seed)
        got = refine_and_discard(c, e)
        assert_same_partial(got, reference_refine_and_discard(c, e, tally))
        for rec in c.rounds:
            members = np.union1d(rec.p_tilde, rec.b_tilde)
            ties += np.unique(e.mu[members]).size < members.size
    for name in ("buffer", "a_double", "a1_cut", "out_cut",
                 "buffer_on_limit", "a_double_on_limit"):
        assert tally[name] > 0, (name, tally)
    assert ties > 0


def test_refinement_members_exactly_on_the_band_edges():
    # eps = 0.5 and r = 2.25 give lo = 1.5 and lo/(1 + eps) = 1.0 exactly.
    # Vertex 1 (mu = 1.0, heavy) is then in A', not A'', and vertex 3
    # (mu = 1.5, in Btilde) is in B; r = 2.25 wins with phi = 1 over r = 1.0
    # with phi = 100/25.  A sweep that put either vertex on the wrong side of
    # its band edge would drop r = 2.25 or rank it behind r = 1.0.
    g = Graph.build(4, [0, 1, 0], [1, 2, 3], [1.0, 100.0, 5.0],
                    weights=[1.0, 24.0, 1.0, 1.0])
    c = crude_of_rounds(4, [(0, [0, 1], [3])], [], SimpleNamespace(k=2, epsilon=0.5, delta=0.5))
    e = SimpleNamespace(graph=g, k_prime=2, mu=np.array([2.25, 1.0, 1.0, 1.5]),
                        basis=SimpleNamespace(eigenvalues=np.array([0.0, 1.0])))
    got = refine_and_discard(c, e)
    assert_same_partial(got, reference_refine_and_discard(c, e))
    (t,) = refined_tuples(got)
    assert (t.threshold, t.phi) == (2.25, 1.0)
    assert t.a_prime.tolist() == [1] and t.a_double.size == 0 and t.b.tolist() == [3]


def test_refinement_oracle_with_zero_epsilon():
    g = CLIQUES6
    e = _embedding(g, 6)
    eff = resolve_step2(g.n, 6, 0.0, 0.01)
    assert eff.epsilon == 0.0 and eff.params.eps_prime == 0.0
    c = crude_partition(e, eff, RandomStream(2, "eps0"))
    assert_same_crude(c, reference_crude_partition(e, eff, RandomStream(2, "eps0")))
    got = refine_and_discard(c, e)
    assert_same_partial(got, reference_refine_and_discard(c, e))
    assert got.k_prime > 0


def test_step3_search_prunes_most_thresholds(monkeypatch):
    # The Step-3 counterpart of the cheeger2 sweep guard: the interval sums
    # must leave only a few candidates for graph.least_exact to evaluate.
    candidates, evaluated = [], []
    real = partition.least_exact

    def spy(order, lower, evaluate):
        candidates.append(len(order))

        def counted(i):
            evaluated.append(i)
            return evaluate(i)
        return real(order, lower, counted)

    monkeypatch.setattr(partition, "least_exact", spy)
    buffered_k_partition(planted([100] * 4, 0.3, 0.01, 7)[0], 4, 0.05, 0.2, seed=1)
    assert 1 <= len(evaluated) <= sum(candidates) // 10


# Hand-made crude partitions for the one-sweep Step 3: each is the rounds as
# (Ptilde, Btilde) over a 24-vertex graph, with every other vertex in R_P
# except 22 and 23, which are in R_B.
STEP3_CASES = {
    "no-rounds": [],
    "no-refinable-round": [([], [0, 1, 2]), ([], [5, 6])],
    "one-round": [(list(range(8)), [8, 9, 10])],
    "single-member-round": [([3], []), ([0, 1, 2, 4], [5, 6]), ([7, 8], [9])],
    "empty-ptilde-between": [([0, 1, 2, 3], [4]), ([], [5, 6, 7]), ([8, 9, 10, 11], [12])],
    "edges-across-rounds": [([0, 1, 2, 3, 4, 5], [6, 7]), ([8, 9, 10, 11, 12, 13], [14])],
    "equal-mu": [([0, 1, 2, 3, 4], [5, 6]), ([8, 9, 10], [11])],
    "eps-zero": [([0, 1, 2, 3], [4]), ([], [5, 6, 7]), ([8, 9, 10, 11], [12])],
}


def _step3_case(name):
    """(crude, embedding stand-in) of STEP3_CASES[name]."""
    rng = np.random.default_rng(61)
    n, k, delta = 24, 2, 0.5
    eps = 0.0 if name == "eps-zero" else 0.1
    pairs = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(70)}
    pairs |= {(0, 8), (3, 9), (6, 14), (7, 12), (2, 11)}       # between rounds
    g = Graph.build(n, *columns([(u, v, float(rng.integers(1, 4))) for u, v in sorted(pairs)]),
                    weights=rng.choice([1.0, 2.0, 3.0], n))
    mu = 1.0 + 0.1 * rng.integers(0, 6, n)
    rounds = STEP3_CASES[name]
    if name == "equal-mu":
        mu[:7] = 1.3
    crude = crude_of_rounds(n, [(3 * t, p, b) for t, (p, b) in enumerate(rounds)], [22, 23],
                            SimpleNamespace(k=k, epsilon=eps, delta=delta))
    lam = 50.0 * 0.1 * delta / (partition.EXPANSION_SLACK * math.log(k))   # bound 50
    e = SimpleNamespace(graph=g, k_prime=k, mu=mu,
                        basis=SimpleNamespace(eigenvalues=np.array([0.0, lam])))
    return crude, e


@pytest.mark.parametrize("name", sorted(STEP3_CASES))
def test_one_step3_sweep_matches_global_mask_reference(name):
    c, e = _step3_case(name)
    got = refine_and_discard(c, e)
    assert_same_partial(got, reference_refine_and_discard(c, e))
    refinable = sum(rec.p_tilde.size > 0 for rec in c.rounds)
    assert got.diagnostics["survivors_step3"] + got.diagnostics["infeasible_rounds"] == refinable
    if refinable:
        assert got.k_prime > 0
    if name == "edges-across-rounds":
        (a, _), (b, _) = STEP3_CASES[name]
        g = e.graph
        assert any(u in a and v in b for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()))
    if name == "single-member-round":
        assert refined_tuples(got)[0].p.tolist() == [3]


class ScriptedStream:
    """Stands in for RandomStream: normals() hands out fixed values in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64).ravel()
        self.used = 0

    def normals(self, count):
        out = self.values[self.used:self.used + count].copy()
        self.used += count
        assert out.size == count
        return out


def _unit_rows(rng, count, dim):
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]


# Where the target entry's exact projection lands, and the set it must join.
BOUNDARIES = {"t": "x", "t-eps'": "z", "t-2eps'": None, "ulp above t-2eps'": "z",
              "eps'=0 at t": "x"}


@pytest.mark.parametrize("block_values", [None, 3 * 60 + 1])
@pytest.mark.parametrize("where", sorted(BOUNDARIES))
def test_draws_on_interval_boundaries_match_reference(where, block_values, monkeypatch):
    if block_values is not None:
        monkeypatch.setattr(separators, "BLOCK_VALUES", block_values)
    rng = np.random.default_rng(17)
    vectors = _unit_rows(rng, 60, 5)
    vectors[7] = vectors[3]                 # duplicate psi rows
    measures = rng.random(60) + 0.5
    gs = rng.standard_normal((40, 5))
    columns = np.ascontiguousarray(vectors.T)
    exact = reference_project(columns, gs)
    # Prefer an entry whose BLAS value rounds below the exact one: pruning on
    # the BLAS value without a margin loses such an entry at the floor.
    inside = (exact >= 0.5) & (exact < 0.875)
    picks = np.argwhere(inside & (gs @ columns < exact))
    d, c = (picks if len(picks) else np.argwhere(inside))[0]
    value = float(exact[d, c])
    if where == "t":
        t, eps_prime = value, 0.05
    elif where == "t-eps'":
        t = value + 0.05
        eps_prime = t - value               # exact: t and value within a factor 2
        assert t - eps_prime == value
    elif where == "t-2eps'":
        eps_prime = 2.0 ** -5
        t = value + 2.0 * eps_prime
        assert t - 2.0 * eps_prime == value
    elif where == "ulp above t-2eps'":
        eps_prime = 2.0 ** -5
        t = float(np.nextafter(value, 0.0)) + 2.0 * eps_prime
        assert t - 2.0 * eps_prime == np.nextafter(value, 0.0)
    else:
        t, eps_prime = value, 0.0
    p = separators.SeparatorParams(epsilon=0.1, m=3.0, r=0.5, t=t, alpha=0.1,
                                   eps_prime=eps_prime, calibrated=False)
    delta, r = 2.0 / 3.0, p.r
    got = list(separators.measured_draws(vectors, measures, delta, p, ScriptedStream(gs),
                                         len(gs)))
    stream = ScriptedStream(gs)
    want = [reference_draw(vectors, measures, delta * float(measures.sum()), r, p, stream)
            for _ in range(len(gs))]
    assert_same_draws(got, reached(want))
    empty = np.empty(0, dtype=np.int64)
    target = dict(got).get(d, separators.SeparatorSample(x=empty, y=empty, z=empty))
    joined = [name for name in ("x", "y", "z") if c in getattr(target, name)]
    assert not target.rejected
    assert joined == ([BOUNDARIES[where]] if BOUNDARIES[where] else [])


@pytest.mark.parametrize("stretch", [1.0, 1.0 + 5e-10])
@pytest.mark.parametrize("eps_prime", [0.0, 2.0 ** -5])
def test_norm_prune_keeps_a_direction_at_the_floor(eps_prime, stretch):
    # Vector 11 is parallel to direction 3 and may be longer than 1 by up to
    # _check_unit's 1e-9, so it projects to ||g|| times its own norm; the
    # floor t - 2 eps' sits at that projection (eps' = 0) or 1 ulp below it,
    # so ||g|| is within one margin of the floor, or below it by the stretch.
    # The direction must still enter the product and reach the vector.
    rng = np.random.default_rng(29)
    vectors = _unit_rows(rng, 40, 4)
    gs = rng.standard_normal((6, 4))
    gs[3] *= 1.5 / np.linalg.norm(gs[3])
    vectors[11] = gs[3] / np.linalg.norm(gs[3]) * stretch
    value = float(reference_project(np.ascontiguousarray(vectors.T), gs)[3, 11])
    floor = value if eps_prime == 0.0 else float(np.nextafter(value, 0.0))
    t = floor + 2.0 * eps_prime
    assert t - 2.0 * eps_prime == floor
    p = separators.SeparatorParams(epsilon=0.1, m=3.0, r=0.5, t=t, alpha=0.1,
                                   eps_prime=eps_prime, calibrated=False)
    delta, r = 2.0 / 3.0, p.r
    got = separators.measured_draws(vectors, np.ones(40), delta, p, ScriptedStream(gs),
                                    len(gs))
    stream = ScriptedStream(gs)
    want = [reference_draw(vectors, np.ones(40), delta * 40.0, r, p, stream)
            for _ in range(len(gs))]
    assert_same_draws(got, reached(want))
    sample = dict(got)[3]
    assert 11 in (sample.z if eps_prime else sample.x)


def test_norm_prune_leaves_few_draws_for_the_blas_product(monkeypatch):
    # At n = 4000 and k_hat = 4 a restart runs at the practical scale
    # alpha = 1/n, t ~ 3.48, and a 4-dim normal g has ||g|| >= t with
    # probability about 0.017: fewer than 1 in 10 of its 19,880 draws may
    # enter gs @ columns.  The count depends only on the directions.
    drawn, aimed = [], []
    real = separators._aimed

    def spy(gs, floor):
        rows, margin = real(gs, floor)
        drawn.append(gs.shape[0])
        aimed.append(rows.size)
        return rows, margin

    monkeypatch.setattr(separators, "_aimed", spy)
    eff = resolve_step2(4000, 4, 0.001, 1.0 / 80.0)
    vectors = _unit_rows(np.random.default_rng(41), 4000, 4)
    draws = separators.measured_draws(vectors, np.ones(4000), eff.delta_sep, eff.params,
                                      RandomStream(0, "norm-prune"), eff.rounds)
    assert sum(drawn) == eff.rounds == 19880
    assert len(draws) <= sum(aimed) < eff.rounds / 10


def _oracle_distance(vectors, i, j):
    """The distance the all-pairs rule compares with r."""
    pts = vectors[[i, j]]
    return float(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)[0, 1])


def _decisions(vectors, mu, sets, limit, r):
    """separators._min_ball_accepted on the index arrays `sets` as one run."""
    starts = np.cumsum([0] + [x.size for x in sets[:-1]])
    return separators._min_ball_accepted(vectors, mu, np.concatenate(sets), starts, limit, r)


def _around(value):
    """value and the floats one ulp either side of it."""
    return [float(np.nextafter(value, -np.inf)), float(value), float(np.nextafter(value, np.inf))]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_min_ball_pairs_at_radius_and_one_ulp_either_side(dim):
    rng = np.random.default_rng(23 + dim)
    vectors = _unit_rows(rng, 30, dim)
    vectors[5] = vectors[4]                 # duplicate psi rows, distance 0
    mu = rng.random(30) + 0.1
    moved = apart = 0
    pairs = [(4, 5)] + [tuple(rng.choice(30, 2, replace=False)) for _ in range(25)]
    for i, j in pairs:
        radius = _oracle_distance(vectors, i, j)
        radii = _around(radius)
        if radius == 0.0:
            radii = [5e-324, 1e-300, 1e-12]
        for r in radii:
            for x_idx in (np.array([i, j]), np.arange(30)):
                # The decision at the oracle's own leftover and one ulp either side.
                leftover = reference_min_ball_leftover(vectors, mu, x_idx, r)
                for limit in _around(leftover):
                    got = _decisions(vectors, mu, [x_idx], limit, r)[0]
                    assert got == (leftover <= limit), (i, j, r, limit)
        # On the pair alone the leftover is min(mu_i, mu_j) just below the
        # distance and 0 at it, so the rule itself is what is tested.
        below, at = (reference_min_ball_leftover(vectors, mu, np.array([i, j]), r)
                     for r in radii[:2])
        moved += below > 0.0 and at == 0.0
        apart += radius > 0.0
    assert moved == apart >= 10


@st.composite
def min_ball_cases(draw):
    dim = draw(st.integers(1, 7))
    count = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vectors = _unit_rows(rng, count, dim)
    for a, b in draw(st.lists(st.tuples(st.integers(0, count - 1),
                                        st.integers(0, count - 1)), max_size=4)):
        vectors[a] = vectors[b]
    mu = rng.random(count) * (rng.random(count) < 0.9)
    x_idx = np.flatnonzero(rng.random(count) < draw(st.floats(0.2, 1.0)))
    if x_idx.size == 0:
        x_idx = np.array([0])
    i, j = draw(st.integers(0, count - 1)), draw(st.integers(0, count - 1))
    r = draw(st.one_of(
        st.floats(1e-12, 2.5),
        st.integers(-2, 2).map(lambda ulps: float(
            np.nextafter(_oracle_distance(vectors, i, j), math.copysign(4.0, ulps))
            if ulps else _oracle_distance(vectors, i, j)))).filter(lambda r: r > 0.0))
    return vectors, mu, x_idx, r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(min_ball_cases())
def test_min_ball_leftover_equals_broadcast_oracle(case):
    vectors, mu, x_idx, r = case
    leftover = reference_min_ball_leftover(vectors, mu, x_idx, r)
    for limit in _around(leftover):
        assert _decisions(vectors, mu, [x_idx], limit, r)[0] == (leftover <= limit)


def _arc(rng, positions, dim):
    """Unit vectors at the given positions along a random great circle; on a
    short arc they are near-collinear."""
    base, step = np.linalg.qr(rng.standard_normal((dim, 2)))[0].T
    rows = base + np.outer(positions, step)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


@st.composite
def min_ball_runs(draw):
    """A run of X sets over up to 300 vectors: spread vectors, tight clusters,
    short arcs and collinear triples, each group one set, and random subsets
    of all of them, with duplicate rows.  r is random or the rule distance of
    two members of one set within 1 ulp, and the limit is that set's oracle
    leftover within 1 ulp.  A triple is two light points on a short arc with
    a heavy one beyond them; the triples of a run share their spacing, so
    their light pairs all lie within rounding of one distance.  The heavy
    point is the pivot, and the pivot bound of the middle point is tight to
    the rounding of the distances and of their offset keys."""
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # Long enough for the heavy point to be the pivot, short enough for the
    # triangle inequality through it to be tight.
    spacing = 10.0 ** draw(st.floats(-7.0, -5.0)) * np.array([0.0, 1.0, 1.0 + draw(
        st.floats(0.2, 0.8))])
    groups, pairs, heavy = [], [], []
    for kind in draw(st.lists(st.sampled_from(["spread", "cluster", "arc", "triple"]),
                              min_size=1, max_size=6)):
        size = 3 if kind == "triple" else draw(st.one_of(st.integers(1, 5),
                                                         st.integers(1, 120)))
        if kind == "spread":
            rows = _unit_rows(rng, size, dim)
        elif kind == "cluster":
            rows = _unit_rows(rng, 1, dim) + 0.05 * rng.standard_normal((size, dim))
            rows /= np.linalg.norm(rows, axis=1)[:, None]
        elif kind == "arc":
            rows = _arc(rng, 10.0 ** draw(st.integers(-9, -1)) * rng.random(size), dim)
        else:
            rows = _arc(rng, spacing, dim)
        first = sum(len(g) for g in groups)
        if kind == "triple":
            pairs.append((first, first + 1))
            heavy.append(first + 2)
        else:
            pairs.append(tuple(first + rng.integers(size, size=2)))
        groups.append(rows)
    vectors = np.concatenate(groups)[:300]
    count = vectors.shape[0]
    for a, b in draw(st.lists(st.tuples(st.integers(0, count - 1),
                                        st.integers(0, count - 1)), max_size=3)):
        vectors[a] = vectors[b]
    mu = rng.random(count) ** 3 + 1e-3 * (rng.random(count) < 0.5)
    mu[[h for h in heavy if h < count]] += 100.0
    bounds = np.cumsum([0] + [len(rows) for rows in groups])
    sets = [np.arange(lo, min(hi, count)) for lo, hi in zip(bounds, bounds[1:]) if lo < count]
    for _ in range(draw(st.integers(0, 2))):
        x_idx = np.flatnonzero(rng.random(count) < draw(st.floats(0.05, 1.0)))
        sets.append(x_idx if x_idx.size else np.array([int(rng.integers(count))]))
    triples = [at for at in range(len(sets)) if at < len(pairs) and pairs[at][0] + 2 in heavy]
    at = draw(st.one_of(st.sampled_from(triples), st.integers(0, len(sets) - 1))
              if triples else st.integers(0, len(sets) - 1))
    i, j = pairs[at] if at < len(pairs) and max(pairs[at]) < count else rng.choice(sets[at], 2)
    r = draw(st.one_of(
        st.sampled_from([1, 0, 2]).map(lambda side: _around(_oracle_distance(vectors, i, j))[side]),
        st.floats(1e-12, 2.5)).filter(lambda r: r > 0.0))
    leftover = reference_min_ball_leftover(vectors, mu, sets[at], r)
    limit = _around(leftover)[draw(st.sampled_from([1, 2, 0]))]
    return vectors, mu, sets, limit, r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(min_ball_runs())
def test_min_ball_decision_equals_all_pairs_oracle(case):
    vectors, mu, sets, limit, r = case
    want = [reference_min_ball_leftover(vectors, mu, x_idx, r) <= limit for x_idx in sets]
    assert _decisions(vectors, mu, sets, limit, r).tolist() == want


@pytest.mark.parametrize("k", [1, 2, 5, 6])
def test_normals_block_equals_successive_calls(k):
    blocks = 37
    for lead in (0, 1, 3):
        # A lead call of odd length leaves a pending Box-Muller value behind.
        one, many = RandomStream(5, "contract", k), RandomStream(5, "contract", k)
        one.normals(lead)
        many.normals(lead)
        block = one.normals(k * blocks)
        pieces = np.concatenate([many.normals(k) for _ in range(blocks)])
        assert block.tobytes() == pieces.tobytes()
        assert one.normals(3).tobytes() == many.normals(3).tobytes()


def test_crude_partition_normals_calls(monkeypatch):
    g, k, eps, delta = CASES["cliques6-k6"]
    e = _embedding(g, k)
    calls = []
    original = RandomStream.normals

    def counting(self, count):
        calls.append(count)
        return original(self, count)

    monkeypatch.setattr(RandomStream, "normals", counting)
    for block_values in (separators.BLOCK_VALUES, 50 * g.n):
        monkeypatch.setattr(separators, "BLOCK_VALUES", block_values)
        calls.clear()
        c = crude_partition(e, resolve_step2(g.n, k, eps, delta), RandomStream(0, "count"))
        block = max(1, block_values // g.n)
        assert len(calls) == math.ceil(c.effective.rounds / block)
        assert sum(calls) == k * c.effective.rounds


def test_driver_solves_one_eigenbasis(monkeypatch):
    calls = []
    original = partition.eigenbasis

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(partition, "eigenbasis", counting)
    monkeypatch.setattr(certify, "eigenbasis", counting)
    g = disjoint_cliques([12, 12, 12, 12])
    bp, report, info = buffered_k_partition(g, 4, 0.1, 0.1, seed=0)
    assert len(calls) == 1
    assert info["certificate"]["lower_bound_buffered_check"]
