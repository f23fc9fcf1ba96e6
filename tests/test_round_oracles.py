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
                     derive_stream, eigenbasis, embed, normalized_laplacian,
                     refine_and_discard)
from bufpart import certify, partition, separators
from bufpart.partition import CrudePartition, RoundRecord, resolve_step2
from conftest import disjoint_cliques, planted, weighted_er
from round_oracles import (reached, reference_crude_partition, reference_draw,
                           reference_min_ball_leftover, reference_project,
                           reference_refine_and_discard)

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
    for name in ("sigma", "gamma", "r_p", "r_b"):
        assert _same_array(getattr(got, name), getattr(want, name)), name


def assert_same_draws(got, want):
    """measured_draws() pairs against the reference's reached (index, draw) pairs."""
    assert [index for index, _ in got] == [index for index, _ in want]
    for (index, a), (_, (x, y, z, rejected)) in zip(got, want):
        assert a.rejected == rejected, index
        for name, arr in (("x", x), ("y", y), ("z", z)):
            assert _same_array(getattr(a, name), arr), (index, name)


def assert_same_partial(got, want):
    assert len(got.tuples) == len(want.tuples)
    for a, b in zip(got.tuples, want.tuples):
        assert a.round_index == b.round_index
        assert a.threshold == b.threshold
        assert a.phi == b.phi
        for name in ("p", "b", "a_prime", "a_double"):
            assert _same_array(getattr(a, name), getattr(b, name)), name
    assert _same_array(got.r_p_prime, want.r_p_prime)
    assert _same_array(got.r_b_prime, want.r_b_prime)
    assert got.lambda_k == want.lambda_k
    assert got.diagnostics == want.diagnostics


@pytest.mark.parametrize("block_values", [None, 7 * 200 + 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_block_rounds_match_per_draw_reference(case, block_values, monkeypatch):
    if block_values is not None:
        # Small blocks: many block boundaries and a partial last block.
        monkeypatch.setattr(separators, "BLOCK_VALUES", block_values)
    g, k, eps, delta = CASES[case]
    e = _embedding(g, k)
    for seed in range(3):
        got = crude_partition(e, k, eps, delta, derive_stream(seed, "oracle", k))
        want = reference_crude_partition(e, k, eps, delta, derive_stream(seed, "oracle", k))
        assert_same_crude(got, want)
        eff = got.effective
        draws = separators.measured_draws(e.psi, e.mu, eff.epsilon, eff.delta_sep, eff.radius,
                                          derive_stream(seed, "oracle", k), eff.rounds,
                                          params=eff.params)
        assert_same_draws(list(draws), reached(want.draws))


def test_oracle_cases_include_rejections():
    rejects = 0
    for g, k, eps, delta in CASES.values():
        e = _embedding(g, k)
        rejects += crude_partition(e, k, eps, delta, derive_stream(0, "oracle", k)).reject_count
    assert rejects > 0


# The ids keep the name of Step 4's rule, "theory" (keep every tuple within
# the expansion bound), which is the only rule there is.
@pytest.mark.parametrize("case", sorted(CASES), ids=[f"{c}-theory" for c in sorted(CASES)])
def test_local_refinement_matches_global_mask_reference(case):
    g, k, eps, delta = CASES[case]
    e = _embedding(g, k)
    kept = 0
    for seed in range(4):
        c = crude_partition(e, k, eps, delta, derive_stream(seed, "refine-oracle", k))
        eff = c.effective
        got = refine_and_discard(c, e, g, k, eff.epsilon, eff.delta)
        want = reference_refine_and_discard(c, e, g, k, eff.epsilon, eff.delta)
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
    """A graph, an embedding stand-in and a hand-made crude partition.

    Built so that every Step-3 filter fires: mu takes a few values (ties among
    a round's members, non-empty A''), weights and costs are small integers
    with some heavy vertices, so sums land exactly on limits of 1 w(P), and
    lambda_k sets a finite expansion bound near the rounds' cut ratios.
    Returns (crude, embedding, graph, k, epsilon, delta).
    """
    rng = np.random.default_rng(seed)
    n, k, rounds = 40, 2, 4
    delta, eps, mu_of = REFINEMENT_KINDS[seed % len(REFINEMENT_KINDS)]
    pairs = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(110)}
    rows = [(u, v, float(rng.integers(1, 4))) for u, v in sorted(pairs)]
    g = Graph.build(n, rows, weights=rng.choice([1.0, 2.0, 3.0, 24.0], n))
    # Label 2t: Ptilde of round t; 2t + 1: its Btilde; then R_P and R_B.
    label = rng.integers(0, 2 * rounds + 2, n)
    records = []
    for t in range(rounds):
        p_tilde = np.flatnonzero(label == 2 * t)
        b_tilde = np.flatnonzero(label == 2 * t + 1)
        records.append(RoundRecord(index=t, p_tilde=p_tilde, b_tilde=b_tilde))
    crude = CrudePartition(
        rounds=tuple(records), sigma=np.flatnonzero((label % 2 == 0) & (label < 2 * rounds)),
        gamma=np.flatnonzero((label % 2 == 1) & (label < 2 * rounds)),
        r_p=np.flatnonzero(label == 2 * rounds), r_b=np.flatnonzero(label == 2 * rounds + 1),
        effective=None, reject_count=0)
    target = float(rng.choice([0.5, 2.0, 5.0, 50.0]))      # the expansion bound
    lam = target * eps * delta / (partition.EXPANSION_SLACK * math.log(k))
    e = SimpleNamespace(k_prime=k, mu=mu_of(rng, n),
                        basis=SimpleNamespace(eigenvalues=np.array([0.0, lam])))
    return crude, e, g, k, eps, delta


def test_refinement_oracle_cases_fire_every_filter():
    tally = Counter()
    ties = 0
    for seed in range(48):
        c, e, g, k, eps, delta = _synthetic_refinement(seed)
        got = refine_and_discard(c, e, g, k, eps, delta)
        assert_same_partial(got, reference_refine_and_discard(c, e, g, k, eps, delta, tally))
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
    g = Graph.build(4, [(0, 1, 1.0), (1, 2, 100.0), (0, 3, 5.0)],
                    weights=[1.0, 24.0, 1.0, 1.0])
    rec = RoundRecord(index=0, p_tilde=np.array([0, 1]), b_tilde=np.array([3]))
    c = CrudePartition(rounds=(rec,), sigma=np.array([0, 1]), gamma=np.array([3]),
                       r_p=np.array([2]), r_b=np.empty(0, np.int64), effective=None,
                       reject_count=0)
    e = SimpleNamespace(k_prime=2, mu=np.array([2.25, 1.0, 1.0, 1.5]),
                        basis=SimpleNamespace(eigenvalues=np.array([0.0, 1.0])))
    got = refine_and_discard(c, e, g, 2, 0.5, 0.5)
    assert_same_partial(got, reference_refine_and_discard(c, e, g, 2, 0.5, 0.5))
    (t,) = got.tuples
    assert (t.threshold, t.phi) == (2.25, 1.0)
    assert t.a_prime.tolist() == [1] and t.a_double.size == 0 and t.b.tolist() == [3]


def test_refinement_oracle_with_zero_epsilon():
    g = CLIQUES6
    e = _embedding(g, 6)
    eff = resolve_step2(g.n, 6, 0.0, 0.01)
    assert eff.epsilon == 0.0 and eff.params.eps_prime == 0.0
    c = crude_partition(e, 6, 0.0, 0.01, derive_stream(2, "eps0"))
    assert_same_crude(c, reference_crude_partition(e, 6, 0.0, 0.01, derive_stream(2, "eps0")))
    got = refine_and_discard(c, e, g, 6, 0.0, eff.delta)
    assert_same_partial(got, reference_refine_and_discard(c, e, g, 6, 0.0, eff.delta))
    assert got.k_prime > 0


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
    delta, r = 2.0 / 3.0, 0.5
    got = list(separators.measured_draws(vectors, measures, 0.1, delta, r,
                                         ScriptedStream(gs), len(gs), params=p))
    stream = ScriptedStream(gs)
    want = [reference_draw(vectors, measures, delta * float(measures.sum()), r, p, stream)
            for _ in range(len(gs))]
    assert_same_draws(got, reached(want))
    empty = np.empty(0, dtype=np.int64)
    target = dict(got).get(d, separators.SeparatorSample(x=empty, y=empty, z=empty))
    joined = [name for name in ("x", "y", "z") if c in getattr(target, name)]
    assert not target.rejected
    assert joined == ([BOUNDARIES[where]] if BOUNDARIES[where] else [])


def _oracle_distance(vectors, i, j):
    """The distance the all-pairs rule compares with r."""
    pts = vectors[[i, j]]
    return float(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)[0, 1])


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
        radii = [np.nextafter(radius, 0.0), radius, np.nextafter(radius, 4.0)]
        if radius == 0.0:
            radii = [5e-324, 1e-300, 1e-12]
        for r in map(float, radii):
            for x_idx in (np.array([i, j]), np.arange(30)):
                got = separators._min_ball_leftover(vectors, mu, x_idx, r)
                assert got == reference_min_ball_leftover(vectors, mu, x_idx, r), (i, j, r)
        # On the pair alone the leftover is min(mu_i, mu_j) just below the
        # distance and 0 at it, so the rule itself is what is tested.
        below, at = (reference_min_ball_leftover(vectors, mu, np.array([i, j]), float(r))
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
    got = separators._min_ball_leftover(vectors, mu, x_idx, r)
    assert got == reference_min_ball_leftover(vectors, mu, x_idx, r)


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
        c = crude_partition(e, k, eps, delta, derive_stream(0, "count"))
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
