"""The block round loop and the local refinement against their reference loops.

Reports stay byte-identical only if every round record, threshold and phi is
reproduced exactly, so these comparisons use exact equality throughout.
"""

import math

import numpy as np
import pytest

from bufpart import (AlgoConstants, RandomStream, buffered_k_partition, crude_partition,
                     derive_stream, eigenbasis, embed, normalized_laplacian,
                     refine_and_discard)
from bufpart import certify, partition, separators
from bufpart.partition import resolve_step2
from conftest import disjoint_cliques, planted, weighted_er
from round_oracles import reference_crude_partition, reference_refine_and_discard

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


def assert_same_crude(got, reference):
    want, snapshots = reference
    assert got.reject_count == want.reject_count
    assert len(got.rounds) == len(want.rounds)
    for a, b in zip(got.rounds, want.rounds):
        assert a.index == b.index and a.rejected == b.rejected
        for name in ("x", "y", "z", "p_tilde", "b_tilde"):
            assert _same_array(getattr(a, name), getattr(b, name)), (a.index, name)
    # eta_costs takes Sigma before round t to be the cores of the earlier rounds;
    # that must equal the reference's full-length snapshot on every active round.
    active = [rec.index for rec in got.rounds if rec.p_tilde.size or rec.b_tilde.size]
    assert active and active == sorted(snapshots)
    round_of_p = -np.ones(snapshots[active[0]].size, dtype=np.int64)
    for rec in got.rounds:
        round_of_p[rec.p_tilde] = rec.index
    for t in active:
        assert np.array_equal((round_of_p >= 0) & (round_of_p < t), snapshots[t]), t
    for name in ("sigma", "gamma", "r_p", "r_b"):
        assert _same_array(getattr(got, name), getattr(want, name)), name


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


def test_oracle_cases_include_rejections():
    rejects = 0
    for g, k, eps, delta in CASES.values():
        e = _embedding(g, k)
        rejects += crude_partition(e, k, eps, delta, derive_stream(0, "oracle", k)).reject_count
    assert rejects > 0


@pytest.mark.parametrize("mode", ["theory", "keep_best"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_local_refinement_matches_global_mask_reference(case, mode):
    g, k, eps, delta = CASES[case]
    e = _embedding(g, k)
    consts = AlgoConstants(step4_mode=mode)
    kept = 0
    for seed in range(4):
        c = crude_partition(e, k, eps, delta, derive_stream(seed, "refine-oracle", k))
        eff = c.effective
        got = refine_and_discard(c, e, g, k, eff.epsilon, eff.delta, consts)
        want = reference_refine_and_discard(c, e, g, k, eff.epsilon, eff.delta, consts)
        assert_same_partial(got, want)
        kept += got.k_prime
    assert kept > 0


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
        assert len(calls) == math.ceil(len(c.rounds) / block)
        assert sum(calls) == k * len(c.rounds)


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
