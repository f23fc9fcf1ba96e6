"""Each one-key order and search of the library against the two-key form it replaced.

Step 3, the min-ball test, the two-threshold cut and robust_expansion order
pairs by one exact key: a complex (group, value) key from graph._pair_key for
an (int, float) pair, a packed int64 for an (int, int) pair, or a stable sort
of the first key where the second already ascends in input order.  These tests
pin each to np.lexsort or to reference_ranks, bit for bit, on ties, +-0.0,
+inf and equal values in different groups.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bufpart.graph import _pair_key
from round_oracles import reference_pivots, reference_ranks

# Few distinct values, so ties and equal values across groups are common.
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0, 1.0 + 2.0 ** -52, 5e-324, np.inf]),
                   st.floats(-1e6, 1e6))
PAIRS = st.lists(st.tuples(st.integers(0, 4), VALUES), min_size=1, max_size=60)
EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True)


def _columns(pairs):
    group, value = zip(*pairs)
    return np.array(group, dtype=np.int64), np.array(value, dtype=np.float64)


@EXAMPLES
@given(PAIRS)
def test_pair_key_sorts_as_the_lexsort(pairs):
    group, value = _columns(pairs)
    key = _pair_key(group, value)
    order = np.lexsort((value, group))
    assert np.array_equal(np.argsort(key, kind="stable"), order)
    # Step 3's candidates: the first pair of each run of equal pairs, bit for bit.
    g, v = group[order], value[order]
    first = np.append(True, (g[1:] != g[:-1]) | (v[1:] != v[:-1]))
    ranked = np.sort(key, kind="stable")
    ranked = ranked[np.append(True, ranked[1:] != ranked[:-1])]
    assert np.array_equal(ranked.real.astype(np.int64), g[first])
    assert ranked.imag.tobytes() == v[first].tobytes()


@EXAMPLES
@given(PAIRS, PAIRS, st.sampled_from([1.0, 1.1, 1.21]), st.floats(0.0, 4.0))
def test_pair_key_searches_count_as_the_ranks(pairs, queries, scale, width):
    """Step 3 searches the (round, mu) of each slot among the sorted (round,
    value / scale) of the candidates; the min-ball test searches (set, d -/+ w)
    among the sorted (set, d), adding 1j w to the key."""
    group, value = _columns(pairs)
    order = np.lexsort((value, group))
    group, value = group[order], value[order] / scale
    sorted_key = _pair_key(group, value)
    q_group, q_value = _columns(queries)
    for side in ("left", "right"):
        assert np.array_equal(np.searchsorted(sorted_key, _pair_key(q_group, q_value), side),
                              reference_ranks(value, group, q_value, q_group, side))
        for sign in (1.0, -1.0):
            shifted = _pair_key(q_group, q_value) + sign * 1j * width
            assert np.array_equal(
                np.searchsorted(sorted_key, shifted, side),
                reference_ranks(value, group, q_value + sign * width, q_group, side))


@EXAMPLES
@given(st.lists(VALUES, max_size=60), st.lists(st.integers(0, 4), max_size=60))
def test_stable_sorts_are_the_lexsort_when_the_second_key_ascends(values, groups):
    """The two-threshold cut's visit order (phi, then ascending thresholds),
    robust_expansion's (-cost, then ascending vertices) and Step 3's slots
    (round, then vertices that ascend within each round)."""
    first = np.array(values, dtype=np.float64)
    ascending = np.cumsum(np.ones(first.size))
    assert np.array_equal(np.argsort(first, kind="stable"), np.lexsort((ascending, first)))
    assert np.array_equal(np.argsort(-first, kind="stable"), np.lexsort((ascending, -first)))
    slot_round = np.array(groups, dtype=np.int64)
    vertex = np.arange(slot_round.size)
    assert np.array_equal(np.argsort(slot_round, kind="stable"), np.lexsort((vertex, slot_round)))


@EXAMPLES
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 40)), unique=True, max_size=80))
def test_packed_edge_key_sorts_as_the_lexsort(pairs):
    """Step 3's edges: each (round, edge) at most once, packed as round m + edge."""
    m = 41
    table = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    e_round, edge = table[:, 0], table[:, 1]
    order = np.lexsort((edge, e_round))
    got_round, got_edge = np.divmod(np.sort(e_round * m + edge), m)
    assert np.array_equal(got_round, e_round[order]) and np.array_equal(got_edge, edge[order])


@EXAMPLES
@given(st.lists(st.lists(VALUES, min_size=1, max_size=8), min_size=1, max_size=12))
def test_first_maximum_is_the_lexsort_pivot(sets):
    """The min-ball pivot: the first member of largest score in each set."""
    score = np.concatenate([np.array(s, dtype=np.float64) for s in sets])
    sizes = np.array([len(s) for s in sets])
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(sizes.size), sizes)
    top = np.flatnonzero(score == np.maximum.reduceat(score, starts)[seg])
    assert np.array_equal(top[np.searchsorted(top, starts)], reference_pivots(score, seg, starts))
