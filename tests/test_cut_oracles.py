"""The sorted threshold sweep, the one-pass crossing cost and the label pass of partition
validation and costing against their reference loops, and the balanced-cut and k-way
recursions against their root-subgraph references.

Reports stay byte-identical only if every threshold, set and sum is
reproduced exactly, so these comparisons use exact equality throughout.
"""

import dataclasses

import numpy as np
import pytest

from bufpart import (BufferedPartition, Graph, balanced, buffered_balanced_cut,
                     cheeger2_buffered, kway_balanced, validate_partition)
from bufpart.graph import _cut_report
from conftest import (columns, cycle, disjoint_cliques, from_sets, planted, random_regular,
                      weighted_er)
from cut_oracles import (reference_balanced_cut, reference_crossing_cost, reference_cut_report,
                         reference_kway, reference_two_threshold_cut, reference_violations)

CLIQUES = disjoint_cliques([9, 10, 11, 12])
PLANTED = planted([30, 30, 30], 0.3, 0.03, seed=41)[0]
WEIGHTED = weighted_er(60, 0.12, 42)          # real-valued costs and weights
CYCLE = cycle(40)                             # usq comes in tied pairs
REGULAR = random_regular(48, 4, 43)           # every vertex weighs 4

GRAPHS = {"cliques": CLIQUES, "planted": PLANTED, "weighted": WEIGHTED,
          "cycle": CYCLE, "regular": REGULAR}
EPSILONS = (0.01, 0.1, 0.24)


def assert_same_cut(got, want):
    for field in ("label", "side_vector"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    for field in ("phi", "buffer_ratio", "cut_value", "lambda2", "threshold"):
        assert getattr(got, field) == getattr(want, field), field


def assert_same_threshold_cut(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:4], want[1:4]):
        assert np.array_equal(a, b)
    assert got[4:] == want[4:]


class CutSpy:
    """Records every exact cut the sweep evaluates (cut_cost_masks in balanced)."""

    def __init__(self, monkeypatch):
        self.cuts = []
        real = balanced.cut_cost_masks

        def spy(g, ma, mb):
            value = real(g, ma, mb)
            self.cuts.append(value)
            return value
        monkeypatch.setattr(balanced, "cut_cost_masks", spy)


class LevelSpy:
    """Records every cut cheeger2_buffered returns to the recursions, in call order."""

    def __init__(self, monkeypatch):
        self.cuts = []
        real = balanced.cheeger2_buffered

        def spy(g, eps):
            self.cuts.append(real(g, eps))
            return self.cuts[-1]
        monkeypatch.setattr(balanced, "cheeger2_buffered", spy)

    def take(self) -> list:
        cuts, self.cuts = self.cuts, []
        return cuts


def assert_same_levels(got, want):
    """Two runs cut the same levels; each level's vertices are numbered in order."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_cut(a, b)


def use_reference_loop(monkeypatch):
    monkeypatch.setattr(balanced, "_two_threshold_cut", reference_two_threshold_cut)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_cheeger2_matches_reference(name, eps, monkeypatch):
    g = GRAPHS[name]
    got = cheeger2_buffered(g, eps)
    use_reference_loop(monkeypatch)
    assert_same_cut(got, cheeger2_buffered(g, eps))


def test_tied_scores_are_present():
    # The tie cases must really have tied usq values.
    for g in (CYCLE, REGULAR):
        usq = cheeger2_buffered(g, 0.1).side_vector ** 2
        assert np.unique(usq).size < g.n


def test_sweep_prunes_most_thresholds(monkeypatch):
    spy = CutSpy(monkeypatch)
    cut = cheeger2_buffered(WEIGHTED, 0.1)
    usq = cut.side_vector ** 2
    candidates = np.unique(np.concatenate([usq, 1.1 * usq])).size
    assert 1 <= len(spy.cuts) <= candidates // 10


def test_exact_recheck_overrules_approximate_order(monkeypatch):
    # In exact arithmetic thresholds 0 and 1/6 tie at phi = 1.2 (cut 4.8 over
    # w(S) = 4, cut 3.6 over w(S) = 3).  The masked sums give 1.2000000000000002
    # and 1.2, so 1/6 wins; the prefix sums order 0 first and put 1/6 at or
    # above that phi.  Only the error bound keeps 1/6 for the exact re-check.
    edges = [(0, 1, 0.9), (0, 2, 1.1), (1, 2, 0.3), (1, 3, 0.6), (1, 4, 0.2),
             (2, 3, 0.3), (2, 5, 0.9), (3, 4, 0.9), (3, 5, 0.7), (4, 5, 1.1)]
    g = Graph.build(6, *columns(edges), weights=[1.0, 1.0, 1.0, 1.0, 2.0, 1.0])
    usq = np.linspace(0.0, 1.0, 7)[[6, 3, 0, 1, 0, 5]]
    spy = CutSpy(monkeypatch)
    got = balanced._two_threshold_cut(g, usq, 0.24)
    assert_same_threshold_cut(got, reference_two_threshold_cut(g, usq, 0.24))
    assert got[0] == usq[3]
    assert spy.cuts == [1.1 + 0.3 + 0.2 + 0.3 + 0.9 + 0.9 + 1.1, 1.1 + 0.3 + 0.2 + 0.9 + 1.1]
    assert spy.cuts[0] / 4.0 > spy.cuts[1] / 3.0


def test_threshold_cut_fuzz():
    # Coarse usq grids (many ties and near-ties), costs whose sums round, all
    # three eps; the sweep must pick the reference's threshold, sets and sums.
    rng = np.random.default_rng(44)
    costs = np.array([0.1, 0.2, 0.3, 0.7, 1.1, 0.6, 0.4])
    compared = 0
    for _ in range(400):
        n = int(rng.integers(3, 12))
        edges = [(i, j, float(rng.choice(costs))) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        if not edges:
            continue
        g = Graph.build(n, *columns(edges), weights=rng.choice([0.5, 1.0, 2.0, 3.0], size=n))
        usq = rng.choice(np.linspace(0.0, 1.0, 6), size=n)
        usq[rng.integers(n)] = 1.0
        eps = float(rng.choice(EPSILONS))
        try:
            want = reference_two_threshold_cut(g, usq, eps)
        except balanced.PartitionError:
            with pytest.raises(balanced.PartitionError):
                balanced._two_threshold_cut(g, usq, eps)
            continue
        assert_same_threshold_cut(balanced._two_threshold_cut(g, usq, eps), want)
        compared += 1
    assert compared > 300


@pytest.mark.parametrize("name", ["planted", "weighted", "regular"])
def test_balanced_recursions_match_reference(name, monkeypatch):
    g = GRAPHS[name]
    levels = LevelSpy(monkeypatch)
    got_bc = buffered_balanced_cut(g, 0.1)
    got_kw = kway_balanced(g, 4, 0.1)
    got_levels = levels.take()
    use_reference_loop(monkeypatch)
    want_bc = buffered_balanced_cut(g, 0.1)
    want_kw = kway_balanced(g, 4, 0.1)
    assert_same_levels(got_levels, levels.take())
    assert_same_result(got_bc, want_bc)
    assert_same_result(got_kw, want_kw)


@pytest.mark.parametrize("name", ["planted", "weighted"])
@pytest.mark.parametrize("k", [2, 5, 8])
def test_kway_crossing_cost_matches_pairwise_loop(name, k):
    g = GRAPHS[name]
    res = kway_balanced(g, k, 0.1)
    parts = [np.flatnonzero(res.label == 2 * i) for i in range(len(res.part_weights))]
    assert res.crossing_cost == reference_crossing_cost(g, parts)


def test_crossing_cost_fuzz():
    # Random parts with a buffer, real-valued costs: bit-for-bit the pairwise sums.
    rng = np.random.default_rng(45)
    g = weighted_er(200, 0.3, 46)
    for k in (1, 2, 3, 7, 16):
        for _ in range(5):
            part = rng.integers(-1, k, size=g.n)       # -1: buffer
            parts = [np.flatnonzero(part == i) for i in range(k)]
            label = np.where(part >= 0, 2 * part, rng.choice([-1, 1], size=g.n))
            assert balanced._crossing_cost(g, label, k) == reference_crossing_cost(g, parts)


def assert_same_result(got, want):
    """Every field of two BalancedCutResults or KwayBalancedResults, bit for bit."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def random_weighted_graph(rng) -> Graph:
    n = int(rng.integers(2, 31))
    p = float(rng.choice([0.1, 0.3, 0.7]))
    edges = [(u, v, float(rng.choice([1.0, 5.0, 50.0])))
             for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.build(n, *columns(edges), weights=rng.choice([1.0, 5.0, 50.0], size=n))


def outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:        # the reference must raise the same
        return None, (type(exc), str(exc))


def test_recursions_match_root_subgraph_reference_fuzz(monkeypatch):
    # Multi-level stacks, bottomed-out recursions (a heavy vertex, few
    # vertices) and left sides from several levels feeding k-way branches all occur.
    rng = np.random.default_rng(47)
    levels = LevelSpy(monkeypatch)
    multi_level = bottomed = compared = 0
    for _ in range(300):
        g = random_weighted_graph(rng)
        eps = float(rng.choice([0.05, 0.1, 0.2]))
        k = int(rng.integers(1, 7))
        got, err = outcome(buffered_balanced_cut, g, eps)
        got_levels = levels.take()
        want, want_err = outcome(reference_balanced_cut, g, eps)
        assert err == want_err
        assert_same_levels(got_levels, levels.take())
        if want is not None:
            assert_same_result(got, want)
            multi_level += len(want.per_level_lambda2) >= 2
            bottomed += any("bottomed out" in v for v in want.violations)
        got, err = outcome(kway_balanced, g, k, eps)
        got_levels = levels.take()
        want, want_err = outcome(reference_kway, g, k, eps)
        assert err == want_err
        assert_same_levels(got_levels, levels.take())
        if want is not None:
            assert_same_result(got, want)
            compared += 1
    assert multi_level >= 50 and bottomed >= 10 and compared >= 250


def test_recursions_match_reference_on_real_weights():
    # Real-valued weights round differently when summed in another order, so
    # each reported weight must be its set's masked sum in vertex order, bit for
    # bit; the fuzz above draws weights from {1, 5, 50}, whose sums are exact.
    rng = np.random.default_rng(49)
    multi_level = 0
    for seed in range(12):
        g = weighted_er(int(rng.integers(40, 201)), float(rng.uniform(0.05, 0.15)), 500 + seed)
        eps = float(rng.choice([0.05, 0.2]))
        want = reference_balanced_cut(g, eps)
        assert_same_result(buffered_balanced_cut(g, eps), want)
        multi_level += len(want.per_level_lambda2) >= 2
        k = int(rng.integers(2, 7))
        assert_same_result(kway_balanced(g, k, eps), reference_kway(g, k, eps))
    assert multi_level >= 3


def random_labelled_partition(rng):
    """(graph, label, k, eps): n up to 3,000, so that a part's sums cross numpy's
    128-element pairwise block, with uncovered vertices and empty buffers."""
    n = int(rng.integers(200, 3001)) if rng.random() < 0.2 else int(rng.integers(2, 120))
    m = int(rng.integers(n, 5 * n))
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    keys = keys[keys // n != keys % n]
    g = Graph.build(n, keys // n, keys % n, rng.uniform(0.1, 3.0, keys.size),
                    weights=rng.uniform(0.1, 5.0, n))
    k = int(rng.integers(1, min(12, n) + 1))
    label = 2 * rng.integers(0, k, n)
    if rng.random() < 0.7:
        label[rng.permutation(n)[:k]] = 2 * np.arange(k)      # every part has a core
    label += rng.random(n) < rng.choice([0.0, 0.02, 0.3])       # buffers, or none
    label[rng.random(n) < rng.choice([0.0, 0.0, 0.01, 0.2])] = -1   # uncovered
    return g, label, k, float(rng.choice([0.0, 0.3, 0.9, 5.0]))


def test_partition_label_pass_matches_per_part_loops_fuzz():
    # Violation texts equal, and each part's phi, buffer ratio and the max by bytes.
    rng = np.random.default_rng(48)
    valid = costed = big = 0
    for _ in range(320):
        g, label, k, eps = random_labelled_partition(rng)
        sets = [rng.permutation(np.flatnonzero(label == j)) for j in range(2 * k)]
        part = from_sets(sets[::2], sets[1::2], eps)
        got = validate_partition(g, part).violations
        assert got == reference_violations(g, part)
        valid += not got
        whole = BufferedPartition(label=label, k=k, epsilon=eps)
        if all(p.size for p in whole.parts):
            have, want = _cut_report(g, whole), reference_cut_report(g, whole)
            for field in ("per_part_expansion", "buffer_ratios", "max_expansion"):
                a, b = np.array(getattr(have, field)), np.array(getattr(want, field))
                assert a.tobytes() == b.tobytes(), field
            costed += 1
            big += g.n > 1000
    assert valid >= 50 and costed >= 200 and big >= 20
