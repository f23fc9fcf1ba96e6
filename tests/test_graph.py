"""Graph model, cut arithmetic, validation, and the edge-list loader."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bufpart import (Graph, GraphError, PartitionError, buffered_expansion, cut_cost, load_graph,
                     partition_cost, validate_partition)
from bufpart import graph as graph_module
from bufpart.graph import _WHITESPACE, _radix_order, _records, interval_sums, least_exact
from conftest import (columns, disjoint_cliques, from_sets, k4, path, planted, tiny_connected,
                      triangle, weighted_er)
from ingest_oracle import reference_load_graph


def _induced_by_build(g, keep):
    """Graph.build of the edges of g between the vertices keep, renumbered."""
    new_id = {int(old): i for i, old in enumerate(keep)}
    triples = [(new_id[u], new_id[v], c)
               for u, v, c in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_cost.tolist())
               if u in new_id and v in new_id]
    return Graph.build(len(keep), *columns(triples), weights=g.weights[np.asarray(keep)])


def _assert_same_graph(got, want):
    assert got.n == want.n
    for name in ("weights", "edge_u", "edge_v", "edge_cost"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestGraphBuild:
    def test_default_weights_are_incident_cost(self):
        g = triangle()
        assert np.allclose(g.weights, [2.0, 2.0, 2.0])

    def test_explicit_weights(self):
        g = Graph.build(3, [0, 1], [1, 2], [1.0, 1.0], weights=[5.0, 1.0, 2.5])
        assert np.allclose(g.weights, [5.0, 1.0, 2.5])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.build(2, [1], [1], [1.0])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph.build(3, [0, 1], [1, 0], [1.0, 2.0])

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(GraphError, match="cost"):
            Graph.build(2, [0], [1], [0.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphError, match="weight"):
            Graph.build(2, [0], [1], [1.0], weights=[1.0, -2.0])

    def test_overflowing_totals_rejected(self):
        with pytest.raises(GraphError, match="incident edge cost overflows"):
            Graph.build(3, [0, 1], [1, 2], [1e308, 1e308])
        with pytest.raises(GraphError, match="vertex weight overflows"):
            Graph.build(2, [0], [1], [1.0], weights=[1e308, 1e308])

    def test_isolated_vertex_needs_weight(self):
        with pytest.raises(GraphError, match="isolated"):
            Graph.build(3, [0], [1], [1.0])
        g = Graph.build(3, [0], [1], [1.0], weights=[1.0, 1.0, 1.0])
        assert g.n == 3

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1, 1.0), (2, 2, 1.0), (1, 0, 1.0)], "self-loop at vertex 2"),
        ([(0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)], "duplicate edge (0, 1)"),
        ([(0, 1, 1.0), (0, 5, -1.0), (2, 2, 1.0)], "edge (0,5) outside vertex range [0,3)"),
        ([(2, 1, 1.0), (0, 1, 0.0), (1, 2, 3.0)], "edge (0,1) has nonpositive cost 0.0"),
        ([(1, 0, 1.0), (2, 1, 1.0), (0, 1, -2.0)], "edge (0,1) has nonpositive cost -2.0"),
        ([(0, 1, 1.0), (1, 2, float("nan"))], "edge (1,2) has non-finite cost nan"),
        ([(1, 2, 1.0), (-1, 0, 1.0)], "edge (-1,0) outside vertex range [0,3)"),
        ([(2, 1, float("-inf")), (0, 0, 1.0)], "edge (2,1) has non-finite cost -inf"),
        ([(0, 1, 1.0), (0, 2, -1.0), (1, 0, 1.0)], "edge (0,2) has nonpositive cost -1.0"),
        ([(0, 1, 1.0), (-1, 2, 1.0), (1, 0, 1.0), (2, -1, 1.0)],
         "edge (-1,2) outside vertex range [0,3)"),
        ([(2, 1, 1.0), (1, 2, 1.0), (0, 9, 1.0), (9, 0, 1.0)], "duplicate edge (1, 2)"),
        ([(0, 70000, 1.0), (70000, 0, 1.0), (1, 2, 1.0)],
         "edge (0,70000) outside vertex range [0,3)"),
        ([(-5, -5, 1.0), (1, -(2 ** 40), 1.0), (-(2 ** 40), 1, 1.0)], "self-loop at vertex -5"),
        ([(1, 2, 1.0), (2, 1, 1.0), (-(2 ** 40), 2 ** 33, 1.0), (2 ** 33, -(2 ** 40), 1.0)],
         "duplicate edge (1, 2)"),
        ([(0, 2, 1.0), (2 ** 33, 1, 1.0), (2, 0, 1.0), (-(2 ** 33), 0, 1.0)],
         "edge (8589934592,1) outside vertex range [0,3)"),
        # out-of-range edges share one sort key beside an in-range duplicate
        ([(0, 5, 1.0), (1, 2, 1.0), (7, -1, 1.0), (2, 1, 1.0), (5, 0, 1.0)],
         "edge (0,5) outside vertex range [0,3)"),
        ([(1, 2, 1.0), (2, 1, 1.0), (7, -1, 1.0), (0, 5, 1.0), (5, 0, 1.0)],
         "duplicate edge (1, 2)"),
        ([(1, 0, 1.0), (3, 4, 1.0), (0, 3, 1.0), (0, 1, 1.0)],
         "edge (3,4) outside vertex range [0,3)"),
        ([(0, 1, 1.0), (1, 0, 1.0), (0, 3, 1.0), (3, 4, 1.0)], "duplicate edge (0, 1)"),
    ])
    def test_error_names_first_bad_edge_in_input_order(self, edges, message):
        with pytest.raises(GraphError) as info:
            Graph.build(3, *columns(edges))
        assert str(info.value) == message

    @pytest.mark.parametrize("column, dtype", [
        ([0, 1.5], "float64"), ([0, -0.5], "float64"), ([0, float("nan")], "float64"),
        ([0, float("inf")], "float64"), ([0, 1e20], "float64"), ([0.0, 2.0], "float64"),
        (np.array([0, 2], dtype=object), "object"), ([0, 2 ** 64], "object"),
        ([0, -(2 ** 63) - 1], "object"), ([0, 2 ** 63], "float64"),
        (np.array([0, 2 ** 63], dtype=np.uint64), "uint64"), ([False, True], "bool"),
    ], ids=["1.5", "-0.5", "nan", "inf", "1e20", "2.0", "object", "2**64", "-2**63-1",
            "list-2**63", "uint64-2**63", "bool"])
    def test_id_column_not_int64_is_rejected(self, column, dtype):
        # Either column: no id is cut to an integer or wrapped into int64.  numpy
        # reads the Python ints 0 and 2**63 as float64, and 2**64 as objects.
        want = f"vertex id columns must hold integers within int64; this one has dtype {dtype}"
        for u, v in ((column, [2, 0]), ([2, 0], column)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(GraphError) as info:
                    Graph.build(3, u, v, [1.0, -1.0])
            assert str(info.value) == want

    def test_integer_columns_of_any_width_build(self):
        want = Graph.build(3, [0, 2], [1, 1], [1.0, 1.0])
        for dtype in (np.int8, np.uint16, np.int32, np.uint64):
            got = Graph.build(3, np.array([0, 2], dtype=dtype), np.array([1, 1], dtype=dtype),
                              np.array([1, 1], dtype=np.int32))
            _assert_same_graph(got, want)

    def test_least_int64_id_falls_to_the_range_rule(self):
        with pytest.raises(GraphError) as info:
            Graph.build(3, [0, 2, 2 ** 62], [1, -(2 ** 63), 1], [1.0, 1.0, 1.0])
        assert str(info.value) == "edge (2,-9223372036854775808) outside vertex range [0,3)"

    @pytest.mark.parametrize("big", [2 ** 53 + 1, 2 ** 63 - 1])
    def test_error_names_an_id_above_2_53_exactly(self, big):
        with pytest.raises(GraphError) as info:
            Graph.build(3, [big], [0], [1.0])
        assert str(info.value) == f"edge ({big},0) outside vertex range [0,3)"
        with pytest.raises(GraphError) as info:
            Graph.build(3, [0, big], [1, big], [1.0, 1.0])
        assert str(info.value) == f"self-loop at vertex {big}"

    def test_columns_of_unequal_length_are_rejected(self):
        with pytest.raises(GraphError) as info:
            Graph.build(3, [0, 1], [1, 2], [1.0])
        assert str(info.value) == "edge columns u, v and cost must be 1-d and of one length"

    def test_empty_columns_of_any_dtype_build(self):
        for empty in ([], np.array([]), np.array([], dtype=object)):
            g = Graph.build(2, empty, empty, empty, weights=[1.0, 2.0])
            assert g.edge_cost.size == 0 and g.edge_u.dtype == np.int64

    @pytest.mark.parametrize("seed", range(12))
    def test_radix_order_is_the_lexsort_permutation(self, seed):
        # np.lexsort of one key is its stable argsort
        rng = np.random.default_rng(seed)
        m = 0 if seed == 0 else int(rng.integers(1, 300))
        high = [8, 2 ** 16 + 8, 2 ** 33, 2 ** 62][seed % 4]
        key = rng.integers(0, high, m, endpoint=True)
        if m:       # repeats of one key, zeros and the largest key
            key[rng.integers(0, m, m // 3)] = key[0]
            key[rng.integers(0, m, 2)] = (0, high)
        assert np.array_equal(_radix_order(key), np.argsort(key, kind="stable"))

    def test_too_many_vertices_for_the_edge_keys_are_rejected(self):
        # 3,037,000,499^2 is the largest square within int64; no n-sized array is made
        with pytest.raises(GraphError) as info:
            Graph.build(3_037_000_500, [0], [1], [1.0])
        assert str(info.value) == "graph has 3037000500 vertices; its edge keys need n^2 < 2^63"

    def test_list_and_array_columns_build_equal_graphs(self):
        u, v, cost = [3, 1, 0, 2], [0, 2, 1, 3], [0.5, 2.0, 1.25, 4.0]
        from_list = Graph.build(4, u, v, cost)
        from_array = Graph.build(4, np.array(u), np.array(v), np.array(cost))
        for name in ("weights", "edge_u", "edge_v", "edge_cost"):
            a, b = getattr(from_list, name), getattr(from_array, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert from_list.edge_u.tolist() == [0, 0, 1, 2]
        assert from_list.edge_v.tolist() == [1, 3, 2, 3]

    @pytest.mark.parametrize("g", [planted([30, 30, 30], 0.3, 0.05, seed=7)[0],
                                   weighted_er(60, 0.15, 31)])
    def test_subgraph_equals_build_on_induced_triples(self, g):
        rng = np.random.default_rng(3)
        for _ in range(10):
            keep = np.flatnonzero(rng.random(g.n) < rng.uniform(0.2, 0.9))
            if keep.size == 0:
                continue
            sub, ids = g.subgraph(keep)
            assert np.array_equal(ids, keep)
            _assert_same_graph(sub, _induced_by_build(g, keep))

    @pytest.mark.parametrize("keep", [
        range(60),                          # every vertex, as a range
        [41, 3, 17, 3, 59, 0],              # unsorted with a repeat, as a list
        {5, 6, 7, 30, 31},
        np.array([58, 2, 9, 44], dtype=np.int32),
    ])
    def test_weighted_subgraph_is_bit_equal_to_build(self, keep):
        g = weighted_er(60, 0.15, 31)
        sub, ids = g.subgraph(keep)
        want_ids = np.unique(np.fromiter(keep, dtype=np.int64))
        assert ids.dtype == np.int64 and np.array_equal(ids, want_ids)
        _assert_same_graph(sub, _induced_by_build(g, want_ids))

    def test_whole_vertex_set_gives_the_parent_graph(self):
        g = weighted_er(40, 0.2, 5)
        sub, ids = g.subgraph(np.arange(g.n))
        assert np.array_equal(ids, np.arange(g.n))
        _assert_same_graph(sub, g)

    def test_set_without_inner_edges(self):
        g = path([0.5, 2.0, 1.0, 4.0])
        sub, ids = g.subgraph([0, 2, 4])
        assert ids.tolist() == [0, 2, 4]
        assert sub.n == 3 and sub.edge_cost.size == 0
        assert sub.weights.tolist() == g.weights[[0, 2, 4]].tolist()
        _assert_same_graph(sub, Graph.build(3, [], [], [], weights=g.weights[[0, 2, 4]]))

    def test_single_vertex(self):
        g = triangle()
        sub, ids = g.subgraph([2])
        assert ids.tolist() == [2] and sub.n == 1 and sub.edge_cost.size == 0
        _assert_same_graph(sub, Graph.build(1, [], [], [], weights=[2.0]))

    @pytest.mark.parametrize("empty", [[], np.array([], dtype=np.int64), set()])
    def test_empty_set_is_rejected(self, empty):
        with pytest.raises(GraphError) as info:
            triangle().subgraph(empty)
        assert str(info.value) == "graph needs at least one vertex"

    def test_labelled_parent_gives_unlabelled_subgraph(self):
        g = load_graph(["x y 1", "y z 2", "z w 3", "w x 4"])
        assert g.labels == ("x", "y", "z", "w")
        sub, ids = g.subgraph([1, 2, 3])
        assert sub.labels == ()
        assert ids.tolist() == [1, 2, 3]
        _assert_same_graph(sub, _induced_by_build(g, ids))

    def test_subgraph_keeps_weights_and_costs(self):
        g = path([0.5, 2.0, 1.0])
        sub, ids = g.subgraph(np.array([1, 2, 3]))
        assert list(ids) == [1, 2, 3]
        assert np.allclose(sub.weights, g.weights[[1, 2, 3]])
        assert cut_cost(sub, [0], [1]) == 2.0


class TestCutCost:
    def test_triangle_example(self):
        assert cut_cost(triangle(), [0], [1, 2]) == 2.0

    def test_disconnected_components(self):
        g = disjoint_cliques([3, 3])
        assert cut_cost(g, [0, 1, 2], [3, 4, 5]) == 0.0

    def test_path_costs(self):
        g = path([0.5, 2.0])
        assert cut_cost(g, [0, 1], [2]) == 2.0

    def test_overlap_rejected(self):
        with pytest.raises(PartitionError):
            cut_cost(triangle(), [0, 1], [1, 2])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**18 - 1), st.integers(0, 5))
    def test_symmetry_random_small(self, bits, seed):
        g = tiny_connected(6, seed)
        a = [i for i in range(6) if (bits >> i) & 1]
        b = [i for i in range(6) if (bits >> (i + 6)) & 1 and i not in a]
        assert cut_cost(g, a, b) == cut_cost(g, b, a)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**12 - 1), st.integers(10, 15))
    def test_buffer_split_identity(self, bits, seed):
        # delta(P, V-(PuB)) + delta(P,B) = delta(P, V-P) for disjoint P, B
        g = tiny_connected(6, seed)
        p = [i for i in range(6) if (bits >> i) & 1]
        b = [i for i in range(6) if (bits >> (i + 6)) & 1 and i not in p]
        if not p:
            return
        rest = [i for i in range(6) if i not in p and i not in b]
        whole = [i for i in range(6) if i not in p]
        assert cut_cost(g, p, rest) + cut_cost(g, p, b) == pytest.approx(
            cut_cost(g, p, whole), rel=1e-12)


class TestBufferedExpansion:
    def test_k4_no_buffer(self):
        assert buffered_expansion(k4(), [0], []) == pytest.approx(1.0)

    def test_k4_with_buffer(self):
        assert buffered_expansion(k4(), [0], [1]) == pytest.approx(2.0 / 3.0)

    def test_whole_graph_zero(self):
        assert buffered_expansion(k4(), [0, 1, 2, 3], []) == 0.0

    def test_empty_part_rejected(self):
        with pytest.raises(PartitionError):
            buffered_expansion(k4(), [], [0])

    def test_buffer_never_hurts_equality_iff_no_crossing(self):
        g = tiny_connected(7, 3)
        for p_bits in range(1, 2**5):
            p = [i for i in range(5) if (p_bits >> i) & 1]
            with_buf = buffered_expansion(g, p, [5])
            without = buffered_expansion(g, p, [])
            assert with_buf <= without + 1e-12
            crossing = cut_cost(g, p, [5])
            if crossing == 0.0:
                assert with_buf == pytest.approx(without, rel=1e-12)
            else:
                assert with_buf < without


class TestBufferedPartitionLabels:
    def test_from_sets_labels_each_vertex_once(self):
        part = from_sets([np.array([3, 0]), [2, 2]], [[5], ()], 0.25)
        assert part.label.tolist() == [0, -1, 2, 0, -1, 1]
        assert (part.k, part.epsilon) == (2, 0.25)
        assert [p.tolist() for p in part.parts] == [[0, 3], [2]]
        assert [b.tolist() for b in part.buffers] == [[5], []]

    def test_from_sets_rejects_negative_ids_and_unpaired_buffers(self):
        with pytest.raises(PartitionError, match="negative vertex id -2"):
            from_sets([[0, -2]], [[]], 0.0)
        with pytest.raises(PartitionError, match="one buffer per part"):
            from_sets([[0], [1]], [[]], 0.0)

    def test_from_sets_does_not_sort(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("from_sets sorted")
        for name in ("unique", "sort", "argsort", "lexsort"):
            monkeypatch.setattr(np, name, refuse)
        part = from_sets([np.arange(50, 0, -1)], [[0]], 0.1)
        assert part.label.tolist() == [1] + [0] * 50


class TestValidatePartition:
    def test_boundary_budget_is_inclusive(self):
        g = Graph.build(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0],
                        weights=[2.0, 1.0, 2.0, 1.0])
        # w(B_1) = 1 = 0.5 * w(P_1) exactly
        part = from_sets([[0], [2]], [[1], [3]], 0.5)
        assert validate_partition(g, part).valid

    def test_overlap_names_condition_1(self):
        with pytest.raises(PartitionError, match=r"^condition 1 violated: sets are not "
                                                 r"pairwise disjoint \(vertex 1\)$"):
            from_sets([[0, 1], [2]], [[], [1]], 0.9)

    def test_empty_part_names_condition_3(self):
        part = from_sets([[0, 1, 2, 3], []], [[], []], 0.5)
        report = validate_partition(k4(), part)
        assert not report.valid
        assert any("condition 3" in v for v in report.violations)

    def test_missing_vertex_names_condition_2(self):
        part = from_sets([[0], [1]], [[], []], 0.5)
        report = validate_partition(k4(), part)
        assert any("condition 2" in v for v in report.violations)

    def test_reports_every_violation(self):
        part = from_sets([[0], []], [[1], []], 0.5)
        assert validate_partition(k4(), part).violations == (
            "condition 2 violated: union does not cover V (vertex 2)",
            "condition 3 violated: part 1 is empty",
            "condition 4 violated: w(B_0)=3.0 > eps*w(P_0)=1.5")

    def test_out_of_range_ids_are_named_per_set(self):
        part = from_sets([[0, 5], [1, 2]], [[], [3, 4]], 0.9)
        assert validate_partition(k4(), part).violations == (
            "part 0 has out-of-range vertices", "buffer 1 has out-of-range vertices")

    def test_against_reference_enumerator(self):
        # every (core/buffer) assignment on small graphs: validity must
        # coincide with a direct condition-by-condition reference evaluation
        cases = [(k4(), 2, 0.4), (tiny_connected(5, 77), 2, 0.25),
                 (tiny_connected(6, 78), 3, 0.5)]
        for g, k, eps in cases:
            total = 0
            for assign in itertools.product(range(2 * k), repeat=g.n):
                parts = [[v for v in range(g.n) if assign[v] == 2 * i]
                         for i in range(k)]
                buffers = [[v for v in range(g.n) if assign[v] == 2 * i + 1]
                           for i in range(k)]
                part = from_sets(parts, buffers, eps)
                reference = all(len(p) > 0 for p in parts) and all(
                    sum(g.weights[v] for v in buffers[i]) <=
                    eps * sum(g.weights[v] for v in parts[i])
                    for i in range(k))
                assert validate_partition(g, part).valid == reference
                total += 1
            assert total == (2 * k) ** g.n


class TestPartitionCost:
    def test_component_partition_costs_zero(self):
        g = disjoint_cliques([3, 4])
        part = from_sets([[0, 1, 2], [3, 4, 5, 6]], [[], []], 0.0)
        report = partition_cost(g, part)
        assert report.max_expansion == 0.0

    def test_k4_split(self):
        part = from_sets([[0, 1], [2, 3]], [[], []], 0.0)
        report = partition_cost(k4(), part)
        assert report.per_part_expansion == pytest.approx((4.0 / 6.0, 4.0 / 6.0))
        assert report.max_expansion == pytest.approx(2.0 / 3.0)

    def test_single_part_zero(self):
        part = from_sets([[0, 1, 2, 3]], [[]], 0.0)
        assert partition_cost(k4(), part).max_expansion == 0.0

    def test_invalid_partition_raises_with_first_condition(self):
        part = from_sets([[0], []], [[], []], 0.0)
        with pytest.raises(PartitionError, match="condition"):
            partition_cost(k4(), part)


class TestLoadGraph:
    def test_triangle_with_default_weights(self):
        g = load_graph(["1 2 1", "2 3 1", "1 3 1"])
        assert g.n == 3
        assert np.allclose(g.weights, 2.0)
        assert g.labels == ("1", "2", "3")

    def test_default_cost_is_one(self):
        g = load_graph(["a b", "b c 2.5"])
        assert g.edge_cost.sum() == pytest.approx(3.5)

    def test_weight_file_overrides(self):
        g = load_graph(["1 2 1", "2 3 1"], ["1 9", "2 8", "3 7"])
        assert np.allclose(g.weights, [9.0, 8.0, 7.0])

    def test_self_loop_line_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            load_graph(["1 1 1"])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            load_graph(["1 2 1", "2 1 3"])

    def test_parse_failures(self):
        with pytest.raises(GraphError):
            load_graph(["1 2 x"])
        with pytest.raises(GraphError):
            load_graph(["1"])
        with pytest.raises(GraphError, match="missing"):
            load_graph(["1 2 1"], ["1 4"])

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "a b 1\nb c 2 # note\na c 0.5\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, got = load_graph(str(plain)), load_graph(str(marked))
        assert got.labels == want.labels == ("a", "b", "c")
        _assert_same_graph(got, want)
        assert got.incident.tobytes() == want.incident.tobytes()
        weights = tmp_path / "w.txt"
        weights.write_text("a 1\nb 2\nc 3\n", encoding="utf-8-sig")
        assert load_graph(str(marked), str(weights)).weights.tolist() == [1.0, 2.0, 3.0]

    def test_byte_order_mark_then_a_bad_byte_names_its_line(self, tmp_path):
        path_ = tmp_path / "g.txt"
        path_.write_bytes(b"\xef\xbb\xbfa b\nb \xff c\n")
        with pytest.raises(GraphError) as info:
            load_graph(str(path_))
        assert str(info.value) == (f"edge file {str(path_)!r} line 2: not UTF-8 text "
                                   f"(invalid start byte)")

    def test_file_round_trip(self, tmp_path):
        path_ = tmp_path / "g.txt"
        path_.write_text("0 1 2.0\n1 2 0.5\n# comment\n")
        g = load_graph(str(path_))
        assert g.edge_cost.size == 2
        assert cut_cost(g, [0], [1]) == 2.0


IDS = ["a", "b", "0", "1", "10", "é", "节点", "Ω2", "a#b", "x_1"] + [f"v{i}" for i in range(20)]
SEPARATORS = [" ", "\t", "  ", " \t ", "\u3000", "\u2028", "\x85", "\x1c", "\x0b"]
NUMBERS = st.one_of(st.sampled_from(["1", "2.5", "0.125", "1e-3", "3.0000000000000004", "7"]),
                    st.floats(1e-3, 1e3).map(repr),
                    st.decimals(places=3, min_value="0.001", max_value=50).map(str))
BAD_NUMBERS = st.sampled_from(["0", "-1", "-2.5", "inf", "nan", "x", "1,5", "0x10", "1e400",
                               "1_000", "٣", "a"])


@st.composite
def ingest_lines(draw, arities: tuple, records: list, clean: bool):
    """One line per record (its ids, then a number when the line has the most
    fields), with blank and comment lines between them.  Unless clean, some
    lines have the wrong field count or a bad number."""
    lines = []
    for ids in records:
        lines += draw(st.lists(st.sampled_from(["", "   ", "\t", "# note", "  #", "#a b 1"]),
                               max_size=1))
        defect = "none" if clean else draw(st.sampled_from(["none"] * 4 + ["arity", "number"]))
        count = draw(st.sampled_from((1, 4) if defect == "arity" else arities))
        fields = (ids + [draw(st.sampled_from(IDS)) for _ in range(4)])[:count]
        if count == arities[-1]:
            fields[-1] = draw(BAD_NUMBERS if defect == "number" else NUMBERS)
        sep = draw(st.sampled_from(SEPARATORS))
        lines.append(sep.join(fields) + draw(st.sampled_from(["", "", " # trailing", "\t"])))
    return lines


@st.composite
def ingest_cases(draw):
    """(edge lines, weight lines or None): clean or with defects, weights for every id or not."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)), max_size=12))
    edges = draw(ingest_lines((2, 3), [list(p) for p in pairs], draw(st.booleans())))
    mode = draw(st.sampled_from(["none", "every id", "every id", "one repeated", "arbitrary"]))
    if mode == "none":
        return edges, None
    used = list(dict.fromkeys(x for p in pairs for x in p))
    if mode == "arbitrary":                 # unknown, missing and repeated ids
        names = draw(st.lists(st.sampled_from(used + IDS[:3]), max_size=12))
    else:
        names = list(draw(st.permutations(used)))
        if mode == "one repeated" and names:
            names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
    return edges, draw(ingest_lines((2,), [[x] for x in names], mode != "arbitrary"))


def _graph_or_error(load, *sources):
    try:
        return load(*sources)
    except GraphError as exc:
        return str(exc)


def _assert_same_outcome(case):
    got = _graph_or_error(load_graph, *case)
    want = _graph_or_error(reference_load_graph, *case)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, Graph), got
    assert (got.n, got.labels) == (want.n, want.labels)
    _assert_same_graph(got, want)


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=ingest_cases())
def test_load_graph_equals_the_reference_pipeline(case):
    _assert_same_outcome(case)


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=ingest_cases(), piece=st.integers(1, 40))
def test_load_graph_in_small_pieces_equals_the_reference_pipeline(case, piece):
    saved = graph_module._PIECE
    graph_module._PIECE = piece
    try:
        _assert_same_outcome(case)
    finally:
        graph_module._PIECE = saved


def test_whitespace_is_what_str_isspace_accepts():
    assert set(_WHITESPACE) == {c for c in range(0x110000) if chr(c).isspace()}


EDGES = ["a b 1", "# a comment line", "b c 2.5", "", "c d", "d é 0.5 # trailing", "é a"]
WEIGHTS = ["a 1", "b 2", "c 3", "d 4", "é 5"]


@pytest.mark.parametrize("piece", [1, 5, 12, 1 << 15])
@pytest.mark.parametrize("case", [
    (EDGES, None),
    (EDGES, WEIGHTS),
    (EDGES[:5] + ["d é x", "é"], None),                     # bad cost in a later piece
    (EDGES[:5] + ["d é 1 2", "é a x"], None),               # wrong arity before a bad cost
    (EDGES[:4] + ["c d # é e f g", "d é"], None),           # comment hides extra fields
    (EDGES, WEIGHTS[:4] + ["b 7", "é x"]),                  # duplicate before a bad weight
    (EDGES, WEIGHTS[:4] + ["é x", "b 7"]),                  # bad weight before a duplicate
    (EDGES, WEIGHTS[:2] + ["c 3 # note", "d", "a 1"]),      # wrong arity before a duplicate
    (["a b\nc", "b c"], None),                              # a listed line holds a newline
    (["a b\nc d", "b c"], None),
    (["a b # x\ny z", "b c"], ["a 1", "b\n2", "c 3"]),
])
def test_load_graph_in_pieces_equals_the_reference_pipeline(monkeypatch, piece, case):
    monkeypatch.setattr(graph_module, "_PIECE", piece)
    _assert_same_outcome(case)


def test_records_before_a_bad_number_carry_their_numbers():
    lines = ["a b 2", "b c", "# note", "c d 3.5", "d e x", "e f 4"]
    records = _records(lines, "edge", "u v [cost]", (2, 3), "cost")
    ids, values, line_numbers = next(records)
    assert ids == ["a", "b", "b", "c", "c", "d"]
    assert values.tolist() == [2.0, 1.0, 3.5]
    assert line_numbers.tolist() == [1, 2, 4]
    with pytest.raises(GraphError, match="^edge line 5: bad cost 'x'$"):
        next(records)


def test_file_in_pieces_names_the_file_lines(monkeypatch, tmp_path):
    monkeypatch.setattr(graph_module, "_PIECE", 4)
    path_ = tmp_path / "g.txt"
    path_.write_text("a b\r\nb c # x y z\n\u2028\nc d\u2028e 1\n", encoding="utf-8")
    with pytest.raises(GraphError) as info:
        load_graph(str(path_))
    assert str(info.value) == "edge line 4: expected 'u v [cost]', got 'c d\\u2028e 1'"
    path_.write_text("a b\r\nb c # x y z\n\u2028\nc d\n")
    assert load_graph(str(path_)).labels == ("a", "b", "c", "d")


class TestIntervalSums:
    """graph.interval_sums against a per-index loop over the intervals."""

    @staticmethod
    def loop(start, end, values, count):
        return np.array([sum(float(x) for s, e, x in zip(start, end, values) if s <= i < e)
                         for i in range(count)])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        count, size = int(rng.integers(1, 12)), int(rng.integers(0, 30))
        start = rng.integers(0, count + 1, size)
        end = rng.integers(0, count + 1, size)       # start >= end for about half
        values = rng.choice([0.0, 0.1, 0.3, 1.0, 2.5], size)
        sums, tol = interval_sums(start, end, values, count)
        assert sums.shape == (count,)
        want = self.loop(start, end, values, count)
        assert np.all(np.abs(sums - want) <= tol)

    def test_empty_full_and_zero_length(self):
        values = np.array([1.0, 2.0, 4.0])
        # start >= end: no value is anywhere.
        sums, tol = interval_sums(np.array([3, 2, 1]), np.array([3, 1, 0]), values, 3)
        assert np.array_equal(sums, np.zeros(3)) and tol == 0.0
        # [0, count): every value everywhere, exactly.
        sums, _ = interval_sums(np.zeros(3, dtype=np.int64), np.full(3, 3), values, 3)
        assert np.array_equal(sums, np.full(3, 7.0))
        # No values at all.
        empty = np.empty(0, dtype=np.int64)
        sums, tol = interval_sums(empty, empty, np.empty(0), 4)
        assert np.array_equal(sums, np.zeros(4)) and tol == 0.0


class TestLeastExact:
    """graph.least_exact on scripted candidates: (key or None, lower bound <= key[0])."""

    @staticmethod
    def search(script, order=None):
        calls = []

        def evaluate(i):
            calls.append(i)
            key = script[i][0]
            return None if key is None else (key, f"c{i}")
        lower = np.array([lb for _, lb in script])
        order = np.arange(len(script)) if order is None else np.asarray(order)
        return least_exact(order, lower, evaluate), calls

    def test_tie_on_phi_is_evaluated_and_wins_on_key(self):
        # c1's lower bound equals the best phi; its tie-break is smaller.
        script = [((0.5, 2.0), 0.4), ((0.5, 1.0), 0.5), ((0.7, 0.0), 0.6)]
        best, calls = self.search(script)
        assert best == "c1" and calls == [0, 1]

    def test_candidates_above_the_bound_are_never_evaluated(self):
        script = [((0.9, 0.0), 0.1), ((0.3, 0.0), 0.2), ((0.4, 0.0), 0.35),
                  ((0.32, 0.0), 0.31), ((0.25, 0.0), 0.3)]
        best, calls = self.search(script)
        assert best == "c4" and calls == [0, 1, 4]

    def test_order_is_the_callers(self):
        script = [((0.2, 1.0), 0.2), ((0.2, 0.0), 0.2), ((0.1, 0.0), 0.05)]
        best, calls = self.search(script, order=[2, 1, 0])
        assert best == "c2" and calls == [2]

    def test_infeasible_candidates_are_skipped(self):
        script = [(None, 0.0), ((0.4, 0.0), 0.1), (None, 0.2), ((0.3, 0.0), 0.3)]
        best, calls = self.search(script)
        assert best == "c3" and calls == [0, 1, 2, 3]

    def test_all_infeasible_returns_none(self):
        best, calls = self.search([(None, 0.0), (None, 1.0)])
        assert best is None and calls == [0, 1]
        assert self.search([])[0] is None
