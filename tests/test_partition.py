"""Crude/refined partial partitioning, completion, and the driver."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from bufpart import (RandomStream, buffered_expansion,
                     buffered_k_partition, complete_partition, crude_partition,
                     cut_cost, embed, eigenbasis,
                     normalized_laplacian, partial_partition,
                     partition_cost, refine_and_discard, validate_partition)
from bufpart.graph import Graph, PartitionError
from bufpart.certify import brute_force_h_k_eps
from bufpart.partition import RESTARTS, CrudePartition, PartialPartition, resolve_step2
from bufpart.separators import practical_params
from conftest import (clique, columns, clique_labels, disjoint_cliques, planted, planted_blocks,
                      tiny_connected, weighted_er)
from round_oracles import crude_sets, refined_tuples


def embedding_for(g, k):
    return embed(eigenbasis(normalized_laplacian(g), k), g)


CLIQUES6 = disjoint_cliques([34, 34, 33, 33, 33, 33])

# (n, k, delta, epsilon) of resolve_step2: a grid at n = 1000, a 200-vertex
# point, and n = 8000, where T = ceil(2 n ln 12) = 39,759 rounds run in full.
DESK_SCALE_POINTS = [(1000, k, delta, epsilon) for k in (2, 4, 8, 64)
                     for delta in (0.001, 1.0 / 80.0, 0.5, 0.999)
                     for epsilon in (0.0, 0.05)] + [(200, 6, 0.01, 0.01),
                                                    (8000, 4, 1.0 / 80.0, 0.05)]


def crude_for(e, k, epsilon, delta, rng):
    return crude_partition(e, resolve_step2(e.graph.n, k, epsilon, delta), rng)


class TestResolveStep2:
    def test_radius_formula(self):
        eff = resolve_step2(100, 6, 0.01, 0.06)
        assert eff.params.r == pytest.approx(0.1, abs=1e-12)

    def test_delta_raised_to_one_third_k(self):
        eff = resolve_step2(100, 6, 0.01, 0.01)
        assert eff.delta == pytest.approx(1.0 / 18.0)
        assert any("raised" in n for n in eff.notes)

    def test_epsilon_clamped(self):
        eff = resolve_step2(100, 2, 0.5, 0.4)
        assert eff.epsilon == pytest.approx(0.4)
        assert any("clamped" in n for n in eff.notes)

    def test_regime_note(self):
        eff = resolve_step2(100, 6, 0.01, 0.06)
        assert any("regime" in n for n in eff.notes)

    @pytest.mark.parametrize("n, k, delta, epsilon", DESK_SCALE_POINTS,
                             ids=[f"n{n}-k{k}-d{d:g}-e{e:g}" for n, k, d, e in DESK_SCALE_POINTS])
    def test_desk_scale_uses_practical_alpha(self, n, k, delta, epsilon):
        eff = resolve_step2(n, k, epsilon, delta)
        assert not eff.params.calibrated
        assert eff.params.alpha == pytest.approx(1.0 / n)
        assert eff.rounds == math.ceil(2.0 / eff.params.alpha * math.log(1.0 / eff.delta))
        assert not any("capped" in note for note in eff.notes)
        if n == 8000:
            assert eff.rounds == 39759

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            resolve_step2(10, 1, 0.1, 0.1)
        with pytest.raises(ValueError):
            resolve_step2(10, 2, 0.1, 0.0)
        with pytest.raises(ValueError):
            resolve_step2(10, 2, 1.0, 0.1)


class TestCrudePartition:
    def test_structure_tiles_v(self):
        g = CLIQUES6
        e = embedding_for(g, 6)
        c = crude_for(e, 6, 0.01, 0.01, RandomStream(0, "t"))
        cover = np.zeros(g.n, dtype=int)
        for rec in c.rounds:
            cover[rec.p_tilde] += 1
            cover[rec.b_tilde] += 1
        _, _, r_p, r_b = crude_sets(c)
        cover[r_p] += 1
        cover[r_b] += 1
        assert np.all(cover == 1)

    def test_all_empty_draws_leave_everything_in_r_p(self):
        g = CLIQUES6
        e = embedding_for(g, 6)
        eff = resolve_step2(g.n, 6, 0.01, 0.01)
        # threshold far above any projection: every draw returns empty sets
        dead = practical_params(eff.epsilon, eff.params.m, eff.params.r, 1e-4)
        eff_dead = dataclasses.replace(eff, rounds=50, params=dead)
        c = crude_partition(e, eff_dead, RandomStream(1, "t"))
        assert c.rounds == ()
        assert crude_sets(c)[2].size == g.n

    def test_part_measure_bounded(self):
        g = CLIQUES6
        e = embedding_for(g, 6)
        for seed in range(10):
            c = crude_for(e, 6, 0.01, 0.01, RandomStream(seed, "t2"))
            for rec in c.rounds:
                if rec.p_tilde.size:
                    assert e.mu[rec.p_tilde].sum() <= 1.0 + c.effective.delta + 1e-9

    def test_cliques_fully_covered(self):
        g = CLIQUES6
        e = embedding_for(g, 6)
        c = crude_for(e, 6, 0.01, 0.01, RandomStream(3, "t3"))
        assert e.mu[crude_sets(c)[0]].sum() >= (1.0 - 5.0 * c.effective.delta) * 6


class TestRefineAndDiscard:
    def test_threshold_semantics_reconstruct(self):
        g = CLIQUES6
        e = embedding_for(g, 6)
        c = crude_for(e, 6, 0.01, 0.01, RandomStream(5, "t5"))
        pp = refine_and_discard(c, e)
        by_round = {rec.index: rec for rec in c.rounds}
        eps = c.effective.epsilon
        for t in refined_tuples(pp):
            rec = by_round[t.round_index]
            pt = set(rec.p_tilde.tolist())
            bt = set(rec.b_tilde.tolist())
            r = t.threshold
            p = {u for u in pt if e.mu[u] >= r}
            b = {u for u in bt if e.mu[u] >= r / (1 + eps)} | \
                {u for u in pt if r / (1 + eps) <= e.mu[u] < r}
            assert p == set(t.p.tolist())
            assert b == set(t.b.tolist())

    def test_kept_tuples_satisfy_constraints(self):
        g = CLIQUES6
        e = embedding_for(g, 6)
        c = crude_for(e, 6, 0.01, 0.01, RandomStream(6, "t6"))
        pp = refine_and_discard(c, e)
        bound = pp.diagnostics["expansion_bound"]
        c_prime = pp.diagnostics["buffer_slack"]
        eps = c.effective.epsilon
        sigma, _, r_p, _ = crude_sets(c)
        sigma_rp = np.zeros(g.n, dtype=bool)
        sigma_rp[sigma] = True
        sigma_rp[r_p] = True
        by_round = {rec.index: rec for rec in c.rounds}
        for t in refined_tuples(pp):
            wp = g.weight_of(t.p)
            assert g.weight_of(t.b) <= c_prime * eps * wp + 1e-12
            assert g.weight_of(t.a_double) <= 10.0 * eps * wp + 1e-12
            pb = np.concatenate([t.p, t.b])
            assert cut_cost(g, t.a_prime, pb) <= bound * wp + 1e-9
            rec = by_round[t.round_index]
            target = sigma_rp.copy()
            target[rec.p_tilde] = False
            assert cut_cost(g, pb, np.flatnonzero(target)) <= bound * wp + 1e-9
            assert buffered_expansion(g, t.p, t.b) == pytest.approx(t.phi, rel=1e-12)
            assert t.phi <= bound + 1e-12

    def test_cliques_keep_whole_parts(self):
        g = CLIQUES6
        e = embedding_for(g, 6)
        c = crude_for(e, 6, 0.01, 0.01, RandomStream(7, "t7"))
        pp = refine_and_discard(c, e)
        labels = clique_labels([34, 34, 33, 33, 33, 33])
        for t in refined_tuples(pp):
            assert len(set(labels[t.p].tolist())) == 1
            assert t.phi == 0.0
            assert t.a_prime.size == 0 and t.a_double.size == 0


class TestNormalizedDirectionProduct:
    def test_edge_pairs(self):
        for g, k in ((CLIQUES6, 6), (weighted_er(40, 0.2, 33), 5)):
            e = embedding_for(g, k)
            zhat = e.basis.eigenvectors / np.sqrt(g.weights)[:, None]
            zu = zhat[g.edge_u]
            zv = zhat[g.edge_v]
            lhs = (zu ** 2).sum(axis=1) * ((e.psi[g.edge_u] - e.psi[g.edge_v]) ** 2).sum(axis=1)
            rhs = 4.0 * ((zu - zv) ** 2).sum(axis=1)
            assert np.all(lhs <= rhs + 1e-12)


class TestPartialPartition:
    def test_cliques_recovered(self):
        g = CLIQUES6
        run = partial_partition(g, resolve_step2(g.n, 6, 0.01, 0.01), 6, seed=0)
        pp = run.partial
        assert pp.k_prime == 6
        assert max(pp.phi) == 0.0
        labels = clique_labels([34, 34, 33, 33, 33, 33])
        for t in refined_tuples(pp):
            assert len(set(labels[t.p].tolist())) == 1

    def test_buffer_mass_bound_on_accepted_runs(self):
        g = CLIQUES6
        run = partial_partition(g, resolve_step2(g.n, 6, 0.01, 0.01), 6, seed=1)
        eps = run.partial.effective.epsilon
        assert run.buffer_mass <= 16.0 * eps * g.total_weight + 1e-9
        r_b_prime = np.flatnonzero(run.partial.label == -2)
        assert g.weight_of(r_b_prime) <= 16.0 * eps * g.total_weight + 1e-9

    def test_determinism(self):
        g = disjoint_cliques([10, 10, 10])
        eff = resolve_step2(g.n, 3, 0.05, 0.05)
        a = partial_partition(g, eff, 3, seed=7)
        b = partial_partition(g, eff, 3, seed=7)
        assert a.partial.k_prime == b.partial.k_prime
        for ta, tb in zip(refined_tuples(a.partial), refined_tuples(b.partial)):
            assert np.array_equal(ta.p, tb.p)
            assert np.array_equal(ta.b, tb.b)
            assert ta.threshold == tb.threshold

    def test_restart_whose_completion_fails_loses(self):
        # Restart 6 has the most tuples (17, mostly fragments) and its
        # completion into 4 parts leaves a buffer at least as heavy as its
        # core; a tuple-count ranking would return it and the driver would fail.
        g, _ = planted([25, 25, 25, 25], 0.5, 0.02, 5016)
        bp, report, info = buffered_k_partition(g, 4, 0.1, 0.5, seed=16)
        assert validate_partition(g, bp).valid
        k_hat, eps_hat, delta_hat = info["k_hat"], info["eps_hat"], info["delta_hat"]
        e = embedding_for(g, k_hat)
        eff = resolve_step2(g.n, k_hat, eps_hat, delta_hat)
        failing, completing, tuples = [], {}, {}
        for restart in range(RESTARTS):
            crude = crude_partition(e, eff, RandomStream(16, "partition", restart))
            if crude.buffer_mass(g) > (16.0 * eff.epsilon + 1e-12) * g.total_weight:
                continue
            pp = refine_and_discard(crude, e)
            tuples[restart] = pp.k_prime
            try:
                done = complete_partition(pp, g, 4)
            except PartitionError as exc:
                assert "buffer ratio" in str(exc)
                failing.append(restart)
            else:
                completing[restart] = partition_cost(g, done).max_expansion
        assert failing and completing
        assert max(tuples, key=lambda r: (tuples[r], -r)) in failing
        best = min(completing, key=lambda r: (completing[r], r))
        assert info["restart_index"] == best
        assert report.max_expansion == completing[best]

    def test_tiny_graph_singleton_mode_still_tiles(self):
        g = tiny_connected(8, 42)
        run = partial_partition(g, resolve_step2(g.n, 3, 0.2, 0.5), 3, seed=3)
        cover = np.zeros(g.n, dtype=int)
        for t in refined_tuples(run.partial):
            for arr in (t.p, t.b, t.a_prime, t.a_double):
                cover[arr] += 1
        cover[run.partial.label == -1] += 1
        cover[run.partial.label == -2] += 1
        assert np.all(cover == 1)


@pytest.fixture(scope="module")
def clique_run():
    g = CLIQUES6
    return g, partial_partition(g, resolve_step2(g.n, 6, 0.01, 0.01), 6, seed=11)


class TestCompletePartition:

    def test_k_target_one(self, clique_run):
        g, run = clique_run
        bp = complete_partition(run.partial, g, 1)
        assert bp.k == 1
        assert partition_cost(g, bp).max_expansion == 0.0

    def test_k_target_full(self, clique_run):
        g, run = clique_run
        k_prime = run.partial.k_prime
        bp = complete_partition(run.partial, g, k_prime)
        assert bp.k == k_prime
        assert validate_partition(g, bp).valid

    def test_untouched_parts_keep_phi(self, clique_run):
        g, run = clique_run
        pp = run.partial
        bp = complete_partition(pp, g, 4)
        tuples = refined_tuples(pp)
        order = sorted(range(pp.k_prime),
                       key=lambda i: (tuples[i].phi, -g.weight_of(tuples[i].p), i))
        for rank, i in enumerate(order[:3]):
            assert np.array_equal(bp.parts[rank], tuples[i].p)
            expect = tuples[i].phi
            got = buffered_expansion(g, bp.parts[rank], bp.buffers[rank])
            assert got == pytest.approx(expect, abs=1e-12)

    def test_standalone_parts_follow_phi_then_weight(self):
        # Cliques A(4), B(4), C(6), D(5) with one A-C edge: B and D have phi 0
        # (D heavier), C has 1/w(C) < A's 1/w(A).  By core weight the order
        # would be B, A, D, C.
        sizes = [4, 4, 6, 5]
        labels = clique_labels(sizes)
        g = Graph.build(19, *columns(clique(4) + clique(4, 4) + clique(6, 8) + clique(5, 14) +
                                     [(0, 8, 1.0)]))
        cores = [np.flatnonzero(labels == c) for c in range(4)]
        pp = PartialPartition(label=4 * labels, phi=tuple(buffered_expansion(g, p, [])
                                                          for p in cores),
                              threshold=(0.0,) * 4, round_index=(0, 1, 2, 3),
                              effective=None, diagnostics={})
        bp = complete_partition(pp, g, 4)
        for got, label in zip(bp.parts, [3, 1, 2, 0]):
            assert np.array_equal(got, cores[label])
        bp = complete_partition(pp, g, 3)
        assert np.array_equal(bp.parts[2], np.concatenate([cores[0], cores[2]]))

    def test_too_many_parts_requested(self, clique_run):
        g, run = clique_run
        with pytest.raises(PartitionError, match="delta slack"):
            complete_partition(run.partial, g, run.partial.k_prime + 1)


def assert_parameter_chain(g, info):
    """The driver's Step-2 record is resolve_step2 at its lifted parameters, its
    notes open the run notes, and the tuple target is (1 - 2 delta_eff) k_hat."""
    eff = info["effective"]
    assert eff == resolve_step2(g.n, info["k_hat"], info["eps_hat"],
                                info["delta_hat"]).to_dict()
    notes = info["run_notes"]
    assert notes[:len(eff["notes"])] == eff["notes"]
    cap = eff["epsilon"] * g.total_weight / (3.0 * info["k_hat"])
    heavy = eff["epsilon"] > 0 and float(g.weights.max()) > cap
    assert notes[len(eff["notes"]):] == (
        [f"max vertex weight {float(g.weights.max())!r} exceeds eps*w(V)/(3k) = {cap!r}; "
         f"the weighted guarantee is not in force"] if heavy else [])
    assert info["tuple_target_met"] == (
        info["tuples"] >= (1.0 - 2.0 * eff["delta"]) * info["k_hat"])


class TestDriver:
    def test_cliques_zero_cost(self):
        # delta small enough that floor((1+delta)k) = k, the component count;
        # the lifted embedding then sees exactly the kernel directions
        g = disjoint_cliques([12, 12, 12, 12])
        bp, report, info = buffered_k_partition(g, 4, 0.1, 0.1, seed=0)
        assert report.max_expansion == 0.0
        assert info["certificate"]["approx_ratio"] == 0.0
        assert info["certificate"]["lower_bound_buffered_check"]
        assert validate_partition(g, bp).valid

    def test_output_validates_with_reported_epsilon(self):
        for g in (CLIQUES6, planted_blocks(120, 4, 3, weighted=True)):
            bp, report, info = buffered_k_partition(g, 4, 0.1, 0.5, seed=2)
            assert validate_partition(g, bp).valid
            assert bp.k == 4
            assert any(note.startswith("max vertex weight") for note in info["run_notes"])
            assert_parameter_chain(g, info)

    def test_determinism(self):
        g = disjoint_cliques([8, 8, 8])
        a = buffered_k_partition(g, 3, 0.1, 0.5, seed=5)
        b = buffered_k_partition(g, 3, 0.1, 0.5, seed=5)
        for pa, pb in zip(a[0].parts, b[0].parts):
            assert np.array_equal(pa, pb)
        assert a[1].max_expansion == b[1].max_expansion

    def test_tiny_connected_graphs_return_valid_output(self):
        for seed in (21, 22, 23):
            g = tiny_connected(7, seed)
            bp, report, info = buffered_k_partition(g, 2, 0.25, 0.9, seed=seed)
            assert validate_partition(g, bp).valid
            [(opt, _)] = brute_force_h_k_eps(g, 2, [0.25])
            assert report.max_expansion >= opt - 1e-9

    def test_epsilon_zero_supported(self):
        g = disjoint_cliques([6, 6])
        bp, report, info = buffered_k_partition(g, 2, 0.0, 0.9, seed=1)
        assert all(b.size == 0 for b in bp.buffers)
        assert validate_partition(g, bp).valid
        assert_parameter_chain(g, info)

    @pytest.mark.parametrize("delta", [1e-300, 1e-15, 1e-6, 0.01, 0.05])
    def test_delta_hat_without_cancellation(self, delta):
        # (1 - 1/sqrt(1+delta))/2 cancels: 0.0 below delta = 2.3e-16, 2.22e-16 at 1e-15
        _, _, info = buffered_k_partition(disjoint_cliques([6, 6, 6]), 3, 0.1, delta, seed=0)
        with mpmath.workdps(350):      # 1 + 1e-300 needs 300 digits
            want = (1 - 1 / mpmath.sqrt(1 + mpmath.mpf(delta))) / 2
            assert abs(info["delta_hat"] - want) <= 8 * 2.0 ** -53 * want

    def test_all_restarts_rejected(self, monkeypatch):
        monkeypatch.setattr(CrudePartition, "buffer_mass", lambda self, g: math.inf)
        attempts = [{"restart": r, "accepted": False, "buffer_mass": math.inf} for r in (0, 1)]
        with pytest.raises(PartitionError) as caught:
            buffered_k_partition(CLIQUES6, 4, 0.1, 0.5, seed=2, restarts=2)
        assert str(caught.value) == (
            f"all 2 restarts failed the Step-2 acceptance check; attempts: {attempts}")

    def test_restart_acceptance_slack_scales_with_weight(self, monkeypatch):
        # At w(V) = 2e-12 a buffer mass of twice 16 eps w(V) is below an absolute
        # 1e-12 slack; the slack is relative to w(V), so every restart fails.
        c = CLIQUES6
        g = Graph.build(c.n, c.edge_u, c.edge_v, c.edge_cost * 1e-14,
                        weights=np.full(c.n, 1e-14))
        eff = resolve_step2(g.n, 6, 0.01, 0.01)
        monkeypatch.setattr(CrudePartition, "buffer_mass",
                            lambda self, g: 2.0 * 16.0 * self.effective.epsilon * g.total_weight)
        with pytest.raises(PartitionError, match="all 2 restarts failed"):
            partial_partition(g, eff, 6, seed=0, restarts=2)

    def test_minimal_graph(self):
        g = disjoint_cliques([2, 2])
        bp, report, info = buffered_k_partition(g, 2, 0.1, 0.1, seed=4)
        assert validate_partition(g, bp).valid
        assert report.max_expansion == 0.0

    def test_parameter_validation(self):
        g = disjoint_cliques([4, 4])
        with pytest.raises(ValueError):
            buffered_k_partition(g, 1, 0.1, 0.5)
        with pytest.raises(ValueError):
            buffered_k_partition(g, 2, 1.1, 0.5)
        with pytest.raises(ValueError):
            buffered_k_partition(g, 2, 0.1, 0.0)
