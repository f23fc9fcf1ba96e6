"""CLI subcommands: exit codes, schemas, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from bufpart.cli import _assignment_json, _read_partition_file, run
from bufpart.graph import BufferedPartition, Graph, PartitionError, load_graph
from bufpart.reports import render_json
from bufpart import cli
from conftest import (four_component_union, from_sets, lapack_spectrum, weighted_er,
                      wide_spectrum_draws)


def _schema_dir() -> Path:
    import bufpart
    return Path(bufpart.__file__).parent / "schemas"


def make_validator():
    reports = json.loads((_schema_dir() / "reports.json").read_text())
    common = json.loads((_schema_dir() / "common.json").read_text())
    registry = Registry().with_resources([
        ("bufpart/reports.json", Resource.from_contents(reports)),
        ("bufpart/common.json", Resource.from_contents(common)),
    ])
    return Draft202012Validator(reports, registry=registry)


VALIDATOR = make_validator()


@pytest.fixture()
def clique_file(tmp_path):
    lines = []
    start = 0
    for size in (6, 6, 6):
        for u in range(size):
            for v in range(u + 1, size):
                lines.append(f"{start + u} {start + v} 1.0")
        start += size
    path = tmp_path / "cliques.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def tiny_file(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("0 1 1\n1 2 1\n2 3 1\n3 0 1\n0 2 1\n")
    return str(path)


@pytest.fixture()
def solves(monkeypatch):
    """The k' of each eigenbasis call the front end makes."""
    calls, solve = [], cli.eigenbasis

    def counting(g, k_prime):
        calls.append(k_prime)
        return solve(g, k_prime)
    monkeypatch.setattr(cli, "eigenbasis", counting)
    return calls


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = run(args + ["--out", str(out)])
    doc = json.loads(out.read_text())
    VALIDATOR.validate(doc)
    return code, doc


class TestSpectrum:
    def test_report_and_schema(self, tiny_file, tmp_path):
        code, doc = run_json(["spectrum", "--graph", tiny_file, "--k", "3"], tmp_path)
        assert code == 0
        assert len(doc["eigenvalues"]) == 3
        assert doc["eigenvalues"][0] == pytest.approx(0.0, abs=1e-10)

    def test_embedding_tsv(self, tiny_file, tmp_path):
        tsv = tmp_path / "emb.tsv"
        code = run(["spectrum", "--graph", tiny_file, "--k", "2",
                    "--embedding-tsv", str(tsv), "--out", str(tmp_path / "r.json")])
        assert code == 0
        rows = tsv.read_text().strip().splitlines()
        assert len(rows) == 4
        assert len(rows[0].split("\t")) == 3

    def test_bad_k(self, tiny_file):
        assert run(["spectrum", "--graph", tiny_file, "--k", "9"]) == 1

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_unwritable_out_is_one_line_exit_1(self, where, tiny_file, tmp_path, capsys):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
        code = run(["spectrum", "--graph", tiny_file, "--k", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("bufpart: error: ") and str(out) in err
        assert err.count("\n") == 1

    def test_lanczos_method(self, tiny_file, tmp_path):
        # four vertices take the exact kernel plus block Lanczos, as every graph does
        code, doc = run_json(["spectrum", "--graph", tiny_file, "--k", "4"], tmp_path)
        assert code == 0
        assert doc["params"] == {"k": 4}
        truth = lapack_spectrum(load_graph(tiny_file), 4)
        assert np.abs(np.array(doc["eigenvalues"]) - truth).max() <= 1e-10

    def test_four_component_union_reports_four_zeros(self, tmp_path):
        edges, _ = four_component_union()          # n = 2400, four components
        graph = tmp_path / "union.txt"
        graph.write_text("".join(f"{int(u)} {int(v)}\n" for u, v, _ in edges.tolist()))
        code, doc = run_json(["spectrum", "--graph", str(graph), "--k", "4"], tmp_path)
        assert code == 0
        assert doc["eigenvalues"] == [0.0, 0.0, 0.0, 0.0]


class TestPartition:
    def test_happy_path(self, clique_file, tmp_path):
        code, doc = run_json(
            ["partition", "--graph", clique_file, "--k", "3", "--eps", "0.1",
             "--delta", "0.1", "--seed", "7"], tmp_path)
        assert code == 0
        assert doc["cut_report"]["max_expansion"] == 0.0
        assert len(doc["assignment"]) == 18

    def test_deterministic_bytes(self, clique_file, tmp_path):
        args = ["partition", "--graph", clique_file, "--k", "3", "--eps", "0.1",
                "--delta", "0.1", "--seed", "7"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_eps_out_of_range_exits_1(self, clique_file):
        assert run(["partition", "--graph", clique_file, "--k", "3",
                    "--eps", "1.5", "--delta", "0.5"]) == 1

    def test_missing_graph_exits_1(self, tmp_path):
        assert run(["partition", "--graph", str(tmp_path / "nope.txt"),
                    "--k", "3", "--eps", "0.1", "--delta", "0.5"]) == 1

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_restarts_below_one_exits_1(self, clique_file, tmp_path, restarts, capsys):
        out = tmp_path / "out.json"
        assert run(["partition", "--graph", clique_file, "--k", "3", "--eps", "0.1",
                    "--delta", "0.5", "--restarts", restarts, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"bufpart: error: restarts must be at least 1, got {restarts}\n"
        assert not out.exists()

    def test_unknown_command_exits_1(self):
        assert run(["transmogrify"]) == 1

    def test_constants_file(self, clique_file, tmp_path, capsys):
        consts = tmp_path / "c.json"
        consts.write_text('{"max_restarts": 2}')
        out = tmp_path / "out.json"
        code = run(["partition", "--graph", clique_file, "--k", "3", "--eps", "0.1",
                    "--delta", "0.1", "--seed", "1", "--constants-file", str(consts),
                    "--out", str(out)])
        assert code == 1
        assert "unrecognized arguments: --constants-file" in capsys.readouterr().err
        assert not out.exists()


class TestCheeger2AndBalanced:
    def test_cheeger2(self, clique_file, tmp_path):
        code, doc = run_json(["cheeger2", "--graph", clique_file, "--eps", "0.1"],
                             tmp_path)
        assert code == 0
        assert doc["phi"] <= doc["guarantee"] + 1e-9

    def test_balanced_cut(self, clique_file, tmp_path):
        code, doc = run_json(["balanced-cut", "--graph", clique_file, "--eps", "0.1"],
                             tmp_path)
        assert code == 0
        assert doc["balanced"] is True

    def test_unbalanced_cut_at_small_weight_scale_exits_2(self, tmp_path):
        # The heavy-vertex path of test_balanced.py with costs and weights times 1e-12.
        edges, weights = tmp_path / "path.txt", tmp_path / "path.w"
        edges.write_text("a b 1e-12\nb c 1e-12\nc d 1e-12\n")
        weights.write_text("a 9e-11\nb 1e-12\nc 1e-12\nd 1e-12\n")
        code, doc = run_json(["balanced-cut", "--graph", str(edges), "--weights", str(weights),
                              "--eps", "0.2"], tmp_path)
        assert code == 2
        assert doc["balanced"] is False and len(doc["violations"]) == 3

    def test_kbalanced(self, clique_file, tmp_path):
        code, doc = run_json(
            ["kbalanced", "--graph", clique_file, "--k", "3", "--eps", "0.1"],
            tmp_path)
        assert code == 0
        assert doc["max_part_weight"] <= doc["weight_limit"] + 1e-9

    def test_eps_bound(self, clique_file):
        assert run(["cheeger2", "--graph", clique_file, "--eps", "0.3"]) == 1

    @pytest.mark.parametrize("seed, eps", [(501, 0.2), (502, 0.05), (505, 0.05)])
    def test_weights_are_the_masked_sums_of_the_assignment(self, seed, eps, tmp_path):
        # Real-valued weights, and balanced cuts of several levels: each reported
        # weight is its set's sum in vertex order, bit for bit.
        g = weighted_er(100, 0.1, seed)
        edges = _write(tmp_path, "g.txt", "".join(
            f"{u} {v} {c!r}\n"
            for u, v, c in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_cost.tolist())))
        weights = _write(tmp_path, "g.w", "".join(
            f"{v} {w!r}\n" for v, w in enumerate(g.weights.tolist())))
        g = load_graph(edges, weights)
        _, doc = run_json(["balanced-cut", "--graph", edges, "--weights", weights,
                           "--eps", str(eps)], tmp_path, "bc.json")
        w = g.weights
        label = _read_partition_file(tmp_path / "bc.json", g, 2, eps).label
        assert len(doc["per_level_lambda2"]) >= 2
        assert doc["balance"]["left"] == float(w[label == 0].sum())
        assert doc["balance"]["right"] == float(w[label == 2].sum())
        assert doc["buffer_ratio"] == float(w[label == 1].sum()) / min(
            doc["balance"]["left"], doc["balance"]["right"])
        _, doc = run_json(["kbalanced", "--graph", edges, "--weights", weights, "--k", "5",
                           "--eps", str(eps)], tmp_path, "kb.json")
        label = _read_partition_file(tmp_path / "kb.json", g, 5, eps).label
        assert doc["part_weights"] == [float(w[label == 2 * i].sum()) for i in range(5)]
        assert doc["buffer_weight"] == float(w[label == 1].sum())


class TestVerifyCertifyBrute:
    def test_verify_partition_roundtrip(self, clique_file, tmp_path):
        code, doc = run_json(
            ["partition", "--graph", clique_file, "--k", "3", "--eps", "0.1",
             "--delta", "0.1", "--seed", "3"], tmp_path, "part.json")
        assert code == 0
        part_file = tmp_path / "part.json"
        code2, doc2 = run_json(
            ["verify", "--graph", clique_file, "--partition", str(part_file),
             "--k", "3", "--eps", "0.1"], tmp_path, "verify.json")
        assert code2 == 0
        assert doc2["valid"] is True
        assert doc2["lower_bound_buffered_check"] is True

    def test_verify_rejects_bad_partition(self, tiny_file, tmp_path):
        bad = {"assignment": {"0": {"part_id": 0, "role": "core"},
                              "1": {"part_id": 0, "role": "core"},
                              "2": {"part_id": 0, "role": "core"},
                              "3": {"part_id": 1, "role": "buffer"}}}
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(bad))
        code, doc = run_json(
            ["verify", "--graph", tiny_file, "--partition", str(bad_file),
             "--k", "2", "--eps", "0.1"], tmp_path, "verify.json")
        assert code == 2
        assert doc["valid"] is False

    def test_certify(self, clique_file, tmp_path):
        run_json(["partition", "--graph", clique_file, "--k", "3", "--eps", "0.1",
                  "--delta", "0.1", "--seed", "3"], tmp_path, "part.json")
        code, doc = run_json(
            ["certify", "--graph", clique_file, "--partition",
             str(tmp_path / "part.json"), "--k", "3", "--eps", "0.1",
             "--delta", "0.1"], tmp_path, "cert.json")
        assert code == 0
        assert doc["certificate"]["achieved_cost"] == 0.0

    @pytest.mark.parametrize("k", ["0", "5", "1" + "0" * 400])
    def test_certify_k_out_of_range_exits_1(self, k, tiny_file, tmp_path, capsys, solves):
        # verify and certify compare --k with the file's part count as they read it,
        # so a wrong k gives one line and no eigensolve.
        part = _write(tmp_path, "p.json", json.dumps({"assignment": {
            str(v): {"part_id": v % 2, "role": "core"} for v in range(4)}}))
        out = tmp_path / "out.json"
        args = ["--graph", tiny_file, "--partition", part, "--k", k, "--eps", "0.1",
                "--out", str(out)]
        for argv in (["verify", *args], ["certify", *args, "--delta", "0.5"]):
            assert run(argv) == 1
            assert capsys.readouterr().err == f"bufpart: error: partition has 2 parts, " \
                                              f"expected {k}\n"
            assert not out.exists()
        assert solves == []

    def test_certify_invalid_partition_exits_2_verify_reports_it(self, tmp_path, capsys,
                                                                 solves):
        # b is a buffer of part 0 heavier than eps * w(P_0): condition 4 fails, and
        # both commands say so before they solve.
        graph = _write(tmp_path, "c4.txt", "a b\nb c\nc d\nd a\na c\n")
        part = _write(tmp_path, "p.json", json.dumps({"assignment": {
            "a": {"part_id": 0, "role": "core"}, "b": {"part_id": 0, "role": "buffer"},
            "c": {"part_id": 1, "role": "core"}, "d": {"part_id": 1, "role": "core"}}}))
        out = tmp_path / "out.json"
        args = ["--graph", graph, "--partition", part, "--k", "2", "--eps", "0.1"]
        assert run(["certify", *args, "--delta", "0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bufpart: failure: invalid buffered partition: "
                              "condition 4 violated: ") and err.count("\n") == 1
        assert not out.exists()
        code, doc = run_json(["verify", *args], tmp_path)
        assert code == 2 and doc["valid"] is False
        assert doc["violations"][0].startswith("condition 4 violated: ")
        assert solves == []

    def test_brute(self, tiny_file, tmp_path):
        code, doc = run_json(
            ["brute", "--graph", tiny_file, "--k", "2", "--eps", "0.25"],
            tmp_path)
        assert code == 0
        assert doc["optimum"] >= 0.0
        assert len(doc["witness"]) == 4


HUGE_K = "1" + "0" * 400
PARAMETER_RANGES = {    # command: (valid arguments, [(argument, value, message)])
    "partition": (["--k", "2", "--eps", "0.1", "--delta", "0.5"], [
        ("--k", "1", "k must lie in [2, n=4], got 1"),
        ("--k", "5", "k must lie in [2, n=4], got 5"),
        ("--k", HUGE_K, f"k must lie in [2, n=4], got {HUGE_K}"),
        ("--eps", "1", "epsilon must lie in [0,1), got 1.0"),
        ("--eps", "-0.1", "epsilon must lie in [0,1), got -0.1"),
        ("--delta", "0", "delta must lie in (0,1), got 0.0"),
        ("--delta", "1", "delta must lie in (0,1), got 1.0"),
        ("--restarts", "0", "restarts must be at least 1, got 0")]),
    "cheeger2": (["--eps", "0.1"], [
        ("--eps", "0", "epsilon must lie in (0, 1/4), got 0.0"),
        ("--eps", "0.25", "epsilon must lie in (0, 1/4), got 0.25")]),
    "balanced-cut": (["--eps", "0.1"], [
        ("--eps", "-1", "epsilon must lie in (0, 1/4), got -1.0"),
        ("--eps", "0.3", "epsilon must lie in (0, 1/4), got 0.3")]),
    "kbalanced": (["--k", "2", "--eps", "0.1"], [
        ("--k", "0", "k must lie in [1, n=4], got 0"),
        ("--k", "5", "k must lie in [1, n=4], got 5"),
        ("--k", HUGE_K, f"k must lie in [1, n=4], got {HUGE_K}"),
        ("--eps", "0.25", "epsilon must lie in (0, 1/4), got 0.25")]),
    "spectrum": (["--k", "2"], [
        ("--k", "0", "k must lie in [1, n=4], got 0"),
        ("--k", "5", "k must lie in [1, n=4], got 5"),
        ("--k", HUGE_K, f"k must lie in [1, n=4], got {HUGE_K}")]),
    "verify": (["--k", "2", "--eps", "0.1"], [
        ("--eps", "1", "epsilon must lie in [0,1), got 1.0"),
        ("--eps", "-0.5", "epsilon must lie in [0,1), got -0.5"),
        ("--k", HUGE_K, f"partition has 2 parts, expected {HUGE_K}")]),
    "certify": (["--k", "2", "--eps", "0.1", "--delta", "0.5"], [
        ("--eps", "1", "epsilon must lie in [0,1), got 1.0"),
        ("--k", HUGE_K, f"partition has 2 parts, expected {HUGE_K}"),
        ("--delta", "0", "delta must lie in (0,1), got 0.0"),
        ("--delta", "1", "delta must lie in (0,1), got 1.0")]),
    "brute": (["--k", "2", "--eps", "0.1"], [
        ("--k", "0", "k must lie in [1, n=4], got 0"),
        ("--k", "5", "k must lie in [1, n=4], got 5"),
        ("--k", HUGE_K, f"k must lie in [1, n=4], got {HUGE_K}"),
        ("--eps", "1", "epsilon must lie in [0,1), got 1.0")]),
}


@pytest.mark.parametrize("command, argument, value, message", [
    pytest.param(command, argument, value, message,
                 id=f"{command}{argument}={'1e400' if value == HUGE_K else value}")
    for command, (_, cases) in PARAMETER_RANGES.items() for argument, value, message in cases])
def test_out_of_range_parameter_is_one_line_exit_1(command, argument, value, message,
                                                   tiny_file, tmp_path, capsys):
    """Each range is checked once, by the library or, where no library call on the
    path checks it, by the front end; either way one line in the library's words."""
    argv = list(PARAMETER_RANGES[command][0])
    if argument in argv:
        argv[argv.index(argument) + 1] = value
    else:
        argv += [argument, value]
    if command in ("verify", "certify"):
        argv += ["--partition", _write(tmp_path, "p.json", json.dumps({"assignment": {
            str(v): {"part_id": v % 2, "role": "core"} for v in range(4)}}))]
    out = tmp_path / "out.json"
    assert run([command, "--graph", tiny_file, *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"bufpart: error: {message}\n"
    assert not out.exists()


BOUND_NOTE = "the bound in force always holds; its failure indicates an implementation bug"


class TestLowerBoundInForce:
    """partition, certify and verify check the buffered lower bound that is a
    theorem for the input, so exit 2 means a broken guarantee."""

    @staticmethod
    def _light_draw(tmp_path, t):
        """Draw t of wide_spectrum_draws(7, .) as files; some weight is below its
        vertex's incident cost, so lambda_k <= 2 phi + eps is no theorem there."""
        *_, (drawn, edges, weights) = wide_spectrum_draws(7, t + 1)
        assert drawn == t
        g = load_graph(edges, weights)
        assert np.any(g.weights < g.incident)
        return ["--graph", _write(tmp_path, "g.edges", "\n".join(edges) + "\n"),
                "--weights", _write(tmp_path, "g.weights", "\n".join(weights) + "\n")]

    @pytest.mark.parametrize("t", [43, 128])
    def test_light_weight_draws_exit_0(self, t, tmp_path):
        ga = self._light_draw(tmp_path, t)
        code, doc = run_json(["partition", *ga, "--k", "2", "--eps", "0.1", "--delta", "0.5"],
                             tmp_path, "part.json")
        assert code == 0
        cert = doc["certificate"]
        assert cert["lower_bound_buffered_check"] and cert["lower_bound_buffered_slack"] >= 0.0
        part = str(tmp_path / "part.json")
        code, doc = run_json(["verify", *ga, "--partition", part, "--k", "2", "--eps", "0.1"],
                             tmp_path, "verify.json")
        assert code == 0 and doc["lower_bound_buffered_check"] and "note" not in doc
        code, _ = run_json(["certify", *ga, "--partition", part, "--k", "2", "--eps", "0.1",
                            "--delta", "0.5"], tmp_path, "cert.json")
        assert code == 0

    def test_more_parts_asked_than_the_file_holds_exit_1(self, tmp_path, capsys):
        # No bound over fewer than k disjoint sets bounds lambda_k: the part count
        # of the file must equal --k, whichever bound is in force.
        ga = self._light_draw(tmp_path, 43)
        assert run_json(["partition", *ga, "--k", "2", "--eps", "0.1", "--delta", "0.5"],
                        tmp_path, "part.json")[0] == 0
        part = str(tmp_path / "part.json")
        assert run(["verify", *ga, "--partition", part, "--k", "3", "--eps", "0.1"]) == 1
        assert run(["certify", *ga, "--partition", part, "--k", "3", "--eps", "0.1",
                    "--delta", "0.5"]) == 1
        assert capsys.readouterr().err.count("partition has 2 parts, expected 3") == 2

    @pytest.mark.parametrize("light", [False, True])
    def test_eigenvalue_above_the_bound_exits_2_with_the_note(self, light, clique_file,
                                                              tmp_path, monkeypatch):
        if light:
            ga, k = self._light_draw(tmp_path, 43), "2"
        else:
            ga, k = ["--graph", clique_file], "3"
        assert run_json(["partition", *ga, "--k", k, "--eps", "0.1", "--delta", "0.5"],
                        tmp_path, "part.json")[0] == 0
        solve = cli.eigenbasis

        def raised(op, k_prime):
            basis = solve(op, k_prime)
            return dataclasses.replace(basis, eigenvalues=basis.eigenvalues + 1e6)
        monkeypatch.setattr(cli, "eigenbasis", raised)
        code, doc = run_json(["verify", *ga, "--partition", str(tmp_path / "part.json"),
                              "--k", k, "--eps", "0.1"], tmp_path, "verify.json")
        assert code == 2
        assert doc["valid"] is True and doc["lower_bound_buffered_check"] is False
        assert doc["lower_bound_buffered_slack"] < -1e5
        assert doc["note"] == BOUND_NOTE


def _assignment_dict(g, label) -> dict:
    """Oracle: the assignment as the per-vertex dict that render_json walks."""
    names = g.labels
    placed = {names[v]: {"part_id": x // 2, "role": ("core", "buffer")[x % 2]}
              for v, x in enumerate(label.tolist()) if x >= 0}
    return {name: placed[name] for name in sorted(placed, key=lambda s: (len(s), s))}


_NASTY = ['"', "\\", "\u2028", "\u00e9", "\u96ea", "\U0001f600", "a", "Z", "~"] + \
    [chr(c) for c in range(0x20)]
_LABEL = st.one_of(st.text(st.sampled_from(_NASTY), min_size=1, max_size=5),
                   st.integers(0, 10 ** 7).map(str),
                   st.text(min_size=1, max_size=4))


@st.composite
def _assignments(draw):
    labels = draw(st.lists(_LABEL, min_size=1, max_size=14, unique=True))
    n = len(labels)
    label = np.array(draw(st.lists(st.integers(-1, 7), min_size=n, max_size=n)), dtype=np.int64)
    return Graph.build(n, [], [], [], weights=np.ones(n), labels=labels), label


class TestAssignmentText:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(case=_assignments())
    def test_joined_text_equals_rendered_dict(self, case):
        g, label = case
        part = BufferedPartition(label=label, k=4, epsilon=0.0)
        got = render_json({"assignment": _assignment_json(g, part)})
        assert got == render_json({"assignment": _assignment_dict(g, label)})
        assert json.loads(got)["assignment"] == _assignment_dict(g, label)

    def test_overlapping_sets_are_rejected(self):
        with pytest.raises(PartitionError, match=r"^condition 1 violated: sets are not "
                                                 r"pairwise disjoint \(vertex 1\)$"):
            from_sets([[0, 1], [1, 2]], [[2, 3], [3]], 0.0)

    @pytest.mark.parametrize("command", [["cheeger2"], ["balanced-cut"],
                                         ["kbalanced", "--k", "3"],
                                         ["partition", "--k", "2", "--delta", "0.5"]])
    def test_report_with_escaped_labels_loads_back(self, command, tmp_path):
        names = ['q"1', "b\\s", "c\x01", "\u00e9t\u00e9", "\x1b", "7", "42", "\x00z"]
        lines = [f"{names[i]} {names[j]} {1.0 if (i < 4) == (j < 4) else 0.1}"
                 for i in range(8) for j in range(i + 1, 8)]
        graph = tmp_path / "g.edges"
        graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, doc = run_json([command[0], "--graph", str(graph), *command[1:],
                              "--eps", "0.1"], tmp_path, "report.json")
        assert code == 0 and sorted(doc["assignment"]) == sorted(names)
        g = load_graph(str(graph))
        k = int(command[command.index("--k") + 1]) if "--k" in command else 2
        bp = _read_partition_file(tmp_path / "report.json", g, k, 0.1)
        for i, (p, b) in enumerate(zip(bp.parts, bp.buffers)):
            for v, role in [(v, "core") for v in p.tolist()] + [(v, "buffer") for v in b.tolist()]:
                assert doc["assignment"][g.labels[v]] == {"part_id": i, "role": role}
        assert sum(p.size + b.size for p, b in zip(bp.parts, bp.buffers)) == len(names)


class TestMalformedPartitionFile:
    @pytest.mark.parametrize("content, reason", [
        ({"assignment": {"0": {"role": "core"}, "1": {"part_id": 0, "role": "core"},
                         "2": {"part_id": 1, "role": "core"}}}, "no integer part_id"),
        ([{"part_id": 0, "role": "core"}], "no assignment object"),
        ({"assignment": {}}, "no assignment object"),
        ({"assignment": {"0": {"part_id": 0, "role": "core"},
                         "1": {"part_id": -1, "role": "core"},
                         "2": {"part_id": 1, "role": "core"}}}, "no integer part_id"),
        ({"assignment": {"0": {"part_id": 0, "role": "core"},
                         "1": {"part_id": 1, "role": "core"},
                         "2": {"part_id": 1, "role": "bogus"}}}, "unknown role 'bogus'"),
    ])
    @pytest.mark.parametrize("command", [["verify", "--k", "2", "--eps", "0.5"],
                                         ["certify", "--k", "2", "--eps", "0.5",
                                          "--delta", "0.5"]])
    def test_one_line_exit_1(self, content, reason, command, tmp_path, capsys):
        graph = tmp_path / "triangle.txt"
        graph.write_text("0 1 1\n1 2 1\n2 0 1\n")
        part = tmp_path / "part.json"
        part.write_text(json.dumps(content))
        out = tmp_path / "out.json"
        code = run(command + ["--graph", str(graph), "--partition", str(part),
                              "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("bufpart: error: partition file ") and reason in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("content, reason", [
        (b'{"assignment": {"0": 1', ": Expecting ',' delimiter: line 1 column 23 (char 22)"),
        (b'{"assignment":\n {"\xff": 1}}', " line 2: not UTF-8 text (invalid start byte)"),
    ], ids=["truncated-json", "bad-utf8"])
    def test_unreadable_file_is_named(self, content, reason, tiny_file, tmp_path, capsys):
        part = tmp_path / "part.json"
        part.write_bytes(content)
        out = tmp_path / "out.json"
        code, err = _run_quietly(["verify", "--graph", tiny_file, "--partition", str(part),
                                  "--k", "2", "--eps", "0.1", "--out", str(out)], capsys)
        assert (code, err) == (1, f"bufpart: error: partition file {str(part)!r}{reason}\n")
        assert not out.exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        g = load_graph(["a b 1", "b c 1", "c a 1"])
        part = tmp_path / "part.json"
        part.write_text(json.dumps({name: {"part_id": 0, "role": "core"} for name in "abc"}),
                        encoding="utf-8-sig")
        assert _read_partition_file(part, g, 1, 0.1).label.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("content, reason", [
        ("[" * 200_000, "maximum recursion depth exceeded"),
        ('{"0": {"part_id": ' + "1" * 5001 + "}}", "Exceeds the limit (4300 digits)"),
    ], ids=["deep-nesting", "huge-int"])
    @pytest.mark.parametrize("command", [["verify", "--k", "2", "--eps", "0.1"],
                                         ["certify", "--k", "2", "--eps", "0.1",
                                          "--delta", "0.5"]])
    def test_json_the_decoder_refuses_is_named(self, content, reason, command, tiny_file,
                                               tmp_path, capsys):
        part = tmp_path / "part.json"
        part.write_text(content)
        out = tmp_path / "out.json"
        code, err = _run_quietly(command + ["--graph", tiny_file, "--partition", str(part),
                                            "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith(f"bufpart: error: partition file {str(part)!r}: {reason}")
        assert err.count("\n") == 1
        assert not out.exists()


class TestPartitionTinyDelta:
    @pytest.mark.parametrize("delta", ["1e-16", "1e-300"])
    def test_report_with_positive_delta_hat(self, delta, clique_file, tmp_path):
        # (1 - 1/sqrt(1+delta))/2 cancels to 0.0 here, which the Step-2 range check rejects
        code, doc = run_json(["partition", "--graph", clique_file, "--k", "3", "--eps", "0.1",
                              "--delta", delta, "--seed", "1"], tmp_path)
        assert code == 0
        assert doc["diagnostics"]["delta_hat"] > 0


class TestPartitionErrorBranch:
    def test_driver_failure_writes_error_report_exit_2(self, clique_file, tmp_path,
                                                       monkeypatch):
        from bufpart import cli as cli_mod
        from bufpart.graph import PartitionError

        def boom(*args, **kwargs):
            raise PartitionError("partial partition has only 1 tuple")

        monkeypatch.setattr(cli_mod, "buffered_k_partition", boom)
        out = tmp_path / "err.json"
        code = run(["partition", "--graph", clique_file, "--k", "3",
                    "--eps", "0.1", "--delta", "0.1", "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        VALIDATOR.validate(doc)
        assert "error" in doc

    def test_all_restarts_rejected_writes_error_report_exit_2(self, clique_file, tmp_path,
                                                              monkeypatch):
        from bufpart.partition import CrudePartition

        monkeypatch.setattr(CrudePartition, "buffer_mass", lambda self, g: float("inf"))
        code, doc = run_json(["partition", "--graph", clique_file, "--k", "3", "--eps", "0.1",
                              "--delta", "0.1", "--restarts", "2"], tmp_path)
        assert code == 2
        assert set(doc) == {"command", "error"}     # the partition_error branch
        assert doc["error"].startswith(
            "all 2 restarts failed the Step-2 acceptance check; attempts: [{'restart': 0, ")


class TestFailedReportAsPartitionFile:
    @pytest.mark.parametrize("command", [["verify"], ["certify", "--delta", "0.5"]])
    def test_the_reports_error_is_named_exit_1(self, command, tmp_path, capsys):
        # A 12-vertex graph whose bottom four eigenvalues 0, 0.509, 0.639, 0.717 are
        # simple, so its basis at k_hat = 4 is unique up to the signs the solver fixes:
        # the one restart at k = 3, delta = 0.5 fails Step 2's acceptance check (buffer
        # mass 5 of 12) whatever the solver's rounding.
        pairs = ("0 1, 0 2, 0 5, 0 7, 0 8, 0 10, 0 11, 1 2, 1 8, 2 3, 2 6, 2 7, 3 4, 3 7, "
                 "3 8, 3 9, 4 5, 4 6, 4 9, 4 11, 5 6, 5 8, 5 10, 6 7, 7 8, 8 9, 9 10, 10 11")
        graph = _write(tmp_path, "g12.txt", "".join(
            f"v{pair.replace(' ', ' v')}\n" for pair in pairs.split(", ")))
        report = tmp_path / "failed.json"
        assert run(["partition", "--graph", graph, "--k", "3", "--eps", "0.1", "--delta", "0.5",
                    "--restarts", "1", "--out", str(report)]) == 2
        error = json.loads(report.read_text())["error"]
        out = tmp_path / "out.json"
        code, err = _run_quietly(command + ["--graph", graph, "--partition", str(report),
                                            "--k", "3", "--eps", "0.1", "--out", str(out)],
                                 capsys)
        assert (code, err) == (1, f"bufpart: error: partition file {str(report)!r} reports an "
                                  f"error, not an assignment: {error}\n")
        assert not out.exists()

    def test_a_bare_assignment_may_name_vertices_command_and_error(self, tmp_path):
        g = load_graph(_write(tmp_path, "g.txt", "command error 1\nerror x 1\nx y 1\n"))
        part = tmp_path / "part.json"
        part.write_text(json.dumps({name: {"part_id": i // 2, "role": "core"}
                                    for i, name in enumerate(["command", "error", "x", "y"])}))
        bp = _read_partition_file(part, g, 2, 0.1)
        assert bp.k == 2 and bp.label.tolist() == [0, 0, 2, 2]


def _assert_one_line_exit_1(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("bufpart: error: ") and "float64" in err
    assert err.count("\n") == 1
    assert not out.exists()


OVERFLOW_ARGVS = [
    ["partition", "--k", "2", "--eps", "0.1", "--delta", "0.5"],
    ["cheeger2", "--eps", "0.1"],
    ["spectrum", "--k", "2"],
]


class TestOverflowingCosts:
    @pytest.mark.parametrize("argv", OVERFLOW_ARGVS)
    def test_one_line_exit_1_without_warnings(self, argv, tmp_path, capsys):
        graph = tmp_path / "big.txt"
        graph.write_text("0 1 1e308\n1 2 1e308\n2 0 1e308\n2 3 1\n")
        _assert_one_line_exit_1(argv + ["--graph", str(graph)], tmp_path, capsys)

    @pytest.mark.parametrize("argv", OVERFLOW_ARGVS)
    @pytest.mark.parametrize("edges, weights", [
        ("0 1 5e-324\n1 2 5e-324\n2 0 5e-324\n", None),
        ("0 1 1e300\n1 2 1e300\n", "0 1e-10\n1 1e-10\n2 1e-10\n"),
    ], ids=["denormal-costs", "huge-costs-tiny-weights"])
    def test_laplacian_out_of_float64_exits_1(self, argv, edges, weights, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text(edges)
        argv = argv + ["--graph", str(graph)]
        if weights is not None:
            (tmp_path / "w.txt").write_text(weights)
            argv += ["--weights", str(tmp_path / "w.txt")]
        _assert_one_line_exit_1(argv, tmp_path, capsys)

    def test_embedding_error_exits_2_with_one_line(self, clique_file, monkeypatch, capsys):
        from bufpart import cli as cli_mod
        from bufpart.spectral import EmbeddingError

        def degenerate(*args, **kwargs):
            raise EmbeddingError("vertex 3 embeds to the zero vector")

        monkeypatch.setattr(cli_mod, "buffered_k_partition", degenerate)
        code = run(["partition", "--graph", clique_file, "--k", "3",
                    "--eps", "0.1", "--delta", "0.1"])
        assert code == 2
        assert capsys.readouterr().err == "bufpart: failure: vertex 3 embeds to the zero vector\n"


class TestMoreComponentsThanEigenvectors:
    """Three disjoint edges: k' = 2 eigenvectors leave the third component at zero."""

    @pytest.fixture()
    def three_edges(self, tmp_path):
        path = tmp_path / "three.txt"
        path.write_text("a b\nc d\ne f\n")
        return str(path)

    def test_partition_names_the_vertex_and_the_components(self, three_edges, tmp_path,
                                                           capsys):
        out = tmp_path / "out.json"
        code = run(["partition", "--graph", three_edges, "--k", "2", "--eps", "0.1",
                    "--delta", "0.2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "bufpart: failure: vertex 'e' embeds to the zero vector: the graph has 3 "
            "connected components, more than the 2 eigenvectors of the embedding\n")
        assert not out.exists()      # an embedding failure writes no report

    def test_spectrum_writes_the_zero_rows(self, three_edges, tmp_path):
        tsv = tmp_path / "emb.tsv"
        code = run(["spectrum", "--graph", three_edges, "--k", "2",
                    "--embedding-tsv", str(tsv), "--out", str(tmp_path / "r.json")])
        assert code == 0
        rows = [line.split("\t") for line in tsv.read_text().splitlines()]
        assert [row[0] for row in rows] == list("abcdef")
        assert rows[4][1:] == rows[5][1:] == ["0", "0"]
        assert all(sum(x != "0" for x in row[1:]) == 1 for row in rows[:4])


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run_quietly(argv, capsys):
    """run(argv) with every Python warning turned into an error; returns (code, stderr)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    return code, capsys.readouterr().err


class TestExtremeScales:
    def test_triangle_costs_1e200_give_the_unit_spectrum(self, tmp_path, capsys):
        graph = _write(tmp_path, "g.txt", "0 1 1e200\n1 2 1e200\n2 0 1e200\n")
        out = tmp_path / "out.json"
        code, err = _run_quietly(["spectrum", "--graph", graph, "--k", "3",
                                  "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        doc = json.loads(out.read_text())
        assert doc["eigenvalues"] == pytest.approx([0.0, 1.5, 1.5], abs=1e-12)

    def test_cheeger2_costs_1e200_match_unit_costs(self, tmp_path, capsys):
        docs = []
        for cost in ("1", "1e200"):
            graph = _write(tmp_path, f"g{cost}.txt",
                           "".join(f"{e} {cost}\n" for e in ("a b", "b c", "a c", "c d")))
            out = tmp_path / f"out{cost}.json"
            code, err = _run_quietly(["cheeger2", "--graph", graph, "--eps", "0.1",
                                      "--out", str(out)], capsys)
            assert (code, err) == (0, "")
            docs.append(json.loads(out.read_text()))
        assert docs[1]["lambda2"] == pytest.approx(docs[0]["lambda2"], rel=1e-12)
        assert docs[1]["phi"] == pytest.approx(docs[0]["phi"], rel=1e-12)
        assert docs[1]["assignment"] == docs[0]["assignment"]
        assert docs[0]["phi"] == 0.5

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-300])
    @pytest.mark.parametrize("reference", ["dense", "lanczos"])
    def test_scaled_costs_give_the_unit_cost_spectrum(self, scale, reference, tmp_path,
                                                      capsys):
        """Costs scaled by `scale` give the unit-cost spectrum: the dense reference is
        LAPACK's eigh of the test-built unit-cost Laplacian, the lanczos one the
        command's own solve at unit costs."""
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5), (2, 3, 3.0), (3, 4, 1.0),
                 (4, 5, 1.5), (5, 3, 0.25), (1, 4, 0.75)]
        graphs, spectra = [], []
        for factor in (1.0, scale):
            graph = _write(tmp_path, f"g{len(graphs)}.txt",
                           "".join(f"{u} {v} {c * factor!r}\n" for u, v, c in edges))
            out = tmp_path / "out.json"
            code, err = _run_quietly(["spectrum", "--graph", graph, "--k", "6",
                                      "--out", str(out)], capsys)
            assert (code, err) == (0, "")
            graphs.append(graph)
            spectra.append(json.loads(out.read_text())["eigenvalues"])
        unit = (lapack_spectrum(load_graph(graphs[0]), 6) if reference == "dense"
                else np.array(spectra[0]))
        assert np.abs(np.array(spectra[1]) - unit).max() <= 1e-12

    @pytest.mark.parametrize("edges, weights, argv", [
        ("0 1\n", "0 1e300\n1 1e-300\n", ["spectrum", "--k", "2"]),
        ("a b 1e-300\nb c 1e300\n", "a 1\nb 1\nc 1\n",
         ["spectrum", "--k", "3"]),
        ("a b\nb c\na c\n", "a 1e-320\nb 1\nc 1\n", ["brute", "--k", "2", "--eps", "0.1"]),
        ("a b 3e-308\nb c 3e-308\na c 3e-308\n", "a 1e-320\nb 1e-320\nc 1e-320\n",
         ["spectrum", "--k", "2"]),
    ], ids=["weight-ratio-1e600", "cost-ratio-1e600-lanczos", "subnormal-weight-brute",
            "subnormal-weights"])
    def test_out_of_scale_input_exits_1(self, edges, weights, argv, tmp_path, capsys):
        argv = argv + ["--graph", _write(tmp_path, "g.txt", edges),
                       "--weights", _write(tmp_path, "w.txt", weights)]
        _assert_one_line_exit_1(argv, tmp_path, capsys)

    def test_verify_applies_the_scale_rule(self, tmp_path, capsys):
        part = _write(tmp_path, "p.json", json.dumps({"assignment": {
            "a": {"part_id": 0, "role": "core"}, "b": {"part_id": 1, "role": "core"},
            "c": {"part_id": 1, "role": "core"}}}))
        argv = ["verify", "--graph", _write(tmp_path, "g.txt", "a b\nb c\na c\n"),
                "--weights", _write(tmp_path, "w.txt", "a 1e-300\nb 1\nc 1\n"),
                "--partition", part, "--k", "2", "--eps", "0.1"]
        _assert_one_line_exit_1(argv, tmp_path, capsys)


class TestIngestErrors:
    @pytest.mark.parametrize("edges, message", [
        ("a b\nc c 1\n", "self-loop at vertex 'c'"),
        ("a b\nb c\nc b 3\n", "duplicate edge ('b', 'c')"),
        ("a b\nb c inf\n", "edge ('b','c') has non-finite cost inf"),
        ("a b\nc b -2\n", "edge ('c','b') has nonpositive cost -2.0"),
        ("7 3\n3 3\n", "self-loop at vertex '3'"),
    ], ids=["self-loop", "duplicate", "inf-cost", "negative-cost", "numeric-ids"])
    def test_one_line_naming_the_files_ids(self, edges, message, tmp_path, capsys):
        out = tmp_path / "out.json"
        code, err = _run_quietly(["spectrum", "--graph", _write(tmp_path, "g.txt", edges),
                                  "--k", "2", "--out", str(out)], capsys)
        assert (code, err) == (1, f"bufpart: error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("which", ["edge", "weight"])
    def test_undecodable_bytes_name_the_file(self, which, tmp_path, capsys):
        edges, weights = b"a b 1\nb c 1\n", b"a 1\nb 1\nc 1\n"
        bad = tmp_path / f"{which}.txt"
        paths = {"edge": tmp_path / "edge.txt", "weight": tmp_path / "weight.txt"}
        paths["edge"].write_bytes(edges)
        paths["weight"].write_bytes(weights)
        bad.write_bytes(bad.read_bytes().replace(b"b 1\n", b"\xffb 1\n", 1))
        code, err = _run_quietly(["spectrum", "--graph", str(paths["edge"]), "--weights",
                                  str(paths["weight"]), "--k", "2"], capsys)
        line = 1 if which == "edge" else 2
        assert (code, err) == (1, f"bufpart: error: {which} file {str(bad)!r} line {line}: "
                               f"not UTF-8 text (invalid start byte)\n")

    def test_unicode_line_separator_is_not_a_line_break(self, tmp_path, capsys):
        # wc -l counts 2 lines; splitlines() would read 3 and load edges a-b,
        # c-"1" and b-c.  Split at newlines only, line 1 has four fields.
        graph = _write(tmp_path, "g.txt", "a b\u2028c 1\nb c 2\n")
        code, err = _run_quietly(["spectrum", "--graph", graph, "--k", "2"], capsys)
        assert (code, err) == (
            1, "bufpart: error: edge line 1: expected 'u v [cost]', got 'a b\\u2028c 1'\n")

    def test_control_character_id_round_trips_through_verify(self, tmp_path):
        # A 30-vertex graph of three 10-cliques, one vertex named x<U+0001>y.
        names = ["x\x01y"] + [f"v{i}" for i in range(1, 30)]
        lines = [f"{names[10 * c + u]} {names[10 * c + v]} 1\n"
                 for c in range(3) for u in range(10) for v in range(u + 1, 10)]
        graph = _write(tmp_path, "g.txt", "".join(lines))
        part = tmp_path / "part.json"
        assert run(["partition", "--graph", graph, "--k", "3", "--eps", "0.1",
                    "--delta", "0.1", "--seed", "1", "--out", str(part)]) == 0
        assert '"x\\u0001y"' in part.read_text(encoding="utf-8")
        assert "x\x01y" in json.loads(part.read_text(encoding="utf-8"))["assignment"]
        code, doc = run_json(["verify", "--graph", graph, "--partition", str(part),
                              "--k", "3", "--eps", "0.1"], tmp_path, "verify.json")
        assert code == 0 and doc["valid"] is True


class TestSolverFailure:
    # Every size fails in the Rayleigh-Ritz step of block Lanczos.  The ids name the
    # solver each size took while graphs of up to 512 vertices were solved densely.
    @pytest.mark.parametrize("n", [4, 600], ids=["dense-dense eigensolver",
                                                 "lanczos-block Lanczos, Rayleigh-Ritz step"])
    def test_linalg_error_exits_2_naming_the_solver(self, n, tiny_file, tmp_path,
                                                    monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        graph = tiny_file if n == 4 else _write(
            tmp_path, "cycle.txt", "".join(f"{u} {(u + 1) % n}\n" for u in range(n)))
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        out = tmp_path / "out.json"
        code = run(["spectrum", "--graph", graph, "--k", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("bufpart: failure: block Lanczos, Rayleigh-Ritz step (LAPACK eigh")
        assert err.endswith("failed: Eigenvalues did not converge\n")
        assert err.count("\n") == 1
        assert not out.exists()


class TestWorkDoneOnce:
    """Within one command no partition is completed, validated or costed twice."""

    @staticmethod
    def _count(monkeypatch):
        from collections import Counter

        from bufpart import certify, cli, graph, partition
        # Counted by object: different restarts may complete to equal partitions.
        seen = {"complete": Counter(), "validate": Counter(), "cost": Counter()}
        alive = []          # keeps every counted object, so no id is reused

        def counting(kind, original, at):
            # keyed by the object at args[at] and, for completion, the part count
            def wrapper(*args):
                alive.append(args[at])
                seen[kind][(id(args[at]),) + args[2:]] += 1
                return original(*args)
            return wrapper

        wrapped = {
            "complete_partition": counting("complete", partition.complete_partition, 0),
            "validate_partition": counting("validate", graph.validate_partition, 1),
            "_cut_report": counting("cost", graph._cut_report, 1),
        }
        for module in (graph, partition, certify, cli):
            for name, wrapper in wrapped.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        return seen

    def test_partition_verify_certify(self, clique_file, tmp_path, monkeypatch):
        seen = self._count(monkeypatch)
        part = tmp_path / "part.json"
        commands = [
            ["partition", "--graph", clique_file, "--k", "3", "--eps", "0.1",
             "--delta", "0.5", "--seed", "3", "--out", str(part)],
            ["verify", "--graph", clique_file, "--partition", str(part), "--k", "3",
             "--eps", "0.1", "--out", str(tmp_path / "verify.json")],
            ["certify", "--graph", clique_file, "--partition", str(part), "--k", "3",
             "--eps", "0.1", "--delta", "0.5", "--out", str(tmp_path / "cert.json")],
        ]
        for argv in commands:
            for counts in seen.values():
                counts.clear()
            assert run(argv) == 0
            assert seen["validate"] and seen["cost"]
            for kind, counts in seen.items():
                assert max(counts.values(), default=1) == 1, (argv[0], kind, counts)


class TestInternalInvariant:
    # Step 2 and Steps 3-4 stand in for any step whose invariant check fails.
    @pytest.mark.parametrize("check", ["crude_partition", "refine_and_discard"])
    def test_exits_2_with_one_line(self, check, clique_file, tmp_path, monkeypatch, capsys):
        from bufpart import partition as partition_mod

        def broken(*args, **kwargs):
            raise AssertionError("sets do not tile V (vertex 4)")

        monkeypatch.setattr(partition_mod, check, broken)
        out = tmp_path / "out.json"
        code = run(["partition", "--graph", clique_file, "--k", "3", "--eps", "0.1",
                    "--delta", "0.1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "bufpart: failure: internal invariant violated: sets do not tile V (vertex 4)\n"
        assert "Traceback" not in err
        assert not out.exists()


class TestSubprocessDeterminism:
    def test_byte_identical_across_thread_counts(self, tmp_path):
        lines = []
        start = 0
        for size in (5, 5, 5):
            for u in range(size):
                for v in range(u + 1, size):
                    lines.append(f"{start + u} {start + v} 1.0")
            start += size
        graph = tmp_path / "g.txt"
        graph.write_text("\n".join(lines) + "\n")
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"out_{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "bufpart._run", "partition",
                 "--graph", str(graph), "--k", "3", "--eps", "0.1",
                 "--delta", "0.1", "--seed", "42", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
