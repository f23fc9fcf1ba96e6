"""CLI subcommands: exit codes, schemas, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from bufpart.cli import run


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

    def test_lanczos_method(self, tiny_file, tmp_path):
        code, doc = run_json(["spectrum", "--graph", tiny_file, "--k", "2",
                              "--method", "lanczos"], tmp_path)
        assert code == 0
        assert doc["params"]["method"] == "lanczos"
        code2, dense = run_json(["spectrum", "--graph", tiny_file, "--k", "2",
                                 "--method", "dense"], tmp_path, "dense.json")
        for a, b in zip(doc["eigenvalues"], dense["eigenvalues"]):
            assert a == pytest.approx(b, abs=1e-8)


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

    def test_unknown_command_exits_1(self):
        assert run(["transmogrify"]) == 1

    def test_constants_file(self, clique_file, tmp_path):
        consts = tmp_path / "c.json"
        consts.write_text('{"max_restarts": 2, "step4_mode": "keep_best"}')
        code, doc = run_json(
            ["partition", "--graph", clique_file, "--k", "3", "--eps", "0.1",
             "--delta", "0.1", "--seed", "1", "--constants-file", str(consts)],
            tmp_path)
        assert code == 0
        assert doc["diagnostics"]["partial_diagnostics"]["step4_mode"] == "keep_best"


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

    def test_kbalanced(self, clique_file, tmp_path):
        code, doc = run_json(
            ["kbalanced", "--graph", clique_file, "--k", "3", "--eps", "0.1"],
            tmp_path)
        assert code == 0
        assert doc["max_part_weight"] <= doc["weight_limit"] + 1e-9

    def test_eps_bound(self, clique_file):
        assert run(["cheeger2", "--graph", clique_file, "--eps", "0.3"]) == 1


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

    def test_brute(self, tiny_file, tmp_path):
        code, doc = run_json(
            ["brute", "--graph", tiny_file, "--k", "2", "--eps", "0.25"],
            tmp_path)
        assert code == 0
        assert doc["optimum"] >= 0.0
        assert len(doc["witness"]) == 4


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


class TestOverflowingCosts:
    @pytest.mark.parametrize("argv", [
        ["partition", "--k", "2", "--eps", "0.1", "--delta", "0.5"],
        ["cheeger2", "--eps", "0.1"],
        ["spectrum", "--k", "2"],
    ])
    def test_one_line_exit_1_without_warnings(self, argv, tmp_path, capsys):
        graph = tmp_path / "big.txt"
        graph.write_text("0 1 1e308\n1 2 1e308\n2 0 1e308\n2 3 1\n")
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv + ["--graph", str(graph), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("bufpart: error: ") and "overflows" in err
        assert err.count("\n") == 1
        assert not out.exists()

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


class TestInternalInvariant:
    @pytest.mark.parametrize("check", ["_assert_crude_structure", "_assert_partial_structure"])
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
            env = dict(os.environ, BUFPART_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "bufpart._run", "partition",
                 "--graph", str(graph), "--k", "3", "--eps", "0.1",
                 "--delta", "0.1", "--seed", "42", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
