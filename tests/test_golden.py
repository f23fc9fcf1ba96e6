"""Golden reports: each CLI command's report compared byte for byte with a stored copy.

Criterion 14 makes a report a function of its inputs and seed; these files
pin the bytes across refactors.  The inputs are generated here from fixed
seeds: a 36-vertex planted graph with string ids, a cost column and a weight
file, and a 9-vertex graph for ``brute``.  ``certify`` and ``verify`` read
the ``partition`` report.

A change that is meant to alter a report regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and lists every regeneration, with its reason, in CHANGES.md.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from bufpart.cli import run

GOLDEN = Path(__file__).parent / "golden"


def _write_inputs(where: Path) -> dict:
    """The edge, weight and small-graph files of the golden runs, from fixed seeds."""
    rng = np.random.default_rng(2201)
    block = np.repeat(np.arange(3), 12)
    names = [f"{'xyz'[b]}-{i}é" for i, b in enumerate(block)]
    names = [names[i] for i in rng.permutation(block.size)]
    u, v = np.triu_indices(block.size, 1)
    keep = rng.random(u.size) < np.where(block[u] == block[v], 0.5, 0.04)
    u, v = u[keep], v[keep]
    cost = rng.choice([0.5, 1.0, 2.5], u.size)
    incident = np.bincount(u, cost, block.size) + np.bincount(v, cost, block.size)
    weight = np.ceil(incident * rng.uniform(1.0, 2.0, block.size) * 8) / 8
    edges = where / "graph.edges"
    edges.write_text("".join(f"{names[a]} {names[b]} {c}\n" for a, b, c in zip(u, v, cost)),
                     encoding="utf-8")
    weights = where / "graph.weights"
    weights.write_text("".join(f"{n} {w}\n" for n, w in zip(names, weight)), encoding="utf-8")

    small = where / "small.edges"
    ring = [(i, (i + 1) % 9, 1.0 + (i % 3)) for i in range(9)] + [(0, 4, 0.5), (2, 7, 1.5)]
    small.write_text("".join(f"s{a} s{b} {c}\n" for a, b, c in ring), encoding="utf-8")
    return {"graph": str(edges), "weights": str(weights), "small": str(small),
            "partition": str(where / "partition.json")}


def _commands(files: dict) -> list:
    """(name, argv) of every golden run, in the order they must run."""
    big = ["--graph", files["graph"], "--weights", files["weights"]]
    return [
        ("partition", ["partition", *big, "--k", "3", "--eps", "0.9", "--delta", "0.2",
                       "--seed", "1"]),
        ("certify", ["certify", *big, "--partition", files["partition"], "--k", "3",
                     "--eps", "0.9", "--delta", "0.2"]),
        ("verify", ["verify", *big, "--partition", files["partition"], "--k", "3",
                    "--eps", "0.9"]),
        ("cheeger2", ["cheeger2", *big, "--eps", "0.1"]),
        ("balanced-cut", ["balanced-cut", *big, "--eps", "0.1"]),
        ("kbalanced", ["kbalanced", *big, "--k", "3", "--eps", "0.1"]),
        ("spectrum", ["spectrum", *big, "--k", "4"]),
        ("brute", ["brute", "--graph", files["small"], "--k", "3", "--eps", "0.5"]),
    ]


def _reports(where: Path) -> dict:
    """{name: (exit code, report bytes)} of every golden run."""
    files = _write_inputs(where)
    out = {}
    for name, argv in _commands(files):
        target = files["partition"] if name == "partition" else str(where / f"{name}.json")
        code = run(argv + ["--out", target])
        out[name] = code, Path(target).read_bytes()
    return out


def test_reports_match_golden_bytes(tmp_path):
    reports = _reports(tmp_path)
    for name, (code, data) in reports.items():
        assert code in (0, 2), name
        assert data == (GOLDEN / f"{name}.json").read_bytes(), name


if __name__ == "__main__":      # regenerate the golden files
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for name, (code, data) in _reports(Path(scratch)).items():
            (GOLDEN / f"{name}.json").write_bytes(data)
            print(f"{name}: exit {code}, {len(data)} bytes")
