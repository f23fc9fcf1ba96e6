"""The benchmark's per-layer tracer (bench/layers.py) still installs and counts.

install() raises when a function it wraps by name is gone, and its wrappers
stay for the life of the process, so it runs in a subprocess of its own.
"""

import json
import subprocess
import sys
from pathlib import Path

from conftest import planted

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers
from bufpart import cli
tracer = layers.Tracer()
layers.install(tracer)
ga, work = ["--graph", sys.argv[3]], sys.argv[4]
stored = work + "/partition.json"
commands = [
    ["partition", *ga, "--k", "4", "--eps", "0.05", "--delta", "0.2", "--seed", "1"],
    ["cheeger2", *ga, "--eps", "0.1"],
    ["balanced-cut", *ga, "--eps", "0.1"],
    ["kbalanced", *ga, "--k", "4", "--eps", "0.1"],
    ["spectrum", *ga, "--k", "4"],
    ["certify", *ga, "--partition", stored, "--k", "4", "--eps", "0.05", "--delta", "0.2"],
    ["verify", *ga, "--partition", stored, "--k", "4", "--eps", "0.05"],
]
codes = {argv[0]: cli.run([*argv, "--out", work + "/" + argv[0] + ".json"])
         for argv in commands}
print(json.dumps({"codes": codes, "metrics": tracer.cycle_metrics()}))
"""


def test_tracer_installs_and_counts_a_partition_run(tmp_path):
    """Every benchmark command runs under the tracer, which reads library
    attributes for its metrics; a missing one fails the command."""
    g, _ = planted([25, 25, 25, 25], 0.5, 0.02, seed=5016)
    graph = tmp_path / "g.txt"
    graph.write_text("".join(f"{u} {v} {c!r}\n" for u, v, c in
                             zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_cost.tolist())))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src"), str(graph),
         str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {name: 0 for name in ("partition", "cheeger2", "balanced-cut",
                                                      "kbalanced", "spectrum", "certify",
                                                      "verify")}
    metrics = result["metrics"]
    assert metrics["partition.crude_calls"] >= 1
    assert metrics["partition.refine_calls"] >= 1
    assert metrics["partition.partial_s"] > 0
    assert metrics["partition.complete_s"] > 0
    # Every round the crude partition's rounds view lists set Ptilde or Btilde.
    assert metrics["partition.active_round_ratio"] == 1.0
    assert metrics["partition.accept_ratio"] > 0
    # The metrics computed from library attributes: basis.method, side_vector,
    # per_level_lambda2, and the lower-bound check that certify_run calls.
    for name in ("spectral.lanczos_calls", "balanced.sweep_thresholds",
                 "balanced.balanced_cut_levels", "certify.lower_bound_calls"):
        assert metrics[name] > 0, name
