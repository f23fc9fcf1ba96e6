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
code = cli.run(["partition", "--graph", sys.argv[3], "--k", "4", "--eps", "0.05",
                "--delta", "0.2", "--seed", "1", "--out", sys.argv[4]])
print(json.dumps({"code": code, "metrics": tracer.cycle_metrics()}))
"""


def test_tracer_installs_and_counts_a_partition_run(tmp_path):
    g, _ = planted([25, 25, 25, 25], 0.5, 0.02, seed=5016)
    graph = tmp_path / "g.txt"
    graph.write_text("".join(f"{u} {v} {c!r}\n" for u, v, c in
                             zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_cost.tolist())))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src"), str(graph),
         str(tmp_path / "out.json")], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["metrics"]["partition.crude_calls"] >= 1
    assert result["metrics"]["partition.refine_calls"] >= 1
    assert result["metrics"]["partition.partial_s"] > 0
    assert result["metrics"]["partition.complete_s"] > 0
    # Every round the crude partition's rounds view lists set Ptilde or Btilde.
    assert result["metrics"]["partition.active_round_ratio"] == 1.0
    assert result["metrics"]["partition.accept_ratio"] > 0
