"""Self-test of the benchmark's tracing: which layers each workload exercises.

    python3 bench/selftest.py [--seed N] [--seconds S]

For every workload it makes two traced runs and one untraced run (each its
own process, as the benchmark's wrappers stay installed for a process's
life) and checks that

* every metric named in BENCHMARK.json is reported, and every end-to-end
  value is positive;
* every layer count predicted to be non-zero on a workload is non-zero;
* every count predicted to be zero is zero (a wrapper installed in the wrong
  module would read zero everywhere, a workload leaking into another layer
  would read non-zero here);
* the deterministic per-cycle counts repeat exactly between the two traced
  runs.

It also prints the tracing overhead per workload: the traced run's
``cycle_s`` and ``peak_rss_mb`` minus the untraced run's.  These are single
runs of one measured cycle each, so the time difference is within the box's
run-to-run noise unless tracing costs more than that.  Exit code 0 when every
check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

NONZERO = {
    "partition-dense": [
        "graph.build_calls", "spectral.eigenbasis_calls", "spectral.dense_calls",
        "spectral.matvecs", "separators.draws", "rng.normals_calls", "rng.normals_values",
        "partition.crude_calls", "partition.refine_calls", "certify.lower_bound_calls",
        "reports.bytes"],
    "cuts-lanczos": [
        "graph.build_calls", "graph.subgraph_calls", "spectral.eigenbasis_calls",
        "spectral.dense_calls", "spectral.lanczos_calls", "spectral.matvecs",
        "rng.normals_calls", "balanced.cheeger2_calls", "balanced.balanced_cut_levels",
        "balanced.sweep_thresholds", "reports.bytes"],
    "ingest-spectrum": [
        "graph.build_calls", "spectral.eigenbasis_calls", "spectral.lanczos_calls",
        "spectral.matvecs", "rng.normals_calls", "reports.bytes"],
}
ZERO = {
    "partition-dense": ["balanced.cheeger2_calls"],
    "cuts-lanczos": ["separators.draws"],
    "ingest-spectrum": ["separators.draws", "balanced.cheeger2_calls"],
}
REPEAT_EXACTLY = [
    "separators.draws", "rng.normals_calls", "rng.normals_values", "spectral.matvecs",
    "spectral.eigenbasis_calls", "graph.subgraph_calls", "graph.build_calls",
    "balanced.cheeger2_calls", "partition.crude_calls", "partition.refine_calls",
]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()} | {
        "_correct": result["correct"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = [m["name"] for m in spec["per_layer"]]
    e2e_names = [m["name"] for m in spec["end_to_end"]]

    problems = []
    for workload in NONZERO:
        plain = run(workload, args.seed, args.seconds, 0)
        first = run(workload, args.seed, args.seconds, 1)
        second = run(workload, args.seed, args.seconds, 1)
        for result, names in ((plain, e2e_names), (first, layer_names)):
            missing = [n for n in names if n not in result]
            if missing:
                problems.append(f"{workload}: metrics not reported: {missing}")
        problems += [f"{workload}: end-to-end metric {n} is {plain.get(n)}, must be positive"
                     for n in e2e_names if not plain.get(n, 0) > 0]
        if not (plain["_correct"] and first["_correct"] and second["_correct"]):
            problems.append(f"{workload}: a run reported failed commands")
        problems += [f"{workload}: {n} is 0, predicted non-zero"
                     for n in NONZERO[workload] if not first.get(n)]
        problems += [f"{workload}: {n} is {first.get(n)}, predicted 0"
                     for n in ZERO[workload] if first.get(n) != 0]
        problems += [f"{workload}: {n} differs between runs: {first.get(n)} vs {second.get(n)}"
                     for n in REPEAT_EXACTLY if first.get(n) != second.get(n)]
        for name in ("cycle_s", "peak_rss_mb"):
            overhead = first["traced." + name] - plain[name]
            print(f"{workload}: {name} {plain[name]:.4f} untraced, "
                  f"{first['traced.' + name]:.4f} traced; tracing overhead {overhead:+.4f} "
                  f"({overhead / plain[name]:+.1%})")
        print("  counts: " + ", ".join(f"{n}={first[n]:g}" for n in REPEAT_EXACTLY))
    for line in problems:
        print(f"FAIL {line}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
