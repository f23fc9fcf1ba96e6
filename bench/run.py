"""bufpart benchmark: one client driving ``bufpart.cli.run`` in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout holding ``src/bufpart`` next to
this directory).  The workload's inputs are generated from ``--seed``; one
client then runs the workload's command mix in-process, each command starting
only after the previous one returned, for about ``--seconds`` seconds after an
untimed warm-up cycle.  Every report is checked by ``checks.py``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1`` (a separate run with
the wrappers of ``layers.py`` installed).  Lines before it are a readable
summary.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, as bufpart._main.main does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.setdefault("BUFPART_THREADS", "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from inputs import GraphFiles, write_graph  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 11


@dataclass
class Command:
    label: str                      # row name in the summary, e.g. "partition_s eps=0.05"
    argv: list
    out: Path                       # report file the command writes
    check: Callable[[dict, dict], list]   # (report, reports by label) -> failure reasons
    samples: list = field(default_factory=list)      # wall seconds, one per execution
    cpu: list = field(default_factory=list)          # process CPU seconds, one per execution


@dataclass
class Workload:
    commands: list
    quality_name: str
    quality: Callable[[dict], float]      # reports by label -> quality; missing = worst


def _graph_args(g: GraphFiles) -> list:
    args = ["--graph", str(g.edges_path)]
    if g.weights_path is not None:
        args += ["--weights", str(g.weights_path)]
    return args


def partition_dense(work: Path, rng: np.random.Generator, seed: int) -> Workload:
    g = write_graph(work, "planted4", rng, [([250] * 4, 20.5), ([1000], 2.0)])
    ga = _graph_args(g)
    points = [("0.05", "0.2"), ("0.1", "0.5")]
    cmds = []
    for eps, delta in points:
        out = work / f"partition-{eps}-{delta}.json"
        cmds.append(Command(
            f"partition_s eps={eps} delta={delta}",
            ["partition", *ga, "--k", "4", "--eps", eps, "--delta", delta,
             "--seed", str(seed), "--out", str(out)],
            out, lambda doc, _docs: checks.check_partition(doc, g, 4)))
    stored, first = cmds[0].out, cmds[0].label
    cmds.append(Command(
        "certify_s", ["certify", *ga, "--partition", str(stored), "--k", "4", "--eps", "0.05",
                      "--delta", "0.2", "--out", str(work / "certify.json")],
        work / "certify.json", lambda doc, docs: checks.check_certify(doc, docs[first])))
    cmds.append(Command(
        "verify_s", ["verify", *ga, "--partition", str(stored), "--k", "4", "--eps", "0.05",
                     "--out", str(work / "verify.json")],
        work / "verify.json", lambda doc, docs: checks.check_verify(doc, docs[first])))

    def max_phi(docs):
        # A point without a report counts as the trivial cut: with default
        # weights every buffered expansion is at most 1.
        return statistics.fmean(float(docs[c.label]["cut_report"]["max_expansion"])
                                if c.label in docs else 1.0 for c in cmds[:2])
    return Workload(cmds, "partition_max_phi", max_phi)


def cuts_lanczos(work: Path, rng: np.random.Generator, seed: int) -> Workload:
    g = write_graph(work, "planted2x2x2", rng,
                    [([600] * 8, 20.0), ([1200] * 4, 1.0), ([2400] * 2, 0.5), ([4800], 0.25)])
    ga = _graph_args(g)
    cmds = [
        Command("cheeger2_s", ["cheeger2", *ga, "--eps", "0.1", "--out", str(work / "c2.json")],
                work / "c2.json", lambda doc, _docs: checks.check_cheeger2(doc, g, 0.1)),
        Command("balanced_cut_s",
                ["balanced-cut", *ga, "--eps", "0.1", "--out", str(work / "bc.json")],
                work / "bc.json", lambda doc, _docs: checks.check_balanced_cut(doc, g, 0.1)),
        Command("kbalanced_s",
                ["kbalanced", *ga, "--k", "8", "--eps", "0.1", "--out", str(work / "kb.json")],
                work / "kb.json", lambda doc, _docs: checks.check_kbalanced(doc, g, 8, 0.1)),
    ]
    total_cost = float(g.edge_cost.sum())

    def crossing_frac(docs):
        if "kbalanced_s" not in docs:
            return 1.0                  # worst case: every edge crosses
        return float(docs["kbalanced_s"]["crossing_cost"]) / total_cost
    return Workload(cmds, "kbalanced_crossing_frac", crossing_frac)


def ingest_spectrum(work: Path, rng: np.random.Generator, seed: int) -> Workload:
    g = write_graph(work, "weighted8", rng, [([1250] * 8, 17.0), ([10000], 1.5)],
                    string_ids=True, costs=True, weight_file=True)
    out = work / "spectrum.json"
    cmds = [Command("spectrum_s", ["spectrum", *_graph_args(g), "--k", "8", "--out", str(out)],
                    out, lambda doc, _docs: checks.check_spectrum(doc, g, 8))]

    def eigsum(docs):
        if "spectrum_s" not in docs:
            return 2.0 * 8              # worst case: every eigenvalue at its bound of 2
        return float(sum(docs["spectrum_s"]["eigenvalues"]))
    return Workload(cmds, "spectrum_eigsum", eigsum)


WORKLOADS = {
    "partition-dense": partition_dense,
    "cuts-lanczos": cuts_lanczos,
    "ingest-spectrum": ingest_spectrum,
}


def measure_setup(work: Path) -> tuple[list, list]:
    """Cold ``python -m bufpart._run spectrum`` on a triangle, SETUP_PROBES times."""
    tiny = work / "triangle.edges"
    tiny.write_text("a b\nb c\na c\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "bufpart._run", "spectrum", "--graph", str(tiny), "--k", "2"]
    times, failures = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            failures.append(f"setup probe exited {proc.returncode}: "
                            f"{proc.stderr.decode(errors='replace').strip()[-200:]}")
    return times, failures


def tail_percentile(samples: list) -> tuple:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100.0 >= 10:
            return p, float(np.percentile(samples, p))
    return None, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bufpart" / "cli.py").is_file():
        print(f"bench: no bufpart source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bufpart import cli

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=ROOT / ".bench_work"))
    try:
        return run_workload(args, work, cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(args, work: Path, cli) -> int:
    setup_times, failures = measure_setup(work)
    attempted = len(setup_times)
    failed = len(failures)

    start = time.perf_counter()
    wl = WORKLOADS[args.workload](work, np.random.default_rng(args.seed), args.seed)
    gen_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        layers.install(tracer)

    first_doc: dict = {}        # label -> parsed report of the first run
    first_hash: dict = {}       # label -> sha256 of that report
    outcomes: list = []         # (label, exit code or exception text, report hash)

    def run_cycle() -> float:
        cycle_start = time.perf_counter()
        for cmd in wl.commands:
            if tracer is not None:
                tracer.command = len(outcomes)
            cmd.out.unlink(missing_ok=True)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = cli.run(cmd.argv)
            except Exception as exc:   # a crash is a failed command, not a crashed benchmark
                code = f"raised {type(exc).__name__}: {exc}"
            cmd.samples.append(time.perf_counter() - t0)
            cmd.cpu.append(time.process_time() - c0)
            data = cmd.out.read_bytes() if cmd.out.is_file() else None
            digest = None
            if code != 0 and data is not None:   # exit 2 still writes a report naming the error
                code = f"exit code {code}: {json.loads(data).get('error', 'see the report')}"
            elif code == 0 and data is not None:
                digest = hashlib.sha256(data).hexdigest()
                if cmd.label not in first_doc:
                    first_doc[cmd.label] = json.loads(data)
                    first_hash[cmd.label] = digest
            outcomes.append((cmd.label, code, digest))
        return time.perf_counter() - cycle_start

    # Warm-up: one untimed cycle on the real inputs (first calls pay for lazy
    # imports and fresh memory); its reports are the reference for the checks.
    warm_s = run_cycle()
    for cmd in wl.commands:
        cmd.samples.clear()
        cmd.cpu.clear()

    cycles: list = []
    layer_cycles: list = []
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer is not None:
            tracer.reset()
        cycles.append(run_cycle())
        if tracer is not None:
            layer_cycles.append(tracer.cycle_metrics())
        # Start another cycle only if it should end within half a cycle of the deadline.
        if time.perf_counter() + 0.5 * statistics.median(cycles) >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Check each command's first report; a repeat passes only with the same bytes.
    reasons = {}
    for cmd in wl.commands:
        if cmd.label in first_doc:
            try:
                reasons[cmd.label] = cmd.check(first_doc[cmd.label], first_doc)
            except Exception as exc:   # a malformed report fails its command, not the run
                reasons[cmd.label] = [f"report malformed: {type(exc).__name__}: {exc}"]
    failure_lines = list(failures)
    for i, (label, code, digest) in enumerate(outcomes):
        attempted += 1
        if code != 0:
            why = code if isinstance(code, str) else f"exit code {code}"
        elif digest is None:
            why = "no report written"
        elif digest != first_hash[label]:
            why = "report differs from the first run of the same command"
        elif reasons.get(label):
            why = "; ".join(reasons[label])
        else:
            continue
        failed += 1
        failure_lines.append(f"command {i} {label}: {why}")

    quality = wl.quality(first_doc)
    setup_s = statistics.median(setup_times)
    cycle_s = statistics.median(cycles)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(cycles)} measured cycles, one client, closed loop")
    print(f"  input generation {gen_s:.3f} s (not in setup_s); warm-up cycle {warm_s:.3f} s")
    print(f"  {'metric (seconds)':<34}{'median':>11}{'tail':>16}{'n':>6}{'cpu median':>12}")
    rows = [("setup_s", setup_times, None)] + \
        [(c.label, c.samples, c.cpu) for c in wl.commands] + [("cycle_s", cycles, None)]
    for label, samples, cpu in rows:
        p, value = tail_percentile(samples)
        tail = f"p{p} {value:.4f}" if p else "-"
        cpu_text = f"{statistics.median(cpu):>12.4f}" if cpu else ""
        print(f"  {label:<34}{statistics.median(samples):>11.4f}{tail:>16}{len(samples):>6}"
              f"{cpu_text}")
    print(f"  peak_rss_mb {peak_rss_mb:.1f} MB   fail_rate {failed}/{attempted} = "
          f"{failed / attempted:.4f}")
    print(f"  quality = {wl.quality_name} {quality!r} (ratio)")
    if "cheeger2_s" in first_doc:
        d = first_doc["cheeger2_s"]
        print(f"  cheeger2_guarantee_ratio {float(d['phi']) / float(d['guarantee'])!r} (ratio)")
    for line in failure_lines:
        print(f"  FAILED {line}")

    if tracer is None:
        metrics = {
            "cycle_s": {"value": cycle_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "quality": {"value": quality, "unit": "ratio"},
        }
    else:
        metrics = {}
        for name in layer_cycles[0]:
            value = statistics.median(c[name] for c in layer_cycles)
            metrics[name] = {"value": value, "unit": _layer_unit(name)}
        # The traced run's own end-to-end values, for the tracing overhead.
        metrics["traced.cycle_s"] = {"value": cycle_s, "unit": "s"}
        metrics["traced.peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        print("  per-layer metrics (median over measured cycles, per cycle):")
        for name, m in metrics.items():
            print(f"    {name:<34}{m['value']:>16.6g} {m['unit']}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.json"
        keys = ("id", "parent", "name", "command", "start", "end")
        spans_path.write_text(json.dumps([dict(zip(keys, s)) for s in tracer.spans]),
                              encoding="utf-8")
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("residual"):
        return "norm"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
