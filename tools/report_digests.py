"""sha256 of every report the benchmark workloads write, one line per report.

    python3 tools/report_digests.py --seeds 401-410 > digests.txt

Run from a checkout holding ``src/bufpart`` and ``bench/``.  For each seed and
each workload of ``bench/run.py``, the workload's inputs are generated as the
benchmark generates them, and each of its commands runs once, in order,
through ``bufpart.cli.run``.  Each report prints as one line,
``workload seed command sha256 labels``, so two checkouts give the same reports
exactly when ``diff`` finds their outputs equal.  ``labels`` is the sha256 of the
report's ``assignment`` or ``witness`` object (``-`` when it has neither), so a
change that moves only the last bits of floats can show that no vertex changed
part or role.  A command that writes no report prints ``missing`` in place of
both digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run as bench  # noqa: E402  (bench/run.py pins BLAS to one thread before numpy loads)

import numpy as np  # noqa: E402

from bufpart import cli  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def digests(report: Path) -> tuple[str, str]:
    """(sha256 of the report, sha256 of its assignment or witness object, or "-")."""
    if not report.is_file():
        return "missing", "missing"
    data = report.read_bytes()
    body = json.loads(data)
    labels = body.get("assignment", body.get("witness"))
    return (hashlib.sha256(data).hexdigest(), "-" if labels is None else
            hashlib.sha256(json.dumps(labels, sort_keys=True).encode()).hexdigest())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("401-410"),
                        help="a seed or an inclusive range A-B (default 401-410)")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for name in bench.WORKLOADS:
            with tempfile.TemporaryDirectory(prefix=f"{name}-{seed}-") as tmp:
                workload = bench.WORKLOADS[name](Path(tmp), np.random.default_rng(seed), seed)
                for cmd in workload.commands:
                    cli.run(cmd.argv)
                    print(name, seed, cmd.label.replace(" ", ","), *digests(cmd.out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
