"""Per-layer tracing of bufpart from outside the package.

``install(tracer)`` wraps the public functions of each bufpart module and
replaces every module attribute that refers to the original, so a name bound
with ``from .spectral import eigenbasis`` in ``cli``, ``balanced``,
``partition`` or ``certify`` is traced as well as the defining module's own.
Methods (``Graph.build``, ``Graph.subgraph``, ``LaplacianOperator.matvec``,
``RandomStream.normals``) are replaced on their class.

Two kinds of wrapper:

* span: one record per call (name, start, end, parent span, command index),
  kept in memory.  A span's self time is its duration minus the durations of
  its direct child spans.
* counter: count plus total time only, for the calls made tens of thousands
  of times per command (separator draws, normals, matvecs).

The wrappers stay installed for the life of the process, so a traced run is
its own process.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans and counters of one traced run, plus per-cycle aggregation."""

    def __init__(self):
        self.spans: list[tuple] = []     # (id, parent id, name, command, start, end)
        self.command = -1
        self._stack: list[list] = []     # open spans: [id, name, start, child time]
        self.reset()

    def reset(self) -> None:
        """Start a new aggregation window (one cycle of the workload)."""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.values = defaultdict(float)
        self.max_residual = 0.0

    def span(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            entry = [len(self.spans), name, time.perf_counter(), 0.0]
            self.spans.append(None)      # reserve the id; filled on exit
            self._stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span_id, _, start, child = entry
                duration = end - start
                self.spans[span_id] = (span_id, parent, name, self.command, start, end)
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - child
                if self._stack:
                    self._stack[-1][3] += duration
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def counter(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.total[name] += time.perf_counter() - start
            self.calls[name] += 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def cycle_metrics(self) -> dict:
        """Per-layer metrics of the current window, named as in BENCHMARK.json."""
        c, t = self.calls, self.total
        draws = c["separators.draw"]
        crude = c["partition.crude"]
        rounds = self.values["partition.rounds"]
        return {
            "graph.load_s": t["graph.load"],
            "graph.build_calls": c["graph.build"],
            "graph.build_s": t["graph.build"],
            "graph.subgraph_calls": c["graph.subgraph"],
            "graph.subgraph_s": t["graph.subgraph"],
            "spectral.eigenbasis_calls": c["spectral.eigenbasis"],
            "spectral.dense_calls": self.values["spectral.dense"],
            "spectral.lanczos_calls": self.values["spectral.lanczos"],
            "spectral.eigenbasis_s": t["spectral.eigenbasis"],
            "spectral.matvecs": c["spectral.matvec"],
            "spectral.matvec_s": t["spectral.matvec"],
            "spectral.max_residual": self.max_residual,
            "separators.draws": draws,
            "separators.draw_s": t["separators.draw"],
            "separators.reject_ratio": self.values["separators.rejected"] / draws if draws else 0.0,
            "rng.normals_calls": c["rng.normals"],
            "rng.normals_values": self.values["rng.normals_values"],
            "partition.partial_s": t["partition.partial"],
            "partition.crude_calls": crude,
            "partition.crude_s": t["partition.crude"],
            "partition.refine_calls": c["partition.refine"],
            "partition.refine_s": t["partition.refine"],
            "partition.complete_s": t["partition.complete"],
            "partition.accept_ratio": c["partition.refine"] / crude if crude else 0.0,
            "partition.active_round_ratio": (self.values["partition.active_rounds"] / rounds
                                             if rounds else 0.0),
            "balanced.cheeger2_calls": c["balanced.cheeger2"],
            "balanced.cheeger2_s": t["balanced.cheeger2"],
            "balanced.cheeger2_self_s": self.self_time["balanced.cheeger2"],
            "balanced.sweep_thresholds": self.values["balanced.sweep_thresholds"],
            "balanced.balanced_cut_s": t["balanced.balanced_cut"],
            "balanced.balanced_cut_levels": self.values["balanced.levels"],
            "balanced.kway_s": t["balanced.kway"],
            "certify.certify_run_s": t["certify.certify_run"],
            "certify.lower_bound_calls": c["certify.lower_bound"],
            "certify.lower_bound_s": t["certify.lower_bound"],
            "cli.self_s": self.self_time["cli.run"],
            "reports.render_s": t["reports.render"],
            "reports.bytes": self.values["reports.bytes"],
        }


# Called tens of thousands of times per command: count and total time, no spans.
COUNTERS = {"separators.draw", "spectral.matvec", "rng.normals"}


def _wrap(tracer: Tracer, name: str, fn, observe):
    return (tracer.counter if name in COUNTERS else tracer.span)(name, fn, observe)


def _on_eigenbasis(tr, args, kwargs, basis):
    tr.values["spectral." + basis.method] += 1
    if basis.residuals.size:
        tr.max_residual = max(tr.max_residual, float(basis.residuals.max()))


def _on_draw(tr, args, kwargs, sample):
    tr.values["separators.rejected"] += bool(sample.rejected)


def _on_normals(tr, args, kwargs, values):
    tr.values["rng.normals_values"] += len(values)


def _on_crude(tr, args, kwargs, crude):
    tr.values["partition.rounds"] += len(crude.rounds)
    tr.values["partition.active_rounds"] += sum(
        1 for r in crude.rounds if r.p_tilde.size or r.b_tilde.size)


def _on_cheeger2(tr, args, kwargs, cut):
    # The candidate set the sweep enumerates: every u^2 and (1+eps) u^2.
    eps = kwargs["epsilon"] if "epsilon" in kwargs else args[1]
    usq = cut.side_vector * cut.side_vector
    tr.values["balanced.sweep_thresholds"] += np.unique(
        np.concatenate([usq, (1.0 + eps) * usq])).size


def _on_balanced_cut(tr, args, kwargs, res):
    tr.values["balanced.levels"] += len(res.per_level_lambda2)


def _on_render(tr, args, kwargs, text):
    tr.values["reports.bytes"] += len(text.encode("utf-8"))


def _replace_everywhere(original, wrapped) -> int:
    """Point every bufpart module attribute bound to ``original`` at ``wrapped``."""
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "bufpart" or mod_name.startswith("bufpart.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
                replaced += 1
    return replaced


def install(tracer: Tracer) -> None:
    """Wrap every traced bufpart function and method for the rest of the process."""
    import bufpart.cli  # noqa: F401  (imports every module that binds a traced name)
    from bufpart import (balanced, certify, cli, graph, partition, reports, separators,
                         spectral)
    from bufpart.graph import Graph
    from bufpart.rng import RandomStream
    from bufpart.spectral import LaplacianOperator

    # The validate, partition_cost, laplacian and driver spans have no metric of
    # their own; as children of cli.run they keep cli.self_s to argparse, the
    # assignment dict and reading the partition file.
    functions = [
        (cli, "run", "cli.run", None),
        (graph, "load_graph", "graph.load", None),
        (graph, "validate_partition", "graph.validate", None),
        (graph, "partition_cost", "graph.partition_cost", None),
        (spectral, "normalized_laplacian", "spectral.laplacian", None),
        (spectral, "eigenbasis", "spectral.eigenbasis", _on_eigenbasis),
        (separators, "sample_two_buffers", "separators.draw", _on_draw),
        (partition, "buffered_k_partition", "partition.driver", None),
        (partition, "partial_partition", "partition.partial", None),
        (partition, "crude_partition", "partition.crude", _on_crude),
        (partition, "refine_and_discard", "partition.refine", None),
        (partition, "complete_partition", "partition.complete", None),
        (balanced, "cheeger2_buffered", "balanced.cheeger2", _on_cheeger2),
        (balanced, "buffered_balanced_cut", "balanced.balanced_cut", _on_balanced_cut),
        (balanced, "kway_balanced", "balanced.kway", None),
        (certify, "certify_run", "certify.certify_run", None),
        (certify, "check_buffered_lower_bound", "certify.lower_bound", None),
        (reports, "write_report", "reports.render", _on_render),
    ]
    for module, attr, name, observe in functions:
        original = getattr(module, attr)
        if _replace_everywhere(original, _wrap(tracer, name, original, observe)) == 0:
            raise RuntimeError(f"could not install the {name} wrapper")

    # Methods are looked up on the class at call time, so one replacement suffices.
    methods = [
        (Graph, "build", "graph.build", None),
        (Graph, "subgraph", "graph.subgraph", None),
        (LaplacianOperator, "matvec", "spectral.matvec", None),
        (RandomStream, "normals", "rng.normals", _on_normals),
    ]
    for cls, attr, name, observe in methods:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_wrap(tracer, name, raw.__func__, observe)))
        else:
            setattr(cls, attr, _wrap(tracer, name, raw, observe))
