"""Spans and counts for the traced replica, and the per-layer metrics
computed from them.  Standard library only.

A span records (name, start, end, parent, run, extra).  ``run`` is the
index of the trial the span belongs to (-1 outside any trial), so the
spans of one trial share it.  ``extra`` marks calls the replica makes
only to split one layer's time from another's; they are left out of the
tracing overhead.  A layer's self time is its spans' durations minus the
parts covered by their child spans.
"""

from __future__ import annotations

import json
import time

# (metric, unit), in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("generators.gen_s", "s"),
    ("generators.circuits", "count"),
    ("generators.gates", "count"),
    ("generators.layers", "count"),
    ("generators.us_per_layer", "us"),
    ("generators.profile_s", "s"),
    ("analysis.predict_s", "s"),
    ("rng.stream_s", "s"),
    ("rng.streams", "count"),
    ("circuit.load_s", "s"),
    ("circuit.file_bytes", "bytes"),
    ("copysim.sim_s", "s"),
    ("copysim.gate_copy_apps", "count"),
    ("copysim.gate_copy_apps_per_s", "1/s"),
    ("copysim.words", "count"),
    ("copysim.record_s", "s"),
    ("copysim.probes", "count"),
    ("copysim.sample_s", "s"),
    ("copysim.copies_sampled", "count"),
    ("drivers.sign_kernel_s", "s"),
    ("f2linalg.fullrank_s", "s"),
    ("f2linalg.full_rank_hits", "count"),
    ("f2linalg.full_rank_attempts", "count"),
    ("f2linalg.rank_s", "s"),
    ("f2linalg.rank_calls", "count"),
    ("f2linalg.rank_cells", "count"),
    ("stats.marginal_s", "s"),
    ("stats.xor_s", "s"),
    ("stats.sign_s", "s"),
    ("stats.cells", "count"),
    ("subsetstate.evolve_s", "s"),
    ("subsetstate.oracle_s", "s"),
    ("subsetstate.haar_s", "s"),
    ("subsetstate.accumulate_s", "s"),
    ("subsetstate.accumulate_gflop", "GFLOP"),
    ("subsetstate.eig_s", "s"),
    ("subsetstate.moment_dim", "count"),
    ("cli.report_write_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
]

ROOT = "replica"


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.record[1] = time.perf_counter()

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """In-memory span and count recorder, written out once at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.run = -1
        self._stack: list[int] = []

    def span(self, name: str, extra: bool = False) -> _Span:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.run, extra]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return _Span(self, record)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def set(self, name: str, value: float) -> None:
        self.counts[name] = value

    def dump(self, path: str, **meta) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **meta}, fh)


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: total self time, and total duration of extra spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run, _extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own: dict[str, float] = {}
    extra: dict[str, float] = {}
    for i, (name, start, end, _parent, _run, is_extra) in enumerate(spans):
        own[name] = own.get(name, 0.0) + (end - start) - child_time[i]
        if is_extra:
            extra[name] = extra.get(name, 0.0) + (end - start)
    return own, extra


def layer_metrics(trace: dict, untraced_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from one replica trace.

    ``untraced_s`` is the command time after imports of the untraced run
    at the same seed; the overhead is the replica's time, less its extra
    spans, over it.  Layers the workload never calls read 0.
    """
    own, extra = self_times(trace["spans"])
    counts = trace["counts"]

    def s(name: str) -> float:
        return own.get(name, 0.0)

    def c(name: str) -> float:
        return counts.get(name, 0)

    shipped_sim = s("copysim.record") + s("copysim.sim") - extra.get("copysim.sim", 0.0)
    root = next(end - start for name, start, end, *_ in trace["spans"] if name == ROOT)
    out = {
        "generators.gen_s": s("generators.gen"),
        "generators.circuits": c("generators.circuits"),
        "generators.gates": c("generators.gates"),
        "generators.layers": c("generators.layers"),
        "generators.us_per_layer": (
            1e6 * s("generators.gen") / c("generators.layers") if c("generators.layers") else 0.0
        ),
        "generators.profile_s": s("generators.profile"),
        "analysis.predict_s": s("analysis.predict"),
        "rng.stream_s": s("rng.stream"),
        "rng.streams": c("rng.streams"),
        "circuit.load_s": s("circuit.load"),
        "circuit.file_bytes": c("circuit.file_bytes"),
        "copysim.sim_s": s("copysim.sim"),
        "copysim.gate_copy_apps": c("copysim.gate_copy_apps"),
        "copysim.gate_copy_apps_per_s": (
            c("copysim.gate_copy_apps") / shipped_sim if shipped_sim > 0 else 0.0
        ),
        "copysim.words": c("copysim.words"),
        "copysim.record_s": (
            s("copysim.record") - extra.get("copysim.sim", 0.0)
            if "copysim.record" in own else 0.0
        ),
        "copysim.probes": c("copysim.probes"),
        "copysim.sample_s": s("copysim.sample"),
        "copysim.copies_sampled": c("copysim.copies_sampled"),
        "drivers.sign_kernel_s": (
            s("drivers.sign_trials")
            - extra.get("rng.stream", 0.0) - extra.get("copysim.sample", 0.0)
            if "drivers.sign_trials" in own else 0.0
        ),
        "f2linalg.fullrank_s": s("f2linalg.fullrank"),
        "f2linalg.full_rank_hits": c("f2linalg.full_rank_hits"),
        "f2linalg.full_rank_attempts": c("f2linalg.full_rank_attempts"),
        "f2linalg.rank_s": s("f2linalg.rank"),
        "f2linalg.rank_calls": c("f2linalg.rank_calls"),
        "f2linalg.rank_cells": c("f2linalg.rank_cells"),
        "stats.marginal_s": s("stats.marginal"),
        "stats.xor_s": s("stats.xor"),
        "stats.sign_s": s("stats.sign"),
        "stats.cells": c("stats.cells"),
        "subsetstate.evolve_s": s("subsetstate.evolve"),
        "subsetstate.oracle_s": s("subsetstate.oracle"),
        "subsetstate.haar_s": s("subsetstate.haar"),
        "subsetstate.accumulate_s": s("subsetstate.accumulate"),
        "subsetstate.accumulate_gflop": c("subsetstate.accumulate_gflop"),
        "subsetstate.eig_s": s("subsetstate.eig"),
        "subsetstate.moment_dim": c("subsetstate.moment_dim"),
        "cli.report_write_s": s("cli.report_write"),
        "cli.report_bytes": c("cli.report_bytes"),
        "trace.overhead_frac": (root - sum(extra.values()) - untraced_s) / untraced_s,
    }
    if list(out) != [name for name, _ in PER_LAYER]:
        raise RuntimeError("layer metrics out of step with PER_LAYER")
    return out
