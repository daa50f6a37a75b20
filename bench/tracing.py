"""Spans and counts recorded around the program's public functions.

The traced run replaces each function at the site the pipeline looks it up
(a module attribute), records one span per call with its parent span and
the counts read from the call's arguments and result, and puts the
originals back afterwards.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from polywave import detect, scenario, traceio


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), self._open[-1].id if self._open else None, name, 0.0)
        self.spans.append(s)
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(args, result))
            return result

        return traced


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children.

    Spans come from one thread, so a span's children never overlap and
    their durations add up to the part of the parent they cover.
    """
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


# ---------------------------------------------------------------------------
# the pipeline's import sites


def _count_synthesize(args, trace):
    # each segment of the generated rods is its own medium and holds at least
    # one sample, so every crossing shows as one change of medium id
    ids = np.asarray(trace.medium_ids)
    return {"crossings": int(np.count_nonzero(ids[1:] != ids[:-1]))}


def _count_file_bytes(args, _):
    return {"bytes": os.path.getsize(args[0])}


def _count_report(args, _):
    report = args[1]
    return {"rows": len(report.interface_hits) + len(report.vertex_hits)}


def _count_interfaces(args, hits):
    trace, candidates = args[0], args[1]
    return {"hits": len(hits), "sample_candidates": (trace.n_samples - 1) * len(candidates)}


def _count_coupled_mode(args, verdict):
    return {"evaluations": verdict.params.get("evaluations", 0),
            "accepts": int(verdict.is_vertex), "rejects": int(not verdict.is_vertex)}


SITES = (
    (scenario, "load_scenario", "scenario.load", None),
    (scenario, "build_complex", "geometry.build_complex", None),
    (scenario, "synthesize_ray_trace", "detect.synthesize", _count_synthesize),
    (detect, "classify_facets", "geometry.classify_facets", None),
    (traceio, "write_traces", "traceio.write_traces", _count_file_bytes),
    (traceio, "read_traces", "traceio.read_traces", _count_file_bytes),
    (traceio, "write_report", "traceio.write_report", _count_report),
    (scenario, "detect_interfaces_em", "detect.interfaces", _count_interfaces),
    (scenario, "detect_interfaces_acoustic", "detect.interfaces", _count_interfaces),
    (scenario, "detect_vertex_coupled_mode", "detect.coupled_mode", _count_coupled_mode),
    (scenario, "detect_vertex_cascade", "detect.cascade", None),
    (scenario, "detect_vertex_fwm", "detect.fwm", None),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Route every site in SITES through the tracer for the duration."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in SITES]
    try:
        for module, attr, name, count in SITES:
            setattr(module, attr, tracer.wrap(getattr(module, attr), name, count))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
