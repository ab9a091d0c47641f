"""Span tracing from outside the program.

``solve`` looks up ``iterate`` and ``iterate`` looks up its layer calls as
globals of ``hybridproj.solver`` at call time, so replacing those globals
with timing wrappers records one span per call without touching the
program. The chunk evaluators returned by the two factories are wrapped as
well and timed per chunk on whichever worker thread runs them. Set-up spans
come from ``cli.build_inputs``, the problem builders the front end calls,
and ``ParamSchedule.violations``.

Spans stay in memory; ``write`` dumps them as JSON lines at the end of a
run. ``layer_metrics`` reduces them to the per-layer figures.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from hybridproj import cli, problems, solver

PHASE_NAMES = ("parallel.gep_phase", "parallel.map_phase", "parallel.res_s")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    # Serial number of the enclosing ``iterate`` call; None outside one.
    iteration: int | None
    thread: int
    # Members evaluated (chunk spans) or non-degenerate cuts (cut spans).
    count: int = 0
    # Phase a chunk belongs to.
    phase: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the timing wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._iteration: int | None = None
        self._serial = 0
        self._phase = ""
        self._projected = False
        self._factory = ""

    def _record(self, name, start, end, count=0, phase=""):
        # list.append is a single bytecode-level operation under the GIL, so
        # chunk spans from worker threads need no lock.
        self.spans.append(Span(name, start, end, self._iteration,
                               threading.get_ident(), count, phase))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def __enter__(self) -> "Tracer":
        self._patch(solver, "iterate", self._wrap_iterate)
        self._patch(solver, "furthest_candidate", self._wrap_phase)
        self._patch(solver, "gep_chunk_evaluator",
                    lambda f: self._wrap_factory(f, "operators.gep_chunk"))
        self._patch(solver, "map_chunk_evaluator",
                    lambda f: self._wrap_factory(f, "operators.map_chunk"))
        self._patch(solver, "halfspace_from_iterate", self._wrap_cut)
        self._patch(solver, "project_nested", self._wrap_project)
        self._patch(cli, "build_inputs", lambda f: self._wrap("cli.build_inputs", f))
        # build_inputs calls the builders through cli; ball_d8 calls
        # problems.preset itself.
        for owner, attr in ((cli, "build_section4"), (cli, "preset"), (problems, "preset")):
            self._patch(owner, attr, lambda f: self._wrap("problems.build", f))
        self._patch(solver.ParamSchedule, "violations",
                    lambda f: self._wrap("solver.schedule_check", f))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, inner):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self._record(name, t0, time.perf_counter())

        return timed

    def _wrap_iterate(self, inner):
        def iterate(*args, **kwargs):
            self._serial += 1
            self._iteration = self._serial
            self._projected = False
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self._record("solver.iterate", t0, time.perf_counter())
                self._iteration = None

        return iterate

    def _wrap_factory(self, inner, chunk_name):
        def factory(*args, **kwargs):
            t0 = time.perf_counter()
            evaluate = inner(*args, **kwargs)
            self._record("operators.factory", t0, time.perf_counter())
            self._factory = chunk_name

            def chunk(lo, hi):
                c0 = time.perf_counter()
                rows = evaluate(lo, hi)
                self._record(chunk_name, c0, time.perf_counter(), hi - lo, self._phase)
                return rows

            return chunk

        return factory

    def _wrap_phase(self, inner):
        def furthest_candidate(*args, **kwargs):
            if self._projected:
                self._phase = "parallel.res_s"
            elif self._factory == "operators.gep_chunk":
                self._phase = "parallel.gep_phase"
            else:
                self._phase = "parallel.map_phase"
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self._record(self._phase, t0, time.perf_counter())

        return furthest_candidate

    def _wrap_cut(self, inner):
        def halfspace_from_iterate(*args, **kwargs):
            t0 = time.perf_counter()
            cut = inner(*args, **kwargs)
            self._record("geometry.cut", t0, time.perf_counter(),
                         0 if cut.is_degenerate else 1)
            return cut

        return halfspace_from_iterate

    def _wrap_project(self, inner):
        def project_nested(nested, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(nested, *args, **kwargs)
            finally:
                self._record("geometry.project", t0, time.perf_counter(),
                             len(nested.cuts))
                self._projected = True

        return project_nested

    def write(self, path: Path) -> None:
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


@dataclass
class _Iteration:
    wall: float = 0.0
    children: float = 0.0
    project: float = 0.0
    cuts: int = 0
    cut: float = 0.0
    reduce: float = 0.0
    chunks: int = 0
    members: int = 0
    phase_wall: dict[str, float] = field(default_factory=dict)
    # Evaluator busy seconds per phase, per thread.
    phase_busy: dict[str, dict[int, float]] = field(default_factory=dict)


def _iterations(spans: list[Span]) -> list[_Iteration]:
    by_serial: dict[int, _Iteration] = {}
    for s in spans:
        if s.iteration is None:
            continue
        it = by_serial.setdefault(s.iteration, _Iteration())
        if s.name == "solver.iterate":
            it.wall = s.seconds
        elif s.name in ("operators.gep_chunk", "operators.map_chunk"):
            busy = it.phase_busy.setdefault(s.phase, {})
            busy[s.thread] = busy.get(s.thread, 0.0) + s.seconds
            it.chunks += 1
            it.members += s.count
        else:
            # Direct children of iterate: phases, factories, cut, project.
            it.children += s.seconds
            if s.name in PHASE_NAMES:
                it.phase_wall[s.name] = it.phase_wall.get(s.name, 0.0) + s.seconds
            elif s.name == "geometry.project":
                it.project, it.cuts = s.seconds, s.count
            elif s.name == "geometry.cut":
                it.cut = s.seconds
    items = [by_serial[k] for k in sorted(by_serial)]
    for it in items:
        it.reduce = sum(
            wall - max(it.phase_busy.get(name, {0: 0.0}).values())
            for name, wall in it.phase_wall.items()
        )
    return items


def _median_ms(values) -> float | None:
    """Median in milliseconds; None when the layer was never called."""
    values = list(values)
    return 1e3 * statistics.median(values) if values else None


def layer_metrics(spans: list[Span], solves: int) -> tuple[dict, dict]:
    """Per-layer figures of the spans of ``solves`` solves, and a self-time
    breakdown.

    Per-iteration figures are medians over every traced iteration; counts
    per solve are means. The breakdown holds each layer's total self time in
    seconds. The layers partition the ``iterate`` spans, so they sum to the
    traced iteration time exactly unless a self time comes out negative.
    """
    iters = [it for it in _iterations(spans) if it.wall > 0.0]
    chunk = {name: [s for s in spans if s.name == name]
             for name in ("operators.gep_chunk", "operators.map_chunk")}
    busy = {name: sum(s.seconds for s in group) for name, group in chunk.items()}
    rows = {name: sum(s.count for s in group) for name, group in chunk.items()}
    phase_wall = sum(sum(it.phase_wall.values()) for it in iters)
    cut_spans = [s for s in spans if s.name == "geometry.cut"]

    slope = None
    if len({it.cuts for it in iters}) >= 2:
        slope = float(np.polyfit([it.cuts for it in iters],
                                 [1e6 * it.project for it in iters], 1)[0])
    metrics = {
        "geometry.project_ms": _median_ms(it.project for it in iters),
        "geometry.project_us_per_cut": slope,
        "geometry.cuts": sum(s.count for s in cut_spans) / solves,
        "geometry.cut_us": _median_ms(1e3 * s.seconds for s in cut_spans),
        "operators.gep_ns_per_member":
            1e9 * busy["operators.gep_chunk"] / max(rows["operators.gep_chunk"], 1),
        "operators.map_ns_per_member":
            1e9 * busy["operators.map_chunk"] / max(rows["operators.map_chunk"], 1),
        "operators.member_evals": statistics.median(it.members for it in iters),
        "parallel.reduce_ms": _median_ms(it.reduce for it in iters),
        "parallel.busy_ratio": sum(busy.values()) / phase_wall if phase_wall else None,
        "parallel.chunks": statistics.median(it.chunks for it in iters),
        "solver.iterations": len(iters) / solves,
        "solver.self_ms": _median_ms(it.wall - it.children for it in iters),
    }
    for name in PHASE_NAMES:
        key = "parallel.res_s_ms" if name == "parallel.res_s" else name + "_ms"
        metrics[key] = _median_ms(it.phase_wall[name] for it in iters
                                  if name in it.phase_wall)

    factories = sum(s.seconds for s in spans
                    if s.name == "operators.factory" and s.iteration is not None)
    breakdown = {
        "solver.self": sum(it.wall - it.children for it in iters),
        "operators.evaluate": sum(
            sum(max(b.values()) for b in it.phase_busy.values()) for it in iters
        ) + factories,
        "parallel.reduce": sum(it.reduce for it in iters),
        "geometry.cut": sum(it.cut for it in iters),
        "geometry.project": sum(it.project for it in iters),
    }
    return metrics, breakdown


def setup_metrics(spans: list[Span]) -> dict:
    def per_setup(name):
        return _median_ms(s.seconds for s in spans if s.name == name)

    return {
        "cli.build_inputs_ms": per_setup("cli.build_inputs"),
        "problems.build_ms": per_setup("problems.build"),
        "solver.schedule_check_ms": per_setup("solver.schedule_check"),
    }
