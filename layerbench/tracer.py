"""Outside-in spans around edgegame's layers.

The tracer rebinds the public names that callers look up at call time (for
example ``edgegame.dynamics.run_recommender``, the name ``run_protocol``
calls) to timing wrappers, and puts the originals back afterwards. Nothing
inside the package changes. Each wrapped call becomes one span: name, unit
id, parent span, start and end. A span's layer is the part of its name
before the first dot.

Self time is a span's duration minus the full durations of its child spans.
The wrapper's own bookkeeping (clock reads, stack pushes, captures) is kept
out of every span's self time and summed as ``tracer_s``, so the self times
of all spans of a unit plus that unit's ``tracer_s`` equal its root span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

# (owner, attribute, span name). The owner is the module or class whose
# attribute callers look up; the span name's prefix is the layer it is
# charged to. ``sample_snapshot`` is defined in blockmodel, but once its
# child ``sample_adjacency`` is subtracted, its self time is building the
# set-of-sets DirectedGraph, so it is charged to graph as ``graph.build``.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("edgegame.experiments", "run_scenario", "experiments.run_scenario"),
    ("edgegame.experiments", "run_protocol", "dynamics.run_protocol"),
    ("edgegame.experiments", "write_trace_csv", "dynamics.write_trace_csv"),
    ("edgegame.experiments", "nash_equilibrium", "game.nash_equilibrium"),
    ("edgegame.dynamics", "substream", "seeding.substream"),
    ("edgegame.dynamics", "best_response", "game.best_response"),
    ("edgegame.dynamics", "block_matrix", "blockmodel.block_matrix"),
    ("edgegame.dynamics", "sample_snapshot", "graph.build"),
    ("edgegame.dynamics", "run_recommender", "recommender.run"),
    ("edgegame.dynamics", "segregation_measure", "graph.segregation"),
    ("edgegame.dynamics", "inter_edge_count", "graph.inter_edge_count"),
    ("edgegame.graph:DirectedGraph", "add_edges", "graph.add_edges"),
    ("edgegame.blockmodel", "block_matrix", "blockmodel.block_matrix"),
    ("edgegame.blockmodel", "sample_adjacency", "blockmodel.sample_adjacency"),
    ("edgegame.game", "realized_utility_rec_all", "game.utility_kernel"),
    ("edgegame.opinion", "run_opinion", "opinion.run"),
    ("edgegame.opinion", "substream", "seeding.substream"),
    ("edgegame.opinion", "init_state", "opinion.init"),
    ("edgegame.opinion", "step_opinion", "opinion.step"),
    ("edgegame.opinion", "measure", "opinion.measure"),
)

# Spans called so often per unit (20k opinion micro-steps) that they are
# summed per unit instead of being kept one by one.
AGGREGATED = frozenset({"opinion.step"})

ROOT = "bench.unit"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Records spans in memory while installed; one unit open at a time.

    ``captures`` maps a span name to ``f(args, result) -> object``; the
    objects of the last unit are kept in ``unit_captures``, and its call
    counts in ``unit_calls``, for work counts taken after the unit, outside
    every span.
    """

    def __init__(self, captures: dict[str, Callable] | None = None):
        self.captures = captures or {}
        self.spans: list[tuple] = []  # (id, name, unit, parent, start, end, self_s)
        self.aggregates: list[tuple] = []  # (name, unit, count, busy_s, self_s)
        self.self_s: dict[str, float] = defaultdict(float)  # span name -> summed self time
        self.tracer_s = 0.0
        self.unit_calls: dict[str, int] = defaultdict(int)
        self.unit_captures: dict[str, list] = defaultdict(list)
        self._unit = None
        self._unit_agg: dict[str, list[float]] = {}
        self._stack: list[list] = []  # open spans: [id, children's full duration]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self._epoch = time.perf_counter()

    # --- installing ----------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind every target to its wrapper; restore the originals on exit."""
        try:
            for owner_name, attr, span in TARGETS:
                owner = resolve_owner(owner_name)
                # A class attribute is saved from the class dict so that
                # restoring puts back the exact object, descriptor included.
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span))
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        capture = self.captures.get(name)
        aggregated = name in AGGREGATED

        def wrapper(*args, **kwargs):
            if self._unit is None:
                return fn(*args, **kwargs)
            t0 = clock()
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            t1 = clock()
            result = fn(*args, **kwargs)
            t2 = clock()
            stack.pop()
            self_s = (t2 - t1) - frame[1]
            if aggregated:
                agg = self._unit_agg.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += t2 - t1
                agg[2] += self_s
            else:
                self.spans.append(
                    (frame[0], name, self._unit, stack[-1][0], t1 - self._epoch, t2 - self._epoch, self_s)
                )
            self.self_s[name] += self_s
            self.unit_calls[name] += 1
            if capture is not None:
                self.unit_captures[name].append(capture(args, result))
            t3 = clock()
            stack[-1][1] += t3 - t0
            self.tracer_s += (t3 - t0) - (t2 - t1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- units -----------------------------------------------------------

    def run_unit(self, unit_id: int, fn: Callable, *args):
        """Call ``fn(*args)`` as the root span of one unit; returns (result, seconds).

        The root span's self time is the benchmark's own driving code
        between wrapped calls (charged to the pseudo-layer ``bench``).
        """
        self._unit = unit_id
        self._unit_agg = {}
        self.unit_calls = defaultdict(int)
        self.unit_captures = defaultdict(list)
        root = [self._next_id, 0.0]
        self._next_id += 1
        self._stack[:] = [root]
        t1 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t2 = time.perf_counter()
            self._unit = None
            self._stack.clear()
            self.spans.append(
                (root[0], ROOT, unit_id, None, t1 - self._epoch, t2 - self._epoch, (t2 - t1) - root[1])
            )
            self.self_s[ROOT] += (t2 - t1) - root[1]
            for name, (count, busy, self_s) in self._unit_agg.items():
                self.aggregates.append((name, unit_id, count, busy, self_s))
        return result, t2 - t1

    # --- reporting -------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Summed self time per layer, plus the tracer's own bookkeeping."""
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[layer_of(name)] += seconds
        layers["tracer"] = self.tracer_s
        return dict(layers)

    def write_spans(self, path) -> None:
        """One JSON object per line: every kept span, then the per-unit aggregates."""
        with open(path, "w", encoding="utf-8") as fp:
            for span_id, name, unit, parent, start, end, self_s in self.spans:
                fp.write(
                    json.dumps(
                        {"id": span_id, "name": name, "unit": unit, "parent": parent,
                         "start": start, "end": end, "self_s": self_s}
                    )
                )
                fp.write("\n")
            for name, unit, count, busy, self_s in self.aggregates:
                fp.write(
                    json.dumps(
                        {"name": name, "unit": unit, "aggregated": True, "count": count,
                         "busy_s": busy, "self_s": self_s}
                    )
                )
                fp.write("\n")
