"""Per-layer metrics of a traced run: self times from the spans, work counts from the captures.

Work counts are taken after each unit, outside every span, from what the
wrapped calls returned (snapshots, traces, recommender outcomes). They are
averaged over the first ``count_units`` traced units, which always run, so
they repeat exactly for a given seed. Times are averaged over every traced
unit.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

from tracer import ROOT, Tracer, layer_of

CAPTURES = {
    "blockmodel.sample_adjacency": lambda args, adj: adj,
    "graph.build": lambda args, g: id(g),
    "recommender.run": lambda args, outcome: (id(args[0]), len(outcome.recommended), len(outcome.accepted)),
    "dynamics.run_protocol": lambda args, records: records,
    "experiments.run_scenario": lambda args, summary: (Path(args[1]), tuple(summary.files)),
    "game.utility_kernel": lambda args, result: args[0].shape[0],
}

# Per-unit self time of a span, reported as a metric.
BUSY = (
    ("recommender.busy_s", "recommender.run"),
    ("graph.build_s", "graph.build"),
    ("graph.add_edges.busy_s", "graph.add_edges"),
    ("graph.segregation.busy_s", "graph.segregation"),
    ("blockmodel.sample_adjacency.busy_s", "blockmodel.sample_adjacency"),
    ("game.utility_kernel.busy_s", "game.utility_kernel"),
    ("game.best_response.busy_s", "game.best_response"),
    ("opinion.step.busy_s", "opinion.step"),
    ("opinion.measure.busy_s", "opinion.measure"),
    ("opinion.init.busy_s", "opinion.init"),
    ("seeding.substream.busy_s", "seeding.substream"),
)

COUNTS = (
    "recommender.calls", "recommender.cross_pairs", "recommender.eligible_pairs",
    "recommender.recommended", "recommender.accepted", "graph.inter_edges",
    "blockmodel.uniforms", "blockmodel.edges_sampled", "game.snapshots",
    "game.flops_computed", "game.bytes_computed", "opinion.steps", "opinion.records",
    "seeding.calls", "dynamics.steps", "experiments.bytes_written",
)
UNITS = {"flops_computed": "flop", "bytes_computed": "B", "bytes_written": "B"}


def dense_kernel_work(size: int) -> tuple[int, int]:
    """Flops and bytes of ``realized_utility_rec_all`` on a size x size adjacency, from its array shapes.

    Computed, not measured: two size^3 matrix products (2 flops per
    multiply-add each) plus about 14 elementwise passes; bytes are each
    operation's operand reads and result writes (float64 arrays of size^2,
    bool masks of size^2 bytes), 222 bytes per cell in all.
    """
    cells = size * size
    return 4 * size**3 + 14 * cells, 222 * cells


def eligible_pairs(adj: np.ndarray) -> int:
    """Cross pairs (i, j) without the edge i->j whose two-hop support is nonzero."""
    size = adj.shape[0]
    blue = np.arange(size) >= size // 2
    cross = blue[:, None] != blue[None, :]
    a = adj.astype(np.float32)
    d = a * cross
    support = (d + d.T) @ (a * ~cross)
    return int(np.count_nonzero(cross & ~adj & (support > 0)))


def count_unit(tracer: Tracer, out_dir: Path) -> dict[str, float]:
    """Work counts of the unit that just ran, from the tracer's captures."""
    calls, cap = tracer.unit_calls, tracer.unit_captures
    counts = dict.fromkeys(COUNTS, 0)
    adjs = cap["blockmodel.sample_adjacency"]
    counts["blockmodel.uniforms"] = sum(a.size for a in adjs)
    counts["blockmodel.edges_sampled"] = sum(int(np.count_nonzero(a)) for a in adjs)
    for size in cap["game.utility_kernel"]:
        flops, nbytes = dense_kernel_work(size)
        counts["game.snapshots"] += 1
        counts["game.flops_computed"] += flops
        counts["game.bytes_computed"] += nbytes
    # Each snapshot holds exactly one sampled adjacency, and run_protocol
    # gives each snapshot to one recommender pass, in the same order.
    built, passes = cap["graph.build"], cap["recommender.run"]
    if built and len(built) != len(adjs):
        raise RuntimeError("snapshots and sampled adjacencies do not pair up")
    for k, (graph_id, recommended, accepted) in enumerate(passes):
        if built[k] != graph_id:
            raise RuntimeError("recommender pass does not follow its snapshot")
        counts["recommender.calls"] += 1
        counts["recommender.cross_pairs"] += adjs[k].size // 2
        counts["recommender.eligible_pairs"] += eligible_pairs(adjs[k])
        counts["recommender.recommended"] += recommended
        counts["recommender.accepted"] += accepted
    for records in cap["dynamics.run_protocol"]:
        counts["dynamics.steps"] += len(records)
        counts["graph.inter_edges"] += sum(r.inter_edges for r in records)
    for base, files in cap["experiments.run_scenario"]:
        counts["experiments.bytes_written"] += sum((base / f).stat().st_size for f in files)
    counts["opinion.steps"] = calls["opinion.step"]
    counts["opinion.records"] = calls["opinion.measure"]
    counts["seeding.calls"] = calls["seeding.substream"]
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced, traced, count_units: int):
    """Per-layer metrics as {name: (value, unit)} and the report's layer table lines."""
    units = traced.attempted
    metrics: dict[str, tuple[float, str]] = {}
    for metric, span in BUSY:
        metrics[metric] = (tracer.self_s.get(span, 0.0) / units, "s")
    first = traced.counts[:count_units]
    totals = {name: sum(c[name] for c in first) for name in COUNTS}
    for name in COUNTS:
        metrics[name] = (totals[name] / len(first), UNITS.get(name.split(".", 1)[1], "count"))
    metrics["recommender.propose_ratio"] = (
        _ratio(totals["recommender.recommended"], totals["recommender.eligible_pairs"]), "ratio")
    metrics["recommender.accept_ratio"] = (
        _ratio(totals["recommender.accepted"], totals["recommender.recommended"]), "ratio")

    layers = tracer.layer_self_s()
    for layer in ("dynamics", "experiments", "bench", "tracer"):
        metrics[f"{layer}.self_s"] = (layers.get(layer, 0.0) / units, "s")
    traced_p50 = statistics.median(traced.at_reference_speed())
    untraced_p50 = statistics.median(untraced.at_reference_speed())
    unit_total = sum(traced.times)
    metrics["trace.unit_ms.p50"] = (1e3 * traced_p50, "ms")
    metrics["trace.untraced_unit_ms.p50"] = (1e3 * untraced_p50, "ms")
    metrics["trace.overhead_ms"] = (1e3 * (traced_p50 - untraced_p50), "ms")

    table = [f"# layer self time per traced unit ({units} units, {len(first)} counted; "
             f"root span '{ROOT}' is the benchmark's own code):"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        table.append(f"#   {layer:12s} {1e3 * seconds / units:12.4f} ms  {100 * seconds / unit_total:6.2f} %")
    table.append(f"#   {'sum':12s} {1e3 * sum(layers.values()) / units:12.4f} ms  "
                 f"vs traced unit mean {1e3 * unit_total / units:.4f} ms")
    by_span = sorted(((n, s) for n, s in tracer.self_s.items() if layer_of(n) != "bench"), key=lambda kv: -kv[1])
    table.append("# span self time per traced unit: " + ", ".join(
        f"{n} {1e3 * s / units:.3f} ms" for n, s in by_span))
    return metrics, table
