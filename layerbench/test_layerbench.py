"""Tests of the benchmark itself: tracer restore, failure counting, repeatable counts.

Run from the root of a checkout:

    python3 -m pytest layerbench/test_layerbench.py -q
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.prepare_imports()
import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from edgegame.blockmodel import StrategyPair, block_matrix, sample_adjacency  # noqa: E402
from edgegame.graph import DirectedGraph  # noqa: E402
from edgegame.recommender import recommendation_probability  # noqa: E402
from edgegame.seeding import substream  # noqa: E402

FAST = ("protocol-n20", "mc-utility", "opinion")


def _bound_objects() -> dict:
    objects = {}
    for owner_name, attr, _ in tracing.TARGETS:
        owner = tracing.resolve_owner(owner_name)
        objects[(owner_name, attr)] = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return objects


def _traced_run(name: str, seed: int, units: int):
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    checker = run.Checker(workload, None)
    out_dir = run.OUT / f"{name}-test"
    out_dir.mkdir(parents=True, exist_ok=True)
    t = tracing.Tracer(layers.CAPTURES)
    plain, traced = run.run_units(workload, inputs, checker, out_dir, 0.0, units,
                                  tracer=t, counter=layers.count_unit)
    return t, plain, traced


@pytest.mark.parametrize("name", FAST)
def test_every_wrapped_name_is_restored_after_a_traced_run(name):
    before = _bound_objects()
    t, _, traced = _traced_run(name, seed=11, units=2)
    assert traced.attempted == 2 and traced.failed == 0
    assert t.spans, "the traced run recorded no spans"
    after = _bound_objects()
    assert all(after[key] is before[key] for key in before)


def test_wrapped_names_are_restored_when_a_unit_raises():
    before = _bound_objects()
    t = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with t.installed():
            t.run_unit(0, lambda: 1 / 0)
    after = _bound_objects()
    assert all(after[key] is before[key] for key in before)


def test_self_times_add_up_to_the_traced_unit_time():
    t, _, traced = _traced_run("protocol-n20", seed=12, units=3)
    total = sum(t.layer_self_s().values())
    assert total == pytest.approx(sum(traced.times), rel=1e-9)
    roots = [s for s in t.spans if s[1] == tracing.ROOT]
    assert len(roots) == 3
    assert all(s[3] is not None for s in t.spans if s[1] != tracing.ROOT)


@pytest.mark.parametrize("name", FAST)
def test_counts_repeat_exactly_for_a_seed(name):
    first = _traced_run(name, seed=5, units=3)[2].counts
    second = _traced_run(name, seed=5, units=3)[2].counts
    assert first == second
    assert any(v > 0 for v in first[0].values())


def _corrupt(parts):
    first = bytearray(parts[0])
    first[len(first) // 2] ^= 0x01
    return (bytes(first),) + tuple(parts[1:])


@pytest.mark.parametrize("name", FAST)
def test_a_corrupted_output_fails_against_the_pinned_digest(name, monkeypatch):
    workload = workloads.WORKLOADS[name]
    import numpy

    pinned, note = run.load_pinned(workload, 0, numpy.__version__)
    if pinned is None:
        pytest.skip(note)
    original = type(workload).outputs
    monkeypatch.setattr(type(workload), "outputs", lambda self, *a: _corrupt(original(self, *a)))
    out_dir = run.OUT / f"{name}-test"
    out_dir.mkdir(parents=True, exist_ok=True)
    phase, _ = run.run_units(workload, workload.inputs(0), run.Checker(workload, pinned), out_dir, 0.0, 2)
    assert (phase.attempted, phase.failed) == (2, 2)
    assert "digest" in phase.errors[0]


def test_a_wrong_result_fails_the_closed_form_check_and_shows_in_the_result(monkeypatch):
    """mc-utility on a seed without digests: means shifted by one miss criterion 5's tolerance."""
    workload = workloads.WORKLOADS["mc-utility"]
    original = workloads.MonteCarloWorkload.call
    monkeypatch.setattr(workloads.MonteCarloWorkload, "call", lambda self, *a: original(self, *a) + 1.0)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "mc-utility", "--seed", "987654", "--seconds", "0", "--trace", "1"])
    assert code == 1  # no unit passed, so there is nothing to measure
    lines = out.getvalue().splitlines()
    assert any("closed-form checks only" in line for line in lines)
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1 + 2 * workload.count_units


def test_missing_source_tree_exits_nonzero_without_a_result(monkeypatch):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-src")
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "opinion", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert out.getvalue() == ""


def test_eligible_pairs_matches_the_recommender_probability():
    n = 12
    for seed, p in ((1, 0.3), (2, 0.6), (3, 0.9)):
        adj = sample_adjacency(block_matrix(StrategyPair(p, p), n), n, substream(seed, "test"))
        g = DirectedGraph.from_adjacency(adj, n)
        expected = sum(
            1
            for i in range(2 * n)
            for j in (range(n, 2 * n) if i < n else range(n))
            if not g.has_edge(i, j) and recommendation_probability(g, i, j) > 0.0
        )
        assert layers.eligible_pairs(adj) == expected


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = run.tail([float(x) for x in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90, 10)
    value, pct, beyond = run.tail([float(x) for x in range(1, 12)])
    assert (pct, beyond) == (9, 10) and value == 1.0
