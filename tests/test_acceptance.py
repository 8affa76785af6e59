"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[PASS]/[FAIL] criterion N` line (run with `pytest -s`
to stream them) and then asserts, so the suite both reports and gates.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from edgegame.blockmodel import StrategyPair, block_matrix, sample_snapshot
from edgegame.dynamics import (
    ProtocolConfig,
    SemiMarkovChain,
    run_protocol,
    verify_myopic_optimality,
)
from edgegame.experiments import ScenarioSpec, run_scenario
from edgegame.game import (
    PlayerRole,
    Regime,
    expected_utility_rec,
    iterated_dominance,
    nash_equilibrium,
)
from edgegame.opinion import OpinionConfig, run_opinion, tail_mean_segregation
from edgegame.recommender import run_recommender
from edgegame.seeding import substream
from oracles import cross_partial, red_snapshot_means


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[{status}] criterion {num:02d}: {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_c01_closed_form_equilibria():
    ok = True
    details = []
    r = nash_equilibrium(0.8)
    if (r.strategy.p_r, r.strategy.p_b) != (0.75, 0.75) or r.regime is not Regime.INTEGRATION:
        ok = False
        details.append(f"c=0.8 gave {r.strategy}")
    for c in (2.0 / 3.0, 0.7, 0.8, 0.9, 1.0):
        expected = 1.0 / (3.0 * c) + 1.0 / 3.0
        got = nash_equilibrium(c).strategy
        if abs(got.p_r - expected) > 1e-12 or abs(got.p_b - expected) > 1e-12:
            ok = False
            details.append(f"c={c}: {got.p_r} vs {expected}")
    for c in (0.1, 0.3, 0.5):
        got = nash_equilibrium(c)
        if (got.strategy.p_r, got.strategy.p_b) != (1.0, 1.0) or got.regime is not Regime.SEGREGATION:
            ok = False
            details.append(f"c={c}: {got.strategy}")
    _report(1, "closed-form equilibria", ok, "; ".join(details) or "both regimes exact")


def test_c02_baseline_protocol_segregates():
    start = time.perf_counter()
    ok = True
    detail = ""
    for seed in range(100):
        cfg = ProtocolConfig(n_per_community=20, horizon=20, seed=seed)
        for r in run_protocol(cfg):
            if r.t >= 2 and (
                (r.p_r, r.p_b) != (1.0, 1.0) or r.inter_edges != 0 or r.segregation != 1.0
            ):
                ok = False
                detail = f"seed {seed}, t={r.t}: p=({r.p_r},{r.p_b}), inter={r.inter_edges}"
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _report(2, "baseline protocol locks into segregation", ok, detail or f"100 seeds, {elapsed:.1f}s")


def test_c03_recommender_protocol_convergence():
    start = time.perf_counter()
    ok = True
    detail = ""
    worst = 0.0
    for seed in range(100):
        cfg = ProtocolConfig(
            n_per_community=20,
            horizon=20,
            acceptance=0.8,
            seed=seed,
        )
        for r in run_protocol(cfg):
            if r.t >= 10:
                dev = max(abs(r.p_r - 0.75), abs(r.p_b - 0.75))
                worst = max(worst, dev)
                if dev > 1e-3:
                    ok = False
                    detail = f"seed {seed}, t={r.t}: deviation {dev:.2e}"
                    break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _report(
        3,
        "equilibrium reached by iteration 10",
        ok,
        detail or f"100 seeds, worst dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_c04_tail_segregation_decreases_with_acceptance():
    start = time.perf_counter()
    grid = (0.6, 0.7, 0.8, 0.9, 1.0)
    means = []
    for c in grid:
        tails = []
        for seed in range(50):
            cfg = ProtocolConfig(
                n_per_community=20,
                horizon=20,
                acceptance=c,
                seed=1000 + seed,
            )
            records = run_protocol(cfg)
            tail = [r.segregation for r in records if r.t > 10]
            tails.append(float(np.mean(tail)))
        means.append(float(np.mean(tails)))
    ok = all(b < a for a, b in zip(means, means[1:]))
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"c={c}: {m:.4f}" for c, m in zip(grid, means)) + f" ({elapsed:.0f}s)"
    _report(4, "mean tail segregation strictly decreasing in acceptance", ok, detail)


MC_MEANS_SHA256 = "759a6428b7135b6f3a50dfefb6e064b881f9c5fb94051ab86d08d75077e34779"


def test_c05_monte_carlo_matches_analytic_utilities():
    start = time.perf_counter()
    n = 50
    snapshots = 10_000
    points = [
        (p_r, p_b, c)
        for c in (0.0, 0.4, 0.8)
        for (p_r, p_b) in ((0.25, 0.25), (0.5, 1.0), (0.75, 0.5), (1.0, 0.75))
    ]
    rng = substream(2025, "acceptance", "mc")
    digest = hashlib.sha256()
    ok = True
    details = []
    for p_r, p_b, c in points:
        means = red_snapshot_means(StrategyPair(p_r, p_b), c, n, snapshots, rng)
        digest.update(means.tobytes())
        expected = expected_utility_rec(StrategyPair(p_r, p_b), c, PlayerRole.RED)
        se = float(means.std(ddof=1) / math.sqrt(snapshots))
        err = abs(float(means.mean()) - expected)
        if err > 3 * se + 2.0 / n:
            ok = False
            details.append(f"({p_r},{p_b},{c}): err={err:.4f} > {3 * se + 2 / n:.4f}")
    # every snapshot's mean, bit for bit, as one snapshot at a time gave them
    if digest.hexdigest() != MC_MEANS_SHA256:
        ok = False
        details.append(f"means digest is not the pinned {MC_MEANS_SHA256}")
    elapsed = time.perf_counter() - start
    _report(
        5,
        "Monte-Carlo utility means match analytic forms",
        ok,
        "; ".join(details + [f"means sha256 {digest.hexdigest()}"])
        + f" (12 points x {snapshots} snapshots, {elapsed:.0f}s)",
    )


def test_c06_submodularity_cross_partial():
    ok = True
    details = []
    points = [(0.2, 0.3), (0.35, 0.7), (0.5, 0.5), (0.6, 0.25), (0.8, 0.9)]
    for c in (0.2, 0.8):
        for p_r, p_b in points:
            value = cross_partial(c, StrategyPair(p_r, p_b), 1e-4)
            if abs(value - (-c)) > 1e-6:
                ok = False
                details.append(f"c={c} at ({p_r},{p_b}): {value}")
    _report(6, "cross-partial equals minus acceptance", ok, "; ".join(details) or "10 stencils")


def test_c07_iterated_dominance_intervals():
    intervals = iterated_dominance(0.8, 60)
    ok = intervals[1] == (0.625, 0.8125)
    lo, hi = intervals[-1]
    ok = ok and abs(lo - 0.75) <= 1e-9 and abs(hi - 0.75) <= 1e-9
    _report(
        7,
        "dominance intervals converge to the equilibrium",
        ok,
        f"iter2={intervals[1]}, iter60 width={hi - lo:.2e}",
    )


def test_c08_switching_equilibrium_tracking():
    start = time.perf_counter()
    chain = SemiMarkovChain(
        [0.6, 0.8, 1.0],
        [[1 / 3, 1 / 3, 1 / 3]] * 3,
        holding_time=100,
    )
    cfg = ProtocolConfig(n_per_community=20, horizon=1000, acceptance=chain, seed=8)
    records = run_protocol(cfg)
    ok = True
    detail = ""
    for r in records:
        if r.t % 100 >= 10:
            target = nash_equilibrium(r.c).strategy.p_r
            dev = max(abs(r.p_r - target), abs(r.p_b - target))
            if dev > 1e-3:
                ok = False
                detail = f"t={r.t} (c={r.c}): dev={dev:.2e}"
                break
    elapsed = time.perf_counter() - start
    _report(8, "strategies track the switching equilibrium", ok, detail or f"10 windows, {elapsed:.1f}s")


def test_c09_myopic_play_is_optimal():
    chain = SemiMarkovChain([0.6, 0.9], [[0.5, 0.5], [0.5, 0.5]], 1)
    report = verify_myopic_optimality(chain, 0.9, 201, 50)
    ok = abs(report.gap) <= 1e-3 * abs(report.dp_value)
    report0 = verify_myopic_optimality(chain, 0.0, 201, 50)
    ok = ok and report0.gap == 0.0
    _report(
        9,
        "one-stage play matches dynamic programming",
        ok,
        f"gap={report.gap:.2e} (dp={report.dp_value:.4f}), gamma=0 gap={report0.gap}",
    )


def test_c10_opinion_model_comparison():
    start = time.perf_counter()
    wins = 0
    with_tails = []
    without_tails = []
    for seed in range(20):
        with_rec = run_opinion(OpinionConfig(with_recommender=True, seed=seed))
        without_rec = run_opinion(OpinionConfig(with_recommender=False, seed=seed))
        tw = tail_mean_segregation(with_rec)
        tn = tail_mean_segregation(without_rec)
        with_tails.append(tw)
        without_tails.append(tn)
        if tw < tn:
            wins += 1
    mean_with = float(np.mean(with_tails))
    mean_without = float(np.mean(without_tails))
    ok = mean_with < mean_without and wins >= 18
    elapsed = time.perf_counter() - start
    _report(
        10,
        "recommender keeps opinion segregation lower",
        ok,
        f"means {mean_with:.4f} < {mean_without:.4f}, wins {wins}/20, {elapsed:.0f}s",
    )


def test_c11_recommender_pass_scales_quadratically():
    start = time.perf_counter()
    sizes = (100, 200, 400, 800)
    graphs = {}
    for n in sizes:
        graphs[n] = sample_snapshot(
            block_matrix(StrategyPair(0.75, 0.75), n), n, substream(0, "bench", n)
        )
        run_recommender(graphs[n], 0.8, substream(0, "warmup"))
    # interleave rounds and keep per-size minima so machine-load swings
    # hit all sizes alike instead of distorting a single ratio
    seconds = {n: float("inf") for n in sizes}
    for _ in range(7):
        for n in sizes:
            rng = substream(0, "bench", n, "pass")
            t0 = time.perf_counter()
            run_recommender(graphs[n], 0.8, rng)
            seconds[n] = min(seconds[n], time.perf_counter() - t0)
    ratios = [seconds[200] / seconds[100], seconds[400] / seconds[200], seconds[800] / seconds[400]]
    ok = all(3.0 <= r <= 6.0 for r in ratios)
    elapsed = time.perf_counter() - start
    _report(
        11,
        "pass time quadruples per size doubling",
        ok,
        f"ratios {[round(r, 2) for r in ratios]}, {elapsed:.0f}s",
    )


def _hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reproducible(files: list[str]) -> list[str]:
    """The files that must be hash-identical across runs: all but the wall-time records."""
    return [f for f in files if not f.endswith(".timings.json")]


# The scenario set of criterion 12: one scenario per kind, small sizes.
C12_SCENARIOS = [
    ScenarioSpec("eq", "nash", {"c": 0.8, "seed": 0}),
    ScenarioSpec("p1", "protocol1", {"n": 10, "horizon": 8, "seed": 1}),
    ScenarioSpec("p2", "protocol2", {"n": 10, "horizon": 10, "c": 0.8, "seed": 2}),
    ScenarioSpec(
        "p3",
        "protocol3",
        {
            "n": 8,
            "horizon": 60,
            "c_states": (0.6, 0.9),
            "transition": ((0.5, 0.5), (0.5, 0.5)),
            "holding_time": 20,
            "initial_state": 0,
            "seed": 3,
        },
    ),
    ScenarioSpec(
        "sw",
        "sweep_c",
        {"n": 8, "horizon": 8, "c_grid": (0.7, 0.9), "seeds": 2, "seed": 4},
    ),
    ScenarioSpec(
        "op",
        "opinion",
        {
            "n_agents": 50,
            "radius": 0.2,
            "learning_rate": 0.05,
            "exploration": 0.1,
            "c": 0.9,
            "with_recommender": True,
            "horizon": 2000,
            "record_every": 100,
            "seed": 5,
        },
    ),
    ScenarioSpec(
        "vm",
        "verify_myopic",
        {
            "c_states": (0.6, 0.9),
            "transition": ((0.5, 0.5), (0.5, 0.5)),
            "holding_time": 1,
            "initial_state": 0,
            "gamma": 0.9,
            "grid": 51,
            "horizon": 10,
            "seed": 6,
        },
    ),
    ScenarioSpec(
        "bench", "bench", {"sizes": (30, 60), "p": 0.75, "repeats": 1, "c": 0.8, "seed": 7}
    ),
]


def test_c12_every_scenario_is_reproducible(tmp_path):
    ok = True
    details = []
    for spec in C12_SCENARIOS:
        dir_a = tmp_path / f"{spec.name}_a"
        dir_b = tmp_path / f"{spec.name}_b"
        files_a = run_scenario(spec, dir_a).files
        files_b = run_scenario(spec, dir_b).files
        if files_a != files_b:
            ok = False
            details.append(f"{spec.name}: file lists differ")
            continue
        for fname in _reproducible(files_a):
            if _hash(dir_a / fname) != _hash(dir_b / fname):
                ok = False
                details.append(f"{spec.name}/{fname}")
    _report(
        12,
        "identical seeds reproduce identical outputs",
        ok,
        "; ".join(details) or f"{len(C12_SCENARIOS)} scenario kinds re-run",
    )


GOLDEN = Path(__file__).with_name("golden_hashes.json")


def golden_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of each reproducible criterion-12 output file, keyed 'scenario/file'."""
    digests = {}
    for spec in C12_SCENARIOS:
        base = out_dir / spec.name
        for fname in sorted(_reproducible(run_scenario(spec, base).files)):
            digests[f"{spec.name}/{fname}"] = _hash(base / fname)
    return digests


def test_c12_outputs_match_pinned_hashes(tmp_path):
    pinned = json.loads(GOLDEN.read_text())
    if np.__version__ != pinned["numpy"]:
        pytest.skip(
            f"hashes were pinned under numpy {pinned['numpy']}, this is {np.__version__}; "
            "NEP 19 allows random streams to change between numpy versions"
        )
    got = golden_digests(tmp_path)
    changed = sorted(k for k in pinned["sha256"] if got.get(k) != pinned["sha256"][k])
    ok = got.keys() == pinned["sha256"].keys() and not changed
    _report(12, "outputs match the pinned hashes", ok, ", ".join(changed) or f"{len(got)} files")


if __name__ == "__main__":
    # Re-pins the hashes; run only when outputs are meant to change:
    #   PYTHONPATH=src python tests/test_acceptance.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"numpy": np.__version__, "sha256": golden_digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
