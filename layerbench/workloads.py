"""The benchmark's four workloads: inputs from a seed, the timed call, output checks.

A unit is one call of the workload's entry point. Each workload has a pool
of distinct unit inputs derived from the benchmark seed; unit k runs input
k mod pool, so a faster program cycles through the same pinned inputs
instead of running ones that have no reference digest.

The timed call looks edgegame's functions up as module attributes
(``experiments.run_scenario``), so the tracer's rebinding reaches it. The
checks use names bound at import, which the tracer never rebinds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from edgegame import blockmodel, experiments, game, opinion
from edgegame.blockmodel import StrategyPair
from edgegame.dynamics import TRACE_COLUMNS
from edgegame.experiments import ScenarioSpec
from edgegame.game import PlayerRole, best_response, expected_utility_rec, nash_equilibrium
from edgegame.opinion import OPINION_CSV_COLUMNS, OpinionConfig, write_opinion_csv

HORIZON = 20
MC_N = 50
MC_SNAPSHOTS = 64
# The twelve (p_r, p_b, c) points of acceptance criterion 5.
MC_POINTS = tuple(
    (p_r, p_b, c)
    for c in (0.0, 0.4, 0.8)
    for (p_r, p_b) in ((0.25, 0.25), (0.5, 1.0), (0.75, 0.5), (1.0, 0.75))
)
SWEEP_C = (0.6, 0.7, 0.8, 0.9, 1.0)
# Strategies reach the equilibrium within this distance by t > horizon/2
# (acceptance criterion 3 asks for it from t = 10 at c = 0.8).
CONVERGENCE_TOL = 1e-3
# Trace CSVs hold 9 significant digits.
CSV_TOL = 1e-8


def unit_seed(workload: str, seed: int, j: int) -> int:
    """Seed of input j of a workload's pool; independent of edgegame's own seeding."""
    digest = hashlib.sha256(f"{workload}/{seed}/{j}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def output_digest(parts: tuple[bytes, ...]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


class ProtocolWorkload:
    """``experiments.run_scenario`` of kind protocol2; outputs are the CSV and the summary JSON."""

    def __init__(self, name: str, n: int, c_cycle: tuple[float, ...], pool: int,
                 probes: int, count_units: int, why: str):
        self.name, self.n, self.c_cycle, self.pool = name, n, c_cycle, pool
        self.probes, self.count_units, self.why = probes, count_units, why

    def inputs(self, seed: int) -> list[ScenarioSpec]:
        return [
            ScenarioSpec(
                name="unit",
                kind="protocol2",
                params={"n": self.n, "horizon": HORIZON, "c": self.c_cycle[j % len(self.c_cycle)],
                        "seed": unit_seed(self.name, seed, j)},
            )
            for j in range(self.pool)
        ]

    def call(self, spec: ScenarioSpec, out_dir: Path):
        return experiments.run_scenario(spec, out_dir)

    def outputs(self, spec: ScenarioSpec, result, out_dir: Path) -> tuple[bytes, ...]:
        return tuple((out_dir / f"{spec.name}{suffix}").read_bytes() for suffix in (".csv", ".summary.json"))

    def closed_form_error(self, spec: ScenarioSpec, parts: tuple[bytes, ...]) -> str | None:
        """Check the trace against the best-response map, the equilibrium and the segregation formula."""
        n, c = spec.params["n"], spec.params["c"]
        rows = list(csv.reader(io.StringIO(parts[0].decode("utf-8"))))
        if tuple(rows[0]) != TRACE_COLUMNS:
            return f"trace header {rows[0]}"
        body = rows[1:]
        if [int(r[0]) for r in body] != list(range(HORIZON + 1)):
            return "trace does not hold t = 0..horizon"
        p_star = nash_equilibrium(c).strategy.p_r
        prev = None
        for r in body:
            t, p_r, p_b, c_col = int(r[0]), float(r[1]), float(r[2]), float(r[3])
            inter, recommended, accepted = int(r[5]), int(r[6]), int(r[7])
            if c_col != c:
                return f"t={t}: c column {c_col}"
            if abs(float(r[4]) - (1.0 - inter / (2.0 * n * n))) > CSV_TOL:
                return f"t={t}: segregation does not match inter_edges"
            if not 0 <= accepted <= recommended or inter > 2 * n * n:
                return f"t={t}: counts out of range"
            if prev is not None:
                acting, other, held, held_prev = (
                    (p_r, prev[1], p_b, prev[1]) if t % 2 == 1 else (p_b, prev[0], p_r, prev[0])
                )
                if abs(acting - best_response(c, other)) > CSV_TOL or held != held_prev:
                    return f"t={t}: strategies do not follow the best response"
            if t > HORIZON // 2 and max(abs(p_r - p_star), abs(p_b - p_star)) > CONVERGENCE_TOL:
                return f"t={t}: strategies not at the equilibrium {p_star}"
            prev = (p_r, p_b)
        summary = json.loads(parts[1])
        if summary["kind"] != "protocol2" or abs(summary["reference_p"] - p_star) > CSV_TOL:
            return "summary reference does not match the closed-form equilibrium"
        if (summary["final_p_r"], summary["final_p_b"]) != (float(body[-1][1]), float(body[-1][2])):
            return "summary final strategies do not match the trace"
        if not 0.0 <= summary["max_deviation"] <= CONVERGENCE_TOL:
            return f"summary max_deviation {summary['max_deviation']}"
        return None


class MonteCarloWorkload:
    """``blockmodel.sample_adjacency`` then ``game.realized_utility_rec_all`` over a batch of snapshots.

    The output is the red community's mean realized utility per snapshot,
    as float64 bytes. Its closed-form check compares the batch mean with
    ``expected_utility_rec`` within criterion 5's tolerance 3·se + 2/n.
    """

    name = "mc-utility"
    pool = 48
    probes = 5
    count_units = 24
    why = ("dense numpy utility kernel behind criterion 5; bypasses graph and recommender, "
           "so a graph-representation change should not move it")

    def inputs(self, seed: int) -> list[tuple[float, float, float, int]]:
        return [MC_POINTS[j % len(MC_POINTS)] + (unit_seed(self.name, seed, j),) for j in range(self.pool)]

    def call(self, inp, out_dir: Path) -> np.ndarray:
        p_r, p_b, c, useed = inp
        rng = np.random.default_rng(useed)
        m = blockmodel.block_matrix(StrategyPair(p_r, p_b), MC_N)
        means = np.empty(MC_SNAPSHOTS)
        for k in range(MC_SNAPSHOTS):
            adj = blockmodel.sample_adjacency(m, MC_N, rng)
            means[k] = game.realized_utility_rec_all(adj, MC_N, c)[:MC_N].mean()
        return means

    def outputs(self, inp, result: np.ndarray, out_dir: Path) -> tuple[bytes, ...]:
        return (result.astype("<f8").tobytes(),)

    def closed_form_error(self, inp, parts) -> str | None:
        p_r, p_b, c, _ = inp
        means = np.frombuffer(parts[0], dtype="<f8")
        expected = expected_utility_rec(StrategyPair(p_r, p_b), c, PlayerRole.RED)
        se = float(means.std(ddof=1) / math.sqrt(len(means)))
        err = abs(float(means.mean()) - expected)
        if not err <= 3 * se + 2.0 / MC_N:
            return f"({p_r},{p_b},{c}): |mean - expected| = {err:.4f} > 3se + 2/n = {3 * se + 2 / MC_N:.4f}"
        return None


class OpinionWorkload:
    """``opinion.run_opinion`` at its default config; the output is the trace CSV."""

    name = "opinion"
    pool = 16
    probes = 5
    count_units = 4
    why = ("scalar Python micro-step loop of the opinion model; the only workload that measures opinion "
           "and it touches none of the two-community code")

    def inputs(self, seed: int) -> list[OpinionConfig]:
        # Units alternate with and without the recommender reward.
        return [OpinionConfig(with_recommender=j % 2 == 0, seed=unit_seed(self.name, seed, j))
                for j in range(self.pool)]

    def call(self, cfg: OpinionConfig, out_dir: Path):
        return opinion.run_opinion(cfg)

    def outputs(self, cfg: OpinionConfig, records, out_dir: Path) -> tuple[bytes, ...]:
        buf = io.StringIO()
        write_opinion_csv(records, buf)
        return (buf.getvalue().encode("utf-8"),)

    def closed_form_error(self, cfg: OpinionConfig, parts) -> str | None:
        rows = list(csv.reader(io.StringIO(parts[0].decode("utf-8"))))
        if tuple(rows[0]) != OPINION_CSV_COLUMNS:
            return f"opinion header {rows[0]}"
        body = rows[1:]
        if [int(r[0]) for r in body] != list(range(0, cfg.horizon + 1, cfg.record_every)):
            return "opinion steps are not 0..horizon by record_every"
        for r in body:
            seg, n_plus, n_minus, gap = float(r[1]), int(r[2]), int(r[3]), float(r[4])
            if n_plus < 0 or n_minus < 0 or n_plus + n_minus != cfg.n_agents:
                return f"step {r[0]}: opinion counts {n_plus}+{n_minus}"
            if not 0.0 <= seg <= 1.0 or (min(n_plus, n_minus) == 0 and seg != 1.0):
                return f"step {r[0]}: segregation {seg}"
            if not (math.isfinite(gap) and gap >= 0.0):
                return f"step {r[0]}: mean_q_gap {gap}"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        ProtocolWorkload(
            "protocol-n200", n=200, c_cycle=(0.8,), pool=16, probes=3, count_units=2,
            why="large-graph protocol run; recommender pass and set-of-sets graph build dominate",
        ),
        ProtocolWorkload(
            "protocol-n20", n=20, c_cycle=SWEEP_C, pool=200, probes=5, count_units=50,
            why="per-run shape of sweep_c and run batches; fixed per-call costs dominate",
        ),
        MonteCarloWorkload(),
        OpinionWorkload(),
    )
}
