"""Scenario definitions, config parsing, and batch execution.

A plain-text config holds one ``[scenario <name>]`` section per run with
``key = value`` lines. The schema is closed: unknown kinds, unknown keys
and bad values are hard errors that name the offending line, and keys left
out take their defaults. Each scenario kind is declared once, by the
``_declares`` decorator on its runner, which names the kind's keys; the
parser, the CLI and ``run_scenario`` all read that table, ``KINDS``. Each
scenario writes a data CSV plus a JSON summary into the output directory;
re-running a scenario with the same spec reproduces the files bit for bit.
Wall times go only to ``<name>.timings.json``, which the bench kind writes.
"""

from __future__ import annotations

import csv
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import (
    ProtocolConfig,
    SemiMarkovChain,
    format_float,
    run_protocol,
    verify_myopic_optimality,
    write_trace_csv,
)
from .blockmodel import StrategyPair, block_matrix, sample_snapshot
from .game import iterated_dominance, nash_equilibrium
from .opinion import OpinionConfig, run_opinion, tail_mean_segregation, write_opinion_csv
from .recommender import run_recommender
from .seeding import child_seed, substream


class ConfigError(Exception):
    """Raised for any malformed scenario configuration."""


def _round9(x: float | None) -> float | None:
    """``x`` rounded to the 9 significant digits the CSVs carry, for summaries."""
    return None if x is None else float(format_float(x))


# --- schema ---------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _parse_matrix(text: str) -> tuple[tuple[float, ...], ...]:
    rows = tuple(_parse_floats(row) for row in text.split(";"))
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"matrix rows differ in length: {text.strip()!r}")
    return rows


_PARSERS: dict[str, Callable[[str], object]] = {
    "int": int,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": str.strip,
    "floats": _parse_floats,
    "ints": _parse_ints,
    "matrix": _parse_matrix,
}

_COMMON_KEYS: dict[str, tuple[str, object]] = {
    "seed": ("int", 0),
    "out": ("str", None),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, fully-typed scenario ready to run."""

    name: str
    kind: str
    params: dict
    output_path: str | None = None


@dataclass
class RunSummary:
    """What a scenario produced, with an independent equilibrium reference.

    ``reference_p`` always comes from ``nash_equilibrium``, never from the
    trace; ``max_deviation`` is the largest distance of either strategy
    from the per-step reference over the trace tail (t > horizon/2).
    ``wall_time_s`` is kept out of the on-disk summary so files stay
    reproducible.
    """

    scenario: str
    kind: str
    seed: int
    final_p_r: float | None = None
    final_p_b: float | None = None
    final_segregation: float | None = None
    reference_p: float | None = None
    max_deviation: float | None = None
    wall_time_s: float = 0.0
    extras: dict = field(default_factory=dict)
    files: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "seed": self.seed,
            "final_p_r": _round9(self.final_p_r),
            "final_p_b": _round9(self.final_p_b),
            "final_segregation": _round9(self.final_segregation),
            "reference_p": _round9(self.reference_p),
            "max_deviation": _round9(self.max_deviation),
            "extras": self.extras,
            "files": sorted(self.files),
        }


class ScenarioKind(NamedTuple):
    """A kind's keys, name -> (type, default), and its runner.

    ``run(params, csv_path, summary)`` writes ``csv_path`` and fills
    ``summary``, which also carries the run's kind and seed; any other file
    it writes beside ``csv_path`` it lists in ``summary.files``.
    """

    schema: dict[str, tuple[str, object]]
    run: Callable[[dict, Path, RunSummary], None]


# Every scenario kind, in the order the CLI lists them; filled by ``_declares``.
KINDS: dict[str, ScenarioKind] = {}


def _declares(**schemas: dict[str, tuple[str, object]]):
    """Declare the decorated runner as the runner of each named kind, with that kind's keys."""

    def register(runner):
        for kind, schema in schemas.items():
            KINDS[kind] = ScenarioKind(schema, runner)
        return runner

    return register


def validate_params(kind: str, raw: dict[str, str], lines: dict[str, int] | None = None) -> dict:
    """Type-check raw string params against the keys of ``kind``; absent keys take their defaults."""
    lines = lines or {}
    if kind not in KINDS:
        where = f" (line {lines['kind']})" if "kind" in lines else ""
        raise ConfigError(f"unknown scenario kind {kind!r}{where}; known: {sorted(KINDS)}")
    schema = {**_COMMON_KEYS, **KINDS[kind].schema}
    params = {key: default for key, (_, default) in schema.items()}
    for key, text in raw.items():
        where = f" (line {lines[key]})" if key in lines else ""
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for kind {kind!r}{where}")
        type_name, _ = schema[key]
        try:
            params[key] = _PARSERS[type_name](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}{where}") from None
    return params


def parse_config(text: str) -> list[ScenarioSpec]:
    """Parse a scenario file into validated specs.

    Sections start with ``[scenario <name>]``; lines are ``key = value``;
    blank lines and ``#`` comments are ignored. Every error names the line
    it came from.
    """
    specs: list[ScenarioSpec] = []
    seen_names: set[str] = set()
    name = None
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    section_line = 0

    def finish():
        if name is None:
            return
        if "kind" not in raw:
            raise ConfigError(f"scenario {name!r} (line {section_line}) is missing 'kind'")
        kind = raw.pop("kind").strip()
        params = validate_params(kind, raw, lines)
        out = params.pop("out")
        specs.append(ScenarioSpec(name=name, kind=kind, params=params, output_path=out))

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not (stripped.endswith("]") and stripped[1:-1].startswith("scenario ")):
                raise ConfigError(f"bad section header on line {lineno}: {stripped!r}")
            finish()
            name = stripped[1:-1][len("scenario "):].strip()
            if not name:
                raise ConfigError(f"empty scenario name on line {lineno}")
            if name in seen_names:
                raise ConfigError(f"duplicate scenario name {name!r} on line {lineno}")
            seen_names.add(name)
            raw, lines, section_line = {}, {}, lineno
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value' on line {lineno}: {stripped!r}")
        if name is None:
            raise ConfigError(f"line {lineno} appears before any [scenario ...] header")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"duplicate key {key!r} on line {lineno}")
        raw[key] = value.strip()
        lines[key] = lineno
    finish()
    return specs


# --- execution --------------------------------------------------------------


def _checked(call: Callable, keys: dict[str, str], /, **fields):
    """``call(**fields)``, where a ValueError naming a field is a configuration error.

    The ConfigError names the scenario key each named field came from;
    ``keys`` maps fields to keys where the names differ. A ValueError that
    names none of the fields is not a configuration error and propagates.
    """
    try:
        return call(**fields)
    except ValueError as exc:
        named = [f for f in fields if re.search(rf"\b{f}\b", str(exc))]
        if not named:
            raise
        where = ", ".join(repr(keys.get(f, f)) for f in named)
        raise ConfigError(f"bad value for {where}: {exc}") from None


def _probability(key: str, c: float) -> float:
    if not 0.0 <= c <= 1.0:
        raise ConfigError(f"bad value for {key!r}: must be in [0, 1], got {c}")
    return c


def _at_least_one(key: str, values) -> None:
    if min(values) < 1:
        raise ConfigError(f"bad value for {key!r}: must be >= 1")


def _distinct(key: str, written) -> None:
    # results are keyed by these values as written, so a repeat would overwrite one
    if len(set(written)) < len(written):
        raise ConfigError(f"bad value for {key!r}: values must not repeat")


def _uniform_matrix(k: int) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(1.0 / k for _ in range(k)) for _ in range(k))


def build_chain(params: dict) -> SemiMarkovChain:
    states = params["c_states"]
    transition = params["transition"]
    if transition is None:
        transition = _uniform_matrix(len(states))
    return _checked(
        SemiMarkovChain,
        {"states": "c_states"},
        states=states,
        transition=transition,
        holding_time=params["holding_time"],
        initial_state=params["initial_state"],
    )


def _write_rows(path: Path, header: tuple[str, ...], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# Runners call edgegame's functions through this module's globals at call
# time, never through references kept at import, so that rebinding a name
# here (as a tracer does) reaches every scenario.


@_declares(nash={"c": ("float", 0.8)})
def _nash(params: dict, csv_path: Path, summary: RunSummary) -> None:
    c = params["c"]
    result = _checked(nash_equilibrium, {"acceptance": "c"}, acceptance=c)
    summary.final_p_r = result.strategy.p_r
    summary.final_p_b = result.strategy.p_b
    summary.reference_p = result.strategy.p_r
    summary.max_deviation = 0.0
    summary.extras = {"regime": result.regime.value, "c": c}
    rows: list[list] = []
    if result.regime.value == "integration":
        for it, (lo, hi) in enumerate(iterated_dominance(c, 60), start=1):
            rows.append([it, format_float(lo), format_float(hi)])
    else:
        rows.append([1, format_float(1.0), format_float(1.0)])
    _write_rows(csv_path, ("iteration", "b_low", "b_high"), rows)


# Defaults for protocol2 are the headline desk-scale setting (n=20,
# horizon=20, c=0.8).
@_declares(
    protocol1={"n": ("int", 20), "horizon": ("int", 20)},
    protocol2={"n": ("int", 20), "horizon": ("int", 20), "c": ("float", 0.8)},
    protocol3={
        "n": ("int", 20),
        "horizon": ("int", 1000),
        "c_states": ("floats", (0.6, 0.8, 1.0)),
        "transition": ("matrix", None),
        "holding_time": ("int", 100),
        "initial_state": ("int", 0),
    },
)
def _protocol(params: dict, csv_path: Path, summary: RunSummary) -> None:
    cfg = _checked(
        ProtocolConfig,
        {"n_per_community": "n"},
        n_per_community=params["n"],
        horizon=params["horizon"],
        acceptance=(
            _probability("c", params["c"]) if "c" in params
            else build_chain(params) if "c_states" in params
            else None
        ),
        seed=summary.seed,
    )
    records = run_protocol(cfg)
    with csv_path.open("w", encoding="utf-8", newline="") as fp:
        write_trace_csv(records, fp)
    last = records[-1]
    summary.final_p_r = last.p_r
    summary.final_p_b = last.p_b
    summary.final_segregation = last.segregation
    # The reference of a step is the equilibrium at its acceptance
    # probability, or full segregation (1) when there is none (protocol1).
    refs = {
        c: 1.0 if c is None else nash_equilibrium(c).strategy.p_r
        for c in {r.acceptance_probability for r in records}
    }
    summary.reference_p = refs[last.acceptance_probability]
    tail = [r for r in records if r.t > last.t // 2]
    summary.max_deviation = max(
        abs(p - refs[r.acceptance_probability]) for r in tail for p in (r.p_r, r.p_b)
    )


@_declares(sweep_c={
    "n": ("int", 20),
    "horizon": ("int", 20),
    "c_grid": ("floats", (0.6, 0.7, 0.8, 0.9, 1.0)),
    "seeds": ("int", 50),
})
def _sweep_c(params: dict, csv_path: Path, summary: RunSummary) -> None:
    _at_least_one("seeds", [params["seeds"]])
    _distinct("c_grid", [format_float(c) for c in params["c_grid"]])
    for c in params["c_grid"]:
        _probability("c_grid", c)
    rows = []
    tails = {}
    for c_idx, c in enumerate(params["c_grid"]):
        per_seed = []
        for rep in range(params["seeds"]):
            cfg = _checked(
                ProtocolConfig,
                {"n_per_community": "n"},
                n_per_community=params["n"],
                horizon=params["horizon"],
                acceptance=c,
                seed=child_seed(summary.seed, "sweep", c_idx, rep),
            )
            records = run_protocol(cfg)
            tail = [r.segregation for r in records if r.t > records[-1].t // 2]
            per_seed.append(float(np.mean(tail)))
        tails[c] = float(np.mean(per_seed))
        ref = nash_equilibrium(c).strategy.p_r
        rows.append([format_float(c), format_float(tails[c]), format_float(ref)])
    _write_rows(csv_path, ("c", "mean_tail_segregation", "nash_p"), rows)
    summary.extras = {"mean_tail_segregation": {format_float(c): v for c, v in tails.items()}}


@_declares(opinion={
    "n_agents": ("int", 100),
    "radius": ("float", 0.175),
    "learning_rate": ("float", 0.05),
    "exploration": ("float", 0.1),
    "c": ("float", 0.9),
    "with_recommender": ("bool", True),
    "horizon": ("int", 20000),
    "record_every": ("int", 100),
})
def _opinion(params: dict, csv_path: Path, summary: RunSummary) -> None:
    cfg = _checked(
        OpinionConfig,
        {"acceptance": "c"},
        n_agents=params["n_agents"],
        radius=params["radius"],
        learning_rate=params["learning_rate"],
        exploration=params["exploration"],
        acceptance=params["c"],
        with_recommender=params["with_recommender"],
        horizon=params["horizon"],
        record_every=params["record_every"],
        seed=summary.seed,
    )
    records = run_opinion(cfg)
    with csv_path.open("w", encoding="utf-8", newline="") as fp:
        write_opinion_csv(records, fp)
    summary.final_segregation = records[-1].segregation
    summary.extras = {
        "tail_mean_segregation": tail_mean_segregation(records),
        "with_recommender": cfg.with_recommender,
    }


@_declares(bench={
    "sizes": ("ints", (100, 200, 400, 800)),
    "p": ("float", 0.75),
    "repeats": ("int", 3),
    "c": ("float", 0.8),
})
def _bench(params: dict, csv_path: Path, summary: RunSummary) -> None:
    seed = summary.seed
    sizes = list(params["sizes"])
    _at_least_one("sizes", sizes)
    _distinct("sizes", sizes)
    _at_least_one("repeats", [params["repeats"]])
    p = params["p"]
    pair = _checked(StrategyPair, {"p_r": "p", "p_b": "p"}, p_r=p, p_b=p)
    c = _probability("c", params["c"])
    graphs = {}
    outcomes = {}
    for n in sizes:
        graphs[n] = sample_snapshot(block_matrix(pair, n), n, substream(seed, "bench", n))
        # warmup pass doubles as the deterministic outcome record
        outcomes[n] = run_recommender(graphs[n], c, substream(seed, "bench", n, "pass"))
    # rounds are interleaved across sizes and the per-size minimum kept,
    # so machine-load swings cannot distort one size's ratio
    seconds = {n: float("inf") for n in sizes}
    for _ in range(params["repeats"]):
        for n in sizes:
            pass_rng = substream(seed, "bench", n, "pass")
            start = time.perf_counter()
            run_recommender(graphs[n], c, pass_rng)
            seconds[n] = min(seconds[n], time.perf_counter() - start)
    rows = [[n, len(outcomes[n].recommended), len(outcomes[n].accepted)] for n in sizes]
    _write_rows(csv_path, ("n", "recommended", "accepted"), rows)
    ratios = [seconds[b] / seconds[a] for a, b in zip(sizes, sizes[1:])]
    timings_path = csv_path.with_name(f"{csv_path.stem}.timings.json")
    with timings_path.open("w", encoding="utf-8") as fp:
        json.dump({"seconds": seconds, "ratios": ratios}, fp, indent=2, allow_nan=False)
        fp.write("\n")
    summary.files.append(timings_path.name)


@_declares(verify_myopic={
    "c_states": ("floats", (0.6, 0.9)),
    "transition": ("matrix", ((0.5, 0.5), (0.5, 0.5))),
    "holding_time": ("int", 1),
    "initial_state": ("int", 0),
    "gamma": ("float", 0.9),
    "grid": ("int", 201),
    "horizon": ("int", 50),
})
def _verify_myopic(params: dict, csv_path: Path, summary: RunSummary) -> None:
    chain = build_chain(params)
    report = _checked(
        verify_myopic_optimality,
        {"action_grid_size": "grid"},
        chain=chain,
        gamma=params["gamma"],
        action_grid_size=params["grid"],
        horizon=params["horizon"],
    )
    rows = [
        [idx, format_float(c), format_float(a)]
        for idx, (c, a) in enumerate(zip(chain.states, report.myopic_actions))
    ]
    _write_rows(csv_path, ("state", "c", "myopic_action"), rows)
    summary.extras = {
        "myopic_value": _round9(report.myopic_value),
        "dp_value": _round9(report.dp_value),
        "gap": _round9(report.gap),
    }


def run_scenario(spec: ScenarioSpec, out_dir: str | Path = ".") -> RunSummary:
    """Execute one scenario and write its data CSV and JSON summary.

    The summary on disk lists every file the scenario wrote except itself;
    the returned summary's ``files`` also names ``<name>.summary.json``.
    """
    t0 = time.perf_counter()
    base = Path(spec.output_path) if spec.output_path else Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    summary = RunSummary(scenario=spec.name, kind=spec.kind, seed=spec.params.get("seed", 0))
    csv_path = base / f"{spec.name}.csv"
    KINDS[spec.kind].run(spec.params, csv_path, summary)
    summary.files.append(csv_path.name)

    summary.wall_time_s = time.perf_counter() - t0
    summary_path = base / f"{spec.name}.summary.json"
    with summary_path.open("w", encoding="utf-8") as fp:
        json.dump(summary.to_json_dict(), fp, indent=2, sort_keys=True, allow_nan=False)
        fp.write("\n")
    summary.files.append(summary_path.name)
    return summary


def summary_line(summary: RunSummary) -> str:
    parts = [f"scenario={summary.scenario}", f"kind={summary.kind}", f"seed={summary.seed}"]
    if summary.final_p_r is not None:
        parts.append(f"p=({format_float(summary.final_p_r)}, {format_float(summary.final_p_b)})")
    if summary.final_segregation is not None:
        parts.append(f"segregation={format_float(summary.final_segregation)}")
    if summary.reference_p is not None:
        parts.append(f"reference={format_float(summary.reference_p)}")
    if summary.max_deviation is not None:
        parts.append(f"max_dev={format_float(summary.max_deviation)}")
    parts.append(f"wall={summary.wall_time_s:.3f}s")
    return "  ".join(parts)
