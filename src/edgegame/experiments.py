"""Scenario definitions, config parsing, and batch execution.

A plain-text config holds one ``[scenario <name>]`` section per run with
``key = value`` lines. The schema is closed: unknown kinds, unknown keys
and bad values are hard errors that name the offending line, and keys left
out take their defaults; ``check_scenario`` holds a ``ScenarioSpec`` built
by hand to the same keys and defaults. Each scenario kind is declared once,
by the ``_declares`` decorator on its runner, which names the kind's keys;
the parser, the CLI and ``run_scenario`` all read that table, ``KINDS``.
Runners call the library's constructors and checks directly; while a
scenario is checked, ``check_scenario`` turns a ValueError about a field
into a ConfigError naming its key, by the one table ``_KEY_OF_FIELD``.
``make_spec`` is the only way a spec is built from text: ``parse_config``
and the CLI both return what it builds. Each scenario writes a data CSV
plus a JSON summary into the output directory, every file through
``_create``, and only after its values have been checked; re-running a
scenario with the same spec reproduces the files bit for bit. Wall times
go only to ``<name>.timings.json``, which the bench kind writes.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Callable, Iterator, NamedTuple

import numpy as np

from .dynamics import (
    ProtocolConfig,
    SemiMarkovChain,
    format_float,
    run_protocol,
    verify_myopic_optimality,
    write_rows,
    write_trace_csv,
)
from .blockmodel import StrategyPair, block_matrix, sample_adjacency
from .checks import integer, probability
from .game import iterated_dominance, nash_equilibrium
from .opinion import OpinionConfig, run_opinion, tail_mean_segregation, write_opinion_csv
from .recommender import recommend_stack
from .seeding import child_seed, substream


class ConfigError(Exception):
    """Raised for any malformed scenario configuration."""


def _round9(x: float) -> float:
    """``x`` rounded to the 9 significant digits the CSVs carry, for summaries."""
    return float(format_float(x))


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
    "floats": _parse_floats,
    "ints": _parse_ints,
    "matrix": _parse_matrix,
}

_COMMON_KEYS: dict[str, tuple[str, object]] = {"seed": ("int", 0)}


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, fully-typed scenario ready to run."""

    name: str
    kind: str
    params: dict


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
        """Every field but ``wall_time_s``, each float by ``_round9`` and ``files`` sorted."""
        out = {k: _round9(v) if isinstance(v, float) else v for k, v in vars(self).items()}
        del out["wall_time_s"]
        return {**out, "files": sorted(self.files)}


class ScenarioKind(NamedTuple):
    """A kind's keys, name -> (type, default), and its runner.

    ``run(params, csv_path, summary)`` is a generator that checks every
    value and yields once before it writes, so a rejected scenario leaves
    nothing. Resumed, it writes ``csv_path`` and fills ``summary``, which
    also carries the run's kind and seed; any other file it writes beside
    ``csv_path`` it lists in ``summary.files``.
    """

    schema: dict[str, tuple[str, object]]
    run: Callable[[dict, Path, RunSummary], Iterator[None]]


# Every scenario kind, in the order the CLI lists them; filled by ``_declares``.
KINDS: dict[str, ScenarioKind] = {}


def _declares(**schemas: dict[str, tuple[str, object]]):
    """Declare the decorated runner as the runner of each named kind, with that kind's keys."""

    def register(runner):
        for kind, schema in schemas.items():
            KINDS[kind] = ScenarioKind(schema, runner)
        return runner

    return register


def _schema(kind: str, keys, lines: dict[str, int]) -> dict[str, tuple[str, object]]:
    """Every key of ``kind``, name -> (type, default), the common ones first.

    An unknown kind, or a key of ``keys`` outside the schema, is a
    ConfigError; ``lines`` maps keys to their config lines, for the errors.
    """
    where = {key: f" (line {line})" for key, line in lines.items()}
    if kind not in KINDS:
        known = sorted(KINDS)
        raise ConfigError(f"unknown scenario kind {kind!r}{where.get('kind', '')}; known: {known}")
    schema = {**_COMMON_KEYS, **KINDS[kind].schema}
    for key in keys:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for kind {kind!r}{where.get(key, '')}")
    return schema


def make_spec(
    name: str, kind: str, raw: dict[str, str], lines: dict[str, int] | None = None
) -> ScenarioSpec:
    """Scenario ``name`` of ``kind``, each raw value typed; absent keys take their defaults.

    ``lines`` maps keys to the config lines they came from, for the errors.
    """
    lines = lines or {}
    schema = _schema(kind, raw, lines)
    params = {key: default for key, (_, default) in schema.items()}
    for key, text in raw.items():
        where = f" (line {lines[key]})" if key in lines else ""
        type_name, _ = schema[key]
        try:
            params[key] = _PARSERS[type_name](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}{where}") from None
    return ScenarioSpec(name, kind, params)


def check_scenario_name(name: str, where: str = "") -> str:
    """Return ``name`` if it is a plain file stem, else raise ConfigError.

    A scenario writes ``<name>.csv`` and ``<name>.summary.json``, so an empty
    name, ``.``, ``..`` or a name holding a path separator would write hidden
    files or leave the output directory, and one holding a NUL cannot be
    opened.
    """
    if name in ("", ".", "..") or any(c and c in name for c in (os.sep, os.altsep, "\0")):
        raise ConfigError(f"bad value for 'name': {name!r} is not a plain file stem{where}")
    return name


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
        specs.append(make_spec(name, raw.pop("kind").strip(), raw, lines))

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not (stripped.endswith("]") and stripped[1:-1].startswith("scenario ")):
                raise ConfigError(f"bad section header on line {lineno}: {stripped!r}")
            finish()
            name = check_scenario_name(stripped[1:-1][len("scenario "):].strip(), f" (line {lineno})")
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

# Library fields whose scenario key is spelled differently. A ValueError is
# about the field its message starts with, as ``checks`` words it, and
# ``check_scenario`` reports it as a ConfigError naming that field's key.
_KEY_OF_FIELD = {
    "n_per_community": "n",
    "acceptance": "c",
    "states": "c_states",
    "action_grid_size": "grid",
    "p_r": "p",
    "p_b": "p",
}


def _key_of(field_name: str) -> str:
    return _KEY_OF_FIELD.get(field_name, field_name)


def _listed(key: str, values) -> tuple:
    """``values`` as a tuple if it is a non-empty list or tuple, else a ConfigError naming ``key``."""
    if not (isinstance(values, (list, tuple)) and values):
        raise ConfigError(f"bad value for {key!r}: must be a non-empty list, got {values!r}")
    return tuple(values)


def _distinct(key: str, written) -> None:
    # results are keyed by these values as written, so a repeat would overwrite one
    if len(set(written)) < len(written):
        raise ConfigError(f"bad value for {key!r}: values must not repeat")


def _create(path: Path) -> IO[str]:
    """Open ``path`` for writing text; ``check_scenario``'s call has made its directory."""
    return path.open("w", encoding="utf-8", newline="")


def _write_rows(path: Path, columns: tuple[str, ...], rows: list) -> None:
    with _create(path) as fp:
        write_rows(fp, columns, rows)


# Runners call edgegame's functions through this module's globals at call
# time, never through references kept at import, so that rebinding a name
# here (as a tracer does) reaches every scenario.


@_declares(nash={"c": ("float", 0.8)})
def _nash(params: dict, csv_path: Path, summary: RunSummary) -> Iterator[None]:
    c = params["c"]
    result = nash_equilibrium(c)
    yield
    summary.final_p_r = result.strategy.p_r
    summary.final_p_b = result.strategy.p_b
    summary.reference_p = result.strategy.p_r
    summary.max_deviation = 0.0
    summary.extras = {"regime": result.regime.value, "c": c}
    intervals = iterated_dominance(c, 60) if result.regime.value == "integration" else [(1.0, 1.0)]
    rows = [(it, lo, hi) for it, (lo, hi) in enumerate(intervals, start=1)]
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
def _protocol(params: dict, csv_path: Path, summary: RunSummary) -> Iterator[None]:
    acceptance = params.get("c")
    if "c_states" in params:
        acceptance = SemiMarkovChain(
            params["c_states"], params["transition"], params["holding_time"], params["initial_state"]
        )
    cfg = ProtocolConfig(params["n"], params["horizon"], acceptance, summary.seed)
    if "c" in params:
        probability("c", cfg.acceptance)  # ProtocolConfig takes None: it runs protocol1
    yield
    records = run_protocol(cfg)
    with _create(csv_path) as fp:
        write_trace_csv(records, fp)
    last = records[-1]
    summary.final_p_r = last.p_r
    summary.final_p_b = last.p_b
    summary.final_segregation = last.segregation
    # The reference of a step is the equilibrium at its acceptance probability (c = 0 in protocol1).
    refs = {
        c: nash_equilibrium(0.0 if c is None else c).strategy.p_r
        for c in {r.c for r in records}
    }
    summary.reference_p = refs[last.c]
    tail = [r for r in records if r.t > last.t // 2]
    summary.max_deviation = max(abs(p - refs[r.c]) for r in tail for p in (r.p_r, r.p_b))


@_declares(sweep_c={
    "n": ("int", 20),
    "horizon": ("int", 20),
    "c_grid": ("floats", (0.6, 0.7, 0.8, 0.9, 1.0)),
    "seeds": ("int", 50),
})
def _sweep_c(params: dict, csv_path: Path, summary: RunSummary) -> Iterator[None]:
    integer("seeds", params["seeds"], 1)
    c_grid = [probability("c_grid", c) for c in _listed("c_grid", params["c_grid"])]
    _distinct("c_grid", [format_float(c) for c in c_grid])
    ProtocolConfig(params["n"], params["horizon"], None, summary.seed)  # checks n and horizon
    yield
    rows = []
    tails = {}
    for c_idx, c in enumerate(c_grid):
        per_seed = []
        for rep in range(params["seeds"]):
            seed = child_seed(summary.seed, "sweep", c_idx, rep)
            records = run_protocol(ProtocolConfig(params["n"], params["horizon"], c, seed))
            tail = [r.segregation for r in records if r.t > records[-1].t // 2]
            per_seed.append(float(np.mean(tail)))
        tails[c] = float(np.mean(per_seed))
        rows.append((c, tails[c], nash_equilibrium(c).strategy.p_r))
    _write_rows(csv_path, ("c", "mean_tail_segregation", "nash_p"), rows)
    summary.extras = {"mean_tail_segregation": {format_float(c): v for c, v in tails.items()}}


# OpinionConfig's fields under their keys, typed by their annotations; seed is the common key.
_OPINION_FIELDS = [f for f in fields(OpinionConfig) if f.name != "seed"]


@_declares(opinion={_key_of(f.name): (f.type, f.default) for f in _OPINION_FIELDS})
def _opinion(params: dict, csv_path: Path, summary: RunSummary) -> Iterator[None]:
    config = {f.name: params[_key_of(f.name)] for f in _OPINION_FIELDS}
    cfg = OpinionConfig(**config, seed=summary.seed)
    yield
    records = run_opinion(cfg)
    with _create(csv_path) as fp:
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
def _bench(params: dict, csv_path: Path, summary: RunSummary) -> Iterator[None]:
    seed = summary.seed
    sizes = [integer("sizes", n, 1) for n in _listed("sizes", params["sizes"])]
    _distinct("sizes", sizes)
    integer("repeats", params["repeats"], 1)
    p = params["p"]
    pair = StrategyPair(p, p)
    c = probability("c", params["c"])
    yield
    stacks = {}
    outcomes = {}
    for n in sizes:
        stacks[n] = sample_adjacency(block_matrix(pair, n), n, substream(seed, "bench", n))[None]
        # warmup pass doubles as the deterministic outcome record
        outcomes[n] = recommend_stack(stacks[n], (c,), substream(seed, "bench", n, "pass"))
    # rounds are interleaved across sizes and the per-size minimum kept,
    # so machine-load swings cannot distort one size's ratio
    seconds = {n: float("inf") for n in sizes}
    for _ in range(params["repeats"]):
        for n in sizes:
            pass_rng = substream(seed, "bench", n, "pass")
            start = time.perf_counter()
            recommend_stack(stacks[n], (c,), pass_rng)
            seconds[n] = min(seconds[n], time.perf_counter() - start)
    rows = [[n, len(outcomes[n].recommended), len(outcomes[n].accepted)] for n in sizes]
    _write_rows(csv_path, ("n", "recommended", "accepted"), rows)
    ratios = [seconds[b] / seconds[a] for a, b in zip(sizes, sizes[1:])]
    timings_path = csv_path.with_name(f"{csv_path.stem}.timings.json")
    with _create(timings_path) as fp:
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
def _verify_myopic(params: dict, csv_path: Path, summary: RunSummary) -> Iterator[None]:
    chain = SemiMarkovChain(
        params["c_states"], params["transition"], params["holding_time"], params["initial_state"]
    )
    report = verify_myopic_optimality(chain, params["gamma"], params["grid"], params["horizon"])
    yield
    rows = [(idx, c, a) for idx, (c, a) in enumerate(zip(chain.states, report.myopic_actions))]
    _write_rows(csv_path, ("state", "c", "myopic_action"), rows)
    summary.extras = {
        "myopic_value": _round9(report.myopic_value),
        "dp_value": _round9(report.dp_value),
        "gap": _round9(report.gap),
    }


def check_scenario(spec: ScenarioSpec, out_dir: str | Path = ".") -> Callable[[], RunSummary]:
    """Check every value of one scenario, writing nothing; return the call that runs it.

    A spec built by hand is held to its kind's keys, as a config file is,
    and keys it leaves out take their defaults. The call makes the output
    directory and writes the data CSV and the JSON summary. The summary on disk lists every file the
    scenario wrote except itself; the returned one also names
    ``<name>.summary.json``.
    """
    check_scenario_name(spec.name)
    schema = _schema(spec.kind, spec.params, {})
    params = {key: spec.params.get(key, default) for key, (_, default) in schema.items()}
    csv_path = Path(out_dir) / f"{spec.name}.csv"
    try:
        seed = integer("seed", params["seed"])
        summary = RunSummary(scenario=spec.name, kind=spec.kind, seed=seed)
        runner = KINDS[spec.kind].run(params, csv_path, summary)
        next(runner)
    except ValueError as exc:
        key = _key_of(str(exc).split(" ", 1)[0])
        if key not in params:
            raise
        raise ConfigError(f"bad value for {key!r}: {exc}") from None

    def run() -> RunSummary:
        t0 = time.perf_counter()
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        next(runner, None)  # resumes the runner after its one yield and runs it to its end
        summary.files.append(csv_path.name)
        summary.wall_time_s = time.perf_counter() - t0
        summary_path = csv_path.with_name(f"{spec.name}.summary.json")
        with _create(summary_path) as fp:
            json.dump(summary.to_json_dict(), fp, indent=2, sort_keys=True, allow_nan=False)
            fp.write("\n")
        summary.files.append(summary_path.name)
        return summary

    return run


def run_scenario(spec: ScenarioSpec, out_dir: str | Path = ".") -> RunSummary:
    """Check one scenario, then run it; see ``check_scenario``."""
    return check_scenario(spec, out_dir)()


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
