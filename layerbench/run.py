"""Layered, outside-in benchmark for edgegame.

Run from the root of a checkout:

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the workload end to end with tracing off. ``--trace 1``
runs it untraced for half the time and traced for the other half, and
reports per-layer self times and work counts. Every unit's outputs are
checked. Report lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results, machine record included, go to
``.bench_out/results/`` and the spans of a traced run to ``.bench_out/spans/``.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("protocol-n200", "protocol-n20", "mc-utility", "opinion")
# The end-to-end phase runs at least this many units, so that the tail
# percentile (ten samples beyond it) always exists.
MIN_E2E_UNITS = 11
PROBE_TIMEOUT_S = 120
# Host speed. Wall times on a shared host swing by a third for tens of
# seconds at a time as other tenants load the machine, and every workload
# moves with it. A fixed pure-Python loop, timed between units, tracks
# that swing; each unit time is also reported at reference speed, i.e.
# scaled by REFERENCE_S over the loop's time around the unit.
REFERENCE_LOOP = 60_000
REFERENCE_S = 0.005
REFERENCE_EVERY_S = 0.25


def prepare_imports() -> None:
    """Put the checkout's ``src`` first on the path; numpy gets one thread."""
    # One process per workload and no extra threads: BLAS would otherwise
    # start a pool for the utility kernel's matrix products.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


# --- running units -------------------------------------------------------


@dataclass
class Phase:
    """Units run back to back until the time is up (a closed loop with one client)."""

    times: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)  # reference-loop time around each unit
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counts: list[dict[str, float]] = field(default_factory=list)

    def at_reference_speed(self) -> list[float]:
        return [t * REFERENCE_S / r for t, r in zip(self.times, self.reference_s)]


def reference_seconds() -> float:
    """Best of two timings of a fixed integer loop: the host's current speed."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP):
            acc = (acc * 31 + i) & 0xFFFF
        best = min(best, time.perf_counter() - t0)
    return best


class Checker:
    """Checks one unit's outputs: pinned digest where one exists, closed form always."""

    def __init__(self, workload, pinned: list[str] | None):
        self.workload = workload
        self.pinned = pinned

    def error(self, j: int, inp, result, out_dir: Path) -> str | None:
        from workloads import output_digest

        parts = self.workload.outputs(inp, result, out_dir)
        if self.pinned is not None and output_digest(parts) != self.pinned[j]:
            return f"input {j}: output digest differs from the pinned one"
        return self.workload.closed_form_error(inp, parts)


def _attempt(phase: Phase, j: int, inp, checker: Checker, out_dir: Path, call) -> bool:
    """Run one unit through ``call() -> (result, seconds)`` and check it; False if it failed."""
    phase.attempted += 1
    try:
        result, seconds = call()
        error = checker.error(j, inp, result, out_dir)
    except Exception as exc:  # a failing unit is counted, not fatal
        error = f"input {j}: {type(exc).__name__}: {exc}"
    if error is None:
        phase.times.append(seconds)
        return True
    phase.failed += 1
    if len(phase.errors) < 5:
        phase.errors.append(error)
    return False


def run_units(workload, inputs, checker: Checker, out_dir: Path, seconds: float,
              min_units: int, tracer=None, counter=None) -> tuple[Phase, Phase]:
    """Run units k = 0, 1, ... on input k mod pool until ``seconds`` have passed and ``min_units`` ran.

    Only the entry-point call is timed; output checks and work counts run
    between units. A unit fails when it raises or its check fails. With a
    tracer, each input runs twice in a row, untraced and then traced, so
    both sets of times see the same inputs and the same machine state; the
    wrappers are installed for the traced unit only. Returns the untraced
    and the traced phase.
    """
    plain, traced = Phase(), Phase()
    start = time.perf_counter()
    reference = [reference_seconds(), time.perf_counter()]  # last sample and when it was taken

    def sample_speed():
        # Units timed since the last sample get the mean of the samples around them.
        now = reference_seconds()
        for phase in (plain, traced):
            phase.reference_s += [(reference[0] + now) / 2] * (len(phase.times) - len(phase.reference_s))
        reference[:] = [now, time.perf_counter()]

    k = 0
    while k < min_units or time.perf_counter() - start < seconds:
        j = k % len(inputs)
        inp = inputs[j]

        def untraced_call():
            t0 = time.perf_counter()
            result = workload.call(inp, out_dir)
            return result, time.perf_counter() - t0

        _attempt(plain, j, inp, checker, out_dir, untraced_call)
        if tracer is not None:
            with tracer.installed():
                ok = _attempt(traced, j, inp, checker, out_dir,
                              lambda: tracer.run_unit(k, workload.call, inp, out_dir))
            if ok:
                traced.counts.append(counter(tracer, out_dir))
        if time.perf_counter() - reference[1] >= REFERENCE_EVERY_S:
            sample_speed()
        k += 1
    sample_speed()
    return plain, traced


# --- statistics ------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). Uses the nearest-rank
    definition, so the value is one of the samples.
    """
    ordered = sorted(times)
    n = len(ordered)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n - rank


def reference_summary(phase: Phase) -> str:
    quartiles = statistics.quantiles(phase.reference_s, n=4)
    return (f"reference loop {1e3 * statistics.median(phase.reference_s):.3f} ms median "
            f"(quartiles {1e3 * quartiles[0]:.3f}-{1e3 * quartiles[2]:.3f}), reference speed = {1e3 * REFERENCE_S:g} ms")


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- set-up ----------------------------------------------------------------


def setup_probe(workload_name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of its warm-up unit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload_name,
           "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


# --- machine record --------------------------------------------------------


def git_commit() -> str:
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


# --- main ------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", action="store_true",
                        help="set-up probe: import, make inputs, run one warm-up unit, print 'ready'")
    return parser.parse_args(argv)


def load_pinned(workload, seed: int, numpy_version: str) -> tuple[list[str] | None, str]:
    """Pinned digests for this workload and seed, and a line saying which checks run."""
    if not DIGESTS.is_file():
        return None, "closed-form checks only: no digest file"
    pinned = json.loads(DIGESTS.read_text())
    entry = pinned["workloads"].get(workload.name, {})
    digests = entry.get("seeds", {}).get(str(seed))
    if pinned["numpy"] != numpy_version:
        return None, (f"closed-form checks only: digests were pinned under numpy {pinned['numpy']}, "
                      f"this is numpy {numpy_version} (NEP 19 allows stream changes)")
    if digests is None or entry.get("pool") != workload.pool:
        return None, f"closed-form checks only: no digests pinned for seed {seed}"
    return digests, f"pinned digests (numpy {pinned['numpy']}) and closed-form checks"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgegame" / "__init__.py").is_file():
        print(f"error: {SRC / 'edgegame'} not found; run from the root of an edgegame checkout",
              file=sys.stderr)
        return 2
    prepare_imports()
    import edgegame

    if Path(edgegame.__file__).resolve().parent != (SRC / "edgegame").resolve():
        print(f"error: imported edgegame from {edgegame.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.probe:
        workload.call(inputs[0], out_dir)
        print("ready", flush=True)
        return 0

    machine = machine_record()
    pinned, check_note = load_pinned(workload, args.seed, numpy.__version__)
    checker = Checker(workload, pinned)
    warm, _ = run_units(workload, inputs, checker, out_dir, 0.0, 1)
    own_setup_s = time.perf_counter() - PROCESS_T0
    setups, setups_wall = [], []
    for _ in range(0 if args.trace else workload.probes):
        before = reference_seconds()
        setups_wall.append(setup_probe(workload.name, args.seed))
        setups.append(setups_wall[-1] * REFERENCE_S / ((before + reference_seconds()) / 2))
    phases = [warm]
    report: dict = {}
    metrics: dict = {}  # stays empty when no unit of a measured phase passed its check
    if args.trace == 0:
        e2e, _ = run_units(workload, inputs, checker, out_dir, args.seconds, MIN_E2E_UNITS)
        phases.append(e2e)
    if args.trace == 0 and e2e.times:
        at_ref = e2e.at_reference_speed()
        value, pct, beyond = tail(at_ref)
        wall_tail = tail(e2e.times)[0]
        metrics = {
            "units_per_s": (len(at_ref) / sum(at_ref), "1/s"),
            "unit_ms.p50": (1e3 * statistics.median(at_ref), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_mb(), "MB"),
        }
        # The tail is reported but not among the JSON metrics: short stalls
        # from other tenants, which the host-speed samples do not catch,
        # make it spread more between runs than any allowed bound.
        report["tail"] = (f"{'unit_ms.tail':32s} {1e3 * value:14.6g} {'ms':6s} wall: {1e3 * wall_tail:.6g}; "
                          f"p{pct}, {beyond} samples beyond, {len(at_ref)} samples")
        report["notes"] = {
            "units_per_s": f"wall: {len(e2e.times) / sum(e2e.times):.6g}",
            "unit_ms.p50": f"wall: {1e3 * statistics.median(e2e.times):.6g}",
            "setup_s": f"wall: {statistics.median(setups_wall):.6g}; median of {len(setups)} set-ups in fresh "
                       f"interpreters; this process, from its first statement: {own_setup_s:.3f}",
        }
        report["host_speed"] = reference_summary(e2e)
    if args.trace == 1:
        from layers import CAPTURES, count_unit, layer_metrics
        from tracer import Tracer

        tracer = Tracer(CAPTURES)
        untraced, traced = run_units(workload, inputs, checker, out_dir, args.seconds,
                                     workload.count_units, tracer=tracer, counter=count_unit)
        phases += [untraced, traced]
    if args.trace == 1 and untraced.times and traced.counts:
        metrics, table = layer_metrics(tracer, untraced, traced, workload.count_units)
        report["layers"] = table
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    machine["loadavg_end"] = os.getloadavg()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine,
              "checks": check_note, "failed_frac": failed / attempted,
              "errors": [e for p in phases for e in p.errors], **report, **result}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"# machine: nproc={machine['nproc']} python={machine['python']} numpy={machine['numpy']} "
          f"commit={machine['commit']} load={machine['loadavg_start']} -> {machine['loadavg_end']}")
    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# checks: {check_note}")
    if "host_speed" in report:
        print(f"# host speed: {report['host_speed']}; times below are at reference speed, wall times beside them")
    for error in record["errors"]:
        print(f"# FAILED {error}")
    for name, (value, unit) in metrics.items():
        note = report.get("notes", {}).get(name, "")
        print(f"{name:32s} {value:14.6g} {unit:6s} {note}")
    if "tail" in report:
        print(report["tail"])
    print(f"{'failed_frac':32s} {failed / attempted:14.6g} {'':6s} ({failed}/{attempted} units)")
    for line in report.get("layers", []):
        print(line)
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
