"""Pinned bytes of protocol runs that span several stacks.

Criterion 12's golden runs are one stack each, drawn in the calling thread.
Here every protocol run is at n = 30 and horizon 40: 41 snapshots of 3,600
cells, in stacks of 18, 18 and 5, so ``run_protocol`` draws the second and
third on its executor thread. Every run is checked record for record
against the step-by-step reference, and pins are written only after that
check, so they hold checked bytes.

Re-pin only when outputs are meant to change:
    PYTHONPATH=src python tests/test_multistack.py
"""

import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from edgegame import dynamics, experiments
from edgegame.experiments import ScenarioSpec, run_scenario
from oracles import reference_run_protocol

PINS = Path(__file__).with_name("multistack_hashes.json")

SIZE = {"n": 30, "horizon": 40}
SCENARIOS = [
    ScenarioSpec("p1", "protocol1", {**SIZE, "seed": 1}),
    ScenarioSpec("p2", "protocol2", {**SIZE, "c": 0.8, "seed": 2}),
    ScenarioSpec("p3", "protocol3", {**SIZE, "seed": 3}),
    # the chain jumps after t = 5 and t = 11, inside the first stack, and
    # after t = 17, that stack's last step
    ScenarioSpec(
        "p3_jumps",
        "protocol3",
        {**SIZE, "c_states": (0.6, 0.9), "transition": ((0, 1), (1, 0)), "holding_time": 6, "seed": 4},
    ),
    ScenarioSpec("sweep", "sweep_c", {**SIZE, "seeds": 2, "seed": 5}),
]


def run_all(out_dir: Path):
    """Run every scenario into ``out_dir``; return its files' SHA-256 and its protocol runs.

    Each run is its config, its records and the sizes of the stacks it drew.
    """
    sampler = mock.Mock(wraps=dynamics.blockmodel.sample_adjacency)
    original = experiments.run_protocol
    runs = []

    def recording(cfg):
        before = sampler.call_count
        records = original(cfg)
        runs.append((cfg, records, [len(call.args[0]) for call in sampler.call_args_list[before:]]))
        return records

    digests = {}
    with (
        mock.patch.object(dynamics.blockmodel, "sample_adjacency", sampler),
        mock.patch.object(experiments, "run_protocol", recording),
    ):
        for spec in SCENARIOS:
            base = out_dir / spec.name
            for fname in sorted(run_scenario(spec, base).files):
                digests[f"{spec.name}/{fname}"] = hashlib.sha256((base / fname).read_bytes()).hexdigest()
    return digests, runs


def assert_runs_match_the_reference(runs) -> None:
    """Every protocol run, those of the sweep included, equals the step-by-step reference."""
    for cfg, records, _ in runs:
        assert records == reference_run_protocol(cfg)[0], cfg


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("multistack"))


def test_every_run_spans_three_stacks_and_matches_the_reference(outputs):
    runs = outputs[1]
    # one run per protocol scenario, then 5 c values times 2 seeds in the sweep
    assert [stacks for _, _, stacks in runs] == [[18, 18, 5]] * (4 + 10)
    jumps = runs[3][1]
    assert [r.t for r in jumps[1:] if r.c != jumps[r.t - 1].c] == [6, 12, 18, 24, 30, 36]
    assert_runs_match_the_reference(runs)


def test_multi_stack_outputs_match_the_pins(outputs):
    pinned = json.loads(PINS.read_text())
    if np.__version__ != pinned["numpy"]:
        pytest.skip(
            f"hashes were pinned under numpy {pinned['numpy']}, this is {np.__version__}; "
            "NEP 19 allows random streams to change between numpy versions"
        )
    assert outputs[0] == pinned["sha256"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests, runs = run_all(Path(tmp))
    # the pins record checked bytes, never merely current ones
    assert_runs_match_the_reference(runs)
    PINS.write_text(json.dumps({"numpy": np.__version__, "sha256": digests}, indent=1, sort_keys=True) + "\n")
