"""Config parsing, scenario execution, output files, and the CLI."""

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegame import experiments
from edgegame.cli import main
from edgegame.experiments import (
    KINDS,
    ConfigError,
    ScenarioSpec,
    parse_config,
    run_scenario,
    validate_params,
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- parsing -----------------------------------------------------------------


def test_parse_minimal_scenario_fills_defaults():
    specs = parse_config("[scenario a]\nkind = protocol2\nseed = 1\n")
    assert len(specs) == 1
    spec = specs[0]
    assert spec.name == "a"
    assert spec.kind == "protocol2"
    assert spec.params["n"] == 20
    assert spec.params["horizon"] == 20
    assert spec.params["c"] == 0.8
    assert spec.params["seed"] == 1


def test_parse_empty_file():
    assert parse_config("") == []
    assert parse_config("# only a comment\n\n") == []


def test_parse_unknown_kind():
    with pytest.raises(ConfigError, match="protocol9"):
        parse_config("[scenario a]\nkind = protocol9\n")


def test_parse_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[scenario a]\nkind = protocol2\nbogus = 1\n")


def test_parse_type_mismatch_names_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[scenario a]\nkind = protocol2\nn = not_a_number\n")


def test_parse_missing_kind():
    with pytest.raises(ConfigError, match="missing 'kind'"):
        parse_config("[scenario a]\nseed = 2\n")


def test_parse_duplicate_scenario_name():
    text = "[scenario a]\nkind = nash\n[scenario a]\nkind = nash\n"
    with pytest.raises(ConfigError, match="duplicate scenario name"):
        parse_config(text)


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("[scenario a]\nkind = nash\nc = 0.8\nc = 0.9\n")


def test_parse_key_outside_section():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("kind = nash\n")


def test_parse_matrix_and_lists():
    text = (
        "[scenario m]\n"
        "kind = protocol3\n"
        "c_states = 0.6,0.8,1.0\n"
        "transition = 0.2,0.8,0;0,0.5,0.5;1,0,0\n"
        "holding_time = 50\n"
    )
    spec = parse_config(text)[0]
    assert spec.params["c_states"] == (0.6, 0.8, 1.0)
    assert spec.params["transition"] == ((0.2, 0.8, 0.0), (0.0, 0.5, 0.5), (1.0, 0.0, 0.0))


def test_validate_params_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        validate_params("nonsense", {})


# Derandomized and bounded, so every run tries the same examples quickly.
FUZZ = settings(derandomize=True, max_examples=100, deadline=None)

# Values near the parsers' edges mixed with arbitrary text.
VALUE_TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["0", "-1", "0.5", "1e400", "nan", "-inf", "true", "1,2", "1,1", "0.5,0.5;1.0", ";", ","]),
    st.from_regex(r"[-0-9.,;e ]{0,12}", fullmatch=True),
)


@pytest.mark.parametrize("kind", list(KINDS))
@FUZZ
@given(data=st.data())
def test_any_value_text_parses_or_is_config_error(kind, data):
    keys = ["seed", "out", *KINDS[kind].schema]
    raw = data.draw(st.fixed_dictionaries({key: VALUE_TEXT for key in keys}))
    # one key at a time, since parsing stops at the first bad value
    for key, text in raw.items():
        try:
            validate_params(kind, {key: text})
        except ConfigError:
            pass


CONFIG_LINE = st.one_of(
    st.text(max_size=20),
    st.builds("[scenario {}]".format, st.text(max_size=6)),
    st.builds("kind = {}".format, st.one_of(st.sampled_from(sorted(KINDS)), st.text(max_size=6))),
    st.builds(
        "{} = {}".format,
        st.sampled_from(sorted({"seed", "out", *(k for kind in KINDS.values() for k in kind.schema)})),
        VALUE_TEXT,
    ),
)


@FUZZ
@given(st.lists(CONFIG_LINE, max_size=8).map("\n".join))
def test_any_config_text_parses_or_is_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


# --- scenario execution ----------------------------------------------------------


def test_nash_scenario_summary(tmp_path):
    spec = ScenarioSpec(name="eq", kind="nash", params={"c": 0.8, "seed": 0})
    summary = run_scenario(spec, tmp_path)
    assert summary.final_p_r == 0.75
    assert summary.reference_p == 0.75
    data = json.loads((tmp_path / "eq.summary.json").read_text())
    assert data["extras"]["regime"] == "integration"
    assert "wall" not in json.dumps(data)  # timings never reach the files
    # interval table converges to the reference
    lines = (tmp_path / "eq.csv").read_text().splitlines()
    last = lines[-1].split(",")
    assert abs(float(last[1]) - 0.75) < 1e-9
    assert abs(float(last[2]) - 0.75) < 1e-9


def test_protocol1_scenario(tmp_path):
    spec = ScenarioSpec(
        name="p1", kind="protocol1", params={"n": 10, "horizon": 10, "seed": 3}
    )
    summary = run_scenario(spec, tmp_path)
    assert (summary.final_p_r, summary.final_p_b) == (1.0, 1.0)
    assert summary.final_segregation == 1.0
    assert summary.reference_p == 1.0


def test_protocol2_scenario_max_deviation(tmp_path):
    spec = ScenarioSpec(
        name="p2", kind="protocol2", params={"n": 20, "horizon": 20, "c": 0.8, "seed": 5}
    )
    summary = run_scenario(spec, tmp_path)
    assert summary.reference_p == 0.75
    assert summary.max_deviation is not None and summary.max_deviation <= 1e-3


def test_sweep_scenario_reference_column(tmp_path):
    spec = ScenarioSpec(
        name="sweep",
        kind="sweep_c",
        params={
            "n": 10,
            "horizon": 12,
            "c_grid": (2.0 / 3.0, 0.8, 0.9, 1.0),
            "seeds": 3,
            "seed": 0,
        },
    )
    run_scenario(spec, tmp_path)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        c, _seg, nash_p = (float(x) for x in row.split(","))
        # the file carries 9 significant digits
        assert nash_p == float(format(1.0 / (3.0 * c) + 1.0 / 3.0, ".9g"))


def test_opinion_scenario_writes_trace(tmp_path):
    spec = ScenarioSpec(
        name="op",
        kind="opinion",
        params={
            "n_agents": 50,
            "radius": 0.25,
            "learning_rate": 0.05,
            "exploration": 0.1,
            "c": 0.9,
            "with_recommender": True,
            "horizon": 500,
            "record_every": 100,
            "seed": 1,
        },
    )
    summary = run_scenario(spec, tmp_path)
    assert (tmp_path / "op.csv").exists()
    assert summary.final_segregation is not None
    assert "tail_mean_segregation" in summary.extras


def test_verify_myopic_scenario(tmp_path):
    spec = ScenarioSpec(
        name="vm",
        kind="verify_myopic",
        params={
            "c_states": (0.6, 0.9),
            "transition": ((0.5, 0.5), (0.5, 0.5)),
            "holding_time": 1,
            "initial_state": 0,
            "gamma": 0.9,
            "grid": 201,
            "horizon": 50,
            "seed": 0,
        },
    )
    summary = run_scenario(spec, tmp_path)
    assert abs(summary.extras["gap"]) <= 1e-3 * abs(summary.extras["dp_value"])
    rows = (tmp_path / "vm.csv").read_text().splitlines()
    assert rows[0] == "state,c,myopic_action"
    assert len(rows) == 3


def _no_constant(name: str):
    raise ValueError(f"non-finite number {name} in strict JSON")


def test_bench_timings_stay_out_of_the_reproducible_files(tmp_path):
    # repeats changes only the wall times, so it must change only bench.timings.json
    sizes = (20, 30, 40)
    outs = {repeats: tmp_path / f"repeats{repeats}" for repeats in (1, 3)}
    for repeats, out in outs.items():
        params = {"sizes": sizes, "p": 0.75, "repeats": repeats, "c": 0.8, "seed": 0}
        summary = run_scenario(ScenarioSpec("bench", "bench", params), out)
        assert "bench.timings.json" in summary.files
    for fname in ("bench.csv", "bench.summary.json"):
        assert sha256(outs[1] / fname) == sha256(outs[3] / fname), fname
    assert (outs[1] / "bench.csv").read_text().splitlines()[0] == "n,recommended,accepted"
    for out in outs.values():
        text = (out / "bench.timings.json").read_text()
        timings = json.loads(text, parse_constant=_no_constant)
        assert list(timings["seconds"]) == [str(n) for n in sizes]
        seconds = list(timings["seconds"].values())
        assert all(math.isfinite(s) and s > 0 for s in seconds)
        assert timings["ratios"] == [b / a for a, b in zip(seconds, seconds[1:])]


def test_scenario_rerun_is_hash_identical(tmp_path):
    for name, kind, params in [
        ("p2", "protocol2", {"n": 10, "horizon": 10, "c": 0.8, "seed": 7}),
        ("eq", "nash", {"c": 0.9, "seed": 0}),
        (
            "op",
            "opinion",
            {
                "n_agents": 40,
                "radius": 0.2,
                "learning_rate": 0.05,
                "exploration": 0.1,
                "c": 0.9,
                "with_recommender": True,
                "horizon": 1000,
                "record_every": 100,
                "seed": 2,
            },
        ),
    ]:
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        spec = ScenarioSpec(name=name, kind=kind, params=params)
        sum_a = run_scenario(spec, out_a)
        sum_b = run_scenario(spec, out_b)
        for fname in sum_a.files:
            assert sha256(out_a / fname) == sha256(out_b / fname), (name, fname)
        assert sum_b.files == sum_a.files


# --- CLI ---------------------------------------------------------------------


def test_cli_nash(tmp_path, capsys):
    code = main(["nash", "--c", "0.8", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "reference=0.75" in out
    assert (tmp_path / "nash.summary.json").exists()


def test_cli_run_config(tmp_path, capsys):
    cfg = tmp_path / "scenarios.txt"
    cfg.write_text(
        "[scenario demo]\nkind = protocol2\nseed = 1\nhorizon = 12\nn = 10\n"
        "\n[scenario eq]\nkind = nash\nc = 0.7\n"
    )
    code = main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert (tmp_path / "out" / "demo.csv").exists()
    assert (tmp_path / "out" / "eq.summary.json").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("[scenario x]\nkind = protocol9\n")
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_is_config_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.txt")]) == 2


def test_cli_bad_flag_value_is_config_error(tmp_path, capsys):
    code = main(["protocol2", "--n", "abc", "--out-dir", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize(
    "argv, key",
    [
        (["protocol2", "--c", "1.5"], "c"),
        (["protocol2", "--c", "inf"], "c"),
        (["protocol2", "--n", "0"], "n"),
        (["nash", "--c", "nan"], "c"),
        (["opinion", "--horizon", "0"], "horizon"),
        (["sweep-c", "--seeds", "0"], "seeds"),
        (["bench", "--repeats", "0"], "repeats"),
        (["sweep-c", "--c-grid", "0.7,0.7", "--seeds", "2", "--n", "6", "--horizon", "6"], "c_grid"),
        (["bench", "--sizes", "10,10", "--repeats", "1"], "sizes"),
        (["protocol3", "--c-states", "0.6,0.9", "--transition", "0.5,0.5;1.0"], "transition"),
        # distinct as floats, but both are written as 0.7
        (["sweep-c", "--c-grid", "0.7,0.7000000001", "--seeds", "2", "--n", "6", "--horizon", "6"], "c_grid"),
        (["bench", "--c", "1.5", "--sizes", "10", "--repeats", "1"], "c"),
        (["sweep-c", "--c-grid", "0.7,1.5", "--seeds", "2", "--n", "6", "--horizon", "6"], "c_grid"),
    ],
)
def test_cli_out_of_range_value_is_config_error(tmp_path, capsys, argv, key):
    # these exited 1, wrote NaN into the summary, or kept one of two
    # results for a repeated value, before they were checked as configuration
    code = main(argv + ["--out-dir", str(tmp_path)])
    assert code == 2
    assert f"bad value for {key!r}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.summary.json"))


def test_sweep_c_checks_every_c_before_the_first_run(tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(experiments, "run_protocol", runs.append)
    assert main(["sweep-c", "--c-grid", "0.7,1.5", "--out-dir", str(tmp_path)]) == 2
    assert runs == []


@FUZZ
@given(VALUE_TEXT)
def test_cli_nash_any_c_exits_0_or_2(tmp_path_factory, c_text):
    out = tmp_path_factory.getbasetemp() / "nash-fuzz"
    try:
        code = main(["nash", "--c", c_text, "--out-dir", str(out)])
    except SystemExit as exc:  # argparse takes a value like "-x" for a flag
        code = exc.code
    assert code in (0, 2)


def test_cli_env_var_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EDGEGAME_OUT_DIR", str(tmp_path / "env_out"))
    code = main(["nash", "--c", "0.8"])
    assert code == 0
    assert (tmp_path / "env_out" / "nash.summary.json").exists()


def test_cli_flag_wins_over_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EDGEGAME_OUT_DIR", str(tmp_path / "env_out"))
    code = main(["nash", "--c", "0.8", "--out-dir", str(tmp_path / "flag_out")])
    assert code == 0
    assert (tmp_path / "flag_out" / "nash.summary.json").exists()
    assert not (tmp_path / "env_out").exists()
