"""Command-line front end: one subcommand per scenario kind plus ``run``.

Exit codes: 0 on success, 2 for configuration errors, 1 for runtime
failures. The output directory comes from --out-dir, the EDGEGAME_OUT_DIR
environment variable, or ``./out``, in that order of precedence; an empty
flag or variable counts as unset. A config file is read as UTF-8, with or
without a byte-order mark.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiments import (
    KINDS,
    ConfigError,
    ScenarioSpec,
    check_scenario,
    make_spec,
    parse_config,
    run_scenario,
    summary_line,
)

DEFAULT_OUT_DIR = "out"


def _add_kind_parser(subparsers, kind: str) -> None:
    sub = subparsers.add_parser(kind.replace("_", "-"), help=f"run one '{kind}' scenario")
    sub.add_argument("--name", default=kind, help="scenario name (file stem)")
    sub.add_argument("--seed", default=None, metavar="V", help="master seed")
    sub.add_argument("--out-dir", default=None, help="output directory")
    for key in KINDS[kind].schema:
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, metavar="V")
    sub.set_defaults(kind=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgegame",
        description="Two-community edge-formation game simulator and analysis runner.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        _add_kind_parser(subparsers, kind)
    run_p = subparsers.add_parser("run", help="run every scenario in a config file")
    run_p.add_argument("config", help="path to the scenario config file")
    run_p.add_argument("--out-dir", default=None, help="output directory")
    run_p.set_defaults(command="run")
    return parser


def _out_dir(flag_value: str | None) -> str:
    return flag_value or os.environ.get("EDGEGAME_OUT_DIR") or DEFAULT_OUT_DIR


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    keys = ("seed", *KINDS[args.kind].schema)
    raw = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    return make_spec(args.name, args.kind, raw)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run_config(args)
        spec = _spec_from_args(args)
        summary = run_scenario(spec, _out_dir(args.out_dir))
        print(summary_line(summary))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_config(args: argparse.Namespace) -> int:
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    out_dir = _out_dir(args.out_dir)
    runs = []
    for spec in parse_config(text):  # every scenario is checked before the first runs
        try:
            runs.append(check_scenario(spec, out_dir))
        except ConfigError as exc:
            raise ConfigError(f"scenario {spec.name!r}: {exc}") from None
    for run in runs:
        print(summary_line(run()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
