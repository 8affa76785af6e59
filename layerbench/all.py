"""Run every workload in turn, one process each, and print their metrics side by side.

Run from the root of a checkout:

    python3 layerbench/all.py --seed 0 --seconds 25 --trace 0

Each workload's own report is printed as it finishes, then one table with
every metric by name and unit, one column per workload, and each
workload's failed units. Exits 1 if any workload's outputs failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = {}
    for name in run.WORKLOAD_NAMES:
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit {proc.returncode}\n{proc.stderr}", flush=True)
            results[name] = {"correct": False, "failed": "?", "attempted": "?", "metrics": {}}
        else:
            results[name] = json.loads(lines[-1])

    names = list(results)
    metrics = {m: r["metrics"][m]["unit"] for r in results.values() for m in r["metrics"]}
    print(f"\n{'metric':36s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for metric, unit in metrics.items():
        cells = (results[n]["metrics"].get(metric, {}).get("value") for n in names)
        print(f"{metric:36s} {unit:6s} " + " ".join("{:>14}".format("-" if v is None else f"{v:.6g}") for v in cells))
    print(f"{'failed/attempted':36s} {'':6s} "
          + " ".join(f"{results[n]['failed']}/{results[n]['attempted']:>}".rjust(14) for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
