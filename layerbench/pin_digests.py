"""Regenerate ``digests.json``: the SHA-256 of every pool input's outputs, for a range of seeds.

Run from the root of a checkout, only when the outputs are meant to change
(for example a new numpy with a different random stream, NEP 19):

    python3 layerbench/pin_digests.py --seeds 0-9

Each unit's outputs pass the closed-form checks before its digest is kept.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, as in 0-9")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    run.prepare_imports()
    import numpy

    from workloads import WORKLOADS, output_digest

    pinned = {"numpy": numpy.__version__, "python": sys.version.split()[0], "workloads": {}}
    for name, workload in sorted(WORKLOADS.items()):
        out_dir = run.OUT / f"{name}-pin"
        out_dir.mkdir(parents=True, exist_ok=True)
        by_seed = {}
        for seed in seeds:
            digests = []
            for j, inp in enumerate(workload.inputs(seed)):
                parts = workload.outputs(inp, workload.call(inp, out_dir), out_dir)
                error = workload.closed_form_error(inp, parts)
                if error is not None:
                    raise SystemExit(f"{name} seed {seed} input {j}: {error}")
                digests.append(output_digest(parts))
            by_seed[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
        pinned["workloads"][name] = {"pool": workload.pool, "seeds": by_seed}
    run.DIGESTS.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
