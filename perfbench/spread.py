"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload fleet_default --seeds 0-9

Runs ``BENCHMARK.json``'s command once per seed with its
``run_seconds`` and ``--trace 0``, then prints, per metric, the median
and the distance between the first and third quartile as a share of
the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound.  Exits 1 when a run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in config["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v:.4f}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values[name].append(value)
    for metric in config["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        print(
            f"{metric['name']:<14} median {median:10.4f}  spread "
            f"{(q3 - q1) / median:.4f}  bound {metric['bound']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
