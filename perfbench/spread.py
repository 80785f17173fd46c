#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

The spread is the distance between the first and third quartile of the
values (``statistics.quantiles(values, n=4)``) as a share of their median,
and is compared with a third of the metric's bound in ``BENCHMARK.json``.

    python3 perfbench/spread.py --workload growth --seeds 10 --save out/growth.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the values and quartiles as JSON (path under perfbench/)")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(vals), "values": vals}
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            steady = spread < bound / 3.0
            ok = ok and steady
            verdict = f" bound {bound} -> {'steady' if steady else 'TOO WIDE'}"
        print(f"{name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{verdict}")
    if args.save:
        record = {"workload": args.workload, "metrics": summary}
        (Path(__file__).resolve().parent / args.save).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
