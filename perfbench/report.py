#!/usr/bin/env python3
"""Print every metric of every workload for one seed, untraced and traced.

    python3 perfbench/report.py --seed 1 [--seconds 35]

Runs perfbench/run.py once per workload with --trace 0 and then --trace 1,
one process at a time, from the root of the checkout. Prints the end-to-end
metrics plus failed_ratio (failed / attempted) and the uncorrected
wall-clock figures, each layer's self time with its share of the traced solve
(the sum of the layer self times), and the tracing overhead, taken as
1 - traced / untraced plans_per_ref_s on the same seed. Exits nonzero when a
run fails, is not correct, or cameras_total differs from the traced
select.rounds.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.strip().splitlines()
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return {**json.loads(lines[-1]), "wall": info["wall"]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    ok = True
    for w in spec["workloads"]:
        plain = run(w["name"], args.seed, args.seconds, 0)
        traced = run(w["name"], args.seed, args.seconds, 1)
        e2e, layer = plain["metrics"], traced["metrics"]
        print(f"== {w['name']} seed {args.seed}: {w['why']}")
        for name, m in e2e.items():
            print(f"  {name:32s} {m['value']:12.6g} {m['unit']}")
        print(f"  {'failed_ratio':32s} {plain['failed'] / plain['attempted']:12.6g} ratio")
        for name, value in plain["wall"].items():
            print(f"  {'wall ' + name:32s} {value:12.6g} {'1/s' if '_per_' in name else 's'}")
        solve = sum(m["value"] for name, m in layer.items() if name.endswith(".s")
                    and not name.startswith("trace.") and name != "cli.pipeline.s")
        for name, m in layer.items():
            share = f"{m['value'] / solve:7.1%}" if name.endswith(".s") else ""
            print(f"  {name:32s} {m['value']:12.6g} {m['unit']:6s} {share}")
        overhead = 1.0 - layer["trace.plans_per_ref_s"]["value"] / e2e["plans_per_ref_s"]["value"]
        print(f"  {'tracing overhead':32s} {overhead:12.3%} (traced vs untraced plans_per_ref_s)")
        if e2e["cameras_total"]["value"] != layer["select.rounds"]["value"]:
            print("  FAIL cameras_total differs from select.rounds")
            ok = False
        if not (plain["correct"] and traced["correct"]):
            print("  FAIL a run is not correct")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
