#!/usr/bin/env python3
"""Check the benchmark itself on minimum-size copies of its workloads.

    python3 perfbench/selftest.py

Exits nonzero and lists what failed when a metric named in BENCHMARK.json is
missing or has the wrong unit, a run is not correct, an exact counter differs
between two runs of the same seed, the run_pipeline glue is more than a small
share of the traced pipeline, or a traced call that goes missing is not
reported loudly.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

EXACT = ("discretize.points", "sweep.coverable_pairs", "sweep.configs", "select.rounds",
         "select.configs_in", "discretize.useful_point_ratio", "sweep.wide_point_ratio")
MAX_UNATTRIBUTED_SHARE = 0.05


def tiny(wl: run.Workload) -> run.Workload:
    return dataclasses.replace(wl, n_targets=min(wl.n_targets, 12),
                               n_obstacles=min(wl.n_obstacles, 4), scenarios=2)


def units(spec: list[dict]) -> dict:
    return {m["name"]: m["unit"] for m in spec}


def check_workload(cp, wl: run.Workload, spec: dict) -> list[str]:
    bad = []
    plain = run.measure(cp, wl, seed=0, seconds=0.0, trace=False)
    traced = [run.measure(cp, wl, seed=0, seconds=0.0, trace=True) for _ in range(2)]
    for label, res in (("untraced", plain), ("traced", traced[0]), ("traced again", traced[1])):
        if not res["correct"] or res["failed"] or res["attempted"] != wl.scenarios + 1:
            bad.append(f"{label} run: correct={res['correct']} attempted={res['attempted']} "
                       f"failed={res['failed']} {res['problems']}")
    for label, res, want in (("end_to_end", plain, units(spec["end_to_end"])),
                             ("per_layer", traced[0], units(spec["per_layer"]))):
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        if got != want:
            bad.append(f"{label} metrics {got} != BENCHMARK.json {want}")
    first, second = (t["metrics"] for t in traced)
    for name in EXACT:
        if first[name]["value"] != second[name]["value"]:
            bad.append(f"{name} differs between runs: {first[name]['value']} vs "
                       f"{second[name]['value']}")
    if plain["metrics"]["cameras_total"]["value"] != first["select.rounds"]["value"]:
        bad.append("cameras_total differs from select.rounds")
    if first["trace.between_solves.s"]["value"] < 0:
        bad.append("trace.between_solves.s is negative: reference samples miscounted")
    share = first["cli.unattributed.s"]["value"] / first["cli.pipeline.s"]["value"]
    if share > MAX_UNATTRIBUTED_SHARE:
        bad.append(f"cli.unattributed.s is {share:.1%} of the pipeline span")
    print(f"{wl.name}: unattributed share {share:.2%}, "
          f"{len(plain['metrics'])} + {len(first)} metrics")
    return [f"{wl.name}: {b}" for b in bad]


def check_loud_failures(cp) -> list[str]:
    bad = []
    t = tracer.Tracer()
    with t.span("solve"):
        with t.span("cli.run_pipeline"):
            pass
    try:
        t.close_solve(0)
        bad.append("a solve missing its layer spans was accepted")
    except RuntimeError:
        pass
    saved = cp.cli.sweep_points
    del cp.cli.sweep_points
    try:
        with tracer.patched(tracer.Tracer()):
            bad.append("patching a renamed call did not fail")
    except AttributeError:
        pass
    finally:
        cp.cli.sweep_points = saved
    return bad


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.pin_threads()
    cp = run.load_camplan()
    bad = []
    if set(run.WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        bad.append("run.WORKLOADS and BENCHMARK.json name different workloads")
    for wl in run.WORKLOADS.values():
        bad += check_workload(cp, tiny(wl), spec)
    bad += check_loud_failures(cp)
    for b in bad:
        print("FAIL " + b)
    print("selftest " + ("failed" if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
