#!/usr/bin/env python3
"""camplan benchmark: verified plans per second on fixed scenario families.

    python3 perfbench/run.py --workload bcpf-140-r30 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; camplan is imported from its `src/`.
One process, one thread, closed loop: set-up generates the workload's scenario
documents from the seed, then the solve phase takes them in turn (parse ->
run_pipeline -> verify_solution -> serialize_solution) for about `--seconds`,
and at least until every scenario has been solved once and the first solved
again. Times are in reference seconds: each solve's wall time is corrected
for the shared host's speed around it, measured with calib.py.
The last line of standard output is the result as one JSON object: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
See NOTES.md beside this file for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from calib import REFERENCE_S, reference_seconds
from tracer import Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-traces"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
# Shared by every workload: a square area, sensor angles and the bcpf step.
AREA, MARGIN, AOV_DEG, PHI_DEG, EPS_A = 100.0, 3.0, 100.0, 90.0, 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    n_targets: int
    r_max: float
    n_obstacles: int
    algo: str
    scenarios: int  # fixed set size; one pass takes well under the run length


WORKLOADS = {w.name: w for w in (
    Workload("bcpf-140-r30", n_targets=140, r_max=30.0, n_obstacles=0, algo="bcpf", scenarios=10),
    Workload("bcpf-400-r10", n_targets=400, r_max=10.0, n_obstacles=0, algo="bcpf", scenarios=3),
    Workload("comprehensive-25-occluded", n_targets=25, r_max=20.0, n_obstacles=25,
             algo="comprehensive", scenarios=30),
)}


class BenchError(Exception):
    """The benchmark cannot produce a result; the run exits nonzero."""


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def load_camplan():
    """Import camplan from this checkout's `src/` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import camplan
        import camplan.cli  # noqa: F401 - run_pipeline and solution_f1 live here
    except ImportError as e:
        raise BenchError(f"cannot import camplan from {SRC}: {e}") from None
    if Path(camplan.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"camplan was imported from {camplan.__file__}, not from {SRC}")
    return camplan


def make_documents(cp, wl: Workload, seed: int) -> list[str]:
    sensor = cp.SensorSpec(aov_deg=AOV_DEG, r_min=0.0, r_max=wl.r_max, phi_deg=PHI_DEG)
    return [
        cp.serialize_scenario(cp.random_scenario(cp.GenParams(
            width=AREA, height=AREA, n_targets=wl.n_targets, n_obstacles=wl.n_obstacles,
            margin=MARGIN, seed=1000 * seed + k), sensor))
        for k in range(wl.scenarios)
    ]


def _import_seconds() -> float:
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import camplan; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout)


def setup(cp, wl: Workload, seed: int) -> tuple[list[str], float]:
    """Scenario documents and the median set-up time in reference seconds:
    importing camplan in a fresh interpreter plus generating and serializing
    the documents, each repeated SETUP_REPEATS times, with a reference sample
    before the first repetition and after each."""
    imports, gens, docs = [], [], None
    ref = reference_seconds()
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        t = time.perf_counter()
        again = make_documents(cp, wl, seed)
        generated = time.perf_counter() - t
        before, ref = ref, reference_seconds()
        speed = REFERENCE_S * 2.0 / (before + ref)
        imports.append(imported * speed)
        gens.append(generated * speed)
        if docs is not None and again != docs:
            raise BenchError("scenario generation is not deterministic for this seed")
        docs = again
    return docs, statistics.median(imports) + statistics.median(gens)


def solve(cp, wl: Workload, doc: str, span):
    """Document text to a verified, serialized plan."""
    with span("scenario.parse"):
        s = cp.parse_scenario(doc)
    with span("cli.run_pipeline"):
        res = cp.cli.run_pipeline(s, wl.algo, eps_a=EPS_A)
    with span("select.verify"):
        ok = cp.verify_solution(s, res.solution).ok
    with span("scenario.serialize"):
        text = cp.serialize_solution(res.solution)
    return s, res.solution, ok, text


def measure(cp, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    docs, setup_s = setup(cp, wl, seed)
    tracer = Tracer() if trace else None
    span = tracer.span if trace else (lambda name: nullcontext())
    first: list = [None] * len(docs)   # (scenario, solution, text, counters) of the first pass
    solve_times: list[float] = []      # wall seconds of each solve
    ref_times: list[float] = []        # the same at the reference machine speed
    refs = [reference_seconds()]       # reference samples, one before each solve and after the last
    ref_walls: list[float] = []        # wall time of taking each sample after a solve
    attempted = failed = verified = 0
    problems: list[str] = []

    with patched(tracer) if trace else nullcontext():
        t_start = time.perf_counter()
        k, last = 0, 0.0
        # Stop once the next solve would more likely end after `seconds` than
        # before, so runs end near `seconds` on average rather than past it.
        while k <= len(docs) or time.perf_counter() - t_start + last / 2 < seconds:
            i = k % len(docs)
            k += 1
            attempted += 1
            if trace:
                tracer.scenario = i
                root = len(tracer.spans)
            t = time.perf_counter()
            try:
                with span("solve"):
                    s, sol, ok, text = solve(cp, wl, docs[i], span)
            except Exception as e:  # noqa: BLE001 - a raising scenario is counted, not fatal
                failed += 1
                problems.append(f"scenario {i}: {type(e).__name__}: {e}")
                ok = None
            last = time.perf_counter() - t
            t = time.perf_counter()
            refs.append(reference_seconds())
            ref_walls.append(time.perf_counter() - t)
            speed = REFERENCE_S * 2.0 / (refs[-2] + refs[-1])
            solve_times.append(last)
            ref_times.append(last * speed)
            if ok is None:
                continue
            counts = tracer.close_solve(root) if trace else None
            if not ok:
                failed += 1
                problems.append(f"scenario {i}: plan failed verify_solution")
                continue
            verified += 1
            if first[i] is None:
                first[i] = (s, sol, text, counts)
            elif text != first[i][2] or counts != first[i][3]:
                problems.append(f"scenario {i}: re-solve differs from the first solve")
        wall = time.perf_counter() - t_start

    if any(f is None for f in first):
        problems.append("some scenario never produced a verified plan")
    plans_per_ref_s = verified / sum(ref_times)
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "solve_samples": len(solve_times),
        "wall": {"plans_per_s": verified / (wall - sum(ref_walls)),
                 "solve_s.p50": statistics.median(solve_times),
                 "reference_s.p50": statistics.median(refs)},
    }
    if trace:
        result["metrics"] = layer_metrics(tracer, [f[3] for f in first if f], plans_per_ref_s,
                                          sum(ref_walls[:-1]))
        tracer.write(TRACE_DIR / f"{wl.name}-seed{seed}.json")
        result["trace_file"] = str((TRACE_DIR / f"{wl.name}-seed{seed}.json").relative_to(ROOT))
    else:
        done = [f for f in first if f]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {
            "plans_per_ref_s": {"value": plans_per_ref_s, "unit": "1/s"},
            "solve_ref_s.p50": {"value": statistics.median(ref_times), "unit": "s"},
            "cameras_total": {"value": sum(len(sol.placements) for _, sol, _, _ in done),
                              "unit": "count"},
            "total_f1_rad": {"value": sum(cp.cli.solution_f1(s, sol) for s, sol, _, _ in done),
                             "unit": "rad"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    return result


def layer_metrics(tracer, first_counts: list[dict], traced_plans_per_ref_s: float,
                  ref_wall: float) -> dict:
    """Per-layer metrics: self times as wall seconds per solve over every
    traced solve; work counts summed over the first pass of the fixed
    scenarios. `trace.between_solves.s` is the time between one solve span
    and the next, less the reference samples taken there (`ref_wall` in all),
    which is the tracer's counting and the output checks."""
    selfs = tracer.self_times()
    roots = [s for s in tracer.spans if s.name == "solve"]
    solves = len(roots)
    pipeline = sum(s.end - s.start for s in tracer.spans if s.name == "cli.run_pipeline")
    between = sum(b.start - a.end for a, b in zip(roots, roots[1:])) - ref_wall

    def per_solve(name):
        return selfs.get(name, 0.0) / solves

    def total(span_name, key):
        return sum(c[span_name][key] for c in first_counts)

    points = total("sweep.points", "points")
    pairs = total("sweep.points", "coverable_pairs")
    rounds = total("select.greedy", "rounds")
    metrics = {
        "scenario.parse.s": (per_solve("scenario.parse"), "s"),
        "model.validate.s": (per_solve("model.validate"), "s"),
        "discretize.candidates.s": (per_solve("discretize.candidates"), "s"),
        "discretize.points": (total("discretize.candidates", "points"), "count"),
        "discretize.useful_point_ratio": (total("sweep.points", "useful_points") / points, "ratio"),
        "sweep.index.s": (per_solve("sweep.index"), "s"),
        "sweep.points.s": (per_solve("sweep.points"), "s"),
        "sweep.coverable_pairs": (pairs, "count"),
        "sweep.configs": (total("sweep.points", "configs"), "count"),
        "sweep.us_per_pair": (1e6 * per_solve("sweep.points") * len(first_counts) / pairs, "us"),
        "sweep.wide_point_ratio": (total("sweep.points", "wide_points") / points, "ratio"),
        "select.greedy.s": (per_solve("select.greedy"), "s"),
        "select.rounds": (rounds, "count"),
        "select.configs_in": (total("select.greedy", "configs_in"), "count"),
        "select.greedy_s_per_round": (per_solve("select.greedy") * len(first_counts) / rounds, "s"),
        "select.verify.s": (per_solve("select.verify"), "s"),
        "scenario.serialize.s": (per_solve("scenario.serialize"), "s"),
        "cli.unattributed.s": (per_solve("cli.run_pipeline"), "s"),
        "cli.pipeline.s": (pipeline / solves, "s"),
        "trace.plans_per_ref_s": (traced_plans_per_ref_s, "1/s"),
        "trace.between_solves.s": (between / max(solves - 1, 1), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def environment(cp, seed: int, threads: dict) -> dict:
    import numpy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "threads": threads, "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads = pin_threads()
    try:
        cp = load_camplan()
        wl = WORKLOADS[args.workload]
        result = measure(cp, wl, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    info = {"workload": wl.name, "scenarios": wl.scenarios, "trace": args.trace,
            "solve_s.samples": result["solve_samples"], "wall": result["wall"],
            "problems": result["problems"],
            **environment(cp, args.seed, threads)}
    if "trace_file" in result:
        info["trace_file"] = result["trace_file"]
    print("info " + json.dumps(info))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
