"""Command line interface.

Subcommands: generate, solve, verify, candidates, bench. Exit codes: 0 success,
1 verification failure, 2 parse/input error, 3 validation error, 4 infeasible,
5 a solve whose own verification failed or an internal geometry error.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .discretize import (CandidateSet, bcpf_sample, check_steps, comprehensive_candidates, fan_steps, grid_sample,
                         grid_shape)
from .geom import DegenerateError, bearing, wrap_pi
from .model import Scenario, SensorSpec, Solution, validate_scenario
from .scenario import (
    GenParams,
    PackingError,
    ParseError,
    ValidationFailure,
    check_params,
    parse_scenario,
    parse_solution,
    random_scenario,
    serialize_candidates,
    serialize_scenario,
    serialize_solution,
)
from .select import InfeasibleError, greedy_cover, verify_solution
from .sweep import sweep_points

EXIT_OK = 0
EXIT_UNCOVERED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_SELFCHECK = 5

EPS_A, GRID_EPS = 0.1, 2.0   # default bcpf angular step (radians) and grid spacing (meters)

CSV_COLUMNS = [
    "algo", "seed", "n", "aov_deg", "r_max", "eps_a", "eps_r", "grid_eps",
    "cameras", "runtime_ms", "candidates", "total_f1", "status",
]


@dataclass
class SolveResult:
    solution: Solution
    candidates: CandidateSet
    configs: int
    runtime_ms: float

    @property
    def cameras(self) -> int:
        return len(self.solution.placements)


def build_candidates(s: Scenario, algo: str, eps_a: float, eps_r: float | None,
                     grid_eps: float) -> CandidateSet:
    if algo == "comprehensive":
        return comprehensive_candidates(s)
    if algo == "bcpf":
        return bcpf_sample(s, eps_a=eps_a, eps_r=s.sensor.r_max if eps_r is None else eps_r)
    if algo == "grid":
        return grid_sample(s, grid_eps)
    raise ValueError(f"unknown algorithm {algo!r}")


def run_pipeline(s: Scenario, algo: str, *, eps_a: float = EPS_A, eps_r: float | None = None,
                 grid_eps: float = GRID_EPS, vd_mode: str = "f1") -> SolveResult:
    """Candidate generation, angular sweep, greedy selection. The reported
    runtime covers exactly these three stages."""
    t0 = time.perf_counter()
    cs = build_candidates(s, algo, eps_a, eps_r, grid_eps)
    configs = sweep_points(cs.points, s).table
    sol = greedy_cover(configs, s, vd_mode=vd_mode)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return SolveResult(solution=sol, candidates=cs, configs=len(configs), runtime_ms=runtime_ms)


def solution_f1(s: Scenario, sol: Solution) -> float:
    by_id = {t.id: t for t in s.targets}
    total = 0.0
    for tid, idx in sol.assignment.items():
        cam = sol.placements[idx]
        total += abs(wrap_pi(bearing(cam.position, by_id[tid].midpoint) - cam.vd))
    return total


# --- shared plumbing ---------------------------------------------------------

def _read_text(path: str) -> str:
    """The UTF-8 text of a file the command reads; any failure is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from e


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _sensor_from_args(args) -> SensorSpec:
    return SensorSpec(aov_deg=args.aov, r_min=args.r_min, r_max=args.r_max, phi_deg=args.phi)


def _check_sensor(width: float, height: float, sensor: SensorSpec) -> None:
    """Raise `ValidationFailure` when `solve` would reject every scenario of
    this area and sensor."""
    report = validate_scenario(Scenario(width, height, sensor, ()))
    if not report.ok:
        raise ValidationFailure(report)


def _add_sensor_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--aov", type=float, default=100.0, help="angle of view, degrees")
    p.add_argument("--r-min", type=float, default=0.0, help="minimum viewing range, meters")
    p.add_argument("--r-max", type=float, default=30.0, help="maximum viewing range, meters")
    p.add_argument("--phi", type=float, default=90.0, help="facing tolerance, degrees")


def _add_algo_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algo", choices=["comprehensive", "bcpf", "grid"], default="bcpf")
    p.add_argument("--eps-a", type=float, default=EPS_A, help="bcpf angular step, radians")
    p.add_argument("--eps-r", type=float, default=None,
                   help="bcpf radial step, meters (default: r_max, one outer ring)")
    p.add_argument("--grid-eps", type=float, default=GRID_EPS, help="grid spacing, meters")


# --- subcommands ----------------------------------------------------------------

def cmd_generate(args) -> int:
    params = GenParams(
        width=args.width, height=args.height, n_targets=args.n,
        target_width=args.target_width, min_separation=args.min_sep,
        n_obstacles=args.obstacles, margin=args.margin, seed=args.seed,
    )
    sensor = _sensor_from_args(args)
    _check_sensor(args.width, args.height, sensor)
    s = random_scenario(params, sensor)
    _write(args.out, serialize_scenario(s))
    return EXIT_OK


def cmd_solve(args) -> int:
    s = parse_scenario(_read_text(args.scenario))
    res = run_pipeline(s, args.algo, eps_a=args.eps_a, eps_r=args.eps_r,
                       grid_eps=args.grid_eps, vd_mode=args.vd_opt)
    report = verify_solution(s, res.solution)
    f1 = solution_f1(s, res.solution)
    print(f"cameras={res.cameras} runtime_ms={res.runtime_ms:.3f} "
          f"candidates={len(res.candidates)} configs={res.configs} total_f1={f1:.6f} "
          f"verified={'ok' if report.ok else 'FAILED'}")
    if args.out:
        _write(args.out, serialize_solution(res.solution))
    if not report.ok:
        for check in report.failures():
            print(f"  target {check.target_id}: {','.join(check.failed_clauses())}", file=sys.stderr)
        return EXIT_SELFCHECK
    return EXIT_OK


def cmd_verify(args) -> int:
    s = parse_scenario(_read_text(args.scenario))
    sol = parse_solution(_read_text(args.solution))
    known = {t.id for t in s.targets}
    stray = sorted(set(sol.assignment) - known)
    if stray:
        print(f"solution references unknown target ids: {stray}", file=sys.stderr)
        return EXIT_PARSE
    bad_idx = sorted(i for i in sol.assignment.values() if not 0 <= i < len(sol.placements))
    if bad_idx:
        print(f"solution references missing placements: {bad_idx}", file=sys.stderr)
        return EXIT_PARSE
    report = verify_solution(s, sol)
    for check in report.checks:
        if check.ok:
            print(f"target {check.target_id}: covered")
        else:
            print(f"target {check.target_id}: NOT COVERED ({','.join(check.failed_clauses())})")
    covered = [c.margins for c in report.checks if c.ok]
    if covered:
        print(f"slack: range_slack_min={min(m['range_slack'] for m in covered):.6g} "
              f"angular_slack_min={min(m['angular_slack'] for m in covered):.6g} "
              f"facing_angle_max={max(m['facing_angle'] for m in covered):.6g}")
    else:
        print("slack: no covered targets")
    print(f"verified={'ok' if report.ok else 'FAILED'} "
          f"({sum(c.ok for c in report.checks)}/{len(report.checks)} targets)")
    return EXIT_OK if report.ok else EXIT_UNCOVERED


def cmd_candidates(args) -> int:
    s = parse_scenario(_read_text(args.scenario))
    cs = build_candidates(s, args.algo, args.eps_a, args.eps_r, args.grid_eps)
    print(f"candidates={len(cs)} uncoverable={list(cs.uncoverable)}")
    if args.out:
        _write(args.out, serialize_candidates(cs))
    return EXIT_OK


# --- bench ------------------------------------------------------------------------

def _parse_algo_spec(spec: str) -> dict:
    """'bcpf:0.1', 'bcpf:0.1:5', 'grid:2' or 'comprehensive'."""
    name, *fields = spec.split(":")
    # each algorithm's fields, in spec order, with their defaults
    steps = {"comprehensive": {}, "bcpf": {"eps_a": EPS_A, "eps_r": None}, "grid": {"grid_eps": GRID_EPS}}.get(name)
    if steps is None:
        raise ValueError(f"unknown algorithm spec {spec!r}")
    if len(fields) > len(steps):
        raise ValueError(f"{name} takes at most {len(steps)} parameters: {spec!r}")
    out = {"algo": name, "eps_a": None, "eps_r": None, "grid_eps": None, **steps}
    out.update(zip(steps, map(float, fields)))
    return out


def _spec_steps(spec: dict) -> dict:
    """The sampling steps an algorithm spec names."""
    return {name: step for name, step in spec.items() if name != "algo" and step is not None}


def _bench_cell(params: GenParams, sensor: SensorSpec, spec: dict, seeds: list[int],
                vd_mode: str) -> list[dict]:
    """One (axis value x algorithm) cell: a discarded warmup, then every seed."""
    rows = []
    for k, seed in enumerate([seeds[0], *seeds]):
        base = {
            "algo": spec["algo"], "seed": seed, "n": params.n_targets,
            "aov_deg": sensor.aov_deg, "r_max": sensor.r_max,
            "eps_a": spec["eps_a"],
            "eps_r": (sensor.r_max if spec["eps_r"] is None and spec["algo"] == "bcpf"
                      else spec["eps_r"]),
            "grid_eps": spec["grid_eps"],
            "cameras": None, "runtime_ms": None, "candidates": None,
            "total_f1": None, "status": "ok",
        }
        try:
            s = random_scenario(replace(params, seed=seed), sensor)
            res = run_pipeline(s, spec["algo"], vd_mode=vd_mode, **_spec_steps(spec))
            base["cameras"] = res.cameras
            base["runtime_ms"] = round(res.runtime_ms, 3)
            base["candidates"] = len(res.candidates)
            base["total_f1"] = round(solution_f1(s, res.solution), 9)
            if not verify_solution(s, res.solution).ok:
                base["status"] = "verify-failed"
        except InfeasibleError as e:
            base["status"] = f"infeasible:{len(e.uncovered)}"
        except Exception as e:  # noqa: BLE001 - a cell failure must not kill the sweep
            # input this scene refuses, on which `solve` exits 3, or a fault
            refused = isinstance(e, ValueError) and not isinstance(e, DegenerateError)
            base["status"] = f"{'invalid' if refused else 'error'}:{type(e).__name__}"
        if k > 0:
            rows.append(base)
    return rows


def cmd_bench(args) -> int:
    try:
        specs = [_parse_algo_spec(a) for a in args.algos.split(",") if a]
        values = [float(v) for v in args.values.split(",") if v]
        if args.seeds < 1:
            raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
        if args.axis == "n" and not all(v.is_integer() for v in values):
            raise ValueError(f"target counts must be whole numbers, got {args.values}")
    except ValueError as e:
        print(f"bench spec error: {e}", file=sys.stderr)
        return EXIT_PARSE
    for spec in specs:   # a step every cell would refuse exits before the first row
        check_steps(**_spec_steps(spec))
        if spec["algo"] == "grid":
            grid_shape(args.width, args.height, spec["grid_eps"])
    seeds = list(range(args.seeds))
    params = GenParams(width=args.width, height=args.height, n_targets=args.n,
                       target_width=args.target_width, margin=args.margin)
    sensor = _sensor_from_args(args)
    cells = []
    for value in values:
        cell_params, cell_sensor = params, sensor
        if args.axis == "n":
            cell_params = replace(params, n_targets=int(value))
        elif args.axis == "r_max":
            cell_sensor = replace(sensor, r_max=value)
        else:
            cell_sensor = replace(sensor, aov_deg=value)
        check_params(cell_params)
        _check_sensor(args.width, args.height, cell_sensor)
        for spec in specs:
            if spec["algo"] == "bcpf":
                fan_steps(cell_sensor.phi, spec["eps_a"], cell_params.n_targets)
        cells.extend((cell_params, cell_sensor, spec) for spec in specs)

    out = sys.stdout if args.out in (None, "-") else open(args.out, "w", encoding="utf-8", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        out.flush()
        for cell_params, cell_sensor, spec in cells:
            for row in _bench_cell(cell_params, cell_sensor, spec, seeds, args.vd_opt):
                writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
            out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


# --- entry point --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camplan",
        description="Minimum-camera coverage planning for oriented segment targets.",
        epilog="Exit codes: 0 ok, 1 coverage verification failed, 2 parse error, "
               "3 invalid scenario, 4 infeasible, 5 solve self-check or geometry failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random scenario")
    p.add_argument("--n", type=int, default=10, help="target count")
    p.add_argument("--width", type=float, default=100.0)
    p.add_argument("--height", type=float, default=100.0)
    p.add_argument("--target-width", type=float, default=1.0)
    p.add_argument("--min-sep", type=float, default=None,
                   help="minimum gap between segments (default: one target width)")
    p.add_argument("--obstacles", type=int, default=0)
    p.add_argument("--margin", type=float, default=0.0,
                   help="keep segments this far from the area edges")
    p.add_argument("--seed", type=int, default=0)
    _add_sensor_flags(p)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="plan cameras for a scenario file")
    p.add_argument("scenario")
    _add_algo_flags(p)
    p.add_argument("--vd-opt", choices=["none", "f1", "finf"], default="f1",
                   help="viewing-direction optimization mode")
    p.add_argument("--out", default=None, help="solution output path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against a scenario")
    p.add_argument("scenario")
    p.add_argument("solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("candidates", help="dump a candidate set")
    p.add_argument("scenario")
    _add_algo_flags(p)
    p.add_argument("--out", default=None, help="candidate dump path")
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser(
        "bench",
        help="parameter sweep to CSV",
        description="Runs every (axis value x algorithm x seed) cell and appends rows "
                    "incrementally. CSV columns: " + ", ".join(CSV_COLUMNS) + ". "
                    "A row's status is ok, verify-failed, infeasible:N (N targets no "
                    "candidate covers), invalid:NAME (this scene refuses the cell's input, "
                    "as solve does with exit 3) or error:NAME (any other failure); "
                    "runtime_ms covers candidate generation, sweep and selection only.",
    )
    p.add_argument("--axis", choices=["n", "r_max", "aov"], required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--algos", required=True,
                   help="comma-separated specs: comprehensive, bcpf:EPS_A[:EPS_R], grid:EPS")
    p.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 per cell")
    p.add_argument("--n", type=int, default=80)
    p.add_argument("--width", type=float, default=100.0)
    p.add_argument("--height", type=float, default=100.0)
    p.add_argument("--target-width", type=float, default=1.0)
    p.add_argument("--margin", type=float, default=0.0,
                   help="keep segments this far from the area edges")
    _add_sensor_flags(p)
    p.add_argument("--vd-opt", choices=["none", "f1", "finf"], default="f1")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:   # `_read_text` turns read failures into ParseError
        print(f"cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationFailure as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except DegenerateError as e:
        # validated input never reaches one: a solver fault, not bad input
        print(f"internal geometry error: {e}", file=sys.stderr)
        return EXIT_SELFCHECK
    except (PackingError, ValueError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as e:
        print(f"infeasible: no candidate covers targets {list(e.uncovered)}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
