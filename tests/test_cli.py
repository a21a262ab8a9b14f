"""End-to-end command line tests: exit codes, file round trips, bench CSV."""
import contextlib
import copy
import csv
import io
import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camplan import cli, discretize
from camplan.cli import CSV_COLUMNS, _parse_algo_spec, main
from camplan.discretize import MAX_GRID_POINTS
from camplan.geom import EPS_ANG, DegenerateError
from camplan.model import CameraPlacement, Solution
from camplan.scenario import parse_scenario, parse_solution, serialize_solution
from camplan.select import verify_solution


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_scenario(tmp_path, capsys):
    path = tmp_path / "scn.json"
    code = main([
        "generate", "--n", "4", "--width", "30", "--height", "30",
        "--margin", "2", "--r-max", "8", "--seed", "7", "--out", str(path),
    ])
    capsys.readouterr()
    assert code == 0
    return path


def test_generate_writes_parseable_scenario(small_scenario):
    s = parse_scenario(small_scenario.read_text())
    assert len(s.targets) == 4
    assert s.sensor.r_max == 8.0


def test_solve_then_verify_round_trip(small_scenario, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    code, out, _ = run(
        ["solve", str(small_scenario), "--algo", "bcpf", "--eps-a", "0.2",
         "--out", str(sol_path)], capsys)
    assert code == 0
    assert "verified=ok" in out
    code, out, _ = run(["verify", str(small_scenario), str(sol_path)], capsys)
    assert code == 0
    assert "verified=ok (4/4 targets)" in out


def test_verify_flags_displaced_camera(small_scenario, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    assert run(["solve", str(small_scenario), "--out", str(sol_path)], capsys)[0] == 0
    sol = parse_solution(sol_path.read_text())
    moved = [CameraPlacement(position=(0.0, 0.0), vd=p.vd) for p in sol.placements[:1]]
    tampered = Solution(placements=moved + sol.placements[1:], assignment=sol.assignment)
    sol_path.write_text(serialize_solution(tampered))
    code, out, _ = run(["verify", str(small_scenario), str(sol_path)], capsys)
    assert code == 1
    assert "NOT COVERED" in out
    assert "verified=FAILED" in out


def test_verify_prints_the_extreme_slacks_of_covered_targets(small_scenario, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    assert run(["solve", str(small_scenario), "--out", str(sol_path)], capsys)[0] == 0
    s = parse_scenario(small_scenario.read_text())
    sol = parse_solution(sol_path.read_text())
    moved = Solution(placements=[CameraPlacement(position=(0.0, 0.0), vd=sol.placements[0].vd)] + sol.placements[1:],
                     assignment=sol.assignment)
    for solution in (sol, moved, Solution(placements=[], assignment={})):
        sol_path.write_text(serialize_solution(solution))
        code, out, _ = run(["verify", str(small_scenario), str(sol_path)], capsys)
        report = verify_solution(s, solution)
        covered = [c.margins for c in report.checks if c.ok]
        lines = out.splitlines()
        n_ok = len(covered)
        assert lines[-1] == f"verified={'ok' if report.ok else 'FAILED'} ({n_ok}/{len(s.targets)} targets)"
        assert code == (0 if report.ok else 1)
        if not covered:
            assert lines[-2] == "slack: no covered targets"
            continue
        fields = dict(item.split("=") for item in lines[-2].removeprefix("slack: ").split())
        assert list(fields) == ["range_slack_min", "angular_slack_min", "facing_angle_max"]
        assert float(fields["range_slack_min"]) == pytest.approx(min(m["range_slack"] for m in covered), rel=1e-5)
        assert float(fields["angular_slack_min"]) == pytest.approx(min(m["angular_slack"] for m in covered), rel=1e-5)
        assert float(fields["facing_angle_max"]) == pytest.approx(max(m["facing_angle"] for m in covered), rel=1e-5)
        assert float(fields["range_slack_min"]) >= -s.eps_len
        assert float(fields["facing_angle_max"]) <= s.sensor.phi + EPS_ANG
    assert 0 < sum(c.ok for c in verify_solution(s, moved).checks) < len(s.targets)


def test_verify_rejects_unknown_target_ids(small_scenario, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    assert run(["solve", str(small_scenario), "--out", str(sol_path)], capsys)[0] == 0
    sol = parse_solution(sol_path.read_text())
    sol.assignment[99] = 0
    sol_path.write_text(serialize_solution(sol))
    code, _, err = run(["verify", str(small_scenario), str(sol_path)], capsys)
    assert code == 2
    assert "unknown target ids" in err and "99" in err


def test_verify_rejects_missing_placement_index(small_scenario, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    assert run(["solve", str(small_scenario), "--out", str(sol_path)], capsys)[0] == 0
    sol = parse_solution(sol_path.read_text())
    sol.assignment[0] = len(sol.placements) + 3
    sol_path.write_text(serialize_solution(sol))
    code, _, err = run(["verify", str(small_scenario), str(sol_path)], capsys)
    assert code == 2
    assert "missing placements" in err


def test_verify_refuses_an_assignment_key_that_is_not_a_canonical_id(small_scenario, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    assert run(["solve", str(small_scenario), "--out", str(sol_path)], capsys)[0] == 0
    text = sol_path.read_text()
    assert '"0": ' in text
    sol_path.write_text(text.replace('"0": ', '"01": ', 1))
    code, _, err = run(["verify", str(small_scenario), str(sol_path)], capsys)
    assert code == 2
    assert "parse error" in err and "canonical" in err


def test_verify_refuses_a_repeated_key(small_scenario, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    assert run(["solve", str(small_scenario), "--out", str(sol_path)], capsys)[0] == 0
    text = sol_path.read_text()
    assert '"0": ' in text
    # json alone would keep the last "0" and verify the solution as written
    sol_path.write_text(text.replace('"assignment": {', '"assignment": {"0": 99,', 1))
    code, _, err = run(["verify", str(small_scenario), str(sol_path)], capsys)
    assert code == 2
    assert "repeated key '0'" in err


@pytest.mark.parametrize("text", ["[]", "null", "1", '"x"'])
def test_verify_refuses_a_solution_that_is_not_an_object(small_scenario, tmp_path, capsys, text):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(text)
    code, _, err = run(["verify", str(small_scenario), str(sol_path)], capsys)
    assert code == 2
    assert "parse error: $: expected an object" in err


def test_malformed_json_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    code, _, err = run(["solve", str(bad)], capsys)
    assert code == 2
    assert "parse error" in err


def test_missing_file_is_a_parse_error(tmp_path, capsys):
    code, _, err = run(["solve", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert "cannot read" in err


def test_a_directory_is_a_parse_error(tmp_path, capsys):
    code, _, err = run(["solve", str(tmp_path)], capsys)
    assert code == 2
    assert f"cannot read {tmp_path}: Is a directory" in err


@pytest.mark.parametrize("command", ["solve", "candidates"])
def test_a_scenario_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command):
    bad = tmp_path / "latin.json"
    bad.write_bytes('{"area": "\xe9"}'.encode("latin-1"))
    code, _, err = run([command, str(bad)], capsys)
    assert code == 2
    assert f"cannot read {bad}" in err and "utf-8" in err


def test_verify_refuses_an_unreadable_solution_as_a_parse_error(small_scenario, tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff{}")
    for path in (latin, tmp_path, tmp_path / "nope.json"):
        code, _, err = run(["verify", str(small_scenario), str(path)], capsys)
        assert code == 2
        assert f"cannot read {path}" in err


@pytest.mark.parametrize("command", ["generate", "solve", "candidates", "bench"])
def test_an_output_path_that_cannot_be_written_is_a_parse_error(small_scenario, tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.txt"
    argv = {
        "generate": ["generate", "--n", "3", "--width", "30", "--height", "30"],
        "solve": ["solve", str(small_scenario)],
        "candidates": ["candidates", str(small_scenario)],
        "bench": ["bench", "--axis", "n", "--values", "3", "--algos", "grid:6", "--seeds", "1",
                  "--width", "30", "--height", "30"],
    }[command]
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert f"cannot write {out}: No such file or directory" in err and "cannot read" not in err


def test_invalid_scenario_is_a_validation_error(tmp_path, capsys):
    doc = tmp_path / "scn.json"
    doc.write_text(
        '{"area": {"width": 100, "height": 100},'
        ' "sensor": {"aov_deg": 100, "r_min": 0, "r_max": 30, "phi_deg": 90},'
        ' "targets": [{"id": 0, "start": [0, 0], "end": [1, 0], "normal": [1, 0]}],'
        ' "obstacles": []}'
    )
    code, _, err = run(["solve", str(doc)], capsys)
    assert code == 3
    assert "validation error" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_number_is_a_parse_error(tmp_path, capsys, token):
    doc = tmp_path / "scn.json"
    doc.write_text(
        '{"area": {"width": 100, "height": 100},'
        f' "sensor": {{"aov_deg": 100, "r_min": 0, "r_max": {token}, "phi_deg": 90}},'
        ' "targets": [{"id": 0, "start": [10, 10], "end": [11, 10], "normal": [0, 1]}],'
        ' "obstacles": []}'
    )
    code, _, err = run(["solve", str(doc)], capsys)
    assert code == 2
    assert "$.sensor.r_max: expected a finite number" in err


def test_unsupported_parameters_are_invalid_input(tmp_path, capsys):
    # comprehensive candidates need narrow targets: a plain ValueError, exit 3
    doc = tmp_path / "scn.json"
    doc.write_text(
        '{"area": {"width": 100, "height": 100},'
        ' "sensor": {"aov_deg": 100, "r_min": 0, "r_max": 4, "phi_deg": 90},'
        ' "targets": [{"id": 0, "start": [10, 10], "end": [13, 10], "normal": [0, 1]}],'
        ' "obstacles": []}'
    )
    code, _, err = run(["solve", str(doc), "--algo", "comprehensive"], capsys)
    assert code == 3
    assert "invalid input" in err and "r_max/2" in err


def test_degenerate_geometry_is_an_internal_error(small_scenario, capsys, monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateError("bearing undefined for coincident points")

    monkeypatch.setattr(cli, "run_pipeline", degenerate)
    code, _, err = run(["solve", str(small_scenario)], capsys)
    assert code == 5
    assert "internal geometry error: bearing undefined for coincident points" in err


def test_generate_rejects_infeasible_packing(tmp_path, capsys):
    code, _, err = run(
        ["generate", "--n", "5", "--width", "10", "--height", "10", "--margin", "5",
         "--out", str(tmp_path / "x.json")], capsys)
    assert code == 3
    assert "invalid input" in err


@pytest.mark.parametrize("flags, named", [
    (["--target-width", "nan"], "target_width must be finite"),
    (["--margin", "nan"], "margin must be finite"),
    (["--min-sep", "nan"], "min_separation must be finite"),
    (["--min-sep", "inf"], "min_separation must be finite"),
    (["--obstacles", "-3"], "n_obstacles must be >= 0"),
])
def test_generate_refuses_non_finite_or_negative_parameters(tmp_path, capsys, flags, named):
    out = tmp_path / "x.json"
    code, _, err = run(["generate", "--n", "3", *flags, "--out", str(out)], capsys)
    assert code == 3
    assert "invalid input" in err and named in err
    assert not out.exists()


def test_grid_dead_band_is_infeasible(tmp_path, capsys):
    # wall-hugging target facing the nearest edge: every interior grid point
    # sits behind it, so the grid algorithm has nothing to offer
    doc = tmp_path / "scn.json"
    doc.write_text(
        '{"area": {"width": 100, "height": 100},'
        ' "sensor": {"aov_deg": 100, "r_min": 0, "r_max": 20, "phi_deg": 90},'
        ' "targets": [{"id": 0, "start": [0.5, 50.0], "end": [0.5, 51.0], "normal": [-1, 0]}],'
        ' "obstacles": []}'
    )
    code, _, err = run(["solve", str(doc), "--algo", "grid", "--grid-eps", "5"], capsys)
    assert code == 4
    assert "infeasible" in err and "[0]" in err


def test_grid_beyond_the_point_bound_is_invalid_input(tmp_path, capsys):
    doc = tmp_path / "scn.json"
    doc.write_text(json.dumps(FUZZ_BASE))
    code, _, err = run(["solve", str(doc), "--algo", "grid", "--grid-eps", "0.01"], capsys)
    assert code == 3
    assert "invalid input" in err and "more than 1000000 points" in err


@pytest.mark.parametrize("r_max,eps_r", [(1e17, 1.0), (1e9, 1.0)])
def test_bcpf_beyond_the_sample_bound_is_invalid_input(tmp_path, capsys, r_max, eps_r):
    # at 1e17 a 1 m step no longer shortens the radius; at 1e9 it would
    # take a billion rings per fan: both are refused before any ring is built
    doc = tmp_path / "scn.json"
    doc.write_text(json.dumps({**FUZZ_BASE, "sensor": {**FUZZ_BASE["sensor"], "r_max": r_max}}))
    t0 = time.perf_counter()
    code, _, err = run(["solve", str(doc), "--algo", "bcpf", "--eps-r", str(eps_r)], capsys)
    assert code == 3
    assert "invalid input" in err and "more than 1000000 samples" in err
    assert time.perf_counter() - t0 < 10.0


def test_obstacle_on_a_target_is_a_validation_error(tmp_path, capsys):
    doc = tmp_path / "scn.json"
    wall = {"id": 5, "chain": [[10.5, 9.0], [10.5, 11.0]]}   # crosses target 0
    doc.write_text(json.dumps({**FUZZ_BASE, "obstacles": FUZZ_BASE["obstacles"] + [wall]}))
    code, _, err = run(["solve", str(doc)], capsys)
    assert code == 3
    assert "validation error" in err and "obstacle 5: lies on target 0" in err


def test_duplicate_obstacle_ids_are_a_validation_error(tmp_path, capsys):
    doc = tmp_path / "scn.json"
    doc.write_text(json.dumps({**FUZZ_BASE, "obstacles": FUZZ_BASE["obstacles"] * 2}))
    code, _, err = run(["solve", str(doc)], capsys)
    assert code == 3
    assert "validation error" in err and "obstacle 0: duplicate id" in err


def test_verify_fails_a_target_in_a_wide_cone_blind_spot(tmp_path, capsys):
    # aov 300 at vd 0: both endpoints (bearings 140 and 220 degrees) are in
    # the cone, the target's middle (180 degrees) is in its blind spot
    x, a, b = (10.0, 10.0), math.radians(140.0), math.radians(220.0)
    doc = tmp_path / "scn.json"
    doc.write_text(json.dumps({
        "area": {"width": 20.0, "height": 20.0},
        "sensor": {"aov_deg": 300.0, "r_min": 0.0, "r_max": 5.0, "phi_deg": 90.0},
        "targets": [{"id": 0, "start": [x[0] + 1.5 * math.cos(a), x[1] + 1.5 * math.sin(a)],
                     "end": [x[0] + 1.5 * math.cos(b), x[1] + 1.5 * math.sin(b)],
                     "normal": [1.0, 0.0]}],
        "obstacles": [],
    }))
    sol = tmp_path / "sol.json"
    for vd, code_want, line in ((0.0, 1, "target 0: NOT COVERED (view_angle)"),
                                (180.0, 0, "target 0: covered")):
        sol.write_text(serialize_solution(Solution([CameraPlacement(x, math.radians(vd))], {0: 0})))
        code, out, _ = run(["verify", str(doc), str(sol)], capsys)
        assert code == code_want
        assert line in out


def test_solve_empty_scenario_places_nothing(tmp_path, capsys):
    path = tmp_path / "scn.json"
    assert run(["generate", "--n", "0", "--out", str(path)], capsys)[0] == 0
    code, out, _ = run(["solve", str(path)], capsys)
    assert code == 0
    assert "cameras=0" in out and "verified=ok" in out


def test_candidates_dump_round_trip(small_scenario, tmp_path, capsys):
    dump = tmp_path / "cands.json"
    code, out, _ = run(
        ["candidates", str(small_scenario), "--algo", "grid", "--grid-eps", "10",
         "--out", str(dump)], capsys)
    assert code == 0
    assert "candidates=9" in out
    doc = json.loads(dump.read_text())
    assert len(doc["points"]) == 9
    assert doc["provenance"] == ["grid"] * 9


def test_algo_spec_parsing():
    assert _parse_algo_spec("bcpf:0.2:5") == {
        "algo": "bcpf", "eps_a": 0.2, "eps_r": 5.0, "grid_eps": None}
    assert _parse_algo_spec("grid")["grid_eps"] == 2.0
    assert _parse_algo_spec("comprehensive")["algo"] == "comprehensive"
    with pytest.raises(ValueError):
        _parse_algo_spec("comprehensive:1")
    with pytest.raises(ValueError):
        _parse_algo_spec("voronoi")


def test_bench_rejects_bad_algo_spec(tmp_path, capsys):
    code, _, err = run(
        ["bench", "--axis", "n", "--values", "2", "--algos", "grid:fast",
         "--out", str(tmp_path / "b.csv")], capsys)
    assert code == 2
    assert "bench spec error" in err



@pytest.mark.parametrize("spec", ["grid:6:99", "bcpf:0.3:8:1", "comprehensive:1", "grid:6:"])
def test_bench_refuses_a_spec_with_more_fields_than_its_algorithm_takes(tmp_path, capsys, spec):
    out = tmp_path / "b.csv"
    code, _, err = run(["bench", "--axis", "n", "--values", "2", "--algos", f"bcpf:0.3:8,{spec}",
                        "--out", str(out)], capsys)
    assert code == 2
    assert "bench spec error" in err and spec in err
    assert not out.exists()

BENCH_ARGS = [
    "bench", "--axis", "n", "--values", "2,3", "--algos", "grid:6,bcpf:0.3",
    "--seeds", "2", "--width", "30", "--height", "30", "--margin", "3",
    "--r-max", "8", "--vd-opt", "none",
]


def test_bench_csv_schema_and_cells(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run(BENCH_ARGS + ["--out", str(out)], capsys)[0] == 0
    rows = list(csv.DictReader(out.open()))
    assert list(rows[0].keys()) == CSV_COLUMNS
    # 2 axis values x 2 algorithms x 2 seeds
    assert len(rows) == 8
    assert {r["status"] for r in rows} == {"ok"}
    assert {r["seed"] for r in rows} == {"0", "1"}
    assert all(int(r["cameras"]) >= 1 and float(r["runtime_ms"]) > 0 for r in rows)
    for r in rows:
        if r["algo"] == "bcpf":
            assert r["eps_a"] == "0.3" and r["eps_r"] == "8.0" and r["grid_eps"] == ""
        else:
            assert r["grid_eps"] == "6.0" and r["eps_a"] == ""


def strip_runtime(path):
    rows = list(csv.DictReader(path.open()))
    return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]


def test_bench_repeats_identically_modulo_runtime(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(BENCH_ARGS + ["--out", str(a)], capsys)[0] == 0
    assert run(BENCH_ARGS + ["--out", str(b)], capsys)[0] == 0
    assert strip_runtime(a) == strip_runtime(b)


def test_bench_rejects_fewer_than_one_seed(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, _, err = run(["bench", "--axis", "n", "--values", "3", "--algos", "grid:10",
                        "--seeds", "0", "--out", str(out)], capsys)
    assert code == 2
    assert "bench spec error" in err and "--seeds" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["generate", "--aov", "400", "--r-max", "-2"],
    ["bench", "--axis", "aov", "--values", "400", "--algos", "grid:10", "--seeds", "1"],
    ["bench", "--axis", "r_max", "--values=-5", "--algos", "grid:10", "--seeds", "1"],
    ["bench", "--axis", "n", "--values", "3", "--algos", "grid:10", "--seeds", "1", "--phi", "0"],
])
def test_generate_and_bench_reject_an_invalid_sensor_before_writing(tmp_path, capsys, command):
    out = tmp_path / "out"
    code, stdout, err = run(command + ["--out", str(out)], capsys)
    assert code == 3
    assert "validation error" in err and "sensor" in err
    assert not out.exists() and stdout == ""


@pytest.mark.parametrize("command", [
    ["bench", "--axis", "n", "--values=-1", "--algos", "grid:10", "--seeds", "1"],
    ["bench", "--axis", "n", "--values", "3,-1", "--algos", "grid:10", "--seeds", "1"],
    ["bench", "--axis", "n", "--values", "3", "--algos", "grid:10", "--seeds", "1", "--target-width", "0"],
    ["bench", "--axis", "r_max", "--values", "8", "--algos", "grid:10", "--seeds", "1", "--margin", "60"],
    ["bench", "--axis", "n", "--values", "3,5000", "--algos", "grid:10", "--seeds", "1"],
])
def test_bench_rejects_invalid_generation_parameters_before_writing(tmp_path, capsys, command):
    # as generate does for the same values, checked for every axis value
    # before the first row
    out = tmp_path / "out"
    code, stdout, err = run(command + ["--out", str(out)], capsys)
    assert code == 3
    assert "invalid input" in err
    assert not out.exists() and stdout == ""


@pytest.mark.parametrize("values", ["2.7", "3,2.5", "inf", "nan"])
def test_bench_rejects_a_fractional_target_count(tmp_path, capsys, values):
    out = tmp_path / "out"
    code, stdout, err = run(["bench", "--axis", "n", "--values", values, "--algos", "grid:10",
                             "--seeds", "1", "--out", str(out)], capsys)
    assert code == 2
    assert "bench spec error" in err and "whole numbers" in err
    assert not out.exists() and stdout == ""


@pytest.mark.parametrize("spec", ["grid:0", "grid:-2", "grid:500", "grid:nan", "bcpf:0", "bcpf:nan",
                                  "bcpf:inf", "bcpf:0.1:0", "bcpf:0.1:nan", "bcpf:4", "bcpf:1e-320",
                                  f"bcpf:{math.pi / (MAX_GRID_POINTS // 3 + 1.5)!r}"])
def test_bench_rejects_a_step_every_cell_would_refuse_before_writing(tmp_path, capsys, spec):
    # as solve does for the same step; grid:500 exceeds the 30 m area,
    # bcpf:4 the 180 deg facing cone, and the last two the ray bound for 3
    # targets
    out = tmp_path / "out"
    code, stdout, err = run(["bench", "--axis", "n", "--values", "3", "--algos", f"grid:6,{spec}",
                             "--seeds", "1", "--width", "30", "--height", "30", "--out", str(out)], capsys)
    assert code == 3
    assert "invalid input" in err
    assert not out.exists() and stdout == ""


def test_bench_rejects_a_step_past_the_ray_bound_of_one_cell_before_writing(tmp_path, capsys):
    # 250000 fan steps make 750000 rays for 3 targets and 1250000 for 5
    out = tmp_path / "out"
    code, stdout, err = run(["bench", "--axis", "n", "--values", "3,5", "--algos", f"bcpf:{math.pi / 250000.5!r}",
                             "--seeds", "1", "--width", "30", "--height", "30", "--out", str(out)], capsys)
    assert code == 3
    assert "invalid input" in err and "in the fans of 5 targets" in err
    assert not out.exists() and stdout == ""


def test_bench_marks_a_step_one_scene_refuses_invalid(tmp_path, capsys, monkeypatch):
    # the radial step passes the up-front check, but the sample count depends
    # on the scene: its rows say invalid, as solve exits 3, and bench exits 0
    out = tmp_path / "out.csv"
    argv = ["bench", "--axis", "n", "--values", "3", "--algos", "bcpf:0.1:1e-9", "--seeds", "1",
            "--width", "30", "--height", "30", "--r-max", "8", "--out", str(out)]
    assert run(argv, capsys)[0] == 0
    assert [r["status"] for r in csv.DictReader(out.open())] == ["invalid:ValueError"]

    # a geometric construction that degenerates stays an error
    def degenerate(*args, **kwargs):
        raise DegenerateError("bearing undefined for coincident points")

    monkeypatch.setattr(cli, "run_pipeline", degenerate)
    assert run(argv, capsys)[0] == 0
    assert [r["status"] for r in csv.DictReader(out.open())] == ["error:DegenerateError"]


TINY_AOV_SCENE = ["--n", "4", "--width", "30", "--height", "30", "--margin", "2", "--r-max", "8"]


@pytest.mark.parametrize("aov", ["1e-300", "1e-200"])
def test_a_tiny_angle_of_view_is_invalid_input_on_the_comprehensive_path(tmp_path, capsys, aov):
    # its view-angle circles, of radius chord / (2 sin theta), would lie
    # beyond every length the model admits, or overflow
    scn = tmp_path / "scn.json"
    assert run(["generate", *TINY_AOV_SCENE, "--aov", aov, "--out", str(scn)], capsys)[0] == 0
    code, out, err = run(["solve", str(scn), "--algo", "comprehensive"], capsys)
    assert code == 3
    assert f"invalid input: a {float(aov):g} deg angle of view" in err and out == ""


def test_bench_marks_a_tiny_angle_of_view_invalid_on_the_comprehensive_path(tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["bench", "--axis", "aov", "--values", "1e-300", "--algos", "comprehensive", "--seeds", "1",
            *TINY_AOV_SCENE, "--out", str(out)]
    assert run(argv, capsys)[0] == 0
    assert [r["status"] for r in csv.DictReader(out.open())] == ["invalid:ValueError"]


def test_the_tiny_angle_refusal_leaves_a_common_angle_unchanged(tmp_path, capsys, monkeypatch):
    # at 100 deg the refusal passes, and the candidates and solution are the
    # bytes they are with the length bound lifted
    scn = tmp_path / "scn.json"
    assert run(["generate", *TINY_AOV_SCENE, "--obstacles", "2", "--aov", "100", "--out", str(scn)],
               capsys)[0] == 0

    def outputs(tag):
        cand, sol = tmp_path / f"cand-{tag}.json", tmp_path / f"sol-{tag}.json"
        assert run(["candidates", str(scn), "--algo", "comprehensive", "--out", str(cand)], capsys)[0] == 0
        assert run(["solve", str(scn), "--algo", "comprehensive", "--out", str(sol)], capsys)[0] == 0
        return cand.read_bytes(), sol.read_bytes()

    bounded = outputs("bounded")
    monkeypatch.setattr(discretize, "MAX_LENGTH", math.inf)
    assert outputs("lifted") == bounded


def test_bench_rows_record_the_steps_they_ran(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    args = ["bench", "--axis", "n", "--values", "3", "--algos", "grid:7.5,bcpf:0.3:2,bcpf:0.25",
            "--seeds", "2", "--width", "30", "--height", "30", "--margin", "3", "--r-max", "8"]
    assert run(args + ["--out", str(out)], capsys)[0] == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 6
    for row in rows:
        doc = tmp_path / "scn.json"
        assert main(["generate", "--n", "3", "--width", "30", "--height", "30", "--margin", "3",
                     "--r-max", "8", "--seed", row["seed"], "--out", str(doc)]) == 0
        steps = {"grid": ["--grid-eps", row["grid_eps"]],
                 "bcpf": ["--eps-a", row["eps_a"], "--eps-r", row["eps_r"]]}[row["algo"]]
        code, stdout, _ = run(["solve", str(doc), "--algo", row["algo"], *steps], capsys)
        assert code == 0
        assert f"cameras={row['cameras']} " in stdout and f" candidates={row['candidates']} " in stdout


@pytest.mark.parametrize("command", ["solve", "candidates"])
@pytest.mark.parametrize("flags", [
    ["--eps-r", "nan"], ["--eps-r", "inf"], ["--eps-r", "0"],
    ["--eps-a", "nan"], ["--eps-a", "inf"], ["--eps-a", "-0.1"],
    ["--algo", "grid", "--grid-eps", "nan"], ["--algo", "grid", "--grid-eps", "inf"],
    ["--algo", "grid", "--grid-eps", "0"],
])
def test_a_step_that_is_not_finite_and_positive_is_invalid_input(small_scenario, tmp_path, capsys,
                                                                   command, flags):
    # a NaN radial step used to end the ring walk after one ring, and an
    # infinite angular step to build no fans at all
    out = tmp_path / "out.json"
    code, stdout, err = run([command, str(small_scenario), *flags, "--out", str(out)], capsys)
    assert code == 3
    assert "invalid input" in err and "must be finite and positive" in err
    assert not out.exists() and stdout == ""


@pytest.mark.parametrize("command", ["solve", "candidates"])
def test_an_angular_step_wider_than_the_facing_cone_is_invalid_input(small_scenario, tmp_path, capsys, command):
    # a 4 rad step fits no fan in the 180 deg cone: the sampler would build no
    # candidate and blame the scene (exit 4, infeasible)
    out = tmp_path / "out.json"
    code, stdout, err = run([command, str(small_scenario), "--eps-a", "4", "--out", str(out)], capsys)
    assert code == 3
    assert "invalid input" in err and "exceeds the 3.14159 rad facing cone" in err
    assert not out.exists() and stdout == ""
    # a step as wide as the cone still puts one fan in it
    code, stdout, _ = run([command, str(small_scenario), "--eps-a", str(math.pi), "--out", str(out)], capsys)
    assert code == 0 and out.exists()


@pytest.mark.parametrize("command", ["solve", "candidates"])
def test_an_angular_step_beyond_the_ray_bound_is_invalid_input(small_scenario, tmp_path, capsys, command):
    # 1e-320 rad used to overflow the fan count (exit 1, OverflowError); a
    # step just past the bound would build more than MAX_GRID_POINTS rays
    # before any sample is counted.  Both are refused before any ray exists.
    s = parse_scenario(small_scenario.read_text())
    past = 2.0 * s.sensor.phi / (MAX_GRID_POINTS // len(s.targets) + 1.5)
    out = tmp_path / "out.json"
    for eps_a in ("1e-320", repr(past)):
        t0 = time.perf_counter()
        code, stdout, err = run([command, str(small_scenario), "--eps-a", eps_a, "--out", str(out)], capsys)
        assert code == 3, eps_a
        assert "invalid input" in err and "more than 1000000 rays in the fans of 4 targets" in err
        assert not out.exists() and stdout == ""
        assert time.perf_counter() - t0 < 10.0


def test_target_id_beyond_int64_is_a_validation_error(tmp_path, capsys):
    doc = tmp_path / "scn.json"
    doc.write_text(
        '{"area": {"width": 100, "height": 100},'
        ' "sensor": {"aov_deg": 100, "r_min": 0, "r_max": 30, "phi_deg": 90},'
        ' "targets": [{"id": 100000000000000000000, "start": [10, 10], "end": [11, 10], "normal": [0, 1]}],'
        ' "obstacles": []}'
    )
    code, _, err = run(["solve", str(doc)], capsys)
    assert code == 3
    assert "validation error" in err and "64-bit" in err


# --- fuzzed documents -----------------------------------------------------------

FUZZ_BASE = {
    "area": {"width": 30.0, "height": 30.0},
    "sensor": {"aov_deg": 100.0, "r_min": 0.0, "r_max": 8.0, "phi_deg": 90.0},
    "targets": [
        {"id": 0, "start": [10.0, 10.0], "end": [11.0, 10.0], "normal": [0.0, 1.0]},
        {"id": 1, "start": [15.0, 14.0], "end": [15.0, 15.0], "normal": [-1.0, 0.0]},
    ],
    "obstacles": [{"id": 0, "chain": [[12.0, 12.0], [13.0, 12.5]]}],
}
EDGE_INTS = [-1, 0, 2 ** 63 - 1, 2 ** 63, -(2 ** 63) - 1, 10 ** 20]
EDGE_FLOATS = [0.0, -0.0, 1e-300, -3.5, 1e308, -1e308, 90.0000001, 180.0, 360.0]
WRONG_TYPES = [float("nan"), float("inf"), "7", None, True, [], {}, [0.0], [1.0, 2.0, 3.0]]


def _paths(v, prefix=()):
    yield prefix
    items = v.items() if isinstance(v, dict) else enumerate(v) if isinstance(v, list) else ()
    for k, x in items:
        yield from _paths(x, prefix + (k,))


@st.composite
def mutated_documents(draw):
    """The base document with 1-3 mutations: a value replaced by an edge value
    of its type (ids beyond int64, huge or tiny numbers) or by a value of
    another type (NaN, strings, null, arrays), a number nudged, a field or
    element deleted, an array or object emptied, an element duplicated."""
    doc = copy.deepcopy(FUZZ_BASE)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return json.dumps(draw(st.sampled_from(WRONG_TYPES)))
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        key, value = path[-1], parent[path[-1]]
        op = draw(st.sampled_from(["replace", "replace", "nudge", "delete", "empty", "duplicate"]))
        if op == "replace":
            edges = EDGE_INTS if type(value) is int else EDGE_FLOATS if type(value) is float else []
            parent[key] = copy.deepcopy(draw(st.sampled_from(edges + WRONG_TYPES)))
        elif op == "nudge" and isinstance(value, (int, float)) and not isinstance(value, bool):
            parent[key] = value * draw(st.sampled_from([-1.0, 0.0, 1e-9, 2.0, 1e6])) + draw(
                st.sampled_from([0.0, 1e-12, 0.5, 40.0]))
        elif op == "delete":
            del parent[key]
        elif op == "empty" and isinstance(value, (list, dict)):
            parent[key] = type(value)()
        elif op == "duplicate" and isinstance(parent, list):
            parent.append(copy.deepcopy(value))
    return json.dumps(doc)


@given(mutated_documents())
@example(json.dumps({**FUZZ_BASE, "targets": [{**FUZZ_BASE["targets"][0], "id": 2 ** 63}]}))
@example(json.dumps({**FUZZ_BASE, "area": {"width": 1e100, "height": 1e100}}))
@settings(max_examples=200, deadline=None)
def test_solve_of_mutated_documents_ends_in_a_documented_exit_code(text):
    """Default `solve` (bcpf sampling) and `--algo grid` at a 2 m step: a
    mutated area that would put more grid points in than the bound allows is
    rejected before any is built."""
    with tempfile.TemporaryDirectory() as tmp:
        scn, sol = Path(tmp) / "scn.json", Path(tmp) / "sol.json"
        scn.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for algo in ("bcpf", "grid"):
                code = main(["solve", str(scn), "--algo", algo, "--grid-eps", "2", "--out", str(sol)])
                assert code in range(6)
                if code == 0:
                    assert main(["verify", str(scn), str(sol)]) == 0
