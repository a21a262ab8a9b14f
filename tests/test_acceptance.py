"""End-to-end acceptance suite.

One test per release gate: full-coverage soundness for every candidate
generator, a dense-grid oracle comparison for the critical-point generator,
camera-count and runtime trends along the sensor and scenario axes, the
sampling-vs-baseline comparisons, geometric closed forms, and byte-level
reproducibility of the command-line pipeline.
"""

import csv
import math
import random
import statistics
import time

import pytest
from scipy.stats import spearmanr

from camplan.cli import CSV_COLUMNS, main, run_pipeline
from camplan.fields import (aov_pair, bcpf, covers, cpf, field_tolerance, interacting_blockers,
                            occlusion_excluded)
from camplan.geom import Segment
from camplan.model import Obstacle, Scenario, SensorSpec, Target
from camplan.scenario import GenParams, random_scenario
from camplan.select import verify_solution

from oracles import boundary_distance, contains


def sensor(aov: float = 100.0, r_max: float = 20.0) -> SensorSpec:
    return SensorSpec(aov_deg=aov, r_min=0.0, r_max=r_max, phi_deg=90.0)


def scene(n, seed, *, aov=100.0, r_max=20.0, width=100.0, height=100.0, margin=3.0, walls=0):
    p = GenParams(width=width, height=height, n_targets=n, n_obstacles=walls, margin=margin, seed=seed)
    return random_scenario(p, sensor(aov=aov, r_max=r_max))


def solved(s, algo, **kw):
    """(cameras, runtime seconds, independently verified) for one pipeline run."""
    res = run_pipeline(s, algo, **kw)
    ok = verify_solution(s, res.solution).ok
    return res.cameras, res.runtime_ms / 1000.0, ok


def test_every_algorithm_fully_covers_random_scenarios():
    t0 = time.perf_counter()
    bad = []
    for n in (5, 10, 20):
        for seed in range(100):
            s = scene(n, seed)
            for algo, kw in (("comprehensive", {}), ("bcpf", {}), ("grid", {"grid_eps": 5.0})):
                _, _, ok = solved(s, algo, **kw)
                if not ok:
                    bad.append((n, seed, algo))
    elapsed = time.perf_counter() - t0
    assert not bad, f"coverage violations in {len(bad)} runs, first: {bad[:5]}"
    assert elapsed < 600.0, f"soundness sweep took {elapsed:.0f}s, budget is 600s"


def test_critical_point_greedy_matches_dense_grid_oracle():
    # the oracle is brute force: a quarter-meter grid swept exhaustively,
    # sharing nothing with the critical-point construction
    wins = 0
    for seed in range(20):
        s = scene(2 + seed % 5, seed, r_max=8.0, width=20.0, height=20.0, margin=1.5)
        oracle_cams, _, oracle_ok = solved(s, "grid", grid_eps=0.25)
        comp_cams, _, comp_ok = solved(s, "comprehensive")
        assert oracle_ok and comp_ok, f"seed {seed}: verification failed"
        if comp_cams <= oracle_cams:
            wins += 1
    assert wins >= 19, f"critical points matched the dense grid in only {wins}/20 runs"


def test_critical_point_greedy_matches_dense_grid_oracle_among_walls():
    # the same oracle on scenes where as many walls as targets occlude
    wins = 0
    for seed in range(40):
        n = 2 + seed % 5
        s = scene(n, seed, r_max=8.0, width=20.0, height=20.0, margin=1.5, walls=n)
        oracle_cams, _, oracle_ok = solved(s, "grid", grid_eps=0.25)
        comp_cams, _, comp_ok = solved(s, "comprehensive")
        assert oracle_ok and comp_ok, f"seed {seed}: verification failed"
        if comp_cams <= oracle_cams:
            wins += 1
    assert wins >= 38, f"critical points matched the dense grid in only {wins}/40 runs"


def solved_in_turns(values, make, seeds, repeats=3):
    """Per axis value, each seed's bcpf camera count and runtime. The values
    take turns within each seed, so a swing in host speed falls on all of
    them alike, and a scene's runtime is the fastest of `repeats` solves,
    the one a busy host slowed least."""
    cams = {v: [] for v in values}
    times = {v: [] for v in values}
    for seed in range(seeds):
        for v in values:
            s = make(v, seed)
            runs = [solved(s, "bcpf") for _ in range(repeats)]
            assert all(ok for _, _, ok in runs), f"axis value {v} seed {seed}: coverage failed"
            cams[v].append(runs[0][0])
            times[v].append(min(t for _, t, _ in runs))
    return cams, times


def test_wider_aov_never_needs_more_cameras_and_keeps_runtime_flat():
    aovs = (40.0, 60.0, 80.0, 100.0, 120.0, 140.0)
    cams, times = solved_in_turns(aovs, lambda a, seed: scene(80, seed, aov=a, r_max=30.0), seeds=20)
    means = [statistics.mean(cams[a]) for a in aovs]
    ses = [statistics.stdev(cams[a]) / math.sqrt(len(cams[a])) for a in aovs]
    for i in range(len(aovs) - 1):
        slack = math.hypot(ses[i], ses[i + 1])
        assert means[i + 1] <= means[i] + slack, (
            f"mean cameras rose {means[i]:.2f} -> {means[i + 1]:.2f} "
            f"between aov {aovs[i]:.0f} and {aovs[i + 1]:.0f} (slack {slack:.2f})"
        )
    rt = [statistics.mean(times[a]) for a in aovs]
    assert max(rt) / min(rt) < 2.0, f"mean runtimes vary more than 2x across aov: {rt}"


def test_camera_count_and_runtime_trend_with_target_count_and_range():
    def axis_means(values, make):
        cams, times = solved_in_turns(values, make, seeds=10)
        return [statistics.mean(cams[v]) for v in values], [statistics.mean(times[v]) for v in values]

    ns = (10, 40, 70, 100, 140)
    cams_n, times_n = axis_means(ns, lambda n, seed: scene(n, seed, r_max=30.0))
    assert spearmanr(ns, cams_n).statistic >= 0.8, f"cameras vs n: {cams_n}"
    assert spearmanr(ns, times_n).statistic >= 0.8, f"runtime vs n: {times_n}"

    rs = (10.0, 20.0, 30.0, 40.0, 50.0)
    cams_r, times_r = axis_means(rs, lambda r, seed: scene(80, seed, r_max=r))
    assert spearmanr(rs, cams_r).statistic <= -0.8, f"cameras vs range: {cams_r}"
    assert spearmanr(rs, times_r).statistic >= 0.8, f"runtime vs range: {times_r}"


def test_polar_sampling_beats_fine_grid_on_large_scenarios():
    # Two grids, one per question. The 2 m grid is the camera baseline: the
    # sampler must need fewer cameras, with a saving in [2%, 25%]. The 1 m
    # grid is a grid of comparable quality (it needs at least as many
    # cameras as the sampler, asserted below), and the runtime comparison is
    # made against it. Timing the sampler against the 2 m grid would compare
    # it with a grid that buys its speed with more cameras: both feed the
    # same per-point sweep, so that ratio follows the candidate counts
    # (about 4,240 samples against 2,500 cells at n=140).
    b_cams, g_cams, f_cams, ratios = [], [], [], []
    for seed in range(20):
        s = scene(140, seed, r_max=30.0)
        bc, bt, b_ok = solved(s, "bcpf")
        gc, _, g_ok = solved(s, "grid", grid_eps=2.0)
        fc, ft, f_ok = solved(s, "grid", grid_eps=1.0)
        assert b_ok and g_ok and f_ok, f"seed {seed}: coverage failed"
        b_cams.append(bc)
        g_cams.append(gc)
        f_cams.append(fc)
        ratios.append(ft / bt)
    mean_b = statistics.mean(b_cams)
    mean_g = statistics.mean(g_cams)
    mean_f = statistics.mean(f_cams)
    saving = (mean_g - mean_b) / mean_g
    assert mean_b <= mean_g, f"sampling used more cameras: {mean_b:.2f} vs {mean_g:.2f}"
    assert 0.02 <= saving <= 0.25, f"camera saving {saving:.1%} outside [2%, 25%]"
    assert mean_b <= mean_f, (
        f"sampling used more cameras than the 1 m grid: {mean_b:.2f} vs {mean_f:.2f}")
    ratio = statistics.median(ratios)
    assert ratio >= 1.0, f"median runtime ratio 1 m grid/sampling {ratio:.2f} below 1"


def test_polar_sampling_runs_an_order_of_magnitude_faster_than_critical_points():
    # the two arms take turns within each seed, so a swing in host speed
    # falls on both alike, and a scene's runtime is the fastest of three
    # solves, the one a busy host slowed least
    comp_t, samp_t = [], []
    for seed in range(15):
        s = scene(25, seed)
        runs = [solved(s, algo) for _ in range(3) for algo in ("comprehensive", "bcpf")]
        assert all(ok for _, _, ok in runs), f"seed {seed}: coverage failed"
        comp_t.append(min(t for _, t, _ in runs[0::2]))
        samp_t.append(min(t for _, t, _ in runs[1::2]))
    comp_ms, samp_ms = statistics.median(comp_t) * 1000.0, statistics.median(samp_t) * 1000.0
    ratio = comp_ms / samp_ms
    assert ratio >= 10.0, (f"median runtime ratio {ratio:.1f}x below 10x "
                           f"(comprehensive {comp_ms:.1f} ms, bcpf {samp_ms:.2f} ms)")


def test_view_circle_closed_forms_region_shape_and_predicate_agreement():
    # circle seeing a chord of length 2 under 60 degrees: radius 2/sqrt(3),
    # center offset 1/sqrt(3) from the chord midpoint
    chord = Segment((0.0, 0.0), (2.0, 0.0))
    acute_plus, acute_minus = aov_pair(chord, math.pi / 3.0)
    assert acute_plus.radius == pytest.approx(1.1547005383792515, abs=1e-9)
    assert acute_plus.center == pytest.approx((1.0, 0.5773502691896258), abs=1e-9)
    assert acute_minus.center == pytest.approx((1.0, -0.5773502691896258), abs=1e-9)
    obtuse_plus, _ = aov_pair(chord, 2.0 * math.pi / 3.0)
    assert obtuse_plus.radius == pytest.approx(1.1547005383792515, abs=1e-9)
    # obtuse viewing angle: the bounding arc crosses to the other side
    assert obtuse_plus.center == pytest.approx((1.0, -0.5773502691896258), abs=1e-9)

    t = Target(0, (50.0, 50.0), (51.0, 50.0), (0.0, 1.0))
    wide = SensorSpec(aov_deg=120.0, r_min=0.0, r_max=10.0, phi_deg=90.0)
    assert sum(1 for _ in bcpf(t, wide).pieces()) == 5

    scenes = [
        Scenario(width=100.0, height=100.0, sensor=sensor(), targets=(t,)),
        Scenario(width=100.0, height=100.0, sensor=sensor(), targets=(t,),
                 obstacles=(Obstacle(0, ((47.0, 53.0), (50.2, 52.0))),)),
        Scenario(width=100.0, height=100.0, sensor=sensor(),
                 targets=(t, Target(1, (53.0, 54.0), (54.0, 54.0), (0.0, -1.0)))),
    ]
    rng = random.Random(20)
    for k, s in enumerate(scenes):
        reg = cpf(t, s)
        (blockers,) = interacting_blockers([t], s)
        disagreements = 0
        for _ in range(10_000):
            p = (rng.uniform(28.0, 72.0), rng.uniform(28.0, 72.0))
            if boundary_distance(reg, p) <= 1e-6:
                continue
            covered = (covers(t, p, s.sensor, field_tolerance(t, s.sensor))
                       and not occlusion_excluded(t, p, blockers, s.eps_len))
            if contains(reg, p) != covered:
                disagreements += 1
        assert disagreements == 0, f"scene {k}: {disagreements} region/predicate mismatches"


def _run_cli(argv):
    code = main(list(argv))
    assert code == 0, f"camplan {' '.join(argv)} exited {code}"


def _rows_without_runtime(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("runtime_ms")
    return [r[:col] + r[col + 1:] for r in rows]


def test_identical_reruns_produce_identical_files(tmp_path):
    scn = tmp_path / "scenario.json"
    gen = ["generate", "--n", "8", "--seed", "5", "--margin", "3",
           "--r-max", "20", "--out", str(scn)]
    _run_cli(gen)
    first = scn.read_bytes()
    _run_cli(gen)
    assert scn.read_bytes() == first, "generate is not reproducible"

    for algo, extra in (("comprehensive", []), ("bcpf", ["--eps-a", "0.1"]),
                        ("grid", ["--grid-eps", "5"])):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            _run_cli(["solve", str(scn), "--algo", algo, *extra, "--out", str(out)])
        assert a.read_bytes() == b.read_bytes(), f"{algo} solutions differ between reruns"

    bench = ["bench", "--axis", "n", "--values", "4,8", "--algos", "bcpf:0.1,grid:5",
             "--seeds", "2", "--margin", "3", "--r-max", "20"]
    c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    _run_cli(bench + ["--out", str(c1)])
    _run_cli(bench + ["--out", str(c2)])
    assert _rows_without_runtime(c1) == _rows_without_runtime(c2)
    with open(c1, newline="") as fh:
        assert next(csv.reader(fh)) == CSV_COLUMNS
