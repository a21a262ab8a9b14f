"""Sweep tests: the coverage reference at a point, maximal-subset enumeration, vd optimization."""
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camplan
import camplan.sweep as sweep_module
from camplan.cli import solution_f1
from camplan.fields import covers
from camplan.geom import EPS_ANG, Segment, bearing, norm_angle, segment_blocks_triangle, wrap_pi
from camplan.model import CameraPlacement, Obstacle, Scenario, SensorSpec, Solution, Target
from camplan.sweep import sweep_points

from oracles import boundary_distance, contains, groups_equal, optimal_vd, subset_window

DEG = math.pi / 180.0
SENSOR = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=2.0, phi_deg=90.0)
T0 = Target(0, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def scen(targets, sensor=SENSOR, obstacles=(), w=100.0, h=100.0):
    return Scenario(width=w, height=h, sensor=sensor, targets=tuple(targets), obstacles=tuple(obstacles))


def arc_target(tid, ang_lo_deg, ang_hi_deg, dist=1.0, center=(0.0, 0.0)):
    """Target whose endpoints sit on rays at the given bearings from `center`,
    both at `dist`, facing back toward the center.  Its angular interval seen
    from `center` is exactly [ang_lo_deg, ang_hi_deg]."""
    a1, a2 = ang_lo_deg * DEG, ang_hi_deg * DEG
    p1 = (center[0] + dist * math.cos(a1), center[1] + dist * math.sin(a1))
    p2 = (center[0] + dist * math.cos(a2), center[1] + dist * math.sin(a2))
    mid_ang = (a1 + a2) / 2.0
    normal = (-math.cos(mid_ang), -math.sin(mid_ang))
    return Target(tid, p1, p2, normal)


def coverable(x, t, s):
    """The coverage reference with no viewing direction fixed, at the scene tolerance."""
    return covers(t, x, s.sensor, s.tol, scenario=s)


def is_fully_covered(t, cam, s):
    """The coverage reference for one placement, as the solution verifier calls it."""
    return covers(t, cam.position, s.sensor, s.tol, vd=cam.vd, scenario=s)


def target_interval(x, t):
    """Bearings from x to the target endpoints, ordered so the ccw sweep
    lo -> hi has width < pi."""
    b1 = bearing(x, t.start)
    b2 = bearing(x, t.end)
    if wrap_pi(b2 - b1) >= 0.0:
        return b1, b2
    return b2, b1


def deviation(x, alpha, t):
    """`cli.solution_f1` of one camera at x, aimed at alpha, assigned target t."""
    return solution_f1(scen([t]), Solution([CameraPlacement(x, alpha)], {t.id: 0}))


# --- coverable ---------------------------------------------------------------

def test_coverable_front():
    assert coverable((0.5, 1.0), T0, scen([T0]))


def test_coverable_behind():
    assert not coverable((0.5, -1.0), T0, scen([T0]))


def test_coverable_out_of_range():
    assert not coverable((0.5, 2.5), T0, scen([T0]))


def test_coverable_subtend_too_wide():
    assert not coverable((0.5, 0.1), T0, scen([T0]))


def test_coverable_r_min():
    s = scen([T0], SensorSpec(aov_deg=100.0, r_min=0.5, r_max=2.0))
    assert not coverable((0.5, 0.45), T0, s)
    assert coverable((0.5, 1.0), T0, s)


def test_coverable_occluded():
    occ = Obstacle(0, ((0.25, 1.0), (0.75, 1.0)))
    assert not coverable((0.5, 1.5), T0, scen([T0], obstacles=[occ]))
    assert coverable((0.5, 0.5), T0, scen([T0], obstacles=[occ]))


# --- is_fully_covered ----------------------------------------------------------

def test_verifier_down_looking():
    cam = CameraPlacement((0.5, 1.0), 3 * math.pi / 2)
    assert is_fully_covered(T0, cam, scen([T0]))


def test_verifier_wrong_direction():
    cam = CameraPlacement((0.5, 1.0), 0.0)
    assert not is_fully_covered(T0, cam, scen([T0]))


def test_verifier_occluded_any_direction():
    occ = Obstacle(0, ((0.25, 1.0), (0.75, 1.0)))
    s = scen([T0], obstacles=[occ])
    for vd in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        assert not is_fully_covered(T0, CameraPlacement((0.5, 2.0), vd), s)


def test_verifier_window_boundary_inclusive():
    # endpoints at bearings 243.43/296.57 deg; cone of 100 deg centered at 270
    # leaves ~23 deg slack; aim so one endpoint sits exactly on the cone edge
    edge = math.atan2(-1.0, -0.5) + math.pi  # bearing to (0,0) minus ...
    b_start = norm_angle(math.atan2(0.0 - 1.0, 0.0 - 0.5))
    cam = CameraPlacement((0.5, 1.0), norm_angle(b_start + SENSOR.theta / 2.0))
    assert is_fully_covered(T0, cam, scen([T0]))


# --- target_interval -----------------------------------------------------------

def test_interval_order_and_width():
    lo, hi = target_interval((0.5, 1.0), T0)
    width = norm_angle(hi - lo)
    assert width < math.pi
    assert width == pytest.approx(2 * math.atan(0.5))
    # ccw sweep lo -> hi runs from the (0,0) endpoint to the (1,0) endpoint here
    assert lo == pytest.approx(math.atan2(-1.0, -0.5) % (2 * math.pi))
    assert hi == pytest.approx(math.atan2(-1.0, 0.5) % (2 * math.pi))


# --- sweep ----------------------------------------------------------------------

def test_sweep_empty():
    assert sweep_points([(50.0, 50.0)], scen([T0]))[0] == []


def test_sweep_two_targets_one_window():
    t1 = arc_target(1, 10.0, 20.0)
    t2 = arc_target(2, 30.0, 40.0)
    s = scen([t1, t2])
    cfgs = sweep_points([(0.0, 0.0)], s)[0]
    assert len(cfgs) == 1
    cfg = cfgs[0]
    assert cfg.covered == (1, 2)
    assert norm_angle(cfg.vd_lo) == pytest.approx(norm_angle(-10 * DEG), abs=1e-9)
    assert cfg.vd_window == pytest.approx(70 * DEG, abs=1e-9)
    assert cfg.vd_rep == pytest.approx(25 * DEG, abs=1e-9)


def test_sweep_far_apart_targets_two_windows():
    t1 = arc_target(1, 0.0, 20.0)
    t2 = arc_target(2, 170.0, 190.0)
    s = scen([t1, t2])
    cfgs = sweep_points([(0.0, 0.0)], s)[0]
    assert len(cfgs) == 2
    assert sorted(c.covered for c in cfgs) == [(1,), (2,)]


def test_sweep_wraparound():
    t1 = arc_target(1, 350.0, 355.0)
    t2 = arc_target(2, 5.0, 10.0)
    cfgs = sweep_points([(0.0, 0.0)], scen([t1, t2]))[0]
    assert len(cfgs) == 1
    assert cfgs[0].covered == (1, 2)


def test_sweep_soundness_examples():
    t1 = arc_target(1, 10.0, 20.0)
    t2 = arc_target(2, 30.0, 40.0)
    s = scen([t1, t2])
    for cfg in sweep_points([(0.0, 0.0)], s)[0]:
        for tid in cfg.covered:
            t = next(x for x in s.targets if x.id == tid)
            assert is_fully_covered(t, CameraPlacement(cfg.position, cfg.vd_rep), s)


# --- deviation / optimization ----------------------------------------------------

def test_deviation_values():
    b = math.atan2(-1.0, 0.0)  # straight down from (0.5, 1) to midpoint
    assert deviation((0.5, 1.0), norm_angle(b), T0) == pytest.approx(0.0, abs=1e-12)
    assert deviation((0.5, 1.0), norm_angle(b + 30 * DEG), T0) == pytest.approx(math.pi / 6)
    assert deviation((0.5, 1.0), norm_angle(b + math.pi), T0) == pytest.approx(math.pi)


def test_optimal_vd_single_target():
    alpha = optimal_vd([1.1], 0.0, math.pi, "f1")
    assert alpha == pytest.approx(1.1)


def test_optimal_vd_plateau_tie():
    alpha = optimal_vd([0.2, 0.6], 0.3, 0.2, "f1")
    assert alpha == pytest.approx(0.4)


def test_optimal_vd_finf():
    alpha = optimal_vd([0.0, 10 * DEG, 80 * DEG], -10 * DEG, 60 * DEG, "finf")
    assert norm_angle(alpha) == pytest.approx(norm_angle(40 * DEG))


def f1_at(cfg, alpha):
    """Total midpoint deviation of cfg's targets at direction alpha."""
    return sum(abs(wrap_pi(b - alpha)) for b in cfg.mid_bearings)


def cfg_optimal_vd(cfg, mode="f1"):
    return optimal_vd(cfg.mid_bearings, cfg.vd_lo, cfg.vd_window, mode)


def test_optimize_vd_single_target_zero_deviation():
    t1 = arc_target(1, 10.0, 20.0)
    s = scen([t1])
    (cfg,) = sweep_points([(0.0, 0.0)], s)[0]
    alpha = cfg_optimal_vd(cfg)
    assert f1_at(cfg, alpha) == pytest.approx(0.0, abs=1e-9)
    assert alpha == pytest.approx(15 * DEG, abs=1e-9)


# --- property suites --------------------------------------------------------------

def random_scene(rng, n, box=20.0, aov=100.0, r_max=3.0):
    targets = []
    for i in range(n):
        cx, cy = rng.uniform(2, box - 2), rng.uniform(2, box - 2)
        ang = rng.uniform(0, 2 * math.pi)
        half = rng.uniform(0.1, 0.5)
        dx, dy = math.cos(ang), math.sin(ang)
        side = rng.choice((1.0, -1.0))
        targets.append(
            Target(i, (cx - half * dx, cy - half * dy), (cx + half * dx, cy + half * dy),
                   (-dy * side, dx * side))
        )
    return scen(targets, SensorSpec(aov_deg=aov, r_min=0.0, r_max=r_max), w=box, h=box)


def brute_force_maximal(x, s):
    """Oracle: maximal co-coverable subsets by exhaustive subset enumeration."""
    cov = [t for t in s.targets if coverable(x, t, s)]
    theta = s.sensor.theta
    eps = EPS_ANG
    ivals = {t.id: target_interval(x, t) for t in cov}

    def fits(sub):
        for anchor in sub:
            a_lo = ivals[anchor][0]
            ok = True
            for tid in sub:
                lo, hi = ivals[tid]
                rel = norm_angle(lo - a_lo)
                if rel + norm_angle(hi - lo) > theta + eps:
                    ok = False
                    break
            if ok:
                return True
        return False

    feasible = []
    ids = [t.id for t in cov]
    for r in range(1, len(ids) + 1):
        for sub in itertools.combinations(ids, r):
            if fits(sub):
                feasible.append(frozenset(sub))
    return {f for f in feasible if not any(f < g for g in feasible)}


def test_sweep_matches_brute_force():
    rng = random.Random(42)
    for trial in range(40):
        s = random_scene(rng, rng.randint(1, 8))
        x = (rng.uniform(0, 20), rng.uniform(0, 20))
        got = {frozenset(c.covered) for c in sweep_points([x], s)[0]}
        want = brute_force_maximal(x, s)
        assert got == want, f"trial {trial} at {x}"


def test_sweep_soundness_random():
    rng = random.Random(99)
    checked = 0
    for _ in range(80):
        s = random_scene(rng, rng.randint(2, 7))
        # sample in front of a random target so sweeps are rarely empty
        t = s.targets[rng.randrange(s.n)]
        d = rng.uniform(0.3, 2.8)
        jx, jy = rng.uniform(-1, 1), rng.uniform(-1, 1)
        x = (t.midpoint[0] + t.normal[0] * d + jx, t.midpoint[1] + t.normal[1] * d + jy)
        for cfg in sweep_points([x], s)[0]:
            alpha = cfg_optimal_vd(cfg)
            for tid in cfg.covered:
                t = next(t for t in s.targets if t.id == tid)
                assert is_fully_covered(t, CameraPlacement(cfg.position, cfg.vd_rep), s)
                assert is_fully_covered(t, CameraPlacement(cfg.position, alpha), s)
                checked += 1
    assert checked > 50


def test_f1_grid_optimality():
    rng = random.Random(5)
    for _ in range(25):
        s = random_scene(rng, rng.randint(2, 6))
        x = (rng.uniform(0, 20), rng.uniform(0, 20))
        for cfg in sweep_points([x], s)[0]:
            alpha = cfg_optimal_vd(cfg)
            best = f1_at(cfg, alpha)
            steps = max(int(cfg.vd_window / 0.001), 1)
            for k in range(steps + 1):
                a = cfg.vd_lo + cfg.vd_window * k / steps
                assert f1_at(cfg, norm_angle(a)) >= best - 1e-6


def test_optimal_vd_rotation_equivariant():
    rng = random.Random(17)
    t1 = arc_target(1, 10.0, 20.0)
    t2 = arc_target(2, 50.0, 60.0)
    s = scen([t1, t2])
    (cfg,) = sweep_points([(0.0, 0.0)], s)[0]
    base = cfg_optimal_vd(cfg)
    for _ in range(10):
        rot = rng.uniform(0, 2 * math.pi)
        c, sn = math.cos(rot), math.sin(rot)

        def mv(p):
            return (c * p[0] - sn * p[1], c * p[1] + sn * p[0])

        ts = [Target(t.id, mv(t.start), mv(t.end), mv(t.normal)) for t in (t1, t2)]
        (cfg2,) = sweep_points([(0.0, 0.0)], scen(ts))[0]
        alpha2 = cfg_optimal_vd(cfg2)
        assert wrap_pi(alpha2 - base - rot) == pytest.approx(0.0, abs=1e-9)


def test_subset_window_widens():
    t1 = arc_target(1, 10.0, 20.0)
    t2 = arc_target(2, 30.0, 40.0)
    s = scen([t1, t2])
    (cfg,) = sweep_points([(0.0, 0.0)], s)[0]
    lo, window = subset_window(cfg, [1], s.sensor.theta)
    assert window > cfg.vd_window
    # window for just t1: [20 - 50, 10 + 50] degrees
    assert norm_angle(lo) == pytest.approx(norm_angle(-30 * DEG), abs=1e-9)
    assert window == pytest.approx(90 * DEG, abs=1e-9)


def test_verifier_against_region_membership():
    from camplan.fields import cpf

    s = scen([T0])
    reg = cpf(T0, s)
    rng = random.Random(31)
    for _ in range(400):
        p = (rng.uniform(-2.5, 3.5), rng.uniform(-2.5, 3.5))
        if boundary_distance(reg, p) < 1e-6:
            continue
        assert coverable(p, T0, s) == contains(reg, p)


def test_sweep_module_is_not_shadowed():
    assert camplan.sweep is sweep_module


# --- batched kernel against the scalar references -----------------------------------

lattice = st.integers(-4, 4).map(lambda k: k * 0.5)
lattice_points = st.tuples(lattice, lattice)
float_points = st.tuples(st.floats(-10, 10), st.floats(-10, 10))
any_points = st.one_of(lattice_points, float_points)


@st.composite
def blocker_triples(draw):
    """(apex, base, blocker) with lattice, shared-endpoint and near-radial cases."""
    apex, a, b = draw(any_points), draw(any_points), draw(any_points)
    kind = draw(st.sampled_from(["free", "shared", "radial"]))
    if kind == "free":
        p, q = draw(any_points), draw(any_points)
    elif kind == "shared":
        p = draw(st.sampled_from([apex, a, b]))
        q = draw(st.one_of(any_points, st.sampled_from([apex, a, b])))
    else:
        # along the ray from the apex through a point of the base, nudged sideways
        u = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
        tx, ty = a[0] + u * (b[0] - a[0]), a[1] + u * (b[1] - a[1])
        dx, dy = tx - apex[0], ty - apex[1]
        t1, t2 = draw(st.floats(0.0, 1.5)), draw(st.floats(0.0, 1.5))
        nudge = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6]))
        p = (apex[0] + t1 * dx - nudge * dy, apex[1] + t1 * dy + nudge * dx)
        q = (apex[0] + t2 * dx, apex[1] + t2 * dy)
    return apex, Segment(a, b), Segment(p, q)


@given(st.lists(blocker_triples(), min_size=1, max_size=40), st.sampled_from([0.0, 1e-9, 1e-7]))
@settings(max_examples=300, deadline=None)
def test_batched_occlusion_matches_scalar_reference(triples, eps):
    cols = np.array([(*apex, *base.a, *base.b, *blk.a, *blk.b) for apex, base, blk in triples],
                    dtype=float).T
    got = sweep_module._blocks_triangle_np(*cols, eps)
    want = [segment_blocks_triangle(blk, apex, base, eps) for apex, base, blk in triples]
    assert got.tolist() == want


def levelwise_maximal(x, s):
    """Oracle for many coverable targets: every feasible subset, grown one
    target at a time (a subset of a feasible set is feasible), then the maximal ones."""
    cov = [t for t in s.targets if coverable(x, t, s)]
    limit = s.sensor.theta + EPS_ANG
    ivals = {t.id: target_interval(x, t) for t in cov}

    def fits(sub):
        return any(
            all(norm_angle(ivals[m][0] - ivals[a][0]) + norm_angle(ivals[m][1] - ivals[m][0]) <= limit
                for m in sub)
            for a in sub)

    ids = sorted(ivals)
    level = [(tid,) for tid in ids if fits((tid,))]
    feasible = set()
    while level:
        feasible.update(frozenset(sub) for sub in level)
        level = [sub + (tid,) for sub in level for tid in ids if tid > sub[-1] and fits(sub + (tid,))]
    return {f for f in feasible if not any(f < g for g in feasible)}


def occluded_scene(rng, n):
    s = random_scene(rng, n)
    obstacles = []
    for k in range(rng.randint(0, 3)):
        x, y = rng.uniform(2, 18), rng.uniform(2, 18)
        chain = [(x, y)]
        for _ in range(rng.randint(1, 3)):
            x = min(max(x + rng.uniform(-2, 2), 0.0), 20.0)
            y = min(max(y + rng.uniform(-2, 2), 0.0), 20.0)
            chain.append((x, y))
        obstacles.append(Obstacle(k, tuple(chain)))
    return scen(s.targets, s.sensor, obstacles, w=20.0, h=20.0)


def test_sweep_points_matches_brute_force_at_every_point(monkeypatch):
    monkeypatch.setattr(sweep_module, "_CHUNK", 37)
    rng = random.Random(2024)
    for trial in range(6):
        s = occluded_scene(rng, rng.randint(3, 8))
        pts = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(150)]
        for t in s.targets:
            for _ in range(8):
                d = rng.uniform(0.3, 2.8)
                pts.append((t.midpoint[0] + t.normal[0] * d + rng.uniform(-1, 1),
                            t.midpoint[1] + t.normal[1] * d + rng.uniform(-1, 1)))
        groups = sweep_points(pts, s)
        assert len(groups) == len(pts)
        for k, (x, group) in enumerate(zip(pts, groups)):
            assert all(c.source == k and c.position == x for c in group)
            assert all(list(c.covered) == sorted(c.covered) for c in group)
            assert {frozenset(c.covered) for c in group} == brute_force_maximal(x, s), f"trial {trial} point {k}"
            if k % 25 == 0:
                assert levelwise_maximal(x, s) == brute_force_maximal(x, s)


def ring_scene(n=70, aov=10.0, center=(50.0, 50.0)):
    """n narrow targets on a ring facing its center, ids shuffled against index order."""
    step = 360.0 / n
    ids = list(range(n))
    random.Random(3).shuffle(ids)
    targets = [arc_target(ids[k], k * step, k * step + 2.0, dist=5.0, center=center) for k in range(n)]
    return scen(targets, SensorSpec(aov_deg=aov, r_min=0.0, r_max=8.0))


def test_sweep_points_wide_point_matches_oracle():
    s = ring_scene()
    rng = random.Random(8)
    pts = [(50.0, 50.0)] + [(50.0 + rng.uniform(-0.5, 0.5), 50.0 + rng.uniform(-0.5, 0.5)) for _ in range(5)]
    groups = sweep_points(pts, s)
    widest = max(len({tid for c in g for tid in c.covered}) for g in groups)
    assert widest > 64
    for x, group in zip(pts, groups):
        assert all(list(c.covered) == sorted(c.covered) for c in group)
        assert {frozenset(c.covered) for c in group} == levelwise_maximal(x, s)


def test_sweep_points_independent_of_chunking(monkeypatch):
    rng = random.Random(77)
    s = occluded_scene(rng, 8)
    ring = ring_scene(aov=30.0, center=(10.0, 10.0))
    pts = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(300)]
    for scene, points in ((s, pts), (ring, [(10.0, 10.0), (10.3, 9.8)] + pts[:40])):
        monkeypatch.setattr(sweep_module, "_CHUNK", len(points))
        whole = sweep_points(points, scene)
        assert sum(map(len, whole)) > 0
        for chunk in (1, 7, 128):
            monkeypatch.setattr(sweep_module, "_CHUNK", chunk)
            assert groups_equal(sweep_points(points, scene), whole)
        # one point per subset batch and one pair per occlusion batch
        monkeypatch.setattr(sweep_module, "_BUDGET", 1)
        monkeypatch.setattr(sweep_module, "_CHUNK", 50)
        assert groups_equal(sweep_points(points, scene), whole)
        monkeypatch.undo()
