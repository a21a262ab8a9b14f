"""Sweep tests: the coverage reference at a point, maximal-subset enumeration, vd optimization."""
import itertools
import math
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camplan
import camplan.fields as fields_module
import camplan.geom as geom
import camplan.sweep as sweep_module
from camplan.cli import solution_f1
from camplan.discretize import comprehensive_candidates
from camplan.fields import covers, interacting_blockers
from camplan.geom import EPS_ANG, Segment, bearing, norm_angle, segment_blocks_triangle, wrap_pi
from camplan.model import CameraPlacement, Obstacle, Scenario, SensorSpec, Solution, Target
from camplan.scenario import GenParams, random_scenario
from camplan.sweep import sweep_points

from oracles import (boundary_distance, clause_boundary_points, contains, dense_recheck_subsets, emit_rows,
                     groups_equal, optimal_vd, subset_window, ulp_neighbours)

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
    return covers(t, x, s.sensor, s.eps_len, blockers=interacting_blockers([t], s)[0])


def is_fully_covered(t, cam, s):
    """The coverage reference for one placement, as the solution verifier calls it."""
    return covers(t, cam.position, s.sensor, s.eps_len, vd=cam.vd, blockers=interacting_blockers([t], s)[0])


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
    lo, window = subset_window(cfg, cfg.covered, s.sensor.theta)
    assert norm_angle(lo) == pytest.approx(norm_angle(-10 * DEG), abs=1e-9)
    assert window == pytest.approx(70 * DEG, abs=1e-9)
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


def cfg_optimal_vd(cfg, theta, mode="f1"):
    return optimal_vd(cfg.mid_bearings, *subset_window(cfg, cfg.covered, theta), mode)


def test_optimize_vd_single_target_zero_deviation():
    t1 = arc_target(1, 10.0, 20.0)
    s = scen([t1])
    (cfg,) = sweep_points([(0.0, 0.0)], s)[0]
    alpha = cfg_optimal_vd(cfg, s.sensor.theta)
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
            alpha = cfg_optimal_vd(cfg, s.sensor.theta)
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
            lo, window = subset_window(cfg, cfg.covered, s.sensor.theta)
            alpha = optimal_vd(cfg.mid_bearings, lo, window)
            best = f1_at(cfg, alpha)
            steps = max(int(window / 0.001), 1)
            for k in range(steps + 1):
                a = lo + window * k / steps
                assert f1_at(cfg, norm_angle(a)) >= best - 1e-6


def test_optimal_vd_rotation_equivariant():
    rng = random.Random(17)
    t1 = arc_target(1, 10.0, 20.0)
    t2 = arc_target(2, 50.0, 60.0)
    s = scen([t1, t2])
    (cfg,) = sweep_points([(0.0, 0.0)], s)[0]
    base = cfg_optimal_vd(cfg, s.sensor.theta)
    for _ in range(10):
        rot = rng.uniform(0, 2 * math.pi)
        c, sn = math.cos(rot), math.sin(rot)

        def mv(p):
            return (c * p[0] - sn * p[1], c * p[1] + sn * p[0])

        ts = [Target(t.id, mv(t.start), mv(t.end), mv(t.normal)) for t in (t1, t2)]
        s2 = scen(ts)
        (cfg2,) = sweep_points([(0.0, 0.0)], s2)[0]
        alpha2 = cfg_optimal_vd(cfg2, s2.sensor.theta)
        assert wrap_pi(alpha2 - base - rot) == pytest.approx(0.0, abs=1e-9)


def test_subset_window_widens():
    t1 = arc_target(1, 10.0, 20.0)
    t2 = arc_target(2, 30.0, 40.0)
    s = scen([t1, t2])
    (cfg,) = sweep_points([(0.0, 0.0)], s)[0]
    lo, window = subset_window(cfg, [1], s.sensor.theta)
    assert window > subset_window(cfg, cfg.covered, s.sensor.theta)[1]
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


@pytest.mark.parametrize("sensor", [SensorSpec(aov_deg=100.0, r_min=0.0, r_max=20.0, phi_deg=90.0),
                                    SensorSpec(aov_deg=60.0, r_min=0.0, r_max=8.0, phi_deg=45.0),
                                    SensorSpec(aov_deg=200.0, r_min=1.5, r_max=6.0, phi_deg=70.0)])
def test_cheap_pairs_are_the_pairs_covers_accepts_on_clause_boundaries(sensor, monkeypatch):
    # on each clause boundary at the scene tolerance and a few ulps either
    # side, the sweep's pairs are exactly those covers accepts; the slacks
    # there fall within the margins, so covers decides many of them
    fallbacks = []
    real = fields_module.covers

    def spy(*args):
        fallbacks.append(1)
        return real(*args)

    monkeypatch.setattr(fields_module, "covers", spy)
    targets = (Target(0, (10.0, 10.0), (11.0, 10.0), (0.0, 1.0)),
               Target(1, (13.0, 8.0), (13.6, 8.8), (-0.8, 0.6)))
    s = Scenario(40.0, 40.0, sensor, targets)
    pts = ulp_neighbours([p for t in targets for p in clause_boundary_points(t, sensor, s.eps_len)])
    pi, tj = sweep_module._cheap_pairs(*np.array(pts).T, sweep_module.ScenarioIndex(s))
    want = [(i, j) for i, p in enumerate(pts) for j, t in enumerate(targets) if real(t, p, sensor, s.eps_len)]
    assert list(zip(pi.tolist(), tj.tolist())) == want
    assert 0 < len(want) < len(pts) and len(fallbacks) > 500


@given(st.lists(blocker_triples(), min_size=1, max_size=40), st.sampled_from([0.0, 1e-9, 1e-7]))
@settings(max_examples=300, deadline=None)
def test_batched_occlusion_matches_scalar_reference(triples, eps):
    cols = np.array([(*apex, *base.a, *base.b, *blk.a, *blk.b) for apex, base, blk in triples],
                    dtype=float).T
    got = sweep_module._blocks_triangle_np(*cols, eps)
    want = [segment_blocks_triangle(blk, apex, base, eps) for apex, base, blk in triples]
    assert got.tolist() == want


def clip_cases(rng: random.Random):
    """Apexes and blockers about the target (0, 0)-(4, 0): slivers (apexes on
    the target's line, at its ends), blockers along and touching the edges,
    zero-length blockers, and random ones."""
    s, e = (0.0, 0.0), (4.0, 0.0)
    apexes = [(rng.uniform(-2.0, 6.0), rng.uniform(0.5, 5.0)) for _ in range(12)]
    apexes += [(rng.uniform(-2.0, 6.0), rng.uniform(-5.0, -0.5)) for _ in range(4)]
    apexes += [s, e, (-3.0, 0.0), (2.0, 0.0), (9.0, 0.0)]
    blockers = [((rng.uniform(-2.0, 6.0), rng.uniform(-1.0, 5.0)), (rng.uniform(-2.0, 6.0), rng.uniform(-1.0, 5.0)))
                for _ in range(12)]
    blockers += [(s, e), ((1.0, 0.0), (3.0, 0.0)), ((2.0, 0.0), (2.0, 3.0)), ((2.0, -1.0), (2.0, 0.0)),
                 ((1.0, 1.0), (1.0, 1.0)), ((2.0, 0.0), (2.0, 0.0)), ((-1.0, 0.0), (5.0, 0.0)),
                 ((2.0, 0.5), (2.0, 0.5 + 1e-13)), ((1.0, 0.2), (3.0, 0.2))]
    return s, e, apexes, blockers


@pytest.mark.parametrize("seed", range(4))
def test_clip_matches_scalar_reference_in_both_call_forms(seed):
    # the clip runs its edge lengths and midpoint tests only on the elements
    # that pass its plane tests: both call forms keep every element's verdict
    s, e, apexes, blockers = clip_cases(random.Random(seed))
    apexes += [(a[0] + 1e-9 * (x + 1.0), a[1]) for x, a in enumerate(apexes[:4])]
    want = np.array([[segment_blocks_triangle(Segment(*b), a, Segment(s, e), eps) for b in blockers]
                     for eps in (0.0, 1e-9) for a in apexes])
    k, nb = len(apexes), len(blockers)
    ends = np.array([(*b[0], *b[1]) for b in blockers]).T
    x, y = np.array(apexes).T
    # the sweep's form: flat arrays, one element per (apex, blocker) pair
    for eps, rows in ((0.0, want[:k]), (1e-9, want[k:])):
        flat = [np.repeat(x, nb), np.repeat(y, nb)] + [np.full(k * nb, c) for c in (*s, *e)]
        got = geom._blocks_triangle_np(*flat, *(np.tile(c, k) for c in ends), eps)
        assert got.tolist() == rows.ravel().tolist()
    # `fields._field_inside`'s form: scalar ends, broadcast apex columns, blocker rows, eps 0
    ax, ay = (np.broadcast_to(c[:, None], (k, nb)) for c in (x, y))
    got = geom._blocks_triangle_np(ax, ay, *s, *e, *ends, 0.0)
    assert got.shape == (k, nb) and got.tolist() == want[:k].tolist()
    assert 0 < want.sum() < want.size


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


# --- the cone re-check ----------------------------------------------------------

def fan(rng, n_points, k, base, spread):
    """n_points points 10 m apart, each with k chords around it whose near
    ends lie at bearings from base to base + spread: the points, their
    (point, target) pairs and the target columns."""
    pts = np.column_stack((10.0 * np.arange(n_points), np.zeros(n_points)))
    cols = []
    for p in range(n_points):
        for _ in range(k):
            a1 = base + rng.uniform(0.0, spread)
            a2 = a1 + rng.uniform(0.01, 0.9)
            d = rng.uniform(0.5, 3.0)
            cols.append((pts[p, 0] + d * math.cos(a1), d * math.sin(a1), pts[p, 0] + d * math.cos(a2), d * math.sin(a2)))
    return pts, np.repeat(np.arange(n_points), k), np.arange(n_points * k), np.array(cols).T


def fan_index(cols, theta, ids):
    """The columns `_subsets` reads, with an exact theta."""
    sx, sy, ex, ey = cols
    sensor = types.SimpleNamespace(theta=theta)
    return types.SimpleNamespace(scenario=types.SimpleNamespace(sensor=sensor), sx=sx, sy=sy, ex=ex, ey=ey,
                                 mx=(sx + ex) / 2.0, my=(sy + ey) / 2.0, ids=ids)


def ulps_around(x, n=3):
    out = [x]
    for direction in (np.inf, -np.inf):
        v = x
        for _ in range(n):
            v = float(np.nextafter(v, direction))
            out.append(v)
    return out


def near_limit_thetas(pts, pi, cols, nominal):
    """Thetas that put a config's span, the widest reach of a member from its
    anchor as `_subsets` computes it, exactly at theta, at theta - 1e-9 (a
    span just inside the limit) and at the fit limit theta + EPS_ANG, and a
    few ulps either side of each."""
    sx, sy, ex, ey = cols
    x, y = pts[pi, 0], pts[pi, 1]
    b1, b2 = np.arctan2(sy - y, sx - x), np.arctan2(ey - y, ex - x)
    diff = geom._mod_2pi_np(b2 - b1 + math.pi) - math.pi
    lo = geom._mod_2pi_np(np.where(diff >= 0.0, b1, b2), turns=1)
    reach = geom._mod_2pi_np(lo[None, :] - lo[:, None], turns=1) + np.abs(diff)[None, :]
    spans = reach[pi[:, None] == pi[None, :]]
    span = float(spans[np.argmin(np.abs(spans - nominal))])
    return [t for theta in (span, span + 1e-9, span - EPS_ANG) for t in ulps_around(theta)]


def same_subsets(got, want) -> bool:
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got[0] + got[1], want[0] + want[1]))


@pytest.mark.parametrize("K", [1, 7, 8, 9, 16, 17, 32, 33, 64, 65, 130])
def test_maximal_rows_match_the_per_row_packing(K):
    # rows pack into 1-, 2-, 4- and 8-byte words and into several 8-byte
    # words; equal, nested and empty rows, anchors whose own member does not
    # fit, and a point with no non-empty row
    rng = np.random.default_rng(K)
    G = 7
    fits = rng.random((G, K, K)) < rng.random((G, K, 1))
    for g, a in itertools.product(range(1, G), range(K)):
        kind, b = rng.integers(4), rng.integers(K)
        if kind == 0:
            fits[g, a] = fits[g, b]
        elif kind == 1:
            fits[g, a] = fits[g, b] & (rng.random(K) < 0.7)
        elif kind == 2:
            fits[g, a] = False
    fits[:, np.arange(K), np.arange(K)] &= rng.random((G, K)) < 0.8
    fits[0], fits[-1, -1] = False, True
    reach = np.where(fits, rng.random(fits.shape), 1.0 + rng.random(fits.shape))
    gm, am, span, r, c = emit_rows(fits, reach)
    head, got_span, count, member = sweep_module._maximal_rows(fits, reach)
    assert np.array_equal(head, gm * K + am) and np.array_equal(got_span, span)
    assert np.array_equal(count, np.bincount(r, minlength=gm.size))
    assert np.array_equal(member, gm[r] * K + c)
    assert 0 < head.size and (K == 1 or head.size < fits.any(axis=2).sum())


def window_widths(subsets, theta):
    """Each config's window over all its members, by `oracles.subset_window`,
    from a `_subsets` result (members stand in for target ids)."""
    (_, vd_rep, size, q), (lo, hi, _) = subsets
    widths = []
    for rep, m in zip(vd_rep.tolist(), np.split(q, np.cumsum(size)[:-1])):
        cfg = types.SimpleNamespace(covered=m.tolist(), interval_lo=lo[m].tolist(), interval_hi=hi[m].tolist(),
                                    vd_rep=rep)
        widths.append(subset_window(cfg, cfg.covered, theta)[1])
    return np.array(widths)


@pytest.mark.parametrize("aov", [30.0, 100.0, 200.0, 300.0])
@pytest.mark.parametrize("wraps", [False, True])
def test_subsets_match_dense_recheck_near_the_limit(aov, wraps):
    rng = random.Random(int(aov) + wraps)
    nominal = math.radians(aov)
    near = 0
    for trial in range(12):
        # wrapping fans straddle bearing 0, where lo runs past 2 pi
        base = 2.0 * math.pi - nominal / 2.0 if wraps else rng.uniform(0.0, 2.0 * math.pi)
        pts, pi, tj, cols = fan(rng, 12, rng.randint(2, 6), base, 1.2 * nominal)
        ids = np.array(rng.sample(range(1000), tj.size), dtype=np.int64)
        for theta in near_limit_thetas(pts, pi, cols, nominal):
            idx = fan_index(cols, theta, ids)
            want = dense_recheck_subsets(*pts.T, pi, tj, idx)
            assert same_subsets(sweep_module._subsets(*pts.T, pi, tj, idx), want), (trial, theta)
            near += int((window_widths(want, theta) < 1e-9).sum())
    assert near > 0


@pytest.mark.parametrize("seed", [3, 7])
def test_subsets_match_dense_recheck_on_comprehensive_bench_scenes(seed, monkeypatch):
    passes, near = [], 0
    real = sweep_module._subsets

    def both(*args):
        got = real(*args)
        assert same_subsets(got, dense_recheck_subsets(*args))
        passes.append(got[0][0].size)
        return got

    monkeypatch.setattr(sweep_module, "_subsets", both)
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=20.0, phi_deg=90.0)
    for k in range(30):
        s = random_scenario(GenParams(width=100.0, height=100.0, n_targets=25, n_obstacles=25,
                                      margin=3.0, seed=1000 * seed + k), sensor)
        groups = sweep_points(comprehensive_candidates(s).points, s)
        near += sum(subset_window(cfg, cfg.covered, s.sensor.theta)[1] < 1e-9 for group in groups for cfg in group)
    assert len(passes) == 30 and near > 0
