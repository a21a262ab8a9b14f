"""Candidate generation tests: comprehensive, polar field sampling, grid."""
import math
import random

import numpy as np
import pytest

import camplan.discretize as discretize
import camplan.geom as geom
from camplan.discretize import (
    _TAG_RANK,
    CandidateSet,
    _clamp_to_area,
    _dedupe,
    _interacting_pairs,
    _pair_view_circles,
    bcpf_sample,
    comprehensive_candidates,
    fan_steps,
    grid_sample,
)
from camplan.fields import bcpf, cpf, interacting_blockers, regions
from camplan.geom import Arc, Circle, Segment, curve_table
from camplan.model import Obstacle, Scenario, SensorSpec, Target
from camplan.scenario import GenParams, random_scenario
from camplan.select import greedy_cover
from camplan.sweep import sweep_points

from oracles import (OVERLAP, contains, from_configs, interacting_pairs, intersect, pairwise_cuts,
                     piece_curve_intersections, piece_intersections)


def scen(targets, sensor, obstacles=(), w=100.0, h=100.0):
    return Scenario(width=w, height=h, sensor=sensor, targets=tuple(targets), obstacles=tuple(obstacles))


SENSOR_2 = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=2.0, phi_deg=90.0)
SENSOR_20 = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=20.0, phi_deg=90.0)


# --- comprehensive ------------------------------------------------------------

def test_comprehensive_single_target_is_field_vertices():
    t = Target(0, (5.0, 5.0), (6.0, 5.0), (0.0, 1.0))
    cs = comprehensive_candidates(scen([t], SENSOR_2))
    assert len(cs) == 5
    assert set(cs.provenance) == {"cpf-critical"}
    verts = {tuple(round(c, 6) for c in v) for v in bcpf(t, SENSOR_2).vertices()}
    got = {tuple(round(c, 6) for c in p) for p in cs.points}
    assert got == verts


@pytest.mark.parametrize("n", [0, 1])
def test_comprehensive_on_a_walled_scene_with_no_or_one_target(n):
    s = scen([facing_left(0, (10.0, 10.0), (11.0, 10.0))][:n], SENSOR_2,
             [Obstacle(0, ((9.0, 11.0), (10.2, 11.2))), Obstacle(1, ((12.0, 9.0), (12.5, 11.0)))], w=30.0, h=30.0)
    cs = comprehensive_candidates(s)
    want = unpruned_comprehensive(s)
    assert cs.points.tolist() == [list(p) for p in want.points]
    assert cs.provenance == want.provenance and cs.uncoverable == want.uncoverable == ()
    assert len(cs) > 5 if n else cs.points.shape == (0, 2)


def test_comprehensive_far_targets_no_cross_points():
    t1 = Target(0, (10.0, 10.0), (11.0, 10.0), (0.0, 1.0))
    t2 = Target(1, (80.0, 80.0), (81.0, 80.0), (0.0, 1.0))
    cs = comprehensive_candidates(scen([t1, t2], SENSOR_2))
    assert len(cs) == 10
    assert set(cs.provenance) == {"cpf-critical"}


def test_comprehensive_rejects_r_min():
    t = Target(0, (5.0, 5.0), (6.0, 5.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        comprehensive_candidates(scen([t], SensorSpec(100.0, 0.5, 2.0)))


def test_comprehensive_rejects_wide_targets():
    t = Target(0, (5.0, 5.0), (6.5, 5.0), (0.0, 1.0))  # W = 1.5 > r_max/2
    with pytest.raises(ValueError):
        comprehensive_candidates(scen([t], SENSOR_2))


def test_comprehensive_reports_empty_field():
    # narrow facing cone walled off just above the target: inside the gap every
    # viewpoint needs > 100 degrees of view, beyond the wall nothing sees past it
    t = Target(0, (50.0, 50.0), (50.3, 50.0), (0.0, 1.0))
    wall = Obstacle(0, ((49.0, 50.02), (51.3, 50.02)))
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=0.6, phi_deg=5.0)
    cs = comprehensive_candidates(scen([t], sensor, [wall]))
    assert cs.uncoverable == (0,)


def test_comprehensive_candidates_in_area_and_sorted():
    # field pokes out of the area; candidates are clipped onto the boundary
    t = Target(0, (0.5, 1.0), (1.5, 1.0), (0.0, 1.0))
    cs = comprehensive_candidates(scen([t], SENSOR_2, w=30.0, h=30.0))
    assert all(0.0 <= p[0] <= 30.0 and 0.0 <= p[1] <= 30.0 for p in cs.points)
    assert cs.points.tolist() == sorted(cs.points.tolist())


def test_comprehensive_pair_covers_both_with_one_camera():
    t1 = Target(0, (45.0, 45.0), (46.0, 45.0), (0.0, 1.0))
    t2 = Target(1, (45.0, 46.0), (46.0, 46.0), (0.0, -1.0))
    s = scen([t1, t2], SENSOR_20)
    cs = comprehensive_candidates(s)
    assert len(cs) > 10
    configs = [c for lst in sweep_points(cs.points, s) for c in lst]
    sol = greedy_cover(from_configs(configs, s.targets), s)
    assert len(sol.placements) == 1
    assert set(sol.assignment) == {0, 1}


# --- comprehensive: box-pruned pair loops against the unpruned ones -----------

def unpruned_comprehensive(s, found=None):
    """Reference: `comprehensive_candidates` with its pair loops unpruned, every
    piece against every piece and every view circle.  Appends each non-empty
    kernel result, tagged, to `found`."""
    if s.sensor.r_min > 0.0:
        raise ValueError("comprehensive candidates require r_min = 0")
    if any(t.width > s.sensor.r_max / 2.0 + s.eps_len for t in s.targets):
        raise ValueError("comprehensive candidates require target width <= r_max/2")
    eps = s.eps_len
    regions = {t.id: cpf(t, s) for t in s.targets}
    uncoverable = tuple(t.id for t in s.targets if regions[t.id].is_empty())

    tagged = []
    for reg in regions.values():
        for v in reg.vertices():
            tagged.append((v, "cpf-critical"))

    pieces = {tid: list(reg.pieces()) for tid, reg in regions.items()}
    pairs = interacting_pairs(s)
    for i, j in pairs:
        ti, tj = s.targets[i], s.targets[j]
        for pi in pieces[ti.id]:
            for pj in pieces[tj.id]:
                for pt in piece_intersections(pi, pj, eps):
                    tagged.append((pt, "cpf-x-cpf"))
        if s.sensor.theta < math.pi:
            for circle in _pair_view_circles(ti, tj, s.sensor.theta):
                for tid in (ti.id, tj.id):
                    for piece in pieces[tid]:
                        for pt in piece_curve_intersections(piece, circle, eps):
                            tagged.append((pt, "cpf-x-aov"))
    if found is not None:
        found.extend(tp for tp in tagged if tp[1] != "cpf-critical")

    xy = _clamp_to_area(np.array([p for p, _ in tagged], dtype=float).reshape(-1, 2), s)
    rank = np.array([_TAG_RANK[tag] for _, tag in tagged], dtype=np.int64)
    kept = _dedupe(xy, rank, eps)
    tags = list(_TAG_RANK)
    return CandidateSet([tuple(p) for p in xy[kept].tolist()], [tags[r] for r in rank[kept].tolist()],
                        params={"algo": "comprehensive"}, uncoverable=uncoverable)


def facing_left(tid, a, b):
    """Target from a to b facing the left of its travel."""
    L = math.dist(a, b)
    return Target(tid, a, b, ((a[1] - b[1]) / L, (b[0] - a[0]) / L))


def bench_family(seed, n=25, r_max=20.0, n_obstacles=25):
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=r_max, phi_deg=90.0)
    return random_scenario(GenParams(width=100.0, height=100.0, n_targets=n, n_obstacles=n_obstacles,
                                     margin=3.0, seed=seed), sensor)


def touching_fields():
    """Targets sharing endpoints, facing each other, and side by side."""
    ts = [facing_left(0, (10.0, 10.0), (11.0, 10.0)), facing_left(1, (11.0, 10.0), (11.6, 10.8)),
          facing_left(2, (11.6, 10.8), (10.8, 11.4)),
          facing_left(3, (20.0, 10.0), (21.0, 10.0)), facing_left(4, (21.0, 10.5), (20.0, 10.5)),
          facing_left(5, (20.0, 12.0), (21.0, 12.0)), facing_left(6, (21.0, 12.0), (22.0, 12.0))]
    return scen(ts, SensorSpec(aov_deg=100.0, r_min=0.0, r_max=4.0, phi_deg=90.0), w=30.0, h=30.0)


def tiny_view_circles():
    """Pairs whose ends are 1e-6 to 1e-3 m apart: their view circles are tiny,
    and field pieces through the shared corner pass near tangent to them."""
    ts = []
    for k, gap in enumerate((1e-6, 1e-5, 1e-4, 1e-3)):
        for m, (turn, side) in enumerate(((0.0, 0.0), (math.pi / 2, math.pi / 4), (0.3, -1.2), (2.5, 2.0))):
            x0, y0 = 5.0 + 8.0 * m, 5.0 + 8.0 * k
            a = facing_left(len(ts), (x0, y0), (x0 + 1.0, y0))
            bx, by = x0 + 1.0 + gap * math.cos(side), y0 + gap * math.sin(side)
            ts += [a, facing_left(len(ts) + 1, (bx, by), (bx + 0.8 * math.cos(turn), by + 0.8 * math.sin(turn)))]
    return scen(ts, SensorSpec(aov_deg=100.0, r_min=0.0, r_max=2.0, phi_deg=90.0), w=40.0, h=40.0)


def touching_boxes():
    """Collinear targets 3 m apart: the field pieces along their line span
    [-1, 2] m around each target, so they touch end to end, or miss by a few
    ulps or a fraction of eps; likewise up a column."""
    eps = scen([], SENSOR_2, w=60.0, h=60.0).eps_len
    ts = []
    for k, shift in enumerate((0.0, 2.0, -2.0, 0.5, 1.5, 3.0)):
        y0 = 5.0 + 5.0 * k
        ts.append(facing_left(len(ts), (5.0, y0), (6.0, y0)))
        x1 = 8.0 + (shift * eps if k > 2 else shift * math.ulp(8.0))
        ts.append(facing_left(len(ts), (x1, y0), (x1 + 1.0, y0)))
        x0 = 30.0 + 5.0 * k
        ts.append(facing_left(len(ts), (x0, 5.0), (x0, 4.0)))
        y1 = 8.0 + (shift * eps if k > 2 else shift * math.ulp(8.0))
        ts.append(facing_left(len(ts), (x0, y1 + 1.0), (x0, y1)))
    return scen(ts, SENSOR_2, w=60.0, h=60.0)


def collinear_walls():
    """Walls on the lines of field segments: the target line (the facing
    cone's edge at phi 90 degrees), a shadow ray of another wall, and a
    45-degree facing edge."""
    t0 = facing_left(0, (20.0, 20.0), (21.0, 20.0))
    t1 = facing_left(1, (24.0, 22.0), (25.0, 22.0))
    q = (23.0, 24.0)
    ux, uy = (q[0] - 20.0) / math.dist(q, (20.0, 20.0)), (q[1] - 20.0) / math.dist(q, (20.0, 20.0))
    walls = [Obstacle(0, ((22.5, 20.0), (26.0, 20.0))), Obstacle(1, ((22.0, 24.0), q)),
             Obstacle(2, ((q[0] + 2.0 * ux, q[1] + 2.0 * uy), (q[0] + 3.0 * ux, q[1] + 3.0 * uy))),
             Obstacle(3, ((20.5 + 3.0, 20.0 + 3.0), (20.5 + 4.0, 20.0 + 4.0)))]
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=8.0, phi_deg=45.0)
    return scen([t0, t1], sensor, walls, w=40.0, h=40.0)


PRUNING_SCENES = {
    "bench-3000": lambda: bench_family(3000),
    "bench-3001": lambda: bench_family(3001),
    "touching-fields": touching_fields,
    "tiny-view-circles": tiny_view_circles,
    "touching-boxes": touching_boxes,
    "collinear-walls": collinear_walls,
}


@pytest.mark.parametrize("name", list(PRUNING_SCENES))
def test_pruned_pair_loops_match_unpruned(name, monkeypatch):
    s = PRUNING_SCENES[name]()
    want_found, got_found = [], []
    want = unpruned_comprehensive(s, want_found)
    kernel, batches = discretize.intersections, []

    def spy(a, ia, b, ib, eps):
        call, xy, overlap = kernel(a, ia, b, ib, eps)
        # a call against a piece is a field crossing, one against a full
        # circle a view-circle crossing
        batches.append(len(ia))
        got_found.extend((tuple(pt), "cpf-x-cpf" if piece else "cpf-x-aov")
                         for pt, piece in zip(xy.tolist(), b.piece[ib[call]].tolist()))
        return call, xy, overlap

    monkeypatch.setattr(discretize, "intersections", spy)
    got = comprehensive_candidates(s)
    # one batch makes every kernel call that finds a point, in the same order;
    # the view-circle calls follow the piece pairs, so only the interleaving
    # of the two tags differs
    assert len(batches) == 1
    assert {tag for _, tag in want_found} == {"cpf-x-cpf", "cpf-x-aov"}
    for tag in ("cpf-x-cpf", "cpf-x-aov"):
        assert [pt for pt, g in got_found if g == tag] == [pt for pt, g in want_found if g == tag]
    assert np.array(got.points).tobytes() == np.array(want.points).tobytes()
    assert got.provenance == want.provenance
    assert got.uncoverable == want.uncoverable


@pytest.mark.parametrize("name", list(PRUNING_SCENES))
def test_fields_match_the_scalar_pair_loop(name, monkeypatch):
    # every field, piece for piece; all but the bench scenes have segments
    # that overlap along a stretch
    s = PRUNING_SCENES[name]()
    blockers = interacting_blockers(s.targets, s)
    got = [repr(cpf(t, s).loops) for t in s.targets]
    got_all = [repr(reg.loops) for reg in regions(s.targets, s.sensor, blockers)]
    fields_per_call = []

    def oracle(table, first, eps):
        fields_per_call.append(len(first) - 1)
        return pairwise_cuts(table, first, eps)

    monkeypatch.setattr(geom, "_cuts", oracle)
    assert [repr(cpf(t, s).loops) for t in s.targets] == got
    assert [repr(reg.loops) for reg in regions(s.targets, s.sensor, blockers)] == got_all
    # one field per cpf, then every field of the scene in one call
    assert fields_per_call == [1] * s.n + [s.n]


def reach_ring_pairs(r_max):
    """A target and 24 more around it, each midpoint within a few ulps of the
    pair's reach, on either side of it."""
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=r_max, phi_deg=90.0)
    side, w = 6.0 * r_max, 0.1 * r_max
    cx = cy = side / 2.0
    ts = [facing_left(0, (cx - w / 2.0, cy), (cx + w / 2.0, cy))]
    reach = 2.0 * r_max + 2.0 * w + scen([], sensor, w=side, h=side).eps_len
    for k in range(24):
        ux, uy = math.cos(2.0 * math.pi * k / 24), math.sin(2.0 * math.pi * k / 24)
        d = reach + (k % 5 - 2) * 2e-16 * reach
        mx, my = cx + d * ux, cy + d * uy
        ts.append(facing_left(k + 1, (mx - w / 2.0 * uy, my + w / 2.0 * ux), (mx + w / 2.0 * uy, my - w / 2.0 * ux)))
    return scen(ts, sensor, w=side, h=side)


PAIR_SCENES = {
    "bcpf-140-r30": lambda: bench_family(3000, n=140, r_max=30.0, n_obstacles=0),
    "bcpf-400-r10": lambda: bench_family(3000, n=400, r_max=10.0, n_obstacles=0),
    "bench-3000": lambda: bench_family(3000),
    "bench-7000": lambda: bench_family(7000),
    "reach-ring-0.5": lambda: reach_ring_pairs(0.5),
    "reach-ring-20": lambda: reach_ring_pairs(20.0),
    "reach-ring-3e4": lambda: reach_ring_pairs(3e4),
}


@pytest.mark.parametrize("name", list(PAIR_SCENES))
def test_interacting_pairs_match_every_pair(name):
    s = PAIR_SCENES[name]()
    want = interacting_pairs(s)
    assert _interacting_pairs(s) == want
    if name.startswith("reach-ring"):   # the first target's pairs fall on both sides of its reach
        assert 0 < sum((0, k) in want for k in range(1, 25)) < 24
    else:
        assert 0 < len(want) < s.n * (s.n - 1) // 2


def piece_bounds(p):
    """(box, radius) of piece p, as the pruning sees it."""
    return discretize._piece_boxes([p]), curve_table([p], pieces=True).circle[:, 2]


def kept_pair(p, q, eps):
    """Whether the pruning keeps piece pair (p, q), at the two pieces' extent."""
    (bp, rp), (bq, rq) = piece_bounds(p), piece_bounds(q)
    box, radius = np.concatenate([bp, bq]), np.concatenate([rp, rq])
    grown = discretize._grow_boxes(box, radius, eps, discretize._extent(box, radius, np.zeros((0, 3))))
    return len(geom.box_pairs(grown[:, :2], grown[:, 2:])[0]) == 1


def kept_ring(p, circle, eps):
    """Whether the pruning keeps piece p against view circle `circle`."""
    box, radius = piece_bounds(p)
    ring = np.array([(*circle.center, circle.radius)])
    ext = discretize._extent(box, radius, ring)
    return bool(discretize._reaches_ring(discretize._grow_boxes(box, radius, eps, ext), ring, eps, ext)[0, 0])


def arc_through(rng, circle, ang):
    """An arc of `circle` whose sweep holds angle `ang`, or stops a hair short."""
    before, after = rng.uniform(1e-9, 2.5), rng.uniform(1e-9, 2.5)
    if rng.random() < 0.3:
        before, after = rng.uniform(0.1, 2.0), -rng.choice([1e-12, 1e-9, 1e-7, 1e-5])
    if rng.random() < 0.5:
        return Arc(circle, ang - before, ang + after, True)
    return Arc(circle, ang + after, ang - before, False)


def near_contact(rng, eps):
    """A piece and a piece or circle that touch, nearly touch or nearly miss,
    where the kernels' tolerances decide."""
    radii = [1.5 * eps, 1e-6, 1e-5, 1e-4, 1e-3, 0.05, 0.5, 2.0, 20.0, 300.0]
    cx, cy = rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)
    kind = rng.randrange(4)
    if kind == 0 and rng.random() < 0.5:
        return segment_pair(rng, cx, cy, eps)
    if kind == 0:   # a segment ending k*eps beside or beyond a point of another
        t, length = rng.uniform(0.0, 2.0 * math.pi), rng.choice([1e-3, 0.1, 1.0, 30.0])
        a = Segment((cx, cy), (cx + length * math.cos(t), cy + length * math.sin(t)))
        px, py = a.point_at(rng.choice([0.0, 1.0, rng.random()]))
        k = rng.choice([0.0, 0.5, 1.0, 1.5, 1.9, 2.0, 2.1, 3.0]) * eps * rng.choice([1.0, -1.0])
        off = t + rng.choice([math.pi / 2, 0.0])
        px, py = px + k * math.cos(off), py + k * math.sin(off)
        u = t + rng.choice([math.pi / 2, 0.0, math.pi, 1e-6, 0.3, rng.uniform(0.0, 2.0 * math.pi)])
        m = rng.choice([1e-3, 1.0, 40.0])
        return a, Segment((px, py), (px + m * math.cos(u), py + m * math.sin(u)))
    r = rng.choice(radii)
    circle = Circle((cx, cy), r)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    if kind == 1:   # a segment near tangent to the circle at angle phi
        bound = min(eps * max(r, 1.0) / r, math.sqrt(eps * max(r, 1.0)))
        d = r + rng.choice([-1.0, -0.01, 0.0, 0.5, 0.9, 0.99, 0.999, 1.0, 1.5]) * bound
        fx, fy = cx + d * math.cos(phi), cy + d * math.sin(phi)
        tx, ty = -math.sin(phi), math.cos(phi)
        l1 = rng.choice([0.0, 0.5 * eps, 1e-6, 1.0, 30.0]) * rng.choice([1.0, -1.0])
        l2 = rng.choice([1e-6, 1.0, 30.0])
        seg = Segment((fx - l1 * tx, fy - l1 * ty), (fx + l2 * tx, fy + l2 * ty))
        return seg, (arc_through(rng, circle, phi) if rng.random() < 0.7 else circle)
    if kind == 2:   # a segment starting k*eps from the circle
        px, py = circle.point_at(phi)
        k = rng.choice([0.0, 0.5, 1.0, 1.5]) * eps * rng.choice([1.0, -1.0])
        u, m = rng.uniform(0.0, 2.0 * math.pi), rng.choice([1e-6, 1.0, 40.0])
        seg = Segment((px + k * math.cos(u), py + k * math.sin(u)), (px + m * math.cos(u), py + m * math.sin(u)))
        return seg, (arc_through(rng, circle, phi) if rng.random() < 0.7 else circle)
    # two circles near external or internal tangency, or nested and nearly concentric
    r2 = rng.choice(radii)
    delta = rng.choice([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0]) * eps
    u = rng.random()
    if u < 0.3:
        d = r + r2 + delta
    elif u < 0.6:
        x = rng.choice([1.5, 2.0, 5.0, 50.0]) * eps
        r2, d = r + x, x - rng.choice([0.1, 0.5, 0.9, 1.0]) * eps
    else:
        d = abs(r - r2) + delta
        if d <= eps:
            d = rng.choice([1.01, 2.0, 5.0]) * eps
    other = Circle((cx + d * math.cos(phi), cy + d * math.sin(phi)), r2)
    a1 = arc_through(rng, circle, phi + rng.choice([0.0, math.pi]))
    a2 = arc_through(rng, other, phi + rng.choice([0.0, math.pi]))
    return a1, (a2 if rng.random() < 0.7 else other)


def segment_pair(rng, cx, cy, eps):
    """Two segments, either way round, where the parallel, collinear and
    clamping rules decide: collinear and overlapping, collinear and touching
    at one end, sharing an end, a T-junction within eps, or a 1 mm segment
    crossing a 40 m one at 2 mrad (parallel by the threshold, which scales
    with the longer segment)."""
    t = rng.uniform(0.0, 2.0 * math.pi)
    ux, uy = math.cos(t), math.sin(t)
    length = rng.choice([1e-3, 0.1, 1.0, 40.0])
    a = Segment((cx, cy), (cx + length * ux, cy + length * uy))
    k = rng.choice([0.0, 0.5, 1.0, 1.5, 3.0]) * eps * rng.choice([1.0, -1.0])
    case = rng.randrange(5)
    if case == 0:   # collinear, sharing a stretch or all of the shorter
        s0, s1 = sorted(rng.uniform(-0.5, 1.5) * length for _ in range(2))
        b = Segment((cx + s0 * ux, cy + s0 * uy), (cx + s1 * ux, cy + s1 * uy))
    elif case == 1:   # collinear, ending k*eps from a's end
        s0, s1 = length + k, length + k + rng.choice([1e-3, 1.0, 40.0])
        b = Segment((cx + s0 * ux, cy + s0 * uy), (cx + s1 * ux, cy + s1 * uy))
    elif case == 2:   # an end in common, at any angle or nearly parallel
        u = t + rng.choice([1e-9, 1e-6, 1e-3, 0.5, math.pi / 2, math.pi - 1e-6, rng.uniform(0.0, 2.0 * math.pi)])
        m = rng.choice([1e-3, 1.0, 40.0])
        end = rng.choice([a.a, a.b])
        b = Segment(end, (end[0] + m * math.cos(u), end[1] + m * math.sin(u)))
    elif case == 3:   # a T-junction: b ends k*eps short of or past a's inside
        px, py = a.point_at(rng.random())
        u = t + rng.choice([math.pi / 2, 0.3, 2.0])
        m = rng.choice([1e-3, 1.0, 40.0])
        b = Segment((px + k * math.cos(u), py + k * math.sin(u)),
                    (px + m * math.cos(u), py + m * math.sin(u)))
    else:   # 1 mm crossing 40 m at its middle, at 2 mrad or wider
        a = Segment((cx, cy), (cx + 40.0 * ux, cy + 40.0 * uy))
        u = t + rng.choice([2e-3, -2e-3, 0.2])
        mx, my = a.point_at(0.5)
        h = 0.5e-3
        b = Segment((mx - h * math.cos(u), my - h * math.sin(u)), (mx + h * math.cos(u), my + h * math.sin(u)))
    return (a, b) if rng.random() < 0.5 else (b, a)


@pytest.mark.parametrize("eps", [1e-9, 1e-9 * math.hypot(100.0, 100.0)])
def test_pruning_keeps_every_pair_the_kernels_meet(eps):
    rng = random.Random(7)
    met = 0
    for _ in range(6000):
        p, q = near_contact(rng, eps)
        if isinstance(q, Circle):
            pts, kept = piece_curve_intersections(p, q, eps), kept_ring(p, q, eps)
        else:
            pts, kept = piece_intersections(p, q, eps), kept_pair(p, q, eps)
        assert kept or not pts, (p, q, pts)
        met += bool(pts)
    assert met > 2000


# --- comprehensive: the batched kernel against the scalar one -------------------

def assert_kernel_matches(calls, eps):
    """The batched kernel over (piece, piece or circle) calls finds, call by
    call, the points `piece_intersections` or `piece_curve_intersections`
    does, bit for bit, and flags the calls whose curves `intersect` finds
    overlapping.  Returns how many calls found a point, and how many
    overlapped."""
    a = curve_table([p for p, _ in calls], pieces=True)
    b = curve_table([q for _, q in calls], pieces=True)
    call, xy, overlap = geom.intersections(a, np.arange(len(calls)), b, np.arange(len(calls)), eps)
    got = [[] for _ in calls]
    for k, pt in zip(call.tolist(), xy.tolist()):
        got[k].append(pt)
    for (p, q), pts, flag in zip(calls, got, overlap.tolist()):
        want = piece_curve_intersections(p, q, eps) if isinstance(q, Circle) else piece_intersections(p, q, eps)
        assert np.array(pts).reshape(-1, 2).tobytes() == np.array(want).reshape(-1, 2).tobytes(), (p, q, pts, want)
        curves = [c.circle if isinstance(c, Arc) else c for c in (p, q)]
        assert flag == (intersect(*curves, eps) is OVERLAP), (p, q)
    return sum(map(bool, got)), int(overlap.sum())


def as_calls(p, q):
    """The (piece, circle) calls a near-contact pair gives: each piece
    against the other's circle."""
    calls = [(p, q)] if isinstance(q, Circle) else []
    for a, b in ((p, q), (q, p)):
        if isinstance(a, (Segment, Arc)) and isinstance(b, Arc):
            calls.append((a, b.circle))
    return calls


@pytest.mark.parametrize("eps", [1e-9, 1e-9 * math.hypot(100.0, 100.0)])
def test_kernel_matches_scalar_on_near_contact_piece_pairs(eps):
    # both argument orders of every pair of pieces
    rng = random.Random(13)
    pairs = [near_contact(rng, eps) for _ in range(6000)]
    calls = [c for p, q in pairs if not isinstance(q, Circle) for c in ((p, q), (q, p))]
    assert sum(isinstance(p, Segment) and isinstance(q, Segment) for p, q in calls) > 1000
    found, overlapped = assert_kernel_matches(calls, eps)
    assert found > len(calls) // 3 and overlapped > 100


@pytest.mark.parametrize("eps", [1e-9, 1e-9 * math.hypot(100.0, 100.0)])
def test_view_circle_kernel_matches_scalar_on_near_contacts(eps):
    rng = random.Random(11)
    calls = [c for _ in range(6000) for c in as_calls(*near_contact(rng, eps))]
    assert len(calls) > 5000
    assert assert_kernel_matches(calls, eps)[0] > 2500


def adversarial_view_calls(eps):
    """(piece, circle) calls where eps decides: coincident and nested circles,
    tangent circles and segments, -0.0 coordinates, and arc sweeps across
    angle 0."""
    unit = Circle((0.0, 0.0), 1.0)
    calls = [
        # identical circles and centers within eps (OVERLAP or nothing)
        (Arc(unit, 0.0, 2.0), unit), (Arc(unit, 2.0, 0.0, False), Circle((0.5 * eps, 0.0), 1.0)),
        (Arc(unit, 0.0, 2.0), Circle((0.0, 0.5 * eps), 1.0 + 0.5 * eps)),
        # zero-length segments, on and off the circle
        (Segment((1.0, 0.0), (1.0, 0.0)), unit), (Segment((0.3, 0.2), (0.3, 0.2)), unit),
        # -0.0 coordinates: ends, centers, crossings on the axes
        (Segment((-0.0, -2.0), (-0.0, 2.0)), unit), (Segment((0.0, -2.0), (-0.0, 2.0)), Circle((-0.0, -0.0), 1.0)),
        (Segment((-2.0, -0.0), (2.0, -0.0)), Circle((-0.0, 0.0), 1.0)),
        (Segment((-1.0, -0.0), (1.0, 0.0)), Circle((0.0, -0.0), 1.0)),
        (Arc(Circle((-0.0, -0.0), 1.0), -1.0, 1.0), Circle((1.0, -0.0), 1.0)),
        (Arc(Circle((1.0, -0.0), 1.0), 2.0, 4.0), Circle((-0.0, 0.0), 1.0)),
        (Arc(Circle((-0.0, 1.0), 1.0), 4.0, 5.5), Circle((-0.0, -1.0), 1.0)),
    ]
    for r, r2 in ((1.0, 2.0), (0.05, 20.0), (300.0, 2.0)):
        for k in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5):
            for ang in (0.0, math.pi / 2, math.pi, 2.0, 5.0):
                u = (math.cos(ang), math.sin(ang))
                c = Circle((10.0, 20.0), r)
                for d in (abs(r2 - r) + k * eps, r + r2 + k * eps):   # nested or apart within eps
                    other = Circle((10.0 + d * u[0], 20.0 + d * u[1]), r2)
                    calls += [(Arc(c, ang - 1.0, ang + 1.0), other), (Arc(other, ang + 2.0, ang - 2.0, False), c),
                              (Arc(c, ang + math.pi - 1.0, ang + math.pi + 1.0), other)]
                # segments near tangent to the circle at ang, ending at the touch point or past it
                foot = (10.0 + (r + k * eps) * u[0], 20.0 + (r + k * eps) * u[1])
                tx, ty = -u[1], u[0]
                for back, ahead in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (eps, 2.0)):
                    calls.append((Segment((foot[0] - back * tx, foot[1] - back * ty),
                                          (foot[0] + ahead * tx, foot[1] + ahead * ty)), c))
    # arcs whose sweep crosses angle 0, both ways, met near their ends
    for start, end, ccw in ((-0.3, 0.4, True), (0.4, -0.3, False), (6.0, 0.5, True), (0.5, 6.0, False),
                            (-1e-12, 1e-12, True), (2 * math.pi - 1e-9, 1e-9, True)):
        for ang in (start, end, 0.0, -1e-13, 1e-13, math.pi):
            p = unit.point_at(ang)
            calls += [(Arc(unit, start, end, ccw), Circle((p[0] + 0.5, p[1]), 0.5 + k * eps))
                      for k in (-1.0, 0.0, 1.0)]
    return calls


def test_view_circle_kernel_matches_scalar_on_adversarial_calls():
    eps = 1e-9 * math.hypot(100.0, 100.0)
    calls = adversarial_view_calls(eps)
    assert assert_kernel_matches(calls, eps)[0] > len(calls) // 3


MIXED_EPS = (1e-9, 1e-9 * math.hypot(100.0, 100.0), 1e-6)


def mixed_tolerance_calls(rng):
    """(piece, piece or circle, eps) calls built at each tolerance of
    MIXED_EPS and shuffled together: near contacts, both ways round, and
    a third of the adversarial view-circle calls."""
    calls = []
    for eps in MIXED_EPS:
        for _ in range(300):
            p, q = near_contact(rng, eps)
            calls += [(p, q, eps)] + ([] if isinstance(q, Circle) else [(q, p, eps)])
        calls += [(p, q, eps) for p, q in adversarial_view_calls(eps) if rng.random() < 1 / 3]
    rng.shuffle(calls)
    return calls


def test_kernel_with_a_tolerance_per_call_matches_each_call_alone():
    # one batch, each call at its own eps, against every call run alone at
    # its scalar eps: the same calls, points and overlap flags, bit for bit
    calls = mixed_tolerance_calls(random.Random(17))
    a = curve_table([p for p, _, _ in calls], pieces=True)
    b = curve_table([q for _, q, _ in calls], pieces=True)
    k = np.arange(len(calls))
    eps = np.array([e for _, _, e in calls])
    call, xy, overlap = geom.intersections(a, k, b, k, eps)
    alone = [geom.intersections(a, k[n:n + 1], b, k[n:n + 1], e) for n, e in enumerate(eps.tolist())]
    assert call.tolist() == [n for n, (c, _, _) in enumerate(alone) for _ in c.tolist()]
    assert xy.tobytes() == np.concatenate([pts for _, pts, _ in alone]).tobytes()
    assert overlap.tolist() == [bool(flag[0]) for _, _, flag in alone]
    assert len(call) > len(calls) // 3 and overlap.sum() > 100
    # the tolerances decide: at any one of them the batch finds other points
    for e in MIXED_EPS:
        one = geom.intersections(a, k, b, k, e)
        assert one[0].tolist() != call.tolist() or one[1].tobytes() != xy.tobytes()


def test_view_circle_kernel_matches_scalar_on_tiny_view_circles():
    # every field piece of the scene against every view circle of every pair
    s = tiny_view_circles()
    fields = {t.id: list(cpf(t, s).pieces()) for t in s.targets}
    calls = []
    for i, j in _interacting_pairs(s):
        for circle in _pair_view_circles(s.targets[i], s.targets[j], s.sensor.theta):
            calls += [(p, circle) for tid in (s.targets[i].id, s.targets[j].id) for p in fields[tid]]
    assert assert_kernel_matches(calls, s.eps_len)[0] > 100


# --- bcpf sampling --------------------------------------------------------------

def test_bcpf_sample_single_ring():
    t = Target(0, (49.5, 50.0), (50.5, 50.0), (0.0, 1.0))
    s = scen([t], SENSOR_20)
    cs = bcpf_sample(s, eps_a=0.1, eps_r=20.0)
    # one ring: eps_r = r_max leaves only the outermost radius per fan angle
    assert len(cs) == 31
    reg = bcpf(t, SENSOR_20)
    for p in cs.points:
        assert contains(reg, p)
    # at most one sample per fan direction
    assert len(cs) <= int(2.0 * SENSOR_20.phi / 0.1)


def test_bcpf_sample_multiple_rings():
    t = Target(0, (49.5, 50.0), (50.5, 50.0), (0.0, 1.0))
    s = scen([t], SENSOR_20)
    one = bcpf_sample(s, eps_a=0.3, eps_r=20.0)
    many = bcpf_sample(s, eps_a=0.3, eps_r=5.0)
    assert len(many) > 2 * len(one)
    bound = int(2.0 * SENSOR_20.phi / 0.3) * math.ceil(20.0 / 5.0 + 1)
    assert len(many) <= bound


def test_bcpf_sample_linear_in_target_count():
    def far_targets(n):
        return [
            Target(i, (5.0 + 45.0 * (i % 20), 5.0 + 45.0 * (i // 20)),
                   (6.0 + 45.0 * (i % 20), 5.0 + 45.0 * (i // 20)), (0.0, 1.0))
            for i in range(n)
        ]

    s4 = scen(far_targets(4), SENSOR_2, w=1000.0, h=1000.0)
    s8 = scen(far_targets(8), SENSOR_2, w=1000.0, h=1000.0)
    c4 = len(bcpf_sample(s4, 0.1, 2.0))
    c8 = len(bcpf_sample(s8, 0.1, 2.0))
    assert 1.8 <= c8 / c4 <= 2.2


def test_bcpf_sample_deterministic():
    t = Target(0, (49.5, 50.0), (50.5, 50.0), (0.0, 1.0))
    s = scen([t], SENSOR_20)
    a = bcpf_sample(s, 0.17, 3.0)
    b = bcpf_sample(s, 0.17, 3.0)
    assert a.points.tobytes() == b.points.tobytes()
    assert a.provenance == b.provenance


def test_bcpf_sample_respects_r_min_floor():
    t = Target(0, (49.5, 50.0), (50.5, 50.0), (0.0, 1.0))
    sensor = SensorSpec(aov_deg=100.0, r_min=10.0, r_max=20.0, phi_deg=90.0)
    s = scen([t], sensor)
    cs = bcpf_sample(s, 0.2, 2.0)
    assert len(cs) > 0
    m = t.midpoint
    for p in cs.points:
        assert math.dist(p, m) >= 10.0 - 1e-9


def test_bcpf_sample_rejects_bad_steps():
    t = Target(0, (49.5, 50.0), (50.5, 50.0), (0.0, 1.0))
    s = scen([t], SENSOR_20)
    with pytest.raises(ValueError):
        bcpf_sample(s, 0.0, 1.0)
    with pytest.raises(ValueError):
        bcpf_sample(s, 0.1, -1.0)
    with pytest.raises(ValueError, match="exceeds the 3.14159 rad facing cone"):
        bcpf_sample(s, 4.0, 1.0)
    with pytest.raises(ValueError, match="more than 1000000 rays in the fans of 1 targets"):
        bcpf_sample(s, 1e-320, 1.0)


def test_fan_steps_bound_the_rays_of_all_fans():
    # counted, never built: a step at the bound still passes, one just past
    # it does not, and a step too small for a finite count is refused
    bound = discretize.MAX_GRID_POINTS
    for n in (1, 3, 7, 1000):
        at = math.pi / (bound // n + 0.5)
        assert fan_steps(math.pi / 2.0, at, n) == bound // n
        with pytest.raises(ValueError, match=f"more than {bound} rays in the fans of {n} targets"):
            fan_steps(math.pi / 2.0, math.pi / (bound // n + 1.5), n)
    for eps_a in (1e-320, 5e-324, 1e-300):
        with pytest.raises(ValueError, match="rays"):
            fan_steps(math.pi / 2.0, eps_a, 10)
    # no targets: the fan count alone is bounded
    with pytest.raises(ValueError, match="in the fans of 0 targets"):
        fan_steps(math.pi / 2.0, 1e-300, 0)
    assert fan_steps(math.pi / 2.0, 0.1, 0) == 31


# --- the point array --------------------------------------------------------------

@pytest.mark.parametrize("targets", [[Target(0, (49.5, 50.0), (50.5, 50.0), (0.0, 1.0))], []],
                         ids=["one target", "no targets"])
def test_generators_return_one_float64_point_array(targets):
    # the form sweep_points reads as it is: C-contiguous float64 (m, 2), with
    # m = 0 a (0, 2) array, and one provenance tag per row
    s = scen(targets, SENSOR_20)
    for cs in (comprehensive_candidates(s), bcpf_sample(s, 0.1, 5.0), grid_sample(s, 10.0)):
        pts = cs.points
        assert type(pts) is np.ndarray and pts.dtype == np.float64 and pts.flags.c_contiguous
        assert pts.shape == (len(cs.provenance), 2)
        assert len(pts) > 0 if targets or cs.params["algo"] == "grid" else pts.shape == (0, 2)


# --- grid -----------------------------------------------------------------------

def grid_scenario():
    return scen([], SENSOR_2, w=100.0, h=100.0)


def test_grid_counts():
    assert len(grid_sample(grid_scenario(), 10.0)) == 100
    assert len(grid_sample(grid_scenario(), 2.0)) == 2500
    cs = grid_sample(grid_scenario(), 100.0)
    assert cs.points.tolist() == [[50.0, 50.0]]


def test_grid_independent_of_targets():
    t = Target(0, (5.0, 5.0), (6.0, 5.0), (0.0, 1.0))
    a = grid_sample(grid_scenario(), 10.0)
    b = grid_sample(scen([t], SENSOR_2), 10.0)
    assert a.points.tobytes() == b.points.tobytes()


def test_grid_rejects_bad_eps():
    with pytest.raises(ValueError):
        grid_sample(grid_scenario(), 0.0)
    with pytest.raises(ValueError):
        grid_sample(grid_scenario(), 101.0)


def test_grid_rejects_more_points_than_the_bound(monkeypatch):
    import camplan.discretize as discretize

    # 1e6 m sides at a 2 m step ask for 2.5e11 points; a vanishing step
    # overflows the per-side count, which must still be rejected, not raise
    huge = scen([], SENSOR_2, w=1e6, h=1e6)
    for eps in (2.0, 1e-300):
        with pytest.raises(ValueError, match="more than 1000000 points"):
            grid_sample(huge, eps)
    monkeypatch.setattr(discretize, "MAX_GRID_POINTS", 100)
    assert len(grid_sample(grid_scenario(), 10.0)) == 100
    with pytest.raises(ValueError, match="more than 100 points"):
        grid_sample(grid_scenario(), 9.0)


def test_grid_points_inside_area():
    cs = grid_sample(grid_scenario(), 7.0)
    assert len(cs) == 14 * 14
    for p in cs.points:
        assert 0.0 < p[0] < 100.0 and 0.0 < p[1] < 100.0
