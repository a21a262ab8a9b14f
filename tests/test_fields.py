"""Placement-field tests: circle pairs, bcpf/cpf regions, occlusion."""
import math
import random

import numpy as np
import pytest

import camplan.fields as fields_module
import camplan.geom as geom_module
from camplan.fields import (
    aov_pair,
    bcpf,
    bcpf_boundary_curves,
    covers,
    cpf,
    field_tolerance,
    interacting_blockers,
    occlusion_excluded,
    subtended_angle,
)
from camplan.geom import Arc, Circle, Segment, segment_blocks_triangle
from camplan.model import MAX_LENGTH, Obstacle, Scenario, SensorSpec, Target
from camplan.scenario import GenParams, random_scenario

from oracles import (_classify_piece, angle_limit_points, boundary_distance, contains, piecewise_pieces,
                     piecewise_region)


def scen(targets, sensor, obstacles=(), w=100.0, h=100.0):
    return Scenario(width=w, height=h, sensor=sensor, targets=tuple(targets), obstacles=tuple(obstacles))


def bcpf_contains(t, sensor, p):
    """Membership in the basic field, as bcpf classifies it."""
    return covers(t, p, sensor, field_tolerance(t, sensor))


def cpf_contains(t, s, p, blockers):
    """Membership in the full field, as cpf classifies it: the clauses at the
    field tolerance, occlusion by the target's blockers at the scene's."""
    return (covers(t, p, s.sensor, field_tolerance(t, s.sensor))
            and not occlusion_excluded(t, p, blockers, s.eps_len))


def exact_contains(t, s, p, blockers):
    """Membership in the exact occluded field: bcpf membership and no
    interacting blocker entering the open sight triangle at zero tolerance."""
    return bcpf_contains(t, s.sensor, p) and not any(
        segment_blocks_triangle(seg, p, t.segment, 0.0) for seg in blockers)


def frontal_fan(region, origin, normal):
    """Angular extent of the region's boundary as seen from origin, measured
    as a spread around the normal direction."""
    base = math.atan2(normal[1], normal[0])
    lo = math.inf
    hi = -math.inf
    for piece in region.pieces():
        if isinstance(piece, Segment):
            samples = [piece.point_at(k / 8.0) for k in range(9)]
        else:
            sw = piece.sweep()
            step = sw / 8.0 if piece.ccw else -sw / 8.0
            samples = [piece.circle.point_at(piece.start + k * step) for k in range(9)]
        for q in samples:
            dx, dy = q[0] - origin[0], q[1] - origin[1]
            if dx == 0.0 and dy == 0.0:
                continue
            rel = math.remainder(math.atan2(dy, dx) - base, math.tau)
            lo = min(lo, rel)
            hi = max(hi, rel)
    if lo > hi:
        return 0.0
    return hi - lo


UNIT_CHORD = Segment((0.0, 0.0), (1.0, 0.0))


# --- aov_pair ---------------------------------------------------------------

def test_aov_pair_right_angle():
    c_plus, c_minus = aov_pair(UNIT_CHORD, math.pi / 2)
    assert c_plus.radius == pytest.approx(0.5)
    assert c_plus.center == pytest.approx((0.5, 0.0), abs=1e-15)
    assert c_minus.center == pytest.approx((0.5, 0.0), abs=1e-15)


def test_aov_pair_acute():
    c_plus, c_minus = aov_pair(UNIT_CHORD, math.pi / 3)
    assert c_plus.radius == pytest.approx(1 / math.sqrt(3))
    assert c_plus.center == pytest.approx((0.5, 0.288675), abs=1e-6)
    assert c_minus.center == pytest.approx((0.5, -0.288675), abs=1e-6)


def test_aov_pair_obtuse():
    c_plus, c_minus = aov_pair(UNIT_CHORD, 2 * math.pi / 3)
    assert c_plus.radius == pytest.approx(1 / math.sqrt(3))
    # obtuse angle: each circle's center lies opposite its arc
    assert c_plus.center == pytest.approx((0.5, -0.288675), abs=1e-6)
    assert c_minus.center == pytest.approx((0.5, 0.288675), abs=1e-6)


def test_aov_pair_rejects_reflex():
    with pytest.raises(ValueError):
        aov_pair(UNIT_CHORD, math.pi)


def test_aov_pair_inscribed_angle_property():
    t = Target(0, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    for theta in (0.3, math.pi / 2 - 0.1, math.pi / 2, 2.0, 2.8):
        c_plus, c_minus = aov_pair(UNIT_CHORD, theta)
        for ang in [k * 0.31 for k in range(21)]:
            for circle, side in ((c_plus, 1.0), (c_minus, -1.0)):
                p = circle.point_at(ang)
                if p[1] * side < 1e-3:  # keep to this circle's own side, off the chord
                    continue
                assert subtended_angle(t, p) == pytest.approx(theta, abs=1e-6)


# --- bcpf -------------------------------------------------------------------

T0 = Target(0, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
SENSOR_2 = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=2.0, phi_deg=90.0)


def test_bcpf_piece_count():
    reg = bcpf(T0, SENSOR_2)
    assert len(reg.loops) == 1
    pieces = reg.loops[0]
    assert len(pieces) == 5
    arcs = [p for p in pieces if isinstance(p, Arc)]
    segs = [p for p in pieces if isinstance(p, Segment)]
    assert len(arcs) == 3
    assert len(segs) == 2


def test_bcpf_membership_examples():
    reg = bcpf(T0, SENSOR_2)
    assert contains(reg, (0.5, 1.5))
    assert not contains(reg, (0.5, -0.5))
    assert not contains(reg, (0.5, 0.1))  # chord seen at about 157 deg > 100 deg


def test_bcpf_rejects_positive_r_min():
    with pytest.raises(ValueError):
        bcpf(T0, SensorSpec(aov_deg=100.0, r_min=0.5, r_max=2.0))
    # predicate path still works
    assert not bcpf_contains(T0, SensorSpec(aov_deg=100.0, r_min=0.5, r_max=2.0), (0.5, 0.45))
    assert bcpf_contains(T0, SensorSpec(aov_deg=100.0, r_min=0.5, r_max=2.0), (0.5, 1.0))


def test_bcpf_mirror_symmetry():
    # phi = pi/2: region is symmetric across the chord's perpendicular bisector
    reg = bcpf(T0, SENSOR_2)
    rng = random.Random(7)
    for _ in range(300):
        p = (rng.uniform(-2.5, 3.5), rng.uniform(-1.0, 3.0))
        q = (1.0 - p[0], p[1])
        if boundary_distance(reg, p) < 1e-6 or boundary_distance(reg, q) < 1e-6:
            continue
        assert contains(reg, p) == contains(reg, q)


def test_bcpf_within_reach_disk():
    reg = bcpf(T0, SENSOR_2)
    m = T0.midpoint
    bound = SENSOR_2.r_max + T0.width / 2 + 1e-9
    for v in reg.vertices():
        assert math.dist(v, m) <= bound
    rng = random.Random(3)
    for _ in range(500):
        p = (rng.uniform(-3, 4), rng.uniform(-3, 4))
        if contains(reg, p):
            assert math.dist(p, m) <= bound


def test_bcpf_agrees_with_predicate():
    reg = bcpf(T0, SENSOR_2)
    rng = random.Random(11)
    band = 1e-6
    checked = 0
    for _ in range(4000):
        p = (rng.uniform(-2.5, 3.5), rng.uniform(-2.5, 3.5))
        if boundary_distance(reg, p) <= band:
            continue
        assert contains(reg, p) == bcpf_contains(T0, SENSOR_2, p)
        checked += 1
    assert checked > 3500


# --- occlusion --------------------------------------------------------------

def test_occlusion_examples():
    occ = Obstacle(0, ((0.25, 1.0), (0.75, 1.0)))
    s = scen([T0], SENSOR_2, [occ])
    (blockers,) = interacting_blockers([T0], s)
    assert occlusion_excluded(T0, (0.5, 2.0), blockers, s.eps_len)
    assert not occlusion_excluded(T0, (0.5, 0.5), blockers, s.eps_len)


def test_occlusion_shared_endpoint():
    t2 = Target(1, (1.0, 0.0), (2.0, 0.0), (0.0, 1.0))
    s = scen([T0, t2], SENSOR_2)
    (blockers,) = interacting_blockers([T0], s)
    assert blockers == [t2.segment]
    assert not occlusion_excluded(T0, (0.5, 1.0), blockers, s.eps_len)


def test_interacting_blockers_filter():
    far = Obstacle(0, ((60.0, 60.0), (61.0, 60.0)))
    near = Obstacle(1, ((0.25, 1.0), (0.75, 1.0)))
    s = scen([T0], SENSOR_2, [far, near])
    (segs,) = interacting_blockers([T0], s)
    assert segs == [near.edges()[0]]


# --- cpf --------------------------------------------------------------------

def test_cpf_isolated_equals_bcpf():
    s = scen([T0], SENSOR_2)
    reg_c = cpf(T0, s)
    reg_b = bcpf(T0, SENSOR_2)
    assert len(reg_c.loops) == len(reg_b.loops)
    assert sum(1 for _ in reg_c.pieces()) == sum(1 for _ in reg_b.pieces())
    rng = random.Random(5)
    for _ in range(300):
        p = (rng.uniform(-2.5, 3.5), rng.uniform(-1.0, 3.0))
        if boundary_distance(reg_c, p) < 1e-6:
            continue
        assert contains(reg_c, p) == contains(reg_b, p)


def test_cpf_occluder_example():
    occ = Obstacle(0, ((0.25, 1.0), (0.75, 1.0)))
    s = scen([T0], SENSOR_2, [occ])
    reg = cpf(T0, s)
    assert not contains(reg, (0.5, 1.8))
    assert contains(reg, (1.9, 0.5))


def test_cpf_agrees_with_predicate():
    occ = Obstacle(0, ((0.25, 1.0), (0.75, 1.0)))
    s = scen([T0], SENSOR_2, [occ])
    reg = cpf(T0, s)
    (blockers,) = interacting_blockers([T0], s)
    rng = random.Random(13)
    band = 1e-6
    disagreements = 0
    checked = 0
    for _ in range(10000):
        p = (rng.uniform(-2.5, 3.5), rng.uniform(-2.5, 3.5))
        if boundary_distance(reg, p) <= band:
            continue
        if contains(reg, p) != cpf_contains(T0, s, p, blockers):
            disagreements += 1
        checked += 1
    assert checked > 9000
    assert disagreements == 0


def test_cpf_two_components():
    # wall almost touching the target splits the field; the view-angle lens
    # (top at ~0.42 over the chord) seals the gap under the wall's lower end
    t = Target(0, (10.0, 10.0), (11.0, 10.0), (0.0, 1.0))
    wall = Obstacle(0, ((10.5, 10.05), (10.5, 35.0)))
    s = scen([t], SENSOR_2, [wall], w=40.0, h=40.0)
    reg = cpf(t, s)
    assert len(reg.loops) == 2
    assert contains(reg, (9.5, 10.1))      # left sliver: sight to far end passes under wall
    assert contains(reg, (11.5, 10.1))     # right sliver, mirrored
    assert not contains(reg, (9.5, 10.3))  # sight line to far end hits the wall
    assert not contains(reg, (10.5, 11.0))  # straight ahead: wall in the way


def test_frontal_fan_half_plane_case():
    t = Target(0, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=20.0, phi_deg=90.0)
    reg = bcpf(t, sensor)
    fan = frontal_fan(reg, t.midpoint, t.normal)
    assert 3.0 < fan <= math.pi + 1e-9


def test_cpf_survives_radial_occluder():
    # occluder pointing straight at the target casts a needle shadow; the
    # region must keep its main loop and every point covers accepts
    t = Target(0, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    d = math.hypot(0.03, 1.0)
    dirv = (0.03 / d, 1.0 / d)
    nrm = (-dirv[1], dirv[0])
    blk = Target(1, (0.52, 2.0), (0.52 + dirv[0], 2.0 + dirv[1]), nrm)
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=20.0, phi_deg=90.0)
    s = scen([t, blk], sensor, w=60.0, h=60.0)

    reg = cpf(t, s)
    assert len(reg.loops) >= 1
    blockers = interacting_blockers([t], s)[0]
    rng = random.Random(4)
    checked = 0
    for _ in range(400):
        p = (rng.uniform(-21.0, 22.0), rng.uniform(0.0, 21.0))
        if cpf_contains(t, s, p, blockers):
            assert contains(reg, p)
            checked += 1
    assert checked > 100


def test_cpf_radial_occluder_keeps_fat_shadows_exact():
    # one needle occluder plus one broadside wall: the needle must not cost
    # the region the wall's real shadow
    t = Target(0, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    d = math.hypot(0.03, 1.0)
    dirv = (0.03 / d, 1.0 / d)
    blk = Target(1, (0.52, 2.0), (0.52 + dirv[0], 2.0 + dirv[1]), (-dirv[1], dirv[0]))
    wall = Obstacle(0, ((-3.0, 4.0), (3.5, 4.0)))
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=20.0, phi_deg=90.0)
    s = scen([t, blk], sensor, [wall], w=60.0, h=60.0)

    reg = cpf(t, s)
    (blockers,) = interacting_blockers([t], s)
    # deep behind the wall: excluded both by predicate and by the region
    p = (0.5, 12.0)
    assert not cpf_contains(t, s, p, blockers)
    assert not contains(reg, p)
    # in front of the wall and clear of the needle: covered
    q = (1.8, 2.5)
    assert cpf_contains(t, s, q, blockers)
    assert contains(reg, q)


def walled_scenes():
    """Two scenes of the occluded benchmark family (25 targets among 25
    walls, r_max 20) and eight small wall scenes (20 x 20 m, r_max 8)."""
    wide = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=20.0, phi_deg=90.0)
    small = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=8.0, phi_deg=90.0)
    scenes = [random_scenario(GenParams(n_targets=25, n_obstacles=25, margin=3.0, seed=seed), wide)
              for seed in (11000, 11001)]
    scenes += [random_scenario(GenParams(width=20.0, height=20.0, n_targets=3, n_obstacles=6,
                                         margin=1.5, seed=seed), small)
               for seed in range(8)]
    return scenes


def radial_scenes():
    """A unit target and a unit occluder two meters out, aimed along a sight
    line at the target's start, middle or end, turned off that line by 0,
    1e-9, +-1e-6 or 1e-3 rad; alone, or chained to a second unit wall bent
    60 degrees either way at its far end."""
    t = Target(0, (10.0, 10.0), (11.0, 10.0), (0.0, 1.0))
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=20.0, phi_deg=90.0)
    out = []
    for aim in (t.start, t.midpoint, t.end):
        for deg in (70.0, 90.0, 110.0):
            a = math.radians(deg)
            q = (aim[0] + 2.0 * math.cos(a), aim[1] + 2.0 * math.sin(a))
            for nudge in (0.0, 1e-9, 1e-6, -1e-6, 1e-3):
                far = (q[0] + math.cos(a + nudge), q[1] + math.sin(a + nudge))
                for bend in (None, 60.0, -60.0):
                    chain = (q, far) if bend is None else (
                        q, far, (far[0] + math.cos(a + math.radians(bend)),
                                 far[1] + math.sin(a + math.radians(bend))))
                    out.append((t, scen([t], sensor, [Obstacle(0, chain)], w=40.0, h=40.0)))
    return out


def probe_fan(t, sensor):
    """Deterministic spot checks across the facing cone at three depths."""
    m = t.midpoint
    nb = math.atan2(t.normal[1], t.normal[0])
    pts = []
    for i in range(9):
        psi = nb - sensor.phi + (i + 0.5) * (2.0 * sensor.phi / 9.0)
        for frac in (0.2, 0.5, 0.85):
            r = t.width + frac * (sensor.r_max - t.width)
            pts.append((m[0] + r * math.cos(psi), m[1] + r * math.sin(psi)))
    return pts


def test_cpf_matches_exact_occlusion_on_walled_scenes():
    bad = []
    for k, s in enumerate(walled_scenes()):
        rng = random.Random(k)
        for t in s.targets:
            reg = cpf(t, s)
            blockers = interacting_blockers([t], s)[0]
            reach = s.sensor.r_max + t.width
            m = t.midpoint
            for _ in range(400):
                p = (m[0] + rng.uniform(-reach, reach), m[1] + rng.uniform(-reach, reach))
                if boundary_distance(reg, p) <= 1e-6:
                    continue
                if contains(reg, p) != exact_contains(t, s, p, blockers):
                    bad.append((k, t.id, p))
                    break
    assert not bad, f"{len(bad)} targets disagree with exact occlusion, first: {bad[:3]}"


def test_cpf_builds_once_and_agrees_on_its_probe_fan(monkeypatch):
    builds = []
    build = fields_module.region_from_curves

    def counting(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(fields_module, "region_from_curves", counting)
    cases = [(t, s) for s in walled_scenes() for t in s.targets] + radial_scenes()
    bad = []
    for t, s in cases:
        before = len(builds)
        reg = cpf(t, s)
        assert len(builds) - before == 1, f"target {t.id}: {len(builds) - before} builds"
        blockers = interacting_blockers([t], s)[0]
        for q in probe_fan(t, s.sensor):
            if boundary_distance(reg, q) > 1e-6 and contains(reg, q) != exact_contains(t, s, q, blockers):
                bad.append((t.id, q))
    assert not bad, f"{len(bad)} probes disagree, first: {bad[:3]}"


def test_cpf_keeps_every_covered_point_beside_edge_on_walls():
    # a wall continuing the target's line, off it by h: on the line within
    # the vertex snap (about 2e-8 m here) or clear of it, the region is
    # exact; in between, the wall's shadow is a strip too thin to classify,
    # the wall is left out and the region keeps that strip
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=8.0, phi_deg=90.0)
    rng = random.Random(17)
    for deg in (0.0, 30.0, 123.4):
        c, sn = math.cos(math.radians(deg)), math.sin(math.radians(deg))

        def place(x, y):
            return (20.0 + x * c - y * sn, 20.0 + x * sn + y * c)

        t = Target(0, place(0.0, 0.0), place(1.0, 0.0), (-sn, c))
        for h in (0.0, 1e-12, 1e-7, -1e-7, 1e-6, -1e-6, 1e-3):
            wall = Obstacle(0, (place(1.5, h), place(6.0, h)))
            s = scen([t], sensor, [wall], w=60.0, h=60.0)
            reg = cpf(t, s)
            blockers = interacting_blockers([t], s)[0]
            exact = abs(h) < 1e-8 or abs(h) > 1e-4
            for _ in range(300):
                p = place(rng.uniform(-9.0, 10.0), rng.uniform(-9.0, 9.0))
                if boundary_distance(reg, p) <= 1e-6:
                    continue
                covered = exact_contains(t, s, p, blockers)
                assert contains(reg, p) == covered or (not exact and not covered), (deg, h, p)


# --- batched field classification against the scalar vote ---------------------

def scalar_inside(t, sensor, eps, blockers):
    """Membership in the exact field, one point at a time."""
    return lambda p: covers(t, p, sensor, eps) and not any(
        segment_blocks_triangle(seg, p, t.segment, 0.0) for seg in blockers)


def counting_covers(monkeypatch):
    """Count the `covers` calls the batch predicate falls back to."""
    calls = []
    real = fields_module.covers

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fields_module, "covers", spy)
    return calls


@pytest.mark.parametrize("band", ["default", "wide"])
def test_batched_classifier_matches_the_scalar_vote(monkeypatch, band):
    # every piece of every field, voted once in the array pass and once
    # piece by piece with the scalar predicate; a wide margin band sends many
    # probes to the scalar fallback
    if band == "wide":
        monkeypatch.setattr(fields_module, "_LEN_MARGIN", 1e5)
        monkeypatch.setattr(fields_module, "_ANG_MARGIN", 1e-3)
    fallbacks = counting_covers(monkeypatch)
    made, checked = [], []
    make, build = fields_module._field_inside, fields_module.region_from_curves

    def spy_make(t, sensor, eps, blockers):
        made.append(scalar_inside(t, sensor, eps, blockers))
        return make(t, sensor, eps, blockers)

    def spy_build(curves, inside, *, offset, snap):
        got = geom_module._classified_pieces([(curves, inside, offset, snap)])[0]
        want = [_classify_piece(pc, made[-1], offset) for pc in piecewise_pieces(curves, snap)]
        assert repr(got) == repr([pc for pc in want if pc is not None])
        checked.append(len(got))
        return build(curves, inside, offset=offset, snap=snap)

    monkeypatch.setattr(fields_module, "_field_inside", spy_make)
    monkeypatch.setattr(fields_module, "region_from_curves", spy_build)
    for t, s in [(t, s) for s in walled_scenes() for t in s.targets] + radial_scenes():
        cpf(t, s)
    assert len(checked) == len(made) and sum(checked) > 2000
    if band == "wide":
        assert len(fallbacks) > 5000


# --- the scene's array pass against the scalar piece loops --------------------

def adversarial_wall_scenes():
    """A unit target among walls that are collinear and overlap, walls that
    share ends with each other and with the target, and walls whose line
    splits the target's ends."""
    t = Target(0, (10.0, 10.0), (11.0, 10.0), (0.0, 1.0))
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=8.0, phi_deg=90.0)
    walls = [
        [((12.0, 13.0), (15.0, 13.0)), ((14.0, 13.0), (17.0, 13.0)), ((15.0, 13.0), (16.0, 13.0)),
         ((9.0, 12.0), (9.0, 14.0)), ((9.0, 13.0), (9.0, 15.0)), ((11.0, 10.0), (13.0, 10.0))],
        [((12.0, 12.0), (13.0, 12.0), (13.0, 13.0), (11.0, 14.0)), ((11.0, 10.0), (12.0, 11.0)),
         ((10.0, 10.0), (9.0, 11.5)), ((9.0, 11.5), (12.0, 12.0))],
        [((10.5, 12.0), (10.5, 14.0)), ((10.2, 11.0), (10.9, 12.5)), ((10.5, 11.0), (12.0, 16.0)),
         ((9.5, 13.0), (11.5, 13.5))],
    ]
    return [scen([t], sensor, [Obstacle(k, chain) for k, chain in enumerate(ws)], w=40.0, h=40.0)
            for ws in walls]


def test_the_array_pass_builds_each_field_as_the_piece_loops():
    # every target's field in one pass over its scene, loop for loop against
    # the scalar piece loops on the same curves and predicate
    scenes = walled_scenes() + [s for _, s in radial_scenes()] + adversarial_wall_scenes()
    fields = 0
    for s in scenes:
        blockers = interacting_blockers(s.targets, s)
        for t, b, reg in zip(s.targets, blockers, fields_module.regions(s.targets, s.sensor, blockers)):
            curves, inside, offset, snap = fields_module._field(t, s.sensor, b)
            assert repr(reg.loops) == repr(piecewise_region(curves, inside, offset=offset, snap=snap).loops)
            fields += 1
    assert fields == 50 + 24 + 135 + 3


@pytest.mark.parametrize("seed", [3000, 7000, 11000])
def test_regions_equal_region_target_by_target(seed, monkeypatch):
    # a bench-shaped scene: one intersections call for every field, and one
    # membership call per field
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=20.0, phi_deg=90.0)
    s = random_scenario(GenParams(n_targets=25, n_obstacles=25, margin=3.0, seed=seed), sensor)
    blockers = interacting_blockers(s.targets, s)
    want = [repr(fields_module.region(t, sensor, b).loops) for t, b in zip(s.targets, blockers)]
    calls = []
    kernel, make = geom_module.intersections, fields_module._field_inside

    def spy_kernel(*args):
        calls.append("intersections")
        return kernel(*args)

    def spy_make(*args):
        inside = make(*args)

        def counted(p):
            calls.append("inside")
            return inside(p)
        return counted

    monkeypatch.setattr(geom_module, "intersections", spy_kernel)
    monkeypatch.setattr(fields_module, "_field_inside", spy_make)
    got = fields_module.regions(s.targets, sensor, blockers)
    assert [repr(reg.loops) for reg in got] == want
    assert sorted(calls) == ["inside"] * s.n + ["intersections"]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_regions_of_a_walled_scene_with_few_targets(n):
    # no field, one field, and two whose cuts share one call
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=8.0, phi_deg=90.0)
    s = random_scenario(GenParams(width=20.0, height=20.0, n_targets=n, n_obstacles=6, margin=1.5, seed=4), sensor)
    got = fields_module.regions(s.targets, sensor, interacting_blockers(s.targets, s))
    assert len(got) == n == len(s.targets)
    assert [repr(reg.loops) for reg in got] == [repr(cpf(t, s).loops) for t in s.targets]
    assert all(reg.loops for reg in got)


def gap_probe_vectors(rng, n):
    """Random vectors at every scale from 1e-300 to 1e300, vectors near
    either axis pointing either way (so angles near 0, pi/2 and pi), and
    grids of subnormal, tiny and huge components."""
    mag = 10.0 ** rng.uniform(-300.0, 300.0, n)
    a = rng.uniform(-math.pi, math.pi, n)
    out = [np.stack((mag * np.cos(a), mag * np.sin(a)), axis=1)]
    k = 10.0 ** -rng.uniform(0.0, 17.0, n)
    m = 10.0 ** rng.uniform(-20.0, 20.0, n)
    for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        out += [np.stack((sx * m, sy * m * k), axis=1), np.stack((sx * m * k, sy * m), axis=1)]
    for c in ([0.0, 5e-324, 1e-310, 2.2e-308, 1e-300], [1e200, 1e300, 8.5e307]):
        c = np.array(c + [-v for v in c])
        out.append(np.stack(np.meshgrid(c, c), axis=-1).reshape(-1, 2))
    return np.concatenate(out)


def test_the_rounding_margins_dwarf_the_gaps_between_numpy_and_math():
    # covers_np uses np.arctan2 and np.sqrt(x*x + y*y) where covers uses
    # math.atan2 and math.dist on the same inputs: each gap stays under 1/100
    # of its margin, the length one at the smallest tolerance a scene holding
    # that distance can have (measured: 4.4e-16 rad, and 2.2e-4 of the margin)
    v = gap_probe_vectors(np.random.default_rng(5), 20000)
    angle_gap = np.abs(np.arctan2(v[:, 1], v[:, 0]) - np.array([math.atan2(y, x) for x, y in v.tolist()]))
    assert angle_gap.max() < fields_module._ANG_MARGIN / 100.0
    # a length's components are differences of coordinates within
    # MAX_LENGTH: the probes a validated scene can produce, the subnormal
    # and tiny grids among them, and vectors at the edge, +-2 MAX_LENGTH
    edge = 2.0 * MAX_LENGTH
    c = np.array([0.0, 5e-324, 1e-310, 2.2e-308, 1e-300, 1e-160, 1.0, MAX_LENGTH, edge])
    c = np.concatenate((c, -c))
    v = np.concatenate((v[(np.abs(v) <= edge).all(axis=1)], np.stack(np.meshgrid(c, c), axis=-1).reshape(-1, 2)))
    d = [math.dist((0.0, 0.0), p) for p in v.tolist()]
    margin = fields_module._LEN_MARGIN * np.array([geom_module.scaled_eps(x) for x in d])
    assert (np.abs(np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]) - np.array(d)) < margin / 100.0).all()


def test_batched_field_membership_matches_covers_in_the_margin_band(monkeypatch):
    # points on each clause boundary (range circles, view-angle circles,
    # facing edges, eps_len around the ends and the midpoint, and where the
    # angle clauses hold with no slack, EPS_ANG past theta and phi) and an
    # ulp either side: the slacks there fall inside the rounding margins
    fallbacks = counting_covers(monkeypatch)
    sensors = [SensorSpec(aov_deg=100.0, r_min=0.0, r_max=20.0, phi_deg=90.0),
               SensorSpec(aov_deg=60.0, r_min=0.0, r_max=8.0, phi_deg=45.0)]
    wall = [Segment((10.2, 11.0), (10.9, 12.5))]
    for sensor in sensors:
        for t in (Target(0, (10.0, 10.0), (11.0, 10.0), (0.0, 1.0)),
                  Target(1, (3.0, -2.0), (3.6, -1.2), (-0.8, 0.6))):
            eps = field_tolerance(t, sensor)
            pts = []
            for c in bcpf_boundary_curves(t, sensor):
                for k in range(60):
                    pts.append(c.point_at(k * math.tau / 60) if isinstance(c, Circle) else c.point_at(k / 60))
            for q in (t.start, t.end, t.midpoint):
                pts += [(q[0] + eps * math.cos(a), q[1] + eps * math.sin(a))
                        for a in np.linspace(0.0, math.tau, 24)]
            pts += angle_limit_points(t, sensor)
            probes = [(math.nextafter(x, x + dx), math.nextafter(y, y + dy))
                      for x, y in pts for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))]
            for blockers in ([], wall):
                inside = fields_module._field_inside(t, sensor, eps, blockers)
                got = inside(np.array(probes)).tolist()
                want = [scalar_inside(t, sensor, eps, blockers)(p) for p in probes]
                assert got == want
                assert 0 < sum(got) < len(got)
    assert len(fallbacks) > 1000
