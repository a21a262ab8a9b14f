"""The scalar coverage reference `fields.covers` against the predicates it
replaced, and the sweep's batched kernel against the reference."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from camplan import select, sweep
from camplan.cli import build_candidates, run_pipeline
from camplan.fields import (
    aov_pair,
    covers,
    field_tolerance,
    interacting_blockers,
    occlusion_excluded,
)
from camplan.geom import (
    EPS_ANG,
    Point,
    Segment,
    angle_between,
    bearing,
    norm_angle,
    point_segment_distance,
    wrap_pi,
)
from camplan.model import CameraPlacement, Obstacle, Scenario, SensorSpec, Target
from camplan.scenario import GenParams, random_scenario
from camplan.select import TargetCheck

TWO_PI = 2.0 * math.pi


# --- oracles: the scalar predicates as they stood before `covers` ----------------
# Copied verbatim, so the reference is held to their verdicts and reports.

def subtended_angle(t: Target, p: Point) -> float:
    """Angle under which the target chord is seen from p (pi on the chord itself)."""
    u = (t.start[0] - p[0], t.start[1] - p[1])
    v = (t.end[0] - p[0], t.end[1] - p[1])
    if u == (0.0, 0.0) or v == (0.0, 0.0):
        return math.pi
    return angle_between(u, v)


def facing(t: Target, p: Point, phi: float, eps_ang: float = 1e-12) -> bool:
    """Whether the target's front side is turned toward p (angle(normal, p-M) <= phi)."""
    m = t.midpoint
    v = (p[0] - m[0], p[1] - m[1])
    if v == (0.0, 0.0):
        return False
    return angle_between(t.normal, v) <= phi + eps_ang


def bcpf_contains(t: Target, sensor: SensorSpec, p: Point, eps: float | None = None) -> bool:
    """Range + view-angle + facing predicate; the exact membership test for bcpf()."""
    if eps is None:
        eps = field_tolerance(t, sensor)
    if math.dist(p, t.start) > sensor.r_max + eps:
        return False
    if math.dist(p, t.end) > sensor.r_max + eps:
        return False
    if sensor.r_min > 0.0 and point_segment_distance(p, t.segment) < sensor.r_min - eps:
        return False
    theta = sensor.theta
    if theta < math.pi and subtended_angle(t, p) > theta + EPS_ANG:
        return False
    return facing(t, p, sensor.phi, EPS_ANG)


def cpf_contains(
    t: Target,
    scenario: Scenario,
    p: Point,
    eps: float,
    blockers: list[Segment],
) -> bool:
    if not bcpf_contains(t, scenario.sensor, p, eps):
        return False
    return not occlusion_excluded(t, p, blockers, scenario.eps_len)


def coverable(x: Point, t: Target, s: Scenario, blockers: list[Segment]) -> bool:
    """Whether some viewing direction at x would fully cover t."""
    eps = s.eps_len
    sensor = s.sensor
    d_s = math.dist(x, t.start)
    d_e = math.dist(x, t.end)
    if d_s <= eps or d_e <= eps:
        return False
    if max(d_s, d_e) > sensor.r_max + eps:
        return False
    if sensor.r_min > 0.0 and point_segment_distance(x, t.segment) < sensor.r_min - eps:
        return False
    if sensor.theta < math.pi and subtended_angle(t, x) > sensor.theta + EPS_ANG:
        return False
    if not facing(t, x, sensor.phi, EPS_ANG):
        return False
    return not occlusion_excluded(t, x, blockers, eps)


def is_fully_covered(t: Target, cam: CameraPlacement, s: Scenario, blockers: list[Segment]) -> bool:
    """The solution verifier: coverable at cam.position and the whole target
    inside the view cone [vd - theta/2, vd + theta/2] (inclusive)."""
    if not coverable(cam.position, t, s, blockers):
        return False
    theta = s.sensor.theta
    eps = EPS_ANG
    cone_lo = cam.vd - theta / 2.0
    for endpoint in (t.start, t.end):
        off = norm_angle(bearing(cam.position, endpoint) - cone_lo)
        if off > theta + eps and off < TWO_PI - eps:
            return False
    return True


def _check_target(t, cam: CameraPlacement, s: Scenario, blockers: list[Segment]) -> TargetCheck:
    eps = s.eps_len
    sensor = s.sensor
    x = cam.position
    clauses: dict = {}
    margins: dict = {}

    clauses["in_area"] = s.in_area(x, eps)

    d_s = math.dist(x, t.start)
    d_e = math.dist(x, t.end)
    margins["range_slack"] = sensor.r_max - max(d_s, d_e)
    seg_d = point_segment_distance(x, t.segment)
    margins["inner_slack"] = seg_d - sensor.r_min
    clauses["range"] = (
        min(d_s, d_e) > eps
        and margins["range_slack"] >= -eps
        and margins["inner_slack"] >= -eps
    )

    vx, vy = x[0] - t.midpoint[0], x[1] - t.midpoint[1]
    if vx == 0.0 and vy == 0.0:
        facing_angle = math.pi
    else:
        facing_angle = math.atan2(abs(t.normal[0] * vy - t.normal[1] * vx),
                                  t.normal[0] * vx + t.normal[1] * vy)
    margins["facing_angle"] = facing_angle
    clauses["facing"] = facing_angle <= sensor.phi + EPS_ANG

    if clauses["range"]:
        spread = max(abs(wrap_pi(bearing(x, e) - cam.vd)) for e in (t.start, t.end))
        margins["angular_slack"] = sensor.theta / 2.0 - spread
        clauses["view_angle"] = margins["angular_slack"] >= -EPS_ANG
    else:
        margins["angular_slack"] = -math.pi
        clauses["view_angle"] = False

    clauses["occlusion"] = not occlusion_excluded(t, x, blockers, eps)

    return TargetCheck(t.id, all(clauses.values()), clauses, margins)


# --- random and adversarial scenes -------------------------------------------------

AREA = 12.0
coord = st.one_of(st.integers(2, 22).map(lambda k: k * 0.5), st.floats(1.0, 11.0))
spot = st.tuples(coord, coord)
angle = st.floats(0.0, TWO_PI)


@st.composite
def scenes(draw):
    """1-5 targets, lattice or free, consecutive ones sharing endpoints when
    chained, and 0-3 obstacles: free, sharing a target endpoint, or along a
    sight line to a target (near-radial, nudged sideways by 0, 1e-9 or 1e-6)."""
    sensor = SensorSpec(
        aov_deg=draw(st.sampled_from([60.0, 100.0, 179.0, 200.0, 300.0])),
        r_min=draw(st.sampled_from([0.0, 0.7])),
        r_max=draw(st.sampled_from([3.0, 6.0])),
        phi_deg=draw(st.sampled_from([90.0, 60.0, 30.0])),
    )
    ends = draw(st.lists(spot, min_size=2, max_size=6, unique=True))
    pairs = zip(ends, ends[1:]) if draw(st.booleans()) else zip(ends[::2], ends[1::2])
    targets = []
    for a, b in pairs:
        w = math.dist(a, b)
        if w < 0.05:
            continue
        side = draw(st.sampled_from([1.0, -1.0]))
        targets.append(Target(len(targets), a, b, (-(b[1] - a[1]) / w * side, (b[0] - a[0]) / w * side)))
    assume(targets)
    obstacles = []
    for k in range(draw(st.integers(0, 3))):
        t = draw(st.sampled_from(targets))
        kind = draw(st.sampled_from(["free", "shared", "radial"]))
        if kind == "free":
            a, b = draw(spot), draw(spot)
        elif kind == "shared":
            a, b = draw(st.sampled_from([t.start, t.end])), draw(spot)
        else:
            u = draw(st.sampled_from([0.0, 0.5, 1.0]))
            q = (t.start[0] + u * (t.end[0] - t.start[0]), t.start[1] + u * (t.end[1] - t.start[1]))
            ang = draw(angle)
            dx, dy = math.cos(ang), math.sin(ang)
            d1 = draw(st.floats(0.2, 3.0))
            d2 = d1 + draw(st.floats(0.1, 2.0))
            nudge = draw(st.sampled_from([0.0, 1e-9, 1e-6]))
            a = (q[0] + d1 * dx - nudge * dy, q[1] + d1 * dy + nudge * dx)
            b = (q[0] + d2 * dx, q[1] + d2 * dy)
        if math.dist(a, b) > 1e-3:
            obstacles.append(Obstacle(k, (a, b)))
    return Scenario(AREA, AREA, sensor, tuple(targets), tuple(obstacles))


def probes(draw, s: Scenario) -> list:
    """Random points plus, per target: its endpoints and midpoint, points a
    fraction or a few eps_len (scene and field tolerance) off them, and points
    on its range circles, r_min band, view-angle circles and facing rays, some
    of them just inside or outside each threshold."""
    sensor = s.sensor
    pts = draw(st.lists(st.tuples(st.floats(-1.0, AREA + 1.0), st.floats(-1.0, AREA + 1.0)),
                        min_size=1, max_size=10))
    for t in s.targets:
        m = t.midpoint
        base = math.atan2(t.normal[1], t.normal[0])
        for e in (t.start, t.end, m):
            pts.append(e)
            for eps in (s.eps_len, field_tolerance(t, sensor)):
                ang = draw(angle)
                k = draw(st.sampled_from([0.5, 2.0, 1e3]))
                pts.append((e[0] + k * eps * math.cos(ang), e[1] + k * eps * math.sin(ang)))
        for e in (t.start, t.end):
            ang = draw(angle)
            r = sensor.r_max + s.eps_len * draw(st.sampled_from([0.0, 1.0, 0.5, 1.5]))
            pts.append((e[0] + r * math.cos(ang), e[1] + r * math.sin(ang)))
        if sensor.r_min > 0.0:
            r = sensor.r_min + s.eps_len * draw(st.sampled_from([0.0, -1.0, -0.5, -1.5]))
            pts.append((m[0] + r * t.normal[0], m[1] + r * t.normal[1]))
        if sensor.theta < math.pi:
            for circle in aov_pair(t.segment, sensor.theta):
                pts.append(circle.point_at(draw(angle)))
        for sign in (1.0, -1.0):
            ang = base + sign * sensor.phi + draw(st.sampled_from([0.0, 1e-8, -1e-8]))
            r = draw(st.floats(0.0, sensor.r_max))
            pts.append((m[0] + r * math.cos(ang), m[1] + r * math.sin(ang)))
    return pts


def near(p: Point, t: Target, eps: float) -> bool:
    """Within about eps_len of an endpoint or the midpoint of t."""
    return min(math.dist(p, q) for q in (t.start, t.end, t.midpoint)) <= 1.01 * eps


def on_range_threshold(p: Point, t: Target, sensor: SensorSpec, eps: float) -> bool:
    """Within a few ulps of r_max + eps_len or r_min - eps_len."""
    if sensor.r_min > 0.0 and abs(point_segment_distance(p, t.segment) - (sensor.r_min - eps)) < 1e-12:
        return True
    return any(abs(math.dist(p, e) - (sensor.r_max + eps)) < 1e-12 for e in (t.start, t.end))


# --- the reference against the oracles -----------------------------------------------
# Two deliberate differences are left out of these comparisons:
# - within eps_len of an endpoint or the midpoint the reference rejects the
#   camera: the range clause always did so in the verifier, and the facing
#   clause now does what the sweep kernel does; the old field predicates and
#   `facing` accepted some of these points;
# - the range clause compares slacks (r_max - d >= -eps_len), as the verifier
#   did, where the old field predicates compared d > r_max + eps_len, whose sum
#   rounds: the two can differ within an ulp of the threshold.

@given(scenes(), st.data())
@settings(max_examples=150, deadline=None)
def test_field_membership_matches_old_predicates(s, data):
    sensor = s.sensor
    for p in probes(data.draw, s):
        for t in s.targets:
            feps = field_tolerance(t, sensor)
            if near(p, t, feps) or on_range_threshold(p, t, sensor, feps):
                continue
            assert covers(t, p, sensor, feps) == bcpf_contains(t, sensor, p, feps), (t, p)
            blockers = interacting_blockers([t], s)[0]
            assert (covers(t, p, sensor, feps) and not occlusion_excluded(t, p, blockers, s.eps_len)
                    ) == cpf_contains(t, s, p, feps, blockers), (t, p)


@given(scenes(), st.data())
@settings(max_examples=150, deadline=None)
def test_scene_tolerance_verdicts_match_old_predicates(s, data):
    sensor, eps = s.sensor, s.eps_len
    targets = list(zip(s.targets, interacting_blockers(s.targets, s)))
    for p in probes(data.draw, s):
        for t, blockers in targets:
            if near(p, t, eps):
                continue
            clauses: dict = {}
            covers(t, p, sensor, eps, report=(clauses, {}))
            assert clauses["facing"] == facing(t, p, sensor.phi, EPS_ANG), (t, p)
            if on_range_threshold(p, t, sensor, eps):
                continue
            assert covers(t, p, sensor, eps, blockers=blockers) == coverable(p, t, s, blockers), (t, p)


def view_directions(draw, p: Point, t: Target, theta: float) -> list:
    """A random direction, the bearing to the midpoint, and each endpoint's
    bearing put on either edge of the view cone."""
    vds = [draw(angle)]
    if math.dist(p, t.midpoint) > 1e-6:
        vds.append(bearing(p, t.midpoint))
    for e in (t.start, t.end):
        if math.dist(p, e) > 1e-6:
            b = bearing(p, e)
            vds += [norm_angle(b + theta / 2.0), norm_angle(b - theta / 2.0)]
    return vds


def on_cone_edge(p: Point, t: Target, vd: float, theta: float) -> bool:
    """Some endpoint within 1e-9 rad of the edge of the view cone at vd."""
    for e in (t.start, t.end):
        if math.dist(p, e) <= 1e-6:
            continue
        if abs(abs(wrap_pi(bearing(p, e) - vd)) - theta / 2.0) < 1e-9:
            return True
    return False


def crosses_blind_spot(p: Point, t: Target, vd: float, theta: float) -> bool:
    """A view cone wider than pi at vd, and the target's bearings from p,
    which run the short way between its endpoints', passing vd + pi."""
    if theta <= math.pi or min(math.dist(p, t.start), math.dist(p, t.end)) == 0.0:
        return False
    return abs(wrap_pi(bearing(p, t.start) - vd) - wrap_pi(bearing(p, t.end) - vd)) > math.pi


# A third deliberate difference: the old verifiers tested only the endpoint
# bearings, so a cone wider than pi passed a target crossing its blind spot.
# There the reference fails view_angle with slack theta/2 - pi.

@given(scenes(), st.data())
@settings(max_examples=75, deadline=None)
def test_verifier_matches_old_verifiers(s, data):
    sensor, eps = s.sensor, s.eps_len
    targets = list(zip(s.targets, interacting_blockers(s.targets, s)))
    for p in probes(data.draw, s):
        for t, blockers in targets:
            if near(p, t, eps):
                continue
            for vd in view_directions(data.draw, p, t, sensor.theta):
                cam = CameraPlacement(p, vd)
                got = select._check_target(t, cam, s, blockers)
                want = _check_target(t, cam, s, blockers)
                blind = want.clauses["range"] and crosses_blind_spot(p, t, vd, sensor.theta)
                if blind:
                    want.clauses["view_angle"] = False
                    want.margins["angular_slack"] = sensor.theta / 2.0 - math.pi
                    want.ok = False
                assert (got.ok, list(got.clauses.items()), list(got.margins.items())) == (
                    want.ok, list(want.clauses.items()), list(want.margins.items())), (t, cam)
                # is_fully_covered places the cone by a norm_angle offset from its
                # lower edge, the verifier by a wrap_pi spread around vd: compared
                # only outside a 1e-9 rad band around the cone edge
                if blind:
                    assert not covers(t, p, sensor, eps, vd=vd, blockers=blockers), (t, cam)
                elif not on_range_threshold(p, t, sensor, eps) and not on_cone_edge(p, t, vd, sensor.theta):
                    assert covers(t, p, sensor, eps, vd=vd, blockers=blockers) == is_fully_covered(
                        t, cam, s, blockers), (t, cam)


def blind_spot_case(aov_deg=300.0):
    """A camera at (10, 10) facing vd 0 and a target whose endpoints sit at
    bearings 140 and 220 degrees, 1.5 away, facing the camera: both endpoints
    lie inside a 300 degree cone, its middle in the 60 degree blind spot."""
    x = (10.0, 10.0)
    a, b = math.radians(140.0), math.radians(220.0)
    t = Target(0, (x[0] + 1.5 * math.cos(a), x[1] + 1.5 * math.sin(a)),
               (x[0] + 1.5 * math.cos(b), x[1] + 1.5 * math.sin(b)), (1.0, 0.0))
    sensor = SensorSpec(aov_deg=aov_deg, r_min=0.0, r_max=5.0, phi_deg=90.0)
    return Scenario(20.0, 20.0, sensor, (t,)), t, x


def test_wide_cone_blind_spot_fails_view_angle():
    s, t, x = blind_spot_case()
    (blockers,) = interacting_blockers([t], s)
    check = select._check_target(t, CameraPlacement(x, 0.0), s, blockers)
    assert check.failed_clauses() == ["view_angle"]
    assert check.margins["angular_slack"] == pytest.approx(math.radians(150.0 - 180.0))
    assert not covers(t, x, s.sensor, s.eps_len, vd=0.0, blockers=blockers)
    assert is_fully_covered(t, CameraPlacement(x, 0.0), s, blockers)   # the endpoint-only verdict
    # turned toward the target, or with the blind spot elsewhere, it is covered
    for vd in (math.pi, math.radians(90.0), math.radians(270.0)):
        assert covers(t, x, s.sensor, s.eps_len, vd=vd, blockers=blockers)
    # a cone of pi or less keeps the endpoint test: 140 and 220 degrees are
    # not both within 90 of vd 0
    narrow, t, x = blind_spot_case(aov_deg=180.0)
    check = select._check_target(t, CameraPlacement(x, 0.0), narrow, interacting_blockers([t], narrow)[0])
    assert check.failed_clauses() == ["view_angle"]


# --- the report against the verdict ----------------------------------------------------

@given(scenes(), st.data())
@settings(max_examples=60, deadline=None)
def test_covers_report_binds_its_verdict(s, data):
    # one verdict with or without a report, and it is the conjunction of the
    # clauses the report records, in its fixed key order; each clause agrees
    # with the slack recorded for it
    sensor = s.sensor
    for p in probes(data.draw, s):
        for t in s.targets:
            eps = data.draw(st.sampled_from([s.eps_len, field_tolerance(t, sensor)]))
            for vd in [None, *view_directions(data.draw, p, t, sensor.theta)]:
                for blockers in (None, interacting_blockers([t], s)[0]):
                    clauses, margins = {}, {}
                    got = covers(t, p, sensor, eps, vd=vd, blockers=blockers, report=(clauses, margins))
                    assert covers(t, p, sensor, eps, vd=vd, blockers=blockers) == got, (t, p, vd)
                    assert got == all(clauses.values()), (t, p, vd, clauses)
                    occluded = blockers is not None
                    assert list(clauses) == ["range", "facing", "view_angle"] + ["occlusion"] * occluded
                    assert list(margins) == ["range_slack", "inner_slack", "facing_angle"] + [
                        "angular_slack"] * (vd is not None)
                    apart = min(math.dist(p, t.start), math.dist(p, t.end)) > eps
                    assert clauses["range"] == (apart and margins["range_slack"] >= -eps
                                                and margins["inner_slack"] >= -eps), (t, p, margins)
                    assert clauses["facing"] == (margins["facing_angle"] <= sensor.phi + EPS_ANG), (t, p)
                    if vd is not None:
                        assert clauses["view_angle"] == (margins["angular_slack"] >= -EPS_ANG), (t, p, vd)


# --- blocker selection against the plain scan it replaced ----------------------------

def plain_interacting_blockers(t: Target, scenario: Scenario) -> list:
    """Blocking segments close enough to matter for this target's field."""
    m = t.midpoint
    reach = scenario.sensor.r_max + t.width + scenario.eps_len
    out = []
    for k, seg in enumerate(scenario.blockers()):
        if k < scenario.n and scenario.targets[k] == t:
            continue
        if point_segment_distance(m, seg) <= reach:
            out.append(seg)
    return out


def reach_ring(s: Scenario) -> Scenario:
    """s plus, around its first target, short walls whose nearest point sits
    within a few ulps of the selection distance, on either side of it."""
    t = s.targets[0]
    m = t.midpoint
    reach = s.sensor.r_max + t.width + s.eps_len
    walls = []
    for k in range(24):
        ang = 2.0 * math.pi * k / 24
        d = reach + (k % 5 - 2) * 2e-16 * reach
        ux, uy = math.cos(ang), math.sin(ang)
        c = (m[0] + d * ux, m[1] + d * uy)
        # tangent to the circle of radius d, so c is its nearest point to m
        walls.append(Obstacle(1000 + k, ((c[0] - 0.3 * uy, c[1] + 0.3 * ux), (c[0] + 0.3 * uy, c[1] - 0.3 * ux))))
    return Scenario(s.width, s.height, s.sensor, s.targets, s.obstacles + tuple(walls))


@given(scenes())
@settings(max_examples=150, deadline=None)
def test_interacting_blockers_match_plain_scan(s):
    for scene in (s, reach_ring(s)):
        want = [plain_interacting_blockers(t, scene) for t in scene.targets]
        assert interacting_blockers(scene.targets, scene) == want
        assert [interacting_blockers([t], scene)[0] for t in scene.targets] == want


def test_interacting_blockers_match_plain_scan_on_bench_scenes():
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=10.0, phi_deg=90.0)
    for seed in range(3):
        s = random_scenario(GenParams(n_targets=120, n_obstacles=30, margin=3.0, seed=seed), sensor)
        want = [plain_interacting_blockers(t, s) for t in s.targets]
        assert interacting_blockers(s.targets, s) == want
        selected = sum(map(len, want))
        # the selection keeps some blockers and drops others
        assert 0 < selected < len(s.targets) * (len(s.blockers()) - 1)


def test_interacting_blockers_keep_a_wall_only_rounding_brings_within_reach():
    # a wall across the target's axis, beyond the midpoint box grown by the
    # reach alone by a few ulps of its coordinate (far finer than the ulp of
    # the reach), where the distance to the midpoint rounds to the reach
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=8.0, phi_deg=90.0)
    t = Target(0, (9.0, 20.0), (10.0, 20.0), (0.0, 1.0))
    s = Scenario(30.0, 30.0, sensor, (t,))
    m = t.midpoint
    reach = sensor.r_max + t.width + s.eps_len
    edge = float(np.array(m[0]) - np.array(reach))   # the unpadded box's low x edge
    x = edge
    for _ in range(64):
        x = math.nextafter(x, -math.inf)
        wall = Segment((x, m[1] - 0.3), (x, m[1] + 0.3))
        if point_segment_distance(m, wall) <= reach:
            break
    assert x < edge and point_segment_distance(m, wall) <= reach
    scene = Scenario(s.width, s.height, sensor, (t,), (Obstacle(0, (wall.a, wall.b)),))
    assert plain_interacting_blockers(t, scene) == [wall]
    assert interacting_blockers([t], scene) == [[wall]]


# --- target ids play no part in occlusion -----------------------------------------

def relabelled(s: Scenario, first: int) -> Scenario:
    """s with target k's id first + k: same order, so the same tie-breaks."""
    targets = tuple(Target(first + k, t.start, t.end, t.normal) for k, t in enumerate(s.targets))
    return Scenario(s.width, s.height, s.sensor, targets, s.obstacles)


def walled_id_scenes() -> list[Scenario]:
    # a target boxed in by a wall chain open only behind it: a camera must
    # sit inside the box, so the polar samples, all outside it, see the
    # target only if the wall is ignored
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=10.0, phi_deg=90.0)
    boxed = Scenario(10.0, 10.0, sensor, (Target(0, (4.5, 5.0), (5.5, 5.0), (0.0, 1.0)),),
                     (Obstacle(0, ((4.0, 4.9), (4.0, 5.3), (6.0, 5.3), (6.0, 4.9))),))
    near = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=8.0, phi_deg=90.0)
    return [boxed] + [random_scenario(GenParams(width=20.0, height=20.0, n_targets=n, n_obstacles=n,
                                                margin=1.5, seed=seed), near)
                      for seed, n in ((1, 3), (2, 5), (3, 6))]


def plan(s: Scenario, algo: str):
    """Candidates, placements, assignment by target position and verifier
    verdicts, with every target id left out."""
    cs = build_candidates(s, algo, 0.1, None, 0.5)
    uncoverable = [[t.id for t in s.targets].index(tid) for tid in cs.uncoverable]
    try:
        sol = run_pipeline(s, algo, grid_eps=0.5).solution
    except select.InfeasibleError:
        return cs.points.tolist(), cs.provenance, uncoverable, None
    checks = [(c.ok, c.clauses, c.margins) for c in select.verify_solution(s, sol).checks]
    placed = [sol.assignment.get(t.id) for t in s.targets]
    return cs.points.tolist(), cs.provenance, uncoverable, (sol.placements, placed, checks)


@pytest.mark.parametrize("algo", ["comprehensive", "bcpf", "grid"])
def test_target_ids_do_not_affect_occlusion(algo):
    # ids -n..-1 and -2**63.. keep the targets' order; -1 is also the tag an
    # obstacle edge once carried, and the wall must still occlude that target
    for s in walled_id_scenes():
        want = plan(s, algo)
        for first in (-s.n, -2 ** 63):
            assert plan(relabelled(s, first), algo) == want, (algo, first)
    assert plan(relabelled(walled_id_scenes()[0], -1), "bcpf")[3] is None


# --- the sweep's batched kernel against the reference ---------------------------------

def near_a_threshold(p: Point, t: Target, s: Scenario) -> bool:
    """Some clause quantity within 1e-9 of its threshold."""
    sensor, eps = s.sensor, s.eps_len
    d_s, d_e = math.dist(p, t.start), math.dist(p, t.end)
    m = t.midpoint
    v = (p[0] - m[0], p[1] - m[1])
    gaps = [d_s - eps, d_e - eps, sensor.r_max + eps - d_s, sensor.r_max + eps - d_e,
            math.hypot(*v) - eps]
    if math.hypot(*v) > 0.0:
        gaps.append(sensor.phi + EPS_ANG - angle_between(t.normal, v))
    if sensor.r_min > 0.0:
        gaps.append(point_segment_distance(p, t.segment) - (sensor.r_min - eps))
    if sensor.theta < math.pi and min(d_s, d_e) > 0.0:
        gaps.append(sensor.theta + EPS_ANG - subtended_angle(t, p))
    return any(abs(g) < 1e-9 for g in gaps)


@given(scenes(), st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_pairs_match_reference(s, data):
    pts = probes(data.draw, s)
    block = np.array(pts, dtype=float)
    idx = sweep.ScenarioIndex(s)
    pi, tj = sweep._cheap_pairs(block, idx)
    live = ~sweep._occluded(block, pi, tj, idx, sweep._shadow_cones(idx))
    got = set(zip(pi[live].tolist(), tj[live].tolist()))
    checked = 0
    blockers = interacting_blockers(s.targets, s)
    for i, p in enumerate(pts):
        for j, t in enumerate(s.targets):
            if near_a_threshold(p, t, s):
                continue
            checked += 1
            assert ((i, j) in got) == covers(t, p, s.sensor, s.eps_len, blockers=blockers[j]), (t, p)
    assert checked > 0
