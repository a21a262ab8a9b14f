"""Domain model tests: validation rules and the facing clause of the coverage reference."""
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camplan import geom
from camplan.fields import covers
from camplan.geom import segment_segment_distance
from camplan.model import (
    Obstacle,
    Scenario,
    SensorSpec,
    Target,
    _touch_only_at_endpoints,
    validate_scenario,
)

SENSOR = SensorSpec(aov_deg=90.0, r_min=0.0, r_max=10.0, phi_deg=90.0)


def make_scenario(targets, sensor=SENSOR, obstacles=(), w=100.0, h=100.0):
    return Scenario(width=w, height=h, sensor=sensor, targets=tuple(targets), obstacles=tuple(obstacles))


def test_sensor_radians():
    s = SensorSpec(aov_deg=60.0, r_min=1.0, r_max=5.0, phi_deg=45.0)
    assert s.theta == pytest.approx(math.pi / 3)
    assert s.phi == pytest.approx(math.pi / 4)


def test_target_derived():
    t = Target(0, (0, 0), (1, 0), (0, 1))
    assert t.midpoint == (0.5, 0.0)
    assert t.width == 1.0


def test_validate_ok():
    t = Target(0, (0, 0), (1, 0), (0, 1))
    rep = validate_scenario(make_scenario([t]))
    assert rep.ok
    assert rep.warnings == []


def test_validate_normal_not_perpendicular():
    t = Target(0, (0, 0), (1, 0), (1, 0))
    rep = validate_scenario(make_scenario([t]))
    assert not rep.ok
    assert any("perpendicular" in str(e) for e in rep.errors)
    assert any("target 0" in str(e) for e in rep.errors)


def test_validate_bad_range_order():
    rep = validate_scenario(make_scenario([], sensor=SensorSpec(90.0, 5.0, 2.0)))
    assert not rep.ok
    assert any("r_min" in str(e) for e in rep.errors)


@pytest.mark.parametrize("field", ["aov_deg", "r_min", "r_max", "phi_deg"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validate_rejects_non_finite_sensor(field, value):
    fields = {"aov_deg": 90.0, "r_min": 0.0, "r_max": 10.0, "phi_deg": 90.0, field: value}
    t = Target(0, (0, 0), (1, 0), (0, 1))
    rep = validate_scenario(make_scenario([t], sensor=SensorSpec(**fields)))
    assert not rep.ok
    assert any(f"non-finite {field}" in str(e) for e in rep.errors)


def test_validate_normal_not_unit():
    t = Target(0, (0, 0), (1, 0), (0, 2))
    rep = validate_scenario(make_scenario([t]))
    assert any("unit" in str(e) for e in rep.errors)


def test_validate_out_of_area():
    t = Target(3, (0, 0), (1, 0), (0, 1))
    rep = validate_scenario(make_scenario([t], w=0.5, h=10))
    assert any("outside" in str(e) and "target 3" in str(e) for e in rep.errors)


def test_validate_wide_target_is_warning():
    t = Target(0, (0, 0), (8, 0), (0, 1))  # W=8 > r_max/2=5
    rep = validate_scenario(make_scenario([t]))
    assert rep.ok
    assert any("width" in str(w) for w in rep.warnings)


def test_validate_overlapping_targets():
    a = Target(0, (0, 0), (2, 0), (0, 1))
    b = Target(1, (1, 0), (3, 0), (0, 1))
    rep = validate_scenario(make_scenario([a, b]))
    assert not rep.ok


def test_validate_endpoint_contact_allowed():
    a = Target(0, (0, 0), (1, 0), (0, 1))
    b = Target(1, (1, 0), (1, 1), (1, 0))
    rep = validate_scenario(make_scenario([a, b]))
    assert rep.ok


def test_validate_crossing_targets_rejected():
    a = Target(0, (0, 0), (2, 0), (0, 1))
    b = Target(1, (1, -1), (1, 1), (1, 0))
    rep = validate_scenario(make_scenario([a, b]))
    assert not rep.ok


def all_pairs_overlaps(s):
    """Reference: the target-overlap check over every pair, in (i, j) order."""
    eps = s.eps_len
    out = []
    for i in range(len(s.targets)):
        for j in range(i + 1, len(s.targets)):
            ti, tj = s.targets[i], s.targets[j]
            if segment_segment_distance(ti.segment, tj.segment) <= eps:
                if not _touch_only_at_endpoints(ti.segment, tj.segment, eps):
                    out.append(f"targets {ti.id},{tj.id}: overlap (not an endpoint contact)")
    return out


def _target(tid, a, b):
    L = math.dist(a, b)
    normal = ((a[1] - b[1]) / L, (b[0] - a[0]) / L) if L > 0 else (0.0, 1.0)
    return Target(tid, a, b, normal)


@st.composite
def touching_layouts(draw):
    """Targets on a small lattice reaching the area boundary (shared endpoints,
    T-junctions, collinear overlaps, zero-width targets) plus copies of earlier
    ones shifted across or along themselves by a few eps_len."""
    w = 10.0
    eps = Scenario(w, w, SENSOR, ()).eps_len
    lattice = st.tuples(st.integers(0, 10), st.integers(0, 10)).map(lambda p: (float(p[0]), float(p[1])))
    segs = []
    for _ in range(draw(st.integers(0, 14))):
        if segs and draw(st.booleans()):
            a, b = draw(st.sampled_from(segs))
            L = math.dist(a, b) or 1.0
            ux, uy = (b[0] - a[0]) / L, (b[1] - a[1]) / L
            k = draw(st.sampled_from([-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0])) * eps
            if draw(st.booleans()):   # parallel, k apart
                dx, dy = -uy * k, ux * k
            else:                     # collinear, slid by its length plus k
                dx, dy = ux * (L + k), uy * (L + k)
            segs.append(((a[0] + dx, a[1] + dy), (b[0] + dx, b[1] + dy)))
        else:
            segs.append((draw(lattice), draw(lattice)))
    targets = [_target(i, a, b) for i, (a, b) in enumerate(segs)]
    return Scenario(width=w, height=w, sensor=SENSOR, targets=tuple(draw(st.permutations(targets))))


@settings(max_examples=400, deadline=None)
@given(touching_layouts())
def test_validate_overlap_prefilter_matches_all_pairs(s):
    want = all_pairs_overlaps(s)
    for budget in (geom._PAIR_BUDGET, 7):   # one block, and blocks of a row or less
        with mock.patch.object(geom, "_PAIR_BUDGET", budget):
            errors = validate_scenario(s).errors
        assert [str(e) for e in errors if e.entity.startswith("targets ")] == want


def obstacle_on_target_errors(s):
    """Reference: the obstacle-on-target check over every (target, edge) pair."""
    eps = s.eps_len
    out = []
    for t in s.targets:
        for obs in s.obstacles:
            for e in obs.edges():
                if segment_segment_distance(t.segment, e) <= eps and not _touch_only_at_endpoints(t.segment, e, eps):
                    msg = f"obstacle {obs.id}: lies on target {t.id} (not an endpoint contact)"
                    if msg not in out:
                        out.append(msg)
    return out


@settings(max_examples=300, deadline=None)
@given(touching_layouts(), st.data())
def test_validate_obstacle_on_target_prefilter_matches_all_pairs(s, data):
    # some of the layout's segments become obstacle walls
    walls = data.draw(st.lists(st.booleans(), min_size=len(s.targets), max_size=len(s.targets)))
    targets = tuple(t for t, w in zip(s.targets, walls) if not w)
    obstacles = tuple(Obstacle(k, (t.start, t.end)) for k, (t, w) in enumerate(zip(s.targets, walls)) if w)
    s = Scenario(s.width, s.height, s.sensor, targets, obstacles)
    want = obstacle_on_target_errors(s)
    for budget in (geom._PAIR_BUDGET, 3):
        with mock.patch.object(geom, "_PAIR_BUDGET", budget):
            got = [str(e) for e in validate_scenario(s).errors if "lies on target" in str(e)]
        assert sorted(got) == sorted(want)


@pytest.mark.parametrize("chain,ok", [
    (((10.5, 9.0), (10.5, 11.0)), False),           # crosses the target
    (((9.0, 10.0), (10.5, 10.0)), False),           # collinear, overlapping it
    (((10.2, 10.0 + 5e-8), (10.8, 10.0 + 5e-8)), False),   # parallel, within eps_len
    (((10.5, 10.0), (10.5, 12.0)), False),          # starts on its interior
    (((11.0, 10.0), (12.0, 11.0)), True),           # leaves from an endpoint
    (((11.0, 10.0), (13.0, 10.0)), True),           # continues it from an endpoint
    (((10.2, 10.0 + 1e-6), (10.8, 10.0 + 1e-6)), True),    # parallel, beyond eps_len
    (((12.0, 12.0), (11.0, 10.0), (12.0, 9.0)), True),     # chain vertex on an endpoint
])
def test_validate_obstacle_on_target(chain, ok):
    t = Target(0, (10.0, 10.0), (11.0, 10.0), (0.0, 1.0))
    rep = validate_scenario(make_scenario([t], obstacles=[Obstacle(4, chain)]))
    assert [str(e) for e in rep.errors] == ([] if ok else ["obstacle 4: lies on target 0 (not an endpoint contact)"])


def test_validate_reports_every_error_in_order():
    # target overlaps come after the per-target checks, obstacle-on-target
    # contacts after the per-obstacle checks, each in (target, segment) order
    targets = [
        Target(0, (5.0, 5.0), (7.0, 5.0), (0.0, 1.0)),
        Target(1, (6.0, 5.0), (8.0, 5.0), (0.0, 1.0)),   # collinear, overlapping target 0
        Target(2, (10.0, 10.0), (12.0, 10.0), (0.0, 1.0)),
        Target(3, (6.0, 4.0), (6.0, 6.0), (1.0, 0.0)),   # crosses target 0, meets target 1's start
    ]
    obstacles = [
        Obstacle(7, ((10.5, 10.0), (11.5, 10.0))),   # along target 2
        Obstacle(4, ((5.5, 4.0), (5.5, 6.0))),     # across target 0
        Obstacle(4, ((50.0, 50.0), (50.0, 50.0), (51.0, 50.0))),   # an id again, a point edge
    ]
    rep = validate_scenario(make_scenario(targets, obstacles=obstacles))
    assert [str(e) for e in rep.errors] == [
        "targets 0,1: overlap (not an endpoint contact)",
        "targets 0,3: overlap (not an endpoint contact)",
        "targets 1,3: overlap (not an endpoint contact)",
        "obstacle 4: duplicate id",
        "obstacle 4: degenerate edge 0",
        "obstacle 4: lies on target 0 (not an endpoint contact)",
        "obstacle 7: lies on target 2 (not an endpoint contact)",
    ]
    assert rep.warnings == []


def test_validate_target_ids_within_int64():
    for tid in (2 ** 63, -(2 ** 63) - 1, 10 ** 20):
        rep = validate_scenario(make_scenario([Target(tid, (0, 0), (1, 0), (0, 1))]))
        assert any("64-bit" in str(e) for e in rep.errors)
    for tid in (2 ** 63 - 1, -(2 ** 63)):
        assert validate_scenario(make_scenario([Target(tid, (0, 0), (1, 0), (0, 1))])).ok


def test_validate_lengths_within_bound():
    big = Target(0, (0, 0), (1e95, 0), (0, 1))
    assert validate_scenario(make_scenario([big], sensor=SensorSpec(90.0, 0.0, 1e100), w=1e100, h=1e100)).ok
    t = Target(0, (0, 0), (1, 0), (0, 1))
    for sensor, w in ((SensorSpec(90.0, 0.0, 1e101), 100.0), (SENSOR, 1e101), (SensorSpec(90.0, 0.0, 1e308), 100.0)):
        rep = validate_scenario(make_scenario([t], sensor=sensor, w=w))
        assert any("beyond 1e+100" in str(e) for e in rep.errors)


def test_validate_obstacle_chain():
    good = Obstacle(0, ((0, 0), (1, 0), (1, 1)))
    rep = validate_scenario(make_scenario([], obstacles=[good]))
    assert rep.ok
    short = Obstacle(1, ((0, 0),))
    rep = validate_scenario(make_scenario([], obstacles=[short]))
    assert not rep.ok


def test_validate_rejects_duplicate_obstacle_ids():
    a = Obstacle(3, ((0, 0), (1, 0)))
    b = Obstacle(3, ((5, 5), (6, 5)))
    rep = validate_scenario(make_scenario([], obstacles=[a, b]))
    assert [str(e) for e in rep.errors] == ["obstacle 3: duplicate id"]
    # a target and an obstacle may share an id: they are separate namespaces
    t = Target(3, (10, 10), (11, 10), (0, 1))
    assert validate_scenario(make_scenario([t], obstacles=[a])).ok


def test_scenario_counts():
    t = Target(0, (0, 0), (1, 0), (0, 1))
    o = Obstacle(0, ((2, 2), (3, 2), (3, 3)))
    s = make_scenario([t], obstacles=[o])
    assert s.n == 1
    assert len(o.edges()) == 2
    assert len(s.blockers()) == 3


# --- facing ---------------------------------------------------------------

T_FACING = Target(0, (0, 0), (1, 0), (0, 1))


def facing(t, p, phi):
    """The facing clause of the coverage reference at p, with an angle tolerance of 1e-12."""
    clauses: dict = {}
    covers(t, p, SensorSpec(aov_deg=180.0, r_min=0.0, r_max=100.0, phi_deg=math.degrees(phi)),
           1e-9, report=(clauses, {}))
    return clauses["facing"]


def test_facing_front():
    assert facing(T_FACING, (0.5, 1.0), math.pi / 2)


def test_facing_behind():
    assert not facing(T_FACING, (0.5, -1.0), math.pi / 2)


def test_facing_diagonal_boundary():
    # angle(normal, p - M) is exactly pi/4 here; boundary counts as facing
    assert facing(T_FACING, (1.5, 1.0), math.pi / 4)
    assert not facing(T_FACING, (1.6, 1.0), math.pi / 4)


points = st.tuples(st.floats(-20, 20), st.floats(-20, 20))


@given(points, st.floats(0.01, math.pi / 2), st.floats(0.0, math.pi / 2))
@settings(max_examples=200)
def test_facing_monotone_in_phi(p, phi1, extra):
    if math.dist(p, T_FACING.midpoint) < 1e-6:
        return
    phi2 = min(phi1 + extra, math.pi / 2)
    if facing(T_FACING, p, phi1):
        assert facing(T_FACING, p, phi2)


@given(points, st.floats(0.0, 2 * math.pi), points)
@settings(max_examples=200)
def test_facing_rigid_motion_invariant(p, rot, shift):
    if math.dist(p, T_FACING.midpoint) < 1e-6:
        return
    c, s = math.cos(rot), math.sin(rot)

    def move(q):
        return (c * q[0] - s * q[1] + shift[0], s * q[0] + c * q[1] + shift[1])

    def rotate(v):
        return (c * v[0] - s * v[1], s * v[0] + c * v[1])

    t2 = Target(0, move(T_FACING.start), move(T_FACING.end), rotate(T_FACING.normal))
    phi = math.pi / 3
    # stay off the decision boundary: tiny rotation error can flip exact ties
    ang = math.atan2(
        abs((p[0] - 0.5) * 1.0), (p[1] - 0.0)
    )
    if abs(ang - phi) < 1e-6:
        return
    assert facing(T_FACING, p, phi) == facing(t2, move(p), phi)
