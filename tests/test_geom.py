"""Geometry kernel tests: frozen examples plus randomized properties."""
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camplan import geom
from camplan.geom import (
    EPS,
    TWO_PI,
    _mod_2pi_np,
    Arc,
    Circle,
    DegenerateError,
    Region,
    Segment,
    angle_between,
    bearing,
    box_pairs,
    curve_table,
    intersections,
    norm_angle,
    point_segment_distance,
    region_from_curves,
    regions_from_curves,
    scaled_eps,
    segment_blocks_triangle,
    segment_boxes,
    segment_segment_distance,
    wrap_pi,
)

from oracles import (OVERLAP, _classify_piece, _classify_pieces, batched, contains, intersect, pairwise_cuts,
                     piecewise_pieces, piecewise_region, point_piece_distance)

SQRT3_2 = math.sqrt(3.0) / 2.0


# --- angles ---------------------------------------------------------------

def test_bearing_axes_and_diagonal():
    assert bearing((0, 0), (1, 0)) == 0.0
    assert bearing((0, 0), (0, 1)) == pytest.approx(math.pi / 2, abs=1e-15)
    assert bearing((1, 1), (0, 0)) == pytest.approx(5 * math.pi / 4, abs=1e-15)


def test_bearing_degenerate():
    with pytest.raises(DegenerateError):
        bearing((1.0, 2.0), (1.0, 2.0))


@given(st.floats(-50.0, 50.0))
def test_norm_angle_range(a):
    v = norm_angle(a)
    assert 0.0 <= v < 2 * math.pi
    assert math.isclose(math.cos(v), math.cos(a), abs_tol=1e-9)
    assert math.isclose(math.sin(v), math.sin(a), abs_tol=1e-9)


@given(st.floats(-50.0, 50.0))
def test_wrap_pi_range(a):
    v = wrap_pi(a)
    assert -math.pi < v <= math.pi


# the sweep's calls of _mod_2pi_np: turns, and the range its input can take
MOD_2PI_SITES = {
    "bearing difference + pi": (2, -math.pi, 3.0 * math.pi),
    "lo and mid bearings": (1, -math.pi, math.pi),
    "lo of members less lo of anchor": (1, -TWO_PI, TWO_PI),
    "cone re-check offset": (2, -TWO_PI - 1e-12, 3.0 * math.pi),
    "interval_hi": (2, 0.0, 3.0 * math.pi),
}


def mod_2pi_specials(turns):
    """+-0, +-pi, +-2pi, +-4pi and their neighbours, tiny negatives and
    subnormals, within the [-2pi * turns, 2pi * turns) the wrap is exact on."""
    base = [0.0, math.pi, TWO_PI, 2.0 * TWO_PI]
    vals = [v for b in base for v in (b, -b)]
    vals += [math.nextafter(v, d) for v in vals for d in (-math.inf, math.inf)]
    vals += [-1e-17, 5e-324, -5e-324]
    return np.array([v for v in vals if -TWO_PI * turns <= v < TWO_PI * turns])


@pytest.mark.parametrize("site", sorted(MOD_2PI_SITES))
def test_mod_2pi_equals_remainder_bit_for_bit(site):
    turns, lo, hi = MOD_2PI_SITES[site]
    rng = np.random.default_rng(sorted(MOD_2PI_SITES).index(site))
    a = np.concatenate([rng.uniform(lo, hi, 200_000), mod_2pi_specials(turns),
                        # differences of angles, as the sweep forms them
                        rng.uniform(0.0, TWO_PI, 50_000) - rng.uniform(0.0, TWO_PI, 50_000)])
    a = a[(lo <= a) & (a <= hi)]
    got, want = _mod_2pi_np(a, turns=turns), np.remainder(a, TWO_PI)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), a[got.view(np.int64) != want.view(np.int64)]


@pytest.mark.parametrize("turns", [1, 2])
def test_mod_2pi_edge_cases(turns):
    # -0.0 and -2pi give +0.0, tiny negatives round up to 2pi
    assert _mod_2pi_np(np.array([-0.0]), turns=turns).view(np.int64)[0] == 0
    assert _mod_2pi_np(np.array([-TWO_PI]), turns=turns).view(np.int64)[0] == 0
    assert _mod_2pi_np(np.array([-1e-17, -5e-324]), turns=turns).tolist() == [TWO_PI, TWO_PI]
    if turns == 2:
        assert _mod_2pi_np(np.array([TWO_PI, -2.0 * TWO_PI]), turns=2).tolist() == [0.0, 0.0]


def test_angle_between_basics():
    assert angle_between((1, 0), (0, 1)) == pytest.approx(math.pi / 2)
    assert angle_between((1, 0), (-1, 0)) == pytest.approx(math.pi)
    assert angle_between((1, 1), (2, 2)) == pytest.approx(0.0, abs=1e-12)


# --- intersect ------------------------------------------------------------

def checked(a, b, eps=EPS):
    """The reference `intersect(a, b)`, once the batched kernel has found the
    same points bit for bit, or the same overlap."""
    want = intersect(a, b, eps)
    tab = curve_table([a, b])
    call, xy, overlap = intersections(tab, np.array([0]), tab, np.array([1]), eps)
    assert overlap.tolist() == [want is OVERLAP]
    assert xy.tobytes() == np.array([] if want is OVERLAP else want, dtype=float).reshape(-1, 2).tobytes()
    return want


def test_intersect_axes_cross():
    a = Segment((0, -1), (0, 1))
    b = Segment((-1, 0), (1, 0))
    assert checked(a, b) == [(0.0, 0.0)]


def test_intersect_unit_circles():
    c1 = Circle((0, 0), 1.0)
    c2 = Circle((1, 0), 1.0)
    pts = checked(c1, c2)
    assert len(pts) == 2
    assert pts[0] == pytest.approx((0.5, -SQRT3_2))
    assert pts[1] == pytest.approx((0.5, SQRT3_2))


def test_intersect_disjoint():
    assert checked(Segment((2, 0), (3, 0)), Circle((0, 0), 1.0)) == []


def test_intersect_collinear_overlap_flagged():
    a = Segment((0, 0), (2, 0))
    b = Segment((1, 0), (3, 0))
    assert checked(a, b) is OVERLAP


def test_intersect_identical_circles_flagged():
    c = Circle((3, 4), 2.0)
    assert checked(c, Circle((3, 4), 2.0)) is OVERLAP


def test_intersect_collinear_touch_is_point():
    a = Segment((0, 0), (1, 0))
    b = Segment((1, 0), (2, 0))
    assert checked(a, b) == [(1.0, 0.0)]


def test_intersect_tangent_circles_single_point():
    pts = checked(Circle((0, 0), 1.0), Circle((2, 0), 1.0))
    assert len(pts) == 1
    assert pts[0] == pytest.approx((1.0, 0.0))


@pytest.mark.parametrize("turn", [0.0, 0.3, 2.0, 4.5])
@pytest.mark.parametrize("r, dr, d", [(20.0, 2.0, 1.5), (20.0, 3.0, 2.2), (0.05, 2.5, 1.6), (3.0, -2.7, 1.9),
                                      (50.0, 1000.4, 1000.0)])
def test_intersect_nested_circles_near_internal_tangency(turn, r, dr, d):
    # circles nested less than eps apart (radii differ by dr*eps, centers
    # d*eps apart, 1 < d < |dr| < d + 1) touch once, at a point within eps
    # of both
    eps = 1.414e-7
    c1 = Circle((10.0, 50.0), r)
    c2 = Circle((10.0 + d * eps * math.cos(turn), 50.0 + d * eps * math.sin(turn)), r + dr * eps)
    pts = checked(c1, c2, eps)
    assert len(pts) == 1
    for c in (c1, c2):
        assert abs(math.dist(pts[0], c.center) - c.radius) <= eps / 2.0
    back = checked(c2, c1, eps)
    assert len(back) == 1 and math.dist(back[0], pts[0]) <= 1e-12


segments = st.builds(
    Segment,
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
).filter(lambda s: s.length() > 1e-3)

circles = st.builds(
    Circle,
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
    st.floats(0.01, 10),
)

curves = st.one_of(segments, circles)


def _dist_to_curve(p, curve):
    if isinstance(curve, Segment):
        return point_segment_distance(p, curve)
    return abs(math.dist(p, curve.center) - curve.radius)


@given(curves, curves)
@settings(max_examples=200)
def test_intersect_symmetric_and_on_both(a, b):
    r1 = checked(a, b)
    r2 = checked(b, a)
    if r1 is OVERLAP or r2 is OVERLAP:
        assert r1 is r2
        return
    assert sorted(r1) == sorted(r2)
    for p in r1:
        assert _dist_to_curve(p, a) <= 1e-6
        assert _dist_to_curve(p, b) <= 1e-6


# --- containment ----------------------------------------------------------

def unit_disk() -> Region:
    circle = Circle((0.0, 0.0), 1.0)
    return Region([[Arc(circle, 0.0, math.pi), Arc(circle, math.pi, 0.0)]])


def test_unit_disk_contains():
    d = unit_disk()
    assert contains(d, (0.0, 0.0))
    assert contains(d, (1.0, 0.0))  # boundary point, inclusive
    assert not contains(d, (2.0, 0.0))


def test_unit_disk_contains_near_boundary():
    d = unit_disk()
    assert contains(d, (0.0, -0.999999))
    assert not contains(d, (0.0, -1.001))


def test_region_vertices_contained():
    d = unit_disk()
    for v in d.vertices():
        assert contains(d, v)


# --- blocking -------------------------------------------------------------

def test_blocks_triangle_inside():
    blocker = Segment((0.25, 1), (0.75, 1))
    assert segment_blocks_triangle(blocker, (0.5, 2), Segment((0, 0), (1, 0)), EPS)


def test_blocks_triangle_outside():
    blocker = Segment((0.25, 1), (0.75, 1))
    assert not segment_blocks_triangle(blocker, (2, 0.5), Segment((0, 0), (1, 0)), EPS)


def test_blocks_triangle_shared_endpoint():
    blocker = Segment((1, 0), (2, 1))
    assert not segment_blocks_triangle(blocker, (0.5, 2), Segment((0, 0), (1, 0)), EPS)


def test_blocks_triangle_crossing():
    blocker = Segment((-1, 0.5), (2, 0.5))
    assert segment_blocks_triangle(blocker, (0.5, 2), Segment((0, 0), (1, 0)), EPS)


def test_blocks_triangle_degenerate_apex_on_base():
    blocker = Segment((0.25, 1), (0.75, 1))
    assert not segment_blocks_triangle(blocker, (0.5, 0.0), Segment((0, 0), (1, 0)), EPS)


@given(segments, st.tuples(st.floats(-10, 10), st.floats(-10, 10)), segments)
@settings(max_examples=200)
def test_blocks_triangle_base_swap_invariant(blocker, apex, base):
    flipped = Segment(base.b, base.a)
    assert segment_blocks_triangle(blocker, apex, base, EPS) == segment_blocks_triangle(
        blocker, apex, flipped, EPS
    )


# --- distances ------------------------------------------------------------

def test_point_segment_distance():
    seg = Segment((0, 0), (2, 0))
    assert point_segment_distance((1, 1), seg) == pytest.approx(1.0)
    assert point_segment_distance((3, 0), seg) == pytest.approx(1.0)
    assert point_segment_distance((1, 0), seg) == 0.0


def test_segment_segment_distance():
    a = Segment((0, 0), (1, 0))
    b = Segment((0, 1), (1, 1))
    assert segment_segment_distance(a, b) == pytest.approx(1.0)
    c = Segment((0.5, -1), (0.5, 1))
    assert segment_segment_distance(a, c) == 0.0
    # two pieces of one slanted line, 7.28 m apart: their float orientations
    # are rounding noise, which once reported a crossing
    d = Segment((2.000000007770287, 2.999999972803996), (9.000000007770288, 4.999999972803995))
    e = Segment((16.00000000777029, 6.999999972803996), (23.00000000777029, 8.999999972803996))
    assert segment_segment_distance(d, e) == pytest.approx(math.dist(d.b, e.a))


# lattice segments: boxes that touch along an edge or at a corner, and boxes
# of zero extent (axis-parallel segments and points)
lattice_segments = st.lists(st.tuples(*[st.tuples(st.integers(0, 6), st.integers(0, 6))] * 2).map(
    lambda ends: Segment(*[(float(x), float(y)) for x, y in ends])), max_size=12)


def all_box_pairs(lo, hi, lo_b, hi_b, one):
    """Reference: every (i, j) pair tested, j > i over one set."""
    return [(i, j) for i in range(len(lo)) for j in range(len(lo_b)) if (j > i or not one)
            and all(lo[i][d] <= hi_b[j][d] and lo_b[j][d] <= hi[i][d] for d in (0, 1))]


@given(lattice_segments, st.none() | lattice_segments, st.sampled_from([0.0, 0.5]))
@example([], None, 0.0)
@example([], [Segment((1.0, 1.0), (1.0, 3.0))], 0.0)
@example([Segment((1.0, 1.0), (1.0, 3.0))], [], 0.5)
@settings(max_examples=300)
def test_box_pairs_match_all_pairs(first, second, pad):
    lo, hi = segment_boxes(first, pad)
    assert lo.tolist() == [[min(s.a[d], s.b[d]) - pad for d in (0, 1)] for s in first]
    assert hi.tolist() == [[max(s.a[d], s.b[d]) + pad for d in (0, 1)] for s in first]
    lo_b, hi_b = (lo, hi) if second is None else segment_boxes(second, pad)
    want = all_box_pairs(lo.tolist(), hi.tolist(), lo_b.tolist(), hi_b.tolist(), second is None)
    # one block, a row a block (a budget of 1, and one below a row), and
    # blocks of two rows
    for budget in (geom._PAIR_BUDGET, 1, max(len(lo_b) - 1, 1), 2 * len(lo_b) + 1):
        with mock.patch.object(geom, "_PAIR_BUDGET", budget):
            i, j = box_pairs(lo, hi) if second is None else box_pairs(lo, hi, lo_b, hi_b)
        assert i.dtype == j.dtype == np.int64
        assert list(zip(i.tolist(), j.tolist())) == want


def test_point_arc_distance():
    arc = Arc(Circle((0, 0), 1.0), 0.0, math.pi / 2)
    assert point_piece_distance((2.0, 0.0), arc) == pytest.approx(1.0)
    assert point_piece_distance((0.0, -1.0), arc) == pytest.approx(math.dist((0, -1), (1, 0)))


# --- region extraction ----------------------------------------------------

def loop_signed_area(loop):
    """Signed area enclosed by a loop (positive = counter-clockwise)."""
    area = 0.0
    for piece in loop:
        if isinstance(piece, Segment):
            area += piece.a[0] * piece.b[1] - piece.b[0] * piece.a[1]
        else:
            a0, a1 = piece.start_point(), piece.end_point()
            area += a0[0] * a1[1] - a1[0] * a0[1]
            r = piece.circle.radius
            sw = piece.sweep() if piece.ccw else -piece.sweep()
            # circular-segment correction between chord and arc
            area += r * r * (sw - math.sin(sw))
    return area / 2.0


def test_region_from_curves_square():
    lines = [
        Segment((-1, 0), (2, 0)),
        Segment((-1, 1), (2, 1)),
        Segment((0, -1), (0, 2)),
        Segment((1, -1), (1, 2)),
    ]

    def inside(p):
        return 0 <= p[0] <= 1 and 0 <= p[1] <= 1

    reg = region_from_curves(lines, batched(inside), offset=1e-7, snap=1e-9)
    assert len(reg.loops) == 1
    assert len(reg.loops[0]) == 4
    assert loop_signed_area(reg.loops[0]) == pytest.approx(1.0, abs=1e-9)
    assert contains(reg, (0.5, 0.5))
    assert contains(reg, (0.0, 0.0))
    assert not contains(reg, (1.2, 0.5))


def test_region_from_curves_disk():
    circle = Circle((0, 0), 1.0)

    def inside(p):
        return math.hypot(*p) <= 1.0

    reg = region_from_curves([circle], batched(inside), offset=1e-7, snap=1e-9)
    assert len(reg.loops) == 1
    assert loop_signed_area(reg.loops[0]) == pytest.approx(math.pi, abs=1e-6)
    for v in reg.vertices():
        assert contains(reg, v)


def test_region_from_curves_lens():
    c1 = Circle((0, 0), 1.0)
    c2 = Circle((1, 0), 1.0)

    def inside(p):
        return math.dist(p, c1.center) <= 1.0 and math.dist(p, c2.center) <= 1.0

    reg = region_from_curves([c1, c2], batched(inside), offset=1e-7, snap=1e-9)
    assert len(reg.loops) == 1
    assert len(reg.loops[0]) == 2
    # lens area: 2 r^2 (gamma - sin gamma cos gamma) with half-angle gamma=pi/3
    gamma = math.pi / 3
    expect = 2 * (gamma - math.sin(gamma) * math.cos(gamma))
    assert loop_signed_area(reg.loops[0]) == pytest.approx(expect, rel=1e-9)
    assert contains(reg, (0.5, 0.0))
    assert not contains(reg, (-0.5, 0.0))


def test_fields_without_curve_pairs_among_fields_with_them():
    # a field of no curve or of one curve has no pairs to cut: built among
    # fields that have them, at other snaps, each field is the one its own
    # pass builds; no field at all builds no region
    square = [Segment((-1, 0), (2, 0)), Segment((-1, 1), (2, 1)), Segment((0, -1), (0, 2)), Segment((1, -1), (1, 2))]
    fields = [
        ([], batched(lambda p: False), 1e-7, 1e-9),
        (square, batched(lambda p: 0 <= p[0] <= 1 and 0 <= p[1] <= 1), 1e-6, 1e-8),
        ([Circle((0, 0), 1.0)], batched(lambda p: math.hypot(*p) <= 1.0), 1e-7, 1e-9),
        ([Segment((0, 0), (1, 0))], batched(lambda p: p[1] >= 0.0), 1e-7, 1e-9),
        ([], batched(lambda p: True), 1e-7, 1e-9),
        ([Circle((0, 0), 1.0), Circle((1, 0), 1.0)], batched(lambda p: math.hypot(*p) <= 1.0), 1e-5, 1e-7),
    ]
    got = regions_from_curves(fields)
    assert [len(reg.loops) for reg in got] == [0, 1, 1, 0, 0, 1]
    for (curves, inside, offset, snap), reg in zip(fields, got):
        assert repr(reg.loops) == repr(region_from_curves(curves, inside, offset=offset, snap=snap).loops)
        assert repr(reg.loops) == repr(piecewise_region(curves, inside, offset=offset, snap=snap).loops)
    assert regions_from_curves([]) == []


def test_batched_piece_vote_matches_the_scalar_vote():
    # predicates whose boundary leaves a piece part way along, so its three
    # stations vote anywhere from -3 to 3: a segment, a zero-length segment
    # and a circle cut by one another, one field per predicate, every field
    # in one pass
    rng = random.Random(3)
    offset, snap = 1e-7, 1e-9
    for _ in range(200):
        c = Circle((rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.5, 3.0))
        a = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        curves = [Segment(a, (rng.uniform(-3, 3), rng.uniform(-3, 3))), Segment(a, a), c]
        ux, uy = math.cos(rng.uniform(0, 6.3)), math.sin(rng.uniform(0, 6.3))
        cut = sorted(rng.uniform(-3, 3) for _ in range(2))
        (ax, ay), (bx, by) = curves[0].a, curves[0].b
        sides = [lambda p: (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0.0,
                 lambda p: math.dist(p, c.center) < c.radius]
        preds = []
        for side in sides:
            def inside(p, side=side):
                f = ux * p[0] + uy * p[1]
                return side(p) if f < cut[0] else (not side(p) if f < cut[1] else False)
            preds.append(inside)
        got = geom._classified_pieces([(curves, batched(inside), offset, snap) for inside in preds])
        pieces = piecewise_pieces(curves, snap)
        for kept, inside in zip(got, preds):
            want = [_classify_piece(pc, inside, offset) for pc in pieces]
            assert repr(kept) == repr([pc for pc in want if pc is not None])


def adversarial_fields():
    """(curves, inside) of fields whose pieces take the rare paths: arc cuts
    on both sides of angle 0, a circle cut once or not at all, coincident
    cuts that leave a zero-length piece, and a duplicate piece whose rounded
    key holds -0.0 where the first one's holds 0.0."""
    unit = Circle((0.0, 0.0), 1.0)
    out = []
    for d in (1e-10, 2e-10, 4e-10, 1e-9, 1e-8, 1e-6, 1e-3, 0.3):
        # a chord at x = cos(d) cuts the unit circle at -d and d (once, at
        # 0, where cos(d) rounds to 1)
        x = math.cos(d)
        out.append(([unit, Segment((x, -2.0), (x, 2.0))], lambda p, x=x: math.hypot(*p) <= 1.0 and p[0] <= x))
        # two radii cut it at d and -d, and the one near 2 pi merges into
        # the one near 0 once 2d is within the tolerance
        rays = [Segment((0.0, 0.0), (2.0 * x, 2.0 * s * math.sin(d))) for s in (1.0, -1.0)]
        out.append(([unit, *rays], lambda p: math.hypot(*p) <= 1.0 and p[0] >= 0.0))
    for y in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
        # a tangent cuts it once
        out.append(([unit, Segment((-2.0, y), (2.0, y))], lambda p: math.hypot(*p) <= 1.0 and p[1] <= 1.0))
    # no curve cuts a circle
    out.append(([Circle((3.0, 3.0), 0.5)], lambda p: math.dist(p, (3.0, 3.0)) <= 0.5))
    # a segment two ulps by one at 1e8 overlaps a tiny segment, which cuts
    # it at 0.2 of its length: that point rounds to its start, and the
    # piece before it has no length
    u = math.ulp(1e8)
    x0 = y0 = 1e8
    out.append(([Segment((x0, y0), (x0 + 2 * u, y0 + u)), Segment((x0, y0 + u), (x0 + 2 * u, y0 + u))],
                lambda p: (p[0] - x0) - 2.0 * (p[1] - y0) >= 0.0))
    # the long segment's middle piece, from (0.0, 0.0) to (3.0, 0.0), and
    # the short segment, from -1e-17 (key -0.0) to 3.0, are one piece
    out.append(([Segment((-2.0, 0.0), (5.0, 0.0)), Segment((-1e-17, -0.0), (3.0, -0.0))], lambda p: p[1] >= 0.0))
    return out


def test_the_array_pass_matches_the_piece_loops_on_adversarial_fields():
    fields = [(curves, batched(inside), 1e-7, 1e-9) for curves, inside in adversarial_fields()]
    kept = geom._classified_pieces(fields)
    built = regions_from_curves(fields)
    zero = dropped = 0
    short = Segment((-1e-17, -0.0), (3.0, -0.0))
    for (curves, inside, offset, snap), got, reg in zip(fields, kept, built):
        pieces = piecewise_pieces(curves, snap)
        want = [pc for pc in _classify_pieces(pieces, inside, offset) if pc is not None]
        assert repr(got) == repr(want)
        assert repr(reg.loops) == repr(piecewise_region(curves, inside, offset=offset, snap=snap).loops)
        zero += sum(isinstance(pc, Segment) and pc.a == pc.b for pc in pieces)
        dropped += curves[-1] == short and short not in pieces
    assert zero == 1 and dropped == 1


def mixed_snap_fields(rng):
    """(curves, snap) of fields at snaps from 1e-9 to 1e-4, deduped as the
    pass dedupes them: the adversarial fields at every snap, and random ones
    with a crossing, a collinear overlap, a zero-length segment and a
    segment tangent to a circle within a few snaps."""
    snaps = (1e-9, 1e-7, 1e-4)
    out = [(curves, snap) for curves, _ in adversarial_fields() for snap in snaps]
    for _ in range(40):
        snap = rng.choice(snaps)
        c = Circle((rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.5, 3.0))
        a, b = (rng.uniform(-3, 3), rng.uniform(-3, 3)), (rng.uniform(-3, 3), rng.uniform(-3, 3))
        ab = Segment(a, b)
        s0, s1 = sorted(rng.uniform(-0.5, 1.5) for _ in range(2))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        d = c.radius + rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0]) * snap
        fx, fy = c.center[0] + d * math.cos(ang), c.center[1] + d * math.sin(ang)
        tx, ty = -math.sin(ang), math.cos(ang)
        out.append(([c, ab, Segment(ab.point_at(s0), ab.point_at(s1)), Segment(a, a),
                     Segment((fx - tx, fy - ty), (fx + tx, fy + ty)), Segment(a, (b[1], b[0]))], snap))
    rng.shuffle(out)
    return [(geom._dedupe_curves(curves, snap), snap) for curves, snap in out]


def test_one_cuts_call_gives_each_field_the_cuts_of_its_own_call():
    # every field's curves in one table, each field at its own snap: a
    # field's cuts are those its own call gives, in its order
    fields = mixed_snap_fields(random.Random(9))
    first = np.cumsum([0] + [len(cs) for cs, _ in fields])
    table = curve_table([c for cs, _ in fields for c in cs])
    snap = np.array([e for _, e in fields])
    curve, t = geom._cuts(table, first, snap)
    changed = 0
    for (cs, e), lo, hi in zip(fields, first[:-1].tolist(), first[1:].tolist()):
        alone = geom._cuts(curve_table(cs), np.array([0, len(cs)]), np.array([e]))
        mine = (lo <= curve) & (curve < hi)
        assert (curve[mine] - lo).tolist() == alone[0].tolist()
        assert t[mine].tobytes() == alone[1].tobytes()
        other = geom._cuts(curve_table(cs), np.array([0, len(cs)]), np.array([1e-4 if e < 1e-4 else 1e-9]))
        changed += other[1].tobytes() != alone[1].tobytes()
    assert changed > 10   # the snaps decide
    # the scalar pair loop, field by field, cuts at the same places
    want = pairwise_cuts(table, first, snap)
    assert sorted(zip(curve.tolist(), t.tolist())) == sorted(zip(*(a.tolist() for a in want)))


def test_tolerance_for_diameter():
    assert scaled_eps(141.4) == pytest.approx(1.414e-7)
    assert geom.EPS_ANG == 1e-12
    assert scaled_eps(0.0) == pytest.approx(1e-9)
