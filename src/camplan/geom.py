"""Planar geometry kernel: angles, segments, circles, arcs and boundary regions.

Everything downstream (placement fields, sweeps, the verifier) sits on the
predicates in this module.  Comparisons are tolerance based; only
`orientation` falls back to exact rationals.  Containment is boundary
inclusive throughout.

Curves meet in one place: `intersections`, a batched kernel over tables of
segments, circles and arcs (`curve_table`).  The fields of a scene are built
in one array pass over all their pieces (`regions_from_curves`): it splits
the curves at their cuts, dedupes the pieces, sets out the probes and counts
the votes for every field at once, with one `intersections` call over the
curve pairs of every field, each pair at its field's tolerance; each field
keeps one `inside` call for its probes.  Comprehensive candidate generation
then finds every field x field and field x view-circle crossing of a scene
with one more call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

Point = tuple[float, float]

TWO_PI = 2.0 * math.pi

# The absolute length fallback (scene-scaled lengths come from `scaled_eps`
# below) and the one angular tolerance, in radians.
EPS = 1e-9
EPS_ANG = 1e-12


class DegenerateError(ValueError):
    """Raised when an operation has no meaningful answer (coincident points etc.)."""


def scaled_eps(diameter: float) -> float:
    """The length tolerance at a diameter: a scene's, or a placement field's."""
    return 1e-9 * max(diameter, 1.0)


# ---------------------------------------------------------------------------
# angles


def norm_angle(a: float) -> float:
    """Canonical angle in [0, 2*pi)."""
    r = math.fmod(a, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:
        r = 0.0
    return r


def _norm_angle_np(a):
    """Elementwise norm_angle."""
    r = np.fmod(a, TWO_PI)
    r = np.where(r < 0.0, r + TWO_PI, r)
    return np.where(r >= TWO_PI, 0.0, r)


def _mod_2pi_np(a, turns: int = 2):
    """np.remainder(a, TWO_PI) bit for bit on [-2pi * turns, 2pi * turns),
    turns 1 or 2, by compare-and-add: moving [2pi, 4pi) and [-4pi, -2pi) by
    2pi is exact, as fmod is; adding 2pi to [-2pi, 0) rounds as remainder
    does (tiny negatives to 2pi); adding 0.0 makes -0.0 +0.0."""
    if turns > 1:
        a = a - (a >= TWO_PI) * TWO_PI
        a = a + (a < 0.0) * TWO_PI
    return a + (a < 0.0) * TWO_PI


def wrap_pi(a: float) -> float:
    """Wrap to (-pi, pi]."""
    r = math.fmod(a, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    elif r > math.pi:
        r -= TWO_PI
    return r


def _wrap_pi_np(a):
    """Elementwise wrap_pi."""
    r = np.fmod(a, TWO_PI)
    return np.where(r <= -math.pi, r + TWO_PI, np.where(r > math.pi, r - TWO_PI, r))


def bearing(p: Point, q: Point) -> float:
    """Bearing of q as seen from p, in [0, 2*pi).

    Raises DegenerateError when the points coincide within EPS.
    """
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    if math.hypot(dx, dy) <= EPS:
        raise DegenerateError(f"bearing undefined for coincident points {p} and {q}")
    return norm_angle(math.atan2(dy, dx))


def angle_between(u: Point, v: Point) -> float:
    """Unsigned angle between two vectors, in [0, pi]."""
    cross = u[0] * v[1] - u[1] * v[0]
    dot = u[0] * v[0] + u[1] * v[1]
    return math.atan2(abs(cross), dot)


# ---------------------------------------------------------------------------
# primitives


@dataclass(frozen=True, slots=True)
class Segment:
    a: Point
    b: Point

    def length(self) -> float:
        return math.dist(self.a, self.b)

    def midpoint(self) -> Point:
        return ((self.a[0] + self.b[0]) / 2.0, (self.a[1] + self.b[1]) / 2.0)

    def direction(self) -> Point:
        L = self.length()
        if L == 0.0:
            raise DegenerateError("zero-length segment has no direction")
        return ((self.b[0] - self.a[0]) / L, (self.b[1] - self.a[1]) / L)

    def point_at(self, t: float) -> Point:
        return (
            self.a[0] + t * (self.b[0] - self.a[0]),
            self.a[1] + t * (self.b[1] - self.a[1]),
        )


@dataclass(frozen=True, slots=True)
class Circle:
    center: Point
    radius: float

    def point_at(self, ang: float) -> Point:
        return (
            self.center[0] + self.radius * math.cos(ang),
            self.center[1] + self.radius * math.sin(ang),
        )


@dataclass(frozen=True, slots=True)
class Arc:
    """Directed circular arc from angle `start` to `end` (radians on `circle`).

    Travel is counter-clockwise when ccw is true, else clockwise.  Sweep is in
    (0, 2*pi); a full circle must be represented as two arcs.
    """

    circle: Circle
    start: float
    end: float
    ccw: bool = True

    def sweep(self) -> float:
        s = norm_angle(self.end - self.start) if self.ccw else norm_angle(self.start - self.end)
        return TWO_PI if s == 0.0 else s

    def start_point(self) -> Point:
        return self.circle.point_at(self.start)

    def end_point(self) -> Point:
        return self.circle.point_at(self.end)

    def midpoint(self) -> Point:
        half = self.sweep() / 2.0
        mid = self.start + half if self.ccw else self.start - half
        return self.circle.point_at(mid)

    def angle_inside(self, ang: float, tol: float = 1e-12) -> bool:
        """Whether absolute angle `ang` lies on the arc (inclusive ends)."""
        if self.ccw:
            off = norm_angle(ang - self.start)
        else:
            off = norm_angle(self.start - ang)
        return off <= self.sweep() + tol or off >= TWO_PI - tol


Piece = Segment | Arc
Curve = Segment | Circle


# ---------------------------------------------------------------------------
# distances


def point_segment_distance(p: Point, seg: Segment) -> float:
    ax, ay = seg.a
    bx, by = seg.b
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / L2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(p[0] - (ax + t * dx), p[1] - (ay + t * dy))


def segment_segment_distance(s1: Segment, s2: Segment) -> float:
    if _segments_properly_cross(s1, s2):
        return 0.0
    return min(
        point_segment_distance(s1.a, s2),
        point_segment_distance(s1.b, s2),
        point_segment_distance(s2.a, s1),
        point_segment_distance(s2.b, s1),
    )


def _segments_properly_cross(s1: Segment, s2: Segment) -> bool:
    def orient(p: Point, q: Point, r: Point) -> float:
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    d1 = orient(s2.a, s2.b, s1.a)
    d2 = orient(s2.a, s2.b, s1.b)
    d3 = orient(s1.a, s1.b, s2.a)
    d4 = orient(s1.a, s1.b, s2.b)
    if not (((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0):
        return False
    # on nearly collinear segments the float signs are rounding noise and can
    # cross segments that lie far apart on one line: confirm with exact signs
    return (orientation(s2.a, s2.b, s1.a) * orientation(s2.a, s2.b, s1.b) < 0
            and (orientation(s1.a, s1.b, s2.a) > 0) != (orientation(s1.a, s1.b, s2.b) > 0))


# Elements of one (rows, columns) block of the overlap test in `box_pairs`.
_PAIR_BUDGET = 1 << 20


def segment_boxes(segments: Iterable[Segment], pad: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners, (m, 2) each, of the segments' bounding boxes
    grown by pad."""
    xy = np.array([(*seg.a, *seg.b) for seg in segments], dtype=float).reshape(-1, 4)
    return np.minimum(xy[:, :2], xy[:, 2:]) - pad, np.maximum(xy[:, :2], xy[:, 2:]) + pad


def box_pairs(lo: np.ndarray, hi: np.ndarray, lo_b: np.ndarray | None = None,
              hi_b: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), in row-major order, of the pairs of boxes that
    overlap, edges included: box i of (lo, hi) with box j of (lo_b, hi_b),
    or with box j > i of (lo, hi) when no second set is given.  Boxes are
    rows of (m, 2) lower and upper corners."""
    one = lo_b is None
    if one:
        lo_b, hi_b = lo, hi
    step = max(1, _PAIR_BUDGET // max(len(lo_b), 1))
    ia, ib = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for a in range(0, len(lo), step):
        r = slice(a, a + step)
        near = ((lo[r, None, 0] <= hi_b[:, 0]) & (lo_b[:, 0] <= hi[r, None, 0])
                & (lo[r, None, 1] <= hi_b[:, 1]) & (lo_b[:, 1] <= hi[r, None, 1]))
        if one:
            near = np.triu(near, k=a + 1)
        i, j = np.divmod(np.flatnonzero(near), len(lo_b))
        ia.append(i + a)
        ib.append(j)
    return np.concatenate(ia), np.concatenate(ib)


# ---------------------------------------------------------------------------
# intersections


class CurveTable(NamedTuple):
    """Segments, full circles and arcs as rows, NaN in the columns a row's
    kind lacks.  A piece (an arc, or a segment of a field boundary) keeps
    only the points that lie on it; a curve (a full circle, or a segment of
    an arrangement) keeps every point the rules find."""

    seg: np.ndarray      # (m, 4) segment ends ax, ay, bx, by
    length: np.ndarray   # segment length, math.hypot of b - a
    circle: np.ndarray   # (m, 3) center x, y and radius of a circle or an arc
    arc: np.ndarray      # (m, 3) arc start, sweep, 1.0 if ccw else 0.0
    piece: np.ndarray    # whether the row is a piece


def curve_table(curves: Iterable[Segment | Circle | Arc], pieces: bool = False) -> CurveTable:
    """The rows of `curves`; its segments are pieces when `pieces` is true."""
    nan = (math.nan,) * 6
    rows = []
    for c in curves:
        if isinstance(c, Segment):
            rows.append((*c.a, *c.b, math.hypot(c.b[0] - c.a[0], c.b[1] - c.a[1]), *nan, pieces))
        elif isinstance(c, Circle):
            rows.append(nan[:5] + (*c.center, c.radius) + nan[:3] + (False,))
        else:
            rows.append(nan[:5] + (*c.circle.center, c.circle.radius, c.start, c.sweep(), float(c.ccw), True))
    tab = np.array(rows, dtype=float).reshape(-1, 12)
    return CurveTable(tab[:, :4], tab[:, 4], tab[:, 5:8], tab[:, 8:11], tab[:, 11] == 1.0)


def circle_table(xyr: np.ndarray) -> CurveTable:
    """Full circles, given as (m, 3) rows (x, y, r)."""
    nan = np.full((len(xyr), 4), math.nan)
    return CurveTable(nan, nan[:, 0], xyr, nan[:, :3], np.zeros(len(xyr), dtype=bool))


def intersections(a: CurveTable, ia: np.ndarray, b: CurveTable, ib: np.ndarray,
                  eps: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where row ia[k] of `a` meets row ib[k] of `b`, for every call k, at
    tolerance eps, one for every call or eps[k] per call: (the call of each
    point, the (m, 2) points, which calls overlap).

    Points come call by call, each call's in sorted() order, and a point is
    kept only when it lies on each operand that is a piece: within 2*eps of
    a segment, or within an arc's sweep.  Collinear segments that share more
    than eps, and circles coincident within eps, overlap along a continuum
    and find no point; tangencies find one.  A pair of segments, or of
    circles, is taken in tuple order of its rows, so a call finds the same
    points either way round.  Each rule is numpy arithmetic in the order of
    its scalar statement (kept as the reference in `tests/oracles.py`), with
    `math.hypot` and `math.atan2` wherever they feed a coordinate or a test,
    so a call's points do not depend on the calls batched with it."""
    n = len(ia)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (n,))
    pts = np.zeros((n, 2, 2))   # [call, slot, x/y]: up to two points a call
    ok = np.zeros((n, 2), dtype=bool)
    overlap = np.zeros(n, dtype=bool)
    seg_a, seg_b = np.isnan(a.circle[ia, 2]), np.isnan(b.circle[ib, 2])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.flatnonzero(seg_a & seg_b)
        u, v, lu, lv = a.seg[ia[k]], b.seg[ib[k]], a.length[ia[k]], b.length[ib[k]]
        swap = _lex_less(v, u)
        pts[k, 0], ok[k, 0], overlap[k] = _seg_seg(
            np.where(swap[:, None], v, u), np.where(swap, lv, lu),
            np.where(swap[:, None], u, v), np.where(swap, lu, lv), eps[k])

        k = np.flatnonzero(seg_a != seg_b)   # the segment first, either way round
        first = seg_a[k, None]
        pts[k], ok[k] = _seg_circle(np.where(first, a.seg[ia[k]], b.seg[ib[k]]),
                                    np.where(first, b.circle[ib[k]], a.circle[ia[k]]), eps[k])

        k = np.flatnonzero(~seg_a & ~seg_b)
        u, v = a.circle[ia[k]], b.circle[ib[k]]
        swap = _lex_less(v, u)[:, None]
        pts[k], ok[k], overlap[k] = _circle_circle(np.where(swap, v, u), np.where(swap, u, v), eps[k])

    # sorted(): the second point first when it is lexicographically smaller
    flip = ok.all(axis=1) & _lex_less(pts[:, 1], pts[:, 0])
    pts[flip] = pts[flip, ::-1]
    call, slot = np.nonzero(ok)
    xy = pts[call, slot]
    e = eps[call]
    on = _on_pieces(a, ia[call], xy, e) & _on_pieces(b, ib[call], xy, e)
    return call[on], xy[on], overlap


def _lex_less(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each row of u comes before the row of v in tuple order: the
    first column where they differ decides."""
    rows, col = np.arange(len(u)), (u != v).argmax(axis=1)
    return u[rows, col] < v[rows, col]


def _math(f, *cols: np.ndarray) -> np.ndarray:
    """f (a math function) of the columns, element by element."""
    return np.fromiter(map(f, *(c.tolist() for c in cols)), dtype=float, count=len(cols[0]))


def _seg_seg(s1, len1, s2, len2, eps):
    """Segments s1 x s2, rows (ax, ay, bx, by) of lengths len1 and len2, at
    tolerance eps per row: (point, found, overlap).  Segments parallel
    within eps meet where they are collinear and touch; otherwise the point
    lies on s1 at its clamped parameter."""
    (px, py, p2x, p2y), (qx, qy, q2x, q2y) = s1.T, s2.T
    rx, ry, sx, sy = p2x - px, p2y - py, q2x - qx, q2y - qy
    rxs = rx * sy - ry * sx
    qpx, qpy = qx - px, qy - py
    qpxr = qpx * ry - qpy * rx
    scale = np.maximum(np.maximum(len1, len2), 1.0)
    parallel = np.abs(rxs) <= eps * scale * scale
    # collinear: overlap iff the projections on s1 share more than eps
    collinear = parallel & (np.abs(qpxr) <= eps * scale) & (len1 > eps) & (len2 > eps)
    ux, uy = rx / len1, ry / len1
    t0 = qpx * ux + qpy * uy
    t1 = t0 + (sx * ux + sy * uy)
    lo, hi = np.where(t1 < t0, t1, t0), np.where(t1 > t0, t1, t0)   # min, max
    lo, hi = np.where(0.0 > lo, 0.0, lo), np.where(len1 < hi, len1, hi)
    overlap = collinear & (hi - lo > eps)
    touch = collinear & ~overlap & (hi - lo >= -eps)
    mid = (lo + hi) / 2.0
    t = (qpx * sy - qpy * sx) / rxs
    u = qpxr / rxs
    tol1 = eps / np.where(eps > len1, eps, len1)
    tol2 = eps / np.where(eps > len2, eps, len2)
    cross = ~parallel & (-tol1 <= t) & (t <= 1.0 + tol1) & (-tol2 <= u) & (u <= 1.0 + tol2)
    t = np.where(0.0 > t, 0.0, t)   # min(max(t, 0.0), 1.0)
    t = np.where(1.0 < t, 1.0, t)
    xy = np.stack((np.where(touch, px + mid * ux, px + t * rx), np.where(touch, py + mid * uy, py + t * ry)), axis=1)
    return xy, touch | cross, overlap


def _seg_circle(seg, circle, eps):
    """Segments x circles, rows (ax, ay, bx, by) and (x, y, r), at tolerance
    eps per row: (points, found), two slots each.  A discriminant negative
    by less than 4*A*eps*max(r, 1) grazes the circle once; clamped
    parameters move a point onto the segment; a second root within eps of
    the first is dropped."""
    ax, ay, bx, by = seg.T
    vx, vy, vr = circle.T
    dx, dy = bx - ax, by - ay
    fx, fy = ax - vx, ay - vy
    A = dx * dx + dy * dy
    B = 2.0 * (fx * dx + fy * dy)
    C = fx * fx + fy * fy - vr * vr
    disc = B * B - 4.0 * A * C
    tol = (eps / np.sqrt(A))[:, None]
    sq = np.sqrt(disc)
    graze = (disc < 0.0) & (disc > -4.0 * A * eps * np.maximum(vr, 1.0))
    t = np.stack((np.where(disc < 0.0, -B / (2.0 * A), (-B - sq) / (2.0 * A)), (-B + sq) / (2.0 * A)), axis=1)
    ok = np.stack(((disc >= 0.0) | graze, disc >= 0.0), axis=1) & (A != 0.0)[:, None] & (-tol <= t) & (t <= 1.0 + tol)
    t = np.where(0.0 > t, 0.0, t)   # min(max(t, 0.0), 1.0)
    t = np.where(1.0 < t, 1.0, t)
    pts = np.stack((ax[:, None] + t * dx[:, None], ay[:, None] + t * dy[:, None]), axis=2)
    two = np.flatnonzero(ok.all(axis=1))
    gap = pts[two, 0] - pts[two, 1]
    ok[two, 1] = _math(math.hypot, gap[:, 0], gap[:, 1]) > eps[two]
    return pts, ok


def _circle_circle(c1, c2, eps):
    """Circles c1 x c2, rows (x, y, r), at tolerance eps per row: (points,
    found, overlap), two slots each.  Circles apart or nested by at most eps
    touch once; so do circles whose common chord is within eps of a
    point."""
    n = len(c1)
    pts = np.zeros((n, 2, 2))
    (x1, y1, r1), (x2, y2, r2) = c1.T, c2.T
    dx, dy = x2 - x1, y2 - y1
    d = _math(math.hypot, dx, dy)
    overlap = (d <= eps) & (np.abs(r1 - r2) <= eps)
    hit = (d > eps) & (d <= r1 + r2 + eps) & (d >= np.abs(r1 - r2) - eps)
    ux, uy = dx / d, dy / d
    # nested, at most eps apart: touch midway between the circles' nearest
    # points on the line of centers (the chord formula would put the point
    # past r1 by about r1*gap/d, far off both circles for small d)
    nested = d < np.abs(r1 - r2)
    s = np.where(r1 > r2, 1.0, -1.0)
    a = np.where(nested, (s * r1 + d + s * r2) / 2.0, (d * d + r1 * r1 - r2 * r2) / (2.0 * d))
    h2 = r1 * r1 - a * a
    mx, my = x1 + a * ux, y1 + a * uy
    one = nested | (h2 <= eps * eps * np.maximum(r1, 1.0))
    h = np.sqrt(h2)
    pts[:, 0] = np.stack((np.where(one, mx, mx - h * uy), np.where(one, my, my + h * ux)), axis=1)
    pts[:, 1] = np.stack((mx + h * uy, my - h * ux), axis=1)
    return pts, np.stack((hit, hit & ~one), axis=1), overlap


def _on_pieces(tab: CurveTable, row: np.ndarray, xy: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Whether each point xy[k] lies on row[k] of `tab`, at tolerance eps[k]:
    within 2*eps of a segment piece, or at a bearing within 2*eps/max(r, eps)
    of an arc's sweep from its center; always for a curve."""
    piece = tab.piece[row]
    on = ~piece
    if on.all():
        return on
    seg = np.isnan(tab.circle[row, 2])
    k = np.flatnonzero(piece & seg)   # a segment with a point is not of zero length
    ax, ay, bx, by = tab.seg[row[k]].T
    px, py = xy[k, 0], xy[k, 1]
    dx, dy = bx - ax, by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
    on[k] = _math(math.hypot, px - (ax + t * dx), py - (ay + t * dy)) <= 2.0 * eps[k]
    k = np.flatnonzero(piece & ~seg)
    (cx, cy, r), (start, sweep, ccw) = tab.circle[row[k]].T, tab.arc[row[k]].T
    px, py = xy[k, 0] - cx, xy[k, 1] - cy
    ang = _math(math.atan2, py, px)
    tol = 2.0 * eps[k] / np.maximum(r, eps[k])
    off = _norm_angle_np(np.where(ccw == 1.0, ang - start, start - ang))
    on[k] = ((px != 0.0) | (py != 0.0)) & ((off <= sweep + tol) | (off >= TWO_PI - tol))
    return on


def orientation(p: Point, q: Point, r: Point) -> int:
    """Exact sign of the turn p -> q -> r: 1 counter-clockwise, -1 clockwise,
    0 collinear.  Floats decide when the determinant clears their rounding
    bound; otherwise it is evaluated in exact rationals."""
    left = (q[0] - p[0]) * (r[1] - p[1])
    right = (q[1] - p[1]) * (r[0] - p[0])
    det = left - right
    if abs(det) <= 1e-15 * (abs(left) + abs(right)):
        px, py, qx, qy, rx, ry = map(Fraction, (*p, *q, *r))
        det = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (det > 0) - (det < 0)


# ---------------------------------------------------------------------------
# occlusion predicate


def segment_blocks_triangle(blocker: Segment, apex: Point, base: Segment, eps: float) -> bool:
    """Whether `blocker` enters the open triangle (apex, base.a, base.b).

    Touching the boundary only (shared endpoints, grazing along an edge) does
    not count.  A degenerate (zero-area) triangle has no interior and is never
    blocked.
    """
    ax, ay = apex
    cross = (base.a[0] - ax) * (base.b[1] - ay) - (base.a[1] - ay) * (base.b[0] - ax)
    if cross == 0.0:
        return False
    # orient edge normals inward from the winding; per-edge dot products against
    # the opposite vertex cancel to zero on sliver triangles
    sign = 1.0 if cross > 0.0 else -1.0
    verts = (apex, base.a, base.b)
    px, py = blocker.a
    qx, qy = blocker.b
    s_lo, s_hi = 0.0, 1.0
    planes = []
    for i in range(3):
        ux, uy = verts[i]
        vx, vy = verts[(i + 1) % 3]
        nx, ny = sign * (uy - vy), sign * (vx - ux)
        nlen = math.hypot(nx, ny)
        if nlen == 0.0:
            return False
        planes.append((ux, uy, nx, ny, nlen))
        dp = nx * (px - ux) + ny * (py - uy)
        dq = nx * (qx - ux) + ny * (qy - uy)
        if dp < 0.0 and dq < 0.0:
            return False
        if dp < 0.0 <= dq:
            s_lo = max(s_lo, dp / (dp - dq))
        elif dq < 0.0 <= dp:
            s_hi = min(s_hi, dp / (dp - dq))
    if s_hi - s_lo <= 1e-12:
        return False
    sm = (s_lo + s_hi) / 2.0
    mx = px + sm * (qx - px)
    my = py + sm * (qy - py)
    for ux, uy, nx, ny, nlen in planes:
        if nx * (mx - ux) + ny * (my - uy) <= eps * nlen:
            return False
    return True


def _blocks_triangle_np(ax, ay, sx, sy, ex, ey, bax, bay, bbx, bby, eps):
    """Elementwise segment_blocks_triangle: blocker (ba, bb) enters the open
    triangle (apex, s, e), which spans the full shape.  Edge lengths and the
    midpoint tests run only where the plane tests pass."""
    sgn = np.sign((sx - ax) * (ey - ay) - (sy - ay) * (ex - ax))
    # degenerate slivers never block
    out = sgn != 0.0
    vx, vy = (ax, sx, ex), (ay, sy, ey)
    lo, hi = np.zeros(out.shape), np.ones(out.shape)
    planes = []
    for i in range(3):
        ux, uy = vx[i], vy[i]
        nx = sgn * (uy - vy[(i + 1) % 3])
        ny = sgn * (vx[(i + 1) % 3] - ux)
        planes += [ux, uy, nx, ny]
        dp = nx * (bax - ux) + ny * (bay - uy)
        dq = nx * (bbx - ux) + ny * (bby - uy)
        out &= (dp >= 0.0) | (dq >= 0.0)
        den = dp - dq
        at = dp / np.where(den != 0.0, den, 1.0)
        lo = np.where((dp < 0.0) & (dq >= 0.0), np.maximum(lo, at), lo)
        hi = np.where((dq < 0.0) & (dp >= 0.0), np.minimum(hi, at), hi)
    out &= hi - lo > 1e-12
    # each array at the elements left, a smaller one first copied out to the full shape
    k = np.flatnonzero(out)
    bax, bay, bbx, bby, lo, hi, *planes = (
        v if np.ndim(v) == 0 else (v if np.shape(v) == out.shape else np.positive(v, out=np.empty(out.shape))).take(k)
        for v in (bax, bay, bbx, bby, lo, hi, *planes))
    sm = (lo + hi) / 2.0
    mx = bax + sm * (bbx - bax)
    my = bay + sm * (bby - bay)
    np.put(out, k, np.logical_and.reduce([nx * (mx - ux) + ny * (my - uy) > eps * np.hypot(nx, ny)
                                          for ux, uy, nx, ny in (planes[i:i + 4] for i in (0, 4, 8))]))
    return out


# ---------------------------------------------------------------------------
# regions


@dataclass
class Region:
    """Area bounded by loops of segment/arc pieces, each oriented with the
    area on its left; holes and several connected components are just more
    loops."""

    loops: list[list[Piece]]

    def pieces(self) -> Iterator[Piece]:
        for loop in self.loops:
            yield from loop

    def vertices(self) -> list[Point]:
        out = []
        for loop in self.loops:
            for piece in loop:
                out.append(piece.a if isinstance(piece, Segment) else piece.start_point())
        return out

    def is_empty(self) -> bool:
        return not self.loops


def loop_bbox_diameter(loop: Sequence[Piece]) -> float:
    xs: list[float] = []
    ys: list[float] = []
    for piece in loop:
        for pt in _piece_sample_points(piece):
            xs.append(pt[0])
            ys.append(pt[1])
    if not xs:
        return 0.0
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def _piece_sample_points(piece: Piece) -> list[Point]:
    if isinstance(piece, Segment):
        return [piece.a, piece.b]
    return [piece.start_point(), piece.midpoint(), piece.end_point()]


# ---------------------------------------------------------------------------
# boundary arrangement: build Regions from candidate curves + membership tests

Field = tuple[Iterable[Curve], Callable[[np.ndarray], np.ndarray], float, float]


def region_from_curves(
    curves: Iterable[Curve],
    inside: Callable[[np.ndarray], np.ndarray],
    *,
    offset: float,
    snap: float,
) -> Region:
    """Extract the boundary of {p : inside(p)} from a set of candidate curves.

    The true region boundary must be covered by the given curves.  Curves are
    split at mutual intersections found at tolerance `snap`; a sub-piece is
    kept iff `inside` disagrees across it (sampled `offset` away on each side),
    oriented with the inside on the left; kept pieces are chained into loops
    with endpoints snapped to `snap`.  Loops smaller than 10x snap across are discarded as slivers.
    `inside` takes every probe at once, an (m, 2) array, and returns m bools.
    The one-field call of `regions_from_curves`.
    """
    return regions_from_curves([(curves, inside, offset, snap)])[0]


def regions_from_curves(fields: Sequence[Field]) -> list[Region]:
    """`region_from_curves` of each field (curves, inside, offset, snap),
    built in one array pass over the pieces of every field: cut parameters,
    the split at merged cuts, piece ends and probe frames, the piece dedupe
    and the votes.  One `intersections` call (`_cuts`) takes the curve pairs
    of every field, each at its field's snap; each field makes its own one
    `inside` call, on its slice of the probes.  `Segment`s and `Arc`s are
    made only for the pieces kept, and chained into loops field by field."""
    out = []
    for kept, (_, _, _, snap) in zip(_classified_pieces(fields), fields):
        loops = _chain_loops(kept, snap)
        out.append(Region([lp for lp in loops if loop_bbox_diameter(lp) >= 10.0 * snap]))
    return out


def _classified_pieces(fields: Sequence[Field]) -> list[list[Piece]]:
    """Per field, the pieces its vote keeps, in piece order, each oriented
    with the inside on its left.  Every step repeats the scalar piece loops
    (kept in `tests/oracles.py`) in their arithmetic, with `math` cos, sin,
    hypot and atan2, so a field's pieces do not depend on the fields built
    with it.  The cuts of every field come from one `_cuts` call, each
    field's pairs at its own snap."""
    curves = [_dedupe_curves(list(cs), snap) for cs, _, _, snap in fields]
    first = np.cumsum([0] + [len(cs) for cs in curves])
    curves = [c for cs in curves for c in cs]
    table = curve_table(curves)
    snap, offset = (np.array([f[k] for f in fields], dtype=float) for k in (3, 2))
    owner = np.repeat(np.arange(len(fields)), np.diff(first))   # the field of each curve
    curve, t0, t1 = _split(table, snap[owner], *_cuts(table, first, snap))
    field = owner[curve]

    seg = np.isnan(table.circle[curve, 2])
    ends, mid, sweep = _piece_ends(table, curve, t0, t1)
    length = np.full(len(curve), math.nan)
    length[seg] = _math(math.hypot, ends[seg, 2] - ends[seg, 0], ends[seg, 3] - ends[seg, 1])
    # a segment with coincident ends has no direction and never votes
    live = np.flatnonzero(~_duplicates(ends, mid, field, np.maximum(snap, 1e-12)) & (length != 0.0))
    curve, seg, ends, t0, t1, field = curve[live], seg[live], ends[live], t0[live], t1[live], field[live]
    probes = _probes(table.circle[curve], seg, ends, length[live], t0, sweep[live], offset[field])

    at = np.searchsorted(field, np.arange(len(fields) + 1)) * 6
    side = np.empty(len(probes), dtype=bool)
    for (_, inside, _, _), lo, hi in zip(fields, at.tolist(), at[1:].tolist()):
        side[lo:hi] = np.asarray(inside(probes[lo:hi]), dtype=bool)
    side = side.reshape(-1, 3, 2)
    votes = (side[..., 0].astype(int) - side[..., 1]).sum(axis=1)

    out: list[list[Piece]] = [[] for _ in fields]
    k = np.flatnonzero(np.abs(votes) >= 2)
    for f, c, s, fwd, (x0, y0, x1, y1), a0, a1 in zip(field[k].tolist(), curve[k].tolist(), seg[k].tolist(),
                                                     (votes[k] > 0).tolist(), ends[k].tolist(), t0[k].tolist(),
                                                     t1[k].tolist()):
        if s:
            out[f].append(Segment((x0, y0), (x1, y1)) if fwd else Segment((x1, y1), (x0, y0)))
        else:
            out[f].append(Arc(curves[c], a0, a1, True) if fwd else Arc(curves[c], a1, a0, False))
    return out


def _piece_ends(table: CurveTable, curve: np.ndarray, t0: np.ndarray, t1: np.ndarray):
    """Pieces (curve, t0, t1) of the table's curves, each a segment from
    point_at(t0) to point_at(t1) or a counter-clockwise arc from angle t0 to
    t1: their (m, 4) ends x0, y0, x1, y1, (m, 2) midpoints and, NaN for a
    segment, sweeps."""
    ends, mid, sweep = np.empty((len(curve), 4)), np.empty((len(curve), 2)), np.full(len(curve), math.nan)
    seg = np.isnan(table.circle[curve, 2])
    k = np.flatnonzero(seg)
    ax, ay, bx, by = table.seg[curve[k]].T
    dx, dy = bx - ax, by - ay
    ends[k] = np.stack((ax + t0[k] * dx, ay + t0[k] * dy, ax + t1[k] * dx, ay + t1[k] * dy), axis=1)
    mid[k] = (ends[k, :2] + ends[k, 2:]) / 2.0
    k = np.flatnonzero(~seg)
    cx, cy, r = table.circle[curve[k]].T
    sw = _norm_angle_np(t1[k] - t0[k])
    sweep[k] = np.where(sw == 0.0, TWO_PI, sw)
    ends[k] = np.stack(_circle_points(cx, cy, r, t0[k]) + _circle_points(cx, cy, r, t1[k]), axis=1)
    mid[k] = np.stack(_circle_points(cx, cy, r, t0[k] + sweep[k] / 2.0), axis=1)
    return ends, mid, sweep


def _duplicates(ends: np.ndarray, mid: np.ndarray, field: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether each piece repeats an earlier piece of its field: the same
    ends, in tuple order, and midpoint, rounded to multiples of the field's
    q, as `_first_by_key` rounds them."""
    swap = _lex_less(ends[:, 2:], ends[:, :2])[:, None]
    key = np.concatenate((np.where(swap, ends[:, 2:], ends[:, :2]), np.where(swap, ends[:, :2], ends[:, 2:]), mid),
                         axis=1)
    # np.rint rounds half to even, as round() does; adding 0.0 makes -0.0
    # +0.0, which round() does not tell apart
    key = np.rint(key / q[field, None]) + 0.0
    order = np.lexsort((*key.T[::-1], field))
    dup = np.zeros(len(field), dtype=bool)
    dup[order[1:]] = (field[order[1:]] == field[order[:-1]]) & (key[order[1:]] == key[order[:-1]]).all(axis=1)
    return dup


def _probes(circle: np.ndarray, seg: np.ndarray, ends: np.ndarray, length: np.ndarray, t0: np.ndarray,
            sweep: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """The six probes of each piece, offset to the left and the right of it
    at its three stations: (6m, 2), piece by piece, station by station, left
    first."""
    px, py, nx, ny = (np.empty((len(seg), 3)) for _ in range(4))
    frac = np.array((0.25, 0.5, 0.75))   # the stations, as fractions of the length or sweep
    k = np.flatnonzero(seg)
    (ax, ay, bx, by), L = ends[k].T, length[k, None]
    dx, dy = (bx - ax)[:, None], (by - ay)[:, None]
    px[k], py[k] = ax[:, None] + frac * dx, ay[:, None] + frac * dy
    nx[k], ny[k] = -(dy / L), dx / L
    k = np.flatnonzero(~seg)
    cx, cy, r = (np.repeat(col, 3) for col in circle[k].T)
    x, y = _circle_points(cx, cy, r, (t0[k, None] + frac * sweep[k, None]).ravel())
    rx, ry = x - cx, y - cy
    rr = _math(math.hypot, rx, ry)
    px[k], py[k] = x.reshape(-1, 3), y.reshape(-1, 3)
    nx[k], ny[k] = -(rx / rr).reshape(-1, 3), -(ry / rr).reshape(-1, 3)
    off = offset[:, None]
    left = np.stack((px + off * nx, py + off * ny), axis=2)
    right = np.stack((px - off * nx, py - off * ny), axis=2)
    return np.stack((left, right), axis=2).reshape(-1, 2)


def _circle_points(cx, cy, r, ang) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise `Circle.point_at`, with math.cos and math.sin."""
    return cx + r * _math(math.cos, ang), cy + r * _math(math.sin, ang)


def _cuts(table: CurveTable, first: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the table's curves are cut, as (curve, parameter) per cut: at
    their crossings with every other curve of their field and, where two
    segments overlap, at the other's ends.  Field f holds rows first[f] to
    first[f + 1] and meets at tolerance eps[f].  The pairs i < j of every
    field run as one `intersections` call, field by field; each curve's
    cuts come in the order of its pairs, unsorted, as the field's own call
    would give them."""
    pairs = [np.array(np.triu_indices(hi - lo, 1)) + lo for lo, hi in zip(first.tolist(), first[1:].tolist())]
    i, j = np.concatenate([np.zeros((2, 0), dtype=np.intp)] + pairs, axis=1)
    call, xy, overlap = intersections(table, i, table, j, np.repeat(eps, [p.shape[1] for p in pairs]))
    k = np.flatnonzero(overlap)
    # a crossing cuts i, then j; an overlap cuts i twice, at j's ends, then j
    # twice, at i's
    curve = np.concatenate((np.stack((i[call], j[call]), axis=1).ravel(),
                            np.repeat(np.stack((i[k], j[k]), axis=1), 2, axis=1).ravel()))
    pts = np.concatenate((np.repeat(xy, 2, axis=0),
                          np.concatenate((table.seg[j[k]], table.seg[i[k]]), axis=1).reshape(-1, 2)))
    t = np.empty(len(curve))
    seg = np.isnan(table.circle[curve, 2])
    k = np.flatnonzero(seg)
    ax, ay, bx, by = table.seg[curve[k]].T
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        u = ((pts[k, 0] - ax) * dx + (pts[k, 1] - ay) * dy) / L2
    u = np.where(0.0 > u, 0.0, u)   # min(max(u, 0.0), 1.0)
    t[k] = np.where(L2 == 0.0, 0.0, np.where(1.0 < u, 1.0, u))
    k = np.flatnonzero(~seg)
    cx, cy = table.circle[curve[k], :2].T
    t[k] = _norm_angle_np(_math(math.atan2, pts[k, 1] - cy, pts[k, 0] - cx))
    return curve, t


def _split(table: CurveTable, eps: np.ndarray, cut: np.ndarray, t: np.ndarray):
    """The pieces the cuts (curve, parameter) split the table's curves into,
    as (curve, t0, t1) arrays in curve order, then along each curve; eps is
    per curve.  A curve's cuts merge at tol = max(eps/L, 1e-12) for a
    segment of length L, from 0 to 1 (none if L <= eps), and at
    max(eps/max(r, eps), 1e-12) for a circle of radius r, in angles (a
    circle's cuts come normalized): the last within tol of the first across
    2 pi is dropped, no cut leaves 0 and pi, and one cut a second opposite
    it."""
    seg = np.isnan(table.circle[:, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        tol = np.maximum(np.where(seg, eps / table.length, eps / np.maximum(table.circle[:, 2], eps)), 1e-12)
    gone = seg & ~(table.length > eps)
    ends = np.flatnonzero(seg & ~gone)
    # 0 and 1 first: the first of equal values stands for them, as in a set
    c = np.concatenate((ends, ends, cut))
    v = np.concatenate((np.zeros(len(ends)), np.ones(len(ends)), t))
    c, v = _sorted_cuts(c[~gone[c]], v[~gone[c]])
    c, v = _merge(c, v, tol)
    head, tail = _runs(c)
    v[tail[seg[c[tail]]]] = 1.0   # a segment's last cut is its end
    # circles: drop a last cut within tol of the first, across 2 pi
    circ = ~seg[c[head]]
    wrap = circ & (tail > head) & (TWO_PI - (v[tail] - v[head]) <= tol[c[tail]])
    drop = np.zeros(len(c), dtype=bool)
    drop[tail[wrap]] = True
    one = head[circ & (tail - head == wrap)]   # a circle left with one cut
    bare = np.setdiff1d(np.flatnonzero(~seg), c)
    c = np.concatenate((c[~drop], c[one], bare, bare))
    v = np.concatenate((v[~drop], _norm_angle_np(v[one] + math.pi), np.zeros(len(bare)), np.full(len(bare), math.pi)))
    order = np.lexsort((v, c))
    c, v = c[order], v[order]
    head, tail = _runs(c)
    nxt = np.arange(1, len(c) + 1)
    nxt[tail] = head   # a circle's last arc closes on its first cut
    last = np.zeros(len(c), dtype=bool)
    last[tail] = True
    k = np.flatnonzero(~(last & seg[c]))
    return c[k], v[k], v[nxt[k]]


def _sorted_cuts(c: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of each curve, in ascending order, with the
    first of equal values (0.0 and -0.0 among them) standing for them."""
    order = np.lexsort((v, c))
    c, v = c[order], v[order]
    new = np.ones(len(c), dtype=bool)
    new[1:] = (c[1:] != c[:-1]) | (v[1:] != v[:-1])
    return c[new], v[new]


def _merge(c: np.ndarray, v: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values kept of each curve's distinct ascending values, walked in
    order: each is dropped within tol[curve] of the last one kept."""
    close = np.zeros(len(v), dtype=bool)
    close[1:] = (c[1:] == c[:-1]) & (v[1:] - v[:-1] <= tol[c[1:]])
    keep = ~close
    # a value close to the one before it is dropped when that one is kept,
    # so only a run of three or more close values needs the walk
    start = np.flatnonzero(keep)
    stop = np.append(start[1:], len(v))
    walk = stop - start > 2
    for a, b in zip(start[walk].tolist(), stop[walk].tolist()):
        run, lim = v[a:b].tolist(), float(tol[c[a]])
        last = run[0]
        for k, x in enumerate(run[1:], a + 1):
            if x - last > lim:
                keep[k], last = True, x
    return c[keep], v[keep]


def _runs(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each run of equal values of c."""
    edge = np.flatnonzero(c[1:] != c[:-1]) + 1
    if not len(c):
        return edge, edge
    return np.concatenate(([0], edge)), np.concatenate((edge - 1, [len(c) - 1]))


def _piece_endpoints(piece: Piece) -> tuple[Point, Point]:
    if isinstance(piece, Segment):
        return piece.a, piece.b
    return piece.start_point(), piece.end_point()


def _first_by_key(items: list, snap: float, key: Callable) -> list:
    """The items in order, each dropped when an earlier one's key(item)
    numbers round to the same multiples of snap."""
    q = max(snap, 1e-12)
    seen = set()
    out = []
    for item in items:
        k = tuple(round(v / q) for v in key(item))
        if k not in seen:
            seen.add(k)
            out.append(item)
    return out


def _dedupe_curves(curves: list[Curve], snap: float) -> list[Curve]:
    # a segment gives 4 numbers and a circle 3, so the two never share a key
    def key(c: Curve) -> list[float]:
        if isinstance(c, Segment):
            return [v for pt in sorted([c.a, c.b]) for v in pt]
        return [c.center[0], c.center[1], c.radius]

    return _first_by_key(curves, snap, key)


class _VertexIndex:
    """Snap nearby endpoints to shared vertex ids via a spatial hash."""

    def __init__(self, snap: float):
        self.snap = max(snap, 1e-12)
        self.cells: dict[tuple[int, int], list[int]] = {}
        self.points: list[Point] = []

    def key(self, p: Point) -> tuple[int, int]:
        return (int(math.floor(p[0] / self.snap)), int(math.floor(p[1] / self.snap)))

    def lookup(self, p: Point) -> int:
        kx, ky = self.key(p)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for idx in self.cells.get((kx + dx, ky + dy), ()):
                    q = self.points[idx]
                    if abs(q[0] - p[0]) <= self.snap and abs(q[1] - p[1]) <= self.snap:
                        return idx
        idx = len(self.points)
        self.points.append(p)
        self.cells.setdefault((kx, ky), []).append(idx)
        return idx


def _chain_loops(pieces: list[Piece], snap: float) -> list[list[Piece]]:
    vi = _VertexIndex(snap)
    starts: dict[int, list[int]] = {}
    enters: dict[int, list[int]] = {}
    ends: list[tuple[int, int]] = []
    for i, pc in enumerate(pieces):
        a, b = _piece_endpoints(pc)
        va, vb = vi.lookup(a), vi.lookup(b)
        starts.setdefault(va, []).append(i)
        enters.setdefault(vb, []).append(i)
        ends.append((va, vb))

    # a piece that no kept piece leads into, or out of, lies on no loop: a
    # spur left by a piece shorter than the classification offset.  Pruned
    # first, it cannot divert a chain off the loop it touches.
    used = [False] * len(pieces)
    spurs = [i for i, (va, vb) in enumerate(ends) if va not in enters or vb not in starts]
    while spurs:
        i = spurs.pop()
        if used[i]:
            continue
        used[i] = True
        va, vb = ends[i]
        if all(used[j] for j in starts[va]):
            spurs.extend(enters.get(va, ()))
        if all(used[j] for j in enters[vb]):
            spurs.extend(starts.get(vb, ()))
    loops: list[list[Piece]] = []
    for i0 in range(len(pieces)):
        if used[i0]:
            continue
        used[i0] = True
        chain, v = [i0], ends[i0][1]
        while v != ends[i0][0]:
            nxt = next((j for j in starts.get(v, ()) if not used[j]), None)
            if nxt is None:
                break  # unclosed chains are eps debris; drop them
            used[nxt] = True
            chain.append(nxt)
            v = ends[nxt][1]
        else:
            loops.append([pieces[i] for i in chain])
    return loops
