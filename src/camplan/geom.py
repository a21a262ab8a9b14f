"""Planar geometry kernel: angles, segments, circles, arcs and boundary regions.

Everything downstream (placement fields, sweeps, the verifier) sits on the
predicates in this module.  All comparisons are tolerance based; there is no
exact arithmetic.  Containment is boundary inclusive throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Point = tuple[float, float]

TWO_PI = 2.0 * math.pi

# Absolute fallbacks; scene-scaled values come from `Tolerance` below.
EPS = 1e-9
EPS_ANG = 1e-12


class DegenerateError(ValueError):
    """Raised when an operation has no meaningful answer (coincident points etc.)."""


@dataclass(frozen=True, slots=True)
class Tolerance:
    """Scene-scaled comparison tolerances used by every predicate."""

    eps_len: float
    eps_ang: float = EPS_ANG

    @staticmethod
    def for_diameter(diameter: float) -> "Tolerance":
        return Tolerance(eps_len=1e-9 * max(diameter, 1.0))


class _Overlap:
    """Marker for collinear-segment / identical-circle intersection results."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "OVERLAP"


#: Returned by intersect() when the inputs overlap along a continuum.
OVERLAP = _Overlap()


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


def wrap_pi(a: float) -> float:
    """Wrap to (-pi, pi]."""
    r = math.fmod(a, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    elif r > math.pi:
        r -= TWO_PI
    return r


def bearing(p: Point, q: Point, eps: float = EPS) -> float:
    """Bearing of q as seen from p, in [0, 2*pi).

    Raises DegenerateError when the points coincide within eps.
    """
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    if math.hypot(dx, dy) <= eps:
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


# ---------------------------------------------------------------------------
# intersections


def _seg_seg_intersections(s1: Segment, s2: Segment, eps: float) -> list[Point] | _Overlap:
    p, r = s1.a, (s1.b[0] - s1.a[0], s1.b[1] - s1.a[1])
    q, s = s2.a, (s2.b[0] - s2.a[0], s2.b[1] - s2.a[1])
    rxs = r[0] * s[1] - r[1] * s[0]
    qp = (q[0] - p[0], q[1] - p[1])
    qpxr = qp[0] * r[1] - qp[1] * r[0]
    len1 = math.hypot(*r)
    len2 = math.hypot(*s)
    scale = max(len1, len2, 1.0)
    if abs(rxs) <= eps * scale * scale:
        # parallel; collinear overlap reported as degenerate
        if abs(qpxr) > eps * scale:
            return []
        # collinear: overlap iff projections intersect in more than a point
        if len1 <= eps or len2 <= eps:
            return []
        ux, uy = r[0] / len1, r[1] / len1
        t0 = (q[0] - p[0]) * ux + (q[1] - p[1]) * uy
        t1 = t0 + (s[0] * ux + s[1] * uy)
        lo, hi = min(t0, t1), max(t0, t1)
        lo = max(lo, 0.0)
        hi = min(hi, len1)
        if hi - lo > eps:
            return OVERLAP
        if hi - lo >= -eps:
            t = (lo + hi) / 2.0
            return [(p[0] + t * ux, p[1] + t * uy)]
        return []
    t = (qp[0] * s[1] - qp[1] * s[0]) / rxs
    u = qpxr / rxs
    tol1 = eps / max(len1, eps)
    tol2 = eps / max(len2, eps)
    if -tol1 <= t <= 1.0 + tol1 and -tol2 <= u <= 1.0 + tol2:
        t = min(max(t, 0.0), 1.0)
        return [s1.point_at(t)]
    return []


def _circle_circle_intersections(c1: Circle, c2: Circle, eps: float) -> list[Point] | _Overlap:
    dx = c2.center[0] - c1.center[0]
    dy = c2.center[1] - c1.center[1]
    d = math.hypot(dx, dy)
    if d <= eps and abs(c1.radius - c2.radius) <= eps:
        return OVERLAP
    if d <= eps:
        return []
    if d > c1.radius + c2.radius + eps:
        return []
    if d < abs(c1.radius - c2.radius) - eps:
        return []
    ux, uy = dx / d, dy / d
    if d < abs(c1.radius - c2.radius):
        # nested, at most eps apart: touch midway between the circles' nearest
        # points on the line of centers (the chord formula below would put the
        # point past r1 by about r1*gap/d, far off both circles for small d)
        s = 1.0 if c1.radius > c2.radius else -1.0
        a = (s * c1.radius + d + s * c2.radius) / 2.0
        return [(c1.center[0] + a * ux, c1.center[1] + a * uy)]
    a = (d * d + c1.radius * c1.radius - c2.radius * c2.radius) / (2.0 * d)
    h2 = c1.radius * c1.radius - a * a
    mx = c1.center[0] + a * ux
    my = c1.center[1] + a * uy
    if h2 <= eps * eps * max(c1.radius, 1.0):
        return [(mx, my)]  # tangency: single touch point
    h = math.sqrt(max(h2, 0.0))
    return [(mx - h * uy, my + h * ux), (mx + h * uy, my - h * ux)]


def _seg_circle_intersections(seg: Segment, c: Circle, eps: float) -> list[Point]:
    ax, ay = seg.a
    dx, dy = seg.b[0] - ax, seg.b[1] - ay
    fx, fy = ax - c.center[0], ay - c.center[1]
    A = dx * dx + dy * dy
    if A == 0.0:
        return []
    B = 2.0 * (fx * dx + fy * dy)
    C = fx * fx + fy * fy - c.radius * c.radius
    disc = B * B - 4.0 * A * C
    L = math.sqrt(A)
    tol = eps / L
    if disc < 0.0:
        # allow near tangency
        if disc > -4.0 * A * eps * max(c.radius, 1.0):
            t = -B / (2.0 * A)
            if -tol <= t <= 1.0 + tol:
                return [seg.point_at(min(max(t, 0.0), 1.0))]
        return []
    sq = math.sqrt(disc)
    ts = [(-B - sq) / (2.0 * A), (-B + sq) / (2.0 * A)]
    out: list[Point] = []
    for t in ts:
        if -tol <= t <= 1.0 + tol:
            out.append(seg.point_at(min(max(t, 0.0), 1.0)))
    if len(out) == 2 and math.dist(out[0], out[1]) <= eps:
        out = out[:1]
    return out


def intersect(a: Curve, b: Curve, eps: float = EPS) -> list[Point] | _Overlap:
    """Intersection points of two primitives, sorted lexicographically (x, then y).

    Collinear segment overlap and identical circles return OVERLAP instead of a
    point list so callers can handle the degeneracy explicitly.  Tangencies
    return a single point.
    """
    if isinstance(a, Segment) and isinstance(b, Segment):
        # canonical argument order makes the result bit-identical under swap
        if (b.a, b.b) < (a.a, a.b):
            a, b = b, a
        res = _seg_seg_intersections(a, b, eps)
    elif isinstance(a, Circle) and isinstance(b, Circle):
        if (b.center, b.radius) < (a.center, a.radius):
            a, b = b, a
        res = _circle_circle_intersections(a, b, eps)
    elif isinstance(a, Segment) and isinstance(b, Circle):
        res = _seg_circle_intersections(a, b, eps)
    elif isinstance(a, Circle) and isinstance(b, Segment):
        res = _seg_circle_intersections(b, a, eps)
    else:  # pragma: no cover
        raise TypeError(f"unsupported intersection: {type(a)} x {type(b)}")
    if res is OVERLAP:
        return OVERLAP
    return sorted(res)


def piece_intersections(p1: Piece, p2: Piece, eps: float = EPS) -> list[Point]:
    """Intersection points of two boundary pieces (arcs restricted to their sweep)."""
    c1 = p1 if isinstance(p1, Segment) else p1.circle
    c2 = p2 if isinstance(p2, Segment) else p2.circle
    res = intersect(c1, c2, eps)
    if res is OVERLAP:
        return []
    return [pt for pt in res if _on_piece(pt, p1, eps) and _on_piece(pt, p2, eps)]


def _on_piece(pt: Point, piece: Piece, eps: float) -> bool:
    if isinstance(piece, Segment):
        return point_segment_distance(pt, piece) <= 2.0 * eps
    c = piece.circle
    d = math.hypot(pt[0] - c.center[0], pt[1] - c.center[1])
    if d == 0.0:
        return False
    ang = math.atan2(pt[1] - c.center[1], pt[0] - c.center[0])
    tol = 2.0 * eps / max(c.radius, eps)
    return piece.angle_inside(ang, tol)


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


def segment_blocks_triangle(blocker: Segment, apex: Point, base: Segment, eps: float = EPS) -> bool:
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
# boundary arrangement: build a Region from candidate curves + a membership test


def region_from_curves(
    curves: Iterable[Curve],
    inside: Callable[[np.ndarray], np.ndarray],
    *,
    offset: float,
    snap: float,
    eps: float = EPS,
) -> Region:
    """Extract the boundary of {p : inside(p)} from a set of candidate curves.

    The true region boundary must be covered by the given curves.  Curves are
    split at mutual intersections; a sub-piece is kept iff `inside` disagrees
    across it (sampled `offset` away on each side), oriented with the inside on
    the left; kept pieces are chained into loops with endpoints snapped to
    `snap`.  Loops smaller than 10x snap across are discarded as slivers.
    `inside` takes every probe at once, an (m, 2) array, and returns m bools.
    """
    curves = _dedupe_curves(list(curves), snap)
    cuts: list[list[float]] = [[] for _ in curves]
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            res = intersect(curves[i], curves[j], eps)
            if res is OVERLAP:
                # split each at the other's endpoints for a clean arrangement
                assert isinstance(curves[i], Segment) and isinstance(curves[j], Segment)
                for pt in (curves[j].a, curves[j].b):
                    cuts[i].append(_curve_param(curves[i], pt))
                for pt in (curves[i].a, curves[i].b):
                    cuts[j].append(_curve_param(curves[j], pt))
                continue
            for pt in res:
                cuts[i].append(_curve_param(curves[i], pt))
                cuts[j].append(_curve_param(curves[j], pt))

    pieces: list[Piece] = []
    for curve, ts in zip(curves, cuts):
        pieces.extend(_split_curve(curve, ts, eps))
    pieces = _dedupe_pieces(pieces, snap)

    kept = [pc for pc in _classify_pieces(pieces, inside, offset) if pc is not None]
    loops = _chain_loops(kept, snap)
    loops = [lp for lp in loops if loop_bbox_diameter(lp) >= 10.0 * snap]
    return Region(loops)


def _curve_param(curve: Curve, pt: Point) -> float:
    if isinstance(curve, Segment):
        dx = curve.b[0] - curve.a[0]
        dy = curve.b[1] - curve.a[1]
        L2 = dx * dx + dy * dy
        if L2 == 0.0:
            return 0.0
        t = ((pt[0] - curve.a[0]) * dx + (pt[1] - curve.a[1]) * dy) / L2
        return min(max(t, 0.0), 1.0)
    return norm_angle(math.atan2(pt[1] - curve.center[1], pt[0] - curve.center[0]))


def _split_curve(curve: Curve, ts: list[float], eps: float) -> list[Piece]:
    if isinstance(curve, Segment):
        L = curve.length()
        if L <= eps:
            return []
        tol = max(eps / L, 1e-12)
        params = sorted({0.0, 1.0, *ts})
        merged = [params[0]]
        for t in params[1:]:
            if t - merged[-1] > tol:
                merged.append(t)
        if merged[-1] < 1.0:
            merged[-1] = 1.0
        out: list[Piece] = []
        for t0, t1 in zip(merged, merged[1:]):
            out.append(Segment(curve.point_at(t0), curve.point_at(t1)))
        return out
    # circle
    tol = max(eps / max(curve.radius, eps), 1e-12)
    angs = sorted({norm_angle(t) for t in ts})
    merged_a: list[float] = []
    for a in angs:
        if not merged_a or a - merged_a[-1] > tol:
            merged_a.append(a)
    if len(merged_a) >= 2 and (TWO_PI - (merged_a[-1] - merged_a[0])) <= tol:
        merged_a.pop()
    if len(merged_a) == 0:
        merged_a = [0.0, math.pi]
    elif len(merged_a) == 1:
        merged_a.append(norm_angle(merged_a[0] + math.pi))
        merged_a.sort()
    out = []
    n = len(merged_a)
    for i in range(n):
        a0 = merged_a[i]
        a1 = merged_a[(i + 1) % n]
        out.append(Arc(curve, a0, a1, ccw=True))
    return out


def _piece_point_tangent(piece: Piece, frac: float) -> tuple[Point, Point]:
    """(point, unit tangent in travel direction) at fraction frac of the piece."""
    if isinstance(piece, Segment):
        return piece.point_at(frac), piece.direction()
    sw = piece.sweep()
    ang = piece.start + frac * sw if piece.ccw else piece.start - frac * sw
    p = piece.circle.point_at(ang)
    cx, cy = piece.circle.center
    rx, ry = p[0] - cx, p[1] - cy
    r = math.hypot(rx, ry)
    tx, ty = (-ry / r, rx / r) if piece.ccw else (ry / r, -rx / r)
    return p, (tx, ty)


def _classify_pieces(pieces: list[Piece], inside: Callable[[np.ndarray], np.ndarray],
                     offset: float) -> list[Piece | None]:
    """Each piece oriented with the inside on its left, or None.  A piece votes
    at three stations, with one `inside` call for all: a real boundary piece
    separates inside from outside all along its length, while pieces crossed
    by sub-offset features give mixed answers and are rejected."""
    probes: list[Point] = []
    live = []
    for k, piece in enumerate(pieces):
        try:
            frames = [_piece_point_tangent(piece, frac) for frac in (0.25, 0.5, 0.75)]
        except DegenerateError:
            continue
        live.append(k)
        for p, (tx, ty) in frames:
            nx, ny = -ty, tx  # left of travel
            probes += [(p[0] + offset * nx, p[1] + offset * ny), (p[0] - offset * nx, p[1] - offset * ny)]
    side = np.asarray(inside(np.array(probes, dtype=float).reshape(-1, 2)), dtype=bool).reshape(-1, 3, 2)
    votes = (side[..., 0].astype(int) - side[..., 1]).sum(axis=1).tolist()
    out: list[Piece | None] = [None] * len(pieces)
    for k, v in zip(live, votes):
        out[k] = pieces[k] if v >= 2 else (_reverse_piece(pieces[k]) if v <= -2 else None)
    return out


def _reverse_piece(piece: Piece) -> Piece:
    if isinstance(piece, Segment):
        return Segment(piece.b, piece.a)
    return Arc(piece.circle, piece.end, piece.start, ccw=not piece.ccw)


def _piece_endpoints(piece: Piece) -> tuple[Point, Point]:
    if isinstance(piece, Segment):
        return piece.a, piece.b
    return piece.start_point(), piece.end_point()


def _dedupe_curves(curves: list[Curve], snap: float) -> list[Curve]:
    seen = set()
    out = []
    q = max(snap, 1e-12)
    for c in curves:
        if isinstance(c, Segment):
            pts = sorted([c.a, c.b])
            key = ("s",) + tuple(round(v / q) for pt in pts for v in pt)
        else:
            key = ("c", round(c.center[0] / q), round(c.center[1] / q), round(c.radius / q))
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def _dedupe_pieces(pieces: list[Piece], snap: float) -> list[Piece]:
    seen = set()
    out = []
    q = max(snap, 1e-12)
    for pc in pieces:
        a, b = _piece_endpoints(pc)
        m = pc.midpoint()
        pts = sorted([a, b])
        key = tuple(round(v / q) for pt in (pts[0], pts[1], m) for v in pt)
        if key not in seen:
            seen.add(key)
            out.append(pc)
    return out


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
