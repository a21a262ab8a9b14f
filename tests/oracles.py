"""Scalar reference code that only tests use.

- region membership by even-odd ray casting, and point-to-piece distance;
- the arrangement's piece loops (`piecewise_region`): a cut parameter per
  hit, the split of each curve at its merged cuts, the piece dedupe, the
  probe frames and the vote of each piece, which `geom.regions_from_curves`
  runs as one array pass over the pieces of every field;
- the intersection rules of two curves or pieces (`intersect`,
  `piece_intersections`, `piece_curve_intersections`) and the arrangements'
  pair loop over them, field by field (`pairwise_cuts`), which
  `geom.intersections` runs as one array pass over every call;
- greedy's window, direction and deviation rules, which `select._aim`
  applies to many configs at once;
- the config table of a list of `CandidateConfig`s, which tests hand to
  `select.greedy_cover` in place of the table the sweep emits, and array
  equality of config tables and of the sweep's point groups;
- the target pairs whose fields can meet, over every pair, which
  `discretize._interacting_pairs` prefilters with `geom.box_pairs`;
- scenario generation that tests each draw against every placed segment,
  which `scenario.random_scenario` cuts to the neighbouring grid cells;
- the sweep's subset pass with a cone re-check on every config, which
  `sweep._subsets` leaves out: its comment argues the check cannot fail,
  and the maximal-row test and emission as per-row `packbits`, last-axis
  reductions and 2-D `nonzero` (`maximal_rows`, `emit_rows`), which the
  sweep runs over flat buffers;
- the sweep's shadow cones from the `Segment`s of `Scenario.blockers()`
  and their boxes by `geom.segment_boxes` (`shadow_cones`), which
  `sweep._shadow_cones` takes from `sweep.ScenarioIndex`'s blocker columns;
- probe points on the boundaries of the coverage clauses (`clause_boundary_points`),
  where the array clauses leave their verdicts to `fields.covers`.

Each batched form is the scalar code here, run as array passes.
"""
import dataclasses
import math
import random
from typing import Callable

import numpy as np

import camplan.scenario as scenario
from camplan.geom import (
    EPS,
    EPS_ANG,
    TWO_PI,
    Arc,
    Circle,
    Curve,
    CurveTable,
    DegenerateError,
    Piece,
    Point,
    Region,
    Segment,
    _chain_loops,
    _dedupe_curves,
    _first_by_key,
    _mod_2pi_np,
    _norm_angle_np,
    _piece_endpoints,
    _wrap_pi_np,
    box_pairs,
    curve_table,
    intersections,
    loop_bbox_diameter,
    norm_angle,
    point_segment_distance,
    segment_boxes,
    segment_segment_distance,
    wrap_pi,
)
from camplan.fields import aov_pair
from camplan.model import CandidateConfig, ConfigTable, Obstacle, Scenario, SensorSpec, Target
from camplan.sweep import _BUDGET


def batched(inside: Callable[[Point], bool]) -> Callable[[np.ndarray], np.ndarray]:
    """A scalar membership test as the batch predicate `region_from_curves` takes."""
    return lambda probes: np.array([inside(tuple(p)) for p in probes.tolist()], dtype=bool)


# --- region membership ----------------------------------------------------

def point_piece_distance(p: Point, piece: Piece) -> float:
    if isinstance(piece, Segment):
        return point_segment_distance(p, piece)
    c = piece.circle
    d = math.hypot(p[0] - c.center[0], p[1] - c.center[1])
    if d > 0.0:
        ang = math.atan2(p[1] - c.center[1], p[0] - c.center[0])
        if piece.angle_inside(ang):
            return abs(d - c.radius)
    return min(math.dist(p, piece.start_point()), math.dist(p, piece.end_point()))


def boundary_distance(region: Region, p: Point) -> float:
    return min((point_piece_distance(p, pc) for pc in region.pieces()), default=math.inf)


def contains(region: Region, p: Point, eps: float = EPS) -> bool:
    if not region.loops:
        return False
    if boundary_distance(region, p) <= eps:
        return True
    return _crossings_parity(region, p, eps)


def _crossings_parity(region: Region, p: Point, eps: float) -> bool:
    # Deterministic ray directions; retry on grazing hits.
    for k in range(24):
        ang = 0.5871 + k * 0.83727
        ok, inside = _cast(region, p, ang, eps)
        if ok:
            return inside
    return inside  # pragma: no cover - last attempt used regardless


def _cast(region: Region, p: Point, ang: float, eps: float) -> tuple[bool, bool]:
    ux, uy = math.cos(ang), math.sin(ang)
    count = 0
    for piece in region.pieces():
        if isinstance(piece, Segment):
            hits, suspicious = _ray_segment(p, ux, uy, piece, eps)
        else:
            hits, suspicious = _ray_arc(p, ux, uy, piece, eps)
        if suspicious:
            return False, False
        count += hits
    return True, (count % 2) == 1


def _ray_segment(p: Point, ux: float, uy: float, seg: Segment, eps: float) -> tuple[int, bool]:
    ax, ay = seg.a
    dx, dy = seg.b[0] - ax, seg.b[1] - ay
    den = ux * dy - uy * dx
    L = math.hypot(dx, dy)
    if abs(den) <= 1e-12 * max(L, 1.0):
        # parallel: suspicious only if the segment is close to the ray line
        if point_segment_distance(seg.a, Segment(p, (p[0] + ux * 1e9, p[1] + uy * 1e9))) < 10 * eps or \
           point_segment_distance(seg.b, Segment(p, (p[0] + ux * 1e9, p[1] + uy * 1e9))) < 10 * eps:
            return 0, True
        return 0, False
    wx, wy = ax - p[0], ay - p[1]
    t = (wx * dy - wy * dx) / den          # distance along ray
    s = (wx * uy - wy * ux) / den          # parameter along segment
    if t <= 0.0:
        if t > -eps and -0.1 <= s <= 1.1:
            return 0, True
        return 0, False
    tol = eps / max(L, eps)
    if -tol < s < tol or 1.0 - tol < s < 1.0 + tol:
        return 0, True  # endpoint graze
    if 0.0 < s < 1.0:
        return 1, False
    return 0, False


def _ray_arc(p: Point, ux: float, uy: float, arc: Arc, eps: float) -> tuple[int, bool]:
    c = arc.circle
    fx, fy = p[0] - c.center[0], p[1] - c.center[1]
    B = 2.0 * (fx * ux + fy * uy)
    C = fx * fx + fy * fy - c.radius * c.radius
    disc = B * B - 4.0 * C
    if disc < 0.0:
        if disc > -8.0 * eps * max(c.radius, 1.0):
            return 0, True  # near tangency
        return 0, False
    sq = math.sqrt(disc)
    if sq <= math.sqrt(8.0 * eps * max(c.radius, 1.0)):
        return 0, True  # tangential hit
    count = 0
    ang_tol = 4.0 * eps / max(c.radius, eps)
    for t in ((-B - sq) / 2.0, (-B + sq) / 2.0):
        if t <= 0.0:
            if t > -eps:
                return 0, True
            continue
        hx = p[0] + t * ux
        hy = p[1] + t * uy
        ang = math.atan2(hy - c.center[1], hx - c.center[0])
        off = norm_angle(ang - arc.start) if arc.ccw else norm_angle(arc.start - ang)
        sweep = arc.sweep()
        if off <= ang_tol or abs(off - sweep) <= ang_tol or off >= TWO_PI - ang_tol:
            return 0, True  # arc endpoint graze
        if off < sweep:
            count += 1
    return count, False


# --- the arrangement, piece by piece -------------------------------------------

def piecewise_region(curves: list[Curve], inside: Callable[[np.ndarray], np.ndarray], *,
                     offset: float, snap: float) -> Region:
    """`geom.region_from_curves` as the scalar piece loops: a cut parameter
    per hit, a split per curve, the dedupe and the probe frames per piece,
    and one `inside` call for every probe of the field."""
    kept = [pc for pc in _classify_pieces(piecewise_pieces(curves, snap), inside, offset) if pc is not None]
    return Region([lp for lp in _chain_loops(kept, snap) if loop_bbox_diameter(lp) >= 10.0 * snap])


def piecewise_pieces(curves: list[Curve], snap: float) -> list[Piece]:
    """The pieces of a field's arrangement, split and deduped, in order."""
    curves = _dedupe_curves(list(curves), snap)
    cuts: list[list[float]] = [[] for _ in curves]
    for c, t in zip(*(a.tolist() for a in hit_cuts(curve_table(curves), snap))):
        cuts[c].append(t)
    return _dedupe_pieces([pc for c, ts in zip(curves, cuts) for pc in _split_curve(c, ts, snap)], snap)


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


def table_curves(table: CurveTable) -> list[Curve]:
    """The segments and circles a table's rows hold."""
    return [Segment((ax, ay), (bx, by)) if math.isnan(r) else Circle((cx, cy), r)
            for (ax, ay, bx, by), (cx, cy, r) in zip(table.seg.tolist(), table.circle.tolist())]


def hit_cuts(table: CurveTable, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """`geom._cuts` with `_curve_param` run hit by hit."""
    curves = table_curves(table)
    i, j = np.triu_indices(len(curves), 1)
    call, xy, overlap = intersections(table, i, table, j, eps)
    hits = list(zip(call.tolist(), xy.tolist())) + [(k, None) for k in np.flatnonzero(overlap).tolist()]
    i, j = i.tolist(), j.tolist()
    out = []
    for k, pt in hits:
        a, b = curves[i[k]], curves[j[k]]
        if pt is None:
            out += [(i[k], _curve_param(a, b.a)), (i[k], _curve_param(a, b.b)),
                    (j[k], _curve_param(b, a.a)), (j[k], _curve_param(b, a.b))]
        else:
            out += [(i[k], _curve_param(a, pt)), (j[k], _curve_param(b, pt))]
    return _cut_arrays(out)


def _cut_arrays(cuts: list[tuple[int, float]]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([c for c, _ in cuts], dtype=np.int64), np.array([t for _, t in cuts], dtype=float)


def _merge_sorted(values: list[float], tol: float) -> list[float]:
    """The distinct values in ascending order, less those within tol of the last one kept."""
    merged: list[float] = []
    for v in sorted(set(values)):
        if not merged or v - merged[-1] > tol:
            merged.append(v)
    return merged


def _split_curve(curve: Curve, ts: list[float], eps: float) -> list[Piece]:
    if isinstance(curve, Segment):
        L = curve.length()
        if L <= eps:
            return []
        merged = _merge_sorted([0.0, 1.0, *ts], max(eps / L, 1e-12))
        if merged[-1] < 1.0:
            merged[-1] = 1.0
        out: list[Piece] = []
        for t0, t1 in zip(merged, merged[1:]):
            out.append(Segment(curve.point_at(t0), curve.point_at(t1)))
        return out
    # circle
    tol = max(eps / max(curve.radius, eps), 1e-12)
    merged_a = _merge_sorted([norm_angle(t) for t in ts], tol)
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


def _dedupe_pieces(pieces: list[Piece], snap: float) -> list[Piece]:
    def key(pc: Piece) -> list[float]:
        a, b = _piece_endpoints(pc)
        return [v for pt in (*sorted([a, b]), pc.midpoint()) for v in pt]

    return _first_by_key(pieces, snap, key)


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


def _classify_piece(piece: Piece, inside: Callable[[Point], bool], offset: float) -> Piece | None:
    # Vote at three stations: a real boundary piece separates inside from
    # outside all along its length, while pieces crossed by sub-offset features
    # give mixed answers and are rejected rather than kept on a lucky midpoint.
    votes = 0
    for frac in (0.25, 0.5, 0.75):
        try:
            p, (tx, ty) = _piece_point_tangent(piece, frac)
        except DegenerateError:
            return None
        nx, ny = -ty, tx  # left of travel
        left = inside((p[0] + offset * nx, p[1] + offset * ny))
        right = inside((p[0] - offset * nx, p[1] - offset * ny))
        if left != right:
            votes += 1 if left else -1
    if votes >= 2:
        return piece
    if votes <= -2:
        return _reverse_piece(piece)
    return None


# --- intersections --------------------------------------------------------

class _Overlap:
    """Marker for collinear-segment / identical-circle intersection results."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "OVERLAP"


#: Returned by intersect() when the inputs overlap along a continuum.
OVERLAP = _Overlap()


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


def pairwise_cuts(table: CurveTable, first: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`geom._cuts` as a pair loop over `intersect` per field: field f holds
    rows first[f] to first[f + 1] and meets at eps[f]."""
    curves = table_curves(table)
    cuts: list[tuple[int, float]] = []
    for lo, hi, e in zip(first[:-1].tolist(), first[1:].tolist(), np.asarray(eps).tolist()):
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                res = intersect(curves[i], curves[j], e)
                if res is OVERLAP:
                    # split each at the other's endpoints for a clean arrangement
                    assert isinstance(curves[i], Segment) and isinstance(curves[j], Segment)
                    for pt in (curves[j].a, curves[j].b):
                        cuts.append((i, _curve_param(curves[i], pt)))
                    for pt in (curves[i].a, curves[i].b):
                        cuts.append((j, _curve_param(curves[j], pt)))
                    continue
                for pt in res:
                    cuts += [(i, _curve_param(curves[i], pt)), (j, _curve_param(curves[j], pt))]
    return _cut_arrays(cuts)


def piece_curve_intersections(piece: Piece, curve: Curve, eps: float = EPS) -> list[Point]:
    """Intersections of a boundary piece with an unbounded curve."""
    base = piece if isinstance(piece, Segment) else piece.circle
    res = intersect(base, curve, eps)
    if res is OVERLAP:
        return []
    return [pt for pt in res if _on_piece(pt, piece, eps)]


# --- target pairs whose fields can meet ------------------------------------

def interacting_pairs(s: Scenario) -> list[tuple[int, int]]:
    """Index pairs whose placement fields could touch (others cannot intersect)."""
    out = []
    for i in range(s.n):
        for j in range(i + 1, s.n):
            ti, tj = s.targets[i], s.targets[j]
            reach = 2.0 * s.sensor.r_max + ti.width + tj.width
            if math.dist(ti.midpoint, tj.midpoint) <= reach + s.eps_len:
                out.append((i, j))
    return out


# --- scenario generation ----------------------------------------------------

def all_pairs_scenario(p: scenario.GenParams, sensor: SensorSpec) -> Scenario:
    """`scenario.random_scenario` with each draw distance-tested against every
    segment placed so far; it reads `scenario.MAX_REJECTS` when it runs."""
    scenario.check_params(p)
    rng = random.Random(p.seed)
    half = p.target_width / 2.0
    placed: list[Segment] = []
    rejects = 0

    def sample_segment() -> tuple:
        nonlocal rejects
        while True:
            mx = rng.uniform(0.0, p.width)
            my = rng.uniform(0.0, p.height)
            omega = rng.uniform(0.0, math.tau)
            dx, dy = math.cos(omega), math.sin(omega)
            start = (mx - half * dx, my - half * dy)
            end = (mx + half * dx, my + half * dy)
            seg = Segment(start, end)
            ok = (
                p.margin <= min(start[0], end[0])
                and max(start[0], end[0]) <= p.width - p.margin
                and p.margin <= min(start[1], end[1])
                and max(start[1], end[1]) <= p.height - p.margin
                and all(segment_segment_distance(seg, q) >= p.separation for q in placed)
            )
            if ok:
                placed.append(seg)
                return start, end, (-dy, dx)
            rejects += 1
            if rejects >= scenario.MAX_REJECTS:
                raise scenario.PackingError(
                    f"packing failed after {scenario.MAX_REJECTS} rejected attempts")

    targets = []
    for i in range(p.n_targets):
        start, end, normal = sample_segment()
        targets.append(Target(id=i, start=start, end=end, normal=normal))
    obstacles = []
    for i in range(p.n_obstacles):
        start, end, _ = sample_segment()
        obstacles.append(Obstacle(id=i, chain=(start, end)))
    return Scenario(width=float(p.width), height=float(p.height), sensor=sensor,
                    targets=tuple(targets), obstacles=tuple(obstacles))


# --- greedy's viewing direction -------------------------------------------

def optimal_vd(mid_bearings, vd_lo: float, vd_window: float, mode: str = "f1") -> float:
    """Deviation-minimizing direction within [vd_lo, vd_lo + vd_window].

    f1: circular median of the midpoint bearings (even count: midpoint of the
    median pair), clamped to the window.  finf: circular midpoint of the two
    extreme bearings, clamped.
    """
    center = vd_lo + vd_window / 2.0
    if len(mid_bearings) == 0:
        return norm_angle(center)
    rel = sorted(wrap_pi(b - center) for b in mid_bearings)
    k = len(rel)
    if mode == "f1":
        best = rel[k // 2] if k % 2 else (rel[k // 2 - 1] + rel[k // 2]) / 2.0
    elif mode == "finf":
        best = (rel[0] + rel[-1]) / 2.0
    else:
        raise ValueError(f"unknown vd optimization mode {mode!r}")
    half = vd_window / 2.0
    best = min(max(best, -half), half)
    return norm_angle(center + best)


def subset_window(cfg: CandidateConfig, ids, theta: float) -> tuple[float, float]:
    """Feasible vd window (start, width) when only `ids` (a non-empty subset
    of cfg.covered) must stay covered."""
    wanted = set(ids)
    rel_lo = []
    rel_hi = []
    for tid, lo, hi in zip(cfg.covered, cfg.interval_lo, cfg.interval_hi):
        if tid not in wanted:
            continue
        # all covered intervals sit within theta of vd_rep, so this is linear
        r = wrap_pi(lo - cfg.vd_rep)
        rel_lo.append(r)
        rel_hi.append(r + norm_angle(hi - lo))
    w_lo = max(rel_hi) - theta / 2.0
    w_hi = min(rel_lo) + theta / 2.0
    return norm_angle(cfg.vd_rep + w_lo), max(w_hi - w_lo, 0.0)


def _aim(cfg: CandidateConfig, open_ids: set, theta: float, mode: str) -> tuple[float, float]:
    """Deviation-minimizing direction for the members of cfg in `open_ids`,
    within their vd window, and their total deviation from it."""
    lo, window = subset_window(cfg, [tid for tid in cfg.covered if tid in open_ids], theta)
    mids = [b for tid, b in zip(cfg.covered, cfg.mid_bearings) if tid in open_ids]
    alpha = optimal_vd(mids, lo, window, mode)
    return alpha, sum(abs(wrap_pi(b - alpha)) for b in mids)


# --- config tables ----------------------------------------------------------

def from_configs(configs, targets) -> ConfigTable:
    """The table of a sequence of `CandidateConfig`s, with member columns
    taken from the order of `targets`; every covered id must be a target's."""
    column = {t.id: k for k, t in enumerate(targets)}
    covered = [tid for cfg in configs for tid in cfg.covered]
    stray = sorted(set(covered) - column.keys())
    if stray:
        raise ValueError(f"configs cover target ids the scenario lacks: {stray}")

    def per_config(name):
        return np.array([getattr(cfg, name) for cfg in configs], dtype=float)

    def per_member(name):
        return np.array([v for cfg in configs for v in getattr(cfg, name)], dtype=float)

    return ConfigTable(
        source=np.array([cfg.source for cfg in configs], dtype=np.int64),
        position=per_config("position").reshape(-1, 2),
        vd_rep=per_config("vd_rep"),
        ptr=np.cumsum([0] + [len(cfg.covered) for cfg in configs], dtype=np.int64),
        covered=np.array(covered, dtype=np.int64),
        col=np.array([column[tid] for tid in covered], dtype=np.int64),
        interval_lo=per_member("interval_lo"),
        interval_hi=per_member("interval_hi"),
        mid_bearings=per_member("mid_bearings"),
    )


def tables_equal(a: ConfigTable, b: ConfigTable) -> bool:
    """Every array of table a equals the same array of table b."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(ConfigTable))


def groups_equal(a, b) -> bool:
    """Two `sweep_points` results split equal tables at equal points."""
    return np.array_equal(a.ptr, b.ptr) and tables_equal(a.table, b.table)


# --- the shadow cones --------------------------------------------------------

def shadow_cones(idx):
    """`sweep._shadow_cones` with the blockers and their boxes taken from
    the `Segment`s of `Scenario.blockers()`, as the sweep did when its index
    listed them one by one."""
    blockers = idx.scenario.blockers()
    bax, bay = np.array([b.a[0] for b in blockers]), np.array([b.a[1] for b in blockers])
    bbx, bby = np.array([b.b[0] for b in blockers]), np.array([b.b[1] for b in blockers])
    reach = idx.scenario.sensor.r_max + 3.0 * idx.eps_len
    t, b = box_pairs(*segment_boxes([t.segment for t in idx.scenario.targets], reach),
                     *segment_boxes(blockers, 0.0))
    t, b = t[b != t], b[b != t]
    # the bearings of the corners of b - t, as offsets in (-pi, pi] from the first's
    sx, sy, ex, ey = idx.sx[t], idx.sy[t], idx.ex[t], idx.ey[t]
    phi = np.arctan2(np.stack((bay[b] - sy, bay[b] - ey, bby[b] - sy, bby[b] - ey)),
                     np.stack((bax[b] - sx, bax[b] - ex, bbx[b] - sx, bbx[b] - ex)))
    rel = _wrap_pi_np(phi - phi[0])
    lo, hi = rel.min(axis=0) - EPS_ANG, rel.max(axis=0) + EPS_ANG
    # a hull of pi or more keeps all; a range past -pi or pi wraps to the other end
    wide = hi - lo >= math.pi
    lo, hi = np.where(wide, -4.0, phi[0] + lo), np.where(wide, 4.0, phi[0] + hi)
    wrap = np.flatnonzero(~wide & ((lo < -math.pi) | (hi > math.pi)))
    shift = np.where(lo[wrap] < -math.pi, TWO_PI, -TWO_PI)
    t, b = np.concatenate((t, t[wrap])), np.concatenate((b, b[wrap]))
    lo, hi = np.concatenate((lo, lo[wrap] + shift)), np.concatenate((hi, hi[wrap] + shift))
    return t, b, 8.0 * t + lo, 8.0 * t + hi


# --- the subset pass ----------------------------------------------------------

def maximal_rows(fits: np.ndarray) -> np.ndarray:
    """(G, K) mask of the anchors whose (G, K, K) fits row is a maximal subset:
    non-empty, the first anchor with that row, and strictly inside no other row.
    Each row packs into words of the fewest bytes (1, 2, 4 or 8) that hold K
    bits, or into several 8-byte words, and every pair of rows is compared
    along the last axis."""
    K = fits.shape[1]
    nb = -(-K // 8)
    size = min(8, 1 << (nb - 1).bit_length())
    W = -(-nb // size)
    bits = np.zeros(fits.shape[:2] + (W * size,), dtype=np.uint8)
    bits[:, :, :nb] = np.packbits(fits, axis=2, bitorder="little")
    bits = bits.view(f"<u{size}")
    word = bits[:, :, 0]
    neq = word[:, :, None] != word[:, None, :]
    sub = (word[:, :, None] & ~word[:, None, :]) == 0   # sub[g, a, b]: row a within row b
    for w in range(1, W):
        word = bits[:, :, w]
        neq |= word[:, :, None] != word[:, None, :]
        sub &= (word[:, :, None] & ~word[:, None, :]) == 0
    # a row within an earlier anchor's row, or strictly within a later one's
    earlier = np.tri(K, k=-1, dtype=bool)   # earlier[a, b]: b < a
    return ~(sub & (neq | earlier)).any(axis=2) & bits.any(axis=2)


def emit_rows(fits: np.ndarray, reach: np.ndarray):
    """The maximal rows of a (G, K, K) pass as 2-D index pairs: per config
    its (g, anchor) and span, the largest reach over its row; per member its
    config and column, row by row."""
    gm, am = np.nonzero(maximal_rows(fits))
    rows = fits[gm, am]
    span = np.where(rows, reach[gm, am], -np.inf).max(axis=1)
    r, c = np.nonzero(rows)
    return gm, am, span, r, c


def dense_recheck_subsets(x: np.ndarray, y: np.ndarray, pi, tj, idx):
    """`sweep._subsets` with the cone re-check run on every config."""
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64),
              np.zeros(0, dtype=np.int64))]
    count = np.bincount(pi, minlength=x.size)
    x, y = x[pi], y[pi]
    theta = idx.scenario.sensor.theta
    limit = theta + EPS_ANG
    b1 = np.arctan2(idx.sy[tj] - y, idx.sx[tj] - x)
    b2 = np.arctan2(idx.ey[tj] - y, idx.ex[tj] - x)
    diff = _mod_2pi_np(b2 - b1 + math.pi) - math.pi
    lo = _mod_2pi_np(np.where(diff >= 0.0, b1, b2), turns=1)
    width = np.abs(diff)
    mids = _mod_2pi_np(np.arctan2(idx.my[tj] - y, idx.mx[tj] - x), turns=1)
    tid = idx.ids[tj]

    offset = np.cumsum(count) - count   # each point's first pair
    for K in np.unique(count[count > 0]).tolist():
        bucket = np.flatnonzero(count == K)
        G = max(1, _BUDGET // (K * K))
        for g0 in range(0, bucket.size, G):
            point = bucket[g0:g0 + G]
            pair = offset[point, None] + np.arange(K)
            # anchors run in pair order, members in target-id order: a row's
            # set does not depend on its column order, and its members come
            # out in the order the table keeps them
            mem = np.take_along_axis(pair, np.argsort(tid[pair], axis=1, kind="stable"), axis=1)
            lo_p, lo_m, wd_m = lo[pair], lo[mem], width[mem]
            # [g, anchor, member]: how far past the anchor's lo the member ends
            reach = _mod_2pi_np(lo_m[:, None, :] - lo_p[:, :, None], turns=1) + wd_m[:, None, :]
            fits = reach <= limit
            gm, am, span, _, _ = emit_rows(fits, reach)
            rows = fits[gm, am]
            lo_a = lo_p[gm, am]
            # re-verify angular containment at vd_rep (range/facing already hold)
            cone_lo = lo_a + span / 2.0 - theta / 2.0
            off = _mod_2pi_np(lo_m[gm] - cone_lo[:, None])
            off = np.where(off > TWO_PI - EPS_ANG, 0.0, off)
            ok = (~rows | (off + wd_m[gm] <= limit)).all(axis=1)
            gm, rows, span, lo_a = gm[ok], rows[ok], span[ok], lo_a[ok]
            r, c = np.nonzero(rows)
            parts.append((
                point[gm],
                _norm_angle_np(lo_a + span / 2.0),
                rows.sum(axis=1),
                mem[gm[r], c],
            ))
    return tuple(map(np.concatenate, zip(*parts))), (lo, _mod_2pi_np(lo + width), mids)


def angle_limit_points(t: Target, sensor: SensorSpec, n: int = 60) -> list[Point]:
    """Points where the angle clauses of `covers` hold with no slack: on the
    view-angle circles at theta + EPS_ANG and on the facing edges at
    phi + EPS_ANG, n of each."""
    pts = []
    if sensor.theta < math.pi:
        for c in aov_pair(t.segment, sensor.theta + EPS_ANG):
            pts += [c.point_at(k * math.tau / n) for k in range(n)]
    (mx, my), base = t.midpoint, math.atan2(t.normal[1], t.normal[0])
    for a in (base + sensor.phi + EPS_ANG, base - sensor.phi - EPS_ANG):
        pts += [(mx + r * math.cos(a), my + r * math.sin(a)) for r in np.linspace(0.05, sensor.r_max, n).tolist()]
    return pts


def clause_boundary_points(t: Target, sensor: SensorSpec, eps: float, n: int = 60) -> list[Point]:
    """Points on every boundary of the clauses `covers(t, ., sensor, eps)`
    tests without vd: the r_max and r_max + eps circles about the ends, the
    view-angle circles at theta and the facing edges at phi, both also
    EPS_ANG further out (`angle_limit_points`), the circles of radius eps
    about the ends and the midpoint and, given r_min > 0, the stadium at
    r_min - eps about the target; n points on each."""
    circles = [Circle(q, r) for q in (t.start, t.end) for r in (sensor.r_max, sensor.r_max + eps)]
    circles += [Circle(q, eps) for q in (t.start, t.end, t.midpoint)]
    if sensor.theta < math.pi:
        circles += aov_pair(t.segment, sensor.theta)
    if sensor.r_min > 0.0:
        circles += [Circle(q, sensor.r_min - eps) for q in (t.start, t.end)]
    pts = [c.point_at(k * math.tau / n) for c in circles for k in range(n)]
    (mx, my), base = t.midpoint, math.atan2(t.normal[1], t.normal[0])
    for a in (base + sensor.phi, base - sensor.phi):
        pts += [(mx + r * math.cos(a), my + r * math.sin(a)) for r in np.linspace(0.05, sensor.r_max, n).tolist()]
    if sensor.r_min > 0.0:
        (sx, sy), (ex, ey), (nx, ny) = t.start, t.end, t.normal
        for side in (sensor.r_min - eps, eps - sensor.r_min):
            pts += [(sx + u * (ex - sx) + side * nx, sy + u * (ey - sy) + side * ny)
                    for u in np.linspace(0.0, 1.0, n).tolist()]
    return pts + angle_limit_points(t, sensor, n)


def ulp_neighbours(pts: list[Point], steps: int = 2) -> list[Point]:
    """Each point and the points 1 to steps ulps from it along x and along y."""
    out = []
    for x, y in pts:
        out.append((x, y))
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            px, py = x, y
            for _ in range(steps):
                px, py = math.nextafter(px, px + dx), math.nextafter(py, py + dy)
                out.append((px, py))
    return out
