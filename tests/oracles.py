"""Scalar reference code that only tests use.

- region membership by even-odd ray casting, and point-to-piece distance;
- the per-piece vote that `geom.region_from_curves` makes in one batch;
- the intersection rules of two curves or pieces (`intersect`,
  `piece_intersections`, `piece_curve_intersections`) and the arrangement's
  pair loop over them (`pairwise_cuts`), which `geom.intersections` runs as
  one array pass over every call;
- greedy's window, direction and deviation rules, which `select._aim`
  applies to many configs at once;
- the config table of a list of `CandidateConfig`s, which tests hand to
  `select.greedy_cover` in place of the table the sweep emits, and array
  equality of config tables and of the sweep's point groups;
- the target pairs whose fields can meet, over every pair, which
  `discretize._interacting_pairs` prefilters with `geom.box_pairs`;
- scenario generation that tests each draw against every placed segment,
  which `scenario.random_scenario` cuts to the neighbouring grid cells.

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
    TWO_PI,
    Arc,
    Circle,
    Curve,
    DegenerateError,
    Piece,
    Point,
    Region,
    Segment,
    _curve_param,
    _piece_point_tangent,
    _reverse_piece,
    norm_angle,
    point_segment_distance,
    segment_segment_distance,
    wrap_pi,
)
from camplan.model import CandidateConfig, ConfigTable, Obstacle, Scenario, SensorSpec, Target


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


# --- per-piece kernels ----------------------------------------------------

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


def pairwise_cuts(curves: list[Curve], eps: float) -> list[list[float]]:
    """`geom._cuts` as the pair loop over `intersect`."""
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
    return cuts


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
            if math.dist(ti.midpoint, tj.midpoint) <= reach + s.tol.eps_len:
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
    """Feasible vd window when only `ids` (a subset of cfg.covered) must stay covered."""
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
    if not rel_lo:
        return cfg.vd_lo, cfg.vd_window
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
        vd_lo=per_config("vd_lo"),
        vd_window=per_config("vd_window"),
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
