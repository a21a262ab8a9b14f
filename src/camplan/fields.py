"""Placement-field construction and the coverage model.

`covers` is the one scalar reference for whether a camera covers a target:
range, facing, view angle and, given a blocker list, occlusion, all at one
float tolerance.  Its array form sits beside it: `covers_np`, the clauses
that need no viewing direction over many (camera, target) pairs, decided by
their slacks where every slack clears a rounding margin and by `covers` where
one does not, on the columns `target_columns` builds.  The sweep's pair pass
calls it at the scene's tolerance, field membership and the polar sampler at
`field_tolerance`; the solution verifier
(`select.verify_solution`) calls `covers` at the scene's, with each target's
`interacting_blockers` within its sight triangle's box, and never the array
form, so it stays independent of the sweep.

For one target, the set of camera positions that can fully cover it is cut out
of the plane by four constraint families: range to both endpoints, the maximum
view angle (an inscribed-angle circle pair over the target chord), the facing
cone, and occlusion by other segments.  Regions are built by classifying a
boundary-curve arrangement against the exact field those curves bound; the
occlusion slivers `covers` accepts at its tolerance stay outside them (see
cpf).  `covers` is always the final authority.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .geom import (
    Circle,
    Curve,
    DegenerateError,
    EPS_ANG,
    Point,
    Region,
    Segment,
    _blocks_triangle_np,
    angle_between,
    bearing,
    box_pairs,
    orientation,
    region_from_curves,
    regions_from_curves,
    point_segment_distance,
    scaled_eps,
    segment_blocks_triangle,
    segment_boxes,
    wrap_pi,
)
from .model import Scenario, SensorSpec, Target


def aov_pair(chord: Segment, theta: float) -> tuple[Circle, Circle]:
    """The two circles (c_plus, c_minus) seeing a chord at inscribed angle
    theta.  c_plus bounds the view-angle limit on the chord's +normal side
    (its arc on that side subtends exactly theta), c_minus on the other side.
    For theta > pi/2 each circle's center sits on the side opposite its arc."""
    if not 0.0 < theta < math.pi:
        raise ValueError(f"inscribed angle must be in (0, pi), got {theta}")
    length = chord.length()
    if length <= 0.0:
        raise DegenerateError("zero-length chord")
    radius = length / (2.0 * math.sin(theta))
    mx, my = chord.midpoint()
    dx, dy = chord.direction()
    nx, ny = -dy, dx
    off = radius * math.cos(theta)  # signed: flips sides for obtuse theta
    return Circle((mx + nx * off, my + ny * off), radius), Circle((mx - nx * off, my - ny * off), radius)


def subtended_angle(t: Target, p: Point) -> float:
    """Angle under which the target chord is seen from p (pi on the chord itself)."""
    u = (t.start[0] - p[0], t.start[1] - p[1])
    v = (t.end[0] - p[0], t.end[1] - p[1])
    if u == (0.0, 0.0) or v == (0.0, 0.0):
        return math.pi
    return angle_between(u, v)


def field_tolerance(t: Target, sensor: SensorSpec) -> float:
    return scaled_eps(2.0 * (sensor.r_max + t.width))


def covers(
    t: Target,
    x: Point,
    sensor: SensorSpec,
    eps: float,
    vd: float | None = None,
    blockers: list[Segment] | None = None,
    report: tuple[dict, dict] | None = None,
) -> bool:
    """Whether a camera at x covers target t whole: the scalar coverage model.

    - range: both endpoints farther than eps and within r_max, and the
      target outside the r_min band;
    - facing: x farther than eps from the midpoint and within phi of the
      target's normal;
    - view_angle: given vd, both endpoint bearings within theta/2 of vd and,
      for theta > pi, the bearings between them clear of the blind spot
      around vd + pi; without vd, the target subtends at most theta;
    - occlusion, only given a blocker list: none of its segments enters the
      sight triangle, at eps.

    Each clause is evaluated once.  Given a (clauses, margins) pair of dicts
    it records each verdict and slack in the order range, facing, view_angle,
    occlusion; without one, occlusion, the one costly clause, is skipped once
    another clause fails.
    """
    r_max = sensor.r_max
    d_s = math.dist(x, t.start)
    d_e = math.dist(x, t.end)
    inner = point_segment_distance(x, t.segment) - sensor.r_min
    in_range = d_s > eps and d_e > eps and r_max - d_s >= -eps and r_max - d_e >= -eps and inner >= -eps

    vx = x[0] - (t.start[0] + t.end[0]) / 2.0
    vy = x[1] - (t.start[1] + t.end[1]) / 2.0
    facing_angle = angle_between(t.normal, (vx, vy)) if math.hypot(vx, vy) > eps else math.pi
    facing = facing_angle <= sensor.phi + EPS_ANG

    theta = sensor.theta
    if vd is None:
        view = in_range and (theta >= math.pi or subtended_angle(t, x) <= theta + EPS_ANG)
    else:
        slack = -math.pi   # bearings are defined once the range clause holds
        if in_range:
            off_s = wrap_pi(bearing(x, t.start) - vd)
            off_e = wrap_pi(bearing(x, t.end) - vd)
            spread = max(abs(off_s), abs(off_e))
            if theta > math.pi and abs(off_s - off_e) > math.pi:
                # the target's bearings run the short way between its
                # endpoints', here through vd + pi: a wide cone's blind spot
                spread = math.pi
            slack = theta / 2.0 - spread
        view = in_range and slack >= -EPS_ANG
    ok = in_range and facing and view
    if report is not None:
        clauses, margins = report
        clauses.update(range=in_range, facing=facing, view_angle=view)
        margins.update(range_slack=r_max - max(d_s, d_e), inner_slack=inner, facing_angle=facing_angle)
        if vd is not None:
            margins["angular_slack"] = slack
    if blockers is None or (report is None and not ok):
        return ok
    visible = not occlusion_excluded(t, x, blockers, eps)
    if report is not None:
        clauses["occlusion"] = visible
    return ok and visible


# --- the array form -----------------------------------------------------------

def _seg_point_dist_np(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    t = np.where(L2 > 0.0, ((px - ax) * dx + (py - ay) * dy) / np.where(L2 > 0, L2, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def target_columns(targets: Sequence[Target]) -> np.ndarray:
    """The (8, n) columns sx, sy, ex, ey, nx, ny, mx, my of the targets, for
    `covers_np`; the midpoint is (s + e) / 2 in array arithmetic."""
    c = np.array([(*t.start, *t.end, *t.normal) for t in targets], dtype=float).reshape(-1, 6).T
    return np.concatenate((c, (c[0:2] + c[2:4]) / 2.0))


# np.sqrt(x*x + y*y) and np.arctan2 differ from math.dist and math.atan2 by
# a few ulps, far below these margins (eps units, radians): a slack within
# one is left to `covers`.  The lengths' components are differences of
# coordinates validation bounds by MAX_LENGTH (1e100), so their squares
# stay finite, and underflow moves a length by under 1e-150, far below the
# 1e-12 floor of _LEN_MARGIN * eps.  A point on a view-angle circle has the
# slack EPS_ANG, outside the angle margin, so it is decided by the slacks.
_LEN_MARGIN = 1e-3
_ANG_MARGIN = 1e-13


def covers_np(x, y, targets: Sequence[Target], cols: np.ndarray, tj, sensor: SensorSpec, eps) -> np.ndarray:
    """Per camera k, `covers(targets[tj[k]], (x[k], y[k]), sensor, eps)`
    without vd or blockers; cols are `target_columns(targets)`, eps a scalar
    or a per-camera array.  Facing is tested first and the other clauses,
    whose endpoint columns are gathered then, only where it can hold.  The
    slacks decide every camera whose slacks all clear the margins above,
    `covers` the few with a slack within them."""
    out = np.zeros(len(tj), dtype=bool)
    nx, ny, vmx, vmy = cols[4].take(tj), cols[5].take(tj), x - cols[6].take(tj), y - cols[7].take(tj)
    facing = (sensor.phi + EPS_ANG) - np.arctan2(np.abs(nx * vmy - ny * vmx), nx * vmx + ny * vmy)
    f = np.flatnonzero(facing >= -_ANG_MARGIN)
    x, y, tj, vmx, vmy = x.take(f), y.take(f), tj.take(f), vmx.take(f), vmy.take(f)
    eps = eps.take(f) if np.ndim(eps) else eps
    sx, sy, ex, ey = (c.take(tj) for c in cols[:4])
    vsx, vsy, vex, vey = sx - x, sy - y, ex - x, ey - y
    d_s = np.sqrt(vsx * vsx + vsy * vsy)
    d_e = np.sqrt(vex * vex + vey * vey)
    # a strict clause d > eps is the closed clause d >= the next float above eps
    above = np.nextafter(eps, np.inf)
    lengths = [d_s - above, d_e - above, (sensor.r_max + eps) - np.maximum(d_s, d_e), np.sqrt(vmx * vmx + vmy * vmy) - above]
    if sensor.r_min > 0.0:
        lengths.append(_seg_point_dist_np(x, y, sx, sy, ex, ey) - (sensor.r_min - eps))
    angles = [facing.take(f)]
    if sensor.theta < math.pi:
        angles.append((sensor.theta + EPS_ANG) - np.arctan2(np.abs(vsx * vey - vsy * vex), vsx * vex + vsy * vey))
    margin = _LEN_MARGIN * eps
    fails = np.logical_or.reduce([v < -margin for v in lengths] + [v < -_ANG_MARGIN for v in angles])
    holds = np.logical_and.reduce([v > margin for v in lengths] + [v > _ANG_MARGIN for v in angles])
    eps = np.broadcast_to(eps, holds.shape)
    for k in np.flatnonzero(~fails & ~holds).tolist():
        holds[k] = covers(targets[tj[k]], (float(x[k]), float(y[k])), sensor, float(eps[k]))
    out[f] = holds
    return out


def bcpf_boundary_curves(t: Target, sensor: SensorSpec) -> list[Curve]:
    """All curves the region boundary can lie on (superset; classification prunes)."""
    curves: list[Curve] = [Circle(t.start, sensor.r_max), Circle(t.end, sensor.r_max)]
    if sensor.theta < math.pi:
        curves.extend(aov_pair(t.segment, sensor.theta))
    m = t.midpoint
    base = math.atan2(t.normal[1], t.normal[0])
    reach = 2.0 * (sensor.r_max + t.width)
    for sign in (1.0, -1.0):
        a = base + sign * sensor.phi
        curves.append(Segment(m, (m[0] + reach * math.cos(a), m[1] + reach * math.sin(a))))
    return curves


def bcpf(t: Target, sensor: SensorSpec) -> Region:
    """Placement region ignoring occlusion.  Exact construction needs r_min = 0."""
    return region(t, sensor, [])


# --- occlusion -------------------------------------------------------------

def interacting_blockers(targets: Sequence[Target], scenario: Scenario,
                         within: tuple[np.ndarray, np.ndarray] | None = None) -> list[list[Segment]]:
    """For each of the targets, the other blocking segments close enough to
    matter for its field, in the order of `Scenario.blockers`.  A target's own
    segment is the blocker at its position in `scenario.targets`, whatever
    its id.  Given within, (m, 2) lower and upper corners of one box per
    target, a list keeps only the blockers whose boxes also meet that box:
    an order-preserving subset of the list without it."""
    items = scenario.blockers()
    eps = scenario.eps_len
    position = {t: k for k, t in enumerate(scenario.targets)}
    own = [position.get(t, -1) for t in targets]
    mids = [t.midpoint for t in targets]
    reach = [scenario.sensor.r_max + t.width + eps for t in targets]
    # a segment is no nearer than its bounding box: midpoint boxes grown by
    # the reach, padded for rounding, keep every blocker the exact test accepts
    m = np.array(mids, dtype=float).reshape(-1, 2)
    grow = np.array(reach)[:, None] + eps
    lo, hi = m - grow, m + grow
    if within is not None:
        lo, hi = np.maximum(lo, within[0]), np.minimum(hi, within[1])
    near = box_pairs(lo, hi, *segment_boxes(items, 0.0))
    out: list[list[Segment]] = [[] for _ in targets]
    for i, k in zip(*(a.tolist() for a in near)):
        seg = items[k]
        if k != own[i] and point_segment_distance(mids[i], seg) <= reach[i]:
            out[i].append(seg)
    return out


def occlusion_excluded(t: Target, x: Point, blockers: list[Segment], eps: float) -> bool:
    """Whether any of the blockers enters the sight triangle from x to the
    target, at eps."""
    base = t.segment
    return any(segment_blocks_triangle(seg, x, base, eps) for seg in blockers)


def occlusion_fan(t: Target, occluders: list[Segment], reach: float, eps: float) -> list[Segment]:
    """Boundary rays of the occluders' shadows: from each occluder end q,
    directed away from each target end e.

    A ray is left out when an occluder ending at q has its other end strictly
    on the side of the line through e and q where the target's other end is.
    Points on and beside such a ray see that occluder cross their sight
    triangle at q, so it bounds no shadow, while a near-radial occluder would
    lay it within the classification offset of the ray that does."""
    others: dict[Point, list[Point]] = {}
    for seg in occluders:
        others.setdefault(seg.a, []).append(seg.b)
        others.setdefault(seg.b, []).append(seg.a)
    rays = []
    m = t.midpoint
    for q, ends in others.items():
        for e, e_other in ((t.start, t.end), (t.end, t.start)):
            d = math.dist(q, e)
            if d <= eps:
                continue  # shared endpoint never blocks, casts no shadow edge
            side = orientation(e, q, e_other)
            if any(orientation(e, q, end) == side != 0 for end in ends):
                continue
            length = reach + math.dist(q, m)
            ux, uy = (q[0] - e[0]) / d, (q[1] - e[1]) / d
            rays.append(Segment(q, (q[0] + ux * length, q[1] + uy * length)))
    return rays


def cpf(t: Target, scenario: Scenario) -> Region:
    """Full placement region: bcpf minus every occluder's shadow, built in one
    arrangement pass; an empty region means the target cannot be covered.

    Pieces are classified against the exact shadow the curves bound: no
    blocker enters the open sight triangle, at zero tolerance.  `covers`, at
    the scene's eps_len, still sees the target from a sliver about
    2 * eps_len * D / w deep behind an occluder (D away, w wide across the
    sight line); the region leaves it out and `covers` stays the final
    authority.  A blocker with an end off the target's line by more than the
    vertex snap and at most ten classification offsets shadows a strip along
    that line too thin for the offset to resolve: it is left out, and its
    sliver stays inside the region.
    """
    return region(t, scenario.sensor, interacting_blockers([t], scenario)[0])


def region(t: Target, sensor: SensorSpec, blockers: list[Segment]) -> Region:
    """The field of t among these blockers, as `cpf` builds it."""
    curves, inside, offset, snap = _field(t, sensor, blockers)
    return region_from_curves(curves, inside, offset=offset, snap=snap)


def regions(targets: Sequence[Target], sensor: SensorSpec, blocker_lists: Sequence[list[Segment]]) -> list[Region]:
    """`region` of each target among its blockers, built in one pass over the
    pieces of every field (`geom.regions_from_curves`)."""
    return regions_from_curves([_field(t, sensor, b) for t, b in zip(targets, blocker_lists)])


def _field(t: Target, sensor: SensorSpec, blockers: list[Segment]):
    """(curves, inside, offset, snap) of t's field among these blockers."""
    if sensor.r_min > 0.0:
        raise ValueError("region construction supports r_min = 0 only; use covers")
    d = 2.0 * (sensor.r_max + t.width)
    offset, snap = 1e-7 * d, 1e-9 * d  # classification offset, vertex snap
    eps = field_tolerance(t, sensor)
    (sx, sy), (ex, ey) = t.start, t.end
    # leave out blockers with an end a hair beside the target's line (see cpf)
    blockers = [seg for seg in blockers if not any(
        0.5 * snap < abs((ex - sx) * (q[1] - sy) - (ey - sy) * (q[0] - sx)) / t.width <= 10.0 * offset
        for q in (seg.a, seg.b))]
    # a blocker whose line splits the target's ends crosses every sight
    # triangle whose apex lies near it: it lies inside its own shadow
    curves = bcpf_boundary_curves(t, sensor) + [
        seg for seg in blockers
        if orientation(seg.a, seg.b, t.start) * orientation(seg.a, seg.b, t.end) >= 0]
    curves += occlusion_fan(t, blockers, d, eps)
    return curves, _field_inside(t, sensor, eps, blockers), offset, snap


def _field_inside(t: Target, sensor: SensorSpec, eps: float, blockers: list[Segment]):
    """Membership of (m, 2) points in the exact field: `covers_np` at eps, and
    no blocker in the open sight triangle at zero tolerance, one pass over
    every (covered point, blocker) pair."""
    cols = target_columns([t])
    (sx, sy), (ex, ey) = t.start, t.end
    ends = np.array([(*seg.a, *seg.b) for seg in blockers], dtype=float).reshape(-1, 4).T

    def inside(p: np.ndarray) -> np.ndarray:
        x, y = p[:, 0], p[:, 1]
        keep = covers_np(x, y, [t], cols, np.zeros(len(p), dtype=np.int64), sensor, eps)
        k = np.flatnonzero(keep)
        ax, ay = (np.broadcast_to(c[k, None], (len(k), len(blockers))) for c in (x, y))
        keep[k] = ~_blocks_triangle_np(ax, ay, sx, sy, ex, ey, *ends, 0.0).any(axis=1)
        return keep

    return inside
