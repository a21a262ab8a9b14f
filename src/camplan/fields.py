"""Placement-field construction and the scalar coverage model.

`covers` is the one scalar reference for whether a camera covers a target:
range, facing, view angle and occlusion.  Field membership, the polar sampler
and the solution verifier (`select.verify_solution`) all call it; the sweep's
batched kernel is its array form and never calls it, so the verifier stays
independent of the sweep.

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
from dataclasses import dataclass
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
    Tolerance,
    angle_between,
    bearing,
    box_pairs,
    orientation,
    region_from_curves,
    point_segment_distance,
    segment_blocks_triangle,
    segment_boxes,
    wrap_pi,
)
from .model import Scenario, SensorSpec, Target
from .sweep import _blocks_triangle_np, clause_verdicts


@dataclass(frozen=True, slots=True)
class AovCirclePair:
    """The two circles seeing a chord at a fixed inscribed angle.

    c_plus bounds the view-angle limit on the chord's +normal side (its arc on
    that side subtends exactly theta), c_minus on the other side.  For
    theta > pi/2 each circle's center sits on the side opposite its arc.
    """

    chord: Segment
    theta: float
    c_plus: Circle
    c_minus: Circle

    @property
    def circles(self) -> tuple[Circle, Circle]:
        return (self.c_plus, self.c_minus)


def aov_pair(chord: Segment, theta: float) -> AovCirclePair:
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
    c_plus = Circle((mx + nx * off, my + ny * off), radius)
    c_minus = Circle((mx - nx * off, my - ny * off), radius)
    return AovCirclePair(chord, theta, c_plus, c_minus)


def subtended_angle(t: Target, p: Point) -> float:
    """Angle under which the target chord is seen from p (pi on the chord itself)."""
    u = (t.start[0] - p[0], t.start[1] - p[1])
    v = (t.end[0] - p[0], t.end[1] - p[1])
    if u == (0.0, 0.0) or v == (0.0, 0.0):
        return math.pi
    return angle_between(u, v)


def field_tolerance(t: Target, sensor: SensorSpec) -> Tolerance:
    return Tolerance.for_diameter(2.0 * (sensor.r_max + t.width))


def covers(
    t: Target,
    x: Point,
    sensor: SensorSpec,
    tol: Tolerance,
    vd: float | None = None,
    scenario: Scenario | None = None,
    blockers: list[tuple[Segment, int]] | None = None,
    report: tuple[dict, dict] | None = None,
) -> bool:
    """Whether a camera at x covers target t whole: the scalar coverage model.

    - range: both endpoints farther than eps_len and within r_max, and the
      target outside the r_min band;
    - facing: x farther than eps_len from the midpoint and within phi of the
      target's normal;
    - view_angle: given vd, both endpoint bearings within theta/2 of vd and,
      for theta > pi, the bearings between them clear of the blind spot
      around vd + pi; without vd, the target subtends at most theta;
    - occlusion, only given a scenario: no other segment enters the sight
      triangle, at the scenario's tolerance.

    Each clause is evaluated once.  Given a (clauses, margins) pair of dicts
    it records each verdict and slack in the order range, facing, view_angle,
    occlusion; without one, occlusion, the one costly clause, is skipped once
    another clause fails.
    """
    eps = tol.eps_len
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
    if scenario is None or (report is None and not ok):
        return ok
    visible = not occlusion_excluded(t, x, scenario, blockers)
    if report is not None:
        clauses["occlusion"] = visible
    return ok and visible


def bcpf_boundary_curves(t: Target, sensor: SensorSpec) -> list[Curve]:
    """All curves the region boundary can lie on (superset; classification prunes)."""
    curves: list[Curve] = [Circle(t.start, sensor.r_max), Circle(t.end, sensor.r_max)]
    if sensor.theta < math.pi:
        pair = aov_pair(t.segment, sensor.theta)
        curves.extend(pair.circles)
    m = t.midpoint
    base = math.atan2(t.normal[1], t.normal[0])
    reach = 2.0 * (sensor.r_max + t.width)
    for sign in (1.0, -1.0):
        a = base + sign * sensor.phi
        curves.append(Segment(m, (m[0] + reach * math.cos(a), m[1] + reach * math.sin(a))))
    return curves


def bcpf(t: Target, sensor: SensorSpec) -> Region:
    """Placement region ignoring occlusion.  Exact construction needs r_min = 0."""
    return _region(t, sensor, [])


# --- occlusion -------------------------------------------------------------

def interacting_blockers(targets: Sequence[Target], scenario: Scenario) -> list[list[tuple[Segment, int]]]:
    """For each of the targets, the blocking segments close enough to matter
    for its field, in the order of `Scenario.blockers`."""
    items = scenario.blockers()
    eps = scenario.tol.eps_len
    mids = [t.midpoint for t in targets]
    reach = [scenario.sensor.r_max + t.width + eps for t in targets]
    # a segment is no nearer than its bounding box: midpoint boxes grown by
    # the reach, padded for rounding, keep every blocker the exact test accepts
    m = np.array(mids, dtype=float).reshape(-1, 2)
    grow = np.array(reach)[:, None] + eps
    near = box_pairs(m - grow, m + grow, *segment_boxes([seg for seg, _ in items], 0.0))
    out: list[list[tuple[Segment, int]]] = [[] for _ in targets]
    for i, k in zip(*(a.tolist() for a in near)):
        seg, owner = items[k]
        if owner != targets[i].id and point_segment_distance(mids[i], seg) <= reach[i]:
            out[i].append((seg, owner))
    return out


def occlusion_excluded(
    t: Target,
    x: Point,
    scenario: Scenario,
    blockers: list[tuple[Segment, int]] | None = None,
) -> bool:
    """Whether any other segment blocks the sight triangle from x to the target."""
    if blockers is None:
        blockers = interacting_blockers([t], scenario)[0]
    eps, base = scenario.tol.eps_len, t.segment
    return any(segment_blocks_triangle(seg, x, base, eps) for seg, _ in blockers)


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
    return _region(t, scenario.sensor, [seg for seg, _ in interacting_blockers([t], scenario)[0]])


def _region(t: Target, sensor: SensorSpec, blockers: list[Segment]) -> Region:
    if sensor.r_min > 0.0:
        raise ValueError("region construction supports r_min = 0 only; use covers")
    d = 2.0 * (sensor.r_max + t.width)
    offset, snap = 1e-7 * d, 1e-9 * d  # classification offset, vertex snap
    tol = field_tolerance(t, sensor)
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
    curves += occlusion_fan(t, blockers, d, tol.eps_len)
    inside = _field_inside(t, sensor, tol, blockers)
    return region_from_curves(curves, inside, offset=offset, snap=snap)


def _field_inside(t: Target, sensor: SensorSpec, tol: Tolerance, blockers: list[Segment]):
    """Membership of (m, 2) points in the exact field: `covers` at tol (its
    array clauses where they clear the rounding margins), and no blocker in
    the open sight triangle at zero tolerance, one pass over every (covered
    point, blocker) pair."""
    (sx, sy), (ex, ey) = t.start, t.end
    ends = np.array([(*seg.a, *seg.b) for seg in blockers], dtype=float).reshape(-1, 4).T

    def inside(p: np.ndarray) -> np.ndarray:
        x, y = p[:, 0], p[:, 1]
        keep, unsure = clause_verdicts(x, y, (sx, sy, ex, ey, *t.normal), sensor, tol.eps_len)
        for k in np.flatnonzero(unsure).tolist():
            keep[k] = covers(t, (float(x[k]), float(y[k])), sensor, tol)
        k = np.flatnonzero(keep)
        ax, ay = (np.broadcast_to(c[k, None], (len(k), len(blockers))) for c in (x, y))
        keep[k] = ~_blocks_triangle_np(ax, ay, sx, sy, ex, ey, *ends, 0.0).any(axis=1)
        return keep

    return inside
