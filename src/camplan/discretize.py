"""Candidate camera locations.

Three schemes with very different cost/quality trade-offs: the comprehensive
set (field boundary vertices and field/field and field/view-circle
intersections, complete for joint-coverage configurations), polar sampling of
each target's basic placement field, and a uniform grid over the area.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import aov_pair, covers, cpf, field_tolerance
from .geom import DegenerateError, Piece, Point, piece_curve_intersections, piece_intersections
from .model import Scenario, Target
from .sweep import ScenarioIndex, clause_slacks

_TAG_RANK = {"cpf-critical": 0, "cpf-x-cpf": 1, "cpf-x-aov": 2, "bcpf-sample": 3, "grid": 4}

# Most points grid_sample or bcpf_sample builds; finer steps are rejected.
MAX_GRID_POINTS = 1_000_000


@dataclass
class CandidateSet:
    points: list[Point]
    provenance: list[str]
    params: dict = field(default_factory=dict)
    uncoverable: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.points)


def _clamp_to_area(xy: np.ndarray, s: Scenario) -> np.ndarray:
    """(m, 2) points moved into the area coordinate by coordinate, as
    min(max(c, 0.0), side) would: a coordinate of -0.0 stays -0.0."""
    up = np.where(0.0 > xy, 0.0, xy)
    side = np.array([s.width, s.height])
    return np.where(side < up, side, up)


def _dedupe(xy: np.ndarray, rank: np.ndarray, eps: float) -> np.ndarray:
    """Indices of the points kept when merging points closer than eps.

    The rule is sequential: walk the points in (x, y, rank) order and drop a
    point when some point kept before it lies within eps in its own or one of
    the eight neighbouring cells of an eps grid.  Only such neighbours
    interact, so the walk visits just the points that have one; the rest are
    kept whatever the order.  Returns indices in walk order."""
    order = np.lexsort((rank, xy[:, 1], xy[:, 0]))
    p = xy[order]
    # a point equal to the one before it sees the same kept points and is
    # dropped whatever became of that one: only the first of each run walks
    lead = np.ones(len(p), dtype=bool)
    lead[1:] = (p[1:] != p[:-1]).any(axis=1)
    order, p = order[lead], p[lead]
    if len(p) == 0:
        return order
    key = np.floor(p / (eps if eps > 0 else 1.0))
    # cells as one int64 code; clamped points and a diameter-scaled eps keep
    # the codes far inside its range
    key = (key - key.min(axis=0) + 1.0).astype(np.int64)
    stride = int(key[:, 1].max()) + 2
    code = key[:, 0] * stride + key[:, 1]
    cells = np.sort(code)
    around = [dx * stride + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    others = np.full(len(p), -1)   # points in the 3 x 3 cells around each, itself excluded
    for step in around:
        others += np.searchsorted(cells, code + step, side="right") - np.searchsorted(cells, code + step)
    keep = np.ones(len(p), dtype=bool)
    kept: dict[int, list[list[float]]] = {}
    walk = np.flatnonzero(others)
    for k, q, c in zip(walk.tolist(), p[walk].tolist(), code[walk].tolist()):
        if any(math.dist(q, r) <= eps for step in around for r in kept.get(c + step, ())):
            keep[k] = False
        else:
            kept.setdefault(c, []).append(q)
    return order[keep]


def comprehensive_candidates(s: Scenario) -> CandidateSet:
    """Critical points of all placement fields plus their pairwise and
    view-circle intersections.  Complete for joint coverage when r_min = 0."""
    if s.sensor.r_min > 0.0:
        raise ValueError("comprehensive candidates require r_min = 0")
    if any(t.width > s.sensor.r_max / 2.0 + s.tol.eps_len for t in s.targets):
        raise ValueError("comprehensive candidates require target width <= r_max/2")
    eps = s.tol.eps_len
    regions = {t.id: cpf(t, s) for t in s.targets}
    uncoverable = tuple(t.id for t in s.targets if regions[t.id].is_empty())

    tagged: list[tuple[Point, str]] = []
    for reg in regions.values():
        for v in reg.vertices():
            tagged.append((v, "cpf-critical"))

    pieces: dict[int, list[Piece]] = {tid: list(reg.pieces()) for tid, reg in regions.items()}
    pairs = _interacting_pairs(s)
    for i, j in pairs:
        ti, tj = s.targets[i], s.targets[j]
        for pi in pieces[ti.id]:
            for pj in pieces[tj.id]:
                for pt in piece_intersections(pi, pj, eps):
                    tagged.append((pt, "cpf-x-cpf"))
        if s.sensor.theta < math.pi:
            for circle in _pair_view_circles(ti, tj, s.sensor.theta):
                for tid in (ti.id, tj.id):
                    for piece in pieces[tid]:
                        for pt in piece_curve_intersections(piece, circle, eps):
                            tagged.append((pt, "cpf-x-aov"))

    xy = _clamp_to_area(np.array([p for p, _ in tagged], dtype=float).reshape(-1, 2), s)
    rank = np.array([_TAG_RANK[tag] for _, tag in tagged], dtype=np.int64)
    del tagged, regions, pieces   # free the fields before the merge
    kept = _dedupe(xy, rank, eps)
    tags = list(_TAG_RANK)   # in rank order
    return CandidateSet([tuple(p) for p in xy[kept].tolist()], [tags[r] for r in rank[kept].tolist()],
                        params={"algo": "comprehensive"}, uncoverable=uncoverable)


def _interacting_pairs(s: Scenario) -> list[tuple[int, int]]:
    """Index pairs whose placement fields could touch (others cannot intersect)."""
    out = []
    for i in range(s.n):
        for j in range(i + 1, s.n):
            ti, tj = s.targets[i], s.targets[j]
            reach = 2.0 * s.sensor.r_max + ti.width + tj.width
            if math.dist(ti.midpoint, tj.midpoint) <= reach + s.tol.eps_len:
                out.append((i, j))
    return out


def _pair_view_circles(ti: Target, tj: Target, theta: float):
    """View-angle circles of the four chords joining endpoints across the pair."""
    from .geom import Segment

    circles = []
    for a in (ti.start, ti.end):
        for b in (tj.start, tj.end):
            try:
                pair = aov_pair(Segment(a, b), theta)
            except DegenerateError:
                continue  # shared endpoint: no chord
            circles.extend(pair.circles)
    return circles


def bcpf_sample(s: Scenario, eps_a: float, eps_r: float) -> CandidateSet:
    """Polar samples of each target's basic placement field.

    Fan angles are stepped by eps_a across the facing cone (cell-centered);
    along each fan direction the outermost sample sits on the field's outer
    boundary (max endpoint distance exactly r_max) and further samples step
    inward by eps_r while the radius stays >= max(r_min, width).

    All fans are built at once as arrays, in target, fan, ring order.  The
    array clauses of `sweep.clause_slacks` decide membership where every
    slack clears a rounding margin; `covers` decides the few samples within
    it, so the samples are those `covers` accepts.
    """
    if eps_a <= 0.0 or eps_r <= 0.0:
        raise ValueError("sampling steps must be positive")
    sensor = s.sensor
    ts = s.targets
    steps = int(2.0 * sensor.phi / eps_a)
    psi = [-sensor.phi + (i + 0.5) * eps_a for i in range(steps)]
    tols = [field_tolerance(t, sensor) for t in ts]
    eps_len = np.array([tol.eps_len for tol in tols])
    idx = ScenarioIndex(s)
    # one ray per (target, fan step), target-major
    base = np.array([math.atan2(t.normal[1], t.normal[0]) for t in ts])
    angle = (base[:, None] + np.array(psi)).ravel().tolist()
    ux = np.array([math.cos(a) for a in angle])
    uy = np.array([math.sin(a) for a in angle])
    ray_t = np.repeat(np.arange(len(ts)), steps)
    mx, my = idx.mx[ray_t], idx.my[ray_t]
    half_w2 = np.array([(t.width / 2.0) ** 2 for t in ts])[ray_t]
    rr = sensor.r_max * sensor.r_max
    outer = np.full(ray_t.size, np.inf)
    for ex, ey in ((idx.sx, idx.sy), (idx.ex, idx.ey)):
        c = ux * (ex[ray_t] - mx) + uy * (ey[ray_t] - my)
        disc = c * c + rr - half_w2
        reach = c + np.sqrt(np.where(disc < 0.0, 0.0, disc))
        # r_max shorter than the endpoint offset: no reach
        outer = np.where(disc < 0.0, -np.inf, np.where(reach < outer, reach, outer))
    # rings by repeated subtraction, which rounds as a walk inward does and
    # outer - k * eps_r does not
    floor = np.array([max(sensor.r_min, t.width) - tol.eps_len for t, tol in zip(ts, tols)])[ray_t]
    rays, radii = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    live = np.flatnonzero(outer >= floor)
    # counted before any ring is built: a step below half an ulp of the
    # radius never shortens it, and the walk would not end
    if np.sum(np.floor((outer[live] - floor[live]) / eps_r) + 1.0) > MAX_GRID_POINTS:
        raise ValueError(f"a {eps_r:g} radial step puts more than {MAX_GRID_POINTS} samples in the fields")
    r = outer[live]
    while live.size:
        rays.append(live)
        radii.append(r)
        r = r - eps_r
        on = r >= floor[live]
        live, r = live[on], r[on]
    ray, r = np.concatenate(rays), np.concatenate(radii)
    order = np.argsort(ray, kind="stable")
    ray, r = ray[order], r[order]
    x = mx[ray] + r * ux[ray]
    y = my[ray] + r * uy[ray]

    tj = ray_t[ray]
    eps_ang = np.array([tol.eps_ang for tol in tols])
    lengths, angles = clause_slacks(x, y, tj, idx, eps_len[tj], eps_ang[tj])
    # np.hypot and np.arctan2 may differ from math's in the last bits, far
    # below these margins (thousands of ulps): a slack within one is left to covers
    margins = [1e-3 * eps_len[tj]] * len(lengths) + [1e-12] * len(angles)
    slacks = lengths + angles
    fails = np.logical_or.reduce([slack < -m for slack, m in zip(slacks, margins)])
    keep = np.logical_and.reduce([slack > m for slack, m in zip(slacks, margins)])
    for k in np.flatnonzero(~fails & ~keep).tolist():
        keep[k] = covers(ts[tj[k]], (float(x[k]), float(y[k])), sensor, tols[tj[k]])
    xy = _clamp_to_area(np.stack([x[keep], y[keep]], axis=1), s)
    kept = _dedupe(xy, np.full(len(xy), _TAG_RANK["bcpf-sample"]), s.tol.eps_len)
    return CandidateSet([tuple(p) for p in xy[kept].tolist()], ["bcpf-sample"] * len(kept),
                        params={"algo": "bcpf", "eps_a": eps_a, "eps_r": eps_r})


def grid_sample(s: Scenario, grid_eps: float) -> CandidateSet:
    """Centers of a uniform grid of grid_eps x grid_eps cells over the area."""
    if grid_eps <= 0.0:
        raise ValueError("grid step must be positive")
    if grid_eps > min(s.width, s.height):
        raise ValueError("grid step exceeds the area")
    # counts capped above the bound stay finite and keep the product above it
    cap = MAX_GRID_POINTS + 1.0
    nx = math.floor(min(s.width / grid_eps + 1e-9, cap))
    ny = math.floor(min(s.height / grid_eps + 1e-9, cap))
    if nx * ny > MAX_GRID_POINTS:
        raise ValueError(f"a {grid_eps:g} grid step puts more than {MAX_GRID_POINTS} points in the area")
    points = [
        ((i + 0.5) * grid_eps, (j + 0.5) * grid_eps)
        for j in range(ny)
        for i in range(nx)
    ]
    tags = ["grid"] * len(points)
    return CandidateSet(points, tags, params={"algo": "grid", "grid_eps": grid_eps})
