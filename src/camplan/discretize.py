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
from .geom import (CurveTable, DegenerateError, Piece, Point, Segment, box_pairs, circle_table, curve_table,
                   intersections)
from .model import Scenario, Target
from .sweep import ScenarioIndex, clause_verdicts

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
    view-circle intersections.  Complete for joint coverage when r_min = 0.
    Intersections are computed only for pieces that can meet (see the
    comment after this function)."""
    if s.sensor.r_min > 0.0:
        raise ValueError("comprehensive candidates require r_min = 0")
    if any(t.width > s.sensor.r_max / 2.0 + s.tol.eps_len for t in s.targets):
        raise ValueError("comprehensive candidates require target width <= r_max/2")
    eps = s.tol.eps_len
    regions = [cpf(t, s) for t in s.targets]
    uncoverable = tuple(t.id for t, reg in zip(s.targets, regions) if reg.is_empty())

    pieces = [list(reg.pieces()) for reg in regions]
    flat = [pc for pcs in pieces for pc in pcs]
    table, box = curve_table(flat, pieces=True), _piece_boxes(flat)
    # pieces first[k]:first[k + 1] of `flat` are those of target k
    first = np.cumsum([0] + [len(pcs) for pcs in pieces])
    owner = np.repeat(np.arange(len(pieces)), np.diff(first))
    pairs = _interacting_pairs(s)
    # view circles as rows (x, y, r, target), one per call group of the
    # view-circle loop, in its order: pair, circle, then the pair's targets
    rings = np.array([(*c.center, c.radius, k) for i, j in pairs if s.sensor.theta < math.pi
                      for c in _pair_view_circles(s.targets[i], s.targets[j], s.sensor.theta)
                      for k in (i, j)], dtype=float).reshape(-1, 4)
    ext = _extent(box, table.circle[:, 2], rings[:, :3])
    reach = _grow_boxes(box, table.circle[:, 2], eps, ext)
    # calls (piece, piece) for the pairs' pieces whose grown boxes meet, in
    # the pair loop's order: by pair, then piece of the one, piece of the
    # other (box_pairs lists them in that order within each pair)
    a, b = box_pairs(reach[:, :2], reach[:, 2:])
    key = owner[a] * s.n + owner[b]
    met = np.flatnonzero(np.isin(key, [i * s.n + j for i, j in pairs]))
    met = met[np.argsort(key[met], kind="stable")]
    crossings = len(met)
    # then a call (piece, view circle) for each piece of the circle's target
    # whose grown box meets the circle's ring, by call group, then piece
    ring = [np.zeros((0, 2), dtype=np.int64)]   # rows (view circle, piece)
    for k in range(s.n):
        mine = np.flatnonzero(rings[:, 3] == k)
        row, a_k = np.nonzero(_reaches_ring(reach[first[k]:first[k + 1]], rings[mine, :3], eps, ext))
        ring.append(np.column_stack((mine[row], first[k] + a_k)))
    ring = np.concatenate(ring)
    row, piece = ring[np.lexsort((ring[:, 1], ring[:, 0]))].T
    ia = np.concatenate([a[met], piece])
    ib = np.concatenate([b[met], len(flat) + np.arange(len(piece))])
    other = CurveTable(*map(np.concatenate, zip(table, circle_table(rings[row, :3]))))
    call, found, _ = intersections(table, ia, other, ib, eps)

    verts = [v for reg in regions for v in reg.vertices()]
    xy = _clamp_to_area(np.concatenate([np.array(verts, dtype=float).reshape(-1, 2), found]), s)
    rank = np.concatenate([np.full(len(verts), _TAG_RANK["cpf-critical"]),
                           np.where(call < crossings, _TAG_RANK["cpf-x-cpf"], _TAG_RANK["cpf-x-aov"])])
    del regions, pieces, flat   # free the fields before the merge
    kept = _dedupe(xy, rank, eps)
    tags = list(_TAG_RANK)   # in rank order
    return CandidateSet([tuple(p) for p in xy[kept].tolist()], [tags[r] for r in rank[kept].tolist()],
                        params={"algo": "comprehensive"}, uncoverable=uncoverable)


# The calls above skip a pair only when no point the kernel keeps can exist,
# so every call that runs is one the unpruned pair loops make, in their
# order, and the candidates are the same.  A pair of pieces is kept when
# their bounding boxes, each grown by the piece's reach, overlap: a kept
# point lies within reach of both pieces, so both grown boxes hold it.
#
# Reach, from the acceptance rules of `geom.intersections`:
# - Segment piece: a point is kept within 2*eps of it.
# - Arc of radius r: only the angle is checked, within
#   tol = 2*eps/max(r, eps) of the sweep, so a kept point o off the circle
#   lies within o + (r + o)*tol of the arc.  `_off_circle` bounds o over the
#   rules that can return the point, with
#   rho = eps*max(r, 1) + eps^2*ext (plus rounding):
#   - segment x circle, roots: on the circle, then moved up to eps along the
#     segment when its parameter is clamped;
#   - segment x circle, near tangency (negative discriminant accepted): the
#     foot of the perpendicular at D from the center, with
#     D^2 - r^2 < eps*max(r, 1) <= rho, so D - r < min(rho/r, sqrt(rho)),
#     up to sqrt(eps) off a tiny view circle; then clamped by up to eps;
#   - circle x circle, two points: on both circles;
#   - circle x circle, tangency (h^2 = r1^2 - a^2 in [0, eps^2*max(r1, 1)]):
#     the midpoint of the common chord of half-length h, inside each circle
#     by at most min(h, h^2/r) <= min(sqrt(rho), rho/r), as h^2 <= eps^2*ext;
#   - circle x circle, apart by delta <= eps (d > r1 + r2): on the line of
#     centers, off each circle by at most delta;
#   - circle x circle, nested by delta <= eps (d < |r1 - r2|): on the line of
#     centers, midway between the circles' nearest points, off each by delta/2.
# - View circle: a kept point lies within `_off_circle` of it as well, so a
#   piece is kept when its grown box meets the ring r - o .. r + o.
# Rounding: every kernel quantity is formed from magnitudes <= ext, so a
# computed coordinate is within 16*ulp*ext of its exact value, a
# discriminant or h^2 within 16*ulp*ext^2 (added to rho), and a crossing of
# two circles within 16*ulp*ext^2/r of circle r.
_ULP = float(np.finfo(float).eps)


def _piece_boxes(pieces: list[Piece]) -> np.ndarray:
    """(m, 4) bounding boxes x_lo, y_lo, x_hi, y_hi of the pieces.  An arc's
    box holds its ends and each axis extreme inside its sweep."""
    rows = []
    for pc in pieces:
        if isinstance(pc, Segment):
            ends = [pc.a, pc.b]
        else:
            (cx, cy), r = pc.circle.center, pc.circle.radius
            ends = [pc.start_point(), pc.end_point()] + [
                (cx + r * ux, cy + r * uy)
                for q, (ux, uy) in enumerate(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))
                if pc.angle_inside(q * math.pi / 2.0)]
        xs, ys = zip(*ends)
        rows.append((min(xs), min(ys), max(xs), max(ys)))
    return np.array(rows, dtype=float).reshape(-1, 4)


def _extent(box: np.ndarray, radius: np.ndarray, rings: np.ndarray) -> float:
    """Largest magnitude the kernels meet, at least 1: a piece coordinate plus
    twice the largest arc radius (NaN for a segment) bounds an arc's center
    coordinate plus its radius; a view circle's, a row (x, y, r) of rings."""
    piece = float(np.abs(box).max(initial=0.0)) + 2.0 * float(np.nan_to_num(radius).max(initial=0.0))
    view = float((np.abs(rings[:, :2]).max(axis=1, initial=0.0) + rings[:, 2]).max(initial=0.0))
    return max(1.0, piece, view)


def _off_circle(r: np.ndarray, eps: float, ext: float) -> np.ndarray:
    """How far off a circle of radius r a kept point may lie (see above)."""
    rnd = 16.0 * _ULP * ext * ext
    rho = eps * np.maximum(r, 1.0) + eps * eps * ext + rnd
    return eps + np.minimum(rho / r, np.sqrt(rho)) + rnd / r + 16.0 * _ULP * ext


def _grow_boxes(box: np.ndarray, radius: np.ndarray, eps: float, ext: float) -> np.ndarray:
    """Piece boxes grown by each piece's reach (see above)."""
    grow = np.full(len(box), 2.0 * eps)
    arc = ~np.isnan(radius)
    r = radius[arc]
    off = _off_circle(r, eps, ext)
    grow[arc] = off + (r + off) * (2.0 * eps / np.maximum(r, eps))
    grow += 16.0 * _ULP * ext
    return np.concatenate([box[:, :2] - grow[:, None], box[:, 2:] + grow[:, None]], axis=1)


def _reaches_ring(box: np.ndarray, rings: np.ndarray, eps: float, ext: float) -> np.ndarray:
    """(k, m) mask of the boxes that meet ring k: the points within
    `_off_circle` of circle k, a row (x, y, r) of `rings`."""
    c = rings[:, None, :2]
    near = np.maximum(np.maximum(box[None, :, :2] - c, c - box[None, :, 2:]), 0.0)
    far = np.maximum(np.abs(box[None, :, :2] - c), np.abs(box[None, :, 2:] - c))
    r = rings[:, None, 2]
    off = _off_circle(r, eps, ext)
    return (np.hypot(near[..., 0], near[..., 1]) <= r + off) & (np.hypot(far[..., 0], far[..., 1]) >= r - off)


def _interacting_pairs(s: Scenario) -> list[tuple[int, int]]:
    """Index pairs (i < j, in row-major order) whose placement fields could
    touch, midpoints within 2 r_max plus both widths (others cannot meet)."""
    eps = s.tol.eps_len
    mids = np.array([t.midpoint for t in s.targets], dtype=float).reshape(-1, 2)
    # boxes about the midpoints, each grown by its half of the reach and
    # padded for rounding, keep every pair the exact test below accepts
    grow = np.array([s.sensor.r_max + t.width + eps for t in s.targets])[:, None]
    out = []
    for i, j in zip(*(a.tolist() for a in box_pairs(mids - grow, mids + grow))):
        ti, tj = s.targets[i], s.targets[j]
        reach = 2.0 * s.sensor.r_max + ti.width + tj.width
        if math.dist(ti.midpoint, tj.midpoint) <= reach + s.tol.eps_len:
            out.append((i, j))
    return out


def _pair_view_circles(ti: Target, tj: Target, theta: float):
    """View-angle circles of the four chords joining endpoints across the pair."""
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
    array clauses of `sweep.clause_verdicts` decide membership where every
    slack clears a rounding margin; `covers` decides the few samples within
    it, so the samples are those `covers` accepts.
    """
    sensor = s.sensor
    steps = fan_steps(sensor.phi, eps_a, len(s.targets))
    check_steps(eps_r=eps_r)
    ts = s.targets
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
    keep, unsure = clause_verdicts(x, y, idx.cols(tj), sensor, eps_len[tj])
    for k in np.flatnonzero(unsure).tolist():
        keep[k] = covers(ts[tj[k]], (float(x[k]), float(y[k])), sensor, tols[tj[k]])
    xy = _clamp_to_area(np.stack([x[keep], y[keep]], axis=1), s)
    kept = _dedupe(xy, np.full(len(xy), _TAG_RANK["bcpf-sample"]), s.tol.eps_len)
    return CandidateSet([tuple(p) for p in xy[kept].tolist()], ["bcpf-sample"] * len(kept),
                        params={"algo": "bcpf", "eps_a": eps_a, "eps_r": eps_r})


def check_steps(**steps: float) -> None:
    """Refuse sampling steps that are not finite and positive (ValueError)."""
    for name, step in steps.items():
        if not (math.isfinite(step) and step > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {step:g}")


def fan_steps(phi: float, eps_a: float, n_targets: int) -> int:
    """Fan directions an eps_a step puts across a facing cone of half-width
    phi.  Refused (ValueError): a step wider than the cone, and a step whose
    fans over n_targets targets (one, if there are none) would hold more than
    MAX_GRID_POINTS rays, including one too small for its count to be finite."""
    check_steps(eps_a=eps_a)
    count = 2.0 * phi / eps_a
    if count < 1.0:
        raise ValueError(f"a {eps_a:g} rad angular step exceeds the {2.0 * phi:g} rad facing cone")
    if not math.isfinite(count) or max(n_targets, 1) * int(count) > MAX_GRID_POINTS:
        raise ValueError(f"a {eps_a:g} rad angular step puts more than {MAX_GRID_POINTS} rays "
                         f"in the fans of {n_targets} targets")
    return int(count)


def grid_shape(width: float, height: float, grid_eps: float) -> tuple[int, int]:
    """Columns and rows of the grid_eps grid over a width x height area."""
    check_steps(grid_eps=grid_eps)
    if grid_eps > min(width, height):
        raise ValueError("grid step exceeds the area")
    # counts capped above the bound stay finite and keep the product above it
    cap = MAX_GRID_POINTS + 1.0
    nx = math.floor(min(width / grid_eps + 1e-9, cap))
    ny = math.floor(min(height / grid_eps + 1e-9, cap))
    if nx * ny > MAX_GRID_POINTS:
        raise ValueError(f"a {grid_eps:g} grid step puts more than {MAX_GRID_POINTS} points in the area")
    return nx, ny


def grid_sample(s: Scenario, grid_eps: float) -> CandidateSet:
    """Centers of a uniform grid of grid_eps x grid_eps cells over the area."""
    nx, ny = grid_shape(s.width, s.height, grid_eps)
    points = [((i + 0.5) * grid_eps, (j + 0.5) * grid_eps) for j in range(ny) for i in range(nx)]
    return CandidateSet(points, ["grid"] * len(points), params={"algo": "grid", "grid_eps": grid_eps})
