"""Candidate camera locations.

Three schemes with very different cost/quality trade-offs: the comprehensive
set (field boundary vertices and field/field and field/view-circle
intersections, complete for joint-coverage configurations), polar sampling of
each target's basic placement field, and a uniform grid over the area.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fields import aov_pair, covers, cpf, field_tolerance
from .geom import DegenerateError, Piece, Point, piece_curve_intersections, piece_intersections
from .model import Scenario, Target

_TAG_RANK = {"cpf-critical": 0, "cpf-x-cpf": 1, "cpf-x-aov": 2, "bcpf-sample": 3, "grid": 4}


@dataclass
class CandidateSet:
    points: list[Point]
    provenance: list[str]
    params: dict = field(default_factory=dict)
    uncoverable: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.points)


def _clamp_to_area(p: Point, s: Scenario) -> Point:
    return (min(max(p[0], 0.0), s.width), min(max(p[1], 0.0), s.height))


def _dedupe(tagged: list[tuple[Point, str]], eps: float) -> tuple[list[Point], list[str]]:
    """Merge points closer than eps, keeping the lexicographically smallest
    of each cluster (ties on position resolved by provenance rank)."""
    tagged = sorted(tagged, key=lambda it: (it[0], _TAG_RANK[it[1]]))
    kept: list[Point] = []
    tags: list[str] = []
    # grid buckets so dedupe stays near-linear
    cell = eps if eps > 0 else 1.0
    buckets: dict[tuple[int, int], list[int]] = {}
    for p, tag in tagged:
        key = (math.floor(p[0] / cell), math.floor(p[1] / cell))
        dup = False
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for idx in buckets.get((key[0] + dx, key[1] + dy), ()):
                    if math.dist(p, kept[idx]) <= eps:
                        dup = True
                        break
                if dup:
                    break
            if dup:
                break
        if dup:
            continue
        buckets.setdefault(key, []).append(len(kept))
        kept.append(p)
        tags.append(tag)
    return kept, tags


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

    tagged = [(_clamp_to_area(p, s), tag) for p, tag in tagged]
    points, tags = _dedupe(tagged, eps)
    return CandidateSet(points, tags, params={"algo": "comprehensive"}, uncoverable=uncoverable)


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
    """
    if eps_a <= 0.0 or eps_r <= 0.0:
        raise ValueError("sampling steps must be positive")
    sensor = s.sensor
    tagged: list[tuple[Point, str]] = []
    for t in s.targets:
        tol = field_tolerance(t, sensor)
        mx, my = t.midpoint
        base = math.atan2(t.normal[1], t.normal[0])
        half_w2 = (t.width / 2.0) ** 2
        r_floor = max(sensor.r_min, t.width)
        steps = int(2.0 * sensor.phi / eps_a)
        for i in range(steps):
            psi = -sensor.phi + (i + 0.5) * eps_a
            ux, uy = math.cos(base + psi), math.sin(base + psi)
            outer = math.inf
            for e in (t.start, t.end):
                c = ux * (e[0] - mx) + uy * (e[1] - my)
                disc = c * c + sensor.r_max * sensor.r_max - half_w2
                if disc < 0.0:  # r_max shorter than the endpoint offset: no reach
                    outer = -math.inf
                    break
                outer = min(outer, c + math.sqrt(disc))
            r = outer
            while r >= r_floor - tol.eps_len:
                p = (mx + r * ux, my + r * uy)
                if covers(t, p, sensor, tol):
                    tagged.append((p, "bcpf-sample"))
                r -= eps_r
    tagged = [(_clamp_to_area(p, s), "bcpf-sample") for p, _ in tagged]
    points, tags = _dedupe(tagged, s.tol.eps_len)
    return CandidateSet(points, tags, params={"algo": "bcpf", "eps_a": eps_a, "eps_r": eps_r})


# Most points grid_sample builds; a finer grid over the area is rejected.
MAX_GRID_POINTS = 1_000_000


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
