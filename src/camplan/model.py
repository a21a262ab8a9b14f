"""Domain model: sensors, targets, obstacles, scenarios, placements, solutions."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geom import (EPS_ANG, Point, Segment, box_pairs, point_segment_distance, scaled_eps,
                   segment_boxes, segment_segment_distance)


@dataclass(frozen=True, slots=True)
class SensorSpec:
    """Uniform camera model: angle of view, range band, max facing rotation.

    Angles are stored in degrees (the file unit) so documents round-trip
    bit-exactly; use .theta / .phi for radians.
    """

    aov_deg: float
    r_min: float
    r_max: float
    phi_deg: float = 90.0

    @property
    def theta(self) -> float:
        return math.radians(self.aov_deg)

    @property
    def phi(self) -> float:
        return math.radians(self.phi_deg)


@dataclass(frozen=True, slots=True)
class Target:
    """Oriented segment target: endpoints plus a unit normal giving its facing side."""

    id: int
    start: Point
    end: Point
    normal: Point

    @property
    def midpoint(self) -> Point:
        return ((self.start[0] + self.end[0]) / 2.0, (self.start[1] + self.end[1]) / 2.0)

    @property
    def width(self) -> float:
        return math.dist(self.start, self.end)

    @property
    def segment(self) -> Segment:
        return Segment(self.start, self.end)


@dataclass(frozen=True, slots=True)
class Obstacle:
    id: int
    chain: tuple[Point, ...]

    def edges(self) -> list[Segment]:
        return [Segment(a, b) for a, b in zip(self.chain, self.chain[1:])]


@dataclass(frozen=True, slots=True)
class Scenario:
    width: float
    height: float
    sensor: SensorSpec
    targets: tuple[Target, ...]
    obstacles: tuple[Obstacle, ...] = ()

    @property
    def n(self) -> int:
        return len(self.targets)

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def eps_len(self) -> float:
        return scaled_eps(self.diameter)

    def blockers(self) -> list[Segment]:
        """All sight-blocking segments: the targets' own, the k-th target's
        k-th, then every obstacle edge."""
        return [t.segment for t in self.targets] + [e for obs in self.obstacles for e in obs.edges()]

    def in_area(self, p: Point, slack: float = 0.0) -> bool:
        return -slack <= p[0] <= self.width + slack and -slack <= p[1] <= self.height + slack


@dataclass(frozen=True, slots=True)
class CameraPlacement:
    position: Point
    vd: float  # viewing direction, radians in [0, 2*pi)


class CandidateConfig(NamedTuple):
    """One maximal coverable subset at one candidate point.

    vd_rep, the centre of the members' angular span, is a viewing direction
    that covers them all.  Interval and midpoint bearings of the covered
    targets are kept: they give the window of directions for any subset of
    them, so selection can re-optimize the direction later.  A `ConfigTable`
    holds configs as arrays and builds these as views.
    """

    source: int                 # candidate index in the CandidateSet
    position: Point
    vd_rep: float
    covered: tuple[int, ...]    # target ids
    interval_lo: tuple[float, ...]
    interval_hi: tuple[float, ...]
    mid_bearings: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class ConfigTable:
    """Candidate configs as one struct of arrays.

    Per config i: the `CandidateConfig` fields source, position (row of an
    (m, 2) array) and vd_rep.  Its members are entries ptr[i]:ptr[i + 1] of
    the member arrays: target id (`covered`), the target's column in the
    scenario's target list (`col`), interval_lo, interval_hi and
    mid_bearings.
    `table[i]` builds config i as a `CandidateConfig`.
    """

    source: np.ndarray
    position: np.ndarray
    vd_rep: np.ndarray
    ptr: np.ndarray
    covered: np.ndarray
    col: np.ndarray
    interval_lo: np.ndarray
    interval_hi: np.ndarray
    mid_bearings: np.ndarray

    def __len__(self) -> int:
        return len(self.source)

    def __getitem__(self, i: int) -> CandidateConfig:
        if not 0 <= i < len(self.source):
            raise IndexError(f"config {i} outside 0:{len(self.source)}")
        a, b = self.ptr[i:i + 2].tolist()
        return CandidateConfig(
            int(self.source[i]),
            tuple(self.position[i].tolist()),
            float(self.vd_rep[i]),
            tuple(self.covered[a:b].tolist()),
            tuple(self.interval_lo[a:b].tolist()),
            tuple(self.interval_hi[a:b].tolist()),
            tuple(self.mid_bearings[a:b].tolist()),
        )


@dataclass
class Solution:
    placements: list[CameraPlacement]
    assignment: dict[int, int]  # target id -> placement index
    meta: dict = field(default_factory=dict)


@dataclass
class ValidationIssue:
    entity: str
    message: str

    def __str__(self) -> str:
        return f"{self.entity}: {self.message}"


@dataclass
class ValidationReport:
    errors: list[ValidationIssue] = field(default_factory=list)
    warnings: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


# Largest area side and range: squared distances between points of the area
# stay finite (targets and obstacles must lie in the area).
MAX_LENGTH = 1e100


def validate_scenario(s: Scenario) -> ValidationReport:
    """Check sensor parameters, target/obstacle geometry and pairwise disjointness."""
    rep = ValidationReport()
    err = rep.errors.append
    warn = rep.warnings.append
    eps = s.eps_len

    if not (s.width > 0 and s.height > 0):
        err(ValidationIssue("area", f"non-positive area {s.width}x{s.height}"))
    if max(s.width, s.height) > MAX_LENGTH:
        err(ValidationIssue("area", f"side beyond {MAX_LENGTH:g}"))
    sensor = s.sensor
    for name in ("aov_deg", "r_min", "r_max", "phi_deg"):
        if not math.isfinite(getattr(sensor, name)):
            err(ValidationIssue("sensor", f"non-finite {name} {getattr(sensor, name)}"))
    if not (0.0 < sensor.theta < 2.0 * math.pi):
        err(ValidationIssue("sensor", f"aov {sensor.aov_deg} deg outside (0, 360)"))
    if sensor.r_min < 0.0:
        err(ValidationIssue("sensor", f"negative r_min {sensor.r_min}"))
    if sensor.r_min >= sensor.r_max:
        err(ValidationIssue("sensor", f"r_min {sensor.r_min} >= r_max {sensor.r_max}"))
    if sensor.r_max > MAX_LENGTH:
        err(ValidationIssue("sensor", f"r_max beyond {MAX_LENGTH:g}"))
    if not (0.0 < sensor.phi <= math.pi / 2.0 + EPS_ANG):
        err(ValidationIssue("sensor", f"phi {sensor.phi_deg} deg outside (0, 90]"))

    seen_ids: set[int] = set()
    for t in s.targets:
        name = f"target {t.id}"
        if t.id in seen_ids:
            err(ValidationIssue(name, "duplicate id"))
        seen_ids.add(t.id)
        if not -(1 << 63) <= t.id < 1 << 63:
            err(ValidationIssue(name, "id outside the signed 64-bit range"))
        w = t.width
        if w <= eps:
            err(ValidationIssue(name, "zero-width target"))
            continue
        nlen = math.hypot(*t.normal)
        if abs(nlen - 1.0) > 1e-9:
            err(ValidationIssue(name, f"normal not unit length (|n|={nlen:.12g})"))
        d = ((t.end[0] - t.start[0]) / w, (t.end[1] - t.start[1]) / w)
        if abs(d[0] * t.normal[0] + d[1] * t.normal[1]) > 1e-9:
            err(ValidationIssue(name, "normal not perpendicular to segment"))
        if not (s.in_area(t.start, eps) and s.in_area(t.end, eps)):
            err(ValidationIssue(name, "outside area"))
        if w > sensor.r_max / 2.0 + eps:
            warn(ValidationIssue(name, f"width {w:.6g} > r_max/2 (narrow-target assumption broken)"))

    # segments within eps_len of each other have overlapping boxes grown by pad;
    # blocker k < n is target k, an obstacle edge may touch one only at endpoints
    pad = 2.0 * eps
    blockers, n = s.blockers(), s.n
    owner = [obs.id for obs in s.obstacles for _ in obs.edges()]
    near_i, near_k = box_pairs(*segment_boxes(blockers[:n], pad), *segment_boxes(blockers, pad))
    later = near_k > near_i
    on_target: dict[tuple[int, int], None] = {}
    for i, k in zip(near_i[later].tolist(), near_k[later].tolist()):
        a, b = blockers[i], blockers[k]
        if segment_segment_distance(a, b) <= eps and not _touch_only_at_endpoints(a, b, eps):
            if k < n:
                err(ValidationIssue(f"targets {s.targets[i].id},{s.targets[k].id}",
                                    "overlap (not an endpoint contact)"))
            else:
                on_target[(owner[k - n], s.targets[i].id)] = None

    seen_obstacle_ids: set[int] = set()
    for obs in s.obstacles:
        name = f"obstacle {obs.id}"
        if obs.id in seen_obstacle_ids:
            err(ValidationIssue(name, "duplicate id"))
        seen_obstacle_ids.add(obs.id)
        if len(obs.chain) < 2:
            err(ValidationIssue(name, "chain needs at least 2 points"))
            continue
        for k, (a, b) in enumerate(zip(obs.chain, obs.chain[1:])):
            if math.dist(a, b) <= eps:
                err(ValidationIssue(name, f"degenerate edge {k}"))
        for p in obs.chain:
            if not s.in_area(p, eps):
                err(ValidationIssue(name, "outside area"))
                break

    for oid, tid in on_target:
        err(ValidationIssue(f"obstacle {oid}", f"lies on target {tid} (not an endpoint contact)"))
    return rep


def _touch_only_at_endpoints(s1: Segment, s2: Segment, eps: float) -> bool:
    close = 0
    for p in (s1.a, s1.b):
        for q in (s2.a, s2.b):
            if math.dist(p, q) <= eps:
                close += 1
    if close == 0:
        return False
    # contact must be confined to the shared endpoint(s): interiors stay apart
    mid1 = s1.midpoint()
    mid2 = s2.midpoint()
    return point_segment_distance(mid1, s2) > eps and point_segment_distance(mid2, s1) > eps

