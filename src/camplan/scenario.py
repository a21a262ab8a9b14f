"""Random scenario generation and the scenario/solution/candidate file formats.

Documents are JSON with LF line endings. Angles live in the files as degrees;
floats are written with 17 significant digits so a parse/serialize cycle is
lossless for IEEE doubles.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from .discretize import CandidateSet
from .geom import Segment, Tolerance, segment_segment_distance
from .model import (
    CameraPlacement,
    Obstacle,
    Scenario,
    SensorSpec,
    Solution,
    Target,
    validate_scenario,
)

MAX_REJECTS = 100_000


class PackingError(ValueError):
    pass


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class GenParams:
    width: float = 100.0
    height: float = 100.0
    n_targets: int = 10
    target_width: float = 1.0
    min_separation: float | None = None  # None: one target width
    n_obstacles: int = 0
    margin: float = 0.0  # keep segments this far from the area edges
    seed: int = 0

    @property
    def separation(self) -> float:
        return self.target_width if self.min_separation is None else self.min_separation


def check_params(p: GenParams) -> None:
    """Raise ValueError (PackingError when too dense) for parameters that
    `random_scenario` rejects whatever the seed."""
    for name in ("width", "height", "target_width", "min_separation", "margin"):
        if not math.isfinite(getattr(p, name) or 0.0):
            raise ValueError(f"{name} must be finite, got {getattr(p, name)}")
    if p.width <= 0 or p.height <= 0 or p.target_width <= 0:
        raise ValueError("generation parameters must be positive")
    if p.n_targets < 0 or p.n_obstacles < 0:
        raise ValueError("n_targets and n_obstacles must be >= 0")
    if p.separation < 0:
        raise ValueError("min_separation must be >= 0")
    if p.margin < 0:
        raise ValueError("margin must be >= 0")
    free_w = p.width - 2.0 * p.margin
    free_h = p.height - 2.0 * p.margin
    if free_w <= 0 or free_h <= 0:
        raise PackingError(f"margin {p.margin:g} leaves no placeable area")
    footprint = (p.target_width + p.separation) ** 2
    if (p.n_targets + p.n_obstacles) * footprint >= free_w * free_h:
        raise PackingError(
            f"requested density is infeasible: {p.n_targets + p.n_obstacles} "
            f"segments x {footprint:.3g} m^2 exceeds the {free_w:g}x{free_h:g} placeable area"
        )


def random_scenario(p: GenParams, sensor: SensorSpec) -> Scenario:
    """Targets uniform in position and orientation, rejection-sampled so that
    no two placed segments come closer than the separation gap.

    Obstacles, when requested, are free-standing walls one target-width long,
    packed under the same gap rule.  A positive margin keeps every segment away
    from the area edges, where cell-centred viewpoint grids cannot reach.

    A draw is tested only against segments whose drawn midpoints share its cell
    or one of the eight around it (side w + gap + 2 eps_len, w = target_width),
    so generation is linear in n.  The cut is exact: length-w segments whose
    midpoints lie over w + gap apart are over gap apart, and the scene's eps_len
    exceeds the rounding of endpoints and distances at every admitted area size.
    """
    check_params(p)
    rng = random.Random(p.seed)
    half = p.target_width / 2.0
    cell = p.target_width + p.separation + 2.0 * Tolerance.for_diameter(math.hypot(p.width, p.height)).eps_len
    grid: dict[tuple[int, int], list[Segment]] = {}
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
            cx, cy = math.floor(mx / cell), math.floor(my / cell)
            ok = (
                p.margin <= min(start[0], end[0])
                and max(start[0], end[0]) <= p.width - p.margin
                and p.margin <= min(start[1], end[1])
                and max(start[1], end[1]) <= p.height - p.margin
                and all(segment_segment_distance(seg, q) >= p.separation
                        for i in (cx - 1, cx, cx + 1) for j in (cy - 1, cy, cy + 1)
                        for q in grid.get((i, j), ()))
            )
            if ok:
                grid.setdefault((cx, cy), []).append(seg)
                return start, end, (-dy, dx)
            rejects += 1
            if rejects >= MAX_REJECTS:
                raise PackingError(f"packing failed after {MAX_REJECTS} rejected attempts")

    targets = []
    for i in range(p.n_targets):
        start, end, normal = sample_segment()
        targets.append(Target(id=i, start=start, end=end, normal=normal))
    obstacles = []
    for i in range(p.n_obstacles):
        start, end, _ = sample_segment()
        obstacles.append(Obstacle(id=i, chain=(start, end)))

    return Scenario(
        width=float(p.width),
        height=float(p.height),
        sensor=sensor,
        targets=tuple(targets),
        obstacles=tuple(obstacles),
    )


# --- document emission ----------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"cannot serialize non-finite number {v!r}")
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _emit(v, indent: int) -> str:
    pad = "  " * indent
    if isinstance(v, dict):
        if not v:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_emit(x, indent + 1)}' for k, x in v.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        parts = [_emit(x, indent + 1) for x in v]
        if all(not isinstance(x, (dict, list, tuple)) for x in v):
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(f"{pad}  {s}" for s in parts) + f"\n{pad}]"
    return _fmt(v)


def _document(obj: dict) -> str:
    return _emit(obj, 0) + "\n"


# --- document parsing -----------------------------------------------------------

def _loads(text: str):
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None


def _object(pairs: list) -> dict:
    """A JSON object; a repeated key, of which json keeps only the last, is refused."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ParseError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _field(obj, key, path: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    if key not in obj:
        raise ParseError(f"{path}: missing field {key!r}")
    return obj[key]


def _number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{path}: expected a number")
    try:
        x = float(v)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ParseError(f"{path}: expected a finite number")
    return x


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{path}: expected an integer")
    return v


def _point(v, path: str) -> tuple:
    if not isinstance(v, list) or len(v) != 2:
        raise ParseError(f"{path}: expected [x, y]")
    return (_number(v[0], path + "[0]"), _number(v[1], path + "[1]"))


def _array(v, path: str) -> list:
    if not isinstance(v, list):
        raise ParseError(f"{path}: expected an array")
    return v


# --- scenario documents -----------------------------------------------------------

def serialize_scenario(s: Scenario) -> str:
    return _document({
        "area": {"width": s.width, "height": s.height},
        "sensor": {
            "aov_deg": s.sensor.aov_deg,
            "r_min": s.sensor.r_min,
            "r_max": s.sensor.r_max,
            "phi_deg": s.sensor.phi_deg,
        },
        "targets": [
            {"id": t.id, "start": list(t.start), "end": list(t.end), "normal": list(t.normal)}
            for t in s.targets
        ],
        "obstacles": [
            {"id": o.id, "chain": [list(q) for q in o.chain]} for o in s.obstacles
        ],
    })


def parse_scenario(text: str) -> Scenario:
    doc = _loads(text)
    area = _field(doc, "area", "$")
    sensor_doc = _field(doc, "sensor", "$")
    sensor = SensorSpec(
        aov_deg=_number(_field(sensor_doc, "aov_deg", "$.sensor"), "$.sensor.aov_deg"),
        r_min=_number(_field(sensor_doc, "r_min", "$.sensor"), "$.sensor.r_min"),
        r_max=_number(_field(sensor_doc, "r_max", "$.sensor"), "$.sensor.r_max"),
        phi_deg=_number(sensor_doc.get("phi_deg", 90.0), "$.sensor.phi_deg"),
    )
    targets = []
    for k, td in enumerate(_array(doc.get("targets", []), "$.targets")):
        path = f"$.targets[{k}]"
        targets.append(Target(
            id=_integer(_field(td, "id", path), path + ".id"),
            start=_point(_field(td, "start", path), path + ".start"),
            end=_point(_field(td, "end", path), path + ".end"),
            normal=_point(_field(td, "normal", path), path + ".normal"),
        ))
    obstacles = []
    for k, od in enumerate(_array(doc.get("obstacles", []), "$.obstacles")):
        path = f"$.obstacles[{k}]"
        chain = tuple(
            _point(q, f"{path}.chain[{j}]")
            for j, q in enumerate(_array(_field(od, "chain", path), path + ".chain"))
        )
        obstacles.append(Obstacle(id=_integer(_field(od, "id", path), path + ".id"), chain=chain))

    s = Scenario(
        width=_number(_field(area, "width", "$.area"), "$.area.width"),
        height=_number(_field(area, "height", "$.area"), "$.area.height"),
        sensor=sensor,
        targets=tuple(targets),
        obstacles=tuple(obstacles),
    )
    report = validate_scenario(s)
    if not report.ok:
        raise ValidationFailure(report)
    return s


class ValidationFailure(ValueError):
    def __init__(self, report):
        self.report = report
        lines = "; ".join(str(i) for i in report.errors)
        super().__init__(f"scenario is invalid: {lines}")


# --- solution documents -----------------------------------------------------------

def serialize_solution(sol: Solution) -> str:
    return _document({
        "placements": [
            {"position": list(c.position), "vd_deg": math.degrees(c.vd)}
            for c in sol.placements
        ],
        "assignment": {str(tid): idx for tid, idx in sorted(sol.assignment.items())},
        "meta": dict(sol.meta),
    })


def parse_solution(text: str) -> Solution:
    doc = _loads(text)
    placements = []
    for k, cd in enumerate(_array(doc.get("placements", []), "$.placements")):
        path = f"$.placements[{k}]"
        placements.append(CameraPlacement(
            position=_point(_field(cd, "position", path), path + ".position"),
            vd=math.radians(_number(_field(cd, "vd_deg", path), path + ".vd_deg")),
        ))
    raw = doc.get("assignment", {})
    if not isinstance(raw, dict):
        raise ParseError("$.assignment: expected an object")
    assignment = {}
    for key, idx in raw.items():
        try:
            tid = int(key)
        except ValueError:
            tid = None
        # canonical decimal only: "01", "1_0" and " 7" would alias other ids
        if tid is None or str(tid) != key:
            raise ParseError(f"$.assignment: target id {key!r} is not a canonical decimal integer")
        assignment[tid] = _integer(idx, f"$.assignment[{key}]")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError("$.meta: expected an object")
    return Solution(placements=placements, assignment=assignment, meta=meta)


# --- candidate dumps ---------------------------------------------------------------

def serialize_candidates(cs: CandidateSet) -> str:
    return _document({
        "points": [list(q) for q in cs.points],
        "provenance": list(cs.provenance),
        "params": dict(cs.params),
        "uncoverable": list(cs.uncoverable),
    })
