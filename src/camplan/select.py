"""Greedy set-cover over candidate configurations, and solution verification
by `fields.covers` at the scene tolerance with the blockers near each
target's sight triangle."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geom import Segment, _norm_angle_np, _wrap_pi_np, norm_angle
from .model import CameraPlacement, ConfigTable, Scenario, Solution
from .fields import covers, interacting_blockers


class InfeasibleError(Exception):
    """Coverage stalled; `uncovered` lists the target ids no config can add."""

    def __init__(self, uncovered):
        self.uncovered = tuple(sorted(uncovered))
        super().__init__(f"no candidate configuration covers targets {list(self.uncovered)}")


def _aim(table: ConfigTable, rows: np.ndarray, open_col: np.ndarray, theta: float,
         mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Per config in rows (each with a member whose column open_col marks
    open): the deviation-minimizing direction for its open members within
    their vd window, by mode f1 (median bearing) or finf (midpoint of the
    extremes), and their total deviation from it.  One pass over all the
    configs, in the arithmetic of the scalar window and direction rules."""
    if mode not in ("f1", "finf"):
        raise ValueError(f"unknown vd optimization mode {mode!r}")
    cnt = table.ptr[rows + 1] - table.ptr[rows]
    owner = np.repeat(np.arange(rows.size), cnt)
    member = np.repeat(table.ptr[rows] - (np.cumsum(cnt) - cnt), cnt) + np.arange(owner.size)
    live = open_col[table.col[member]]
    owner, member = owner[live], member[live]
    first = np.searchsorted(owner, np.arange(rows.size))
    k = np.diff(np.append(first, owner.size))
    lo, hi, mid = table.interval_lo[member], table.interval_hi[member], table.mid_bearings[member]
    vd_rep = table.vd_rep[rows]
    # the window the open members leave: every interval sits within theta
    # of vd_rep, so relative to it the window is linear
    r = _wrap_pi_np(lo - vd_rep[owner])
    w_lo = np.maximum.reduceat(r + _norm_angle_np(hi - lo), first) - theta / 2.0
    w_hi = np.minimum.reduceat(r, first) + theta / 2.0
    window = np.where(0.0 > w_hi - w_lo, 0.0, w_hi - w_lo)
    # the bearings sorted around the window's center; the median pair (one
    # bearing twice for an odd count) or the extremes, averaged and clamped
    center = _norm_angle_np(vd_rep + w_lo) + window / 2.0
    rel = _wrap_pi_np(mid - center[owner])
    rel = rel[np.lexsort((rel, owner))]
    a, b = (first, first + k - 1) if mode == "finf" else (first + (k - 1) // 2, first + k // 2)
    best = (rel[a] + rel[b]) / 2.0
    half = window / 2.0
    best = np.where(-half > best, -half, best)
    alpha = _norm_angle_np(center + np.where(half < best, half, best))
    # the deviations summed member by member in member order: a running sum
    # down each zero-padded column adds in that order, where a reduction may not
    dev = np.zeros((int(k.max(initial=1)), rows.size))
    dev[np.arange(owner.size) - first.take(owner), owner] = np.abs(_wrap_pi_np(mid - alpha.take(owner)))
    return alpha, np.cumsum(dev, axis=0)[-1]


def greedy_cover(table: ConfigTable, s: Scenario, vd_mode: str = "f1") -> Solution:
    """Pick configs by maximum new coverage; break ties by minimum achievable
    total deviation over the newly covered targets, then by lowest config index.

    Each selected camera's final direction is re-optimized for exactly the
    targets assigned to it.

    Gains stay exact without recounting: covering a target takes one off the
    gain of each config covering it, found through an inverse index built from
    the table's member columns. As gains only fall, the tie at the maximum
    gain is kept across rounds, and all gains are rescanned only when it
    empties. A tie-break score depends only on the config's uncovered
    members, so it is cached, with the f1 direction it was taken at, until
    one of them is covered; a round scores its uncached tied configs, if
    any, in one `_aim` pass.
    """
    n = len(s.targets)
    theta = s.sensor.theta

    if n == 0:
        return Solution(placements=[], assignment={}, meta={"rounds": 0})

    m = len(table)
    # (config, column) pairs as keys column * m + config, deduplicated and
    # sorted: the configs covering target column k are rows[ptr[k]:ptr[k + 1]]
    owner = np.repeat(np.arange(m), np.diff(table.ptr))
    key = np.sort(table.col * m + owner)
    key = key[np.diff(key, prepend=-1) != 0]
    rows = key % m
    ptr = np.searchsorted(key, np.arange(n + 1) * m)
    gains = np.bincount(rows, minlength=m)
    score = np.full(m, np.nan)   # cached tie-break scores, NaN until computed,
    aim = np.full(m, np.nan)     # and the f1 directions they were taken at

    open_col = np.ones(n, dtype=bool)   # target columns not yet covered
    placements: list[CameraPlacement] = []
    assignment: dict[int, int] = {}
    selected: list[int] = []

    tied, best_gain = np.zeros(0, dtype=np.int64), 0
    while open_col.any():
        # gains only fall: while some of the last round's tie still holds
        # best_gain, no config has more and every config at it is among them
        tied = tied[gains[tied] == best_gain]
        if not tied.size:
            best_gain = gains.max(initial=0)
            if best_gain == 0:
                raise InfeasibleError(s.targets[k].id for k in np.flatnonzero(open_col).tolist())
            tied = np.flatnonzero(gains == best_gain)
        todo = tied[np.isnan(score[tied])]   # a lone config too: its f1 aim is its direction
        if todo.size:
            aim[todo], score[todo] = _aim(table, todo, open_col, theta, "f1")
        pick = int(tied[np.argmin(score[tied])])

        if vd_mode in ("none", "f1"):
            alpha = float((table.vd_rep if vd_mode == "none" else aim)[pick])
        else:
            alpha = float(_aim(table, np.array([pick]), open_col, theta, vd_mode)[0][0])
        index = len(placements)
        placements.append(CameraPlacement(tuple(table.position[pick].tolist()), norm_angle(alpha)))
        start, stop = table.ptr[pick:pick + 2].tolist()
        # a member listed twice is covered at its first entry
        for tid, k in zip(table.covered[start:stop].tolist(), table.col[start:stop].tolist()):
            if open_col[k]:
                holders = rows[ptr[k]:ptr[k + 1]]
                gains[holders] -= 1
                score[holders] = np.nan
                open_col[k] = False
                assignment[tid] = index
        selected.append(pick)

    return Solution(
        placements=placements,
        assignment=assignment,
        meta={"rounds": len(placements), "selected_configs": selected},
    )


# --- verification -------------------------------------------------------------


@dataclass
class TargetCheck:
    target_id: int
    ok: bool
    clauses: dict = field(default_factory=dict)   # clause name -> bool
    margins: dict = field(default_factory=dict)   # diagnostic slacks

    def failed_clauses(self) -> list[str]:
        return [name for name, good in self.clauses.items() if not good]


@dataclass
class VerificationReport:
    checks: list[TargetCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[TargetCheck]:
        return [c for c in self.checks if not c.ok]


def verify_solution(s: Scenario, sol: Solution) -> VerificationReport:
    """Re-check every target against its assigned placement from first principles.

    An assigned target's blockers are its `interacting_blockers` within the
    box of its sight triangle grown by eps_len, all found in one query: the
    clip accepts a blocker only through a point more than eps_len inside
    the triangle, so the blockers left out cannot change a verdict."""
    n = len(sol.placements)
    cams = [sol.placements[i] if i is not None and 0 <= i < n else None
            for i in (sol.assignment.get(t.id) for t in s.targets)]
    assigned = [(t, cam) for t, cam in zip(s.targets, cams) if cam is not None]
    tri = np.array([(cam.position, t.start, t.end) for t, cam in assigned], dtype=float).reshape(-1, 3, 2)
    box = (tri.min(axis=1) - s.eps_len, tri.max(axis=1) + s.eps_len)
    found = iter(interacting_blockers([t for t, _ in assigned], s, box))
    return VerificationReport([
        TargetCheck(t.id, False, {"assigned": False}, {}) if cam is None
        else _check_target(t, cam, s, next(found)) for t, cam in zip(s.targets, cams)])


def _check_target(t, cam: CameraPlacement, s: Scenario, blockers: list[Segment]) -> TargetCheck:
    eps = s.eps_len
    clauses = {"in_area": s.in_area(cam.position, eps)}
    margins: dict = {}
    covers(t, cam.position, s.sensor, eps, vd=cam.vd, blockers=blockers, report=(clauses, margins))
    return TargetCheck(t.id, all(clauses.values()), clauses, margins)
