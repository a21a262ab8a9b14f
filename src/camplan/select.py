"""Greedy set-cover over candidate configurations and solution verification."""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .geom import norm_angle, wrap_pi
from .model import CameraPlacement, CandidateConfig, ConfigTable, Scenario, Solution
from .fields import BlockerPool, covers, interacting_blockers
from .sweep import optimal_vd, subset_window


class InfeasibleError(Exception):
    """Coverage stalled; `uncovered` lists the target ids no config can add."""

    def __init__(self, uncovered):
        self.uncovered = tuple(sorted(uncovered))
        super().__init__(f"no candidate configuration covers targets {list(self.uncovered)}")


def _aim(cfg: CandidateConfig, open_ids: set, theta: float, mode: str) -> tuple[float, float]:
    """Deviation-minimizing direction for the members of cfg in `open_ids`,
    within their vd window, and their total deviation from it."""
    lo, window = subset_window(cfg, [tid for tid in cfg.covered if tid in open_ids], theta)
    mids = [b for tid, b in zip(cfg.covered, cfg.mid_bearings) if tid in open_ids]
    alpha = optimal_vd(mids, lo, window, mode)
    return alpha, sum(abs(wrap_pi(b - alpha)) for b in mids)


def greedy_cover(configs: ConfigTable | Sequence[CandidateConfig], s: Scenario,
                 vd_mode: str = "f1") -> Solution:
    """Pick configs by maximum new coverage; break ties by minimum achievable
    total deviation over the newly covered targets, then by lowest config index.

    Each selected camera's final direction is re-optimized for exactly the
    targets assigned to it.

    Gains stay exact without recounting: covering a target takes one off the
    gain of each config covering it, found through an inverse index built from
    the table's member columns. A tie-break score depends only on the config's
    uncovered members, so it is cached until one of them is covered. Only the
    configs scored in a tie or picked are built as `CandidateConfig` views.
    """
    table = configs if isinstance(configs, ConfigTable) else ConfigTable.from_configs(configs, s.targets)
    ids = [t.id for t in s.targets]
    n = len(ids)
    theta = s.sensor.theta

    if n == 0:
        return Solution(placements=[], assignment={}, meta={"rounds": 0})

    m = len(table)
    # (config, column) pairs as keys column * m + config, deduplicated and
    # sorted: the configs covering target column k are rows[ptr[k]:ptr[k + 1]]
    cols = table.col
    owner = np.repeat(np.arange(m), np.diff(table.ptr))
    key = np.sort(cols * m + owner)
    key = key[np.diff(key, prepend=-1) != 0]
    rows = key % m
    ptr = np.searchsorted(key, np.arange(n + 1) * m)
    gains = np.bincount(rows, minlength=m)
    score = np.full(m, np.nan)   # cached tie-break scores, NaN until computed

    open_ids = set(ids)   # targets not yet covered
    placements: list[CameraPlacement] = []
    assignment: dict[int, int] = {}
    selected: list[int] = []

    while open_ids:
        best_gain = gains.max(initial=0)
        if best_gain == 0:
            raise InfeasibleError(open_ids)
        tied = np.flatnonzero(gains == best_gain)
        if tied.size > 1:
            for i in tied[np.isnan(score[tied])].tolist():
                score[i] = _aim(table[i], open_ids, theta, "f1")[1]
            pick = int(tied[np.argmin(score[tied])])
        else:
            pick = int(tied[0])

        cfg = table[pick]
        start, stop = table.ptr[pick:pick + 2].tolist()
        fresh = [(tid, k) for tid, k in zip(cfg.covered, cols[start:stop].tolist()) if tid in open_ids]
        alpha = cfg.vd_rep if vd_mode == "none" else _aim(cfg, open_ids, theta, vd_mode)[0]
        index = len(placements)
        placements.append(CameraPlacement(cfg.position, norm_angle(alpha)))
        for tid, k in fresh:
            if tid in open_ids:
                holders = rows[ptr[k]:ptr[k + 1]]
                gains[holders] -= 1
                score[holders] = np.nan
                open_ids.remove(tid)
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
    """Re-check every target against its assigned placement from first principles."""
    pool = BlockerPool(s)
    checks = []
    for t in s.targets:
        idx = sol.assignment.get(t.id)
        if idx is None or not (0 <= idx < len(sol.placements)):
            checks.append(TargetCheck(t.id, False, {"assigned": False}, {}))
            continue
        cam = sol.placements[idx]
        checks.append(_check_target(t, cam, s, pool))
    return VerificationReport(checks)


def _check_target(t, cam: CameraPlacement, s: Scenario, pool: BlockerPool | None = None) -> TargetCheck:
    tol = s.tol
    clauses = {"in_area": s.in_area(cam.position, tol.eps_len)}
    margins: dict = {}
    covers(t, cam.position, s.sensor, tol, vd=cam.vd, scenario=s,
           blockers=interacting_blockers(t, s, pool), report=(clauses, margins))
    return TargetCheck(t.id, all(clauses.values()), clauses, margins)
