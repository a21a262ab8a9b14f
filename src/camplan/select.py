"""Greedy set-cover over candidate configurations and solution verification."""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .geom import norm_angle, wrap_pi
from .model import CameraPlacement, CandidateConfig, Scenario, Solution
from .fields import covers
from .sweep import optimal_vd, subset_window


class InfeasibleError(Exception):
    """Coverage stalled; `uncovered` lists the target ids no config can add."""

    def __init__(self, uncovered):
        self.uncovered = tuple(sorted(uncovered))
        super().__init__(f"no candidate configuration covers targets {list(self.uncovered)}")


def _subset_f1(cfg: CandidateConfig, ids, theta: float) -> float:
    """Minimum total deviation achievable for `ids` within their vd window."""
    lo, window = subset_window(cfg, ids, theta)
    wanted = set(ids)
    mids = [b for tid, b in zip(cfg.covered, cfg.mid_bearings) if tid in wanted]
    alpha = optimal_vd(mids, lo, window, "f1")
    return sum(abs(wrap_pi(b - alpha)) for b in mids)


def greedy_cover(configs: list[CandidateConfig], s: Scenario, vd_mode: str = "f1") -> Solution:
    """Pick configs by maximum new coverage; break ties by minimum achievable
    total deviation over the newly covered targets, then by lowest config index.

    Each selected camera's final direction is re-optimized for exactly the
    targets assigned to it.

    Gains stay exact without recounting: covering a target takes one off the
    gain of each config covering it, found through an inverse index. A tie-break
    score depends only on the config's uncovered members, so it is cached until
    one of them is covered.
    """
    ids = [t.id for t in s.targets]
    col = {tid: k for k, tid in enumerate(ids)}
    n = len(ids)
    theta = s.sensor.theta

    if n == 0:
        return Solution(placements=[], assignment={}, meta={"rounds": 0})

    m = len(configs)
    # (config, column) pairs as keys column * m + config, deduplicated and
    # sorted: the configs covering target column k are rows[ptr[k]:ptr[k + 1]]
    sizes = np.array([len(cfg.covered) for cfg in configs], dtype=np.int64)
    members = chain.from_iterable(cfg.covered for cfg in configs)
    cols = np.fromiter(map(col.get, members, repeat(-1)), dtype=np.int64, count=int(sizes.sum()))
    known = cols >= 0
    key = np.sort(cols[known] * m + np.repeat(np.arange(m), sizes)[known])
    key = key[np.diff(key, prepend=-1) != 0]
    rows = key % m
    ptr = np.searchsorted(key, np.arange(n + 1) * m)
    gains = np.bincount(rows, minlength=m)
    score = np.full(m, np.nan)   # cached tie-break scores, NaN until computed

    uncovered = np.ones(n, dtype=bool)
    placements: list[CameraPlacement] = []
    assignment: dict[int, int] = {}
    selected: list[int] = []

    while uncovered.any():
        best_gain = gains.max(initial=0)
        if best_gain == 0:
            raise InfeasibleError([ids[k] for k in np.flatnonzero(uncovered)])
        tied = np.flatnonzero(gains == best_gain)
        if tied.size > 1:
            for i in tied[np.isnan(score[tied])].tolist():
                new_ids = [tid for tid in configs[i].covered if tid in col and uncovered[col[tid]]]
                score[i] = _subset_f1(configs[i], new_ids, theta)
            pick = int(tied[np.argmin(score[tied])])
        else:
            pick = int(tied[0])

        cfg = configs[pick]
        new_ids = [tid for tid in cfg.covered if uncovered[col[tid]]]
        lo, window = subset_window(cfg, new_ids, theta)
        wanted = set(new_ids)
        mids = [b for tid, b in zip(cfg.covered, cfg.mid_bearings) if tid in wanted]
        alpha = cfg.vd_rep if vd_mode == "none" else optimal_vd(mids, lo, window, vd_mode)
        index = len(placements)
        placements.append(CameraPlacement(cfg.position, norm_angle(alpha)))
        for tid in new_ids:
            k = col[tid]
            if uncovered[k]:
                holders = rows[ptr[k]:ptr[k + 1]]
                gains[holders] -= 1
                score[holders] = np.nan
            assignment[tid] = index
            uncovered[k] = False
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
    checks = []
    for t in s.targets:
        idx = sol.assignment.get(t.id)
        if idx is None or not (0 <= idx < len(sol.placements)):
            checks.append(TargetCheck(t.id, False, {"assigned": False}, {}))
            continue
        cam = sol.placements[idx]
        checks.append(_check_target(t, cam, s))
    return VerificationReport(checks)


def _check_target(t, cam: CameraPlacement, s: Scenario) -> TargetCheck:
    tol = s.tol
    clauses = {"in_area": s.in_area(cam.position, tol.eps_len)}
    margins: dict = {}
    covers(t, cam.position, s.sensor, tol, vd=cam.vd, scenario=s, report=(clauses, margins))
    return TargetCheck(t.id, all(clauses.values()), clauses, margins)
