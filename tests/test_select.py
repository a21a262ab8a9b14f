"""Greedy selection and solution verification tests."""
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import camplan.select as select_module
from camplan.cli import run_pipeline
from camplan.discretize import bcpf_sample, comprehensive_candidates
from camplan.geom import Segment, norm_angle, wrap_pi
from camplan.model import (
    CameraPlacement,
    CandidateConfig,
    Obstacle,
    Scenario,
    SensorSpec,
    Solution,
    Target,
)
from camplan.scenario import GenParams, random_scenario, serialize_solution
from camplan.select import InfeasibleError, _aim, greedy_cover, verify_solution
from camplan.fields import covers, interacting_blockers
from camplan.sweep import sweep_points

from oracles import _aim as scalar_aim
from oracles import from_configs, optimal_vd, subset_window

THETA = math.radians(100.0)


def scen(targets, sensor=None, w=100.0, h=100.0):
    sensor = sensor or SensorSpec(aov_deg=100.0, r_min=0.0, r_max=2.5, phi_deg=90.0)
    return Scenario(width=w, height=h, sensor=sensor, targets=tuple(targets), obstacles=())


def dummy_targets(ids):
    # geometry is irrelevant for selection; configs carry the coverage claims
    return [Target(i, (5.0 + 3.0 * i, 5.0), (6.0 + 3.0 * i, 5.0), (0.0, 1.0)) for i in ids]


def mk_cfg(covered, mids, lo=None, hi=None, pos=(0.0, 0.0)):
    """Synthetic config; vd_rep centred on the window the claimed intervals leave."""
    covered = tuple(covered)
    mids = tuple(float(b) for b in mids)
    lo = mids if lo is None else tuple(float(b) for b in lo)
    hi = mids if hi is None else tuple(float(b) for b in hi)
    w_lo = max(hi) - THETA / 2.0
    w_hi = min(lo) + THETA / 2.0
    return CandidateConfig(
        source=0,
        position=pos,
        vd_rep=(w_lo + w_hi) / 2.0,
        covered=covered,
        interval_lo=lo,
        interval_hi=hi,
        mid_bearings=mids,
    )


# --- greedy -------------------------------------------------------------------

def test_greedy_textbook_trace():
    s = scen(dummy_targets([1, 2, 3]))
    configs = [
        mk_cfg((1, 2), (0.0, 0.1), pos=(1.0, 0.0)),
        mk_cfg((2, 3), (0.1, 0.2), pos=(2.0, 0.0)),
        mk_cfg((3,), (0.2,), pos=(3.0, 0.0)),
    ]
    sol = greedy_cover(from_configs(configs, s.targets), s)
    assert len(sol.placements) == 2
    assert sol.meta["selected_configs"] == [0, 1]
    assert sol.assignment == {1: 0, 2: 0, 3: 1}
    # second camera serves only T3, so its direction lands on T3's bearing
    assert math.isclose(sol.placements[1].vd, 0.2, abs_tol=1e-12)


def test_greedy_empty_scenario():
    sol = greedy_cover(from_configs([], []), scen([]))
    assert sol.placements == []
    assert sol.assignment == {}


def test_greedy_deviation_tie_break():
    # both configs cover T1 but their windows force nonzero deviation:
    # 0.3 rad for A, 0.1 rad for B -> B wins despite the higher index
    span_lo, span_hi = 0.0, math.radians(80.0)
    w_lo = span_hi - THETA / 2.0
    a = mk_cfg((1,), (w_lo - 0.3,), lo=(span_lo,), hi=(span_hi,), pos=(1.0, 0.0))
    b = mk_cfg((1,), (w_lo - 0.1,), lo=(span_lo,), hi=(span_hi,), pos=(2.0, 0.0))
    s = scen(dummy_targets([1]))

    sol = greedy_cover(from_configs([a, b], s.targets), s)
    assert sol.meta["selected_configs"] == [1]
    assert sol.placements[0].position == (2.0, 0.0)
    # vd clamps to the window edge nearest the midpoint bearing
    assert math.isclose(sol.placements[0].vd, w_lo, abs_tol=1e-12)


def test_greedy_index_tie_break():
    s = scen(dummy_targets([1]))
    configs = [mk_cfg((1,), (0.2,), pos=(2.0, 0.0)), mk_cfg((1,), (0.4,), pos=(1.0, 0.0))]
    sol = greedy_cover(from_configs(configs, s.targets), s)
    assert sol.meta["selected_configs"] == [0]


def test_greedy_infeasible_lists_uncovered():
    s = scen(dummy_targets([1, 2, 3]))
    configs = [mk_cfg((1,), (0.0,))]
    with pytest.raises(InfeasibleError) as err:
        greedy_cover(from_configs(configs, s.targets), s)
    assert err.value.uncovered == (2, 3)


def test_greedy_vd_mode_none_keeps_representative():
    s = scen(dummy_targets([1]))
    cfg = mk_cfg((1,), (0.3,), lo=(0.0,), hi=(math.radians(80.0),))
    sol = greedy_cover(from_configs([cfg], s.targets), s, vd_mode="none")
    assert math.isclose(sol.placements[0].vd, cfg.vd_rep, abs_tol=1e-12)


# --- end to end with real geometry ---------------------------------------------

def solve_small():
    t = Target(0, (9.0, 10.0), (10.0, 10.0), (0.0, 1.0))
    s = scen([t], w=20.0, h=20.0)
    cs = comprehensive_candidates(s)
    sol = greedy_cover(sweep_points(cs.points, s).table, s)
    return s, sol


def test_greedy_then_verify_roundtrip():
    s, sol = solve_small()
    assert len(sol.placements) == 1
    report = verify_solution(s, sol)
    assert report.ok
    assert report.failures() == []
    check = report.checks[0]
    assert check.clauses == {
        "in_area": True, "range": True, "facing": True,
        "view_angle": True, "occlusion": True,
    }
    assert check.margins["range_slack"] >= -1e-9
    assert check.margins["angular_slack"] >= -1e-9


def test_verify_matches_scalar_coverage():
    s, sol = solve_small()
    report = verify_solution(s, sol)
    cams = [sol.placements[sol.assignment[t.id]] for t in s.targets]
    covered = all(
        covers(t, cam.position, s.sensor, s.eps_len, vd=cam.vd, blockers=blockers)
        for t, cam, blockers in zip(s.targets, cams, interacting_blockers(s.targets, s))
    )
    assert report.ok == covered


def test_verify_camera_behind_target():
    t = Target(7, (9.0, 10.0), (10.0, 10.0), (0.0, 1.0))
    s = scen([t], w=20.0, h=20.0)
    sol = Solution(
        placements=[CameraPlacement((9.5, 8.0), math.pi / 2.0)],
        assignment={7: 0},
        meta={},
    )
    report = verify_solution(s, sol)
    assert not report.ok
    bad = report.failures()
    assert len(bad) == 1
    assert bad[0].target_id == 7
    assert "facing" in bad[0].failed_clauses()


def test_verify_perturbed_placement_fails():
    s, sol = solve_small()
    cam = sol.placements[0]
    shift = 0.5 * s.sensor.r_max
    moved = Solution(
        placements=[CameraPlacement((cam.position[0] - shift, cam.position[1]), cam.vd)],
        assignment=dict(sol.assignment),
        meta={},
    )
    report = verify_solution(s, moved)
    assert not report.ok
    assert len(report.failures()) >= 1


def test_verify_missing_assignment():
    t = Target(0, (9.0, 10.0), (10.0, 10.0), (0.0, 1.0))
    s = scen([t], w=20.0, h=20.0)
    report = verify_solution(s, Solution(placements=[], assignment={}, meta={}))
    assert not report.ok
    assert report.checks[0].clauses == {"assigned": False}


def per_target_report(s, sol):
    """verify_solution's checks as the scalar model gives them with each
    target's full `interacting_blockers` list."""
    out = []
    for t, blockers in zip(s.targets, interacting_blockers(s.targets, s)):
        idx = sol.assignment.get(t.id)
        if idx is None or not 0 <= idx < len(sol.placements):
            out.append((t.id, False, [("assigned", False)], []))
            continue
        cam = sol.placements[idx]
        clauses = {"in_area": s.in_area(cam.position, s.eps_len)}
        margins = {}
        ok = covers(t, cam.position, s.sensor, s.eps_len, vd=cam.vd, blockers=blockers, report=(clauses, margins))
        out.append((t.id, ok and clauses["in_area"], list(clauses.items()), list(margins.items())))
    return out


def report_of(s, sol):
    return [(c.target_id, c.ok, list(c.clauses.items()), list(c.margins.items()))
            for c in verify_solution(s, sol).checks]


def shaken(sol, rng, r_max):
    """The plan with every camera moved a few meters, or out of range, and
    turned a little; some targets unassigned or sent to a missing camera."""
    cams = []
    for cam in sol.placements:
        r = rng.choice((0.2, 1.0, 3.0, 3.0 * r_max))
        a = rng.uniform(0.0, 2.0 * math.pi)
        cams.append(CameraPlacement((cam.position[0] + r * math.cos(a), cam.position[1] + r * math.sin(a)),
                                    cam.vd + rng.uniform(-0.3, 0.3)))
    assignment = {}
    for tid, idx in sol.assignment.items():
        u = rng.random()
        if u >= 0.1:
            assignment[tid] = idx
        elif u >= 0.05:
            assignment[tid] = rng.choice((-1, len(cams)))
    return Solution(cams, assignment, {})


def test_verify_matches_full_blocker_lists_among_walls():
    rng = random.Random(31)
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=10.0, phi_deg=90.0)
    seen = {"occluded": 0, "out_of_range": 0, "unassigned": 0, "covered": 0}
    for seed in range(8):
        s = random_scenario(GenParams(width=40.0, height=40.0, n_targets=12, n_obstacles=12,
                                      margin=2.0, seed=seed), sensor)
        try:
            sol = run_pipeline(s, "bcpf").solution
        except InfeasibleError:
            cams = [CameraPlacement((t.midpoint[0] + 4.0 * t.normal[0], t.midpoint[1] + 4.0 * t.normal[1]),
                                    math.atan2(-t.normal[1], -t.normal[0])) for t in s.targets]
            sol = Solution(cams, {t.id: k for k, t in enumerate(s.targets)}, {})
        for plan in [sol] + [shaken(sol, rng, sensor.r_max) for _ in range(6)]:
            want = per_target_report(s, plan)
            assert report_of(s, plan) == want, seed
            for _, ok, clauses, _ in want:
                clauses = dict(clauses)
                seen["covered"] += ok
                seen["unassigned"] += "assigned" in clauses
                seen["occluded"] += clauses.get("occlusion") is False
                seen["out_of_range"] += clauses.get("range") is False
    assert min(seen.values()) > 0, seen


def test_verify_matches_full_blocker_lists_in_edge_cases():
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=10.0, phi_deg=90.0)
    twin_a = Target(0, (10.0, 10.0), (11.0, 10.0), (0.0, 1.0))
    twin_b = Target(1, (10.0, 10.0), (11.0, 10.0), (0.0, 1.0))
    lone = Target(-1, (20.0, 10.0), (21.0, 10.0), (0.0, 1.0))
    same = Target(2, (30.0, 10.0), (31.0, 10.0), (0.0, 1.0))
    wall = Obstacle(0, ((20.2, 12.0), (20.8, 12.0)))
    gate = Obstacle(1, ((12.0, 9.0), (12.0, 11.0)))
    s = Scenario(40.0, 30.0, sensor, (twin_a, twin_b, lone, same, same), (wall, gate))
    for cams in (
        [(10.5, 13.0), (10.5, 13.0), (20.5, 14.0), (30.5, 12.0)],
        # on the target's line, behind the gate: a zero-area sight triangle
        [(13.0, 10.0), (9.0, 10.0), (22.0, 10.0), (33.0, 10.0)],
        # out of range, and behind the wall
        [(10.5, 25.0), (10.0, 20.5), (20.5, 13.0), (30.5, 29.0)],
    ):
        placements = [CameraPlacement(c, math.pi * 1.5) for c in cams]
        sol = Solution(placements, {0: 0, 1: 1, -1: 2, 2: 3}, {})
        assert report_of(s, sol) == per_target_report(s, sol)
    # the wall sees target -1 blocked from (20.5, 14): ids do not exempt it
    sol = Solution([CameraPlacement((20.5, 14.0), math.pi * 1.5)], {-1: 0}, {})
    assert verify_solution(s, sol).checks[2].clauses["occlusion"] is False


def test_verify_keeps_a_wall_whose_box_only_touches_the_sight_box():
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=10.0, phi_deg=90.0)
    t = Target(0, (10.0, 10.0), (11.0, 10.0), (0.0, 1.0))
    cam = (10.5, 14.0)
    eps = Scenario(40.0, 30.0, sensor, (t,)).eps_len
    x_edge, y_edge = 11.0 + eps, 14.0 + eps   # the grown sight box's right and top edges
    tri = np.array([[cam, t.start, t.end]])
    within = (tri.min(axis=1) - eps, tri.max(axis=1) + eps)
    for x, y in ((x_edge, 12.0), (np.nextafter(x_edge, np.inf), 12.0), (10.5, y_edge),
                 (10.5, np.nextafter(y_edge, np.inf))):
        wall = Obstacle(0, ((x, y), (x + 1.0, y + 1.0)))
        s = Scenario(40.0, 30.0, sensor, (t,), (wall,))
        touching = x == x_edge or y == y_edge
        assert interacting_blockers([t], s, within) == [[Segment(*wall.chain)] if touching else []]
        for vd in (math.pi * 1.5, 0.0):
            sol = Solution([CameraPlacement(cam, vd)], {0: 0}, {})
            assert report_of(s, sol) == per_target_report(s, sol)


# --- pipeline invariants ------------------------------------------------------

def _pipeline(s, algo, grid_eps=10.0):
    from camplan.cli import run_pipeline

    return run_pipeline(s, algo, grid_eps=grid_eps)


def test_richer_candidate_sets_never_cost_more_cameras():
    # field-critical points <= one-ring polar sampling <= a coarse grid, with a
    # small tolerance for ties going the wrong way on awkward seeds
    from camplan.scenario import GenParams, random_scenario

    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=12.0, phi_deg=90.0)
    ordered = 0
    for seed in range(50):
        n = 2 + seed % 9
        s = random_scenario(GenParams(n_targets=n, margin=6.0, seed=seed), sensor)
        results = [_pipeline(s, algo) for algo in ("comprehensive", "bcpf", "grid")]
        for res in results:
            assert verify_solution(s, res.solution).ok
        c, b, g = (r.cameras for r in results)
        if c <= b <= g:
            ordered += 1
    assert ordered >= 45


def test_greedy_is_deterministic():
    from camplan.scenario import GenParams, random_scenario, serialize_solution

    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=12.0, phi_deg=90.0)
    s = random_scenario(GenParams(n_targets=9, margin=6.0, seed=11), sensor)
    cs = comprehensive_candidates(s)
    table = sweep_points(cs.points, s).table
    first = greedy_cover(table, s)
    second = greedy_cover(from_configs(list(table), s.targets), s)
    assert serialize_solution(first) == serialize_solution(second)


def test_clustered_targets_need_exactly_one_camera():
    # a known 1-camera optimum: a tight fan of targets all facing one spot
    v = (50.0, 50.0)
    targets = []
    for i, deg in enumerate((0.0, 20.0, 40.0, 60.0, 80.0)):
        b = math.radians(deg)
        u = (math.cos(b), math.sin(b))
        m = (v[0] + 5.0 * u[0], v[1] + 5.0 * u[1])
        d = (-u[1], u[0])
        start = (m[0] - 0.5 * d[0], m[1] - 0.5 * d[1])
        end = (m[0] + 0.5 * d[0], m[1] + 0.5 * d[1])
        targets.append(Target(i, start, end, (-u[0], -u[1])))
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=12.0, phi_deg=90.0)
    s = scen(targets, sensor)
    for algo in ("comprehensive", "bcpf"):
        assert _pipeline(s, algo).cameras == 1


# --- reference: greedy over a dense cover matrix ---------------------------------
# The dense-matrix greedy that the incremental one replaced, kept as the oracle
# its picks, placements and errors must match exactly.

def oracle_subset_f1(cfg: CandidateConfig, ids, theta: float) -> float:
    """Minimum total deviation achievable for `ids` within their vd window."""
    lo, window = subset_window(cfg, ids, theta)
    wanted = set(ids)
    mids = [b for tid, b in zip(cfg.covered, cfg.mid_bearings) if tid in wanted]
    alpha = optimal_vd(mids, lo, window, "f1")
    return sum(abs(wrap_pi(b - alpha)) for b in mids)


def oracle_greedy_cover(configs: list[CandidateConfig], s: Scenario, vd_mode: str = "f1") -> Solution:
    """Pick configs by maximum new coverage; break ties by minimum achievable
    total deviation over the newly covered targets, then by lowest config index.

    Each selected camera's final direction is re-optimized for exactly the
    targets assigned to it.
    """
    ids = [t.id for t in s.targets]
    col = {tid: k for k, tid in enumerate(ids)}
    n = len(ids)
    theta = s.sensor.theta

    if n == 0:
        return Solution(placements=[], assignment={}, meta={"rounds": 0})

    m = len(configs)
    cover = np.zeros((m, n), dtype=bool)
    for i, cfg in enumerate(configs):
        for tid in cfg.covered:
            if tid in col:
                cover[i, col[tid]] = True

    uncovered = np.ones(n, dtype=bool)
    placements: list[CameraPlacement] = []
    assignment: dict[int, int] = {}
    selected: list[int] = []

    while uncovered.any():
        gains = cover[:, uncovered].sum(axis=1) if m else np.zeros(0, dtype=int)
        best_gain = gains.max() if m else 0
        if best_gain == 0:
            raise InfeasibleError([ids[k] for k in np.flatnonzero(uncovered)])
        tied = np.flatnonzero(gains == best_gain)
        if tied.size > 1:
            remaining = {ids[k] for k in np.flatnonzero(uncovered)}
            scored = []
            for i in tied:
                new_ids = [tid for tid in configs[i].covered if tid in remaining]
                scored.append((oracle_subset_f1(configs[i], new_ids, theta), i))
            pick = int(min(scored)[1])
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
            assignment[tid] = index
            uncovered[col[tid]] = False
        selected.append(pick)

    return Solution(
        placements=placements,
        assignment=assignment,
        meta={"rounds": len(placements), "selected_configs": selected},
    )


def _solve_or_uncovered(solver, configs, s, vd_mode):
    try:
        sol = solver(configs, s, vd_mode=vd_mode)
    except InfeasibleError as e:
        return ("infeasible", e.uncovered)
    return (sol.placements, sol.assignment, sol.meta)


@st.composite
def tie_heavy_instances(draw):
    """Synthetic config sets built to tie: few distinct bearings (equal f1),
    duplicated configs, one-target configs, targets no config covers, and
    members listed twice in one config."""
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True))
    # targets outside the pool are never offered by any config
    pool = ids if draw(st.booleans()) else ids[: draw(st.integers(1, len(ids)))]
    bearings = st.sampled_from([0.0, 0.25, 0.5, 0.75])
    configs = []
    for _ in range(draw(st.integers(0, 14))):
        covered = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        mids = draw(st.lists(bearings, min_size=len(covered), max_size=len(covered)))
        pos = (float(draw(st.integers(0, 3))), 0.0)
        cfg = mk_cfg(covered, mids, pos=pos)
        configs.extend([cfg] * draw(st.integers(1, 3)))
    order = draw(st.permutations(ids))
    return scen(dummy_targets(order)), configs


def _tie_that_empties(feasible):
    """Configs 0 and 1 tie at gain 2 and 0 is picked; 1 keeps gain 1, or
    none where it lists 0's targets, so the kept tie empties with a target
    still open: the rescan finds a lower tie, or only a target no config
    covers."""
    cfgs = ([mk_cfg([0, 1], [0.0, 0.5]), mk_cfg([1, 2], [0.25, 0.75]), mk_cfg([3], [0.5])] if feasible
            else [mk_cfg([0, 1], [0.0, 0.5]), mk_cfg([1, 0], [0.5, 0.0])])
    return scen(dummy_targets([0, 1, 2, 3] if feasible else [0, 1, 2])), cfgs


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances(), st.sampled_from(["none", "f1", "finf"]))
@example(_tie_that_empties(True), "f1")
@example(_tie_that_empties(False), "f1")
def test_greedy_matches_dense_oracle_on_tie_heavy_sets(instance, vd_mode):
    s, configs = instance
    got = _solve_or_uncovered(greedy_cover, from_configs(configs, s.targets), s, vd_mode)
    want = _solve_or_uncovered(oracle_greedy_cover, configs, s, vd_mode)
    assert got == want


def test_greedy_scores_only_ties_that_hold_an_unscored_config(monkeypatch):
    # many short-range targets: most rounds keep a tie scored in an earlier
    # round, and those make no _aim pass
    calls = []

    def counting(table, rows, *args):
        calls.append(len(rows))
        return _aim(table, rows, *args)

    monkeypatch.setattr(select_module, "_aim", counting)
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=10.0, phi_deg=90.0)
    s = random_scenario(GenParams(n_targets=400, margin=3.0, seed=5), sensor)
    groups = sweep_points(bcpf_sample(s, 0.1, s.sensor.r_max).points, s)
    sol = greedy_cover(groups.table, s)
    assert 0 < len(calls) < sol.meta["rounds"] and min(calls) > 0
    want = oracle_greedy_cover([cfg for group in groups for cfg in group], s)
    assert serialize_solution(sol) == serialize_solution(want)


def assert_aims_match(table, s, open_col):
    """The batched `_aim` over every config with an open member equals the
    scalar one, direction and deviation, bit for bit, in both modes.
    Returns how many configs were aimed."""
    open_ids = {t.id for t, live in zip(s.targets, open_col) if live}
    rows = np.flatnonzero([open_col[table.col[a:b]].any() for a, b in zip(table.ptr[:-1], table.ptr[1:])])
    if rows.size == 0:
        return 0
    for mode in ("f1", "finf"):
        want = np.array([scalar_aim(table[i], open_ids, s.sensor.theta, mode) for i in rows.tolist()])
        alpha, score = _aim(table, rows, open_col, s.sensor.theta, mode)
        assert alpha.tobytes() == want[:, 0].tobytes() and score.tobytes() == want[:, 1].tobytes()
    return rows.size


def test_batched_aim_rejects_an_unknown_mode():
    table = from_configs([mk_cfg([0], [0.1])], dummy_targets([0]))
    with pytest.raises(ValueError, match="unknown vd optimization mode"):
        _aim(table, np.array([0]), np.ones(1, dtype=bool), THETA, "median")


@pytest.mark.parametrize("algo, n, r_max, obstacles", [("bcpf", 40, 30.0, 0), ("comprehensive", 8, 20.0, 6)])
def test_batched_aim_matches_the_scalar_one(algo, n, r_max, obstacles):
    # real tables, with every target open down to a tenth of them
    rng = np.random.default_rng(5)
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=r_max, phi_deg=90.0)
    checked = 0
    for seed in range(2):
        s = random_scenario(GenParams(n_targets=n, n_obstacles=obstacles, margin=3.0, seed=seed), sensor)
        cs = bcpf_sample(s, 0.1, r_max) if algo == "bcpf" else comprehensive_candidates(s)
        table = sweep_points(cs.points, s).table
        for frac in (1.0, 0.6, 0.3, 0.1):
            checked += assert_aims_match(table, s, rng.random(n) < frac)
    assert checked > 2000


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True),
                          st.lists(st.floats(-math.pi, math.pi), min_size=16, max_size=16),
                          st.floats(0.0, 0.8)), min_size=1, max_size=6),
       st.lists(st.booleans(), min_size=16, max_size=16))
@example([(list(range(16)), [0.1 * k - 0.77 for k in range(16)], 0.3)], [True] * 16)
def test_batched_aim_matches_the_scalar_one_on_synthetic_configs(rows, open_flags):
    # bearings all round the circle, windows from a point to most of theta,
    # even and odd open counts, and more open members than a numpy sum adds
    # one by one
    configs = []
    for covered, bearings, spread in rows:
        mids = [norm_angle(b) for b in bearings[:len(covered)]]
        configs.append(mk_cfg(covered, mids, lo=[b - spread for b in mids], hi=[b + spread for b in mids]))
    s = scen(dummy_targets(range(16)))
    assert_aims_match(from_configs(configs, s.targets), s, np.array(open_flags))


@pytest.mark.parametrize("family", [
    # small versions of the three benchmark workloads
    dict(n=40, r_max=30.0, obstacles=0, algo="bcpf"),
    dict(n=90, r_max=10.0, obstacles=0, algo="bcpf"),
    dict(n=8, r_max=20.0, obstacles=6, algo="comprehensive"),
])
def test_greedy_solution_bytes_match_dense_oracle(family):
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=family["r_max"], phi_deg=90.0)
    for seed in range(3):
        s = random_scenario(GenParams(n_targets=family["n"], n_obstacles=family["obstacles"],
                                      margin=3.0, seed=seed), sensor)
        cs = (bcpf_sample(s, eps_a=0.1, eps_r=s.sensor.r_max) if family["algo"] == "bcpf"
              else comprehensive_candidates(s))
        groups = sweep_points(cs.points, s)
        configs = [cfg for group in groups for cfg in group]
        for vd_mode in ("f1", "none", "finf"):
            want = serialize_solution(oracle_greedy_cover(configs, s, vd_mode))
            assert serialize_solution(greedy_cover(groups.table, s, vd_mode)) == want
            assert serialize_solution(greedy_cover(from_configs(configs, s.targets), s, vd_mode)) == want
            assert serialize_solution(run_pipeline(s, family["algo"], vd_mode=vd_mode).solution) == want
