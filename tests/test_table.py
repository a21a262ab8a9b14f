"""The sweep's config table against the per-config objects it replaced.

`oracle_sweep_chunk` is the sweep's block pass as it stood when it built one
`CandidateConfig` per config, with `oracle_maximal_rows` its padded maximal-row
test, and `oracle_cheap_pairs` and `oracle_occluded` are its pair and blocker
tests as they stood before the sweep ran in spatial tiles (each against every
point of the block, not the block's box) and grouped pairs by target; all
four are copied verbatim apart from their names.  The table's per-point views must
equal the oracle's output field by field, and solving from the table must give
the bytes that solving from its configs gives."""
import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from camplan import sweep as sweep_module
from camplan.cli import build_candidates, run_pipeline
from camplan.geom import EPS_ANG
from camplan.model import CandidateConfig, Obstacle, Scenario, SensorSpec, Target
from camplan.scenario import GenParams, random_scenario, serialize_solution
from camplan.select import greedy_cover
from camplan.sweep import (
    TWO_PI,
    PointGroups,
    ScenarioIndex,
    _BUDGET,
    _blocks_triangle_np,
    _mod_2pi_np,
    _norm_angle_np,
    _seg_point_dist_np,
    sweep_points,
)

from oracles import from_configs, tables_equal


def oracle_cheap_pairs(block: np.ndarray, idx: ScenarioIndex):
    """(point, target) index pairs passing the range, r_min, subtended-angle and
    facing clauses, point-major with targets in index order."""
    s = idx.scenario.sensor
    eps_len = idx.tol.eps_len
    # the range clause puts both endpoints, so the midpoint too, within
    # r_max + eps_len: a squared distance with slack picks the candidates
    reach = (s.r_max + 2.0 * eps_len) * (1.0 + 1e-12)
    dmx = idx.mx - block[:, 0:1]
    dmy = idx.my - block[:, 1:2]
    pi, tj = np.nonzero(dmx * dmx + dmy * dmy <= reach * reach)
    x = block[pi, 0]
    y = block[pi, 1]
    sx, sy, ex, ey = idx.sx[tj], idx.sy[tj], idx.ex[tj], idx.ey[tj]
    d_s = np.hypot(sx - x, sy - y)
    d_e = np.hypot(ex - x, ey - y)
    keep = (d_s > eps_len) & (d_e > eps_len) & (np.maximum(d_s, d_e) <= s.r_max + eps_len)
    if s.r_min > 0.0:
        keep &= _seg_point_dist_np(x, y, sx, sy, ex, ey) >= s.r_min - eps_len
    if s.theta < math.pi:
        vsx, vsy = sx - x, sy - y
        vex, vey = ex - x, ey - y
        cross = np.abs(vsx * vey - vsy * vex)
        dot = vsx * vex + vsy * vey
        keep &= np.arctan2(cross, dot) <= s.theta + EPS_ANG
    nx, ny = idx.nx[tj], idx.ny[tj]
    vmx = x - idx.mx[tj]
    vmy = y - idx.my[tj]
    fcross = np.abs(nx * vmy - ny * vmx)
    fdot = nx * vmx + ny * vmy
    keep &= np.arctan2(fcross, fdot) <= s.phi + EPS_ANG
    keep &= np.hypot(vmx, vmy) > eps_len
    return pi[keep], tj[keep]


def oracle_occluded(block: np.ndarray, pi, tj, idx: ScenarioIndex) -> np.ndarray:
    """Per pair: some blocker other than the target itself enters the open
    sight triangle from point pi of the block to target tj."""
    out = np.zeros(tj.size, dtype=bool)
    eps = idx.tol.eps_len
    # a blocker entering a sight triangle comes within r_max + eps_len of its
    # apex, so the block tests only the blockers whose boxes reach one of its points
    reach = idx.scenario.sensor.r_max + 3.0 * eps
    px, py = block[:, 0:1], block[:, 1:2]
    near = np.flatnonzero(((idx.bx_lo - reach <= px) & (px <= idx.bx_hi + reach)
                           & (idx.by_lo - reach <= py) & (py <= idx.by_hi + reach)).any(axis=0))
    if near.size == 0 or tj.size == 0:
        return out
    bx_lo, bx_hi, by_lo, by_hi = idx.bx_lo[near], idx.bx_hi[near], idx.by_lo[near], idx.by_hi[near]
    owner = idx.owner[near]
    x, y = block[pi, 0], block[pi, 1]
    sx, sy, ex, ey = idx.sx[tj], idx.sy[tj], idx.ex[tj], idx.ey[tj]
    # bounding-box prefilter: only (pair, blocker) candidates whose sight
    # triangle and blocker boxes overlap need the exact clip
    tx_lo = np.minimum(np.minimum(sx, ex), x) - eps
    tx_hi = np.maximum(np.maximum(sx, ex), x) + eps
    ty_lo = np.minimum(np.minimum(sy, ey), y) - eps
    ty_hi = np.maximum(np.maximum(sy, ey), y) + eps
    own = idx.ids[tj]
    step = max(1, _BUDGET // near.size)
    for a in range(0, tj.size, step):
        q = slice(a, a + step)
        cand = (
            (tx_lo[q, None] <= bx_hi) & (bx_lo <= tx_hi[q, None])
            & (ty_lo[q, None] <= by_hi) & (by_lo <= ty_hi[q, None])
            & (owner != own[q, None])
        )
        p, k = np.nonzero(cand)
        p += a
        b = near[k]
        hit = _blocks_triangle_np(x[p], y[p], sx[p], sy[p], ex[p], ey[p],
                                  idx.bax[b], idx.bay[b], idx.bbx[b], idx.bby[b], eps)
        out[p[hit]] = True
    return out


def oracle_maximal_rows(fits: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """(G, K) mask of the anchors whose (G, K, K) fits row is a maximal subset:
    non-empty, the first anchor with that row, and strictly inside no other row.
    Rows are compared as packed uint64 words, so any K works."""
    G, K, _ = fits.shape
    W = -(-K // 64)
    if W * 64 != K:
        fits = np.concatenate([fits, np.zeros((G, K, W * 64 - K), dtype=bool)], axis=2)
    bits = np.packbits(fits, axis=2, bitorder="little").view("<u8")
    eq = np.ones((G, K, K), dtype=bool)
    sub = np.ones((G, K, K), dtype=bool)   # sub[g, a, b]: row a within row b
    for w in range(W):
        word = bits[:, :, w]
        eq &= word[:, :, None] == word[:, None, :]
        sub &= (word[:, :, None] & ~word[:, None, :]) == 0
    dup = (eq & np.tri(K, k=-1, dtype=bool)).any(axis=2)
    inside = (sub & ~eq & valid[:, None, :]).any(axis=2)
    return valid & ~dup & ~inside & bits.any(axis=2)


def oracle_sweep_chunk(block: np.ndarray, idx: ScenarioIndex, source: int) -> list[list[CandidateConfig]]:
    """Maximal co-coverable subsets at every point of the block, as a few array
    passes over the block's coverable (point, target) pairs."""
    C = block.shape[0]
    groups: list[list[CandidateConfig]] = [[] for _ in range(C)]
    pi, tj = oracle_cheap_pairs(block, idx)
    live = ~oracle_occluded(block, pi, tj, idx)
    pi, tj = pi[live], tj[live]
    if pi.size == 0:
        return groups
    x, y = block[pi, 0], block[pi, 1]

    theta = idx.scenario.sensor.theta
    limit = theta + EPS_ANG
    b1 = np.arctan2(idx.sy[tj] - y, idx.sx[tj] - x)
    b2 = np.arctan2(idx.ey[tj] - y, idx.ex[tj] - x)
    diff = np.remainder(b2 - b1 + math.pi, TWO_PI) - math.pi
    lo = np.where(diff >= 0.0, b1, b2) % TWO_PI
    width = np.abs(diff)
    mids = np.arctan2(idx.my[tj] - y, idx.mx[tj] - x) % TWO_PI
    tid = idx.ids[tj]

    count = np.bincount(pi, minlength=C)
    offset = np.concatenate(([0], np.cumsum(count)))
    slot = np.arange(pi.size) - offset[pi]
    K = int(count.max())
    G = max(1, _BUDGET // (K * K))
    pos = [tuple(p) for p in block.tolist()]
    for g0 in range(0, C, G):
        g1 = min(g0 + G, C)
        sel = slice(offset[g0], offset[g1])
        if sel.start == sel.stop:
            continue
        gp, sp = pi[sel] - g0, slot[sel]
        n_g = g1 - g0
        # padded per-point tables; a padded member never fits (infinite width)
        pair = np.zeros((n_g, K), dtype=np.int64)
        pair[gp, sp] = np.arange(sel.start, sel.stop)
        valid = np.zeros((n_g, K), dtype=bool)
        valid[gp, sp] = True
        lo_p = lo[pair]
        wd_p = np.where(valid, width[pair], np.inf)
        id_p = np.where(valid, tid[pair], np.iinfo(np.int64).max)

        rel = np.remainder(lo_p[:, None, :] - lo_p[:, :, None], TWO_PI)   # [g, anchor, member]
        fits = (rel + wd_p[:, None, :] <= limit) & valid[:, :, None]
        gm, am = np.nonzero(oracle_maximal_rows(fits, valid))
        rows = fits[gm, am]
        span = np.where(rows, rel[gm, am] + wd_p[gm], -np.inf).max(axis=1)
        lo_a = lo_p[gm, am]
        # re-verify angular containment at vd_rep (range/facing already hold)
        cone_lo = lo_a + span / 2.0 - theta / 2.0
        off = np.remainder(lo_p[gm] - cone_lo[:, None], TWO_PI)
        off = np.where(off > TWO_PI - EPS_ANG, 0.0, off)
        ok = (~rows | (off + wd_p[gm] <= limit)).all(axis=1)
        gm, rows, span, lo_a = gm[ok], rows[ok], span[ok], lo_a[ok]
        if gm.size == 0:
            continue
        vd_window = theta - span
        vd_lo = _norm_angle_np(lo_a + span - theta / 2.0)
        vd_rep = _norm_angle_np(lo_a + span / 2.0)

        # members of each config in target-id order, flattened config by config
        order = np.argsort(id_p, axis=1, kind="stable")
        r, c = np.nonzero(np.take_along_axis(rows, order[gm], axis=1))
        q = pair[gm[r], order[gm[r], c]]
        ends = np.cumsum(rows.sum(axis=1))

        ids_l = tid[q].tolist()
        lo_l = lo[q].tolist()
        hi_l = np.remainder(lo[q] + width[q], TWO_PI).tolist()
        mid_l = mids[q].tolist()
        a = 0
        for g, b, rep, vlo, win in zip((gm + g0).tolist(), ends.tolist(), vd_rep.tolist(),
                                       vd_lo.tolist(), vd_window.tolist()):
            groups[g].append(CandidateConfig(
                source=source + g,
                position=pos[g],
                vd_rep=rep,
                vd_lo=vlo,
                vd_window=win,
                covered=tuple(ids_l[a:b]),
                interval_lo=tuple(lo_l[a:b]),
                interval_hi=tuple(hi_l[a:b]),
                mid_bearings=tuple(mid_l[a:b]),
            ))
            a = b
    return groups


def sweep_in_tiles(monkeypatch, points, s: Scenario, chunk: int) -> PointGroups:
    """`sweep_points` with pair-pass tiles of `chunk` points."""
    monkeypatch.setattr(sweep_module, "_CHUNK", chunk)
    return sweep_points(points, s)


def oracle_sweep_points(points, s: Scenario, chunk: int = 128) -> list[list[CandidateConfig]]:
    idx = ScenarioIndex(s)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    out: list[list[CandidateConfig]] = []
    for base in range(0, pts.shape[0], chunk):
        out.extend(oracle_sweep_chunk(pts[base:base + chunk], idx, base))
    return out


# --- scenes -------------------------------------------------------------------------

def bench_family(n, r_max, obstacles, algo, seed):
    """A small scene of one benchmark workload's family and its candidates."""
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=r_max, phi_deg=90.0)
    s = random_scenario(GenParams(n_targets=n, n_obstacles=obstacles, margin=3.0, seed=seed), sensor)
    return s, build_candidates(s, algo, 0.1, None, 4.0).points


def ring_scene():
    """70 narrow targets on a ring facing its center, ids shuffled against
    index order: the center sees every one of them."""
    ids = list(range(70))
    random.Random(3).shuffle(ids)
    targets = []
    for k in range(70):
        a1, a2 = math.radians(k * 360.0 / 70), math.radians(k * 360.0 / 70 + 2.0)
        mid = (a1 + a2) / 2.0
        targets.append(Target(ids[k], (50.0 + 5.0 * math.cos(a1), 50.0 + 5.0 * math.sin(a1)),
                              (50.0 + 5.0 * math.cos(a2), 50.0 + 5.0 * math.sin(a2)),
                              (-math.cos(mid), -math.sin(mid))))
    s = Scenario(100.0, 100.0, SensorSpec(aov_deg=30.0, r_min=0.0, r_max=8.0), tuple(targets))
    rng = random.Random(8)
    return s, [(50.0, 50.0)] + [(50.0 + rng.uniform(-0.5, 0.5), 50.0 + rng.uniform(-0.5, 0.5))
                                for _ in range(9)]


def occluded_scene():
    """Crowded targets and walls built of several edges, sampled on a grid."""
    rng = random.Random(5)
    sensor = SensorSpec(aov_deg=120.0, r_min=0.0, r_max=6.0)
    base = random_scenario(GenParams(width=20.0, height=20.0, n_targets=12, margin=1.0, seed=9), sensor)
    walls = []
    for k in range(4):
        x, y = rng.uniform(3, 17), rng.uniform(3, 17)
        chain = [(x, y)]
        for _ in range(3):
            x, y = x + rng.uniform(-2, 2), y + rng.uniform(-2, 2)
            chain.append((min(max(x, 0.0), 20.0), min(max(y, 0.0), 20.0)))
        walls.append(Obstacle(k, tuple(chain)))
    s = Scenario(20.0, 20.0, sensor, base.targets, tuple(walls))
    return s, build_candidates(s, "grid", 0.1, None, 0.5).points


SCENES = {
    "bcpf-140-r30 family": lambda: bench_family(40, 30.0, 0, "bcpf", 1),
    "bcpf-400-r10 family": lambda: bench_family(90, 10.0, 0, "bcpf", 2),
    "comprehensive-occluded family": lambda: bench_family(8, 20.0, 6, "comprehensive", 3),
    "grid": lambda: bench_family(30, 15.0, 0, "grid", 4),
    "occluded": occluded_scene,
    "more than 64 targets at a point": ring_scene,
}


# --- the table against the oracle -------------------------------------------------------

def assert_groups_equal(groups, want, s):
    """The sweep's groups and table hold exactly the configs of `want`."""
    assert len(groups) == len(want)
    for k, (got_group, want_group) in enumerate(zip(groups, want)):
        assert len(got_group) == len(want_group), k
        for got, cfg in zip(got_group, want_group):
            assert type(got) is CandidateConfig
            for field in CandidateConfig._fields:
                assert getattr(got, field) == getattr(cfg, field), (k, field)
    # indexing a group and iterating the groups agree
    assert [groups[k] for k in range(len(groups))] == list(groups)
    table = groups.table
    assert list(table) == [cfg for group in want for cfg in group]
    assert len(table) == sum(map(len, want))
    # member columns name the scenario's targets
    ids = np.array([t.id for t in s.targets], dtype=np.int64)
    assert np.array_equal(ids[table.col], table.covered)


@pytest.mark.parametrize("name", sorted(SCENES))
@pytest.mark.parametrize("chunk", [1, 7, 128])
def test_table_views_equal_oracle_configs(name, chunk, monkeypatch):
    s, points = SCENES[name]()
    if chunk == 1:
        points = points[:300]   # one point per block: keep it quick
    want = oracle_sweep_points(points, s, chunk=chunk)
    groups = sweep_in_tiles(monkeypatch, points, s, chunk)
    assert sum(map(len, want)) > 0
    assert_groups_equal(groups, want, s)
    if name == "more than 64 targets at a point":
        assert max(len({tid for cfg in g for tid in cfg.covered}) for g in groups) > 64


@pytest.mark.parametrize("name", ["bcpf-140-r30 family", "comprehensive-occluded family", "grid"])
def test_table_solves_to_the_bytes_of_its_configs(name):
    s, points = SCENES[name]()
    configs = [cfg for group in oracle_sweep_points(points, s) for cfg in group]
    table = sweep_points(points, s).table
    assert tables_equal(table, from_configs(configs, s.targets))
    algo = "comprehensive" if "comprehensive" in name else name.split("-")[0]
    for mode in ("f1", "none", "finf"):
        want = serialize_solution(greedy_cover(from_configs(configs, s.targets), s, vd_mode=mode))
        assert serialize_solution(greedy_cover(table, s, vd_mode=mode)) == want
        assert serialize_solution(run_pipeline(s, algo, grid_eps=4.0, vd_mode=mode).solution) == want


@pytest.mark.parametrize("name", ["bcpf-140-r30 family", "occluded", "more than 64 targets at a point"])
def test_sweep_wraps_angles_only_where_the_wrap_is_exact(name, monkeypatch):
    # _mod_2pi_np equals np.remainder on [-2pi * turns, 2pi * turns) only
    # (tests/test_geom.py); every call of the sweep stays inside it
    s, points = SCENES[name]()
    seen = set()

    def checked(a, turns=2):
        assert ((-TWO_PI * turns <= a) & (a < TWO_PI * turns)).all(), turns
        seen.update((turns, end) for end, reached in (("< 0", a < 0.0), (">= 2pi", a >= TWO_PI)) if reached.any())
        return _mod_2pi_np(a, turns=turns)

    monkeypatch.setattr(sweep_module, "_mod_2pi_np", checked)
    assert_groups_equal(sweep_points(points, s), oracle_sweep_points(points, s), s)
    assert {(1, "< 0"), (2, "< 0"), (2, ">= 2pi")} <= seen


# --- spatial tiles ------------------------------------------------------------------------

def special_point_sets():
    s, points = bench_family(40, 30.0, 0, "bcpf", 1)
    rng = random.Random(12)
    near = points[len(points) // 2]
    return s, {
        "no points": [],
        "one point": [near],
        "identical points": [near] * 300,
        "points outside the area": [(rng.uniform(-40.0, 140.0), rng.choice((-1e-9, -3.0, 100.0 + 1e-9, 104.0)))
                                    for _ in range(150)] + [(-0.0, 50.0), (0.0, -0.0), (100.0, 100.0)],
        "clustered and scattered": [(near[0] + rng.gauss(0.0, 0.3), near[1] + rng.gauss(0.0, 0.3))
                                    for _ in range(150)] + points[::17],
    }


@pytest.mark.parametrize("chunk", [1, 7, 128])
def test_tiled_sweep_equals_oracle_on_special_point_sets(chunk, monkeypatch):
    s, sets = special_point_sets()
    for name, points in sets.items():
        want = oracle_sweep_points(points, s, chunk=chunk)
        groups = sweep_in_tiles(monkeypatch, points, s, chunk)
        assert_groups_equal(groups, want, s)
        if name in ("identical points", "points outside the area", "clustered and scattered"):
            assert sum(map(len, want)) > 0, name


@pytest.mark.parametrize("name", ["bcpf-400-r10 family", "occluded", "more than 64 targets at a point"])
def test_tiled_sweep_follows_a_permutation_of_its_points(name, monkeypatch):
    s, points = SCENES[name]()
    groups = sweep_in_tiles(monkeypatch, points, s, 32)
    perm = list(range(len(points)))
    random.Random(9).shuffle(perm)
    shuffled = sweep_in_tiles(monkeypatch, [points[k] for k in perm], s, 32)
    assert len(shuffled) == len(groups)
    for k, p in enumerate(perm):
        assert [cfg._replace(source=0) for cfg in shuffled[k]] == [cfg._replace(source=0) for cfg in groups[p]]
        assert all(cfg.source == k for cfg in shuffled[k])
    assert (np.diff(shuffled.table.source) >= 0).all()


def range_limit_scene(seed):
    """A tile of 7 points, and narrow targets facing the tile's outermost
    point in directions on and near the axes, their midpoints from 5e-8 m
    past the range (within eps_len, so still in range) to 8 mm inside it;
    walls a few mm in front of some of them.  These
    are the pairs and blockers that the tile's box tests keep only if their
    reach is as wide as the per-point tests'."""
    rng = random.Random(seed)
    r_max, w = 10.0, 1e-3
    points = [(45.0 + rng.uniform(0.0, 2.0), 45.0 + rng.uniform(0.0, 2.0)) for _ in range(7)]
    targets, walls = [], []
    for k in range(16):
        a = k // 4 * math.pi / 2.0 + (0.0, 2e-3, -2e-3, 5e-3)[k % 4]
        ux, uy = math.cos(a), math.sin(a)
        px, py = max(points, key=lambda p: p[0] * ux + p[1] * uy)
        d = r_max - (-5e-8, 0.0, 1e-7, 1e-4, 2e-3, 8e-3)[k % 6]
        mx, my = px + d * ux, py + d * uy
        targets.append(Target(k, (mx - uy * w / 2.0, my + ux * w / 2.0), (mx + uy * w / 2.0, my - ux * w / 2.0),
                              (-ux, -uy)))
        if k % 2:
            g = d - rng.choice((1e-3, 5e-3))
            walls.append(Obstacle(k, ((px + g * ux - uy * 2 * w, py + g * uy + ux * 2 * w),
                                      (px + g * ux + uy * 2 * w, py + g * uy - ux * 2 * w))))
    s = Scenario(100.0, 100.0, SensorSpec(aov_deg=100.0, r_min=0.0, r_max=r_max), tuple(targets), tuple(walls))
    return s, points


@pytest.mark.parametrize("seed", range(4))
def test_tile_box_tests_keep_pairs_and_blockers_at_the_range_limit(seed, monkeypatch):
    s, points = range_limit_scene(seed)
    idx = ScenarioIndex(s)
    block = np.array(points)
    pi, tj = sweep_module._cheap_pairs(block, idx)
    want_pi, want_tj = oracle_cheap_pairs(block, idx)
    assert np.array_equal(pi, want_pi) and np.array_equal(tj, want_tj)
    assert len(set(tj.tolist())) == 16   # every target is seen from its tile
    hidden = sweep_module._occluded(block, pi, tj, idx)
    assert np.array_equal(hidden, oracle_occluded(block, pi, tj, idx))
    assert hidden.any() and not hidden.all()
    assert_groups_equal(sweep_in_tiles(monkeypatch, points, s, 7), oracle_sweep_points(points, s, chunk=7), s)


# --- the two phases ------------------------------------------------------------------------

def mixed_count_scene():
    """The ring scene's 70 targets and two lone groups of one and two targets
    far from it, with points at the ring's center and in front of each group."""
    ring, ring_points = ring_scene()
    lone = [Target(100, (19.0, 30.0), (21.0, 30.0), (0.0, -1.0)),
            Target(101, (79.0, 30.0), (80.0, 30.0), (0.0, -1.0)),
            Target(102, (80.5, 30.0), (81.5, 30.0), (0.0, -1.0))]
    s = Scenario(100.0, 100.0, ring.sensor, ring.targets + tuple(lone))
    rng = random.Random(4)
    points = ring_points[:3] + [(20.0 + rng.uniform(-0.3, 0.3), 25.0 + rng.uniform(-0.3, 0.3)) for _ in range(4)]
    points += [(79.0, 27.0), (81.0, 27.0), (80.25, 24.0), (80.3, 25.0)]
    return s, points


@pytest.mark.parametrize("budget", [_BUDGET, 1])
def test_subset_passes_bucket_points_of_one_tile_by_pair_count(monkeypatch, budget):
    s, points = mixed_count_scene()
    want = oracle_sweep_points(points, s, chunk=len(points))
    monkeypatch.setattr(sweep_module, "_BUDGET", budget)
    groups = sweep_in_tiles(monkeypatch, points, s, len(points))
    assert_groups_equal(groups, want, s)
    idx = ScenarioIndex(s)
    pi, tj = sweep_module._cheap_pairs(np.array(points), idx)
    live = ~sweep_module._occluded(np.array(points), pi, tj, idx)
    count = np.bincount(pi[live], minlength=len(points))
    assert count.max() > 64 and {1, 2} <= set(count.tolist())
    assert all(len(g) > 0 for g in groups)


def prefilter_scene():
    """A tile of points before axis-aligned and slanted targets, one hiding
    parts of another, and walls set against each target's group box (the
    union of its pairs' sight-triangle boxes), by kind: along each box edge
    and up to 2*eps_len either side of it, collinear with sight edges, and
    from target endpoints into, along and away from sight triangles."""
    sensor = SensorSpec(aov_deg=120.0, r_min=0.0, r_max=15.0)
    targets = (Target(0, (19.0, 28.0), (21.0, 28.0), (0.0, -1.0)),
               Target(1, (28.0, 21.0), (28.0, 19.0), (-1.0, 0.0)),
               Target(2, (12.0, 26.0), (13.0, 27.0), (math.sqrt(0.5), -math.sqrt(0.5))),
               Target(3, (18.5, 12.0), (19.5, 12.0), (0.0, 1.0)),
               Target(4, (19.8, 24.0), (20.3, 24.0), (0.0, -1.0)))   # hides parts of target 0
    base = Scenario(50.0, 50.0, sensor, targets)
    eps = base.tol.eps_len
    points = [(19.5 + 0.5 * i + 0.01 * j, 19.5 + 0.5 * j) for i in range(3) for j in range(3)]
    points += [(20.0, 19.0), (19.0, 20.0), (28.0, 17.0)]
    pi, tj = sweep_module._cheap_pairs(np.array(points), ScenarioIndex(base))
    walls = {"box edges": [], "sight edges": [], "target endpoints": []}
    for j in sorted(set(tj.tolist())):
        t = targets[j]
        apexes = [points[p] for p in pi[tj == j].tolist()]
        xs = [x for x, _ in apexes] + [t.start[0], t.end[0]]
        ys = [y for _, y in apexes] + [t.start[1], t.end[1]]
        x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
        for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            d = k * eps
            walls["box edges"] += [((x_lo + d, y_lo), (x_lo + d, y_hi)), ((x_hi + d, y_lo), (x_hi + d, y_hi)),
                                   ((x_lo, y_lo + d), (x_hi, y_lo + d)), ((x_lo, y_hi + d), (x_hi, y_hi + d))]
        for a in apexes[::2]:
            for end in (t.start, t.end):
                walls["sight edges"].append((tuple(a[i] + 0.3 * (end[i] - a[i]) for i in range(2)),
                                             tuple(a[i] + 0.6 * (end[i] - a[i]) for i in range(2))))
        a = apexes[0]
        inward = tuple((a[i] + t.end[i]) / 2.0 - t.start[i] for i in range(2))
        walls["target endpoints"] += [(t.start, tuple(t.start[i] + f * inward[i] for i in range(2)))
                                      for f in (0.2, -0.2)]
        walls["target endpoints"].append((t.end, tuple(t.end[i] + 0.4 * (a[i] - t.end[i]) for i in range(2))))
    return base, points, walls


@pytest.mark.parametrize("budget", [_BUDGET, 1])
def test_target_grouped_prefilter_equals_oracle_on_adversarial_blockers(monkeypatch, budget):
    base, points, walls = prefilter_scene()
    block = np.array(points)
    monkeypatch.setattr(sweep_module, "_BUDGET", budget)
    every = [Obstacle(k, w) for k, w in enumerate(w for kind in walls.values() for w in kind)]
    for kind, chains in walls.items():
        seen = set()
        # each wall alone, then the kind's walls together
        for obstacles in [[Obstacle(0, w)] for w in chains] + [[Obstacle(k, w) for k, w in enumerate(chains)]]:
            idx = ScenarioIndex(dataclasses.replace(base, obstacles=tuple(obstacles)))
            pi, tj = sweep_module._cheap_pairs(block, idx)
            assert set(tj.tolist()) == set(range(5))
            hidden = sweep_module._occluded(block, pi, tj, idx)
            assert np.array_equal(hidden, oracle_occluded(block, pi, tj, idx)), (kind, obstacles)
            seen.update(hidden.tolist())
        assert seen == {False, True}, kind
    s = dataclasses.replace(base, obstacles=tuple(every))
    for chunk in (5, len(points)):
        assert_groups_equal(sweep_in_tiles(monkeypatch, points, s, chunk), oracle_sweep_points(points, s, chunk=chunk), s)


def line_scene(phi_deg):
    """A horizontal and a slanted target seen from a grid of points on both
    sides of their lines (a facing cone wider than 90 deg sees both sides)
    and from points exactly on those lines (sight triangles of sign 0), with
    walls parallel to each target on its line, up to 2*eps_len either side of
    it and 1 cm and 0.3 m in front of and behind it, and collinear walls
    beside its ends."""
    sensor = SensorSpec(aov_deg=120.0, r_min=0.0, r_max=15.0, phi_deg=phi_deg)
    r = math.sqrt(0.5)
    targets = (Target(0, (20.0, 20.0), (22.0, 20.0), (0.0, 1.0)),
               Target(1, (30.0, 24.0), (31.0, 25.0), (-r, r)))
    base = Scenario(50.0, 50.0, sensor, targets)
    eps = base.tol.eps_len
    points = [(14.0 + 1.5 * i, 12.0 + 1.5 * j) for i in range(17) for j in range(14)]
    points += [(16.0, 20.0), (18.5, 20.0), (25.0, 20.0), (27.0, 20.0),   # on target 0's line
               (27.0, 21.0), (28.0, 22.0), (33.0, 27.0), (34.5, 28.5)]   # on target 1's line
    walls = []
    for t in targets:
        (sx, sy), (ex, ey), (nx, ny) = t.start, t.end, t.normal
        ux, uy = ex - sx, ey - sy
        for d in (0.0, eps / 2.0, -eps / 2.0, eps, -eps, 2.0 * eps, -2.0 * eps, 0.01, -0.01, 0.3, -0.3):
            if d:   # spanning the target, offset along its normal
                walls.append(((sx - 0.5 * ux + d * nx, sy - 0.5 * uy + d * ny),
                              (ex + 0.5 * ux + d * nx, ey + 0.5 * uy + d * ny)))
            else:   # on its line, beside either end
                walls += [((ex + 0.2 * ux, ey + 0.2 * uy), (ex + 1.5 * ux, ey + 1.5 * uy)),
                          ((sx - 1.5 * ux, sy - 1.5 * uy), (sx - 0.2 * ux, sy - 0.2 * uy))]
    return base, points, walls


@pytest.mark.parametrize("budget", [_BUDGET, 1])
@pytest.mark.parametrize("phi_deg", [135.0, 180.0])
def test_side_grouped_occlusion_equals_oracle_about_target_lines(monkeypatch, budget, phi_deg):
    base, points, walls = line_scene(phi_deg)
    block = np.array(points)
    monkeypatch.setattr(sweep_module, "_BUDGET", budget)
    idx = ScenarioIndex(base)
    pi, tj = sweep_module._cheap_pairs(block, idx)
    sx, sy, ex, ey = idx.sx[tj], idx.sy[tj], idx.ex[tj], idx.ey[tj]
    x, y = block[pi, 0], block[pi, 1]
    sgn = np.sign((sx - x) * (ey - y) - (sy - y) * (ex - x))
    for j in range(2):   # each target is seen from both sides of its line and from on it
        assert set(sgn[tj == j].tolist()) == {-1.0, 0.0, 1.0}, j
    clipped = []

    def clip(ax, ay, sx, sy, ex, ey, *blocker):
        clipped.append(np.sign((sx - ax) * (ey - ay) - (sy - ay) * (ex - ax)))
        return _blocks_triangle_np(ax, ay, sx, sy, ex, ey, *blocker)

    monkeypatch.setattr(sweep_module, "_blocks_triangle_np", clip)
    seen = set()
    # each wall alone, then all of them together
    for obstacles in [[Obstacle(0, w)] for w in walls] + [[Obstacle(k, w) for k, w in enumerate(walls)]]:
        idx = ScenarioIndex(dataclasses.replace(base, obstacles=tuple(obstacles)))
        assert np.array_equal(sweep_module._cheap_pairs(block, idx)[0], pi)
        hidden = sweep_module._occluded(block, pi, tj, idx)
        assert np.array_equal(hidden, oracle_occluded(block, pi, tj, idx)), obstacles
        seen.update(zip(tj[hidden].tolist(), sgn[hidden].tolist()))
    # walls in front of each target hide some of its pairs on both sides, and
    # no sliver sight triangle reaches the clip
    assert {(0, -1.0), (0, 1.0), (1, -1.0), (1, 1.0)} <= seen
    assert 0.0 not in set(np.concatenate(clipped).tolist())
    s = dataclasses.replace(base, obstacles=tuple(Obstacle(k, w) for k, w in enumerate(walls)))
    assert_groups_equal(sweep_in_tiles(monkeypatch, points, s, 64), oracle_sweep_points(points, s, chunk=64), s)


def test_plane_tests_reject_only_what_the_clip_rejects():
    # walls along the edges of sight triangles, a few ulps either side, and
    # no tolerance in the clip to hide a rounding difference: where the
    # prefilter's plane test puts a wall wholly outside one edge plane, the
    # clip rejects it too
    rng = np.random.default_rng(1)
    n = 100_000
    sx, sy, ex, ey = 30.1, 24.3, 31.7, 25.9
    ax = rng.uniform(25.0, 30.0, n)
    ay = ax - 5.8 + rng.uniform(1.0, 5.0, n)
    sgn = np.sign((sx - ax) * (ey - ay) - (sy - ay) * (ex - ax))
    assert (sgn != 0.0).all()
    vx, vy = (ax, np.full(n, sx), np.full(n, ex)), (ay, np.full(n, sy), np.full(n, ey))
    # the clip's planes: through vertex i, normal sgn * (u_y - v_y, v_x - u_x) toward vertex i + 1
    planes = [(vx[i], vy[i], sgn * (vy[i] - vy[(i + 1) % 3]), sgn * (vx[(i + 1) % 3] - vx[i])) for i in range(3)]
    edge = rng.integers(0, 3, n)
    ux, uy, nx, ny = (np.choose(edge, [pl[c] for pl in planes]) for c in range(4))
    wx = np.choose(edge, [vx[(i + 1) % 3] - vx[i] for i in range(3)])
    wy = np.choose(edge, [vy[(i + 1) % 3] - vy[i] for i in range(3)])
    f1, f2, k = rng.uniform(0.05, 0.45, n), rng.uniform(0.55, 0.95, n), rng.uniform(-30.0, 30.0, n) * 1e-15
    walls = SimpleNamespace(bax=ux + f1 * wx + k * nx, bay=uy + f1 * wy + k * ny,
                            bbx=ux + f2 * wx + k * nx, bby=uy + f2 * wy + k * ny)
    b = np.arange(n)
    meets = np.logical_and.reduce([sweep_module._meets_plane(*pl, b, walls) for pl in planes])
    hit = _blocks_triangle_np(ax, ay, np.full(n, sx), np.full(n, sy), np.full(n, ex), np.full(n, ey),
                              walls.bax, walls.bay, walls.bbx, walls.bby, 0.0)
    assert not (hit & ~meets).any()
    assert hit.any() and (~meets).any()


def test_table_rejects_indices_outside_it():
    s, points = ring_scene()
    table = sweep_points(points, s).table
    for i in (-1, len(table)):
        with pytest.raises(IndexError):
            table[i]
    empty = sweep_points([(0.0, 0.0)], s)
    assert len(empty.table) == 0 and list(empty) == [[]]
    assert len(sweep_points([], s)) == 0


def test_table_from_configs_rejects_ids_the_scenario_lacks():
    s, points = ring_scene()
    cfg = sweep_points(points, s).table[0]
    stray = cfg._replace(covered=cfg.covered[:-1] + (999,))
    with pytest.raises(ValueError, match="999"):
        from_configs([cfg, stray], s.targets)
    with pytest.raises(ValueError, match="999"):
        greedy_cover(from_configs([stray], s.targets), s)


def test_table_invariants():
    s, points = bench_family(40, 30.0, 0, "bcpf", 1)
    groups = sweep_points(points, s)
    table = groups.table
    sizes = np.diff(table.ptr)
    assert table.ptr[0] == 0 and (sizes > 0).all() and table.ptr[-1] == len(table.covered)
    # point-major configs, members in target-id order within each config
    assert (np.diff(table.source) >= 0).all()
    assert np.array_equal(np.diff(groups.ptr), np.bincount(table.source, minlength=len(points)))
    owner = np.repeat(np.arange(len(table)), sizes)
    same = owner[1:] == owner[:-1]
    assert (np.diff(table.covered)[same] > 0).all()
    assert np.array_equal(table.position, np.asarray(points)[table.source])
