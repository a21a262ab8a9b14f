"""Angular sweep around candidate points.

Given a candidate position, find which targets it could cover, enumerate every
maximal subset that fits in one view cone, and derive the feasible
viewing-direction window per subset.  `sweep_points` does this for many points
in two phases, pair passes over spatial tiles and subset passes per live-pair
count, into one `model.ConfigTable`.  The pair passes test the facing clause
first and the other clauses only where it holds; occlusion groups a tile's
pairs by target and by the side of its line their apex is on, drops blockers
at the group's box and target plane and then at each pair's box and sight
planes, in the exact clip's own arithmetic, and clips only what is left.  The
subset passes wrap angles by compare-and-add (`geom._mod_2pi_np`), bit for
bit `np.remainder`.  The clauses here are the array form of the scalar
reference `fields.covers`; the solution verifier (`select.verify_solution`)
calls that reference and never this module's kernel.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .geom import EPS_ANG, TWO_PI, _mod_2pi_np, _norm_angle_np
from .model import CandidateConfig, ConfigTable, Scenario


# --- vectorized batch sweep --------------------------------------------------

# Points per tile of the (point, target) pair passes, and the element budget
# of one (points, K, K) subset tensor or one (pair, blocker) expansion: the
# temporaries stay at a few MB whatever the point count or K.  A tile's
# (pair group, blocker) test is not split; it is at most 2 x targets x blockers.
_CHUNK = 512
_BUDGET = 1 << 18


class ScenarioIndex:
    """Flat numpy snapshot of a scenario for the batch sweep."""

    def __init__(self, s: Scenario):
        self.scenario = s
        self.tol = s.tol
        ts = s.targets
        self.ids = np.array([t.id for t in ts], dtype=np.int64)
        self.sx = np.array([t.start[0] for t in ts])
        self.sy = np.array([t.start[1] for t in ts])
        self.ex = np.array([t.end[0] for t in ts])
        self.ey = np.array([t.end[1] for t in ts])
        self.nx = np.array([t.normal[0] for t in ts])
        self.ny = np.array([t.normal[1] for t in ts])
        self.mx = (self.sx + self.ex) / 2.0
        self.my = (self.sy + self.ey) / 2.0
        blockers = s.blockers()
        self.bax = np.array([b.a[0] for b, _ in blockers])
        self.bay = np.array([b.a[1] for b, _ in blockers])
        self.bbx = np.array([b.b[0] for b, _ in blockers])
        self.bby = np.array([b.b[1] for b, _ in blockers])
        self.owner = np.array([o for _, o in blockers], dtype=np.int64)
        self.bx_lo = np.minimum(self.bax, self.bbx)
        self.bx_hi = np.maximum(self.bax, self.bbx)
        self.by_lo = np.minimum(self.bay, self.bby)
        self.by_hi = np.maximum(self.bay, self.bby)

    def cols(self, tj):
        """Target columns (sx, sy, ex, ey, nx, ny) at indices tj, for `clause_slacks`."""
        return self.sx[tj], self.sy[tj], self.ex[tj], self.ey[tj], self.nx[tj], self.ny[tj]


def _seg_point_dist_np(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    t = np.where(L2 > 0.0, ((px - ax) * dx + (py - ay) * dy) / np.where(L2 > 0, L2, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def clause_slacks(x, y, cols, sensor, eps_len):
    """Slacks of the coverage clauses that need neither a viewing direction nor
    occlusion, facing aside (`_facing_slack`), for camera (x[k], y[k]) and the
    target whose columns (sx, sy, ex, ey, nx, ny) are entry k of `cols` (see
    `ScenarioIndex.cols`; scalars serve one target): both endpoints farther
    than eps_len and within r_max, outside the r_min band (given r_min > 0),
    the midpoint farther than eps_len; given theta < pi, the subtended angle.

    Returns (length slacks, angle slacks), two lists of per-camera arrays, one
    array per clause; a camera passes these clauses exactly when all its
    slacks are >= 0.  eps_len is a scalar or a per-camera array."""
    sx, sy, ex, ey = cols[:4]
    d_s = np.hypot(sx - x, sy - y)
    d_e = np.hypot(ex - x, ey - y)
    vmx = x - (sx + ex) / 2.0
    vmy = y - (sy + ey) / 2.0
    # a strict clause d > eps is the closed clause d >= the next float above eps
    above = np.nextafter(eps_len, np.inf)
    lengths = [d_s - above, d_e - above, (sensor.r_max + eps_len) - np.maximum(d_s, d_e),
               np.hypot(vmx, vmy) - above]
    if sensor.r_min > 0.0:
        lengths.append(_seg_point_dist_np(x, y, sx, sy, ex, ey) - (sensor.r_min - eps_len))
    angles = []
    if sensor.theta < math.pi:
        vsx, vsy = sx - x, sy - y
        vex, vey = ex - x, ey - y
        cross = np.abs(vsx * vey - vsy * vex)
        dot = vsx * vex + vsy * vey
        angles.append((sensor.theta + EPS_ANG) - np.arctan2(cross, dot))
    return lengths, angles


def _facing_slack(vmx, vmy, nx, ny, sensor):
    """Slack of the facing clause for a camera offset (vmx, vmy) from the
    midpoint of a target with normal (nx, ny)."""
    return (sensor.phi + EPS_ANG) - np.arctan2(np.abs(nx * vmy - ny * vmx), nx * vmx + ny * vmy)


# np.hypot and np.arctan2 may differ from math's in the last bits, far below
# these margins (eps_len units, radians): a slack within one is left to `covers`.
_LEN_MARGIN = 1e-3
_ANG_MARGIN = 1e-12


def clause_verdicts(x, y, cols, sensor, eps_len):
    """(holds, unsure): per camera, whether every `clause_slacks` clause and
    the facing clause hold with a slack beyond the margins above, and whether
    some slack lies within them and none fails beyond them.  A camera that is
    neither fails; an unsure one needs `fields.covers` (without vd or scenario)
    to decide."""
    sx, sy, ex, ey, nx, ny = cols
    lengths, angles = clause_slacks(x, y, cols, sensor, eps_len)
    angles.append(_facing_slack(x - (sx + ex) / 2.0, y - (sy + ey) / 2.0, nx, ny, sensor))
    margins = [_LEN_MARGIN * eps_len] * len(lengths) + [_ANG_MARGIN] * len(angles)
    fails = np.logical_or.reduce([slack < -m for slack, m in zip(lengths + angles, margins)])
    holds = np.logical_and.reduce([slack > m for slack, m in zip(lengths + angles, margins)])
    return holds, ~fails & ~holds


def _cheap_pairs(block: np.ndarray, idx: ScenarioIndex):
    """(point, target) index pairs passing the facing and `clause_slacks`
    clauses at the scene tolerance, point-major with targets in index order."""
    sensor, eps_len = idx.scenario.sensor, idx.tol.eps_len
    # the range clause puts both endpoints, so the midpoint too, within
    # r_max + eps_len: a squared distance with slack picks the candidates,
    # among the targets whose midpoints lie that near the block's box
    reach = (sensor.r_max + 2.0 * eps_len) * (1.0 + 1e-12)
    pad = reach * (1.0 + 1e-9)
    lo, hi = block.min(axis=0), block.max(axis=0)
    near = np.flatnonzero((idx.mx - lo[0] >= -pad) & (idx.mx - hi[0] <= pad)
                          & (idx.my - lo[1] >= -pad) & (idx.my - hi[1] <= pad))
    dmx = idx.mx[near] - block[:, 0:1]
    dmy = idx.my[near] - block[:, 1:2]
    pi, k = np.nonzero(dmx * dmx + dmy * dmy <= reach * reach)
    tj = near[k]
    # the facing clause fails for about half the candidates, so it goes first
    x, y = block[pi, 0], block[pi, 1]
    f = np.flatnonzero(_facing_slack(x - idx.mx[tj], y - idx.my[tj], idx.nx[tj], idx.ny[tj], sensor) >= 0.0)
    pi, tj = pi[f], tj[f]
    lengths, angles = clause_slacks(x[f], y[f], idx.cols(tj), sensor, eps_len)
    keep = np.logical_and.reduce([slack >= 0.0 for slack in lengths + angles])
    return pi[keep], tj[keep]


def _blocks_triangle_np(ax, ay, sx, sy, ex, ey, bax, bay, bbx, bby, eps):
    """Elementwise geom.segment_blocks_triangle: blocker (ba, bb) enters the
    open triangle (apex, s, e)."""
    cross = (sx - ax) * (ey - ay) - (sy - ay) * (ex - ax)
    sgn = np.sign(cross)
    # degenerate slivers never block
    out = sgn != 0.0
    vx = (ax, sx, ex)
    vy = (ay, sy, ey)
    lo = np.zeros(out.shape)
    hi = np.ones(out.shape)
    planes = []
    for i in range(3):
        ux, uy = vx[i], vy[i]
        nx = sgn * (uy - vy[(i + 1) % 3])
        ny = sgn * (vx[(i + 1) % 3] - ux)
        planes.append((ux, uy, nx, ny, np.hypot(nx, ny)))
        dp = nx * (bax - ux) + ny * (bay - uy)
        dq = nx * (bbx - ux) + ny * (bby - uy)
        out &= (dp >= 0.0) | (dq >= 0.0)
        den = dp - dq
        at = dp / np.where(den != 0.0, den, 1.0)
        lo = np.where((dp < 0.0) & (dq >= 0.0), np.maximum(lo, at), lo)
        hi = np.where((dq < 0.0) & (dp >= 0.0), np.minimum(hi, at), hi)
    out &= hi - lo > 1e-12
    sm = (lo + hi) / 2.0
    mx = bax + sm * (bbx - bax)
    my = bay + sm * (bby - bay)
    for ux, uy, nx, ny, nlen in planes:
        out &= nx * (mx - ux) + ny * (my - uy) > eps * nlen
    return out


def _occluded(block: np.ndarray, pi, tj, idx: ScenarioIndex) -> np.ndarray:
    """Per pair: some blocker other than the target itself enters the open
    sight triangle from point pi of the block to target tj."""
    out = np.zeros(tj.size, dtype=bool)
    eps = idx.tol.eps_len
    # a blocker entering a sight triangle comes within r_max + eps_len of its
    # apex, so the block tests only the blockers whose boxes reach its box
    reach = idx.scenario.sensor.r_max + 3.0 * eps
    lo, hi = block.min(axis=0), block.max(axis=0)
    near = np.flatnonzero((idx.bx_lo - reach <= hi[0]) & (lo[0] <= idx.bx_hi + reach)
                          & (idx.by_lo - reach <= hi[1]) & (lo[1] <= idx.by_hi + reach))
    x, y = block[pi, 0], block[pi, 1]
    sx, sy, ex, ey = idx.sx[tj], idx.sy[tj], idx.ex[tj], idx.ey[tj]
    # the clip's winding sign: a sliver triangle (sign 0) is never blocked
    sgn = np.sign((sx - x) * (ey - y) - (sy - y) * (ex - x))
    live = np.flatnonzero(sgn != 0.0)
    if near.size == 0 or live.size == 0:
        return out
    x, y, sx, sy, ex, ey, sgn = (v[live] for v in (x, y, sx, sy, ex, ey, sgn))
    # bounding-box prefilter: only (pair, blocker) candidates whose sight
    # triangle and blocker boxes overlap need the exact clip
    tx_lo = np.minimum(np.minimum(sx, ex), x) - eps
    tx_hi = np.maximum(np.maximum(sx, ex), x) + eps
    ty_lo = np.minimum(np.minimum(sy, ey), y) - eps
    ty_hi = np.maximum(np.maximum(sy, ey), y) + eps
    # group the pairs by target and by the side of its line their apex is on;
    # a group's box is the union of its pairs' boxes, so testing it keeps
    # every blocker some pair's box test keeps
    key = 2 * tj[live] + (sgn > 0.0)
    by_k = np.argsort(key, kind="stable")
    u, first = np.unique(key[by_k], return_index=True)
    group = np.searchsorted(u, key)
    t, side = u[:, None] >> 1, np.where(u & 1, 1.0, -1.0)[:, None]
    # a group's pairs share the clip's plane through the target, from s to e,
    # so a blocker wholly behind it drops out for the whole group
    n1x, n1y = side * (idx.sy[t] - idx.ey[t]), side * (idx.ex[t] - idx.sx[t])
    cand = (
        (np.minimum.reduceat(tx_lo[by_k], first)[:, None] <= idx.bx_hi[near])
        & (idx.bx_lo[near] <= np.maximum.reduceat(tx_hi[by_k], first)[:, None])
        & (np.minimum.reduceat(ty_lo[by_k], first)[:, None] <= idx.by_hi[near])
        & (idx.by_lo[near] <= np.maximum.reduceat(ty_hi[by_k], first)[:, None])
        & (idx.owner[near] != idx.ids[t])
        & _meets_plane(idx.sx[t], idx.sy[t], n1x, n1y, near, idx)
    )
    g, k = np.nonzero(cand)
    blockers = near[k]   # group g's blockers are blockers[gptr[g]:gptr[g + 1]]
    gptr = np.searchsorted(g, np.arange(u.size + 1))
    n_b = np.diff(gptr)[group]
    # the clip's planes through the apex, from the apex to s and from e to it
    n0x, n0y = sgn * (y - sy), sgn * (sx - x)
    n2x, n2y = sgn * (ey - y), sgn * (x - ex)
    step = max(1, _BUDGET // max(1, int(n_b.max())))
    for a in range(0, live.size, step):
        # each pair against its group's blockers only, then by its own box
        # and its own planes
        cnt = n_b[a:a + step]
        p = np.repeat(np.arange(a, a + cnt.size), cnt)
        b = blockers[np.repeat(gptr[group[a:a + step]] - (np.cumsum(cnt) - cnt), cnt) + np.arange(p.size)]
        keep = ((tx_lo[p] <= idx.bx_hi[b]) & (idx.bx_lo[b] <= tx_hi[p])
                & (ty_lo[p] <= idx.by_hi[b]) & (idx.by_lo[b] <= ty_hi[p]))
        p, b = p[keep], b[keep]
        keep = (_meets_plane(x[p], y[p], n0x[p], n0y[p], b, idx)
                & _meets_plane(ex[p], ey[p], n2x[p], n2y[p], b, idx))
        p, b = p[keep], b[keep]
        hit = _blocks_triangle_np(x[p], y[p], sx[p], sy[p], ex[p], ey[p],
                                  idx.bax[b], idx.bay[b], idx.bbx[b], idx.bby[b], eps)
        out[live[p[hit]]] = True
    return out


def _meets_plane(ux, uy, nx, ny, b, idx: ScenarioIndex) -> np.ndarray:
    """Blocker b has an end on the inner side of the plane through (ux, uy)
    with normal (nx, ny), in `_blocks_triangle_np`'s own arithmetic: where
    this is false, the clip rejects the blocker at that plane."""
    return ((nx * (idx.bax[b] - ux) + ny * (idx.bay[b] - uy) >= 0.0)
            | (nx * (idx.bbx[b] - ux) + ny * (idx.bby[b] - uy) >= 0.0))


def _maximal_rows(fits: np.ndarray) -> np.ndarray:
    """(G, K) mask of the anchors whose (G, K, K) fits row is a maximal subset:
    non-empty, the first anchor with that row, and strictly inside no other row.
    Rows are compared as packed words of the fewest bytes (1, 2, 4 or 8) that
    hold K bits, or as several 8-byte words, so any K works."""
    K = fits.shape[1]
    nb = -(-K // 8)
    size = min(8, 1 << (nb - 1).bit_length())
    W = -(-nb // size)
    bits = np.zeros(fits.shape[:2] + (W * size,), dtype=np.uint8)
    bits[:, :, :nb] = np.packbits(fits, axis=2, bitorder="little")
    bits = bits.view(f"<u{size}")
    word = bits[:, :, 0]
    neq = word[:, :, None] != word[:, None, :]
    sub = (word[:, :, None] & ~word[:, None, :]) == 0   # sub[g, a, b]: row a within row b
    for w in range(1, W):
        word = bits[:, :, w]
        neq |= word[:, :, None] != word[:, None, :]
        sub &= (word[:, :, None] & ~word[:, None, :]) == 0
    # a row within an earlier anchor's row, or strictly within a later one's
    earlier = np.tri(K, k=-1, dtype=bool)   # earlier[a, b]: b < a
    return ~(sub & (neq | earlier)).any(axis=2) & bits.any(axis=2)


def _subsets(pts: np.ndarray, pi, tj, idx: ScenarioIndex):
    """Maximal co-coverable subsets at every point from its live pairs (sorted
    by point, targets in index order), as (points, K, K) passes over the points
    with K pairs.  Returns two tuples: per config its point, vd_rep, vd_lo,
    vd_window and member count, then per member its pair (an index into pi
    and tj); and per pair its interval_lo, interval_hi and mid bearing.  A
    point's configs come in one pass in anchor order, members of a config in
    target-id order."""
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0), np.zeros(0),
              np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))]
    x, y = pts[pi, 0], pts[pi, 1]
    theta = idx.scenario.sensor.theta
    limit = theta + EPS_ANG
    b1 = np.arctan2(idx.sy[tj] - y, idx.sx[tj] - x)
    b2 = np.arctan2(idx.ey[tj] - y, idx.ex[tj] - x)
    diff = _mod_2pi_np(b2 - b1 + math.pi) - math.pi
    lo = _mod_2pi_np(np.where(diff >= 0.0, b1, b2), turns=1)
    width = np.abs(diff)
    mids = _mod_2pi_np(np.arctan2(idx.my[tj] - y, idx.mx[tj] - x), turns=1)
    tid = idx.ids[tj]

    count = np.bincount(pi, minlength=pts.shape[0])
    offset = np.cumsum(count) - count   # each point's first pair
    for K in np.unique(count[count > 0]).tolist():
        bucket = np.flatnonzero(count == K)
        G = max(1, _BUDGET // (K * K))
        for g0 in range(0, bucket.size, G):
            point = bucket[g0:g0 + G]
            pair = offset[point, None] + np.arange(K)
            # anchors run in pair order, members in target-id order: a row's
            # set does not depend on its column order, and its members come
            # out in the order the table keeps them
            mem = np.take_along_axis(pair, np.argsort(tid[pair], axis=1, kind="stable"), axis=1)
            lo_p, lo_m, wd_m = lo[pair], lo[mem], width[mem]
            # [g, anchor, member]: how far past the anchor's lo the member ends
            reach = _mod_2pi_np(lo_m[:, None, :] - lo_p[:, :, None], turns=1) + wd_m[:, None, :]
            fits = reach <= limit
            gm, am = np.nonzero(_maximal_rows(fits))
            rows = fits[gm, am]
            span = np.where(rows, reach[gm, am], -np.inf).max(axis=1)
            lo_a = lo_p[gm, am]
            # re-verify angular containment at vd_rep (range/facing already hold)
            cone_lo = lo_a + span / 2.0 - theta / 2.0
            off = _mod_2pi_np(lo_m[gm] - cone_lo[:, None])
            off = np.where(off > TWO_PI - EPS_ANG, 0.0, off)
            ok = (~rows | (off + wd_m[gm] <= limit)).all(axis=1)
            gm, rows, span, lo_a = gm[ok], rows[ok], span[ok], lo_a[ok]
            r, c = np.nonzero(rows)
            parts.append((
                point[gm],
                _norm_angle_np(lo_a + span / 2.0),
                _norm_angle_np(lo_a + span - theta / 2.0),
                theta - span,
                rows.sum(axis=1),
                mem[gm[r], c],
            ))
    return tuple(map(np.concatenate, zip(*parts))), (lo, _mod_2pi_np(lo + width), mids)


class PointGroups(Sequence):
    """The sweep's configs grouped by candidate point.

    `table` holds every config, point-major; item k lists the configs of
    point k as `CandidateConfig` views, built on access."""

    def __init__(self, table: ConfigTable, ptr: np.ndarray):
        self.table = table
        self.ptr = ptr   # the configs of point k are table rows ptr[k]:ptr[k + 1]

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, k: int) -> list[CandidateConfig]:
        k = range(len(self))[k]
        return [self.table[i] for i in range(self.ptr[k], self.ptr[k + 1])]


def _z_order(pts: np.ndarray) -> np.ndarray:
    """Indices of the points in Z-order (Morton order) over a 2^16 x 2^16
    lattice on their bounding box; ties keep input order."""
    if pts.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    with np.errstate(all="ignore"):
        q = (pts - lo) / np.where(span > 0.0, span, 1.0) * 65535.0
    q = np.clip(np.nan_to_num(q), 0.0, 65535.0).astype(np.uint64)
    for shift, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333), (1, 0x55555555)):
        q = (q | (q << np.uint64(shift))) & np.uint64(mask)
    return np.argsort(q[:, 0] | (q[:, 1] << np.uint64(1)), kind="stable")


def sweep_points(points, s: Scenario) -> PointGroups:
    """Run the angular sweep at every point; groups parallel to `points`,
    each config's source the index of its point.

    The pair passes take blocks of `_CHUNK` points in Z-order, compact tiles
    that see few targets and blockers, and keep the live (point, target)
    pairs; the subset passes take the points with K live pairs together.  A
    point's configs depend on neither grouping, and a stable sort by point
    restores point-major order."""
    idx = ScenarioIndex(s)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    tiles = _z_order(pts)
    pairs = [np.zeros((2, 0), dtype=np.int64)]
    for base in range(0, pts.shape[0], _CHUNK):
        tile = tiles[base:base + _CHUNK]
        pi, tj = _cheap_pairs(pts[tile], idx)
        live = ~_occluded(pts[tile], pi, tj, idx)
        pairs.append(np.stack((tile[pi[live]], tj[live])))
    pi, tj = np.concatenate(pairs, axis=1)
    by_point = np.argsort(pi, kind="stable")
    tj = tj[by_point]
    (point, vd_rep, vd_lo, vd_window, size, q), (lo, hi, mids) = _subsets(pts, pi[by_point], tj, idx)
    order = np.argsort(point, kind="stable")
    first = (np.cumsum(size) - size)[order]   # each config's first member as emitted
    size = size[order]
    ptr = np.concatenate(([0], np.cumsum(size)))
    q = q[np.repeat(first - ptr[:-1], size) + np.arange(ptr[-1])]
    point = point[order]
    col = tj[q]
    table = ConfigTable(
        source=point,
        position=pts[point],
        vd_rep=vd_rep[order],
        vd_lo=vd_lo[order],
        vd_window=vd_window[order],
        ptr=ptr,
        covered=idx.ids[col],
        col=col,
        interval_lo=lo[q],
        interval_hi=hi[q],
        mid_bearings=mids[q],
    )
    return PointGroups(table, np.searchsorted(point, np.arange(pts.shape[0] + 1)))
