"""Angular sweep around candidate points.

Given a candidate position, find which targets it could cover, enumerate every
maximal subset that fits in one view cone, and centre a viewing direction
(vd_rep) on each subset's span; the members' bearing intervals, kept beside
it, give the window of directions for any part of the subset.  `sweep_points`
does this for many points in two phases, pair passes over spatial tiles and
subset passes per live-pair count, into one `model.ConfigTable`.  A pair is
live exactly where the scalar reference `fields.covers` holds, as decided by
`fields.covers_np`, and no blocker clips its sight triangle: the clip
(`geom._blocks_triangle_np`) tests the blockers whose shadow cones hold the
apex, and no other blocker can clip it (see `_occluded`).  The subset
passes wrap angles by compare-and-add (`geom._mod_2pi_np`), bit for bit
`np.remainder`, and need no cone re-check (see `_subsets`).  The solution
verifier (`select.verify_solution`) calls `covers` and never this module.

The passes keep to flat numpy idioms, which numpy 2.4 runs several times
faster than the 2-D forms on these shapes (one 2-vCPU Xeon host):
`np.divmod(np.flatnonzero(m), K)` for `np.nonzero` (0.6 against 2.9 ms on a
(1024, 16, 16) mask), a reduction over a leading axis for `.any` over a
16-wide last axis (10 us against 0.7 ms), `take` and `compress` for fancy
and mask indexing (0.15 against 1.5 ms gathering 60k rows of an (m, 2)
array, 0.2 against 1.3 ms masking a (2, 60k) one), and one `packbits` over
a flat buffer for `packbits(..., axis=2)` (11 us against 0.8 ms).
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .fields import covers_np, target_columns
from .geom import (EPS_ANG, TWO_PI, _blocks_triangle_np, _mod_2pi_np, _norm_angle_np, _wrap_pi_np,
                   box_pairs, segment_boxes)
from .model import CandidateConfig, ConfigTable, Scenario


# --- vectorized batch sweep --------------------------------------------------

# Points per tile of the (point, target) pair passes, and the element budget
# of one (points, K, K) subset tensor, one (pair, blocker) expansion or the
# dozen arrays of _BUDGET // 8 pairs of an occlusion pass: the temporaries
# stay at a few MB whatever the point count or K.
_CHUNK = 512
_BUDGET = 1 << 18


class ScenarioIndex:
    """Flat numpy snapshot of a scenario for the batch sweep; blockers in the
    order of `Scenario.blockers`, so blocker k < n is target k's own."""

    def __init__(self, s: Scenario):
        self.scenario = s
        self.eps_len = s.eps_len
        ts = s.targets
        self.ids = np.array([t.id for t in ts], dtype=np.int64)
        self.columns = target_columns(ts)   # for `covers_np`
        self.sx, self.sy, self.ex, self.ey, self.nx, self.ny, self.mx, self.my = self.columns
        blockers = s.blockers()
        self.bax = np.array([b.a[0] for b in blockers])
        self.bay = np.array([b.a[1] for b in blockers])
        self.bbx = np.array([b.b[0] for b in blockers])
        self.bby = np.array([b.b[1] for b in blockers])


def _shadow_cones(idx: ScenarioIndex):
    """Shadow cones (see `_occluded`): cone c lets blocker b[c] hide target t[c]
    only from apexes whose keys 8 t + bearing from s lie in [lo[c], hi[c]]; a
    blocker that does comes within r_max + eps_len of the target."""
    reach = idx.scenario.sensor.r_max + 3.0 * idx.eps_len
    t, b = box_pairs(*segment_boxes([t.segment for t in idx.scenario.targets], reach),
                     *segment_boxes(idx.scenario.blockers(), 0.0))
    t, b = t[b != t], b[b != t]
    # the bearings of the corners of b - t, as offsets in (-pi, pi] from the first's
    sx, sy, ex, ey = idx.sx[t], idx.sy[t], idx.ex[t], idx.ey[t]
    phi = np.arctan2(np.stack((idx.bay[b] - sy, idx.bay[b] - ey, idx.bby[b] - sy, idx.bby[b] - ey)),
                     np.stack((idx.bax[b] - sx, idx.bax[b] - ex, idx.bbx[b] - sx, idx.bbx[b] - ex)))
    rel = _wrap_pi_np(phi - phi[0])
    lo, hi = rel.min(axis=0) - EPS_ANG, rel.max(axis=0) + EPS_ANG
    # a hull of pi or more keeps all; a range past -pi or pi wraps to the other end
    wide = hi - lo >= math.pi
    lo, hi = np.where(wide, -4.0, phi[0] + lo), np.where(wide, 4.0, phi[0] + hi)
    wrap = np.flatnonzero(~wide & ((lo < -math.pi) | (hi > math.pi)))
    shift = np.where(lo[wrap] < -math.pi, TWO_PI, -TWO_PI)
    t, b = np.concatenate((t, t[wrap])), np.concatenate((b, b[wrap]))
    lo, hi = np.concatenate((lo, lo[wrap] + shift)), np.concatenate((hi, hi[wrap] + shift))
    return t, b, 8.0 * t + lo, 8.0 * t + hi


def _cheap_pairs(block: np.ndarray, idx: ScenarioIndex):
    """(point, target) index pairs that `fields.covers` covers at the scene
    tolerance, by `fields.covers_np`, point-major with targets in index order."""
    sensor, eps_len = idx.scenario.sensor, idx.eps_len
    # the range clause puts both endpoints, so the midpoint too, within
    # r_max + eps_len: a squared distance with slack picks the candidates,
    # among the targets whose midpoints lie that near the block's box
    reach = (sensor.r_max + 2.0 * eps_len) * (1.0 + 1e-12)
    pad = reach * (1.0 + 1e-9)
    lo, hi = block.min(axis=0), block.max(axis=0)
    near = np.flatnonzero((idx.mx - lo[0] >= -pad) & (idx.mx - hi[0] <= pad)
                          & (idx.my - lo[1] >= -pad) & (idx.my - hi[1] <= pad))
    dmx = idx.mx.take(near) - block[:, 0:1]
    dmy = idx.my.take(near) - block[:, 1:2]
    pi, k = np.divmod(np.flatnonzero(dmx * dmx + dmy * dmy <= reach * reach), near.size)
    tj = near.take(k)
    keep = covers_np(*block.take(pi, axis=0).T, idx.scenario.targets, idx.columns, tj, sensor, eps_len)
    return pi.compress(keep), tj.compress(keep)


def _occluded(block: np.ndarray, pi, tj, idx: ScenarioIndex, cones) -> np.ndarray:
    """Per pair: some blocker other than the target itself enters the open
    sight triangle from point pi of the block to target tj.

    A pair hands the clip (`geom._blocks_triangle_np`) every blocker whose
    shadow `cones` hold its apex, and only those.  If the clip accepts
    blocker b for apex p and target t = (s, e), a point q of b lies in the
    triangle (the clip keeps eps_len of room from each edge, over the 1e-16
    rounding of coordinates while triangles span under 1e6 scene
    diameters): q = g p + a s + c e, g > 0, a + c + g = 1, so p - s =
    (q - w) / g with w = (a + g) s + c e on t, in the cone spanned by b - t,
    the parallelogram with corners b_a - s, b_a - e, b_b - s, b_b - e.
    Their bearings span pi or more only where b touches or crosses t; then
    all bearings are kept.  Bearings are taken from s, an input, not the
    computed midpoint: each is within 2^-53 rad of exact, and atan2, offsets
    and 2 pi shifts add a few ulps of 2 pi, under 1e-14 rad in all, against
    the margin EPS_ANG = 1e-12 rad.  The key 8 t + bearing rounds
    monotonically: at any n a bearing in a range keeps its key in it, and a
    range, within 4 of 8 t, meets no other target's keys while 8 n < 2^51."""
    cone_t, cone_b, cone_lo, cone_hi = cones
    out = np.zeros(tj.size, dtype=bool)
    x, y = block.take(pi, axis=0).T
    sx, sy, ex, ey = idx.sx.take(tj), idx.sy.take(tj), idx.ex.take(tj), idx.ey.take(tj)
    # the clip never blocks a sliver triangle (cross product, and winding sign, 0)
    live = np.flatnonzero((sx - x) * (ey - y) - (sy - y) * (ex - x) != 0.0)
    key = 8.0 * tj.take(live) + np.arctan2(y.take(live) - sy.take(live), x.take(live) - sx.take(live))
    by_key = np.argsort(key)
    key, live = key.take(by_key), live.take(by_key)
    # the cones of the targets present, and the run of keys each one holds
    c = np.flatnonzero(np.bincount(tj.take(live), minlength=idx.sx.size).take(cone_t))
    first = np.searchsorted(key, cone_lo.take(c), side="left")
    cnt = np.searchsorted(key, cone_hi.take(c), side="right") - first
    end = np.cumsum(cnt)
    for a in range(0, cnt.sum(), _BUDGET):
        e = np.arange(a, min(a + _BUDGET, end[-1]))
        r = np.searchsorted(end, e, side="right")
        p, b = live.take(first.take(r) + e - (end - cnt).take(r)), cone_b.take(c.take(r))
        hit = _blocks_triangle_np(*(v.take(p) for v in (x, y, sx, sy, ex, ey)),
                                  *(v.take(b) for v in (idx.bax, idx.bay, idx.bbx, idx.bby)), idx.eps_len)
        out[p.compress(hit)] = True
    return out


def _maximal_rows(fits: np.ndarray, reach: np.ndarray):
    """The maximal subsets of one (G, K, K) pass: the anchors whose fits row
    is non-empty, the first anchor with that row, and strictly inside no
    other row, as flat indices g K + a; per such row its span, the largest
    reach of a member, and its member count; per member, row by row, its
    flat index g K + c.  One packbits packs the rows, padded, into words of
    the fewest bytes (1, 2, 4 or 8) that hold K bits, or into several 8-byte
    words, so any K works; rows are compared word by word in a [b, g, a]
    layout, so the dominance test reduces a leading axis."""
    G, K = fits.shape[:2]
    nb = -(-K // 8)
    size = min(8, 1 << (nb - 1).bit_length())
    W = -(-nb // size)
    bits = np.zeros((G, K, 8 * size * W), dtype=bool)
    bits[:, :, :K] = fits
    words = np.packbits(bits, bitorder="little").view(f"<u{size}").reshape(G, K, W)
    word = words[:, :, 0]
    other = word.T.copy()[:, :, None]
    neq, sub = word != other, (word & ~other) == 0   # [b, g, a]: row a within row b
    full = word != 0
    for w in range(1, W):
        word = words[:, :, w]
        other = word.T.copy()[:, :, None]
        neq |= word != other
        sub &= (word & ~other) == 0
        full |= word != 0
    # a row within an earlier anchor's row, or strictly within a later one's
    earlier = np.tri(K, k=-1, dtype=bool).T[:, None, :]   # [b, 1, a]: b < a
    head = np.flatnonzero(~np.logical_or.reduce(sub & (neq | earlier), axis=0) & full)
    r, c = np.divmod(np.flatnonzero(fits.reshape(G * K, K).take(head, axis=0)), K)
    count = np.bincount(r, minlength=head.size)
    span = np.maximum.reduceat(reach.reshape(-1).take(head.take(r) * K + c), np.cumsum(count) - count)
    return head, span, count, (head // K).take(r) * K + c


def _subsets(pts: np.ndarray, pi, tj, idx: ScenarioIndex):
    """Maximal co-coverable subsets at every point from its live pairs (sorted
    by point, targets in index order), as (points, K, K) passes over the points
    with K pairs.  Returns two tuples: per config its point, vd_rep and
    member count, then per member its pair (an index into pi and tj); and
    per pair its interval_lo, interval_hi and mid bearing.  A point's configs
    come in one pass in anchor order, members of a config in target-id
    order."""
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))]
    x, y = pts.take(pi, axis=0).T
    limit = idx.scenario.sensor.theta + EPS_ANG
    b1 = np.arctan2(idx.sy.take(tj) - y, idx.sx.take(tj) - x)
    b2 = np.arctan2(idx.ey.take(tj) - y, idx.ex.take(tj) - x)
    diff = _mod_2pi_np(b2 - b1 + math.pi) - math.pi
    lo = _mod_2pi_np(np.where(diff >= 0.0, b1, b2), turns=1)
    width = np.abs(diff)
    mids = _mod_2pi_np(np.arctan2(idx.my.take(tj) - y, idx.mx.take(tj) - x), turns=1)
    # every point's pairs in target-id order, from one stable sort: the
    # keys are already sorted where ids ascend with index
    rank = np.argsort(np.argsort(idx.ids))
    by_id = np.argsort(pi * idx.ids.size + rank.take(tj), kind="stable")

    count = np.bincount(pi, minlength=pts.shape[0])
    offset = np.cumsum(count) - count   # each point's first pair
    for K in np.unique(count[count > 0]).tolist():
        bucket = np.flatnonzero(count == K)
        G = max(1, _BUDGET // (K * K))
        for g0 in range(0, bucket.size, G):
            point = bucket[g0:g0 + G]
            pair = np.add.outer(offset.take(point), np.arange(K))
            # anchors run in pair order, members in target-id order: a row's
            # set does not depend on its column order, and its members come
            # out in the order the table keeps them
            mem = by_id.take(pair)
            lo_p, lo_m, wd_m = lo.take(pair), lo.take(mem), width.take(mem)
            # [g, anchor, member]: how far past the anchor's lo the member ends
            reach = _mod_2pi_np(lo_m[:, None, :] - lo_p[:, :, None], turns=1) + wd_m[:, None, :]
            head, span, size, member = _maximal_rows(reach <= limit, reach)
            # vd_rep centres a cone of width theta on the row's span, from
            # cone_lo = lo_a + (span - theta) / 2, and every member lies in
            # it (offsets from cone_lo wrapped to [0, 2 pi), one within
            # EPS_ANG of 2 pi read as 0).  A member at offset r from lo_a
            # has r + width <= span <= theta + EPS_ANG; its offset from
            # cone_lo is r + (theta - span) / 2, so it ends at most
            # (theta + span) / 2 <= theta + EPS_ANG / 2 past cone_lo.  Where
            # r < (span - theta) / 2 <= EPS_ANG / 2, the offset wraps to
            # within EPS_ANG of 2 pi and reads as 0, and the width alone,
            # at most its reach, fits.  Rounding (about 1e-14) stays well
            # inside the 5e-13 of room, so no config needs a cone check.
            parts.append((point.take(head // K), _norm_angle_np(lo_p.take(head) + span / 2.0), size,
                          mem.take(member)))
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
    each config's source the index of its point.  `points` is a float64
    (m, 2) array, as the candidate generators return, read as it is, or any
    sequence of (x, y) pairs.

    The pair passes take blocks of `_CHUNK` points in Z-order, compact tiles
    that see few targets, occlusion takes runs of whole tiles, and the subset
    passes take the points with K live pairs together.  A point's configs
    depend on none of these groupings; a stable sort restores point order."""
    idx = ScenarioIndex(s)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    tiles, cones = _z_order(pts), _shadow_cones(idx)
    pairs, batch = [np.zeros((2, 0), dtype=np.int64)], []
    for base in range(0, pts.shape[0], _CHUNK):
        tile = tiles[base:base + _CHUNK]
        pi, tj = _cheap_pairs(pts.take(tile, axis=0), idx)
        batch.append(np.stack((tile.take(pi), tj)))
        if sum(q.shape[1] for q in batch) >= _BUDGET // 8 or base + _CHUNK >= pts.shape[0]:
            batch = np.concatenate(batch, axis=1)
            pairs.append(batch.compress(~_occluded(pts, batch[0], batch[1], idx, cones), axis=1))
            batch = []
    del cones   # the subset passes hold the sweep's peak memory
    pairs = np.concatenate(pairs, axis=1)
    # each array is gathered point-major and the unsorted one dropped
    pi, tj = pairs = pairs.take(np.argsort(pairs[0], kind="stable"), axis=1)
    (point, vd_rep, size, q), (lo, hi, mids) = _subsets(pts, pi, tj, idx)
    order = np.argsort(point, kind="stable")
    first = (np.cumsum(size) - size).take(order)   # each config's first member as emitted
    point, vd_rep, size = point.take(order), vd_rep.take(order), size.take(order)
    ptr = np.concatenate(([0], np.cumsum(size)))
    q = q.take(np.repeat(first - ptr[:-1], size) + np.arange(ptr[-1]))
    lo, hi, mids, col = lo.take(q), hi.take(q), mids.take(q), tj.take(q)
    del q
    table = ConfigTable(source=point, position=pts.take(point, axis=0), vd_rep=vd_rep, ptr=ptr,
                        covered=idx.ids.take(col), col=col, interval_lo=lo, interval_hi=hi, mid_bearings=mids)
    return PointGroups(table, np.searchsorted(point, np.arange(pts.shape[0] + 1)))
