"""The array-native candidate stage against the scalar code it replaced.

`oracle_bcpf_sample`, `oracle_dedupe` and `oracle_clamp_to_area` are the
scalar polar sampler, point merge and area clamp as they stood before the
candidate stage worked on arrays, copied verbatim apart from their names.  Points are compared through
`float.hex`, so a coordinate of -0.0 differs from 0.0."""
import math
import random

import numpy as np
import pytest

from camplan import discretize, fields
from camplan.cli import build_candidates
from camplan.discretize import _TAG_RANK, CandidateSet, _dedupe, bcpf_sample
from camplan.fields import covers, field_tolerance, subtended_angle
from camplan.geom import EPS_ANG, Point
from camplan.model import Scenario, SensorSpec, Target
from camplan.scenario import GenParams, random_scenario
from camplan.sweep import ScenarioIndex, _cheap_pairs


def oracle_clamp_to_area(p: Point, s: Scenario) -> Point:
    return (min(max(p[0], 0.0), s.width), min(max(p[1], 0.0), s.height))


def oracle_dedupe(tagged: list[tuple[Point, str]], eps: float) -> tuple[list[Point], list[str]]:
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


def oracle_bcpf_sample(s: Scenario, eps_a: float, eps_r: float) -> CandidateSet:
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
        eps = field_tolerance(t, sensor)
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
            while r >= r_floor - eps:
                p = (mx + r * ux, my + r * uy)
                if covers(t, p, sensor, eps):
                    tagged.append((p, "bcpf-sample"))
                r -= eps_r
    tagged = [(oracle_clamp_to_area(p, s), "bcpf-sample") for p, _ in tagged]
    points, tags = oracle_dedupe(tagged, s.eps_len)
    return CandidateSet(points, tags, params={"algo": "bcpf", "eps_a": eps_a, "eps_r": eps_r})


def exact(points):
    return [(x.hex(), y.hex()) for x, y in points]


def scene(n, r_max, seed, obstacles=0, aov=100.0, r_min=0.0, phi=90.0, margin=3.0):
    sensor = SensorSpec(aov_deg=aov, r_min=r_min, r_max=r_max, phi_deg=phi)
    return random_scenario(GenParams(n_targets=n, n_obstacles=obstacles, margin=margin, seed=seed), sensor)


def corner_scene():
    """Targets at the area's corners and edges facing out of it: most of
    their samples are clamped onto the edges, and many onto the same corner."""
    w = h = 30.0
    targets = [
        Target(0, (0.5, 0.2), (1.5, 0.2), (0.0, -1.0)),
        Target(1, (0.2, 1.5), (0.2, 0.5), (-1.0, 0.0)),
        Target(2, (29.5, 29.8), (28.5, 29.8), (0.0, 1.0)),
        Target(3, (15.0, 0.1), (16.0, 0.1), (0.0, -1.0)),
        Target(4, (29.9, 10.0), (29.9, 11.0), (1.0, 0.0)),
    ]
    return Scenario(w, h, SensorSpec(aov_deg=100.0, r_min=0.0, r_max=6.0), tuple(targets))


def short_range_scene():
    """r_max between 0.4 and 0.5: for the targets 1 m wide the fans near the
    normal cannot reach both endpoints (negative discriminant); the targets
    0.3 m wide between them are sampled."""
    targets = [Target(k, (10.0 + 3.0 * k, 10.0), (10.0 + 3.0 * k + (1.0 if k % 2 else 0.3), 10.0), (0.0, 1.0))
               for k in range(6)]
    return Scenario(40.0, 40.0, SensorSpec(aov_deg=200.0, r_min=0.0, r_max=0.45), tuple(targets))


SAMPLER_CASES = {
    "bcpf-140-r30": (lambda: scene(140, 30.0, 11), 0.1, None),
    "bcpf-400-r10": (lambda: scene(400, 10.0, 12), 0.1, None),
    "comprehensive-25-occluded": (lambda: scene(25, 20.0, 13, obstacles=25), 0.1, None),
    "r_min > 0, aov 200": (lambda: scene(40, 15.0, 14, aov=200.0, r_min=2.5), 0.07, 1.1),
    "r_min > 0, aov 180": (lambda: scene(30, 12.0, 15, aov=180.0, r_min=0.7, phi=60.0), 0.13, 0.9),
    "many rings": (lambda: scene(6, 8.0, 16, margin=0.0), 0.2, 0.013),
    "fans past the area edge": (corner_scene, 0.05, 0.3),
    "r_max below the endpoint offset": (short_range_scene, 0.02, 0.01),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_CASES))
def test_bcpf_sample_equals_scalar_oracle(name, monkeypatch):
    make, eps_a, eps_r = SAMPLER_CASES[name]
    s = make()
    eps_r = s.sensor.r_max if eps_r is None else eps_r
    merged = []
    real = discretize._dedupe

    def counting(xy, rank, eps):
        kept = real(xy, rank, eps)
        merged.append(len(xy) - len(kept))
        return kept

    monkeypatch.setattr(discretize, "_dedupe", counting)
    got = bcpf_sample(s, eps_a, eps_r)
    want = oracle_bcpf_sample(s, eps_a, eps_r)
    assert len(want) > 0
    assert exact(got.points) == exact(want.points)
    assert got.points.dtype == np.float64 and got.points.flags.c_contiguous
    assert got.provenance == want.provenance
    assert got.params == want.params and got.uncoverable == want.uncoverable
    if name == "fans past the area edge":
        on_edge = [p for p in got.points if 0.0 in p or p[0] == s.width or p[1] == s.height]
        assert len(on_edge) > 50 and merged[0] > 10


def test_bcpf_sample_without_targets():
    s = Scenario(10.0, 10.0, SensorSpec(aov_deg=100.0, r_min=0.0, r_max=3.0), ())
    got = bcpf_sample(s, 0.1, 1.0)
    assert got.points.shape == (0, 2) and got.provenance == []


def test_bcpf_sample_borderline_samples_go_to_covers(monkeypatch):
    # an angle of view at which one sample sees the target at exactly the
    # limit, give or take a few ulps: that sample's view-angle slack lies
    # within the rounding margin, so covers must decide it
    t = Target(0, (20.0, 20.0), (21.0, 20.0), (0.0, 1.0))
    wide = Scenario(40.0, 40.0, SensorSpec(aov_deg=170.0, r_min=0.0, r_max=5.0), (t,))
    p = tuple(min(bcpf_sample(wide, 0.1, 0.7).points.tolist(), key=lambda q: math.dist(q, t.midpoint)))
    limit = subtended_angle(t, p) - EPS_ANG
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return covers(*args, **kwargs)

    monkeypatch.setattr(fields, "covers", counting)
    for k in range(-3, 4):
        theta = limit
        for _ in range(abs(k)):
            theta = math.nextafter(theta, math.copysign(math.inf, k))
        s = Scenario(40.0, 40.0, SensorSpec(aov_deg=math.degrees(theta), r_min=0.0, r_max=5.0), (t,))
        calls.clear()
        got = bcpf_sample(s, 0.1, 0.7)
        assert exact(got.points) == exact(oracle_bcpf_sample(s, 0.1, 0.7).points)
        assert p in calls


# --- the point merge ---------------------------------------------------------------------

def merge(tagged, eps):
    xy = np.array([p for p, _ in tagged], dtype=float).reshape(-1, 2)
    rank = np.array([_TAG_RANK[tag] for _, tag in tagged], dtype=np.int64)
    kept = _dedupe(xy, rank, eps)
    return [tuple(p) for p in xy[kept].tolist()], [tagged[k][1] for k in kept.tolist()]


def assert_merge_equals_oracle(tagged, eps):
    got_points, got_tags = merge(tagged, eps)
    want_points, want_tags = oracle_dedupe(tagged, eps)
    assert exact(got_points) == exact(want_points)
    assert got_tags == want_tags


TAGS = sorted(_TAG_RANK)
EPS = 1e-7


def test_dedupe_exact_duplicates():
    rng = random.Random(1)
    for _ in range(20):
        base = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(30)]
        tagged = [(p, "bcpf-sample") for p in base for _ in range(rng.randint(1, 4))]
        rng.shuffle(tagged)
        assert_merge_equals_oracle(tagged, EPS)
        assert len(merge(tagged, EPS)[0]) == len(set(base))


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.6)])
def test_dedupe_chains_closer_than_eps(direction):
    # in a chain spaced 0.9 eps each point is near its neighbours only, so
    # which points stay depends on the walk order: every other one
    rng = random.Random(2)
    for _ in range(30):
        x0, y0 = rng.uniform(1, 9), rng.uniform(1, 9)
        chain = [(x0 + k * 0.9 * EPS * direction[0], y0 + k * 0.9 * EPS * direction[1])
                 for k in range(rng.randint(2, 12))]
        tagged = [(p, rng.choice(TAGS)) for p in chain]
        rng.shuffle(tagged)
        assert_merge_equals_oracle(tagged, EPS)
    chain = [((k * 0.9 + 1000) * EPS, 5.0) for k in range(9)]
    assert len(merge([(p, "grid") for p in chain], EPS)[0]) == 5


def test_dedupe_points_on_cell_boundaries():
    rng = random.Random(3)
    for _ in range(30):
        tagged = []
        for _ in range(25):
            i, j = rng.randint(0, 40), rng.randint(0, 40)
            x, y = i * EPS, j * EPS
            # on a cell edge, a few ulps either side, or exactly eps away
            for dx, dy in ((0.0, 0.0), (EPS, 0.0), (0.0, EPS), (EPS, EPS)):
                px = x + dx
                py = y + dy
                for k in range(rng.randint(0, 2)):
                    px = math.nextafter(px, rng.choice((-math.inf, math.inf)))
                tagged.append(((px, py), rng.choice(TAGS)))
        rng.shuffle(tagged)
        assert_merge_equals_oracle(tagged, EPS)
    # a column in one x cell, 3 eps apart: each point has another in its x
    # cells, and none in its 3 x 3 cells
    column = [((7.5 * EPS, k * 3.0 * EPS), rng.choice(TAGS)) for k in range(12)]
    assert_merge_equals_oracle(column, EPS)
    assert len(merge(column, EPS)[0]) == 12
    # points exactly one and two cells apart in x, level or 3 eps apart in y
    for dy in (0.0, 3.0 * EPS):
        row = [((i * EPS, 5.0 + i % 2 * dy), rng.choice(TAGS)) for i in (10, 11, 13, 15, 16, 18)]
        assert_merge_equals_oracle(row, EPS)


def test_dedupe_signed_zero_on_the_area_edge():
    rng = random.Random(4)
    for _ in range(30):
        tagged = []
        for _ in range(12):
            y = rng.choice((0.0, -0.0, rng.uniform(0, 1e-6), rng.randint(0, 5) * EPS))
            x = rng.choice((0.0, -0.0, rng.uniform(0, 1e-6)))
            tagged.append(((x, y), rng.choice(("bcpf-sample", "cpf-critical"))))
        rng.shuffle(tagged)
        assert_merge_equals_oracle(tagged, EPS)
    # the first of two equal points in input order stays, sign and all
    got, _ = merge([((-0.0, 3.0), "grid"), ((0.0, 3.0), "grid")], EPS)
    assert exact(got) == exact([(-0.0, 3.0)])
    got, _ = merge([((0.0, 3.0), "grid"), ((-0.0, 3.0), "grid")], EPS)
    assert exact(got) == exact([(0.0, 3.0)])


def test_dedupe_equal_positions_with_different_ranks():
    rng = random.Random(5)
    for _ in range(30):
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(10)]
        tagged = [(p, tag) for p in points for tag in rng.sample(TAGS, rng.randint(1, len(TAGS)))]
        rng.shuffle(tagged)
        got_points, got_tags = merge(tagged, EPS)
        assert got_tags == [min((t for p, t in tagged if p == q), key=_TAG_RANK.get) for q in got_points]
        assert_merge_equals_oracle(tagged, EPS)
    # runs of equal x with mixed ranks, some at equal y, some within eps
    run = [((x, 2.0 + k * 0.6 * EPS), tag) for x in (1.0, 1.0 + 0.5 * EPS, 1.0 + 2.0 * EPS)
           for k in (0, 0, 1, 3, 3, 7) for tag in rng.sample(TAGS, 2)]
    rng.shuffle(run)
    assert_merge_equals_oracle(run, EPS)


def test_dedupe_random_clusters_and_empty_input():
    rng = random.Random(6)
    for trial in range(40):
        eps = rng.choice((EPS, 1e-3, 0.5))
        centers = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(8)]
        tagged = [((cx + rng.uniform(-2, 2) * eps, cy + rng.uniform(-2, 2) * eps), rng.choice(TAGS))
                  for cx, cy in centers for _ in range(rng.randint(1, 15))]
        assert_merge_equals_oracle(tagged, eps)
    assert merge([], EPS) == ([], [])


def test_comprehensive_candidates_merge_like_the_oracle(monkeypatch):
    # the critical points of real fields, merged both ways
    seen = []
    real = discretize._dedupe

    def both(xy, rank, eps):
        kept = real(xy, rank, eps)
        names = {v: k for k, v in _TAG_RANK.items()}
        tagged = [(tuple(p), names[r]) for p, r in zip(xy.tolist(), rank.tolist())]
        want_points, want_tags = oracle_dedupe(tagged, eps)
        assert exact(xy[kept].tolist()) == exact(want_points)
        assert [names[r] for r in rank[kept].tolist()] == want_tags
        seen.append(len(xy) - len(kept))
        return kept

    monkeypatch.setattr(discretize, "_dedupe", both)
    for seed, aov in ((21, 60.0), (22, 100.0), (23, 200.0)):
        build_candidates(scene(10, 12.0, seed, obstacles=4, aov=aov, margin=0.0), "comprehensive", 0.1, None, 2.0)
    assert len(seen) == 3 and sum(seen) > 0


def test_clause_slacks_keep_strict_clauses_strict():
    # named after the clause slacks since folded into `fields.covers_np`,
    # which `_cheap_pairs` calls: this tests `covers_np`.  A camera exactly
    # eps_len from an endpoint or from the midpoint fails the range or
    # facing clause, in the sweep kernel as in covers
    t = Target(0, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    s = Scenario(100.0, 100.0, SensorSpec(aov_deg=200.0, r_min=0.0, r_max=5.0), (t,))
    eps = s.eps_len
    idx = ScenarioIndex(s)
    for p in ((-eps, 0.0), (0.5, eps)):
        assert min(math.dist(p, t.start), math.dist(p, t.end), math.dist(p, t.midpoint)) == eps
        assert not covers(t, p, s.sensor, eps)
        pi, _ = _cheap_pairs(np.array([p]), idx)
        assert pi.size == 0, p
    # a hair farther out both accept
    p = (0.5, math.nextafter(eps, 1.0) * 2.0)
    assert covers(t, p, s.sensor, eps)
    assert _cheap_pairs(np.array([p]), idx)[0].size == 1
