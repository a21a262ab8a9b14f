"""Candidate generation tests: comprehensive, polar field sampling, grid."""
import math

import pytest

from camplan.discretize import bcpf_sample, comprehensive_candidates, grid_sample
from camplan.fields import bcpf
from camplan.model import Obstacle, Scenario, SensorSpec, Target
from camplan.select import greedy_cover
from camplan.sweep import sweep_points


def scen(targets, sensor, obstacles=(), w=100.0, h=100.0):
    return Scenario(width=w, height=h, sensor=sensor, targets=tuple(targets), obstacles=tuple(obstacles))


SENSOR_2 = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=2.0, phi_deg=90.0)
SENSOR_20 = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=20.0, phi_deg=90.0)


# --- comprehensive ------------------------------------------------------------

def test_comprehensive_single_target_is_field_vertices():
    t = Target(0, (5.0, 5.0), (6.0, 5.0), (0.0, 1.0))
    cs = comprehensive_candidates(scen([t], SENSOR_2))
    assert len(cs) == 5
    assert set(cs.provenance) == {"cpf-critical"}
    verts = {tuple(round(c, 6) for c in v) for v in bcpf(t, SENSOR_2).vertices()}
    got = {tuple(round(c, 6) for c in p) for p in cs.points}
    assert got == verts


def test_comprehensive_far_targets_no_cross_points():
    t1 = Target(0, (10.0, 10.0), (11.0, 10.0), (0.0, 1.0))
    t2 = Target(1, (80.0, 80.0), (81.0, 80.0), (0.0, 1.0))
    cs = comprehensive_candidates(scen([t1, t2], SENSOR_2))
    assert len(cs) == 10
    assert set(cs.provenance) == {"cpf-critical"}


def test_comprehensive_rejects_r_min():
    t = Target(0, (5.0, 5.0), (6.0, 5.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        comprehensive_candidates(scen([t], SensorSpec(100.0, 0.5, 2.0)))


def test_comprehensive_rejects_wide_targets():
    t = Target(0, (5.0, 5.0), (6.5, 5.0), (0.0, 1.0))  # W = 1.5 > r_max/2
    with pytest.raises(ValueError):
        comprehensive_candidates(scen([t], SENSOR_2))


def test_comprehensive_reports_empty_field():
    # narrow facing cone walled off just above the target: inside the gap every
    # viewpoint needs > 100 degrees of view, beyond the wall nothing sees past it
    t = Target(0, (50.0, 50.0), (50.3, 50.0), (0.0, 1.0))
    wall = Obstacle(0, ((49.0, 50.02), (51.3, 50.02)))
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=0.6, phi_deg=5.0)
    cs = comprehensive_candidates(scen([t], sensor, [wall]))
    assert cs.uncoverable == (0,)


def test_comprehensive_candidates_in_area_and_sorted():
    # field pokes out of the area; candidates are clipped onto the boundary
    t = Target(0, (0.5, 1.0), (1.5, 1.0), (0.0, 1.0))
    cs = comprehensive_candidates(scen([t], SENSOR_2, w=30.0, h=30.0))
    assert all(0.0 <= p[0] <= 30.0 and 0.0 <= p[1] <= 30.0 for p in cs.points)
    assert cs.points == sorted(cs.points)


def test_comprehensive_pair_covers_both_with_one_camera():
    t1 = Target(0, (45.0, 45.0), (46.0, 45.0), (0.0, 1.0))
    t2 = Target(1, (45.0, 46.0), (46.0, 46.0), (0.0, -1.0))
    s = scen([t1, t2], SENSOR_20)
    cs = comprehensive_candidates(s)
    assert len(cs) > 10
    configs = [c for lst in sweep_points(cs.points, s) for c in lst]
    sol = greedy_cover(configs, s)
    assert len(sol.placements) == 1
    assert set(sol.assignment) == {0, 1}


# --- bcpf sampling --------------------------------------------------------------

def test_bcpf_sample_single_ring():
    t = Target(0, (49.5, 50.0), (50.5, 50.0), (0.0, 1.0))
    s = scen([t], SENSOR_20)
    cs = bcpf_sample(s, eps_a=0.1, eps_r=20.0)
    # one ring: eps_r = r_max leaves only the outermost radius per fan angle
    assert len(cs) == 31
    reg = bcpf(t, SENSOR_20)
    for p in cs.points:
        assert reg.contains(p)
    # at most one sample per fan direction
    assert len(cs) <= int(2.0 * SENSOR_20.phi / 0.1)


def test_bcpf_sample_multiple_rings():
    t = Target(0, (49.5, 50.0), (50.5, 50.0), (0.0, 1.0))
    s = scen([t], SENSOR_20)
    one = bcpf_sample(s, eps_a=0.3, eps_r=20.0)
    many = bcpf_sample(s, eps_a=0.3, eps_r=5.0)
    assert len(many) > 2 * len(one)
    bound = int(2.0 * SENSOR_20.phi / 0.3) * math.ceil(20.0 / 5.0 + 1)
    assert len(many) <= bound


def test_bcpf_sample_linear_in_target_count():
    def far_targets(n):
        return [
            Target(i, (5.0 + 45.0 * (i % 20), 5.0 + 45.0 * (i // 20)),
                   (6.0 + 45.0 * (i % 20), 5.0 + 45.0 * (i // 20)), (0.0, 1.0))
            for i in range(n)
        ]

    s4 = scen(far_targets(4), SENSOR_2, w=1000.0, h=1000.0)
    s8 = scen(far_targets(8), SENSOR_2, w=1000.0, h=1000.0)
    c4 = len(bcpf_sample(s4, 0.1, 2.0))
    c8 = len(bcpf_sample(s8, 0.1, 2.0))
    assert 1.8 <= c8 / c4 <= 2.2


def test_bcpf_sample_deterministic():
    t = Target(0, (49.5, 50.0), (50.5, 50.0), (0.0, 1.0))
    s = scen([t], SENSOR_20)
    a = bcpf_sample(s, 0.17, 3.0)
    b = bcpf_sample(s, 0.17, 3.0)
    assert a.points == b.points
    assert a.provenance == b.provenance


def test_bcpf_sample_respects_r_min_floor():
    t = Target(0, (49.5, 50.0), (50.5, 50.0), (0.0, 1.0))
    sensor = SensorSpec(aov_deg=100.0, r_min=10.0, r_max=20.0, phi_deg=90.0)
    s = scen([t], sensor)
    cs = bcpf_sample(s, 0.2, 2.0)
    assert len(cs) > 0
    m = t.midpoint
    for p in cs.points:
        assert math.dist(p, m) >= 10.0 - 1e-9


def test_bcpf_sample_rejects_bad_steps():
    t = Target(0, (49.5, 50.0), (50.5, 50.0), (0.0, 1.0))
    s = scen([t], SENSOR_20)
    with pytest.raises(ValueError):
        bcpf_sample(s, 0.0, 1.0)
    with pytest.raises(ValueError):
        bcpf_sample(s, 0.1, -1.0)


# --- grid -----------------------------------------------------------------------

def grid_scenario():
    return scen([], SENSOR_2, w=100.0, h=100.0)


def test_grid_counts():
    assert len(grid_sample(grid_scenario(), 10.0)) == 100
    assert len(grid_sample(grid_scenario(), 2.0)) == 2500
    cs = grid_sample(grid_scenario(), 100.0)
    assert cs.points == [(50.0, 50.0)]


def test_grid_independent_of_targets():
    t = Target(0, (5.0, 5.0), (6.0, 5.0), (0.0, 1.0))
    a = grid_sample(grid_scenario(), 10.0)
    b = grid_sample(scen([t], SENSOR_2), 10.0)
    assert a.points == b.points


def test_grid_rejects_bad_eps():
    with pytest.raises(ValueError):
        grid_sample(grid_scenario(), 0.0)
    with pytest.raises(ValueError):
        grid_sample(grid_scenario(), 101.0)


def test_grid_rejects_more_points_than_the_bound(monkeypatch):
    import camplan.discretize as discretize

    # 1e6 m sides at a 2 m step ask for 2.5e11 points; a vanishing step
    # overflows the per-side count, which must still be rejected, not raise
    huge = scen([], SENSOR_2, w=1e6, h=1e6)
    for eps in (2.0, 1e-300):
        with pytest.raises(ValueError, match="more than 1000000 points"):
            grid_sample(huge, eps)
    monkeypatch.setattr(discretize, "MAX_GRID_POINTS", 100)
    assert len(grid_sample(grid_scenario(), 10.0)) == 100
    with pytest.raises(ValueError, match="more than 100 points"):
        grid_sample(grid_scenario(), 9.0)


def test_grid_points_inside_area():
    cs = grid_sample(grid_scenario(), 7.0)
    assert len(cs) == 14 * 14
    for p in cs.points:
        assert 0.0 < p[0] < 100.0 and 0.0 < p[1] < 100.0
