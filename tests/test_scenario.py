"""Generator and file-format tests."""
import json
import math
import random

import numpy as np
import pytest
from scipy import stats

import camplan.scenario as scenario
from camplan.discretize import CandidateSet
from camplan.model import CameraPlacement, SensorSpec, Solution, validate_scenario
from camplan.scenario import (
    GenParams,
    PackingError,
    ParseError,
    ValidationFailure,
    check_params,
    parse_scenario,
    parse_solution,
    random_scenario,
    serialize_candidates,
    serialize_scenario,
    serialize_solution,
)

from oracles import all_pairs_scenario

SENSOR = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=30.0, phi_deg=90.0)


# --- generation -----------------------------------------------------------------

def test_generation_deterministic():
    p = GenParams(n_targets=25, seed=42)
    a = serialize_scenario(random_scenario(p, SENSOR))
    b = serialize_scenario(random_scenario(p, SENSOR))
    assert a == b


def test_generation_seed_sensitive():
    a = random_scenario(GenParams(n_targets=5, seed=1), SENSOR)
    b = random_scenario(GenParams(n_targets=5, seed=2), SENSOR)
    assert a != b


def test_dense_generation_succeeds_and_validates():
    s = random_scenario(GenParams(n_targets=140, seed=3), SENSOR)
    assert len(s.targets) == 140
    assert validate_scenario(s).ok


def test_generated_separation_holds():
    from camplan.geom import segment_segment_distance

    s = random_scenario(GenParams(n_targets=30, seed=11, min_separation=2.0), SENSOR)
    segs = [t.segment for t in s.targets]
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            assert segment_segment_distance(segs[i], segs[j]) >= 2.0


def test_density_precheck():
    with pytest.raises(PackingError):
        random_scenario(GenParams(width=10.0, height=10.0, n_targets=30, seed=0), SENSOR)


def test_margin_insets_every_segment():
    s = random_scenario(GenParams(n_targets=40, n_obstacles=5, margin=2.5, seed=4), SENSOR)
    pts = [p for t in s.targets for p in (t.start, t.end)]
    pts += [p for o in s.obstacles for p in o.chain]
    assert all(2.5 <= x <= 97.5 and 2.5 <= y <= 97.5 for x, y in pts)


def test_margin_swallowing_the_area_is_infeasible():
    with pytest.raises(PackingError, match="margin"):
        random_scenario(GenParams(width=10.0, height=10.0, n_targets=1, margin=5.0, seed=0), SENSOR)


def test_packing_stall_reports_attempts(monkeypatch):
    monkeypatch.setattr(scenario, "MAX_REJECTS", 5)
    with pytest.raises(PackingError, match="rejected attempts"):
        random_scenario(
            GenParams(width=10.0, height=10.0, n_targets=8, min_separation=2.5, seed=0),
            SENSOR,
        )


def _document_or_error(generate, p: GenParams, sensor: SensorSpec) -> str:
    try:
        return serialize_scenario(generate(p, sensor))
    except PackingError as e:
        return f"PackingError: {e}"


# The bench families (100 x 100 m, margin 3), dense small areas where most
# draws are rejected, gaps of 0 and of 2.5 target widths (a cell wider than
# 2w), obstacles, margins and a target width other than 1.
_DIFFERENTIAL = [
    *(GenParams(n_targets=n, n_obstacles=k, margin=3.0, seed=seed)
      for n, k in ((140, 0), (400, 0), (25, 25)) for seed in range(4)),
    *(GenParams(width=12.0, height=12.0, n_targets=n, seed=seed)
      for n in (30, 34) for seed in range(3)),
    GenParams(width=12.0, height=12.0, n_targets=20, n_obstacles=10, margin=0.5, seed=1),
    GenParams(width=30.0, height=30.0, n_targets=60, min_separation=0.0, seed=2),
    GenParams(width=40.0, height=40.0, n_targets=40, min_separation=2.5, seed=3),
    GenParams(width=50.0, height=20.0, n_targets=30, n_obstacles=20, margin=2.0,
              target_width=0.7, min_separation=1.3, seed=4),
    GenParams(width=1e6, height=1e6, n_targets=50, target_width=1e4, seed=5),
    GenParams(width=1e-3, height=1e-3, n_targets=10, target_width=1e-5, seed=6),
]


@pytest.mark.parametrize("p", _DIFFERENTIAL)
def test_generation_matches_the_all_pairs_scan(p):
    sensor = SensorSpec(aov_deg=100.0, r_min=0.0, r_max=10.0, phi_deg=90.0)
    got = _document_or_error(random_scenario, p, sensor)
    assert not got.startswith("PackingError")
    assert got == _document_or_error(all_pairs_scenario, p, sensor)


def test_packing_stall_matches_the_all_pairs_scan(monkeypatch):
    draws = 0
    uniform = random.Random.uniform

    def counted(self, a, b):
        nonlocal draws
        draws += 1
        return uniform(self, a, b)

    monkeypatch.setattr(random.Random, "uniform", counted)
    p = GenParams(width=12.0, height=12.0, n_targets=34, seed=2)
    stalls = 0
    for limit in (1, 5, 20, 60, 1000):
        monkeypatch.setattr(scenario, "MAX_REJECTS", limit)
        seen = []
        for generate in (random_scenario, all_pairs_scenario):
            draws = 0
            seen.append((_document_or_error(generate, p, SENSOR), draws))
        assert seen[0] == seen[1]
        stalls += seen[0][0].startswith("PackingError")
    assert 0 < stalls < 5


def test_the_cell_pad_keeps_a_pair_that_rounding_rejects(monkeypatch):
    # Collinear unit segments with a gap of 0.7389124772227574: their drawn
    # midpoints lie in cells 0 and 2 of side w + gap, yet their rounded
    # distance is one ulp below the gap, so the all-pairs scan rejects the
    # second draw and places the third.
    draws = [1.738912477222757, 50.0, 0.0, 3.4778249544455146, 50.0, 0.0, 80.0, 80.0, 0.0]
    p = GenParams(n_targets=2, min_separation=0.7389124772227574)
    docs = []
    for generate in (random_scenario, all_pairs_scenario):
        script = iter(draws)
        monkeypatch.setattr(random.Random, "uniform", lambda self, a, b: next(script))
        s = generate(p, SENSOR)
        assert s.targets[1].midpoint == (80.0, 80.0)
        docs.append(serialize_scenario(s))
    assert docs[0] == docs[1]


def test_separation_tests_stay_local(monkeypatch):
    calls = draws = 0
    distance = scenario.segment_segment_distance
    segment = scenario.Segment

    def counted_distance(a, b):
        nonlocal calls
        calls += 1
        return distance(a, b)

    def counted_segment(a, b):
        nonlocal draws
        draws += 1
        return segment(a, b)

    monkeypatch.setattr(scenario, "segment_segment_distance", counted_distance)
    monkeypatch.setattr(scenario, "Segment", counted_segment)
    random_scenario(GenParams(n_targets=1000, margin=3.0, seed=0), SENSOR)
    # the all-pairs scan tests each draw against every placed segment, about
    # 800,000 calls here
    assert draws >= 1000
    assert calls <= 5 * draws


@pytest.mark.parametrize("field", ["width", "height", "target_width", "min_separation", "margin"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_generation_parameters_are_refused(field, value):
    p = GenParams(n_targets=3, **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        check_params(p)


def test_negative_counts_are_refused():
    for p in (GenParams(n_targets=-1), GenParams(n_targets=3, n_obstacles=-3)):
        with pytest.raises(ValueError, match="must be >= 0"):
            random_scenario(p, SENSOR)


def test_obstacle_generation():
    s = random_scenario(GenParams(n_targets=4, n_obstacles=3, seed=5), SENSOR)
    assert len(s.obstacles) == 3
    for o in s.obstacles:
        assert len(o.chain) == 2
    assert validate_scenario(s).ok


def test_normals_are_left_perpendicular():
    s = random_scenario(GenParams(n_targets=20, seed=9), SENSOR)
    for t in s.targets:
        dx = t.end[0] - t.start[0]
        dy = t.end[1] - t.start[1]
        w = math.hypot(dx, dy)
        assert math.isclose(w, 1.0, abs_tol=1e-12)
        assert math.isclose(t.normal[0], -dy / w, abs_tol=1e-12)
        assert math.isclose(t.normal[1], dx / w, abs_tol=1e-12)


def test_orientation_uniformity_chi_square():
    angles = []
    for seed in range(50):
        s = random_scenario(
            GenParams(width=300.0, height=300.0, n_targets=200, seed=seed), SENSOR
        )
        for t in s.targets:
            w = math.atan2(t.end[1] - t.start[1], t.end[0] - t.start[0]) % math.tau
            angles.append(w)
    bins = [0] * 12
    for w in angles:
        bins[min(int(w / math.tau * 12), 11)] += 1
    assert stats.chisquare(bins).pvalue > 0.01


# --- scenario documents -----------------------------------------------------------

MINIMAL = """
{
  "area": {"width": 100, "height": 100},
  "sensor": {"aov_deg": 100, "r_min": 0, "r_max": 30, "phi_deg": 90},
  "targets": [{"id": 0, "start": [0, 0], "end": [1, 0], "normal": [0, 1]}],
  "obstacles": []
}
"""


def test_parse_minimal_document():
    s = parse_scenario(MINIMAL)
    assert s.width == 100.0
    assert s.sensor.r_max == 30.0
    assert s.targets[0].normal == (0.0, 1.0)


def test_parse_rejects_bad_normal():
    doc = MINIMAL.replace('"normal": [0, 1]', '"normal": [1, 0]')
    with pytest.raises(ValidationFailure):
        parse_scenario(doc)


def test_parse_error_reports_location():
    with pytest.raises(ParseError, match="line"):
        parse_scenario("{ not json }")


def test_parse_error_reports_field_path():
    with pytest.raises(ParseError, match=r"\$\.targets\[0\]"):
        parse_scenario('{"area": {"width": 1, "height": 1}, '
                       '"sensor": {"aov_deg": 90, "r_min": 0, "r_max": 5}, '
                       '"targets": [{"id": 0}]}')


def test_scenario_round_trip_exact():
    s = random_scenario(GenParams(n_targets=140, seed=13), SENSOR)
    assert parse_scenario(serialize_scenario(s)) == s


def test_serialized_floats_survive_reload():
    s = random_scenario(GenParams(n_targets=10, seed=21), SENSOR)
    text = serialize_scenario(s)
    assert serialize_scenario(parse_scenario(text)) == text


# --- solution documents -----------------------------------------------------------

def test_solution_round_trip():
    sol = Solution(
        placements=[CameraPlacement((12.25, 3.5), 1.234567890123), CameraPlacement((0.1, 99.9), -2.5)],
        assignment={3: 0, 1: 1, 2: 0},
        meta={"rounds": 2, "selected_configs": [4, 7]},
    )
    back = parse_solution(serialize_solution(sol))
    assert [c.position for c in back.placements] == [c.position for c in sol.placements]
    for a, b in zip(back.placements, sol.placements):
        assert abs(a.vd - b.vd) < 1e-12
    assert back.assignment == sol.assignment
    assert back.meta == {"rounds": 2, "selected_configs": [4, 7]}


def test_solution_angles_stored_in_degrees():
    sol = Solution(placements=[CameraPlacement((0.0, 0.0), math.pi / 2.0)], assignment={}, meta={})
    doc = json.loads(serialize_solution(sol))
    assert math.isclose(doc["placements"][0]["vd_deg"], 90.0, abs_tol=1e-12)


def test_solution_parse_rejects_bad_assignment():
    with pytest.raises(ParseError, match="assignment"):
        parse_solution('{"placements": [], "assignment": {"x7": 0}}')


@pytest.mark.parametrize("key", ["01", "1_0", " +7 ", "+7", "7 ", "-0", "0x1", "１", "²", "", "1" * 5000])
def test_solution_parse_refuses_a_key_that_is_not_a_canonical_id(key):
    # int() reads most of these, and a "1" beside "01" would be merged with it
    with pytest.raises(ParseError, match="canonical"):
        parse_solution(json.dumps({"placements": [], "assignment": {"1": 0, key: 1}}))


@pytest.mark.parametrize("text", ["[]", "null", "1", '"x"'])
def test_solution_parse_refuses_a_document_that_is_not_an_object(text):
    with pytest.raises(ParseError, match=r"^\$: expected an object$"):
        parse_solution(text)


def test_solution_parse_keeps_canonical_ids():
    doc = {"placements": [], "assignment": {"0": 0, "10": 1, "-7": 2, str(1 << 63): 3}}
    assert parse_solution(json.dumps(doc)).assignment == {0: 0, 10: 1, -7: 2, 1 << 63: 3}


@pytest.mark.parametrize("text", [
    '{"placements": [], "assignment": {"1": 0, "1": 1}}',
    '{"placements": [], "placements": [], "assignment": {}}',
    '{"placements": [{"position": [0, 0], "vd_deg": 0, "vd_deg": 90}], "assignment": {}}',
    '{"placements": [], "assignment": {}, "meta": {"a": {"b": 1, "b": 1}}}',
])
def test_solution_parse_refuses_a_repeated_key(text):
    with pytest.raises(ParseError, match="repeated key"):
        parse_solution(text)


def test_scenario_parse_refuses_a_repeated_key():
    text = serialize_scenario(random_scenario(GenParams(n_targets=2, seed=1), SENSOR))
    assert '"r_max": 30' in text
    with pytest.raises(ParseError, match="repeated key 'r_max'"):
        parse_scenario(text.replace('"r_max": 30', '"r_max": 30, "r_max": 1', 1))


# --- candidate dumps ---------------------------------------------------------------

def test_candidates_round_trip():
    # points as the generators return them: one float64 (m, 2) array; a
    # coordinate of -0.0 keeps its sign and one needing 17 digits keeps them
    cs = CandidateSet(
        points=np.array([[1.5, -0.0], [0.30000000000000004, 4.0]]),
        provenance=["grid", "grid"],
        params={"algo": "grid", "grid_eps": 5.0},
        uncoverable=(2,),
    )
    text = serialize_candidates(cs)
    assert text == ('{\n  "points": [\n    [1.5, -0],\n    [0.30000000000000004, 4]\n  ],\n'
                    '  "provenance": ["grid", "grid"],\n  "params": {\n    "algo": "grid",\n'
                    '    "grid_eps": 5\n  },\n  "uncoverable": [2]\n}\n')
    assert json.loads(text) == {
        "points": [[1.5, 0.0], [0.30000000000000004, 4.0]],
        "provenance": ["grid", "grid"],
        "params": {"algo": "grid", "grid_eps": 5.0},
        "uncoverable": [2],
    }
