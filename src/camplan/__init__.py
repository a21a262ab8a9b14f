"""Camera placement planning: cover every oriented segment target in a 2D
area with the fewest directional cameras, subject to range, view-angle,
facing, and occlusion constraints."""

from .discretize import CandidateSet, bcpf_sample, comprehensive_candidates, grid_sample
from .fields import aov_pair, bcpf, cpf
from .model import (
    CameraPlacement,
    CandidateConfig,
    ConfigTable,
    Obstacle,
    Scenario,
    SensorSpec,
    Solution,
    Target,
    validate_scenario,
)
from .scenario import (
    GenParams,
    parse_scenario,
    parse_solution,
    random_scenario,
    serialize_scenario,
    serialize_solution,
)
from .select import greedy_cover, verify_solution
from .sweep import ScenarioIndex, sweep_points

__all__ = [
    "CameraPlacement",
    "CandidateConfig",
    "CandidateSet",
    "ConfigTable",
    "GenParams",
    "Obstacle",
    "Scenario",
    "ScenarioIndex",
    "SensorSpec",
    "Solution",
    "Target",
    "aov_pair",
    "bcpf",
    "bcpf_sample",
    "comprehensive_candidates",
    "cpf",
    "greedy_cover",
    "grid_sample",
    "parse_scenario",
    "parse_solution",
    "random_scenario",
    "serialize_scenario",
    "serialize_solution",
    "sweep_points",
    "validate_scenario",
    "verify_solution",
]
