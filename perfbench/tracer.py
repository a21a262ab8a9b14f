"""In-memory span tracer for the camplan benchmark.

Spans are recorded from the benchmark's side only: around the public calls it
makes itself, and around the module-level names that `run_pipeline` and
`parse_scenario` call through, which `patched` swaps for timing wrappers.
Nothing inside camplan is changed. Work counters are derived from the values
those calls return, after the solve, so counting never lands inside a span.
"""
from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

# Dotted name called through -> span name. `camplan.sweep` is imported as a
# module because the package attribute of that name is the `sweep` function.
TRACED_CALLS = {
    "camplan.cli.build_candidates": "discretize.candidates",
    "camplan.cli.sweep_points": "sweep.points",
    "camplan.sweep.ScenarioIndex": "sweep.index",
    "camplan.cli.greedy_cover": "select.greedy",
    "camplan.scenario.validate_scenario": "model.validate",
}

# Spans each solve must contain exactly once, so that a call that stops going
# through a traced name fails the run instead of silently going untimed.
REQUIRED = (
    "solve", "scenario.parse", "model.validate", "cli.run_pipeline",
    "discretize.candidates", "sweep.index", "sweep.points", "select.greedy",
    "select.verify", "scenario.serialize",
)

WIDE_POINT = 8  # the sweep's scalar path takes points with at most this many targets


def _candidate_counts(args, cs) -> dict:
    return {"points": len(cs.points)}


def _sweep_counts(args, groups) -> dict:
    useful = pairs = configs = wide = 0
    for group in groups:
        coverable = len({tid for cfg in group for tid in cfg.covered})
        useful += bool(group)
        pairs += coverable
        configs += len(group)
        wide += coverable > WIDE_POINT
    return {"points": len(groups), "useful_points": useful, "coverable_pairs": pairs,
            "configs": configs, "wide_points": wide}


def _greedy_counts(args, sol) -> dict:
    return {"configs_in": len(args[0]), "rounds": len(sol.placements)}


COUNTERS = {
    "discretize.candidates": _candidate_counts,
    "sweep.points": _sweep_counts,
    "select.greedy": _greedy_counts,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "scenario", "args", "result", "counts")

    def __init__(self, name: str, start: float, parent: int, scenario: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.scenario = scenario
        self.args = None
        self.result = None
        self.counts: dict = {}

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "scenario": self.scenario, "counts": self.counts}


class Tracer:
    """Spans kept in memory; `write` dumps them once the run has ended."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.scenario = -1

    @contextmanager
    def span(self, name: str, args=None):
        rec = Span(name, 0.0, self._stack[-1] if self._stack else -1, self.scenario)
        rec.args = args
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name, args) as rec:
                rec.result = fn(*args, **kwargs)
            return rec.result
        return traced

    def close_solve(self, root: int) -> dict:
        """Check the spans of the solve rooted at span index `root`, derive its
        counters and release the values held for counting. Returns the counters
        keyed by span name."""
        spans = self.spans[root:]
        names = [s.name for s in spans]
        missing = [n for n in REQUIRED if names.count(n) != 1]
        if missing:
            raise RuntimeError(f"solve {self.scenario}: spans {missing} not seen exactly once; "
                               f"a traced call ({', '.join(TRACED_CALLS)}) was renamed or bypassed")
        counts = {}
        for s in spans:
            if s.name in COUNTERS:
                s.counts = COUNTERS[s.name](s.args, s.result)
                counts[s.name] = s.counts
            s.args = s.result = None
        return counts

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the child spans' durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([s.as_dict() for s in self.spans]) + "\n", encoding="utf-8")


@contextmanager
def patched(tracer: Tracer):
    """Route every name in TRACED_CALLS through `tracer` for the duration."""
    saved = []
    try:
        for dotted, name in TRACED_CALLS.items():
            modname, attr = dotted.rsplit(".", 1)
            module = importlib.import_module(modname)
            original = getattr(module, attr)  # a renamed call raises here
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
