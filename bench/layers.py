"""Timing wrappers for the traced run.

The wrappers live here, not in the program: they replace, for the length of
a traced run, the module attributes through which one layer calls another,
and put the originals back afterwards. A span records its name, start, end,
parent span and task index; spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from bpictl import checker, frames, satbound, soundness, textio
from bpictl.frames import CONDITION_NAMES

# (module, attribute the callers look up, span name). One function can be
# looked up through several modules; each lookup gets its own wrapper.
TARGETS = (
    (checker, "rewrite_derived", "formula.rewrite"),
    (checker, "atoms_of", "formula.symbol_walk"),
    (checker, "agents_of", "formula.symbol_walk"),
    (checker, "tarjan_scc", "checker.scc"),
    (checker, "pre_modal", "checker.pre_modal"),
    (checker, "eval_formula", "checker.eval"),
    (satbound, "eval_formula", "checker.eval"),
    (satbound, "validate_model", "frames.validate"),
    (satbound, "Model", "model.build"),
    (satbound, "sat_search", "satbound.sat_search"),
    (soundness, "eval_formula", "checker.eval"),
    (soundness, "is_valid", "checker.is_valid"),
    (soundness, "validate_model", "frames.validate"),
    (soundness, "binding_pool", "soundness.binding_pool"),
    (soundness, "instantiate", "soundness.instantiate"),
    (soundness, "check_instance", "soundness.check_instance"),
    (soundness, "run_suite", "soundness.suite"),
    (frames, "validate_model", "frames.validate"),
    (frames, "check_condition", "frames.cond"),
    (textio, "parse_model", "textio.parse_model"),
    (textio, "parse_formula", "textio.parse_formula"),
    (textio, "make_model", "model.build"),
)

# What a span keeps of its call beyond the timing.
_INFO = {
    "textio.parse_model": lambda args, result: len(args[0].encode()),
    "satbound.sat_search": lambda args, result: result.explored,
    "frames.validate": lambda args, result: result.passed,
}

# Per-layer metric names with their units, in report order.
METRICS = {
    "textio.parse_model_s": "s/task",
    "textio.parse_model_calls": "count/task",
    "textio.parse_mb_per_s": "MB/s",
    "textio.parse_formula_s": "s/task",
    "formula.rewrite_s": "s/task",
    "formula.rewrite_calls": "count/task",
    "formula.symbol_walk_s": "s/task",
    "model.build_s": "s/task",
    "model.build_calls": "count/task",
    "checker.scc_s": "s/task",
    "checker.scc_calls": "count/task",
    "checker.pre_modal_s": "s/task",
    "checker.pre_modal_calls": "count/task",
    "checker.eval_s": "s/task",
    "checker.eval_calls": "count/task",
    "frames.validate_s": "s/task",
    "frames.validate_calls": "count/task",
    "frames.validate_pass_ratio": "ratio",
    "frames.cond_calls": "count/task",
    **{f"frames.cond_s.{name}": "s/task" for name in CONDITION_NAMES},
    "satbound.enum_s": "s/task",
    "satbound.candidates": "count/task",
    "satbound.candidates_per_s": "1/s",
    "satbound.eval_hit_ratio": "ratio",
    "soundness.binding_pool_s": "s/task",
    "soundness.binding_pool_calls": "count/task",
    "soundness.instantiate_s": "s/task",
    "soundness.instances": "count/task",
    "soundness.check_instance_s": "s/task",
    "soundness.suite_s": "s/task",
    "cli.overhead_s": "s/task",
    "trace.wall_s": "s/task",
    "trace.overhead_s": "s/task",
    "trace.overhead_frac": "ratio",
    "trace.tasks": "count",
}


class Tracer:
    """Installs the wrappers on entry and removes them on exit."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent, task, info]
        self.task = -1
        self._stack = []
        self._saved = []

    def __enter__(self):
        self._saved.clear()
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        info = _INFO.get(name)
        split = name == "frames.cond"

        def wrapper(*args, **kwargs):
            span = [f"{name}.{args[0]}" if split else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(spans, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Times are self times (a span's duration minus what its child spans
    cover), so the layer times plus cli.overhead_s add up to trace.wall_s.
    Times and counts are means per task; traced_walls and untraced_walls
    are the wall times of the same tasks with and without the wrappers."""
    tasks = len(traced_walls)
    child = [0.0] * len(spans)
    top = defaultdict(float)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, parent, task, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
        else:
            top[task] += end - start
    for i, (name, start, end, parent, task, _) in enumerate(spans):
        self_s[name] += end - start - child[i]
        total_s[name] += end - start
        calls[name] += 1
    conds = [s for s in spans if s[0].startswith("frames.cond.")]
    validations = [s[5] for s in spans if s[0] == "frames.validate"]
    searches = [s for s in spans if s[0] == "satbound.sat_search"]
    candidates = sum(s[5] for s in searches)
    parsed = sum(s[5] for s in spans if s[0] == "textio.parse_model")
    traced, untraced = sum(traced_walls), sum(untraced_walls)

    def ratio(a, b):
        return a / b if b else 0.0

    totals = {
        "textio.parse_model_s": self_s["textio.parse_model"],
        "textio.parse_model_calls": calls["textio.parse_model"],
        "textio.parse_formula_s": self_s["textio.parse_formula"],
        "formula.rewrite_s": self_s["formula.rewrite"],
        "formula.rewrite_calls": calls["formula.rewrite"],
        "formula.symbol_walk_s": self_s["formula.symbol_walk"],
        "model.build_s": self_s["model.build"],
        "model.build_calls": calls["model.build"],
        "checker.scc_s": self_s["checker.scc"],
        "checker.scc_calls": calls["checker.scc"],
        "checker.pre_modal_s": self_s["checker.pre_modal"],
        "checker.pre_modal_calls": calls["checker.pre_modal"],
        "checker.eval_s": self_s["checker.eval"] + self_s["checker.is_valid"],
        "checker.eval_calls": calls["checker.eval"],
        "frames.validate_s": self_s["frames.validate"],
        "frames.validate_calls": len(validations),
        "frames.cond_calls": len(conds),
        **{f"frames.cond_s.{c}": self_s[f"frames.cond.{c}"] for c in CONDITION_NAMES},
        "satbound.enum_s": self_s["satbound.sat_search"],
        "satbound.candidates": candidates,
        "soundness.binding_pool_s": self_s["soundness.binding_pool"],
        "soundness.binding_pool_calls": calls["soundness.binding_pool"],
        "soundness.instantiate_s": self_s["soundness.instantiate"],
        "soundness.instances": calls["soundness.instantiate"],
        "soundness.check_instance_s": self_s["soundness.check_instance"],
        "soundness.suite_s": self_s["soundness.suite"],
        "cli.overhead_s": traced - sum(top.values()),
        "trace.wall_s": traced,
        "trace.overhead_s": traced - untraced,
    }
    # sat_search validates exactly the candidates whose label set is nonempty
    hits = sum(1 for s in spans if s[0] == "frames.validate"
               and s[3] >= 0 and spans[s[3]][0] == "satbound.sat_search")
    rates = {
        "textio.parse_mb_per_s": ratio(parsed / 1e6, total_s["textio.parse_model"]),
        "frames.validate_pass_ratio": ratio(sum(validations), len(validations)),
        "satbound.candidates_per_s": ratio(candidates, total_s["satbound.sat_search"]),
        "satbound.eval_hit_ratio": ratio(hits, candidates),
        "trace.overhead_frac": ratio(traced - untraced, untraced),
        "trace.tasks": tasks,
    }
    values = {name: value / tasks for name, value in totals.items()} | rates
    return {name: values[name] for name in METRICS}
