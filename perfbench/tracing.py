"""Spans and counts around infofresh's public functions, from outside the package.

The tracer replaces each function under the name its calling module binds
it to (``cli.solve_beta``, ``solver.optimal_wait``, a class attribute for
methods) and puts the original back on ``remove``.  A span records name,
start, end and parent; spans stay in memory until the run writes them.
Scalar metric calls (``mutual_information``, ``penalty_value``) and the
solver's inner loop calls are counted, not spanned: a span per call would
swamp the run.  Names missing from the package are skipped, so a refactor
that deletes one reads as a zero count rather than a crash.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("config", "service", "solver", "analytic", "simulator", "cli")

# (module, attribute, span name, attributes to record from args and result)
_SPANNED = (
    ("cli", "solve_beta", "solver.solve", lambda a, r: {"iterations": r.iterations}),
    ("cli", "solve_mi", "solver.solve", lambda a, r: {"iterations": r.iterations}),
    ("cli", "cycle_stats", "solver.cycle_stats", None),
    ("cli", "brute_force_optimum", "analytic.oracle", lambda a, r: {"candidates": r.enumerated}),
    ("cli", "random_instances", "analytic.random_instances", None),
    ("cli", "renewal_average", "analytic.renewal_average", None),
    ("cli", "zero_wait_average", "analytic.zero_wait", None),
    ("cli", "age_histogram", "simulator.histogram", lambda a, r: {"steps": a[2]}),
    ("cli", "simulate", "simulator.trace", lambda a, r: _trace_attrs(a[3], r)),
    ("cli", "replay", "simulator.trace", lambda a, r: _trace_attrs(a[4], r)),
)
_SPANNED_METHODS = (
    ("simulator", "SimulationTrace", "write_csv", "cli.write_csv", None),
    ("service", "ServiceTimeDist", "sample_many", "service.sample", lambda a, r: {"draws": a[2]}),
    ("config", "ExperimentConfig", "build_source", "config.build", None),
    ("config", "ExperimentConfig", "build_service", "config.build", None),
    ("config", "ExperimentConfig", "build_penalty", "config.build", None),
)
_SPANNED_CLASSMETHODS = (
    ("config", "ExperimentConfig", "from_file", "config.parse", None),
)
# (module, attribute, counter)
_COUNTED = (
    ("sources", "mutual_information", "sources.metric_calls"),
    ("sources", "penalty_value", "sources.metric_calls"),
    ("solver", "penalty_value", "sources.metric_calls"),
    ("analytic", "penalty_value", "sources.metric_calls"),
    ("cli", "mutual_information", "sources.metric_calls"),
    ("solver", "h_of_c", "solver.h_evals"),
    ("solver", "optimal_wait", "solver.wait_scans"),
    ("simulator", "optimal_wait", "solver.wait_scans"),
)


def _trace_attrs(horizon, result):
    trace, summary = result
    return {
        "steps": horizon,
        "events": len(getattr(trace, "events", ())),
        "samples_generated": summary.samples_generated,
        "samples_delivered": summary.samples_delivered,
    }


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self, package):
        self._pkg = package  # module name -> module
        self.spans = []  # [id, name, start, end, parent, trace id, attrs]
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []
        self.trace_id = 0

    # -- recording ------------------------------------------------------

    def call(self, name, fn, *args, attrs=None):
        """Run ``fn(*args)`` inside a span called ``name``."""
        rec = [len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None,
               self.trace_id, {}]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[2] = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            rec[3] = time.perf_counter()
            rec[6]["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
        rec[3] = time.perf_counter()
        if attrs is not None:
            rec[6].update(attrs(args, result))
        return result

    def _spanning(self, name, fn, attrs):
        def wrapper(*args, **kwargs):
            return self.call(name, lambda *a: fn(*a, **kwargs), *args, attrs=attrs)
        return wrapper

    def _counting(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing -----------------------------------------------------

    def _replace(self, owner, attr, make):
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, trace_id):
        self.trace_id = trace_id
        self.counts.clear()
        pkg = self._pkg
        for mod, attr, name, attrs in _SPANNED:
            self._replace(pkg[mod], attr, lambda f, n=name, a=attrs: self._spanning(n, f, a))
        for mod, cls, attr, name, attrs in _SPANNED_METHODS:
            owner = getattr(pkg[mod], cls, None)
            if owner is not None:
                self._replace(owner, attr, lambda f, n=name, a=attrs: self._spanning(n, f, a))
        for mod, cls, attr, name, attrs in _SPANNED_CLASSMETHODS:
            owner = getattr(pkg[mod], cls, None)
            if owner is not None:
                self._replace(owner, attr, lambda f, n=name, a=attrs:
                              classmethod(self._spanning(n, f.__func__, a)))
        for mod, attr, counter in _COUNTED:
            self._replace(pkg[mod], attr, lambda f, c=counter: self._counting(c, f))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------

    def layer_metrics(self, trace_id):
        """Per-layer figures of one traced pass, keyed by metric name."""
        spans = [s for s in self.spans if s[5] == trace_id]
        child_time = defaultdict(float)
        for s in spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]
        total = defaultdict(float)  # span name -> summed duration
        attr = defaultdict(int)  # span attribute -> summed value
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        failures = 0
        for s in spans:
            dur = s[3] - s[2]
            total[s[1]] += dur
            out[s[1].split(".")[0] + ".self_s"] += dur - child_time[s[0]]
            for key, value in s[6].items():
                if key == "error":
                    failures += s[1] == "solver.solve"
                else:
                    attr[s[1] + "." + key] += value
        out.update({
            "config.parse_s": total["config.parse"],
            "service.sample_s": total["service.sample"],
            "service.draws": attr["service.sample.draws"],
            "solver.solve_s": total["solver.solve"],
            "solver.iterations": attr["solver.solve.iterations"],
            "solver.h_evals": self.counts["solver.h_evals"],
            "solver.wait_scans": self.counts["solver.wait_scans"],
            "solver.failures": failures,
            "sources.metric_calls": self.counts["sources.metric_calls"],
            "analytic.oracle_s": total["analytic.oracle"],
            "analytic.candidates": attr["analytic.oracle.candidates"],
            "analytic.zero_wait_s": total["analytic.zero_wait"],
            "simulator.histogram_s": total["simulator.histogram"],
            "simulator.steps": attr["simulator.histogram.steps"] + attr["simulator.trace.steps"],
            "simulator.trace_s": total["simulator.trace"],
            "simulator.events": attr["simulator.trace.events"],
            "simulator.samples_generated": attr["simulator.trace.samples_generated"],
            "simulator.samples_delivered": attr["simulator.trace.samples_delivered"],
            "cli.write_csv_s": total["cli.write_csv"],
        })
        return out

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, trace_id, attrs in self.spans:
                f.write(json.dumps({"trace": trace_id, "id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end, **attrs}) + "\n")
