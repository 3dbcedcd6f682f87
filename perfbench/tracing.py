"""Per-layer tracing for the benchmark, done entirely from outside the package.

`Tracer` replaces the public functions of the crossflow layers with thin
wrappers and puts the originals back afterwards.  `sim` and `cli` bind
names such as `solve_cz` and `schedule as schedule_vehicle` at import
time, so every crossflow module namespace that holds one of the wrapped
function objects is patched, not only the defining module.

Each wrapped call records a span (id, parent id, name, start, end) in
memory; `write_spans` writes them out once, after the run.  A span's self
time is its duration minus the time covered by its child spans.
`classify` is too cheap to time, so it is only counted.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter
from time import perf_counter_ns

import crossflow
import crossflow.cli
import crossflow.cz_planner
import crossflow.geometry
import crossflow.mz_planner
import crossflow.pareto
import crossflow.scheduler
import crossflow.sim

# (module, function, span name); a None span name means count only
TARGETS = (
    ("crossflow.geometry", "classify", None),
    ("crossflow.scheduler", "schedule", "scheduler.schedule"),
    ("crossflow.cz_planner", "solve_cz", "cz_planner.solve_cz"),
    ("crossflow.cz_planner", "check_feasibility", "cz_planner.check_feasibility"),
    ("crossflow.mz_planner", "solve_mz_jerk", "mz_planner.solve_mz_jerk"),
    ("crossflow.mz_planner", "solve_mz_fuel", "mz_planner.solve_mz_fuel"),
    ("crossflow.mz_planner", "solve_mz_weighted", "mz_planner.solve_mz_weighted"),
    ("crossflow.mz_planner", "mz_costs", "mz_planner.mz_costs"),
    ("crossflow.pareto", "sweep", "pareto.sweep"),
    ("crossflow.pareto", "frontier", "pareto.frontier"),
    ("crossflow.sim", "generate_arrivals", "sim.generate_arrivals"),
    ("crossflow.sim", "run", "sim.run"),
    ("crossflow.sim", "audit_run", "sim.audit_run"),
    ("crossflow.cli", "main", "cli.main"),
)


def _crossflow_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "crossflow" or name.startswith("crossflow."))
    ]


class Tracer:
    """Spans and counts for one traced phase; use as a context manager to
    install the wrappers for the duration of a block.  The same tracer can
    be entered many times and keeps accumulating."""

    def __init__(self) -> None:
        self.spans = []            # (id, parent id or -1, name, start ns, end ns)
        self.calls = Counter()     # wrapped calls by name, classify included
        self.self_ns = Counter()   # self time by span name
        self.queue_len_sum = 0     # sum of len(q) over schedule calls
        self.probes_in_run = 0     # schedule calls made directly by sim.run
        self.rear_end_reports = 0  # check_feasibility reports with a rear_end finding
        self.run_vehicles = 0
        self.run_sample_rows = 0
        self._stack = []           # open frames: [span id, child ns, name]
        self._next_id = 0
        self._patched = []         # (module, attribute, original)

    def __enter__(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer wrappers are already installed")
        modules = _crossflow_modules()
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            if span_name is None:
                wrapper = self._counted("geometry." + attr, original)
            else:
                wrapper = self._timed(span_name, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def _counted(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, name, fn):
        stack = self._stack

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0, name]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                self.spans.append(
                    (frame[0], parent[0] if parent is not None else -1, name, start, end)
                )
            self._note(name, args, result, parent)
            return result

        return timed

    def _note(self, name, args, result, parent) -> None:
        if name == "scheduler.schedule":
            self.queue_len_sum += len(args[1])
            if parent is not None and parent[2] == "sim.run":
                self.probes_in_run += 1
        elif name == "cz_planner.check_feasibility":
            if any(v.kind == "rear_end" for v in result.violations):
                self.rear_end_reports += 1
        elif name == "sim.run":
            self.run_vehicles += len(result.vehicles)
            self.run_sample_rows += len(result.samples)

    def self_s(self, name: str) -> float:
        return self.self_ns[name] * 1e-9

    def per_layer(self) -> dict:
        """Per-layer figures over everything traced so far."""
        calls = self.calls
        sched_calls = calls["scheduler.schedule"]
        feas_calls = calls["cz_planner.check_feasibility"]
        vehicles = self.run_vehicles
        figures = {
            "geometry.classify.calls": (calls["geometry.classify"], "count"),
            "scheduler.schedule.calls": (sched_calls, "count"),
            "scheduler.schedule.self_s": (self.self_s("scheduler.schedule"), "s"),
            "scheduler.schedule.us_per_call": (
                self.self_s("scheduler.schedule") * 1e6 / sched_calls if sched_calls else 0.0,
                "us",
            ),
            "scheduler.schedule.queue_len_mean": (
                self.queue_len_sum / sched_calls if sched_calls else 0.0,
                "count",
            ),
            "sim.gate.probes_per_vehicle": (
                (self.probes_in_run - vehicles) / vehicles if vehicles else 0.0,
                "count",
            ),
            "cz_planner.check_feasibility.calls": (feas_calls, "count"),
            "cz_planner.check_feasibility.self_s": (
                self.self_s("cz_planner.check_feasibility"),
                "s",
            ),
            "cz_planner.check_feasibility.rear_end_frac": (
                self.rear_end_reports / feas_calls if feas_calls else 0.0,
                "ratio",
            ),
        }
        for name in (
            "cz_planner.solve_cz",
            "mz_planner.solve_mz_jerk",
            "mz_planner.solve_mz_fuel",
            "mz_planner.solve_mz_weighted",
            "mz_planner.mz_costs",
        ):
            figures[name + ".calls"] = (calls[name], "count")
            figures[name + ".self_s"] = (self.self_s(name), "s")
        for name in (
            "pareto.sweep",
            "pareto.frontier",
            "sim.run",
            "sim.audit_run",
            "sim.generate_arrivals",
            "cli.main",
        ):
            figures[name + ".self_s"] = (self.self_s(name), "s")
        figures["sim.samples.rows"] = (self.run_sample_rows, "count")
        return figures

    def write_spans(self, path: str) -> None:
        """Write every recorded span as gzipped CSV: id,parent,name,start_ns,end_ns."""
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%s,%d,%d\n" % span)
