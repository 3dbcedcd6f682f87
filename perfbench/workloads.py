"""The benchmark's workloads: seeded inputs, one round of operations, checks.

A workload is run as a sequence of rounds.  `inputs(i)` builds round i
from the workload seed alone, `operations` lists the round's operations
(the runner times each one), `audit` runs the repo's own `sim.audit_run`
on every scenario (inside the tracer on traced runs), and `verify` checks
every output and adds it to a `Tally`.  The first `prefix_rounds` rounds
are the same on every run with a given seed and feed the fingerprint and
the simulated metrics; the rounds after them only fill the time budget.

All calls go through module attributes (`sim.run`, `cli.main`, ...) so
that the tracer's wrappers, when installed, see them.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import traceback
from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np
import yaml

from crossflow import cli, cz_planner, mz_planner, pareto, scheduler, sim
from crossflow.geometry import IntersectionGeometry, Turn
from crossflow.mz_planner import MzVariant

SATURATED_VEHICLES = 30
SATURATED_RATE = 2.0
LIGHT_VEHICLES = 120
LIGHT_RATE = 0.25
LIGHT_OBJECTIVES = (MzVariant.JERK_ONLY, MzVariant.FUEL_ONLY, MzVariant.WEIGHTED)
LIGHT_WEIGHT = 0.5
TRADEOFF_SPEEDS = 4        # entry speeds per turn
TRADEOFF_MERGE_TIMES = 4   # merge times per entry speed
PLAN_WEIGHT = 0.5
# vehicles in the scenario each sim workload makes as its warm-up call
WARM_UP_VEHICLES = 8
# pareto.frontier treats cost differences up to this size as ties
TIE_EPS = 1e-12


@dataclass
class Op:
    """One timed operation: a scenario or a request."""

    kind: str
    cpu_s: float
    wall_s: float
    value: Any = None
    error: Optional[str] = None
    # reference-kernel CPU seconds around the operation, when sampled
    reference_s: Optional[float] = None


@dataclass
class Tally:
    """Everything the checks found, over all rounds of a run."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    vehicles: int = 0
    output_bytes: int = 0
    # over the prefix rounds only
    digest: Any = field(default_factory=hashlib.sha256)
    prefix_sample_rows: int = 0
    delays: List[float] = field(default_factory=list)
    holds: List[float] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def fingerprint(self) -> str:
        return self.digest.hexdigest()


def scenario_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


def guarded(check, *args):
    """check(*args), or the traceback text when the program under test raises."""
    try:
        return check(*args)
    except Exception:
        return traceback.format_exc(limit=3)


def _verify_scenario(cfg: sim.SimConfig, result: sim.SimRun, audit, tally: Tally,
                     in_prefix: bool) -> Optional[str]:
    """Return why the scenario failed, or None; record its outcomes."""
    vehicles = result.vehicles
    if [rec.spec.vehicle_id for rec in vehicles] != list(range(1, len(vehicles) + 1)):
        return "vehicle ids are not 1..n in entry order"
    expected = sorted((a.t0, a.v0, str(a.movement)) for a in sim.generate_arrivals(cfg))
    got = sorted((rec.arrival_time, rec.spec.v0, str(rec.spec.movement)) for rec in vehicles)
    if got != expected:
        return "a vehicle was dropped or repeated"
    if isinstance(audit, str):
        return "sim.audit_run raised: " + audit
    if not audit.ok:
        return f"sim.audit_run found {len(audit.findings)} findings"
    queue_findings = scheduler.audit_queue([rec.schedule for rec in vehicles])
    if queue_findings:
        return f"scheduler.audit_queue found {len(queue_findings)} findings"
    tally.vehicles += len(vehicles)
    if in_prefix:
        g = cfg.geometry
        for rec in vehicles:
            s = rec.schedule
            earliest = scheduler.earliest_mz_arrival(rec.arrival_time, rec.spec.v0, g)
            tally.delays.append(s.tm - earliest)
            tally.holds.append(rec.spec.t0 - rec.arrival_time)
            tally.digest.update(
                f"{cfg.seed},{s.vehicle_id},{s.tm!r},{s.tf!r},{s.binding_case}\n".encode()
            )
        tally.digest.update(f"rows={len(result.samples)}\n".encode())
        tally.prefix_sample_rows += len(result.samples)
    return None


class Saturated:
    # Why: at 2.0 veh/s every scenario oversaturates and the entry-gate search dominates.
    name = "saturated"
    prefix_rounds = 3

    def __init__(self, seed: int, scratch: str, vehicles: int = SATURATED_VEHICLES) -> None:
        self.seed = seed
        self.vehicles = vehicles

    def config(self, seed: int, vehicles: int) -> sim.SimConfig:
        return sim.SimConfig(
            arrival_rate=SATURATED_RATE,
            vehicle_count=vehicles,
            objective=MzVariant.JERK_ONLY,
            seed=seed,
        )

    def inputs(self, index: int):
        return self.config(scenario_seed(self.seed, index), self.vehicles)

    def operations(self, cfg):
        return [("scenario", sim.run, (cfg,))]

    def audit(self, cfg, ops: List[Op]):
        return [guarded(sim.audit_run, op.value) if op.error is None else None for op in ops]

    def verify(self, cfg, ops: List[Op], audits, tally: Tally, in_prefix: bool) -> None:
        op, audit = ops[0], audits[0]
        tally.attempted += 1
        why = op.error or guarded(_verify_scenario, cfg, op.value, audit, tally, in_prefix)
        if why:
            tally.fail(f"scenario seed {cfg.seed}: {why}")

    def warm_up(self) -> None:
        sim.run(self.config(self.seed, WARM_UP_VEHICLES))


class Light:
    # Why: below capacity, time goes to queue scans, sampling, audit, MZ evaluators and CSV writing.
    name = "light"
    prefix_rounds = 1

    def __init__(self, seed: int, scratch: str, vehicles: int = LIGHT_VEHICLES) -> None:
        self.seed = seed
        self.scratch = scratch
        self.vehicles = vehicles

    def _write_config(self, path: str, objective: MzVariant, seed: int, vehicles: int) -> None:
        section = {
            "arrival_rate": LIGHT_RATE,
            "vehicle_count": vehicles,
            "objective": objective.value,
            "seed": seed,
        }
        if objective is MzVariant.WEIGHTED:
            section["weight"] = LIGHT_WEIGHT
        with open(path, "w") as fh:
            yaml.safe_dump({"sim": section}, fh)

    def inputs(self, index: int):
        """One scenario per objective, each on its own seed: (config path, out dir)."""
        calls = []
        for k, objective in enumerate(LIGHT_OBJECTIVES):
            tag = f"r{index}-{objective.value}"
            path = os.path.join(self.scratch, tag + ".yaml")
            self._write_config(path, objective, scenario_seed(self.seed, 3 * index + k),
                               self.vehicles)
            calls.append((path, os.path.join(self.scratch, tag)))
        return calls

    def _simulate(self, config_path: str, out_dir: str):
        """cli.main simulate, keeping the SimRun it produced for the checks."""
        captured = []
        bound_run = cli.run

        def capture(cfg):
            result = bound_run(cfg)
            captured.append(result)
            return result

        cli.run = capture
        try:
            code = cli.main(["simulate", "--config", config_path, "--out", out_dir])
        finally:
            cli.run = bound_run
        return code, captured[0] if captured else None

    def operations(self, calls):
        return [("scenario", self._simulate, call) for call in calls]

    def audit(self, calls, ops: List[Op]):
        return [
            guarded(sim.audit_run, op.value[1])
            if op.error is None and op.value[1] is not None else None
            for op in ops
        ]

    def verify(self, calls, ops: List[Op], audits, tally: Tally, in_prefix: bool) -> None:
        for (path, out_dir), op, audit in zip(calls, ops, audits):
            tally.attempted += 1
            why = op.error or guarded(self._verify_call, op, audit, out_dir, tally, in_prefix)
            if why:
                tally.fail(f"simulate {os.path.basename(path)}: {why}")
            shutil.rmtree(out_dir, ignore_errors=True)
            os.remove(path)

    def _verify_call(self, op: Op, audit, out_dir: str, tally: Tally, in_prefix: bool):
        code, result = op.value
        if code != 0:
            return f"exit code {code}"
        if result is None:
            return "cli.main did not call run"
        names = ("trajectories.csv", "schedule.csv", "audit.json", "manifest.json")
        paths = [os.path.join(out_dir, name) for name in names]
        if not all(os.path.isfile(p) for p in paths):
            return "an output file is missing"
        with open(paths[0], "rb") as fh:
            trajectory_lines = fh.read().count(b"\n")
        with open(paths[1], "rb") as fh:
            schedule_lines = fh.read().count(b"\n")
        if trajectory_lines != len(result.samples) + 1:
            return "trajectories.csv row count differs from the sampled states"
        if schedule_lines != len(result.vehicles) + 1:
            return "schedule.csv row count differs from the vehicles"
        tally.output_bytes += sum(os.path.getsize(p) for p in paths)
        return _verify_scenario(result.config, result, audit, tally, in_prefix)

    def warm_up(self) -> None:
        path = os.path.join(self.scratch, "warm-up.yaml")
        out_dir = os.path.join(self.scratch, "warm-up")
        self._write_config(path, MzVariant.WEIGHTED, self.seed, WARM_UP_VEHICLES)
        cli.main(["simulate", "--config", path, "--out", out_dir])
        shutil.rmtree(out_dir, ignore_errors=True)
        os.remove(path)


class Tradeoff:
    # Why: many-weight MZ solves and costs, never the gate, scheduler, sampling or CLI.
    name = "tradeoff"
    # one pass over the boundary set
    prefix_rounds = 3 * TRADEOFF_SPEEDS * TRADEOFF_MERGE_TIMES

    def __init__(self, seed: int, scratch: str) -> None:
        g = IntersectionGeometry()
        self.g = g
        self.q1, self.q2 = mz_planner.normalization_weights(g.u_max, mz_planner.DEFAULT_JERK_SCALE)
        rng = np.random.Generator(np.random.PCG64(seed))
        lo, hi = sim.SimConfig().entry_speed_range
        self.boundaries = []
        for turn in (Turn.LEFT, Turn.STRAIGHT, Turn.RIGHT):
            for v0 in rng.uniform(lo, hi, TRADEOFF_SPEEDS):
                earliest = scheduler.earliest_mz_arrival(0.0, float(v0), g)
                for slack in rng.uniform(0.5, 8.0, TRADEOFF_MERGE_TIMES):
                    self.boundaries.append((turn, float(v0), earliest + float(slack)))
        self.order = rng.permutation(len(self.boundaries))

    def inputs(self, index: int):
        return self.boundaries[self.order[index % len(self.boundaries)]]

    def plan(self, turn: Turn, v0: float, tm: float):
        """One vehicle's crossing: approach plan, its check, all three MZ objectives."""
        g = self.g
        vm = g.mz_speed(turn)
        cz = cz_planner.solve_cz(0.0, v0, tm, vm, g.cz_length)
        report = cz_planner.check_feasibility(cz, g)
        boundary = mz_planner.MzBoundary(
            tm=tm, tf=tm + g.transit_time(turn), vm=vm, vf=vm,
            p_start=g.cz_length, p_end=g.cz_length + g.path_length(turn),
            u_start=float(cz.control(tm)),
        )
        costs = [mz_planner.mz_costs(mz_planner.solve_mz_jerk(boundary)),
                 mz_planner.mz_costs(mz_planner.solve_mz_fuel(boundary))]
        weighted = mz_planner.solve_mz_weighted(boundary, PLAN_WEIGHT, self.q1, self.q2)
        costs.append(mz_planner.mz_costs(weighted))
        return report, costs

    def sweep(self, turn: Turn, v0: float, tm: float):
        """The fuel/comfort frontier for a merge window entered at v0."""
        g = self.g
        boundary = mz_planner.MzBoundary(
            tm=tm, tf=tm + g.transit_time(turn), vm=v0, vf=g.mz_speed(turn),
            p_start=g.cz_length, p_end=g.cz_length + g.path_length(turn),
        )
        return pareto.sweep(boundary, q1=self.q1, q2=self.q2)

    def operations(self, b):
        return [("plan", self.plan, b), ("sweep", self.sweep, b)]

    def audit(self, b, ops: List[Op]):
        return [None, None]

    def verify(self, b, ops: List[Op], audits, tally: Tally, in_prefix: bool) -> None:
        plan, sweep = ops
        for op, check in ((plan, self._verify_plan), (sweep, self._verify_sweep)):
            tally.attempted += 1
            why = op.error or guarded(check, op.value)
            if why:
                tally.fail(f"{op.kind} {b[0].value} v0={b[1]!r} tm={b[2]!r}: {why}")
            elif in_prefix:
                tally.digest.update(self._outcome_line(op).encode())

    @staticmethod
    def _bad_cost(*values) -> bool:
        return any(not math.isfinite(v) or v < 0.0 for v in values)

    def _verify_plan(self, value) -> Optional[str]:
        _, costs = value
        if any(self._bad_cost(c.fuel, c.discomfort, c.weighted or 0.0) for c in costs):
            return "non-finite or negative cost"
        return None

    def _verify_sweep(self, run) -> Optional[str]:
        if any(self._bad_cost(p.fuel, p.discomfort) for p in run.points):
            return "non-finite or negative cost"
        if not run.frontier:
            return "empty frontier"
        for p in run.frontier:
            for o in run.frontier:
                if (o.fuel <= p.fuel + TIE_EPS and o.discomfort <= p.discomfort + TIE_EPS
                        and (o.fuel < p.fuel - TIE_EPS or o.discomfort < p.discomfort - TIE_EPS)):
                    return f"frontier point w={p.w!r} is dominated by w={o.w!r}"
        return None

    @staticmethod
    def _outcome_line(op: Op) -> str:
        if op.kind == "plan":
            report, costs = op.value
            parts = [str(report.ok)] + [f"{c.fuel!r}:{c.discomfort!r}" for c in costs]
        else:
            parts = [f"{p.w!r}:{p.fuel!r}:{p.discomfort!r}" for p in op.value.frontier]
        return op.kind + "," + ",".join(parts) + "\n"

    def warm_up(self) -> None:
        self.plan(*self.boundaries[0])
        self.sweep(*self.boundaries[0])


WORKLOADS = {w.name: w for w in (Saturated, Light, Tradeoff)}
