"""Command-line front end: simulate, pareto, and plan.

All three subcommands read one YAML config file with per-section
defaults, write their outputs into a chosen directory, and record a
manifest describing exactly what ran.  Numbers in the CSV and JSON
outputs carry nine significant digits, and every byte of output is a
pure function of the resolved config, so identical invocations produce
identical files.

Exit codes: 0 for a clean run, 1 when the safety audit (or a plan's
feasibility check) reports findings, 2 for configuration and usage
errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import hashlib
import json
import math
import numbers
import os
import sys
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from crossflow import __version__
from crossflow.cz_planner import check_feasibility
from crossflow.geometry import Arm, IntersectionGeometry, Movement, Turn
from crossflow.mz_planner import (
    DEFAULT_JERK_SCALE,
    MzVariant,
    mz_costs,
    normalization_weights,
)
from crossflow.pareto import DEFAULT_W_MAX, DEFAULT_W_MIN, default_grid, sweep
from crossflow.scheduler import VehicleSpec, earliest_mz_arrival
from crossflow.sim import SimConfig, evaluate_crossing, merge_boundary, plan_crossing, run

SCHEMA_VERSION = 1
CONFIG_ENV_VAR = "CROSSFLOW_CONFIG"


class ConfigError(ValueError):
    """Anything wrong with the config file or its values."""


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _coefficient_text(coefficients: Sequence[float]) -> str:
    return " ".join(f"{name}={_fmt(value)}" for name, value in zip("abcdef", coefficients))


def _json_float(value: float) -> float:
    # round-trip through the output precision so JSON matches the CSVs
    return float(_fmt(value))


def _field_values(obj: Any, omit: Sequence[str] = ()) -> Dict[str, Any]:
    """The dataclass obj's fields by name, except omit, as the resolved
    config records them: a tuple as a list, an enum as its value."""
    values = {}
    for field in dataclasses.fields(obj):
        if field.name in omit:
            continue
        value = getattr(obj, field.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, enum.Enum):
            value = value.value
        values[field.name] = value
    return values


# the geometry and sim sections take the fields of the dataclasses they build
_TOP_KEYS = {"geometry", "sim", "pareto", "plan"}
_GEOMETRY_KEYS = {f.name for f in dataclasses.fields(IntersectionGeometry)} | {"formula"}
_FORMULA_KEYS = {"side_friction", "superelevation"}
_SIM_KEYS = {f.name for f in dataclasses.fields(SimConfig)} - {"geometry"}
_PARETO_KEYS = {"turn", "grid", "grid_size", "w_min", "w_max", "jerk_scale"}
_PLAN_KEYS = {
    "arm", "turn", "t0", "v0", "tm", "objective", "weight", "jerk_scale",
    "sample_step",
}


def _read(convert: Callable[[Any], Any], value: Any, path: str) -> Any:
    """convert(value), with a malformed value reported against its key."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path} has a malformed value: {value!r}") from None


def _integer(value: Any) -> int:
    """value itself if it is an integer; a float such as 2.5 is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(value)
    return value


def _real(value: Any) -> float:
    """value itself if it is a finite real number; a string such as "0.5"
    or a boolean is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(value)
    return value


def _finite(value: Any) -> float:
    """_real(value) as a float."""
    return float(_real(value))


def _floats(raw: Any) -> Tuple[float, ...]:
    return tuple(_finite(x) for x in raw)


def _nullable(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """convert, except that null stays null: for a key whose field is optional."""
    return lambda value: None if value is None else convert(value)


# the scalar keys of the geometry, formula and sim sections, by converter
_GEOMETRY_SCALARS = {key: _real for key in _GEOMETRY_KEYS - {"formula"}}
_FORMULA_SCALARS = {"side_friction": _real, "superelevation": _real}
_SIM_SCALARS = {
    "arrival_rate": _real, "vehicle_count": _integer, "weight": _nullable(_real),
    "jerk_scale": _real, "seed": _integer, "sample_step": _real,
}


def _scalars(
    section: Mapping[str, Any], path: str, converters: Mapping[str, Callable[[Any], Any]]
) -> Dict[str, Any]:
    """The section's keys that converters names, each value read through
    its converter and reported against its full key when malformed."""
    return {
        key: _read(converters[key], value, f"{path}.{key}")
        for key, value in section.items()
        if key in converters
    }


def _check_keys(section: Mapping[str, Any], allowed: set, path: str) -> None:
    for key in section:
        if key not in allowed:
            full = f"{path}.{key}" if path else str(key)
            raise ConfigError(f"unknown config key: {full}")


def _section(config: Mapping[str, Any], name: str, allowed: set) -> Dict[str, Any]:
    raw = config.get(name) or {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config section {name} must be a mapping")
    _check_keys(raw, allowed, name)
    return dict(raw)


def load_config(path: Optional[str]) -> Dict[str, Any]:
    """Parse the YAML config file, or return an empty config when no path
    is given (the CROSSFLOW_CONFIG environment variable supplies the
    default path).  Unknown keys at any level are an error."""
    if path is None:
        return {}
    import yaml

    try:
        with open(path, "r") as fh:
            loaded = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if loaded is None:
        return {}
    if not isinstance(loaded, Mapping):
        raise ConfigError("config file must contain a mapping of sections")
    _check_keys(loaded, _TOP_KEYS, "")
    return dict(loaded)


def _build_geometry(section: Mapping[str, Any]) -> IntersectionGeometry:
    kwargs = _scalars(section, "geometry", _GEOMETRY_SCALARS)
    formula = section.get("formula")
    if formula is not None:
        if not isinstance(formula, Mapping):
            raise ConfigError("geometry.formula must be a mapping")
        _check_keys(formula, _FORMULA_KEYS, "geometry.formula")
        formula = _scalars(formula, "geometry.formula", _FORMULA_SCALARS)
        if "side_friction" not in formula:
            raise ConfigError("geometry.formula.side_friction is required")
        for key in ("mz_speed_left", "mz_speed_right"):
            if key in kwargs:
                raise ConfigError(f"geometry.formula sets the turn speeds, so geometry.{key} "
                                  "must not be given")
    try:
        geometry = IntersectionGeometry(**kwargs)
        return geometry if formula is None else geometry.with_curve_speeds(**formula)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"geometry: {exc}") from exc


def _parse_enum(kind: type, name: Any, path: str) -> Any:
    """The member of the enum class kind whose value is name."""
    try:
        return kind(name)
    except ValueError:
        valid = ", ".join(member.value for member in kind)
        raise ConfigError(f"{path} must be one of: {valid} (got {name!r})") from None


def _build_sim_config(
    config: Mapping[str, Any], seed_override: Optional[int]
) -> Tuple[SimConfig, Dict[str, Any]]:
    geometry = _build_geometry(_section(config, "geometry", _GEOMETRY_KEYS))
    section = _section(config, "sim", _SIM_KEYS)
    kwargs = _scalars(section, "sim", _SIM_SCALARS)
    kwargs["geometry"] = geometry
    for key, size in (
        ("entry_speed_range", 2),
        ("arm_probabilities", 4),
        ("turn_probabilities", 3),
    ):
        if key in section and section[key] is not None:
            raw = section[key]
            if not isinstance(raw, Sequence) or len(raw) != size:
                raise ConfigError(f"sim.{key} must be a list of {size} numbers")
            kwargs[key] = _read(_floats, raw, f"sim.{key}")
    if "objective" in section:
        kwargs["objective"] = _parse_enum(MzVariant, section["objective"], "sim.objective")
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        sim_config = SimConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sim: {exc}") from exc
    resolved = {
        "geometry": _field_values(geometry),
        "sim": _field_values(sim_config, omit=("geometry",)),
    }
    return sim_config, resolved


def _config_digest(resolved: Mapping[str, Any]) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(
    out_dir: str,
    command: str,
    resolved: Mapping[str, Any],
    seed: Optional[int],
    outputs: List[str],
) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_digest": _config_digest(resolved),
        "seed": seed,
        "tool_version": __version__,
        "outputs": sorted(outputs),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _write_json(path: str, payload: Mapping[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# One trajectories.csv line per table row, formatted from the Python values
# of .tolist(), taken a slice of rows at a time to bound their memory.
# '%.9g' formats a number as _fmt does, and no field can hold a comma,
# quote or newline, so the lines match what csv.writer makes of the _fmt
# strings.
_TRAJECTORY_HEADER = "t,id,arm,turn,zone,p,v,u,j\n"
_TRAJECTORY_LINE = "%.9g,%d,%s,%s,%s,%.9g,%.9g,%.9g,%.9g\n"
_TRAJECTORY_ROWS = 4096


def _write_trajectories(path: str, samples: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_TRAJECTORY_HEADER)
        for start in range(0, len(samples), _TRAJECTORY_ROWS):
            rows = samples[start:start + _TRAJECTORY_ROWS].tolist()
            fh.writelines(_TRAJECTORY_LINE % row for row in rows)


def cmd_simulate(config: Mapping[str, Any], out_dir: str, seed_override: Optional[int]) -> int:
    sim_config, resolved = _build_sim_config(config, seed_override)
    result = run(sim_config)
    os.makedirs(out_dir, exist_ok=True)

    _write_trajectories(os.path.join(out_dir, "trajectories.csv"), result.samples)

    schedule_rows = []
    for rec in result.vehicles:
        s = rec.schedule
        schedule_rows.append([
            str(s.vehicle_id), _fmt(s.t0), _fmt(s.tm), _fmt(s.tf),
            _fmt(s.vm), _fmt(s.vf), s.binding_case,
            "" if s.same_exit_pred is None else str(s.same_exit_pred),
            "" if s.same_entry_pred is None else str(s.same_entry_pred),
            "" if s.lateral_pred is None else str(s.lateral_pred),
            "" if s.fifo_pred is None else str(s.fifo_pred),
        ])
    _write_csv(
        os.path.join(out_dir, "schedule.csv"),
        ["id", "t0", "tm", "tf", "vm", "vf", "binding_case", "e", "s", "l", "o"],
        schedule_rows,
    )

    audit_payload = {
        "ok": result.audit.ok,
        "findings": [
            {
                "kind": f.kind,
                "vehicle_id": f.vehicle_id,
                "other_id": f.other_id,
                "time": _json_float(f.time),
                "value": _json_float(f.value),
                "bound": _json_float(f.bound),
            }
            for f in result.audit.findings
        ],
        "binding_histogram": result.binding_histogram,
    }
    _write_json(os.path.join(out_dir, "audit.json"), audit_payload)

    outputs = ["trajectories.csv", "schedule.csv", "audit.json", "manifest.json"]
    _write_manifest(out_dir, "simulate", resolved, sim_config.seed, outputs)
    return 0 if result.audit.ok else 1


def cmd_pareto(config: Mapping[str, Any], out_dir: str) -> int:
    """Sweep the weight grid over the turn's own merge window,
    merge_boundary(turn, 0, transit_time(turn)); other speeds, and the
    window they give, are set in the geometry section."""
    geometry = _build_geometry(_section(config, "geometry", _GEOMETRY_KEYS))
    section = _section(config, "pareto", _PARETO_KEYS)
    turn = _parse_enum(Turn, section.get("turn", "left"), "pareto.turn")
    jerk_scale = _read(_finite, section.get("jerk_scale", DEFAULT_JERK_SCALE), "pareto.jerk_scale")
    grid_size = _read(_integer, section.get("grid_size", 50), "pareto.grid_size")
    w_min = _read(_finite, section.get("w_min", DEFAULT_W_MIN), "pareto.w_min")
    w_max = _read(_finite, section.get("w_max", DEFAULT_W_MAX), "pareto.w_max")
    explicit_grid = section.get("grid")
    if explicit_grid is not None:
        explicit_grid = _read(_floats, explicit_grid, "pareto.grid")

    try:
        boundary = merge_boundary(turn, 0.0, geometry.transit_time(turn), geometry)
        if explicit_grid is not None:
            grid = explicit_grid
        else:
            grid = default_grid(grid_size, w_min, w_max)
        q1, q2 = normalization_weights(geometry.u_max, jerk_scale)
        result = sweep(boundary, grid, q1=q1, q2=q2)
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"pareto: {exc}") from exc

    os.makedirs(out_dir, exist_ok=True)
    frontier_ws = {point.w for point in result.frontier}
    rows = [
        [_fmt(p.w), _fmt(p.fuel), _fmt(p.discomfort),
         "true" if p.w in frontier_ws else "false"]
        for p in result.points
    ]
    _write_csv(
        os.path.join(out_dir, "pareto.csv"),
        ["w", "fuel", "discomfort", "on_frontier"],
        rows,
    )

    resolved = {
        "geometry": _field_values(geometry),
        "pareto": {
            "turn": turn.value,
            "grid": [float(w) for w in grid],
            "jerk_scale": jerk_scale,
        },
    }
    _write_manifest(out_dir, "pareto", resolved, None, ["pareto.csv", "manifest.json"])
    return 0


def cmd_plan(config: Mapping[str, Any], out_dir: str) -> int:
    geometry = _build_geometry(_section(config, "geometry", _GEOMETRY_KEYS))
    section = _section(config, "plan", _PLAN_KEYS)
    arm = _parse_enum(Arm, section.get("arm", "W"), "plan.arm")
    turn = _parse_enum(Turn, section.get("turn", "straight"), "plan.turn")
    t0 = _read(_finite, section.get("t0", 0.0), "plan.t0")
    v0 = _read(_finite, section.get("v0", 10.0), "plan.v0")
    requested_tm = section.get("tm")
    objective = _parse_enum(MzVariant, section.get("objective", "jerk_only"), "plan.objective")
    weight = section.get("weight")
    if weight is not None:
        weight = _read(_real, weight, "plan.weight")
    jerk_scale = _read(_finite, section.get("jerk_scale", DEFAULT_JERK_SCALE), "plan.jerk_scale")
    sample_step = _read(_finite, section.get("sample_step", 0.1), "plan.sample_step")
    if sample_step <= 0.0:
        raise ConfigError("plan.sample_step must be positive")

    try:
        bound = earliest_mz_arrival(t0, v0, geometry)
    except ValueError as exc:
        raise ConfigError(f"plan: {exc}") from exc
    if requested_tm is None:
        tm = bound
    else:
        tm = _read(_finite, requested_tm, "plan.tm")
        if tm < bound:
            print(
                f"warning: requested merge time {_fmt(tm)} is earlier than the "
                f"feasible minimum {_fmt(bound)}; planning at the minimum",
                file=sys.stderr,
            )
            tm = bound

    vm = geometry.mz_speed(turn)
    tf = tm + geometry.transit_time(turn)
    spec = VehicleSpec(vehicle_id=1, t0=t0, v0=v0, movement=Movement(arm, turn))
    try:
        cz, mz = plan_crossing(spec, tm, tf, geometry, objective, weight, jerk_scale)
    except ValueError as exc:
        raise ConfigError(f"plan: {exc}") from exc
    report = check_feasibility(cz, geometry)
    costs = mz_costs(mz)

    print(f"movement: {arm.value}:{turn.value}")
    print(f"entry: t0={_fmt(t0)} v0={_fmt(v0)}")
    print(f"merge window: tm={_fmt(tm)} tf={_fmt(tf)} vm={_fmt(vm)} "
          f"vf={_fmt(geometry.mz_speed_straight)}")
    print(f"approach coefficients: {_coefficient_text(cz.coefficients)}")
    print(f"merge coefficients ({objective.value}): {_coefficient_text(mz.coefficients)}")
    print(f"approach effort: {_fmt(cz.half_square_integral(2))}")
    print(f"merge fuel: {_fmt(costs.fuel)}")
    print(f"merge discomfort: {_fmt(costs.discomfort)}")
    if costs.weighted is not None:
        print(f"merge weighted cost: {_fmt(costs.weighted)}")
    if report.ok:
        print("feasibility: ok")
    else:
        for violation in report.violations:
            print(
                f"feasibility violation: {violation.kind} at t={_fmt(violation.time)} "
                f"value={_fmt(violation.value)} bound={_fmt(violation.bound)}"
            )

    os.makedirs(out_dir, exist_ok=True)
    # enough steps to reach tf, the last one clipped to it
    steps = math.ceil((tf - t0) / sample_step - 1e-9)
    times = np.minimum(t0 + np.arange(steps + 1) * sample_step, tf)
    rows = [
        [_fmt(t), zone, _fmt(p), _fmt(v), _fmt(u), _fmt(j)]
        for t, zone, p, v, u, j in zip(times.tolist(), *evaluate_crossing(cz, mz, times))
    ]
    _write_csv(os.path.join(out_dir, "plan.csv"), ["t", "zone", "p", "v", "u", "j"], rows)

    resolved = {
        "geometry": _field_values(geometry),
        "plan": {
            "arm": arm.value,
            "turn": turn.value,
            "t0": t0,
            "v0": v0,
            "tm": None if requested_tm is None else float(requested_tm),
            "planned_tm": tm,
            "objective": objective.value,
            "weight": weight,
            "jerk_scale": jerk_scale,
            "sample_step": sample_step,
        },
    }
    _write_manifest(out_dir, "plan", resolved, None, ["plan.csv", "manifest.json"])
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crossflow",
        description="Plan and simulate coordinated intersection crossings.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "simulate": "run a randomized scenario and audit it",
        "pareto": "sweep the fuel/comfort tradeoff for one merge window",
        "plan": "plan a single vehicle's crossing",
    }
    for name, description in descriptions.items():
        sub = subparsers.add_parser(name, help=description)
        sub.add_argument(
            "--config",
            default=None,
            help=f"YAML config file (default: ${CONFIG_ENV_VAR} if set)",
        )
        sub.add_argument(
            "--out", default=".", help="directory for output files (default: current)"
        )
        if name == "simulate":
            sub.add_argument(
                "--seed", type=int, default=None, help="override the configured seed"
            )
    args = parser.parse_args(argv)

    config_path = args.config if args.config is not None else os.environ.get(CONFIG_ENV_VAR)
    try:
        config = load_config(config_path)
        if args.command == "simulate":
            return cmd_simulate(config, args.out, args.seed)
        if args.command == "pareto":
            return cmd_pareto(config, args.out)
        return cmd_plan(config, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
