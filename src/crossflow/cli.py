"""Command-line front end: simulate, pareto, and plan.

All three subcommands read one YAML config file with per-section
defaults, write their outputs into a chosen directory, and record a
manifest describing exactly what ran.  One key table, _CONFIG, defines
every section: each key's reader, its default, and whether null stands
for that default.  Numbers in the CSV and JSON outputs carry nine
significant digits, and every byte of output is a pure function of the
resolved config, so identical invocations produce identical files.

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
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from crossflow import __version__
from crossflow.audit import check_feasibility
from crossflow.geometry import Arm, IntersectionGeometry, Movement, Turn
from crossflow.mz_planner import (
    DEFAULT_JERK_SCALE,
    MzVariant,
    mz_costs,
    normalization_weights,
)
from crossflow.pareto import DEFAULT_GRID_SIZE, DEFAULT_W_MAX, DEFAULT_W_MIN, default_grid, sweep
from crossflow.scheduler import VehicleSpec, earliest_mz_arrival
from crossflow.sim import (
    MIN_SAMPLE_STEP,
    SAMPLE_DTYPE,
    HorizonError,
    SimConfig,
    evaluate_crossing,
    merge_boundary,
    plan_crossing,
    require_sample_rows,
    run,
)

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


def _recorded(values: Mapping[str, Any]) -> Dict[str, Any]:
    """values as the resolved config records them: a tuple as a list, an
    enum as its value."""
    return {key: list(value) if isinstance(value, tuple)
            else value.value if isinstance(value, enum.Enum) else value
            for key, value in values.items()}


def _field_values(obj: Any, omit: Sequence[str] = ()) -> Dict[str, Any]:
    """The dataclass obj's fields by name, except omit, as recorded."""
    return _recorded({field.name: getattr(obj, field.name)
                      for field in dataclasses.fields(obj) if field.name not in omit})


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


def _sample_step(value: Any) -> float:
    """_finite(value), if it is above zero and no finer than MIN_SAMPLE_STEP."""
    step = _finite(value)
    if step <= 0.0:
        raise ConfigError("must be positive")
    if step < MIN_SAMPLE_STEP:
        raise ConfigError(f"must be at least {MIN_SAMPLE_STEP}, the entry gate's resolution")
    return step


def _numbers(size: Optional[int] = None) -> Callable[[Any], Tuple[float, ...]]:
    """A reader of a list of finite numbers, exactly size of them if given, as floats."""
    def read(value: Any) -> Tuple[float, ...]:
        if size is not None and (not isinstance(value, Sequence) or len(value) != size):
            raise ConfigError(f"must be a list of {size} numbers")
        return tuple(_finite(x) for x in value)
    return read


def _member(kind: type) -> Callable[[Any], Any]:
    """A reader of the member of the enum class kind whose value is given."""
    def read(value: Any) -> Any:
        try:
            return kind(value)
        except ValueError:
            valid = ", ".join(member.value for member in kind)
            raise ConfigError(f"must be one of: {valid} (got {value!r})") from None
    return read


class _Key(NamedTuple):
    """One config key: its reader or its block's key table, its default (if
    MISSING, left out so a dataclass field keeps its own), and whether null
    means the default."""

    read: Any
    default: Any = dataclasses.MISSING
    null: bool = False


# the geometry and sim sections take exactly the fields of the dataclasses they build
_CONFIG: Dict[str, Dict[str, _Key]] = {
    "geometry": {
        **{field.name: _Key(_real) for field in dataclasses.fields(IntersectionGeometry)},
        "formula": _Key({"side_friction": _Key(_real), "superelevation": _Key(_real)}, null=True),
    },
    "sim": {
        "arrival_rate": _Key(_real),
        "entry_speed_range": _Key(_numbers(2), null=True),
        "arm_probabilities": _Key(_numbers(4), null=True),
        "turn_probabilities": _Key(_numbers(3), null=True),
        "vehicle_count": _Key(_integer),
        "objective": _Key(_member(MzVariant)),
        "weight": _Key(_real, null=True),
        "jerk_scale": _Key(_real),
        "seed": _Key(_integer),
        "sample_step": _Key(_real),
    },
    "pareto": {
        "turn": _Key(_member(Turn), Turn.LEFT),
        "jerk_scale": _Key(_finite, DEFAULT_JERK_SCALE),
        "grid_size": _Key(_integer, DEFAULT_GRID_SIZE),
        "w_min": _Key(_finite, DEFAULT_W_MIN),
        "w_max": _Key(_finite, DEFAULT_W_MAX),
        # an explicit grid, which replaces the one of grid_size, w_min and w_max
        "grid": _Key(_numbers(), None, null=True),
    },
    "plan": {
        "arm": _Key(_member(Arm), Arm.WEST),
        "turn": _Key(_member(Turn), Turn.STRAIGHT),
        "t0": _Key(_finite, 0.0),
        "v0": _Key(_finite, 10.0),
        "objective": _Key(_member(MzVariant), MzVariant.JERK_ONLY),
        "weight": _Key(_real, None, null=True),
        "jerk_scale": _Key(_finite, DEFAULT_JERK_SCALE),
        "sample_step": _Key(_sample_step, SimConfig.sample_step),
        # the requested merge time; the earliest feasible one if not given
        "tm": _Key(_finite, None, null=True),
    },
}


def _number_hint(value: Any) -> str:
    """How to write value as a number, if it is a string that reads as one:
    YAML takes a quoted number, and an exponent without a dot and a sign
    such as 1e-3, as a string."""
    if not isinstance(value, str):
        return ""
    try:
        float(value)
    except ValueError:
        return ""
    return " (write a number unquoted, and an exponent with a dot and a sign: 1.0e-3, not 1e-3)"


def _read_keys(raw: Mapping[str, Any], path: str, keys: Mapping[str, _Key]) -> Dict[str, Any]:
    """raw, the block at path, read through its key table in order.  Unknown
    keys and refused values are reported by full key: as malformed for a
    TypeError, ValueError or OverflowError (an integer past the float
    range), in the reader's own words for a ConfigError."""
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown config key: {path}.{key}")
    values = {}
    for key, (read, default, null) in keys.items():
        full, value = f"{path}.{key}", raw.get(key)
        if value is None and (null or key not in raw):
            if default is not dataclasses.MISSING:
                values[key] = default
        elif isinstance(read, Mapping):
            if not isinstance(value, Mapping):
                raise ConfigError(f"{full} must be a mapping")
            values[key] = _read_keys(value, full, read)
        else:
            try:
                values[key] = read(value)
            except ConfigError as exc:
                raise ConfigError(f"{full} {exc}") from None
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(
                    f"{full} has a malformed value: {value!r}{_number_hint(value)}"
                ) from None
    return values


def _section(config: Mapping[str, Any], name: str) -> Dict[str, Any]:
    raw = config.get(name) or {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config section {name} must be a mapping")
    return _read_keys(raw, name, _CONFIG[name])


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
    for key in loaded:
        if key not in _CONFIG:
            raise ConfigError(f"unknown config key: {key}")
    return dict(loaded)


def _build_geometry(config: Mapping[str, Any]) -> IntersectionGeometry:
    kwargs = _section(config, "geometry")
    formula = kwargs.pop("formula", None)
    if formula is not None:
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


def _build_sim_config(
    config: Mapping[str, Any], seed_override: Optional[int]
) -> Tuple[SimConfig, Dict[str, Any]]:
    geometry = _build_geometry(config)
    kwargs = _section(config, "sim")
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        sim_config = SimConfig(geometry=geometry, **kwargs)
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


# A state table is written one line per row, a slice of rows at a time to
# bound their memory: trajectories.csv by (t, vehicle_id, arm, turn, zone)
# and plan.csv by (t, zone), each then p, v, u and j.  Each number's text is
# '%.9g' of it, as _fmt writes it, and no field can hold a comma, quote or
# newline, so the lines match what csv.writer makes of the _fmt strings.  A
# slice is built as one uint8 matrix, a row per line: each field's text in a
# fixed-width block of columns, padded with zero bytes (no text holds one),
# then a comma or the newline.  Dropping the zero bytes of the matrix, read
# row by row, leaves the slice's lines.  The numbers come from _format_g9
# and the key columns from _column_text.
_TRAJECTORY_ROWS = 4096
_TRAJECTORY_KEY = ("vehicle_id", "arm", "turn", "zone")

# _format_g9 writes a value in a 16-byte block, with zero bytes wherever it
# has no character: '-' at byte 0 if its sign bit is set, then its nine
# significant digits, less trailing zeros.  Before any point or prefix, digit
# i goes at byte 1 + i.  Written fixed when its decimal exponent E is 0 to 8,
# the digits after the first E + 1 move up one byte for the point at E + 2;
# written scientific (E below -4 or above 8), the digits after the first do,
# and e, the exponent's sign and its two digits go at bytes 11-14; for E of
# -4 to -1, "0." and -1 - E zeros go from byte 1 and every digit moves up
# five bytes.
_G9_E_MIN, _G9_E_MAX = -14, 30
_G9_GUARD = 1e-6
# 10 ** (8 - E) for E from _G9_E_MIN to _G9_E_MAX, as a multiplier for E <= 8
# and a divisor above, the other one 1.0: every one is exact in float64
_G9_SCALE = 8 - np.arange(_G9_E_MIN, _G9_E_MAX + 1)
_G9_UP = 10.0 ** np.maximum(_G9_SCALE, 0)
_G9_DOWN = 10.0 ** np.maximum(-_G9_SCALE, 0)


def _g9_groups() -> Tuple[np.ndarray, np.ndarray]:
    """The ASCII of every 4-digit group as a little-endian word, and its
    trailing zeros, each indexed by the group's value."""
    thousands, hundreds, tens, ones = np.ix_(*[np.arange(10, dtype=np.uint64)] * 4)
    ascii = (48 + thousands) | (48 + hundreds) << 8 | (48 + tens) << 16 | (48 + ones) << 24
    zeros = (ones == 0) * (1 + (tens == 0) * (1 + (hundreds == 0) * (1 + (thousands == 0))))
    return ascii.ravel(), zeros.ravel()


_G9_GROUP, _G9_GROUP_ZEROS = _g9_groups()


def _g9_layouts() -> np.ndarray:
    """Rows of the layout of each code ((E - _G9_E_MIN) * 9 + trailing zeros)
    * 2 + sign bit, E up to _G9_E_MAX + 1 (a mantissa that rounds up to 1e9
    carries): the masks of the digit bytes that stay and of those that move,
    each as two little-endian words of the block, the two words of the
    characters that are not digits, and the bits the moving digits move by."""
    codes = np.arange((_G9_E_MAX + 2 - _G9_E_MIN) * 18)
    e = (codes // 18 + _G9_E_MIN)[:, None]
    digits = 9 - codes[:, None] // 2 % 9
    byte = np.arange(16)
    fraction = (e >= -4) & (e < 0)
    # the last digit before the point, at byte point + 1, and the digits written
    point = np.where((e >= 0) & (e <= 8), e, 0)
    written = np.where(e >= 0, np.maximum(digits, point + 1), digits)
    # the digits at bytes 1 to last stay, and those after it up to written move
    last = np.where(fraction, 0, point + 1)
    stay = (byte >= 1) & (byte <= last)
    move = (byte > last) & (byte <= written)
    text = np.zeros((len(codes), 16), np.uint8)
    text[(codes[:, None] % 2 == 1) & (byte == 0)] = ord("-")
    text[~fraction & (written > point + 1) & (byte == point + 2)] = ord(".")
    text[fraction & (byte >= 1) & (byte <= 1 - e)] = ord("0")
    text[fraction & (byte == 2)] = ord(".")
    scientific = ((e < -4) | (e > 8)) & (byte >= 11) & (byte <= 14)
    exponent = np.column_stack([np.full(len(e), ord("e")), np.where(e < 0, ord("-"), ord("+")),
                                48 + abs(e) // 10, 48 + abs(e) % 10])
    text[scientific] = exponent[scientific.any(axis=1)].ravel()
    blocks = np.concatenate([stay * np.uint8(255), move * np.uint8(255), text], axis=1)
    shift = np.where(fraction[:, 0], 40, 8).astype(np.uint64)
    return np.vstack([blocks.view("<u8").T.astype(np.uint64), shift])


_G9_LAYOUTS = _g9_layouts()


def _g9_round(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's nine significant digits as an integer below 1e9, its
    layout code, and the indices of the values that are not rounded here.

    A finite v with E = floor(log10 |v|) from -14 to 30 is scaled to
    s = |v| * 10 ** (8 - E) by one multiply or divide by an exact power of
    ten, correctly rounded, so s is within 2**-53 * s < 1.2e-7 of the exact
    product.  Where 1e8 <= s < 1e9 and s is more than _G9_GUARD from a
    half-integer, no half-integer lies between s and the exact product, so
    rint(s) is the exact product rounded to nine digits as '%.9g' rounds it
    (an exact tie falls in the guard band).  A rint of 1e9 is 1e8 with
    E + 1.  Zero is the digits 000000000 at E = 0; every other value (nan,
    the infinities, an E outside the range, a log10 off by one, the guard
    band) is left to the caller."""
    scaled = np.abs(values)
    zero = scaled == 0.0
    with np.errstate(all="ignore"):
        row = np.log10(scaled)
        np.floor(row, out=row)
        inside = (row >= _G9_E_MIN) & (row <= _G9_E_MAX)
        row = np.where(inside, row, 0.0).astype(np.intp) - _G9_E_MIN
        scaled *= _G9_UP[row]
        scaled /= _G9_DOWN[row]
        mantissa = np.rint(scaled)
        inside &= (scaled >= 1e8) & (scaled < 1e9)
        scaled -= mantissa
        inside &= np.abs(scaled, out=scaled) < 0.5 - _G9_GUARD
    carry = mantissa == 1e9
    row += carry
    mantissa[carry | ~inside] = 1e8
    mantissa[zero] = 0.0
    mantissa = mantissa.astype(np.int64)
    low = mantissa % 10000
    zeros = _G9_GROUP_ZEROS[low]
    zeros += (low == 0) * _G9_GROUP_ZEROS[mantissa // 10000 % 10000]
    code = (row * 9 + zeros) * 2 + np.signbit(values)
    return mantissa, code, np.flatnonzero(~inside & ~zero)


def _format_g9(values: np.ndarray) -> np.ndarray:
    """'%.9g' of each value of a float64 array, as a (len, 16) uint8 matrix
    whose row i, without its zero bytes, is "%.9g" % values[i]: by
    _g9_round's digits and layout, or through _fmt one at a time for the
    values it leaves."""
    mantissa, code, rest = _g9_round(values)
    # the digits at bytes 1-9 of the block, digit i at byte 1 + i: the lead
    # digit, then two 4-digit groups
    digits_low = _G9_GROUP[mantissa % 10000]
    digits_high = digits_low >> 16
    digits_low <<= 48
    mantissa //= 10000
    digits_low |= _G9_GROUP[mantissa % 10000] << 16
    mantissa //= 10000
    digits_low |= (mantissa.astype(np.uint64) + 48) << 8
    stay_low, stay_high, move_low, move_high, text_low, text_high, shift = _G9_LAYOUTS
    moved, shift = digits_low & move_low[code], shift[code]
    words = np.empty((len(values), 2), "<u8")
    words[:, 1] = ((digits_high & move_high[code]) << shift | moved >> 64 - shift
                   | digits_high & stay_high[code] | text_high[code])
    words[:, 0] = moved << shift | digits_low & stay_low[code] | text_low[code]
    text = words.view(np.uint8)
    text[rest] = np.array([_fmt(v) for v in values[rest].tolist()], "S16").view(
        np.uint8).reshape(len(rest), 16)
    return text


def _column_text(column: np.ndarray) -> np.ndarray:
    """The text of each value of an integer or string column, as a uint8
    matrix padded with zero bytes: an integer formatted once per distinct
    value, a string as its code points, which must be ASCII (a state
    table's labels are)."""
    if column.dtype.kind == "U":
        codes = column.view((np.uint32, (column.dtype.itemsize // 4,)))
        if codes.max(initial=0) > 127:
            raise ValueError(f"a state table label is not ASCII: {column!r}")
        return codes.astype(np.uint8)
    values, inverse = np.unique(column, return_inverse=True)
    texts = np.array([str(value) for value in values.tolist()], "S")
    return texts.view(np.uint8).reshape(len(texts), -1)[inverse]


def _state_lines(rows: np.ndarray, key: Sequence[str]) -> bytearray:
    """The CSV lines of rows, a slice of a SAMPLE_DTYPE array: t, the key
    columns, p, v, u and j."""
    numbers = _format_g9(
        np.column_stack([rows[name] for name in ("t", "p", "v", "u", "j")]).ravel()
    ).reshape(len(rows), 5, 16)
    fields = [numbers[:, 0], *(_column_text(rows[name]) for name in key),
              *numbers[:, 1:].transpose(1, 0, 2)]
    # each field, then its separator
    ends = np.cumsum([field.shape[1] + 1 for field in fields])
    buffer = bytearray(len(rows) * int(ends[-1]))
    lines = np.frombuffer(buffer, np.uint8).reshape(len(rows), -1)
    for field, end in zip(fields, ends.tolist()):
        lines[:, end - 1 - field.shape[1]:end - 1] = field
        lines[:, end - 1] = ord(",")
    lines[:, -1] = ord("\n")
    return buffer.translate(None, b"\0")


def _write_states(path: str, table: np.ndarray, key: Sequence[str]) -> None:
    """table, a SAMPLE_DTYPE array, as CSV lines of t, the key columns (the
    vehicle_id column headed id), p, v, u and j."""
    header = ",".join(("t", *key, "p", "v", "u", "j")).replace("vehicle_id", "id")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(table), _TRAJECTORY_ROWS):
            fh.write(_state_lines(table[start:start + _TRAJECTORY_ROWS], key))


def cmd_simulate(config: Mapping[str, Any], out_dir: str, seed_override: Optional[int]) -> int:
    sim_config, resolved = _build_sim_config(config, seed_override)
    try:
        result = run(sim_config)
    except HorizonError as exc:
        raise ConfigError(f"sim: {exc}") from None
    try:
        samples = result.samples
    except ValueError as exc:
        raise ConfigError(f"sim.{exc}") from None
    os.makedirs(out_dir, exist_ok=True)

    _write_states(os.path.join(out_dir, "trajectories.csv"), samples, _TRAJECTORY_KEY)

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
    geometry = _build_geometry(config)
    section = _section(config, "pareto")
    turn, grid = section["turn"], section["grid"]
    try:
        boundary = merge_boundary(turn, 0.0, geometry.transit_time(turn), geometry)
        if grid is None:
            grid = default_grid(section["grid_size"], section["w_min"], section["w_max"])
        q1, q2 = normalization_weights(geometry.u_max, section["jerk_scale"])
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
            "jerk_scale": section["jerk_scale"],
        },
    }
    _write_manifest(out_dir, "pareto", resolved, None, ["pareto.csv", "manifest.json"])
    return 0


def cmd_plan(config: Mapping[str, Any], out_dir: str) -> int:
    geometry = _build_geometry(config)
    section = _section(config, "plan")
    arm, turn, objective, t0, v0 = (section[k] for k in ("arm", "turn", "objective", "t0", "v0"))
    try:
        bound = earliest_mz_arrival(t0, v0, geometry)
        tm = bound if section["tm"] is None else section["tm"]
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
        cz, mz, _ = plan_crossing(spec, tm, tf, geometry, objective, section["weight"],
                                  section["jerk_scale"])
    except ValueError as exc:
        raise ConfigError(f"plan: {exc}") from exc
    # enough steps to reach tf, the last one clipped to it
    step = section["sample_step"]
    steps = math.ceil((tf - t0) / step - 1e-9)
    try:
        require_sample_rows(steps + 1, step)
    except ValueError as exc:
        raise ConfigError(f"plan.{exc}") from None
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
    times = np.minimum(t0 + np.arange(steps + 1) * step, tf)
    # the row at tf is the merge zone's last, not the exit lane's first
    states = np.empty(len(times), SAMPLE_DTYPE)
    states["t"] = times
    evaluate_crossing([(cz, mz)], np.zeros(len(times), np.intp), times, states)
    _write_states(os.path.join(out_dir, "plan.csv"), states, ("zone",))

    resolved = {"geometry": _field_values(geometry),
                "plan": _recorded({**section, "planned_tm": tm})}
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
