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
import functools
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
    ZONES,
    HorizonError,
    SampledStates,
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


# trajectories.csv and plan.csv are written one line per sampled row, a
# slice of rows at a time to bound their memory: t, then id, arm, turn and
# zone or zone alone, then p, v, u and j.  The writer reads the columns of
# a sim.SampledStates, with no table of rows between, and a small matrix of
# key texts, len(ZONES) per record: for trajectories.csv one
# "id,arm,turn,zone" text per vehicle and piece, for plan.csv the zone
# texts of its one record.  Each number's text is '%.9g' of it, as _fmt
# writes it, and no field can hold a comma, quote or newline, so the lines
# match what csv.writer makes of the _fmt strings.  A slice is built as one
# uint64 matrix, a row per line: t's text in as few words as the file's
# longest takes, the key text framed by commas, then the two words of each
# of p, v, u and j with its comma or the newline in the top byte of the
# second (in a third word where some text fills all 16 bytes), every byte
# without a character zero (no text holds one).  Dropping the zero bytes of
# the matrix, read row by row, leaves the slice's lines.  Whatever repeats
# is formatted once per file: t for each run of rows that share its bits
# (the rows come in time order, so a run holds every vehicle sampled at that
# time), the key texts, and j for each record and piece, a text reused on
# each of the piece's rows whose j has its bits (a cubic piece's j is one
# constant) and formatted apart for every other row.  Each slice formats
# its rows' p, v and u, written straight into the matrix.
_TRAJECTORY_ROWS = 4096
_TRAJECTORY_HEADER = "t,id,arm,turn,zone,p,v,u,j"
_PLAN_HEADER = "t,zone,p,v,u,j"

# _format_g9 writes a value in a 16-byte block, with zero bytes wherever it
# has no character: '-' at byte 0 if its sign bit is set, then its nine
# significant digits, less trailing zeros.  Before any point or prefix, digit
# i goes at byte 1 + i.  Written fixed when its decimal exponent E is 0 to 8,
# the digits after the first E + 1 move up one byte for the point at E + 2;
# written scientific (E below -4 or above 8), the digits after the first do,
# and e, the exponent's sign and its two digits go at bytes 11-14; for E of
# -4 to -1, "0." and -1 - E zeros go from byte 1 and every digit moves up
# five bytes.  So byte 15 is free, except in a text of _fmt's that fills
# all 16 bytes, such as -1.79769313e+308.
_G9_E_MIN, _G9_E_MAX = -14, 30
_G9_GUARD = 1e-6
# 10 ** (8 - E) for E from _G9_E_MIN to _G9_E_MAX, as a multiplier for E <= 8
# and a divisor above, the other one 1.0: every one is exact in float64
_G9_SCALE = 8 - np.arange(_G9_E_MIN, _G9_E_MAX + 1)
_G9_UP = 10.0 ** np.maximum(_G9_SCALE, 0)
_G9_DOWN = 10.0 ** np.maximum(-_G9_SCALE, 0)


def _g9_digits(count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ASCII of every count-digit group as a little-endian word, its
    first digit in the low byte, and twice its trailing zeros, each indexed
    by the group's value: built a digit at a time, each new one the last."""
    ascii, zeros = np.zeros(1, np.uint64), np.zeros(1, np.int16)
    digit = np.arange(10)
    for place in range(count):
        ascii = (ascii[:, None] | (48 + digit.astype(np.uint64)) << np.uint64(8 * place)).ravel()
        zeros = np.where(digit == 0, zeros[:, None] + 1, 0).astype(np.int16).ravel()
    return ascii, 2 * zeros


class _G9Digits(NamedTuple):
    """A nine-digit mantissa's leading five digits at bytes 1-5 of the
    block, and twice the trailing zeros of all nine where the last four are
    zeros, counting at most four of the first five, plus 18 for each E the
    code moves up: a mantissa that rounds up to 1e9 leads with 100000,
    written as 10000 one E up, and zero, scaled at E = _G9_E_MIN, is written
    at E = 0.  Its trailing four digits at bytes 6-9, two in the first word
    and two in the second, and twice their trailing zeros."""

    high: np.ndarray
    high_zeros: np.ndarray
    low_first: np.ndarray
    low_second: np.ndarray
    low_zeros: np.ndarray


@functools.cache
def _g9_tables() -> _G9Digits:
    """The digit tables, built on first use: a process that formats no
    state table never holds their megabyte."""
    high, high_zeros = _g9_digits(5)
    high_zeros = np.append(8 + np.minimum(high_zeros, 8), 8 + 8 + 18).astype(np.int16)
    high_zeros[0] += 18 * -_G9_E_MIN
    low, low_zeros = _g9_digits(4)
    tables = _G9Digits(np.append(high, high[10000]) << np.uint64(8), high_zeros,
                       low << np.uint64(48), low >> np.uint64(16), low_zeros)
    for table in tables:
        table.setflags(write=False)
    return tables


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


class _Rounded(NamedTuple):
    """_g9_round's result: each value's leading five and trailing four
    digits, its layout code, and the flat indices and texts of the values
    left to _fmt, each text as two little-endian words."""

    high: np.ndarray
    low: np.ndarray
    code: np.ndarray
    rest: np.ndarray
    fallback: np.ndarray


def _g9_round(values: np.ndarray) -> _Rounded:
    """Each value's nine significant digits as an integer up to 1e9, split
    into its leading five and its trailing four, and its layout code; the
    values that are not rounded here go through _fmt one at a time.

    A finite v is scaled to s = |v| * 10 ** (8 - E), E = floor(log10 |v|)
    clamped to _G9_E_MIN to _G9_E_MAX, by one multiply or divide by an exact
    power of ten, correctly rounded, so s is within 2**-53 * s of the exact
    product.  Where s >= 1e8, rint(s) <= 1e9 and s is more than _G9_GUARD
    from a half-integer, no half-integer lies between s and the exact
    product, so rint(s) is the exact product rounded to nine digits as
    '%.9g' rounds it, at E if below 1e9, else as 1e8 at E + 1 (an exact tie
    falls in the guard band).  Zero is the digits 000000000 at E = 0; every
    other value (nan, the infinities, an E outside the range or a log10 off
    by one, both of which put s out of bounds, the guard band) is left to
    _fmt."""
    scaled = np.abs(values)
    with np.errstate(all="ignore"):
        # E - _G9_E_MIN, nan and zero at 0: truncation floors what is not negative
        row = np.log10(scaled)
        row -= _G9_E_MIN
        np.fmax(row, 0.0, out=row)
        np.fmin(row, _G9_E_MAX - _G9_E_MIN, out=row)
        row = row.astype(np.intp)
        scaled *= _G9_UP.take(row)
        scaled /= _G9_DOWN.take(row)
        mantissa = np.rint(scaled)
        # any value left to _fmt, nan too, still indexes the tables
        np.fmin(mantissa, 1e9, out=mantissa)
        inside = scaled >= 1e8
        scaled -= mantissa
        inside &= np.abs(scaled, out=scaled) < 0.5 - _G9_GUARD
    # the split by uint32 division and a multiply-subtract, not an int64 %
    low = mantissa.astype(np.uint32)
    high = low // 10000
    low -= high * np.uint32(10000)
    high, low = high.astype(np.intp), low.astype(np.intp)
    digits = _g9_tables()
    code = row * 18
    code += np.where(low == 0, digits.high_zeros.take(high), digits.low_zeros.take(low))
    code += np.signbit(values)
    rest = np.flatnonzero(~inside)
    rest = rest[values.flat[rest] != 0.0]
    fallback = np.array([_fmt(v) for v in values.flat[rest].tolist()], "S16")
    return _Rounded(high, low, code, rest, fallback.view("<u8").reshape(len(rest), 2))


def _g9_write(rounded: _Rounded, out: np.ndarray, separator: np.uint64 = np.uint64(0)) -> None:
    """Write each rounded value's text as two words into out, an array of
    the values' shape and then 2, and separator into the top byte of the
    second word, a byte that only a 16-byte text of _fmt's fills."""
    high, low, code, rest, fallback = rounded
    digits = _g9_tables()
    first = digits.high.take(high)
    first |= digits.low_first.take(low)
    second = digits.low_second.take(low)
    stay_low, stay_high, move_low, move_high, text_low, text_high, shift = _G9_LAYOUTS
    moved = first & move_low.take(code)
    first &= stay_low.take(code)
    first |= text_low.take(code)
    moved_high = second & move_high.take(code)
    second &= stay_high.take(code)
    second |= (text_high | separator).take(code)
    shift = shift.take(code)
    moved_high <<= shift
    second |= moved_high
    np.bitwise_or(second, moved >> (64 - shift), out=out[..., 1])
    moved <<= shift
    np.bitwise_or(first, moved, out=out[..., 0])
    out[np.unravel_index(rest, code.shape)] = fallback | np.array([0, separator], np.uint64)


def _format_g9(values: np.ndarray) -> np.ndarray:
    """'%.9g' of each value of a 1-D float64 array, as a (len, 16) uint8
    matrix whose row i, without its zero bytes, is "%.9g" % values[i]: by
    _g9_round's digits and layout, or through _fmt one at a time for the
    values it leaves."""
    words = np.empty((len(values), 2), "<u8")
    _g9_write(_g9_round(values), words)
    return words.view(np.uint8)


def _key_texts(texts: Sequence[str]) -> np.ndarray:
    """texts as a uint8 matrix, a row per text padded with zero bytes; each
    text must be ASCII."""
    try:
        matrix = np.array(texts, "S")
    except UnicodeEncodeError:
        raise ValueError(f"a state table label is not ASCII: {texts!r}") from None
    return matrix.view(np.uint8).reshape(len(texts), matrix.itemsize)


class _FileTexts(NamedTuple):
    """What a state file's slices share, each text one void element of
    whole words: each row's t text, formatted once for each run of rows with
    equal bits and in as few words as the longest takes; each key text
    framed by commas; one j text for each record and piece; the rows whose
    j has other bits than their piece's, in order, with their own j texts;
    and the words j takes with the newline after it."""

    times: np.ndarray
    keys: np.ndarray
    pieces: np.ndarray
    fresh: np.ndarray
    fresh_texts: np.ndarray
    width: int


def _words_as_texts(words: np.ndarray) -> np.ndarray:
    """Each row of a uint64 matrix as one void element."""
    return np.ascontiguousarray(words).view(f"V{8 * words.shape[1]}")[:, 0]


def _file_texts(states: SampledStates, keys: np.ndarray, key_index: np.ndarray) -> _FileTexts:
    """The texts the slices of a state file share."""
    bits = states.t.view(np.uint64)
    new = np.empty(len(bits), bool)
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    # the j of one row of each piece, whichever row: its text serves each
    # row of the piece with its bits
    j = states.values[3]
    piece_j = np.zeros(len(keys))
    piece_j[key_index] = j
    fresh = np.flatnonzero(j.view(np.uint64) != piece_j.view(np.uint64).take(key_index))
    # formatted as many at a time as a slice's p, v and u, to bound the
    # formatter's memory
    values = np.concatenate((states.t[starts], piece_j, j[fresh]))
    texts = np.empty((len(values), 16), np.uint8)
    for start in range(0, len(values), 3 * _TRAJECTORY_ROWS):
        chunk = slice(start, start + 3 * _TRAJECTORY_ROWS)
        texts[chunk] = _format_g9(values[chunk])
    # a j text that fills all 16 bytes leaves none for the newline
    width = 3 if texts[len(starts):, 15].any() else 2
    times, pieces, fresh_texts = np.split(texts.view(np.uint64),
                                          [len(starts), len(starts) + len(keys)])
    # t needs no separator of its own: the key text starts with it
    times = _words_as_texts(times[:, :1 + bool(times[:, 1].any())])
    framed = np.zeros((len(keys), -(-(keys.shape[1] + 2) // 8) * 8), np.uint8)
    framed[:, 0] = framed[:, -1] = ord(",")
    framed[:, 1:1 + keys.shape[1]] = keys
    return _FileTexts(np.repeat(times, np.diff(starts, append=len(bits))),
                      _words_as_texts(framed.view(np.uint64)), _words_as_texts(pieces), fresh,
                      _words_as_texts(fresh_texts), width)


_COMMA, _NEWLINE = np.uint64(ord(",") << 56), np.uint64(ord("\n") << 56)


def _state_lines(texts: _FileTexts, rows: slice, key_index: np.ndarray,
                 values: np.ndarray) -> bytes:
    """The CSV lines of the rows of one slice: each row's t text, its key
    text by its key index, then its p, v, u and j, a column of values."""
    n = len(key_index)
    rounded = _g9_round(values[:3])
    # a third word for the separators where a text fills all 16 bytes
    width = 3 if texts.width == 3 or rounded.fallback[:, 1].max(initial=0) >> 56 else 2
    ends = np.cumsum([texts.times.itemsize // 8, texts.keys.itemsize // 8, 4 * width])
    lines = (np.empty if width == 2 else np.zeros)((n, ends[-1]), np.uint64)
    lines[:, :ends[0]].view(texts.times.dtype)[:, 0] = texts.times[rows]
    # every index is in range; numpy would copy out through a buffer under mode="raise"
    np.take(texts.keys, key_index, out=lines[:, ends[0]:ends[1]].view(texts.keys.dtype)[:, 0],
            mode="clip")
    # p, v, u and j, each in width words, the separator in the top byte of the last
    fields = lines[:, ends[1]:].reshape(n, 4, width)
    _g9_write(rounded, fields[:, :3, :2].transpose(1, 0, 2), _COMMA if width == 2 else 0)
    j_text = fields[:, 3, :2].view("V16")[:, 0]
    np.take(texts.pieces, key_index, out=j_text, mode="clip")
    fresh = slice(*np.searchsorted(texts.fresh, (rows.start, rows.start + n)))
    j_text[texts.fresh[fresh] - rows.start] = texts.fresh_texts[fresh]
    if width > 2:
        fields[:, :3, -1] = _COMMA
    fields[:, 3, -1] |= _NEWLINE
    return lines.tobytes().translate(None, b"\0")


def _write_states(path: str, header: str, states: SampledStates, keys: np.ndarray) -> None:
    """CSV lines under header, one per row of states: its t, the key text of
    its record and piece, then its p, v, u and j.  keys is a _key_texts
    matrix of len(ZONES) texts per record, the record's piece i's at row
    record * len(ZONES) + i.  What repeats is formatted once, before the
    first slice (_file_texts); each slice of _TRAJECTORY_ROWS rows then
    formats its p, v and u (_state_lines)."""
    key_index = states.owner * len(ZONES) + states.slot
    texts = _file_texts(states, keys, key_index)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(states), _TRAJECTORY_ROWS):
            rows = slice(start, start + _TRAJECTORY_ROWS)
            fh.write(_state_lines(texts, rows, key_index[rows], states.values[:, rows]))


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
    keys = _key_texts([f"{rec.spec.vehicle_id},{rec.spec.movement.entry_arm.value},"
                       f"{rec.spec.movement.turn.value},{zone}"
                       for rec in result.vehicles for zone in ZONES])
    os.makedirs(out_dir, exist_ok=True)

    _write_states(os.path.join(out_dir, "trajectories.csv"), _TRAJECTORY_HEADER, samples, keys)

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
    owner = np.zeros(len(times), np.intp)
    # the row at tf is the merge zone's last, not the exit lane's first
    slot, values = evaluate_crossing([(cz, mz)], owner, times)
    _write_states(os.path.join(out_dir, "plan.csv"), _PLAN_HEADER,
                  SampledStates(times, owner, slot, values), _key_texts(ZONES))

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
