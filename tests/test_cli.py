import csv
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
from crossflow import (
    Arm,
    GateStats,
    IntersectionGeometry,
    Movement,
    MzBoundary,
    MzVariant,
    SimConfig,
    Turn,
    VehicleSpec,
    cli,
    plan_crossing,
    solve_cz,
    solve_mz,
    solve_mz_jerk,
)
from crossflow.sim import SAMPLE_DTYPE, merge_boundary
from crossflow.sim import run as sim_run

S_LEFT = 3.0 * math.pi * 30.0 / 8.0


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_files(out_dir, names):
    return {name: (out_dir / name).read_bytes() for name in names}


SIM_FILES = ("trajectories.csv", "schedule.csv", "audit.json", "manifest.json")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_reference_scenario(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["simulate", "--out", str(out), "--seed", "7"])
    assert code == 0
    for name in SIM_FILES:
        assert (out / name).exists()
    schedule = read_csv(out / "schedule.csv")
    assert schedule[0] == ["id", "t0", "tm", "tf", "vm", "vf", "binding_case",
                           "e", "s", "l", "o"]
    assert len(schedule) == 31
    assert [row[0] for row in schedule[1:]] == [str(i) for i in range(1, 31)]
    audit = json.loads((out / "audit.json").read_text())
    assert audit["ok"] is True
    assert audit["findings"] == []
    assert sum(audit["binding_histogram"].values()) == 30
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["outputs"] == sorted(SIM_FILES)


def test_simulate_outputs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["simulate", "--out", str(out_a), "--seed", "3"]) == 0
    assert cli.main(["simulate", "--out", str(out_b), "--seed", "3"]) == 0
    assert read_files(out_a, SIM_FILES) == read_files(out_b, SIM_FILES)


def test_simulate_outputs_ignore_gate_stats(tmp_path, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["simulate", "--out", str(out_a), "--seed", "3"]) == 0
    real_run = cli.run

    def recounted(cfg):
        result = real_run(cfg)
        assert result.gate.searches >= len(result.vehicles)
        assert result.gate.probes > 0
        return replace(result, gate=GateStats(searches=1, cut=2, probes=3))

    monkeypatch.setattr(cli, "run", recounted)
    assert cli.main(["simulate", "--out", str(out_b), "--seed", "3"]) == 0
    assert read_files(out_a, SIM_FILES) == read_files(out_b, SIM_FILES)


def test_simulate_honors_config_file(tmp_path):
    cfg = write_config(tmp_path, "sim:\n  vehicle_count: 5\n  seed: 2\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert len(read_csv(out / "schedule.csv")) == 6


def test_simulate_reads_env_config(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "sim:\n  vehicle_count: 4\n  seed: 1\n")
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, cfg)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--out", str(out)]) == 0
    assert len(read_csv(out / "schedule.csv")) == 5


def test_trajectory_lines_match_csv_writer_on_edge_values(tmp_path, monkeypatch):
    # slices of 8 rows, the last one partial; t and j are each formatted
    # once per distinct bit pattern in a slice, so each of the first two
    # slices holds both zeros, and a repeated nan, inf and subnormal, in
    # both columns and in their own orders: a cache keyed on the float,
    # where 0.0 == -0.0, writes one zero's text for the other
    monkeypatch.setattr(cli, "_TRAJECTORY_ROWS", 8)
    tiny, inf, nan = 5e-324, math.inf, math.nan
    repeated = [
        ((0.0, -0.0, nan, inf, tiny, nan, inf, tiny),
         (-0.0, nan, 0.0, tiny, inf, inf, tiny, nan)),
        ((-0.0, tiny, -inf, 0.0, tiny, -inf, nan, nan),
         (nan, 0.0, -inf, -inf, nan, -0.0, tiny, tiny)),
    ]
    rows = [
        (t, k, "S", "straight", "mz", k, -t, t, j)
        for ts, js in repeated
        for k, (t, j) in enumerate(zip(ts, js), start=1)
    ]
    values = [-0.0, 0.0, 1e-7, -1e-7, 1e21, -1e21, 8, 2.0 / 3.0, 123456789.5,
              5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
    rows += [
        (x, k, "N", "left", zone, x, -x, x, -x)
        for k, x in enumerate(values, start=1)
        for zone in ("cz", "mz", "out")
    ]
    rows.append((0.1, 10**9, "W", "right", "out", 3, 4, 0, 0))
    table = np.array(rows, dtype=SAMPLE_DTYPE)
    path = tmp_path / "trajectories.csv"
    cli._write_states(str(path), table, cli._TRAJECTORY_KEY)
    expected = oracles.trajectory_csv_by_writer(oracles.sample_rows(table))
    assert path.read_bytes() == expected.encode()


# t and j drawn from small pools, so that values repeat within a slice,
# with both zeros, nan, both infinities and the smallest subnormal in each;
# ids from a small pool with both int64 extremes, so that one id recurs in a
# slice with other arms, turns and zones
_REPEATED_POOL = st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 2.0 / 3.0, -1e21, 123456789.5]
)
_TRAJECTORY_ROW = st.tuples(
    _REPEATED_POOL,
    st.sampled_from([-2**63, -1, 0, 7, 10**12, 2**63 - 1]),
    st.sampled_from([arm.value for arm in Arm]),
    st.sampled_from([turn.value for turn in Turn]),
    st.sampled_from(["cz", "mz", "out"]),
    st.floats(width=64),
    st.floats(width=64),
    st.floats(width=64),
    _REPEATED_POOL,
)


# no shrinking: a failing table of at most 24 rows reads as it was drawn,
# and shrinking one under pytest's assertion rewriting took minutes
@settings(max_examples=60, derandomize=True, deadline=None, phases=[Phase.generate])
@given(rows=st.lists(_TRAJECTORY_ROW, max_size=24), slice_rows=st.integers(1, 7))
def test_trajectory_csv_matches_csv_writer_on_drawn_tables(tmp_path_factory, rows, slice_rows):
    table = np.array(rows, dtype=SAMPLE_DTYPE)
    path = tmp_path_factory.getbasetemp() / "drawn-trajectories.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_TRAJECTORY_ROWS", slice_rows)
        cli._write_states(str(path), table, cli._TRAJECTORY_KEY)
    expected = oracles.trajectory_csv_by_writer(oracles.sample_rows(table))
    assert path.read_bytes() == expected.encode()


def g9_texts(values):
    """The bulk formatter's text of each value, its zero bytes dropped."""
    blocks = cli._format_g9(np.asarray(values, dtype=np.float64))
    lines = np.concatenate([blocks, np.full((len(blocks), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


# a fixed count of drawn arrays, every float64 a draw can give
@settings(max_examples=60, derandomize=True, deadline=None, phases=[Phase.generate])
@given(values=st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_bulk_format_is_percent_g9_on_drawn_floats(values):
    assert g9_texts(values) == ["%.9g" % x for x in values]


def _with_neighbours(x):
    return [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]


_G9_EDGES = [
    # each power of ten from 1e-20 to 1e35 and the floats either side of it
    *(y for k in range(-20, 36) for y in _with_neighbours(10.0 ** k)),
    # exact ties at the tenth significant digit, which round half to even
    123456789.5, 123456788.5, 1234567895.0, 1234567885.0, 0.0003662109375, 12.0556640625,
    # where '%.9g' switches between fixed and scientific, and rounds into the switch
    0.0001, 9.99999999e-05, 9.999999995e-05, 999999999.0, 999999999.5, 999999999.4, 1e9,
    # both ends of the bulk exponent range, -14 and 30, and past them
    *_with_neighbours(1e-14), 9.99999999e-15, *_with_neighbours(1e31), 9.999999994e30,
    9.999999996e30, 1e30, 123456789e22,
    # trailing zeros cut, and an integer part of nine digits
    0.5, 1.25, 100.0, 120000000.0, 123456789.0, 1.0000001, 0.000100000001,
    0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf, math.nan,
]


def test_bulk_format_is_percent_g9_on_edge_values():
    values = _G9_EDGES + [-x for x in _G9_EDGES]
    assert g9_texts(values) == ["%.9g" % x for x in values]


def test_bulk_format_rarely_falls_back(monkeypatch):
    # a guard that sent every value to the per-value fallback would stay
    # exact but lose the bulk path's speed
    table = sim_run(SimConfig(arrival_rate=0.25, vehicle_count=120, seed=2200)).samples
    values = np.concatenate([table["p"], table["v"], table["u"]])
    fallbacks = []
    fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda x: fallbacks.append(x) or fmt(x))
    assert g9_texts(values) == ["%.9g" % x for x in values.tolist()]
    assert len(fallbacks) < 0.01 * len(values)


def test_state_table_labels_must_be_ascii(tmp_path):
    table = np.array([(0.0, 1, "N", "left", "cz", 0.0, 1.0, 0.0, 0.0),
                      (0.1, 1, "N", "l\u00e9ft", "cz", 0.1, 1.0, 0.0, 0.0)], dtype=SAMPLE_DTYPE)
    with pytest.raises(ValueError, match="not ASCII"):
        cli._write_states(str(tmp_path / "trajectories.csv"), table, cli._TRAJECTORY_KEY)


def test_trajectory_csv_matches_csv_writer_with_integer_geometry(tmp_path, monkeypatch):
    # integer speeds in the YAML reach the geometry as ints
    cfg = write_config(
        tmp_path,
        "geometry:\n  mz_speed_left: 8\n  mz_speed_straight: 10\n  mz_speed_right: 6\n"
        "sim:\n  vehicle_count: 8\n  seed: 4\n",
    )
    runs = []
    run = cli.run

    def capture(sim_config):
        runs.append(run(sim_config))
        return runs[-1]

    monkeypatch.setattr(cli, "run", capture)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert type(runs[0].config.geometry.mz_speed_left) is int
    expected = oracles.trajectory_csv_by_writer(oracles.sample_rows(runs[0].samples)).encode()
    assert (out / "trajectories.csv").read_bytes() == expected


def test_invalid_geometry_value_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "geometry:\n  min_safe_distance: -1\n")
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "min_safe_distance" in err


def test_unknown_config_key_is_reported_with_path(tmp_path, capsys):
    cfg = write_config(tmp_path, "geometry:\n  cz_lenght: 300\n")
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "geometry.cz_lenght" in capsys.readouterr().err


def test_resolved_config_names_every_field_and_reads_back_as_itself():
    # the geometry and sim sections take the dataclasses' own fields, and
    # the resolved block that the digest covers is a config giving the same run
    config = {
        "geometry": {"formula": {"side_friction": 0.2}, "mz_side": 36},
        "sim": {"arm_probabilities": [0.7, 0.1, 0.1, 0.1], "objective": "weighted",
                "weight": 0.5, "seed": 4},
    }
    sim_config, resolved = cli._build_sim_config(config, None)
    assert set(resolved["geometry"]) == {f.name for f in fields(IntersectionGeometry)}
    assert set(resolved["sim"]) == {f.name for f in fields(SimConfig)} - {"geometry"}
    assert resolved["sim"]["arm_probabilities"] == [0.7, 0.1, 0.1, 0.1]
    assert resolved["sim"]["objective"] == "weighted"
    assert json.loads(json.dumps(resolved)) == resolved
    again, resolved_again = cli._build_sim_config(resolved, None)
    assert (again, resolved_again) == (sim_config, resolved)


# the pareto and plan sections build no dataclass, so their keys are listed
PARETO_KEYS = ("turn", "grid", "grid_size", "w_min", "w_max", "jerk_scale")
PLAN_KEYS = ("arm", "turn", "t0", "v0", "tm", "objective", "weight", "jerk_scale", "sample_step")
SECTION_KEYS = (
    [f"geometry.{f.name}" for f in fields(IntersectionGeometry)] + ["geometry.formula"]
    + [f"sim.{f.name}" for f in fields(SimConfig) if f.name != "geometry"]
    + [f"pareto.{name}" for name in PARETO_KEYS] + [f"plan.{name}" for name in PLAN_KEYS]
)
# the command that reads each section
COMMANDS = {"geometry": "simulate", "sim": "simulate", "pareto": "pareto", "plan": "plan"}


def test_each_section_takes_exactly_its_keys():
    tables = {section: set(keys) for section, keys in cli._CONFIG.items()}
    assert tables == {
        "geometry": {f.name for f in fields(IntersectionGeometry)} | {"formula"},
        "sim": {f.name for f in fields(SimConfig)} - {"geometry"},
        "pareto": set(PARETO_KEYS),
        "plan": set(PLAN_KEYS),
    }


@pytest.mark.parametrize("key", SECTION_KEYS)
def test_every_config_field_is_read(tmp_path, capsys, key):
    # each key is a dataclass field or a listed key, so a key that nothing
    # reads would be accepted and dropped, and one missing from the key
    # table would be unknown; a string in its place must be refused by name
    section, name = key.split(".")
    cfg = write_config(tmp_path, f"{section}:\n  {name}: abc\n")
    out = tmp_path / "out"
    assert cli.main([COMMANDS[section], "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "unknown config key" not in err
    assert not out.exists()


# the keys whose null stands for their default; every other key refuses null
NULL_MEANS_DEFAULT = {
    "geometry.formula", "sim.entry_speed_range", "sim.arm_probabilities",
    "sim.turn_probabilities", "sim.weight", "pareto.grid", "plan.tm", "plan.weight",
}


def config_with(key, *value):
    """YAML text giving the dotted key its value, or leaving it out if none
    is given, in a four-vehicle run; a formula block gets the side_friction
    it needs."""
    config = {"sim": {"vehicle_count": 4}}
    *path, name = key.split(".")
    block = config
    for part in path:
        block = block.setdefault(part, {})
    if path == ["geometry", "formula"]:
        block["side_friction"] = 0.2
    if value:
        block[name] = value[0]
    return yaml.safe_dump(config)


def run_config(tmp_path, capsys, command, text, name):
    """The exit code, stdout, stderr and output files of one run."""
    out = tmp_path / name
    code = cli.main([command, "--config", write_config(tmp_path, text, f"{name}.yaml"),
                     "--out", str(out)])
    files = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else None
    return (code, *capsys.readouterr(), files)


@pytest.mark.parametrize(
    "key", SECTION_KEYS + ["geometry.formula.side_friction", "geometry.formula.superelevation"]
)
def test_null_is_the_default_only_where_stated(tmp_path, capsys, key):
    command = COMMANDS[key.split(".")[0]]
    null = run_config(tmp_path, capsys, command, config_with(key, None), "null")
    if key in NULL_MEANS_DEFAULT:
        assert null[0] in (0, 1)
        assert null == run_config(tmp_path, capsys, command, config_with(key), "absent")
    else:
        code, _, err, files = null
        assert code == 2 and key in err and files is None


def test_config_digest_ignores_key_order(tmp_path):
    text_a = "sim:\n  seed: 4\n  vehicle_count: 3\ngeometry:\n  mz_side: 30\n"
    text_b = "geometry:\n  mz_side: 30\nsim:\n  vehicle_count: 3\n  seed: 4\n"
    digests = []
    for i, text in enumerate((text_a, text_b)):
        cfg = write_config(tmp_path, text, name=f"c{i}.yaml")
        out = tmp_path / f"out{i}"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        digests.append(json.loads((out / "manifest.json").read_text())["config_digest"])
    assert digests[0] == digests[1]

    changed = write_config(tmp_path, text_a.replace("seed: 4", "seed: 5"), name="c2.yaml")
    out = tmp_path / "out2"
    assert cli.main(["simulate", "--config", changed, "--out", str(out)]) == 0
    digest = json.loads((out / "manifest.json").read_text())["config_digest"]
    assert digest != digests[0]


def test_formula_only_sets_the_turn_speeds(tmp_path):
    # the formula's run is the run of a config giving its two speeds outright
    curved = IntersectionGeometry().with_curve_speeds(0.2)
    explicit = (f"geometry:\n  mz_speed_left: {curved.mz_speed_left!r}\n"
                f"  mz_speed_right: {curved.mz_speed_right!r}\n")
    outs = []
    for name, text in (("formula", "geometry:\n  formula:\n    side_friction: 0.2\n"),
                       ("explicit", explicit)):
        out = tmp_path / name
        cfg = write_config(tmp_path, text, f"{name}.yaml")
        assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        outs.append(read_files(out, SIM_FILES))
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# pareto


def test_pareto_default_grid(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["pareto", "--out", str(out)]) == 0
    rows = read_csv(out / "pareto.csv")
    assert rows[0] == ["w", "fuel", "discomfort", "on_frontier"]
    assert len(rows) == 51
    fuels = [float(r[1]) for r in rows[1:]]
    discs = [float(r[2]) for r in rows[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(fuels, fuels[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(discs, discs[1:]))
    assert all(r[3] == "true" for r in rows[1:])


@pytest.mark.parametrize("turn, frontier_size", [("left", 50), ("straight", 1), ("right", 50)])
def test_pareto_turns_trade_fuel_against_comfort(tmp_path, turn, frontier_size):
    # a turn enters at its curve speed and leaves at the through speed, so
    # the objectives disagree; a straight crossing cruises at one speed
    cfg = write_config(tmp_path, f"pareto:\n  turn: {turn}\n")
    out = tmp_path / "out"
    assert cli.main(["pareto", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "pareto.csv")
    assert sum(r[3] == "true" for r in rows[1:]) == frontier_size
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["manifest.json", "pareto.csv"]


def test_pareto_rejects_degenerate_weight(tmp_path, capsys):
    cfg = write_config(tmp_path, "pareto:\n  grid: [0.0, 0.5]\n")
    code = cli.main(["pareto", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "0, 1" in capsys.readouterr().err.replace("(0,1)", "(0, 1)")


def test_pareto_single_weight(tmp_path):
    cfg = write_config(tmp_path, "pareto:\n  grid: [0.5]\n")
    out = tmp_path / "out"
    assert cli.main(["pareto", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "pareto.csv")
    assert len(rows) == 2
    assert rows[1][0] == "0.5"
    assert rows[1][3] == "true"


def swept_boundary(tmp_path, monkeypatch, text):
    """The merge boundary that crossflow pareto sweeps under config text."""
    swept = []
    sweep = cli.sweep

    def capture(boundary, *args, **kwargs):
        swept.append(boundary)
        return sweep(boundary, *args, **kwargs)

    monkeypatch.setattr(cli, "sweep", capture)
    cfg = write_config(tmp_path, text)
    assert cli.main(["pareto", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    (boundary,) = swept
    return boundary


@pytest.mark.parametrize("formula", [False, True])
@pytest.mark.parametrize("turn", list(Turn))
def test_pareto_sweeps_the_window_the_program_plans(tmp_path, monkeypatch, turn, formula):
    # a sweep is merge_boundary's for the turn: the vm, vf and window that
    # plan_crossing plans the same turn's merge over
    g = IntersectionGeometry()
    text = f"pareto:\n  turn: {turn.value}\n  grid: [0.5]\n"
    if formula:
        g = g.with_curve_speeds(0.2)
        text += "geometry:\n  formula:\n    side_friction: 0.2\n"
    boundary = swept_boundary(tmp_path, monkeypatch, text)
    assert boundary == merge_boundary(turn, 0.0, g.transit_time(turn), g)
    tm = 40.0
    spec = VehicleSpec(vehicle_id=1, t0=0.0, v0=10.0, movement=Movement(Arm.WEST, turn))
    _, mz, _ = plan_crossing(spec, tm, tm + g.transit_time(turn), g, MzVariant.JERK_ONLY)
    assert float(mz.speed(mz.t0)) == pytest.approx(boundary.vm, rel=1e-12)
    assert float(mz.speed(mz.t1)) == pytest.approx(boundary.vf, rel=1e-12)
    assert mz.t1 - mz.t0 == pytest.approx(boundary.duration, rel=1e-12)


def test_pareto_window_follows_the_geometry_speed(tmp_path, monkeypatch):
    # a curve speed stated in the geometry moves the swept window with it
    text = "geometry:\n  mz_speed_left: 4\npareto:\n  turn: left\n  grid: [0.5]\n"
    boundary = swept_boundary(tmp_path, monkeypatch, text)
    assert (boundary.vm, boundary.vf) == (4, 10)
    assert boundary.duration == 2.0 * S_LEFT / (4 + 10)


# ---------------------------------------------------------------------------
# plan


def test_plan_cruise_costs_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, "plan:\n  turn: straight\n  v0: 10\n  tm: 40\n")
    out = tmp_path / "out"
    code = cli.main(["plan", "--config", cfg, "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "approach effort: 0" in text
    fuel_line = next(l for l in text.splitlines() if l.startswith("merge fuel:"))
    assert float(fuel_line.split(":")[1]) < 1e-12
    assert "feasibility: ok" in text
    rows = read_csv(out / "plan.csv")
    assert rows[0] == ["t", "zone", "p", "v", "u", "j"]
    assert len(rows) == 432  # 431 samples over [0, 43] at 0.1 s
    assert all(r[3] == "10" for r in rows[1:])


def test_plan_left_turn_matches_library_solution(tmp_path, capsys):
    cfg = write_config(tmp_path, "plan:\n  turn: left\n  v0: 10\n  tm: 40\n")
    assert cli.main(["plan", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    text = capsys.readouterr().out
    coeff_line = next(l for l in text.splitlines() if l.startswith("merge coefficients"))
    printed = dict(part.split("=") for part in coeff_line.split(": ")[1].split())

    approach_line = next(l for l in text.splitlines() if l.startswith("approach coefficients"))
    cz_vals = dict(part.split("=") for part in approach_line.split(": ")[1].split())
    # reconstruct the same boundary the command solved: the left turn's
    # curve speed in, the through speed out, over the derived window
    g = IntersectionGeometry()
    cz = solve_cz(0.0, 10.0, 40.0, 8.0, 400.0)
    assert float(cz_vals["b"]) == pytest.approx(cz.coefficients[1], rel=1e-6)
    boundary = MzBoundary(tm=40.0, tf=40.0 + g.transit_time(Turn.LEFT), vm=8.0, vf=10.0,
                          p_start=400.0, p_end=400.0 + S_LEFT, u_start=float(cz.control(40.0)))
    assert f"tf={format(boundary.tf, '.9g')} vm=8 vf=10" in text
    expected = solve_mz_jerk(boundary)
    for name, value in zip("abcdef", expected.coefficients):
        assert float(printed[name]) == pytest.approx(value, rel=1e-6, abs=1e-9)


def test_plan_clamps_infeasible_merge_time(tmp_path, capsys):
    cfg = write_config(tmp_path, "plan:\n  turn: straight\n  v0: 10\n  tm: 20\n")
    out = tmp_path / "out"
    # the bound guarantees an admissible crossing exists, not that the
    # unconstrained minimum-effort profile stays under the speed cap, so
    # the recomputed plan still reports its violation honestly
    code = cli.main(["plan", "--config", cfg, "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "feasible minimum" in captured.err
    bound = 400.0 / 13.0 + 9.0 / 78.0
    assert f"tm={format(bound, '.9g')}" in captured.out
    assert "feasibility violation: speed_high" in captured.out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_digest"]  # outputs written despite the exit status


def test_plan_reports_infeasible_crawl(tmp_path, capsys):
    # forcing a 200 s crossing drives the cubic profile backwards
    cfg = write_config(tmp_path, "plan:\n  turn: straight\n  v0: 10\n  tm: 200\n")
    code = cli.main(["plan", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "feasibility violation" in capsys.readouterr().out


def test_plan_weighted_needs_weight(tmp_path, capsys):
    # refused by the merge planner's weight rule, which simulate shares
    cfg = write_config(tmp_path, "plan:\n  objective: weighted\n")
    code = cli.main(["plan", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: plan: weight None outside (0, 1)")
    assert not (tmp_path / "out").exists()


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["plan", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "nope.yaml" in capsys.readouterr().err


@pytest.mark.parametrize("t0", [0.0, 0.33])
@pytest.mark.parametrize("turn", ["left", "straight", "right"])
@pytest.mark.parametrize("objective", ["fuel_only", "jerk_only", "weighted"])
def test_plan_csv_matches_per_sample_oracle(tmp_path, objective, turn, t0):
    # tm and tf sit on the grid at t0 = 0 (the row at tm is a merge row);
    # at t0 = 0.33 the last sample time is clipped to tf
    text = f"plan:\n  turn: {turn}\n  t0: {t0}\n  v0: 11\n  tm: 40\n  objective: {objective}\n"
    weight = 0.3 if objective == "weighted" else None
    if weight is not None:
        text += f"  weight: {weight}\n"
    out = tmp_path / "out"
    cli.main(["plan", "--config", write_config(tmp_path, text), "--out", str(out)])
    g = IntersectionGeometry()
    vm = g.mz_speed(Turn(turn))
    cz = solve_cz(t0, 11.0, 40.0, vm, g.cz_length)
    boundary = MzBoundary(tm=40.0, tf=40.0 + g.transit_time(Turn(turn)), vm=vm,
                          vf=g.mz_speed_straight,
                          p_start=g.cz_length, p_end=g.cz_length + g.path_length(Turn(turn)),
                          u_start=float(cz.control(40.0)))
    mz = solve_mz(boundary, MzVariant(objective), weight, g.u_max)
    expected = oracles.plan_rows_by_scalar(cz, mz, t0, 40.0, boundary.tf, 0.1)
    rows = read_csv(out / "plan.csv")
    assert rows[1:] == expected
    assert rows[-1][0] == format(boundary.tf, ".9g") and rows[-1][1] == "mz"


@pytest.mark.parametrize("t0", [0.0, 0.33])
@pytest.mark.parametrize("step", [0.1, 0.37])
@pytest.mark.parametrize(
    "objective, weight",
    [("fuel_only", None), ("jerk_only", None), ("weighted", 0.01), ("weighted", 0.5)],
)
def test_plan_csv_is_csv_writer_lines_of_the_scalar_oracle(
    tmp_path, monkeypatch, objective, weight, step, t0
):
    # slices of 7 rows end inside each zone; weights 0.01 and 0.5 plan the
    # merge in the series and the boundary-layer basis
    monkeypatch.setattr(cli, "_TRAJECTORY_ROWS", 7)
    text = (f"plan:\n  turn: left\n  t0: {t0}\n  v0: 11\n  tm: 40\n"
            f"  objective: {objective}\n  sample_step: {step}\n")
    if weight is not None:
        text += f"  weight: {weight}\n"
    out = tmp_path / "out"
    assert cli.main(["plan", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    g = IntersectionGeometry()
    tf = 40.0 + g.transit_time(Turn.LEFT)
    spec = VehicleSpec(vehicle_id=1, t0=t0, v0=11.0, movement=Movement(Arm.WEST, Turn.LEFT))
    cz, mz, _ = plan_crossing(spec, 40.0, tf, g, MzVariant(objective), weight)
    expected = oracles.plan_csv_by_writer(cz, mz, t0, 40.0, tf, step)
    assert (out / "plan.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("turn", list(Turn))
def test_plan_row_at_the_merge_exit_is_the_merge_zones_own(tmp_path, turn):
    # plan.csv ends at exactly tf with the merge trajectory's own values, not
    # the exit lane's cruise: here each jerk-only merge ends with nonzero jerk
    text = f"plan:\n  turn: {turn.value}\n  v0: 11\n  tm: 40\n"
    out = tmp_path / "out"
    assert cli.main(["plan", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    g = IntersectionGeometry()
    tf = 40.0 + g.transit_time(turn)
    spec = VehicleSpec(vehicle_id=1, t0=0.0, v0=11.0, movement=Movement(Arm.WEST, turn))
    _, mz, _ = plan_crossing(spec, 40.0, tf, g, MzVariant.JERK_ONLY)
    last = read_csv(out / "plan.csv")[-1]
    assert last[:2] == [format(tf, ".9g"), "mz"]
    assert last[2:] == [format(float(mz.derivative(tf, order)), ".9g") for order in range(4)]
    assert float(last[5]) != 0.0


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("plan", "plan:\n  t0: abc\n", "plan.t0"),
        ("plan", 'plan:\n  objective: weighted\n  weight: "0.5"\n', "plan.weight"),
        ("pareto", "pareto:\n  grid_size: many\n", "pareto.grid_size"),
        ("pareto", "pareto:\n  grid_size: 2.5\n", "pareto.grid_size"),
        ("plan", "plan:\n  objective: fuel_only\n  weight: abc\n", "plan.weight"),
        ("plan", "plan:\n  objective: jerk_only\n  weight: abc\n", "plan.weight"),
        ("simulate", "sim:\n  objective: jerk_only\n  weight: abc\n", "weight"),
        ("pareto", "pareto:\n  grid: 0.5\n", "pareto.grid"),
        ("simulate", "sim:\n  seed: seven\n", "seed"),
        ("simulate", "sim:\n  vehicle_count: 2.5\n", "vehicle_count"),
        ("simulate", "sim:\n  entry_speed_range: [ten, 12]\n", "sim.entry_speed_range"),
        ("simulate", "sim:\n  entry_speed_range: [10]\n",
         "sim.entry_speed_range must be a list of 2 numbers"),
        ("plan", "plan:\n  sample_step: 0\n", "plan.sample_step must be positive"),
        ("plan", "geometry:\n  mz_side: [40]\n", "geometry.mz_side"),
        # non-finite numbers, which bound checks written as comparisons let through
        ("simulate", "sim:\n  sample_step: .nan\n", "sample_step"),
        ("plan", "plan:\n  tm: .nan\n", "plan.tm"),
        ("plan", "geometry:\n  cz_length: .nan\n", "cz_length"),
        ("plan", "plan:\n  objective: weighted\n  weight: 0.5\n  jerk_scale: .nan\n",
         "plan.jerk_scale"),
        ("simulate", "sim:\n  arrival_rate: .nan\n", "arrival_rate"),
        ("simulate", "sim:\n  objective: weighted\n  weight: 0.5\n  jerk_scale: .nan\n",
         "jerk_scale"),
        ("pareto", "pareto:\n  w_min: .nan\n", "pareto.w_min"),
        ("plan", "plan:\n  sample_step: .inf\n", "plan.sample_step"),
        # strings and lists where a number belongs, in the sim and geometry sections
        ("simulate", "sim:\n  arrival_rate: abc\n", "sim.arrival_rate"),
        ("simulate", "geometry:\n  v_max: abc\n", "geometry.v_max"),
        ("simulate", "sim:\n  jerk_scale: [1]\n", "sim.jerk_scale"),
        ("simulate", "geometry:\n  formula:\n    side_friction: abc\n",
         "geometry.formula.side_friction"),
        # quoted numbers and booleans, which float() would have taken
        ("plan", 'plan:\n  t0: "3"\n', "plan.t0"),
        ("plan", "plan:\n  tm: true\n", "plan.tm"),
        ("pareto", 'pareto:\n  jerk_scale: "8"\n', "pareto.jerk_scale"),
        ("pareto", 'pareto:\n  grid: ["0.5"]\n', "pareto.grid"),
        ("simulate", 'sim:\n  entry_speed_range: ["10", 12]\n', "sim.entry_speed_range"),
        ("plan", 'geometry:\n  mz_speed_left: "8"\n', "geometry.mz_speed_left"),
        ("simulate", 'geometry:\n  formula:\n    superelevation: "2"\n    side_friction: 0.2\n',
         "geometry.formula.superelevation"),
        # curve speeds set twice, or not derivable, refused before the run starts
        ("simulate", "geometry:\n  mz_speed_left: 7\n  formula:\n    side_friction: 0.2\n",
         "geometry.mz_speed_left"),
        ("plan", "geometry:\n  mz_speed_right: 5\n  formula:\n    side_friction: 0.2\n",
         "geometry.mz_speed_right"),
        ("simulate", "geometry:\n  formula:\n    superelevation: 2\n",
         "geometry.formula.side_friction"),
        ("simulate", "geometry:\n  formula:\n    side_friction: -0.2\n", "side_friction"),
        ("simulate", "geometry:\n  formula:\n    radius: 75\n    side_friction: 0.2\n",
         "geometry.formula.radius"),
        ("pareto", "geometry:\n  formula:\n    side_friction: 5\n", "mz_speed_left"),
        # a weight that the objective would ignore
        ("simulate", "sim:\n  objective: jerk_only\n  weight: 7\n",
         "weight 7 given, but the jerk_only objective ignores it"),
        ("simulate", "sim:\n  objective: fuel_only\n  weight: 0.5\n",
         "weight 0.5 given, but the fuel_only objective ignores it"),
        ("plan", "plan:\n  tm: 40\n  objective: jerk_only\n  weight: 7\n",
         "weight 7 given, but the jerk_only objective ignores it"),
        ("plan", "plan:\n  tm: 40\n  weight: 0.5\n",
         "weight 0.5 given, but the jerk_only objective ignores it"),
        # weights so close to 1 that the merge solution's exponent passes its cap
        ("simulate", "sim:\n  objective: weighted\n  weight: 0.99999\n", "weight 0.99999"),
        ("plan", "plan:\n  objective: weighted\n  weight: 0.99999\n", "weight 0.99999"),
        # a weight outside (0, 1), refused by the same rule as simulate's
        ("plan", "plan:\n  objective: weighted\n  weight: 1.5\n", "weight 1.5 outside (0, 1)"),
        ("simulate", "sim:\n  objective: weighted\n  weight: 1.5\n", "weight 1.5 outside (0, 1)"),
        # an 8.12 s left-turn window: 2 * (3 pi 62 / 8) m / (8 + 10) m/s
        ("pareto", "geometry:\n  mz_side: 62\npareto:\n  turn: left\n", "w=0.998"),
        # an empty weight grid has no tradeoff to sweep, like grid_size 0
        ("pareto", "pareto:\n  grid: []\n", "at least one weight"),
        # per-arm demand is arrival_rate with arm_probabilities, and a sweep's
        # window starts at 0, where its costs are those of any other start
        ("simulate", "sim:\n  arm_rates: [2.0, 0.1, 0.1, 0.1]\n", "sim.arm_rates"),
        ("pareto", "pareto:\n  entry_time: 5\n", "pareto.entry_time"),
        # the merge square fixes every path, and a sweep's speeds are the
        # geometry's, which set its window too
        ("simulate", "geometry:\n  left_path_length: 40\n", "geometry.left_path_length"),
        ("plan", "geometry:\n  right_path_length: 13\n", "geometry.right_path_length"),
        ("pareto", "pareto:\n  mz_entry_speed: 4\n", "pareto.mz_entry_speed"),
        ("pareto", "pareto:\n  mz_exit_speed: 4\n", "pareto.mz_exit_speed"),
        # values whose use would overflow a 64-bit array, refused before any
        # is allocated, and an integer past the float range
        ("simulate", "sim:\n  sample_step: 100000000000000000000000000000\n",
         "sim: sample_step must be at most"),
        ("simulate", "sim:\n  vehicle_count: 100000000000000000000000000000\n",
         "sim: vehicle_count must be at most"),
        ("simulate", "sim:\n  arrival_rate: 1" + "0" * 400 + "\n", "sim.arrival_rate"),
        # a step finer than the entry gate's resolution, whose grid would not
        # fit in memory, refused before any is allocated
        ("simulate", "sim:\n  sample_step: 1.0e-12\n", "sim: sample_step must be at least 1e-06"),
        ("simulate", "sim:\n  sample_step: 1.0e-300\n", "sim: sample_step must be at least 1e-06"),
        ("plan", "plan:\n  sample_step: 1.0e-12\n", "plan.sample_step must be at least 1e-06"),
        ("plan", "plan:\n  sample_step: 1.0e-300\n", "plan.sample_step must be at least 1e-06"),
        # a step at the floor whose table would pass sim.MAX_SAMPLE_ROWS, 2**25
        # rows: about 4e7 rows a vehicle, refused before any is allocated
        ("simulate", "sim:\n  sample_step: 1.0e-6\n  vehicle_count: 2\n",
         "sim.sample_step 1e-06 gives 68074355 sample rows, more than the 33554432"),
        ("plan", "plan:\n  tm: 100\n  sample_step: 1.0e-6\n",
         "plan.sample_step 1e-06 gives 103000001 sample rows, more than the 33554432"),
        # a run whose last arrival cannot reach the merge zone before
        # sim.MAX_TIME = 2**32 s, where a merge window's end would round onto
        # its start; the first at exactly 2**32 s past the last arrival
        ("simulate", "geometry:\n  cz_length: 55834574848.0\nsim:\n  vehicle_count: 5\n",
         "geometry.cz_length put the last merge-zone arrival at 4.29497e+09 s or later"),
        # a merge path below half a float step of cz_length, which ends where
        # it starts: every path at 1e29 m, and the right turn's 0.39 um at
        # 1e10 m, in every command
        ("simulate", "geometry:\n  cz_length: 100000000000000000000000000000\n"
         "sim:\n  vehicle_count: 5\n",
         "geometry: mz_side 30 gives the left turn a 35.3429 m path, which vanishes against "
         "cz_length 1e+29"),
        *((command, "geometry:\n  cz_length: 1.0e+10\n  mz_side: 1.0e-6\n  mz_speed_left: 0.1\n"
           "  mz_speed_straight: 0.1\n  mz_speed_right: 0.1\n" + section,
           "geometry: mz_side 1e-06 gives the right turn a 3.92699e-07 m path, which vanishes "
           "against cz_length 1e+10")
          for command, section in (
              ("simulate", "sim:\n  vehicle_count: 3\n  sample_step: 1.0e+6\n"),
              ("plan", "plan:\n  turn: right\n"), ("pareto", "pareto:\n  turn: right\n"))),
        ("simulate", "sim:\n  arrival_rate: 1.0e-30\n  vehicle_count: 5\n",
         "sim: sim.arrival_rate, sim.vehicle_count and geometry.cz_length put the last "
         "merge-zone arrival at 2.27195e+30 s or later, not below 4.29497e+09 s"),
        # YAML reads an exponent without a dot and a sign as a string, so the
        # refusal names the spelling it reads as a number; quoted, it is a string
        ("pareto", "pareto:\n  w_min: 1e-3\n",
         "pareto.w_min has a malformed value: '1e-3' (write a number unquoted, "
         "and an exponent with a dot and a sign: 1.0e-3, not 1e-3)"),
        ("simulate", "sim:\n  sample_step: 1e6\n", "1.0e-3, not 1e-3"),
        ("pareto", 'pareto:\n  w_min: "1.0e-3"\n', "pareto.w_min has a malformed value"),
        # a merge window shorter than the gate's resolution, which vanishes in
        # rounding at some time before sim.MAX_TIME, in every command
        *((command, "geometry:\n  mz_side: 1.0e-300\nsim:\n  vehicle_count: 3\n",
           "geometry: mz_side 1e-300 and the merge speeds give the left turn a merge "
           "window of 1.309e-301 s, shorter than 1e-06 s")
          for command in ("simulate", "plan", "pareto")),
        ("simulate", "geometry:\n  mz_side: 1.0e-12\nsim:\n  vehicle_count: 200\n"
         "  arrival_rate: 0.1\n", "geometry: mz_side 1e-12"),
        # a merge speed whose same-entry clearance, min_safe_distance / speed,
        # is about 1e301 s
        ("simulate", "geometry:\n  mz_speed_left: 1.0e-300\n",
         "geometry: mz_speed_left 1e-300 lets one queue step take 1e+301 s"),
        ("simulate", "geometry:\n  mz_speed_right: 1.0e-300\n", "geometry: mz_speed_right"),
        # a queue of same-lane left turns 1e9 s apart, whose exits would pass
        # the gate's resolution near 2 * sim.MAX_TIME
        ("simulate", "geometry:\n  mz_speed_left: 1.0e-8\nsim:\n  vehicle_count: 12\n"
         "  turn_probabilities: [1.0, 0.0, 0.0]\n  arm_probabilities: [1.0, 0.0, 0.0, 0.0]\n"
         "  sample_step: 1.0e+6\n",
         "sim: sim.vehicle_count and the queue put vehicle 9's merge-zone exit at 8e+09 s"),
        # a scale whose square underflows, so a weighted objective's factor
        # 1 / scale^2 does not exist
        ("pareto", "pareto:\n  jerk_scale: 1.0e-300\n", "pareto: jerk_scale 1e-300"),
        ("plan", "plan:\n  objective: weighted\n  weight: 0.5\n  jerk_scale: 1.0e-300\n",
         "plan: jerk_scale 1e-300"),
        ("simulate", "sim:\n  objective: weighted\n  weight: 0.5\n  jerk_scale: 1.0e-300\n",
         "sim: jerk_scale 1e-300"),
        ("pareto", "geometry:\n  u_max: 1.0e-300\n", "pareto: u_max 1e-300"),
        ("simulate", "geometry:\n  u_max: 1.0e-300\nsim:\n  objective: weighted\n"
         "  weight: 0.5\n", "sim: u_max 1e-300"),
    ],
)
def test_malformed_numeric_value_is_a_usage_error(tmp_path, capsys, command, text, key):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    code = cli.main([command, "--config", cfg, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        # the last arrival, at 2.27 s, 100 s short of sim.MAX_TIME = 2**32 s
        # at v_max = 13 m/s, and an arrival rate whose last arrival is at
        # 2.27e9 s; a step of 1e6 s keeps the state table small
        "geometry:\n  cz_length: 55834573548.0\nsim:\n  vehicle_count: 5\n"
        "  sample_step: 1.0e+6\n",
        "sim:\n  arrival_rate: 1.0e-9\n  vehicle_count: 5\n  sample_step: 1.0e+6\n",
    ],
)
def test_simulate_just_inside_the_time_limit_runs_clean(tmp_path, text):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    assert len(read_csv(out / "schedule.csv")) == 6


def test_simulate_at_a_tiny_acceleration_bound_runs_clean(tmp_path):
    # no vehicle reaches v_max, and the earliest arrival keeps its digits,
    # so no gated entry probes a merge time before its own entry
    text = "geometry:\n  u_max: 1.0e-300\n  u_min: -1.0e-300\nsim:\n  vehicle_count: 30\n"
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    assert json.loads((out / "audit.json").read_text())["ok"] is True


def test_an_exponent_with_a_dot_and_a_sign_reads_as_a_number(tmp_path):
    cfg = write_config(tmp_path, "pareto:\n  grid_size: 3\n  w_min: 1.0e-3\n  w_max: 9.0e-1\n")
    out = tmp_path / "out"
    assert cli.main(["pareto", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "pareto.csv")[1:]
    assert [float(row[0]) for row in (rows[0], rows[-1])] == [1.0e-3, 0.9]
