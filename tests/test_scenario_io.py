import copy
import math
import os
import pickle
import re

import pytest

from lanesteer import cli, scenario_io, sim
from lanesteer.errors import ScenarioFormatError, ScenarioValidationError
from lanesteer.control import PlannerParams
from lanesteer.vehicle import VehicleGeometry, VehicleState

LANE_CHANGE = os.path.join(cli.SCENARIOS_DIR, "lane_change_k10.scenario")

MINIMAL = """\
[track]
start_x_m = 0.0
start_y_m = 0.0
start_heading_rad = 0.0
segment = line 200.0

[vehicle]
l_f_m = 1.4
l_r_m = 1.6

[planner]
k_per_m = 0.5
lambda_s2 = 1.0

[sim]
duration_s = 5.0
initial_x_m = 1.0
initial_y_m = 2.0
initial_psi_rad = 0.1
"""


class TestValidate:
    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "minimal.scenario"
        path.write_text(MINIMAL)
        scenario, emit_svg = scenario_io.load(str(path))
        assert scenario.geometry == VehicleGeometry(l_f=1.4, l_r=1.6)
        assert scenario.params == PlannerParams(k=0.5, lam=1.0)
        assert scenario.initial_state == VehicleState(1.0, 2.0, 0.1, 0.0)
        for name, default in sim.Scenario._field_defaults.items():
            assert getattr(scenario, name) == default, name
        # no [output] section
        assert emit_svg is False

    @pytest.mark.parametrize("section, key", [
        ("vehicle", "l_f_m"), ("vehicle", "l_r_m"),
        ("planner", "k_per_m"), ("planner", "lambda_s2"),
        ("sim", "duration_s"), ("sim", "initial_x_m"), ("sim", "initial_y_m"),
        ("sim", "initial_psi_rad"),
    ])
    def test_every_key_of_the_minimal_file_is_required(self, tmp_path, section, key):
        # the minimal file loads, so these keys are exactly the required ones
        # of their sections
        path = tmp_path / "minimal.scenario"
        path.write_text(re.sub(rf"^{key} = .*\n", "", MINIMAL, count=1, flags=re.M))
        with pytest.raises(ScenarioValidationError,
                           match=rf"missing required key '{key}' in \[{section}\]"):
            scenario_io.load(str(path))

    def test_every_optional_key_reaches_its_field(self):
        scenario, emit_svg = scenario_io.load(LANE_CHANGE, [
            "vehicle.delta_max_rad=0.5",
            "vehicle.u_max_rad_per_s=0.7",
            "planner.alpha=0.25",
            "planner.delta_d0_m=2.0",
            "planner.v_s_m_per_s=2.0",
            "sim.h_s=0.002",
            "sim.control_divisor=5",
            "sim.abort_time_s=3.0",
            "sim.lane_change_offset_m=3.0",
            "sim.initial_delta_rad=0.05",
            "output.emit_svg=false",
        ])
        g, p = scenario.geometry, scenario.params
        assert (g.delta_max, g.u_max) == (0.5, 0.7)
        assert (p.alpha, p.delta_d0, p.gamma) == (0.25, 2.0, 0.25 * p.k * 2.0)
        assert p.v_s == 2.0
        assert (scenario.h, scenario.control_divisor) == (0.002, 5)
        assert (scenario.abort_time, scenario.lane_change_offset) == (3.0, 3.0)
        assert scenario.initial_state.delta == 0.05
        assert emit_svg is False

    @pytest.mark.parametrize("stem", [
        "lane_change_k05", "lane_change_k10", "lane_change_k15",
    ])
    def test_bundled_lane_changes_emit_svg(self, stem):
        _, emit_svg = scenario_io.load(
            os.path.join(cli.SCENARIOS_DIR, f"{stem}.scenario")
        )
        assert emit_svg is True


OVERRIDE_KEYS = [
    f"{section}.{key}"
    for section, table in (
        ("planner", sim._PLANNER_KEYS),
        ("vehicle", sim._VEHICLE_KEYS),
        ("sim", sim._SIM_KEYS),
    )
    for key in table
] + ["track.start_x_m", "track.start_y_m", "track.start_heading_rad"]
# the safety limits and the lane width are feasibility inputs, not scenario
# values (the control law never reads them), and lambda0 follows from k,
# lambda and v_s: both entry points reject them
REMOVED_KEYS = [
    "planner.c1_rad", "planner.c2_rad_per_s", "planner.c3_m", "planner.lane_width_m",
    "planner.lambda0",
]
SCENARIO_FIELDS = [
    "track", "geometry", "params", "h", "duration", "control_divisor", "abort_time",
    "lane_change_offset", "initial_state",
]


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5, 2.0, 2.5, 3.0]
)
@pytest.mark.parametrize("key", OVERRIDE_KEYS + REMOVED_KEYS)
def test_set_and_override_accept_the_same_values(key, value):
    """--set (through the scenario file's parser) and sweep's apply_override
    reject exactly the same keys and values, the [track] start pose's too,
    and otherwise build the same scenario.  apply_override knows every key of sim's tables: a KeyError
    for one of them would fail the test."""
    base, _ = scenario_io.load(LANE_CHANGE)
    if key in REMOVED_KEYS:
        with pytest.raises(KeyError):
            sim.apply_override(base, key, value)
        with pytest.raises(ScenarioValidationError, match="unknown key"):
            scenario_io.load(LANE_CHANGE, [f"{key}={value!r}"])
        return
    try:
        overridden = sim.apply_override(base, key, value)
    except ValueError:
        overridden = None
    if overridden is None:
        with pytest.raises(ScenarioValidationError):
            scenario_io.load(LANE_CHANGE, [f"{key}={value!r}"])
        return
    loaded, _ = scenario_io.load(LANE_CHANGE, [f"{key}={value!r}"])
    for name in SCENARIO_FIELDS:
        assert getattr(loaded, name) == getattr(overridden, name), name


# keys of any sign, but finite
FLOAT_KEYS = [
    "track.start_x_m",
    "track.start_y_m",
    "track.start_heading_rad",
    "sim.initial_x_m",
    "sim.initial_y_m",
    "sim.initial_psi_rad",
    "sim.initial_delta_rad",
    "sim.lane_change_offset_m",
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_key_rejected(key, value):
    with pytest.raises(ScenarioValidationError, match="must be finite"):
        scenario_io.load(LANE_CHANGE, [f"{key}={value}"])


@pytest.mark.parametrize("line", [
    "segment = line nan",
    "segment = line inf",
    "segment = arc 10 nan",
    "segment = arc nan 0.01",
    "segment = arc inf 0.01",
    "segment = arc 10 inf",
    "segment = arc 10 1e-320",  # subnormal curvature: the radius overflows
    "segment = arc 200 1e-9",  # radius 1e9 m: projection loses its precision
    "start_heading_rad = inf",
])
def test_non_finite_track_number_rejected(tmp_path, line):
    key = line.partition(" = ")[0]
    path = tmp_path / "track.scenario"
    path.write_text(re.sub(rf"^{key} = .*$", line, MINIMAL, count=1, flags=re.M))
    with pytest.raises(ScenarioValidationError, match="finite"):
        scenario_io.load(str(path))


def test_output_directory_is_not_a_key():
    # the output directory is the command line's --out
    with pytest.raises(ScenarioValidationError, match="unknown key"):
        scenario_io.load(LANE_CHANGE, ["output.directory=x"])


def test_required_keys():
    # derived from the constructors' defaults; a file must give these
    assert {section: list(required) for section, (_, required)
            in scenario_io._SECTIONS.items()} == {
        "track": ["start_x_m", "start_y_m", "start_heading_rad", "segment"],
        "vehicle": ["l_f_m", "l_r_m"],
        "planner": ["k_per_m", "lambda_s2"],
        "sim": ["duration_s", "initial_x_m", "initial_y_m", "initial_psi_rad"],
        "output": [],
    }


def test_set_segment_replaces_the_track():
    scenario, _ = scenario_io.load(LANE_CHANGE, ["track.segment=line 100"])
    assert scenario.track == sim.Track(0.0, 0.0, 0.0, (("line", 100.0),))


def test_set_segments_build_the_track_in_order(tmp_path):
    # as a file's segment lines do: the two items equal a file with them
    items = ["track.segment=line 20", "track.segment=arc 30 0.01"]
    scenario, _ = scenario_io.load(LANE_CHANGE, items)
    assert scenario.track == sim.Track(
        0.0, 0.0, 0.0, (("line", 20.0), ("arc", 30.0, 0.01)))
    with open(LANE_CHANGE, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count("segment = ") == 1
    path = tmp_path / "two.scenario"
    path.write_text(text.replace("segment = line 200.0",
                                 "segment = line 20\nsegment = arc 30 0.01"),
                    encoding="utf-8")
    assert scenario_io.load(str(path)) == (scenario, True)


@pytest.mark.parametrize("items, key, section", [
    (["planner.k_per_m=0.5", "planner.k_per_m=1.5"], "k_per_m", "planner"),
    (["sim.h_s=0.001", "planner.alpha=0.1", "sim.h_s=0.001"], "h_s", "sim"),
    (["output.emit_svg=true", "output.emit_svg=false"], "emit_svg", "output"),
])
def test_repeated_set_key_is_a_format_error(items, key, section):
    # a file's repeated key is one too; the last item is the repeat
    with pytest.raises(ScenarioFormatError) as exc:
        scenario_io.load(LANE_CHANGE, items)
    assert str(exc.value) == (
        f"override {items[-1]!r}: duplicate key {key!r} in [{section}]")


class TestEquality:
    """Scenarios compare and hash by value, their track by its start pose
    and pieces."""

    def test_two_loads_are_equal(self):
        a, _ = scenario_io.load(LANE_CHANGE)
        b, _ = scenario_io.load(LANE_CHANGE)
        assert a.track is not b.track
        assert a == b and hash(a) == hash(b)

    def test_copies_are_equal(self):
        scenario, _ = scenario_io.load(LANE_CHANGE)
        assert pickle.loads(pickle.dumps(scenario)) == scenario
        assert copy.copy(scenario) == scenario

    def test_another_track_is_unequal(self):
        a, _ = scenario_io.load(LANE_CHANGE)
        b, _ = scenario_io.load(LANE_CHANGE, ["track.start_heading_rad=0.1"])
        assert a != b


def test_far_offset_of_a_three_piece_track_validates(tmp_path):
    # a junction re-check once rejected the -1e8 m offset line on rounding
    text = MINIMAL.replace("start_heading_rad = 0.0", "start_heading_rad = 0.3")
    text = text.replace(
        "segment = line 200.0",
        "segment = line 10\nsegment = arc 20 0.01\nsegment = line 300",
    )
    path = tmp_path / "three.scenario"
    path.write_text(text)
    scenario, _ = scenario_io.load(str(path), ["sim.lane_change_offset_m=-1e8"])
    assert len(scenario.track.pieces) == 3
    assert scenario.lane_change_offset == -1e8
