"""Scenario file parsing and validation.

The format is a flat, sectioned key-value text file with units encoded in
the key names (duration_s, l_f_m, ...).  The `segment` key in [track] is
repeatable and ordered.  Parsing and schema validation are separate
stages so overrides can be applied in between.
"""

from __future__ import annotations

from . import sim
from .control import PlannerParams
from .errors import ScenarioFormatError, ScenarioValidationError
from .refline import ReferenceLine
from .sim import Scenario
from .vehicle import VehicleGeometry, VehicleState

_TRACK_KEYS = ("start_x_m", "start_y_m", "start_heading_rad", "segment")


def _required(table: dict, *classes) -> list[str]:
    """The keys of one of sim's key tables whose field has no default in
    the constructors of `classes`: NamedTuples, or classes whose __init__
    takes the fields as positional-or-keyword parameters."""
    required = set()
    for cls in classes:
        if issubclass(cls, tuple):
            names, defaults = cls._fields, cls._field_defaults
        else:
            code = cls.__init__.__code__
            names = code.co_varnames[1:code.co_argcount]
            defaults = cls.__init__.__defaults__ or ()
        required.update(names[:len(names) - len(defaults)])
    return [key for key, name in table.items() if name in required]


# section -> (accepted keys, required keys).  The [vehicle], [planner] and
# [sim] keys are sim's override keys; [sim] holds the initial state's too.
_SECTIONS = {
    "track": (_TRACK_KEYS, _TRACK_KEYS),
    "vehicle": (
        tuple(sim._VEHICLE_KEYS), _required(sim._VEHICLE_KEYS, VehicleGeometry)
    ),
    "planner": (
        tuple(sim._PLANNER_KEYS), _required(sim._PLANNER_KEYS, PlannerParams)
    ),
    "sim": (
        tuple(sim._SIM_KEYS), _required(sim._SIM_KEYS, Scenario, VehicleState)
    ),
    "output": (("emit_svg",), ()),
}


def parse_file(path: str) -> dict:
    """Read a scenario file into {section: {key: value-or-list}}.

    Only syntax is checked here; the schema is enforced by validate().
    """
    sections: dict[str, dict] = {}
    current = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if not name:
                    raise ScenarioFormatError(f"{path}:{lineno}: empty section name")
                if name in sections:
                    raise ScenarioFormatError(
                        f"{path}:{lineno}: duplicate section [{name}]"
                    )
                sections[name] = {}
                current = name
                continue
            if "=" not in line:
                raise ScenarioFormatError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            if current is None:
                raise ScenarioFormatError(
                    f"{path}:{lineno}: key outside any [section]"
                )
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ScenarioFormatError(
                    f"{path}:{lineno}: empty key or value"
                )
            bucket = sections[current]
            if key == "segment":
                bucket.setdefault(key, []).append(value)
            elif key in bucket:
                raise ScenarioFormatError(
                    f"{path}:{lineno}: duplicate key {key!r} in [{current}]"
                )
            else:
                bucket[key] = value
    return sections


def apply_overrides(sections: dict, overrides: list[str]) -> dict:
    """Apply 'section.key=value' strings to the raw parse tree."""
    out = {sec: dict(keys) for sec, keys in sections.items()}
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ScenarioFormatError(
                f"override {item!r} is not of the form section.key=value"
            )
        dotted, _, value = item.partition("=")
        section, _, key = dotted.strip().partition(".")
        value = value.strip()
        if not section or not key or not value:
            raise ScenarioFormatError(f"override {item!r} has empty parts")
        # a segment replaces the file's chain, a list as parse_file builds it
        out.setdefault(section, {})[key] = [value] if key == "segment" else value
    return out


def _convert(section: str, key: str, value: str):
    """Parse one value's text: [output] keys are booleans, every other
    value is a number.  Ranges are the constructors' to check."""
    try:
        if section != "output":
            return float(value)
        low = value.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ValueError("must be a boolean")
    except ValueError as exc:
        raise ScenarioValidationError(
            f"[{section}] {key} = {value!r}: {exc}"
        ) from None


def _parse_segment(text: str):
    parts = text.split()
    if parts and parts[0] == "line" and len(parts) == 2:
        return ("line", float(parts[1]))
    if parts and parts[0] == "arc" and len(parts) == 3:
        return ("arc", float(parts[1]), float(parts[2]))
    raise ScenarioValidationError(
        f"segment {text!r}: expected 'line <length_m>' or "
        "'arc <length_m> <curvature_per_m>'"
    )


def validate(sections: dict) -> tuple[Scenario, bool]:
    """Enforce the schema and build the Scenario, returned with the [output]
    emit_svg flag. Unknown keys are errors."""
    for section in sections:
        if section not in _SECTIONS:
            raise ScenarioValidationError(f"unknown section [{section}]")
    for section, (keys, required) in _SECTIONS.items():
        if section == "output" and section not in sections:
            continue
        if section not in sections:
            raise ScenarioValidationError(f"missing section [{section}]")
        present = sections[section]
        for key in present:
            if key not in keys:
                raise ScenarioValidationError(
                    f"unknown key {key!r} in [{section}]"
                )
        for key in required:
            if key not in present:
                raise ScenarioValidationError(
                    f"missing required key {key!r} in [{section}]"
                )

    values = {
        section: {
            key: list(raw) if key == "segment" else _convert(section, key, raw)
            for key, raw in present.items()
        }
        for section, present in sections.items()
    }

    trk = values["track"]
    try:
        pieces = [_parse_segment(s) for s in trk["segment"]]
        track = ReferenceLine.from_pieces(
            trk["start_x_m"], trk["start_y_m"], trk["start_heading_rad"], pieces
        )
    except ValueError as exc:
        raise ScenarioValidationError(f"[track]: {exc}") from None

    try:
        geometry = VehicleGeometry(**sim.field_values("vehicle", values["vehicle"]))
    except ValueError as exc:
        raise ScenarioValidationError(f"[vehicle]: {exc}") from None

    try:
        params = PlannerParams(**sim.field_values("planner", values["planner"]))
    except ValueError as exc:
        raise ScenarioValidationError(f"[planner]: {exc}") from None

    try:
        kwargs = sim.field_values("sim", values["sim"])
        initial = VehicleState(**{
            name: kwargs.pop(name) for name in VehicleState._fields if name in kwargs
        })
        scenario = Scenario(
            track=track,
            geometry=geometry,
            params=params,
            initial_state=initial,
            **kwargs,
        )
    except ValueError as exc:
        raise ScenarioValidationError(f"[sim]: {exc}") from None

    return scenario, values.get("output", {}).get("emit_svg", False)


def load(path: str, overrides: list[str] | None = None) -> tuple[Scenario, bool]:
    """The scenario of a file, with overrides applied, and whether its run
    draws an SVG ([output] emit_svg, false by default)."""
    sections = parse_file(path)
    if overrides:
        sections = apply_overrides(sections, overrides)
    return validate(sections)
