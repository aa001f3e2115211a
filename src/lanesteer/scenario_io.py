"""Scenario file parsing and validation.

The format is a flat, sectioned key-value text file with units encoded in
the key names (duration_s, l_f_m, ...).  The `segment` key in [track] is
repeatable and ordered.  Parsing and schema validation are separate
stages so overrides can be applied in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import sim
from .control import PlannerParams
from .errors import ScenarioFormatError, ScenarioValidationError
from .refline import ReferenceLine
from .sim import Scenario
from .vehicle import VehicleGeometry, VehicleState


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    emit_csv: bool = True
    emit_svg: bool = False


# section -> key -> (required, kind) with kind in
# {"float", "positive", "nonnegative", "int", "bool", "str", "multi"}
_SCHEMA = {
    "track": {
        "start_x_m": (True, "float"),
        "start_y_m": (True, "float"),
        "start_heading_rad": (True, "float"),
        "segment": (True, "multi"),
    },
    "vehicle": {
        "l_f_m": (True, "positive"),
        "l_r_m": (True, "positive"),
        "delta_max_rad": (False, "positive"),
        "u_max_rad_per_s": (False, "positive"),
    },
    "planner": {
        "k_per_m": (True, "positive"),
        "lambda_s2": (True, "positive"),
        "lambda0": (True, "positive"),
        "alpha": (False, "nonnegative"),
        "delta_d0_m": (False, "nonnegative"),
        "c1_rad": (False, "positive"),
        "c2_rad_per_s": (False, "positive"),
        "c3_m": (False, "positive"),
        "lane_width_m": (False, "positive"),
        "v_s_m_per_s": (False, "positive"),
    },
    "sim": {
        "h_s": (False, "positive"),
        "duration_s": (True, "positive"),
        "control_divisor": (False, "int"),
        "initial_x_m": (True, "float"),
        "initial_y_m": (True, "float"),
        "initial_psi_rad": (True, "float"),
        "initial_delta_rad": (False, "float"),
        "lane_change_offset_m": (False, "float"),
        "abort_time_s": (False, "nonnegative"),
    },
    "output": {
        "directory": (False, "str"),
        "emit_csv": (False, "bool"),
        "emit_svg": (False, "bool"),
    },
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
        out.setdefault(section, {})[key] = value
    return out


def _convert(section: str, key: str, kind: str, value: str):
    try:
        if kind in ("float", "positive", "nonnegative"):
            num = float(value)
            if not math.isfinite(num):
                raise ValueError("must be finite")
            if kind == "positive" and not num > 0:
                raise ValueError("must be positive")
            if kind == "nonnegative" and num < 0:
                raise ValueError("must be nonnegative")
            return num
        if kind == "int":
            num = int(value)
            if num < 1:
                raise ValueError("must be a positive integer")
            return num
        if kind == "bool":
            low = value.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError("must be a boolean")
        return value
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


def _fields(values: dict, table: dict) -> dict:
    """Dataclass keyword arguments for the file keys present in a section;
    absent keys take the dataclass defaults."""
    return {table[key]: value for key, value in values.items()}


def validate(sections: dict) -> tuple[Scenario, OutputConfig]:
    """Enforce the schema and build the Scenario. Unknown keys are errors."""
    for section in sections:
        if section not in _SCHEMA:
            raise ScenarioValidationError(f"unknown section [{section}]")
    for section, keys in _SCHEMA.items():
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
        for key, (required, _) in keys.items():
            if required and key not in present:
                raise ScenarioValidationError(
                    f"missing required key {key!r} in [{section}]"
                )

    values: dict[str, dict] = {}
    for section, present in sections.items():
        values[section] = {}
        for key, raw in present.items():
            kind = _SCHEMA[section][key][1]
            if kind == "multi":
                values[section][key] = list(raw)
            else:
                values[section][key] = _convert(section, key, kind, raw)

    trk = values["track"]
    try:
        pieces = [_parse_segment(s) for s in trk["segment"]]
        track = ReferenceLine.from_pieces(
            trk["start_x_m"], trk["start_y_m"], trk["start_heading_rad"], pieces
        )
    except ValueError as exc:
        raise ScenarioValidationError(f"[track]: {exc}") from None

    try:
        geometry = VehicleGeometry(**_fields(values["vehicle"], sim._VEHICLE_KEYS))
    except ValueError as exc:
        raise ScenarioValidationError(f"[vehicle]: {exc}") from None

    try:
        params = PlannerParams(**_fields(values["planner"], sim._PLANNER_KEYS))
    except ValueError as exc:
        raise ScenarioValidationError(f"[planner]: {exc}") from None

    smc = dict(values["sim"])
    initial = VehicleState(
        x=smc.pop("initial_x_m"),
        y=smc.pop("initial_y_m"),
        psi=smc.pop("initial_psi_rad"),
        delta=smc.pop("initial_delta_rad", 0.0),
    )
    try:
        scenario = Scenario(
            track=track,
            geometry=geometry,
            params=params,
            initial_state=initial,
            **_fields(smc, sim._SIM_KEYS),
        )
    except ValueError as exc:
        raise ScenarioValidationError(f"[sim]: {exc}") from None

    config = OutputConfig(**values.get("output", {}))
    return scenario, config


def load(path: str, overrides: list[str] | None = None) -> tuple[Scenario, OutputConfig]:
    sections = parse_file(path)
    if overrides:
        sections = apply_overrides(sections, overrides)
    return validate(sections)
