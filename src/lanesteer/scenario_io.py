"""Scenario file parsing and validation.

The format is a flat, sectioned key-value text file with units encoded in
the key names (duration_s, l_f_m, ...).  The `segment` key in [track] is
repeatable and ordered.  A file is parsed, then validated into a Scenario
on its own; `--set` overrides then apply to that Scenario through
`sim.apply_overrides`, as a sweep's grid points do.
"""

from __future__ import annotations

from . import sim
from .control import PlannerParams
from .errors import ScenarioFormatError, ScenarioValidationError
from .sim import Scenario
from .vehicle import VehicleGeometry, VehicleState


def _section(section: str, *classes) -> tuple[tuple, list]:
    """The keys of one of sim's key tables, and those whose field has no
    default in the constructors of `classes`, which list their fields in
    `__match_args__`: NamedTuples, built by __new__, or `Frozen` classes."""
    required = set()
    for cls in classes:
        init = cls.__new__ if issubclass(cls, tuple) else cls.__init__
        names, defaults = cls.__match_args__, init.__defaults__ or ()
        required.update(names[:len(names) - len(defaults)])
    table = sim._TABLES[section]
    return tuple(table), [key for key, name in table.items() if name in required]


# section -> (accepted keys, required keys): but for [output], sim's
# override keys, [sim]'s with the initial state's
_SECTIONS = {
    "track": _section("track", sim.Track),
    "vehicle": _section("vehicle", VehicleGeometry),
    "planner": _section("planner", PlannerParams),
    "sim": _section("sim", Scenario, VehicleState),
    "output": (("emit_svg",), ()),
}


def parse_file(path: str) -> dict:
    """Read a scenario file into {section: {key: value-or-list}}.

    Only syntax is checked here; the schema is enforced by validate().
    """
    sections: dict[str, dict] = {}
    current = None
    # utf-8-sig: a byte-order mark, if any, is not part of the first line
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"{path}: not UTF-8 text: {exc}") from None
        for lineno, raw in enumerate(text.split("\n"), start=1):
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
            _put(sections[current], current, key, value, f"{path}:{lineno}")
    return sections


def _put(bucket: dict, section: str, key: str, value: str, where: str) -> None:
    """Put one `key = value` of `section` into its dict: `segment` values
    join the section's list in order, any other key may be given once."""
    if key == "segment":
        bucket.setdefault(key, []).append(value)
    elif key in bucket:
        raise ScenarioFormatError(f"{where}: duplicate key {key!r} in [{section}]")
    else:
        bucket[key] = value


def _convert(section: str, key: str, value):
    """Parse one value's text: [track]'s segment texts give a tuple of
    pieces, [output] keys are booleans, every other value is a number.
    Ranges are the constructors' to check."""
    if key == "segment":
        return tuple(map(_parse_segment, value))
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
    kind, *numbers = text.split()
    if (kind, len(numbers)) in (("line", 1), ("arc", 2)):
        try:
            return (kind, *map(float, numbers))
        except ValueError:
            pass
    raise ScenarioValidationError(
        f"[track]: segment {text!r}: expected 'line <length_m>' or "
        "'arc <length_m> <curvature_per_m>'"
    )


def _values(sections: dict) -> dict:
    """{section: {key: value}} of a parse tree whose every section and key
    the format knows.  Unknown ones are errors."""
    for section, present in sections.items():
        if section not in _SECTIONS:
            raise ScenarioValidationError(f"unknown section [{section}]")
        for key in present:
            if key not in _SECTIONS[section][0]:
                raise ScenarioValidationError(f"unknown key {key!r} in [{section}]")
    return {
        section: {key: _convert(section, key, raw) for key, raw in present.items()}
        for section, present in sections.items()
    }


def validate(sections: dict) -> tuple[Scenario, bool]:
    """Enforce the schema and build the Scenario, returned with the [output]
    emit_svg flag."""
    values = _values(sections)
    for section, (_, required) in _SECTIONS.items():
        if section not in sections and section != "output":
            raise ScenarioValidationError(f"missing section [{section}]")
        for key in required:
            if key not in sections.get(section, ()):
                raise ScenarioValidationError(
                    f"missing required key {key!r} in [{section}]"
                )

    records = {}
    for section, build in (("track", sim.Track), ("vehicle", VehicleGeometry),
                           ("planner", PlannerParams)):
        try:
            record = build(**sim.field_values(section, values[section]))
            if section == "track":
                # Scenario checks it too, but its errors read as [sim]'s
                record.line()
        except ValueError as exc:
            raise ScenarioValidationError(f"[{section}]: {exc}") from None
        records[sim._RECORDS[section]] = record

    try:
        kwargs = sim.field_values("sim", values["sim"])
        initial = VehicleState(**{
            name: kwargs.pop(name) for name in VehicleState._fields if name in kwargs
        })
        scenario = Scenario(initial_state=initial, **records, **kwargs)
    except ValueError as exc:
        raise ScenarioValidationError(f"[sim]: {exc}") from None

    return scenario, values.get("output", {}).get("emit_svg", False)


def load(path: str, overrides: list[str] | None = None) -> tuple[Scenario, bool]:
    """The scenario of a file, with 'section.key=value' overrides applied,
    and whether its run draws an SVG ([output] emit_svg, false by default).
    The file must validate on its own; the overrides then apply together,
    as a grid point's keys do.  They follow the file's rules: a key may be
    given once, and the segments given, in order, replace the whole chain."""
    tree: dict[str, dict] = {}
    for item in overrides or ():
        dotted, equals, value = item.partition("=")
        section, dot, key = dotted.strip().partition(".")
        if not (equals and dot):
            raise ScenarioFormatError(
                f"override {item!r} is not of the form section.key=value"
            )
        value = value.strip()
        if not (section and key and value):
            raise ScenarioFormatError(f"override {item!r} has empty parts")
        _put(tree.setdefault(section, {}), section, key, value, f"override {item!r}")
    scenario, emit_svg = validate(parse_file(path))
    values = _values(tree)
    emit_svg = values.pop("output", {}).get("emit_svg", emit_svg)
    if values:
        scenario = sim.apply_overrides(scenario, {
            f"{section}.{key}": value
            for section, keys in values.items() for key, value in keys.items()
        })
    return scenario, emit_svg
