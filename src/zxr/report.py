"""The JSON reports the CLI emits, and a validator for them.

The validator reads the shipped schema (schema/report.schema.json) and checks
a report against the keywords the schema uses, without external dependencies.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Any, Optional

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}


class ReportError(ValueError):
    """The report does not follow the shipped schema."""


def schema_text() -> str:
    return (resources.files("zxr") / "schema" / "report.schema.json").read_text()


def _violation(value: Any, schema: dict, where: str) -> Optional[str]:
    """The first constraint of ``schema`` that ``value`` breaks, or None."""
    typ = schema.get("type")
    if typ and (not isinstance(value, _TYPES[typ])
                or (typ in ("integer", "number") and isinstance(value, bool))):
        return f"{where} must be of type {typ}"
    if "enum" in schema and value not in schema["enum"]:
        return f"{where} must be one of {schema['enum']}"
    if "const" in schema and value != schema["const"]:
        return f"{where} must be {schema['const']!r}"
    if "minimum" in schema and value < schema["minimum"]:
        return f"{where} must be >= {schema['minimum']}"
    if "not" in schema and _violation(value, schema["not"], where) is None:
        return f"{where} must not match {schema['not']}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return f"{where} is missing {key!r}"
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                if err := _violation(value[key], sub, f"{where}.{key}"):
                    return err
    if isinstance(value, list):
        if not (schema.get("minItems", 0) <= len(value)
                <= schema.get("maxItems", len(value))):
            return f"{where} has the wrong number of items"
        for i, item in enumerate(value if "items" in schema else ()):
            if err := _violation(item, schema["items"], f"{where}[{i}]"):
                return err
    for part in schema.get("allOf", ()):
        if err := _violation(value, part, where):
            return err
    if "if" in schema:
        branch = "then" if _violation(value, schema["if"], where) is None else "else"
        if err := _violation(value, schema.get(branch, {}), where):
            return err
    return None


def validate_report(obj: Any) -> None:
    """Raise ReportError unless obj is a well-formed report."""
    err = _violation(obj, json.loads(schema_text()), "report")
    if err:
        raise ReportError(err)
