"""Output checks: each result against what its input's construction implies.

ω is compared with lattice.free_count, never with a stored copy of an earlier
output; compare verdicts with the relation and exit code each pair was built
to have, and their JSON with the schema diffdim ships.
"""

from __future__ import annotations

import json
import re

import lattice

EXIT_2_RELATIONS = ("InputContradiction", "ContainmentUnknown")


class SchemaError(ValueError):
    pass


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_schema(value, schema: dict, root: dict | None = None, where: str = "$") -> None:
    """Check value against the draft-07 keywords diffdim's schemas use.

    Raises SchemaError on the first violation, or on a keyword it does not
    know, so a schema change cannot slip past unchecked.
    """
    root = root if root is not None else schema
    known = {
        "$schema", "title", "definitions", "$ref", "type", "enum", "required",
        "properties", "additionalProperties", "items", "minItems", "maxItems",
        "minimum", "pattern", "anyOf",
    }
    unknown = set(schema) - known
    if unknown:
        raise SchemaError(f"{where}: unsupported schema keywords {sorted(unknown)}")
    if "$ref" in schema:
        target = root
        for part in schema["$ref"].removeprefix("#/").split("/"):
            target = target[part]
        validate_schema(value, target, root, where)
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[t](value) for t in types):
            raise SchemaError(f"{where}: {value!r} is not of type {types}")
    if "enum" in schema and value not in schema["enum"]:
        raise SchemaError(f"{where}: {value!r} not in {schema['enum']}")
    if "anyOf" in schema:
        for option in schema["anyOf"]:
            try:
                validate_schema(value, option, root, where)
                break
            except SchemaError:
                continue
        else:
            raise SchemaError(f"{where}: {value!r} matches no anyOf option")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise SchemaError(f"{where}: missing {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                validate_schema(item, props[key], root, f"{where}.{key}")
            elif extra is False:
                raise SchemaError(f"{where}: unexpected {key!r}")
            elif isinstance(extra, dict):
                validate_schema(item, extra, root, f"{where}.{key}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise SchemaError(f"{where}: fewer than {schema['minItems']} items")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            raise SchemaError(f"{where}: more than {schema['maxItems']} items")
        if "items" in schema:
            for i, item in enumerate(value):
                validate_schema(item, schema["items"], root, f"{where}[{i}]")
    if "minimum" in schema and _TYPES["number"](value) and value < schema["minimum"]:
        raise SchemaError(f"{where}: {value} below {schema['minimum']}")
    if "pattern" in schema and isinstance(value, str) and not re.search(schema["pattern"], value):
        raise SchemaError(f"{where}: {value!r} does not match {schema['pattern']}")


def check_omega(case, coeffs) -> str | None:
    """None when the binomial-basis coefficients match the lattice count."""
    if lattice.omega_matches(coeffs, [case.generators], case.n):
        return None
    return f"{case.chain}: ω coefficients {list(coeffs)} disagree with the lattice count"


def check_compare(pair, exit_code: int, stdout: str, schema: dict) -> str | None:
    """None when a compare run gave what its pair was built to give."""
    name = pair.path.name
    if pair.relation is None and exit_code == 2 and not stdout:
        return None  # refused with an error message: the answer it was built to get
    try:
        verdict = json.loads(stdout)
        validate_schema(verdict, schema)
    except (json.JSONDecodeError, SchemaError) as exc:
        return f"{name}: output is not a schema-valid verdict: {exc}"
    if exit_code != pair.exit_code:
        return f"{name}: exit {exit_code}, expected {pair.exit_code} ({verdict['relation']})"
    expected = (pair.relation,) if pair.relation is not None else EXIT_2_RELATIONS
    if verdict["relation"] not in expected:
        return f"{name}: relation {verdict['relation']}, expected one of {expected}"
    for side, leaders in (("smaller", pair.smaller_leaders), ("larger", pair.larger_leaders)):
        coeffs = verdict[f"omega_{side}"]["binomial_coeffs"]
        if not lattice.omega_matches(coeffs, leaders, pair.n):
            return f"{name}: omega_{side} {coeffs} disagrees with the lattice count"
    return None
