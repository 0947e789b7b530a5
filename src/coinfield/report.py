"""One JSON rule for every report: a report class takes its JSON form as
`to_json = json_value`, and exact values travel as text."""

import dataclasses
import math
from decimal import Decimal

from .polys import AlgebraicPoint

__all__ = ["json_value"]


def json_value(x):
    """x as a JSON value: a dataclass as {field: value} in field order, a
    float NaN (no trial completed) as None, a Decimal past the float range
    as text such as '3.1234567890123457e+412', dict keys as strings, tuples
    as lists, and an AlgebraicPoint as its polynomial, isolating interval
    and approximate position. None, bool, int, str and other floats stay;
    any other value, such as a Fraction, a FieldElem or INFINITY, becomes
    its text."""
    if isinstance(x, float) and math.isnan(x):
        return None
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, Decimal):
        return f"{x:g}"
    if isinstance(x, dict):
        return {str(k): json_value(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [json_value(v) for v in x]
    if isinstance(x, AlgebraicPoint):
        return {"poly": str(x.g), "interval": [str(x.lo), str(x.hi)],
                "approx": x.approx()}
    if dataclasses.is_dataclass(x):
        return {f.name: json_value(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    return str(x)
