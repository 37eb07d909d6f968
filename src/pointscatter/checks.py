"""The kinds every value read from a config, scene or detections file
must be of, and the one check that holds a value to its kind.

Each dataclass that stores such a value calls :func:`_check` on it once,
so a malformed file ends as a :class:`ConfigError` naming the field,
whether the value came from JSON, a CLI flag or Python. The file readers
take each JSON object and list through :func:`_entry` and
:func:`_entries` first, so a missing or unknown key or a wrong structure
names its place in the file too. This module imports no other module
of the package.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping


class ConfigError(ValueError):
    """Invalid pipeline configuration or input file value."""


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# per kind of value: the test it must pass and what it says
_KINDS = {
    "integer": (_is_integer, "an integer"),
    "index": (lambda v: _is_integer(v) and v >= 0, "a non-negative integer"),
    "count": (lambda v: _is_integer(v) and v >= 1, "a positive integer"),
    "number": (_is_number, "a finite number"),
    "positive": (lambda v: _is_number(v) and v > 0, "a finite positive number"),
    "non-negative": (lambda v: _is_number(v) and v >= 0, "a finite non-negative number"),
    "fraction": (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
}


def _check(values, **kinds) -> None:
    """Raise :class:`ConfigError` for the first named field of ``values``
    (an object's attributes, or a mapping's entries) whose value is not
    of its kind.

    A kind is a key of ``_KINDS``, or ``(kind, length)`` for a list or
    tuple of that many values of the kind, where a length of None asks
    for one or more.
    """
    for name, kind in kinds.items():
        value = values[name] if isinstance(values, Mapping) else getattr(values, name)
        if isinstance(kind, tuple):
            (test, what), length = _KINDS[kind[0]], kind[1]
            ok = (
                isinstance(value, (tuple, list))
                and (len(value) == length if length else len(value) > 0)
                and all(test(v) for v in value)
            )
            what = f"{length or 'one or more'} values, each {what}"
        else:
            test, what = _KINDS[kind]
            ok = test(value)
        if not ok:
            raise ConfigError(f"{name} must be {what}, got {value!r}")


def _entry(value, where: str, *keys: str, optional=()) -> Mapping:
    """``value`` if it is a JSON object holding every one of ``keys`` and
    no key outside ``keys`` and ``optional``; else a :class:`ConfigError`
    that names it by ``where``."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    for key in keys:
        if key not in value:
            raise ConfigError(f"{where} lacks {key!r}")
    for key in value:
        if key not in keys and key not in optional:
            raise ConfigError(f"{where} has unknown key {key!r}")
    return value


def _entries(value, where: str, *keys: str, optional=()) -> list:
    """``value`` if it is a JSON list of objects that each pass
    :func:`_entry` as ``where[i]``."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a JSON list, got {type(value).__name__}")
    return [_entry(v, f"{where}[{i}]", *keys, optional=optional) for i, v in enumerate(value)]
