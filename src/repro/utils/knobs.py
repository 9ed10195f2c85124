"""Knob validation: a bad configuration value fails naming its knob."""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import fields
from typing import Any, Collection, Dict, Mapping, Tuple


def check_integer(name: str, value) -> int:
    """``value`` as an ``int``, or a ``ValueError`` naming the knob ``name``.

    Integers pass, and so do integral floats such as ``8.0`` (a value
    parsed from JSON or a ``--param`` may arrive as one).  Fractions,
    NaN, infinities, booleans and non-numbers are refused rather than
    truncated, rounded or left to fail later with an error naming no
    knob.
    """
    if type(value) is int:
        return value
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and float(value).is_integer()):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


#: The knob types, as an error says what a value of each must be.
KNOB_TYPES = {int: "an integer", float: "a finite number", bool: "true or false",
              str: "a string"}


def check_knob(name: str, value, kind: type, optional: bool = False):
    """``value`` as a value of the knob ``name`` of type ``kind`` (a key
    of :data:`KNOB_TYPES`), or a ``ValueError`` naming the knob.

    An ``int`` knob goes through :func:`check_integer`.  A ``float`` knob
    takes any finite real but a ``bool``, and keeps an ``int`` as it is
    (it computes the same number).  ``optional`` also admits ``None``.
    """
    if value is None and optional:
        return value
    if kind is int:
        return check_integer(name, value)
    try:
        valid = (type(value) is kind if kind is not float
                 else not isinstance(value, bool) and math.isfinite(value))
    except (TypeError, OverflowError):  # not a number, or an int past floats
        valid = False
    if not valid:
        raise ValueError(f"{name} must be {KNOB_TYPES[kind]}, got {value!r}")
    return value


def check_choice(name: str, value, names: Collection[str]) -> str:
    """``value`` if it is one of ``names``, the name list of the library
    code that reads the knob, or a ``ValueError`` naming the knob."""
    if isinstance(value, str) and value in names:
        return value
    raise ValueError(f"{name} must be one of {', '.join(names)}, got {value!r}")


@functools.lru_cache(maxsize=None)
def integer_fields(cls) -> Tuple[str, ...]:
    """The names of the ``int``-annotated fields of dataclass ``cls``."""
    return tuple(f.name for f in fields(cls) if f.type in ("int", int))


def check_integer_fields(config) -> None:
    """Pass every ``int`` field of the dataclass ``config`` through
    :func:`check_integer`, in place (frozen dataclasses included).

    Every integer knob of a config is a count, a period or a seed: a
    fraction would be truncated by one consumer, rounded up by another
    and refused by ``range`` in a third, so it fails at construction,
    by name.
    """
    for name in integer_fields(type(config)):
        object.__setattr__(config, name, check_integer(name, getattr(config, name)))


def field_knobs(cls, params: Mapping[str, Any]) -> Dict[str, Any]:
    """The entries of ``params`` that name a field of dataclass ``cls``
    (an absent knob keeps the config's default, its only one)."""
    names = {f.name for f in fields(cls)}
    return {k: v for k, v in params.items() if k in names}
