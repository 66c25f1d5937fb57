"""Exception hierarchy shared by all adaptfly modules, the JSON reader
that raises it at every boundary, and the value check of every config type."""

import json
import numbers
import sys
import typing
from functools import cache
from types import NoneType, UnionType


class AdaptflyError(Exception):
    """Base class for all library errors."""


class ConfigError(AdaptflyError):
    """Invalid configuration value or precondition violation."""


class CompositionError(AdaptflyError):
    """Prompt/input shapes are incompatible for composition."""


class OracleError(AdaptflyError):
    """Oracle received inputs it cannot evaluate."""


class FitnessError(AdaptflyError):
    """A fitness evaluation produced a non-finite value."""


class StatsError(AdaptflyError):
    """Activation statistics are malformed or incompatible."""


class CalibrationError(AdaptflyError):
    """Not enough data to calibrate a detection threshold."""


class DegenerateKeyError(AdaptflyError):
    """A key or query vector has zero norm and cannot be normalized."""


class EmptyPoolError(AdaptflyError):
    """Query issued against a pool with no entries."""


class PoolFormatError(AdaptflyError):
    """A pool snapshot line is malformed. Carries its 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class MetricsFormatError(AdaptflyError):
    """A metrics.csv table is malformed; the message names the line."""


class DeferredNotResolvedError(AdaptflyError):
    """A deferred pool entry was used where a concrete prompt is required."""


class ResolutionError(AdaptflyError):
    """Deferred-entry resolution failed (missing or expired provenance)."""


class DistillError(AdaptflyError):
    """Distillation became non-finite, or overflowed its storage precision."""


class ProtocolError(AdaptflyError):
    """Malformed wire frame. Carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def parse_json(text: str | bytes, error: type[AdaptflyError], where: str, **fields):
    """``json.loads`` of ``text`` (bytes as UTF-8); any failure raises ``error``.

    A syntax error, invalid UTF-8, an integer beyond Python's digit limit
    and nesting beyond the recursion limit all become
    ``error(f"{where}: {reason}", **fields)``, chained to the parser's
    exception; ``where`` names the place the text came from.
    """
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise error(f"{where}: {exc}", **fields) from exc


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               dict: "an object", NoneType: "null"}
# Annotations are resolved on first use, not at import.
_hints = cache(typing.get_type_hints)


def _items(kind, size: int) -> list:
    """(name suffix, kind) of each item of a tuple kind, ``size`` of them for
    ``tuple[X, ...]``. A NamedTuple names its items by field, a tuple by index."""
    if hasattr(kind, "_fields"):
        return [(f".{field}", hint) for field, hint in _hints(kind).items()]
    args = typing.get_args(kind)
    return [(f"[{i}]", arg) for i, arg in enumerate(args[:1] * size if args[-1] is ... else args)]


def _describe(kind) -> str:
    """What a value of ``kind`` is, for an error message: ``a list of 3 values``."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (UnionType, typing.Union, typing.Literal):
        return " or ".join(map(_describe, args))
    if origin is tuple or hasattr(kind, "_fields"):
        return "a list" if args[-1:] == (...,) else f"a list of {len(_items(kind, 0))} values"
    if not isinstance(kind, type):  # a Literal's value
        return repr(kind)
    return _KIND_NAMES.get(kind) or ("an " if kind.__name__[0] in "AEIOU" else "a ") + kind.__name__


def check(value, name: str, kind):
    """``value`` as a ``kind``, a type or a type hint; ConfigError names ``name`` otherwise.

    ``int`` takes any integer, and ``float`` any finite real, returned as a
    float; booleans are neither. A ``tuple[...]`` or NamedTuple takes a list
    or tuple of its length (any, for ``tuple[X, ...]``) and returns its
    checked items as a tuple or as that NamedTuple. ``X | Y`` takes either,
    ``Literal[...]`` its values, and any other class its own instances.
    """
    origin = typing.get_origin(kind)
    if origin in (UnionType, typing.Union, typing.Literal):
        for alternative in typing.get_args(kind):
            try:
                return check(value, name, alternative)
            except ConfigError:
                pass
    elif origin is tuple or hasattr(kind, "_fields"):
        items = _items(kind, len(value)) if isinstance(value, (list, tuple)) else None
        if items is not None and len(items) == len(value):
            checked = tuple(check(v, name + suffix, k) for v, (suffix, k) in zip(value, items))
            return checked if origin is tuple else kind(*checked)
    elif kind is int:
        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            return value
    elif kind is float:
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max):  # neither infinite nor NaN
            return float(value)
    elif (isinstance(value, kind) if isinstance(kind, type)
          else type(value) is type(kind) and value == kind):  # a Literal's value
        return value
    raise ConfigError(f"{name} must be {_describe(kind)}, got {value!r}")


def check_fields(obj) -> None:
    """Check each field of the dataclass ``obj`` against its annotation.

    Each field then holds its checked value: a float field a float, a
    tuple field a tuple. The owning type checks ranges after this.
    """
    for name, kind in _hints(type(obj)).items():
        object.__setattr__(obj, name, check(getattr(obj, name), name, kind))


def check_keys(options: dict, known, where: str) -> None:
    """Raise ConfigError naming ``where`` unless ``known`` holds every key of ``options``."""
    if not set(options) <= set(known):
        raise ConfigError(f"unknown key(s) {sorted(set(options) - set(known), key=str)} in {where}")
