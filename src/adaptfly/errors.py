"""Exception hierarchy shared by all adaptfly modules, and the JSON reader
that raises it at every boundary."""

import json


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
    """Distillation objective became non-finite."""


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
