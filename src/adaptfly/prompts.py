"""Prompt representations and their composition with model inputs.

Two prompt forms are supported: token prompts (a small matrix prepended to
a token sequence) and sparse visual prompts (additive RGB offsets at a
sparse set of pixel coordinates). Both are immutable values; every
operation here is a pure function and safe to call concurrently.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CompositionError, ConfigError, check

__all__ = [
    "TokenPrompt",
    "SparseVisualPrompt",
    "compose_tokens",
    "apply_svp",
    "sparsity_budget",
    "place_mask",
    "warp_svp",
    "number_vector",
    "vector_text",
    "compact_json",
    "EncodedDict",
]

# Fraction of coordinates that may leave the frame during a warp before a
# re-optimization is recommended.
DEFAULT_DROP_THRESHOLD = 0.25

_DTYPES = {"f32": np.float32, "f16": np.float16}
# Significant digits that round-trip every value of each stored precision.
_FORMATS = {"f32": "%.9g", "f16": "%.5g"}
_NUMBER_TYPES = {int, float}  # exact types: bool is excluded


def number_vector(xs, what: str) -> np.ndarray:
    """A float64 vector read from JSON: its ``vector_text`` or a list of numbers.

    The string must be standard base64 (no whitespace, correct padding)
    of a whole number of little-endian float64 values, which come back
    bit for bit. Raises CompositionError naming ``what`` for anything
    else: a malformed string, a non-list, nested lists, strings, booleans,
    nulls, or integers beyond float range. Finiteness is left to the
    consumer (token prompts and unit keys check it).
    """
    if type(xs) is str:
        try:
            raw = base64.b64decode(xs, validate=True)
        except ValueError:  # binascii.Error, or a non-ASCII character
            raise CompositionError(f"{what} is not valid base64") from None
        if len(raw) % 8:
            raise CompositionError(f"{what} holds {len(raw)} bytes, not whole float64 values")
        return np.frombuffer(raw, dtype="<f8")
    if not isinstance(xs, (list, tuple)) or not set(map(type, xs)) <= _NUMBER_TYPES:
        raise CompositionError(f"{what} must be a base64 string or a list of numbers")
    try:
        return np.array(xs, dtype=np.float64)
    except OverflowError:
        raise CompositionError(f"{what} holds an integer beyond float range") from None


def vector_text(values: np.ndarray) -> str:
    """The standard base64 of ``values`` as little-endian float64 bytes, row-major."""
    return base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode("ascii")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TokenPrompt:
    """An L x d real matrix prepended to a token sequence.

    ``rows`` may be zero, in which case composition is the identity on the
    token sequence. Values are stored in the precision named by ``dtype``
    ("f32" or "f16").
    """

    values: np.ndarray
    dtype: str = "f32"

    def __eq__(self, other) -> bool:
        if not isinstance(other, TokenPrompt):
            return NotImplemented
        return self.dtype == other.dtype and np.array_equal(self.values, other.values)

    def __post_init__(self):
        if not isinstance(self.dtype, str) or self.dtype not in _DTYPES:
            raise ConfigError(f"unknown token prompt dtype {self.dtype!r}")
        # A value beyond the dtype's range casts to inf, which the finiteness
        # check below rejects; numpy's overflow warning is not the error.
        with np.errstate(over="ignore"):
            v = np.asarray(self.values, dtype=_DTYPES[self.dtype])
        if v.ndim != 2:
            raise CompositionError(f"token prompt values must be 2-D, got shape {v.shape}")
        if v.size and not np.all(np.isfinite(v)):
            raise CompositionError(
                f"token prompt values must be finite and within {self.dtype} range"
            )
        object.__setattr__(self, "values", _readonly(v))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zeros(cls, rows: int, dim: int, dtype: str = "f32") -> "TokenPrompt":
        return cls(np.zeros((rows, dim)), dtype=dtype)

    @classmethod
    def empty(cls, dim: int) -> "TokenPrompt":
        return cls(np.zeros((0, dim)))

    def astype(self, dtype: str) -> "TokenPrompt":
        return TokenPrompt(self.values, dtype=dtype)

    def _values_text(self) -> str:
        """The values, row-major and comma-separated, at stored precision.

        Each value is written with the 9 (f32) or 5 (f16) significant
        digits that round-trip its precision, as Python writes the float
        those digits denote (``0.0123456789``, ``1.0``, ``-0.0``,
        ``9.99999975e-06``), so parsing the text and casting back to
        ``dtype`` gives the stored bits again, signed zeros included.
        """
        flat = self.values.ravel()
        fmt = _FORMATS[self.dtype]
        whole = flat == np.trunc(flat)
        if not whole.any():
            return ",".join([fmt] * flat.size) % tuple(flat.tolist())
        # Zeros, common in distilled prompts, go into the format string as
        # Python writes them, so they are not formatted one by one.
        zero = flat == 0
        formats = np.where(zero, np.where(np.signbit(flat), "-0.0", "0.0"), fmt).tolist()
        text = ",".join(formats) % tuple(flat[~zero].tolist())
        others = np.flatnonzero(whole & ~zero)
        if others.size:
            # %g drops the ".0" of whole numbers, and "%.9g" writes exponents
            # from 1e9 on where Python waits until 1e16. Only whole numbers
            # are affected: every float32 from 2**23 and float16 from 2**10
            # on is one.
            tokens = text.split(",")
            for i in others.tolist():
                tokens[i] = repr(float(tokens[i]))
            text = ",".join(tokens)
        return text

    def to_dict(self) -> dict:
        """Serialize as {"rows", "dim", "values" (row-major), "dtype"}.

        The values are the numbers ``_values_text`` writes, so
        ``json.dumps`` of this dict is the text ``compact_json`` writes for
        the prompt itself.
        """
        return {
            "rows": self.rows,
            "dim": self.dim,
            "values": json.loads(f"[{self._values_text()}]"),
            "dtype": self.dtype,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TokenPrompt":
        if not isinstance(d, dict):
            raise CompositionError("token prompt must be an object")
        rows, dim = d.get("rows"), d.get("dim")
        if not all(type(x) is int and 0 <= x < 2**31 for x in (rows, dim)):
            raise CompositionError("token prompt rows and dim must be integers in [0, 2**31)")
        values = number_vector(d.get("values"), "token prompt values")
        if values.size != rows * dim:
            raise CompositionError(
                f"token prompt holds {values.size} values, rows x dim is {rows} x {dim}"
            )
        dtype = check(d.get("dtype"), "token prompt dtype", str)
        return cls(values.reshape(rows, dim), dtype=dtype)


def _wire_default(obj):
    if isinstance(obj, TokenPrompt):
        return obj.to_dict()
    if type(obj) is np.ndarray and obj.dtype == np.float64:
        return vector_text(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_encode = json.JSONEncoder(separators=(",", ":"), default=_wire_default).encode


class EncodedDict(dict):
    """A dict encoded once: ``compact_json`` writes its ``text`` verbatim.

    ``text`` is ``compact_json`` of the items it was built from. It is not
    updated, so an EncodedDict is read-only by contract: changing its items
    would leave the text describing the old ones.
    """

    __slots__ = ("text",)

    def __init__(self, items: dict):
        super().__init__(items)
        self.text = compact_json(items)


def compact_json(obj) -> str:
    """``json.dumps(obj, separators=(",", ":"))``, TokenPrompts written directly.

    A TokenPrompt anywhere in ``obj`` is written as the JSON of its
    ``to_dict()``, its values straight from ``_values_text``, without the
    detour through float64 shortest-repr formatting; a float64 ndarray as
    the JSON string of its ``vector_text``; and an EncodedDict as its
    stored text. Objects with string keys and lists of objects are walked;
    every other value goes to ``json``'s encoder, so strings, keys and plain
    numbers (NaN included) keep the bytes ``json.dumps`` gives them.
    """
    if type(obj) is EncodedDict:
        return obj.text
    if isinstance(obj, TokenPrompt):
        return (
            f'{{"rows":{obj.rows},"dim":{obj.dim},"values":[{obj._values_text()}],'
            f'"dtype":{_encode(obj.dtype)}}}'
        )
    if type(obj) is dict and all(type(k) is str for k in obj):
        return "{" + ",".join(f"{_encode(k)}:{compact_json(v)}" for k, v in obj.items()) + "}"
    if type(obj) in (list, tuple) and obj and isinstance(obj[0], dict):
        return "[" + ",".join(map(compact_json, obj)) + "]"
    if type(obj) is np.ndarray and obj.dtype == np.float64:  # as _encode writes it, sooner
        return f'"{vector_text(obj)}"'
    if type(obj) is int:
        return int.__repr__(obj)  # what json writes, without its encoder's set-up
    return _encode(obj)


@dataclass(frozen=True, eq=False)
class SparseVisualPrompt:
    """Additive RGB offsets at K unique pixel coordinates of an H x W frame.

    ``coords`` is a (K, 2) integer array of (row, col) indices and
    ``offsets`` a (K, 3) float array of per-channel deltas. The implied
    binary mask has exactly K ones.
    """

    coords: np.ndarray
    offsets: np.ndarray
    frame_shape: tuple[int, int]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVisualPrompt):
            return NotImplemented
        return (
            self.frame_shape == other.frame_shape
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.offsets, other.offsets)
        )

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.int64).reshape(-1, 2)
        offsets = np.asarray(self.offsets, dtype=np.float64).reshape(-1, 3)
        h, w = self.frame_shape
        if coords.shape[0] != offsets.shape[0]:
            raise CompositionError("coords and offsets must have equal length")
        if coords.size:
            if coords[:, 0].min() < 0 or coords[:, 0].max() >= h:
                raise CompositionError("prompt row index out of bounds")
            if coords[:, 1].min() < 0 or coords[:, 1].max() >= w:
                raise CompositionError("prompt col index out of bounds")
            flat = coords[:, 0] * w + coords[:, 1]
            if np.unique(flat).size != flat.size:
                raise CompositionError("prompt coordinates must be unique")
        if offsets.size and not np.all(np.isfinite(offsets)):
            raise CompositionError("prompt offsets must be finite")
        object.__setattr__(self, "coords", _readonly(coords))
        object.__setattr__(self, "offsets", _readonly(offsets))
        object.__setattr__(self, "frame_shape", (int(h), int(w)))

    @property
    def size(self) -> int:
        """Number of perturbed pixels K."""
        return self.coords.shape[0]

    @classmethod
    def zeros(cls, coords: np.ndarray, frame_shape: tuple[int, int]) -> "SparseVisualPrompt":
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
        return cls(coords, np.zeros((coords.shape[0], 3)), frame_shape)


def compose_tokens(prompt: TokenPrompt, seq: np.ndarray) -> np.ndarray:
    """Prepend prompt rows to a token sequence.

    Returns a new (L + N) x d matrix: prompt rows first, in order, then the
    sequence unchanged. Neither input is mutated.
    """
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2:
        raise CompositionError(f"token sequence must be 2-D, got shape {seq.shape}")
    if prompt.rows == 0:
        # Identity on the sequence regardless of the prompt's nominal dim.
        return seq.copy()
    if prompt.dim != seq.shape[1]:
        raise CompositionError(
            f"prompt dim {prompt.dim} does not match sequence dim {seq.shape[1]}"
        )
    return np.vstack([np.asarray(prompt.values, dtype=np.float64), seq])


def apply_svp(x: np.ndarray, p: SparseVisualPrompt) -> np.ndarray:
    """Add the sparse offsets to an image and clamp to [0, 1].

    Pixels outside ``p.coords`` are returned bit-identical to the input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[:2] != p.frame_shape or x.ndim != 3 or x.shape[2] != 3:
        raise CompositionError(
            f"image shape {x.shape} does not match prompt frame {p.frame_shape}"
        )
    out = x.copy()
    if p.size:
        r, c = p.coords[:, 0], p.coords[:, 1]
        out[r, c, :] = np.clip(out[r, c, :] + p.offsets, 0.0, 1.0)
    return out


def sparsity_budget(rho: float, height: int, width: int) -> int:
    """Number of prompt pixels for sparsity ratio rho on an H x W frame.

    Returns floor(rho * H * W), but at least 1 whenever rho > 0 and the
    frame is non-empty.
    """
    if not (0.0 <= rho <= 1.0):
        raise ConfigError(f"sparsity ratio must lie in [0, 1], got {rho}")
    # Small epsilon guards against the product landing just below an integer.
    k = int(math.floor(rho * height * width + 1e-9))
    if rho > 0 and height * width >= 1:
        k = max(k, 1)
    return k


def place_mask(u: np.ndarray, k: int) -> np.ndarray:
    """Coordinates of the k most uncertain pixels, sorted row-major.

    Ties are broken by ascending row-major index, so the result is a pure
    function of the map.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise ConfigError(f"uncertainty map must be 2-D, got shape {u.shape}")
    h, w = u.shape
    if k > h * w:
        raise ConfigError(f"budget {k} exceeds pixel count {h * w}")
    if k < 0:
        raise ConfigError("budget must be non-negative")
    # Stable sort on descending value keeps row-major order among ties.
    order = np.argsort(-u.ravel(), kind="stable")[:k]
    order.sort()
    return np.stack(np.unravel_index(order, (h, w)), axis=1).astype(np.int64)


def warp_svp(
    p: SparseVisualPrompt,
    motion: tuple[int, int],
    drop_threshold: float = DEFAULT_DROP_THRESHOLD,
) -> tuple[SparseVisualPrompt, bool]:
    """Translate prompt coordinates by (dy, dx), dropping those that exit.

    Surviving coordinates keep their offsets exactly. The refresh flag is
    true when strictly more than ``drop_threshold`` of the coordinates were
    dropped, signalling that the prompt should be re-optimized.
    """
    dy, dx = int(motion[0]), int(motion[1])
    h, w = p.frame_shape
    if p.size == 0:
        return p, False
    shifted = p.coords + np.array([dy, dx], dtype=np.int64)
    keep = (
        (shifted[:, 0] >= 0)
        & (shifted[:, 0] < h)
        & (shifted[:, 1] >= 0)
        & (shifted[:, 1] < w)
    )
    dropped_frac = 1.0 - keep.sum() / p.size
    warped = SparseVisualPrompt(shifted[keep], p.offsets[keep], p.frame_shape)
    return warped, bool(dropped_frac > drop_threshold)
