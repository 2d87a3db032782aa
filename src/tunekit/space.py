"""Search-space definition, validation, and the encoding to the unit cube.

A :class:`SearchSpace` is an ordered list of named dimensions.  All model
code operates on an encoded representation where every numeric dimension
occupies one coordinate in ``[0, 1]`` (after an optional log10 transform)
and every categorical dimension occupies a one-hot block.  Encoding and
decoding are exact inverses up to integer rounding and one-hot snapping.

The field tables of a job config's records live here, below every module
with a record type: see :class:`Field`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Mapping
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Literal, NamedTuple

import numpy as np

__all__ = [
    "SpaceError",
    "DuplicateNameError",
    "InvalidBoundsError",
    "LogScaleNonPositiveError",
    "TooFewCategoriesError",
    "ValueOutOfDomainError",
    "LengthMismatchError",
    "InvalidCountError",
    "Dimension",
    "SearchSpace",
    "Configuration",
    "continuous",
    "integer",
    "categorical",
    "validate_space",
    "validate_value",
    "encode",
    "decode",
    "sample_random",
]


class SpaceError(ValueError):
    """Base class for search-space validation failures."""


class DuplicateNameError(SpaceError):
    pass


class InvalidBoundsError(SpaceError):
    pass


class LogScaleNonPositiveError(SpaceError):
    pass


class TooFewCategoriesError(SpaceError):
    pass


class ValueOutOfDomainError(SpaceError):
    pass


class LengthMismatchError(SpaceError):
    pass


class InvalidCountError(SpaceError):
    pass


Kind = Literal["continuous", "integer", "categorical"]
Scaling = Literal["linear", "log"]


@dataclass(frozen=True)
class Dimension:
    """One named axis of a search space.

    Numeric kinds carry ``lower``/``upper`` bounds and a ``scaling``;
    categorical kinds carry an ordered tuple of category labels instead.
    Instances are plain data: consistency is checked by
    :func:`validate_space`, not at construction time.
    """

    name: str
    kind: Kind
    lower: float | None = None
    upper: float | None = None
    scaling: Scaling = "linear"
    categories: tuple[str, ...] | None = None

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("continuous", "integer")

    @property
    def encoded_width(self) -> int:
        return 1 if self.is_numeric else len(self.categories or ())


def continuous(name: str, lower: float, upper: float,
               scaling: Scaling = "linear") -> Dimension:
    return Dimension(name, "continuous", float(lower), float(upper), scaling)


def integer(name: str, lower: int, upper: int,
            scaling: Scaling = "linear") -> Dimension:
    return Dimension(name, "integer", float(lower), float(upper), scaling)


def categorical(name: str, categories: "tuple[str, ...] | list[str]") -> Dimension:
    return Dimension(name, "categorical", categories=tuple(categories))


@dataclass(frozen=True)
class SearchSpace:
    """An ordered collection of dimensions."""

    dimensions: tuple[Dimension, ...]

    def __init__(self, dimensions) -> None:
        object.__setattr__(self, "dimensions", tuple(dimensions))

    def __len__(self) -> int:
        return len(self.dimensions)

    def __iter__(self) -> Iterator[Dimension]:
        return iter(self.dimensions)

    @property
    def encoded_width(self) -> int:
        return sum(d.encoded_width for d in self.dimensions)

    def names(self) -> list[str]:
        return [d.name for d in self.dimensions]


@dataclass(frozen=True, eq=False)
class Configuration(Mapping):
    """A concrete assignment of one value to every dimension of a space."""

    values: dict[str, float | int | str] = field(default_factory=dict)

    def __getitem__(self, name: str):
        return self.values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if isinstance(other, Configuration):
            return self.values == other.values
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        return f"Configuration({inner})"


class Field(NamedTuple):
    """One JSON key of a record type: its kind (a name in ``KINDS``, or a
    reader that parses and checks a nested record) and a ``(text, test)``
    bound.  ``attr`` is the dataclass attribute where it is not ``key``.
    The same rows read and write the record and check a dataclass built
    through the Python API, so both obey one rule."""

    key: str
    kind: str | Callable
    bound: tuple = ("", lambda v: True)
    attr: str = ""


_LARGEST = sys.float_info.max
# Each kind's text, test and stored form.  A bool is no integer; the
# comparison refuses NaN, the infinities and ints too large for a float.
KINDS = {
    "integer": ("an integer", lambda v: type(v) is int, int),
    "number": ("a finite number", lambda v: type(v) in (int, float)
               and -_LARGEST <= v <= _LARGEST, float),
    "string": ("a string", lambda v: type(v) is str, str),
    "strings": ("a JSON array of strings", lambda v: type(v) in (list, tuple)
                and all(type(s) is str for s in v), tuple),
    "enum": ("one of", lambda v: True, lambda v: v),
}
AT_LEAST_0 = (">= 0", lambda v: v >= 0)
AT_LEAST_1 = (">= 1", lambda v: v >= 1)
NOT_EMPTY = ("that is not empty", len)


def one_of(*choices) -> tuple:
    return ", ".join(map(repr, choices)), choices.__contains__


def check_field(row: Field, value, error: type[Exception], where=""):
    """``value`` in its stored form; raises ``error`` naming ``row``'s key
    unless the value is of the row's kind and within its bound."""
    if callable(row.kind):
        return row.kind(value)
    text, test, store = KINDS[row.kind]
    if not (test(value) and row.bound[1](value)):
        text = f"{text} {row.bound[0]}".rstrip()
        raise error(f"{where}{row.key!r} must be {text}, not {value!r}")
    return store(value)


def check_fields(obj, rows: tuple[Field, ...], error: type[Exception],
                 where="") -> None:
    """Check ``obj``'s attribute of each row."""
    for row in rows:
        check_field(row, getattr(obj, row.attr or row.key), error, where)


def field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def read_record(record, rows, defaults: dict, error: type[Exception],
                where="") -> dict:
    """Each row's value in the JSON object ``record``, checked and stored,
    by attribute.  ``rows`` is a table, or tables by the value of their
    first row.  A key that no row names is refused, and a missing one takes
    its ``defaults`` entry if it has one."""
    if type(record) is not dict:
        raise error(f"{where}must be a JSON object, not {record!r}")
    if isinstance(rows, dict):
        first = next(iter(rows.values()))[0]
        rows = rows[check_field(first, record.get(first.key), error, where)]
    unknown = record.keys() - {row.key for row in rows}
    if unknown:
        raise error(f"{where}{min(unknown, key=str)!r} is not a known key")
    values = {}
    for row in rows:
        attr = row.attr or row.key
        if row.key in record:
            values[attr] = check_field(row, record[row.key], error, where)
        elif attr in defaults:
            values[attr] = defaults[attr]
        else:
            raise error(f"{where}{row.key!r} is missing")
    return values


def write_record(obj, rows: tuple[Field, ...]) -> dict:
    """The JSON object of ``obj``'s attribute for each row."""
    record = {row.key: getattr(obj, row.attr or row.key) for row in rows}
    return {k: list(v) if type(v) is tuple else v for k, v in record.items()}


_TYPE = Field("type", "enum", one_of("continuous", "integer", "categorical"),
              "kind")
_NAME = Field("name", "string", NOT_EMPTY)
_NUMERIC = (_TYPE, _NAME, Field("min", "number", attr="lower"),
            Field("max", "number", attr="upper"),
            Field("scaling", "enum", one_of("linear", "log")))
# A dimension record's keys by type; README's "Config schema" lists them.
DIMENSION_FIELDS = {
    "continuous": _NUMERIC,
    "integer": _NUMERIC,
    "categorical": (_TYPE, _NAME,
                    Field("values", "strings", attr="categories")),
}


def validate_space(space: SearchSpace) -> SearchSpace:
    """Check each dimension by its type's rows in ``DIMENSION_FIELDS``, then
    by the rules across its fields; returns the space unchanged.

    Raises ``InvalidBoundsError`` for an empty space, a field that breaks
    its row, a numeric dimension with categories, ``lower >= upper`` or
    fractional integer bounds, and a categorical one with bounds;
    ``DuplicateNameError`` for a repeated name or category;
    ``LogScaleNonPositiveError`` for log scaling with ``lower <= 0``; and
    ``TooFewCategoriesError`` for fewer than two categories.
    """
    if len(space.dimensions) == 0:
        raise InvalidBoundsError("a search space needs at least one dimension")
    seen: set[str] = set()
    for dim in space:
        where = f"dimension {dim.name!r}: "
        rows = DIMENSION_FIELDS[
            check_field(_TYPE, dim.kind, InvalidBoundsError, where)]
        check_fields(dim, rows, InvalidBoundsError, where)
        if dim.name in seen:
            raise DuplicateNameError(f"duplicate dimension name {dim.name!r}")
        seen.add(dim.name)
        if dim.kind == "categorical":
            if dim.lower is not None or dim.upper is not None:
                raise InvalidBoundsError(f"{where}a categorical dimension "
                                         "must not define bounds")
            if len(dim.categories) < 2:
                raise TooFewCategoriesError(
                    f"{where}a categorical dimension needs two categories")
            if len(set(dim.categories)) < len(dim.categories):
                raise DuplicateNameError(f"{where}repeated categories")
        elif dim.categories is not None:
            raise InvalidBoundsError(
                f"{where}a numeric dimension must not define categories")
        elif dim.lower >= dim.upper:
            raise InvalidBoundsError(f"{where}requires lower < upper, got "
                                     f"[{dim.lower}, {dim.upper}]")
        elif dim.kind == "integer" and (dim.lower != int(dim.lower)
                                        or dim.upper != int(dim.upper)):
            raise InvalidBoundsError(f"{where}requires integral bounds")
        elif dim.scaling == "log" and dim.lower <= 0.0:
            raise LogScaleNonPositiveError(
                f"{where}log scaling requires lower > 0, got {dim.lower}")
    return space


def validate_value(dim: Dimension, value) -> bool:
    """Whether ``value`` lies in the domain of ``dim``."""
    if dim.kind == "categorical":
        return isinstance(value, str) and value in (dim.categories or ())
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    v = float(value)
    if not math.isfinite(v) or v < dim.lower or v > dim.upper:
        return False
    if dim.kind == "integer" and v != int(v):
        return False
    return True


def _axis_bounds(dim: Dimension) -> tuple[float, float]:
    """Bounds of a numeric dimension on its internal (possibly log10) axis."""
    if dim.scaling == "log":
        return math.log10(dim.lower), math.log10(dim.upper)
    return float(dim.lower), float(dim.upper)


def encode(config: Configuration | Mapping, space: SearchSpace) -> np.ndarray:
    """Map a configuration to its encoded vector in ``[0, 1]^w``.

    Numeric dimensions are transformed to their internal axis (log10 for
    log scaling) and then affinely rescaled to ``[0, 1]``; categoricals
    become one-hot blocks in declared category order.

    Raises
    ------
    ValueOutOfDomainError
        If a value is missing, of the wrong type, or outside its domain.
    """
    out = np.empty(space.encoded_width, dtype=float)
    pos = 0
    for dim in space:
        if dim.name not in config:
            raise ValueOutOfDomainError(f"configuration is missing {dim.name!r}")
        value = config[dim.name]
        if not validate_value(dim, value):
            raise ValueOutOfDomainError(
                f"value {value!r} is outside the domain of dimension {dim.name!r}"
            )
        if dim.is_numeric:
            lo, hi = _axis_bounds(dim)
            axis = math.log10(float(value)) if dim.scaling == "log" else float(value)
            out[pos] = (axis - lo) / (hi - lo)
            pos += 1
        else:
            block = np.zeros(len(dim.categories), dtype=float)
            block[dim.categories.index(value)] = 1.0
            out[pos:pos + len(block)] = block
            pos += len(block)
    return out


def decode(vector: np.ndarray, space: SearchSpace) -> Configuration:
    """Map an encoded vector back to a configuration.

    Coordinates are clipped to ``[0, 1]`` first, so any vector of the
    right length decodes successfully.  Integer dimensions round half
    away from the lower bound; one-hot blocks decode to the argmax with
    ties resolved toward the lowest category index.

    Raises
    ------
    LengthMismatchError
        If ``vector`` does not have exactly ``space.encoded_width`` entries.
    """
    vec = np.asarray(vector, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != space.encoded_width:
        raise LengthMismatchError(
            f"expected a vector of length {space.encoded_width}, "
            f"got shape {vec.shape}"
        )
    vec = np.clip(vec, 0.0, 1.0)
    values: dict[str, float | int | str] = {}
    pos = 0
    for dim in space:
        if dim.is_numeric:
            lo, hi = _axis_bounds(dim)
            axis = lo + vec[pos] * (hi - lo)
            value = 10.0 ** axis if dim.scaling == "log" else axis
            if dim.kind == "integer":
                rounded = math.floor(value + 0.5)
                value = int(min(max(rounded, int(dim.lower)), int(dim.upper)))
            else:
                value = float(min(max(value, dim.lower), dim.upper))
            values[dim.name] = value
            pos += 1
        else:
            block = vec[pos:pos + len(dim.categories)]
            values[dim.name] = dim.categories[int(np.argmax(block))]
            pos += len(block)
    return Configuration(values)


def sample_random(space: SearchSpace, seed: int | np.random.SeedSequence,
                  count: int) -> list[Configuration]:
    """Draw independent uniform configurations.

    Sampling is uniform in the encoded cube, which makes numeric
    dimensions uniform on their internal axis (log-uniform under log
    scaling) and categoricals uniform over their categories.  The same
    seed always yields the same draw.

    Raises
    ------
    InvalidCountError
        If ``count`` is smaller than 1.
    """
    if count < 1:
        raise InvalidCountError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    u = rng.random((count, space.encoded_width))
    return [decode(row, space) for row in u]
