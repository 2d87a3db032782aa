"""Search-space definition, validation, and the encoding to the unit cube.

A :class:`SearchSpace` is an ordered list of named dimensions.  All model
code operates on an encoded representation where every numeric dimension
occupies one coordinate in ``[0, 1]`` (after an optional log10 transform)
and every categorical dimension occupies a one-hot block.  Encoding and
decoding are exact inverses up to integer rounding and one-hot snapping.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Literal

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


def validate_space(space: SearchSpace) -> SearchSpace:
    """Check structural invariants of a space, returning it unchanged.

    Raises
    ------
    DuplicateNameError
        If two dimensions share a name.
    InvalidBoundsError
        If a numeric dimension has ``lower >= upper`` or missing bounds,
        or a categorical dimension carries bounds, a non-default scaling or
        a category that is not a string.
    LogScaleNonPositiveError
        If a log-scaled dimension has ``lower <= 0``.
    TooFewCategoriesError
        If a categorical dimension has fewer than two categories.
    """
    if len(space.dimensions) == 0:
        raise InvalidBoundsError("a search space needs at least one dimension")
    seen: set[str] = set()
    for dim in space:
        if not dim.name:
            raise InvalidBoundsError("dimension names must be non-empty")
        if dim.name in seen:
            raise DuplicateNameError(f"duplicate dimension name {dim.name!r}")
        seen.add(dim.name)
        if dim.kind == "categorical":
            if dim.lower is not None or dim.upper is not None:
                raise InvalidBoundsError(
                    f"categorical dimension {dim.name!r} must not define bounds"
                )
            if dim.categories is None or len(dim.categories) < 2:
                raise TooFewCategoriesError(
                    f"categorical dimension {dim.name!r} needs at least two categories"
                )
            if not all(isinstance(c, str) for c in dim.categories):
                raise InvalidBoundsError(
                    f"categories of dimension {dim.name!r} must be strings"
                )
            if len(set(dim.categories)) != len(dim.categories):
                raise DuplicateNameError(
                    f"categorical dimension {dim.name!r} has repeated categories"
                )
        elif dim.kind in ("continuous", "integer"):
            if dim.categories is not None:
                raise InvalidBoundsError(
                    f"numeric dimension {dim.name!r} must not define categories"
                )
            if dim.lower is None or dim.upper is None:
                raise InvalidBoundsError(
                    f"numeric dimension {dim.name!r} needs lower and upper bounds"
                )
            if not (math.isfinite(dim.lower) and math.isfinite(dim.upper)):
                raise InvalidBoundsError(
                    f"bounds of dimension {dim.name!r} must be finite"
                )
            if dim.lower >= dim.upper:
                raise InvalidBoundsError(
                    f"dimension {dim.name!r} requires lower < upper, "
                    f"got [{dim.lower}, {dim.upper}]"
                )
            if dim.kind == "integer" and (
                dim.lower != int(dim.lower) or dim.upper != int(dim.upper)
            ):
                raise InvalidBoundsError(
                    f"integer dimension {dim.name!r} requires integral bounds"
                )
            if dim.scaling == "log" and dim.lower <= 0.0:
                raise LogScaleNonPositiveError(
                    f"log-scaled dimension {dim.name!r} requires lower > 0, "
                    f"got {dim.lower}"
                )
            if dim.scaling not in ("linear", "log"):
                raise InvalidBoundsError(
                    f"dimension {dim.name!r} has unknown scaling {dim.scaling!r}"
                )
        else:
            raise InvalidBoundsError(
                f"dimension {dim.name!r} has unknown kind {dim.kind!r}"
            )
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
