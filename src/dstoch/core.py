"""Exact rational dense matrices with stochasticity predicates.

Scalars are :class:`fractions.Fraction` throughout, so every construction
built on top of this module is bit-reproducible.  Matrices are immutable
values; operations return new objects.  The float matrix type lives in
:mod:`dstoch.orthogonal`.
"""

from __future__ import annotations

import enum
import re
import sys
from collections.abc import Iterable
from fractions import Fraction
from math import lcm
from numbers import Rational

from .errors import DimensionError, FormatError, PreconditionError

__all__ = [
    "RatMatrix",
    "StochClass",
    "Stochasticity",
    "uniform_matrix",
    "column_stats",
    "classify",
    "frobenius_distance_sq",
    "parse_scalar",
    "parse_matrix",
    "format_matrix",
]


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        # floats are rejected: exact constructions must never absorb rounding
        raise TypeError("exact constructions take Fraction/int values, not float")
    return Fraction(value)


class _Grid:
    """Shape rules shared by the exact and the float matrix types: each
    defines ``n_rows`` and ``n_cols`` and builds from nested lists."""

    __slots__ = ()

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int | None = None):
        n_cols = n_rows if n_cols is None else n_cols
        return cls([[0] * n_cols for _ in range(n_rows)])

    @classmethod
    def identity(cls, n: int):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.n_cols

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def require_square(self) -> int:
        n = self.n_rows
        if n != self.n_cols:
            raise DimensionError(f"matrix must be square, got {self.shape}")
        return n

    def _require_same_shape(self, other) -> None:
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} vs {other.shape}")


class RatMatrix(_Grid):
    """Dense matrix of exact rationals, stored row-major and immutable."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable]):
        grid = tuple(tuple(_as_fraction(e) for e in row) for row in rows)
        if not grid or not grid[0]:
            raise DimensionError("matrix must have at least one row and column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise DimensionError("all rows must have the same length")
        self._rows = grid

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        return len(self._rows[0])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self._rows)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self._rows)
        return f"RatMatrix({self.n_rows}x{self.n_cols}: {body})"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return RatMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return RatMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)]
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-e for e in row] for row in self._rows])

    def __mul__(self, scalar) -> "RatMatrix":
        if not isinstance(scalar, Rational):
            return NotImplemented
        c = Fraction(scalar)
        return RatMatrix([[e * c for e in row] for row in self._rows])

    __rmul__ = __mul__

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.n_cols != other.n_rows:
            raise DimensionError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        cols = list(zip(*other._rows))
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._rows]
        )

    def transpose(self) -> "RatMatrix":
        return RatMatrix(list(zip(*self._rows)))

    @property
    def T(self) -> "RatMatrix":
        return self.transpose()

    def trace(self) -> Fraction:
        self.require_square()
        return sum(self._rows[i][i] for i in range(self.n_rows))

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row) for row in self._rows)

    def col_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(col) for col in zip(*self._rows))

    def min_entry(self) -> Fraction:
        return min(min(row) for row in self._rows)

    def is_nonnegative(self) -> bool:
        return all(e >= 0 for row in self._rows for e in row)


class Stochasticity(enum.Enum):
    """Row/column-sum structure tags, from least to most specific."""

    GENERAL = "GENERAL"
    NONNEGATIVE_ONLY = "NONNEGATIVE_ONLY"
    R_GEN_STOCHASTIC = "R_GEN_STOCHASTIC"
    R_GEN_DOUBLY_STOCHASTIC = "R_GEN_DOUBLY_STOCHASTIC"
    STOCHASTIC = "STOCHASTIC"
    DOUBLY_STOCHASTIC = "DOUBLY_STOCHASTIC"


class _Record:
    """Base of the immutable result records: their fields are ``__slots__``,
    bound once by ``__init__`` from positional or keyword arguments, with
    defaults from ``_defaults``; records compare and hash as their field
    tuple, only against the same class, and print like a dataclass."""

    __slots__ = ()
    #: field name -> default, for the fields a caller may leave out
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            # bind the fields as a call binds its arguments
            kind = type(self).__qualname__
            if len(args) > len(names):
                raise TypeError(f"{kind}() takes {len(names)} fields but {len(args)} were given")
            given = dict(zip(names, args))
            for name in kwargs:
                if name not in names or name in given:
                    raise TypeError(f"{kind}() got an unknown or repeated field {name!r}")
            values = {**self._defaults, **given, **kwargs}
            missing = [name for name in names if name not in values]
            if missing:
                raise TypeError(f"{kind}() is missing the fields {', '.join(missing)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class StochClass(_Record):
    """Classification result: the most specific tag plus the row-sum value.

    ``r`` is None exactly when the tag carries no row-sum information
    (GENERAL, NONNEGATIVE_ONLY).
    """

    __slots__ = ("tag", "r")
    _defaults = {"r": None}

    def __str__(self) -> str:
        if self.r is None:
            return self.tag.value
        return f"{self.tag.value} r={self.r}"


def uniform_matrix(n: int) -> RatMatrix:
    """The n-by-n matrix with every entry 1/n: the rank-one averaging projector."""
    if n < 1:
        raise DimensionError("order must be at least 1")
    e = Fraction(1, n)
    return RatMatrix([[e] * n for _ in range(n)])


def column_stats(a: RatMatrix) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Per-column sums and minima of a square matrix, as two n-vectors."""
    a.require_square()
    cols = list(zip(*a.rows))
    return tuple(sum(c) for c in cols), tuple(min(c) for c in cols)


def _common_row_sum(a: RatMatrix) -> Fraction | None:
    """The row sum shared by every row, or None when the rows differ."""
    sums = a.row_sums()
    return sums[0] if all(s == sums[0] for s in sums) else None


def _require_constant_row_sums(a: RatMatrix) -> Fraction:
    r = _common_row_sum(a)
    if r is None:
        raise PreconditionError("matrix must have constant row sums")
    return r


def classify(a: RatMatrix) -> StochClass:
    """Most specific stochasticity tag, with row/column sums tested exactly.

    A constant row sum r with all column sums also equal to r yields the
    doubly stochastic tags; nonnegativity plus r = 1 upgrades to the
    unqualified STOCHASTIC / DOUBLY_STOCHASTIC names.
    """
    a.require_square()
    r = _common_row_sum(a)
    nonneg = a.is_nonnegative()
    if r is None:
        tag = Stochasticity.NONNEGATIVE_ONLY if nonneg else Stochasticity.GENERAL
        return StochClass(tag)
    doubly = all(s == r for s in a.col_sums())
    if doubly:
        if nonneg and r == 1:
            return StochClass(Stochasticity.DOUBLY_STOCHASTIC, r)
        return StochClass(Stochasticity.R_GEN_DOUBLY_STOCHASTIC, r)
    if nonneg and r == 1:
        return StochClass(Stochasticity.STOCHASTIC, r)
    return StochClass(Stochasticity.R_GEN_STOCHASTIC, r)


def _lcm_denominator(entries: Iterable[Fraction]) -> int:
    return lcm(*(e.denominator for e in entries))


def _cleared(rows) -> tuple[int, list[list[int]]]:
    """The integer form of rows of Fractions: D, the LCM of every
    denominator, and the rows times D, each entry an int."""
    d = _lcm_denominator(e for row in rows for e in row)
    return d, [[e.numerator * (d // e.denominator) for e in row] for row in rows]


def frobenius_distance_sq(a: RatMatrix, b: RatMatrix) -> Fraction:
    """Squared Frobenius distance; squared so the value stays rational.

    With D the LCM of every denominator of both matrices, D*x - D*y is an
    int for each entry pair, so the sum of squares runs over Python ints and
    is divided by D^2 once.
    """
    a._require_same_shape(b)
    d, ints = _cleared(a.rows + b.rows)
    n = a.n_rows
    total = sum(
        (x - y) ** 2 for r1, r2 in zip(ints[:n], ints[n:]) for x, y in zip(r1, r2)
    )
    return Fraction(total, d * d)


#: one unsigned number of the text grammar: an integer, p/q or a decimal
_NUMBER = r"\d+(?:/\d+|\.\d+)?"
_ENTRY_RE = re.compile(rf"-?{_NUMBER}$")


def parse_scalar(token: str) -> Fraction:
    """Parse one entry: integer, fraction p/q, or decimal, all exact."""
    token = token.strip()
    if not _ENTRY_RE.match(token):
        raise FormatError(f"bad entry {token!r}: expected integer, p/q or decimal")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise FormatError(f"bad entry {token!r}: zero denominator") from None
    except ValueError:
        # int() refuses a digit string longer than this interpreter's limit
        raise FormatError(
            f"bad entry {token[:20]}... ({len(token)} characters): more than "
            f"{sys.get_int_max_str_digits()} digits in one integer"
        ) from None


def _data_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _parse_rows(text: str, entry) -> list[list]:
    """The matrix text grammar: one row per data line, whitespace-separated
    tokens each read by ``entry``, at least one row and all of one length."""
    rows = [[entry(tok) for tok in line.split()] for line in _data_lines(text)]
    if not rows:
        raise FormatError("no matrix rows found")
    if len({len(r) for r in rows}) != 1:
        raise FormatError("all rows must have the same number of entries")
    return rows


def parse_matrix(text: str) -> RatMatrix:
    """Parse the canonical matrix text format into an exact matrix.

    One row per non-empty line, entries separated by whitespace, ``#``
    starts a comment, blank lines are ignored.  Decimal entries convert
    exactly (powers of ten), so parsing is bit-exact.
    """
    return RatMatrix(_parse_rows(text, parse_scalar))


def format_matrix(a: RatMatrix) -> str:
    """Canonical text form: lowest-terms entries, single spaces, one row per line."""
    return "\n".join(" ".join(str(e) for e in row) for row in a.rows)
