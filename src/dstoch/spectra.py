"""Characteristic polynomials, spectra, companion matrices, exact nullspaces.

Everything here is exact: the characteristic polynomial is computed by the
Faddeev-LeVerrier recurrence over Python ints after clearing denominators, so
cospectrality is decidable by literal polynomial equality with no root
finding anywhere.  Nullspaces come from fraction-free (Bareiss) Gauss-Jordan
elimination over ints.  The same recurrence over floats, ``charpoly_float``,
lives in :mod:`dstoch.orthogonal`.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from fractions import Fraction
from numbers import Rational
from operator import mul
from typing import Iterable, Sequence

from .core import RatMatrix, _as_fraction, _data_lines, _lcm_denominator, parse_scalar
from .errors import (
    ConjugacyError,
    DimensionError,
    FormatError,
    PerronWarning,
    PreconditionError,
)

__all__ = [
    "Poly",
    "SpectrumList",
    "charpoly",
    "cospectral",
    "poly_from_spectrum",
    "companion",
    "nullspace",
    "similar_to_unit_sums",
    "parse_spectrum",
    "format_poly",
]

class Poly:
    """Polynomial with rational coefficients, stored lowest degree first.

    The zero polynomial is the single coefficient 0; otherwise trailing zero
    coefficients are stripped so the leading coefficient is nonzero.
    """

    __slots__ = ("_c",)

    def __init__(self, coefficients: Iterable):
        c = [_as_fraction(x) for x in coefficients]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if not c:
            c = [Fraction(0)]
        self._c = tuple(c)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._c

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return self._c == (Fraction(0),)

    @property
    def is_monic(self) -> bool:
        return self._c[-1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return f"Poly({' '.join(str(c) for c in self._c)})"

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, x in enumerate(b):
            merged[i] += x
        return Poly(merged)

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self._c])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Rational):
            return Poly([x * other for x in self._c])
        if not isinstance(other, Poly):
            return NotImplemented
        out = [Fraction(0)] * (len(self._c) + len(other._c) - 1)
        for i, x in enumerate(self._c):
            if x == 0:
                continue
            for j, y in enumerate(other._c):
                out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    @classmethod
    def x_minus(cls, root) -> "Poly":
        return cls([-_as_fraction(root), Fraction(1)])


def format_poly(p: Poly) -> str:
    """One line of space-separated coefficients, lowest degree first."""
    return " ".join(str(c) for c in p.coefficients)


def charpoly(a: RatMatrix) -> Poly:
    """Monic characteristic polynomial det(xI - A), exact.

    With D the LCM of all entry denominators, B = D*A is an integer matrix,
    and the Faddeev-LeVerrier recurrence M_k = B M_{k-1} + c_{n-k+1} I,
    c_{n-k} = -tr(B M_k)/k runs over Python ints: the c_i are the integer
    coefficients of det(xI - B), so every division by k is exact.  One D for
    the whole matrix matters, since det(xI - B) = D^n det(x/D I - A) gives
    the coefficient of x^i of A as c_i / D^(n-i).
    """
    n = a.require_square()
    d = _lcm_denominator(e for row in a.rows for e in row)
    b = [[e.numerator * (d // e.denominator) for e in row] for row in a.rows]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    am = [[0] * n for _ in range(n)]
    c = 1
    for k in range(1, n + 1):
        for i in range(n):
            am[i][i] += c
        cols = list(zip(*am))
        am = [[sum(map(mul, row, col)) for col in cols] for row in b]
        c = -sum(am[i][i] for i in range(n)) // k
        coeffs[n - k] = c
    return Poly(Fraction(c_i, d ** (n - i)) for i, c_i in enumerate(coeffs))


def cospectral(a: RatMatrix, b: RatMatrix) -> bool:
    """True iff the two matrices have identical characteristic polynomials."""
    a.require_square()
    b.require_square()
    if a.n_rows != b.n_rows:
        raise DimensionError("cospectrality needs matrices of the same order")
    return charpoly(a) == charpoly(b)


_COMPLEX_RE = re.compile(
    r"^\s*(?P<re>-?\d+(?:/\d+|\.\d+)?)"
    r"(?:\s*(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+|\.\d+)?)\s*[iI])?\s*$"
)


def _parse_complex(token: str) -> tuple[Fraction, Fraction]:
    m = _COMPLEX_RE.match(token)
    if not m:
        raise FormatError(f"bad spectrum entry {token!r}: expected `re` or `re+im i`")
    re_part = parse_scalar(m.group("re"))
    if m.group("im") is None:
        return re_part, Fraction(0)
    im_part = parse_scalar(m.group("im"))
    if m.group("sign") == "-":
        im_part = -im_part
    return re_part, im_part


def _coerce_entry(value) -> tuple[Fraction, Fraction]:
    if isinstance(value, tuple):
        re_part, im_part = value
        return _as_fraction(re_part), _as_fraction(im_part)
    if isinstance(value, complex):
        raise TypeError("pass exact (re, im) pairs, not binary complex numbers")
    return _as_fraction(value), Fraction(0)


def _require_conjugate_closed(entries: Sequence[tuple[Fraction, Fraction]]) -> None:
    """Reject a multiset in which some (re, im) occurs a different number of
    times than its exact conjugate (re, -im)."""
    counts = Counter(entries)
    for (re_k, im_k), count in counts.items():
        partner = counts[re_k, -im_k]
        if partner != count:
            raise ConjugacyError(
                f"entry ({re_k}, {im_k}) occurs {count} times but its conjugate "
                f"{partner} times"
            )


class SpectrumList:
    """Multiset of complex values closed under conjugation, with a designated
    dominant entry.

    Entries are exact (re, im) Fraction pairs; decimal text converts exactly.
    Conjugate closure is validated exactly on construction.  The designated
    entry is expected to be real and to dominate every modulus; a violation is
    reported as a :class:`PerronWarning`, not an error, since the list may be
    a candidate spectrum rather than a realized one.
    """

    __slots__ = ("_entries", "_perron_index")

    def __init__(self, entries: Iterable, perron_index: int = 0):
        items = tuple(_coerce_entry(e) for e in entries)
        if not items:
            raise PreconditionError("spectrum must contain at least one entry")
        if not 0 <= perron_index < len(items):
            raise PreconditionError(f"perron_index {perron_index} out of range")
        _require_conjugate_closed(items)
        self._entries = items
        self._perron_index = perron_index
        self._check_dominance()

    def _check_dominance(self) -> None:
        re_p, im_p = self.perron
        if im_p != 0 or re_p < 0:
            warnings.warn(
                f"designated dominant entry ({re_p}, {im_p}) is not real nonnegative",
                PerronWarning,
                stacklevel=3,
            )
            return
        bound = re_p * re_p
        for re_k, im_k in self._entries:
            if re_k * re_k + im_k * im_k > bound:
                warnings.warn(
                    f"entry ({re_k}, {im_k}) exceeds the designated dominant "
                    f"entry {re_p} in modulus",
                    PerronWarning,
                    stacklevel=3,
                )
                return

    @property
    def entries(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self._entries

    @property
    def perron_index(self) -> int:
        return self._perron_index

    @property
    def perron(self) -> tuple[Fraction, Fraction]:
        return self._entries[self._perron_index]

    @property
    def size(self) -> int:
        return len(self._entries)

    def rest(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """All entries except the designated dominant one."""
        return tuple(
            e for i, e in enumerate(self._entries) if i != self._perron_index
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpectrumList)
            and self._entries == other._entries
            and self._perron_index == other._perron_index
        )

    def __repr__(self) -> str:
        return f"SpectrumList({self._entries!r}, perron_index={self._perron_index})"


def parse_spectrum(text: str) -> SpectrumList:
    """One complex entry per line (`re` or `re+im i` / `re-im i`); the first
    line is the designated dominant entry.  Comments and blank lines as in
    the matrix format."""
    entries = [_parse_complex(line) for line in _data_lines(text)]
    if not entries:
        raise FormatError("no spectrum entries found")
    return SpectrumList(entries)


def poly_from_spectrum(spectrum) -> Poly:
    """Monic real polynomial with the given multiset of roots.

    The entries must be exactly closed under conjugation.  Each entry with
    positive imaginary part and its conjugate enter as one real quadratic,
    so the result is real by construction and exact.
    Accepts a SpectrumList or any iterable of (re, im) pairs / rationals;
    coerces and checks them, then builds the product in
    :func:`_poly_from_closed`.
    """
    if isinstance(spectrum, SpectrumList):
        entries = spectrum.entries
    else:
        entries = tuple(_coerce_entry(e) for e in spectrum)
    _require_conjugate_closed(entries)
    return _poly_from_closed(entries)


def _poly_from_closed(entries: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """The int kernel of :func:`poly_from_spectrum`, which trusts its input.

    ``entries`` must be (Fraction, Fraction) pairs exactly closed under
    conjugation, such as ``SpectrumList.rest()``.  Nothing is checked: an
    entry with negative imaginary part is skipped as the partner of one with
    positive imaginary part, so an unpaired entry gives a wrong polynomial,
    not an error.

    With D the LCM of every real and imaginary denominator, the roots D*re
    + D*im i have integer parts a and b, so each factor x - a or
    x^2 - 2a x + a^2 + b^2 is an int list and their product q runs over
    Python ints.  q has the roots scaled by D, which gives the coefficient
    of x^i as q_i / D^(deg-i), as in :func:`charpoly`.
    """
    d = _lcm_denominator(part for entry in entries for part in entry)
    q = [1]
    for re_k, im_k in entries:
        if im_k < 0:
            continue
        a = re_k.numerator * (d // re_k.denominator)
        if im_k == 0:
            # (x - a) q
            q = [s - a * t for s, t in zip([0, *q], [*q, 0])]
        else:
            b = im_k.numerator * (d // im_k.denominator)
            c = a * a + b * b
            # (x^2 - 2a x + c) q
            q = [
                s - 2 * a * t + c * u
                for s, t, u in zip([0, 0, *q], [0, *q, 0], [*q, 0, 0])
            ]
    deg = len(q) - 1
    return Poly(Fraction(q_i, d ** (deg - i)) for i, q_i in enumerate(q))


def companion(p: Poly) -> RatMatrix:
    """Companion matrix of a monic polynomial: ones on the superdiagonal and
    the negated coefficients (-c0, ..., -c_{k-1}) as the last row."""
    if not p.is_monic:
        raise PreconditionError("companion matrix requires a monic polynomial")
    k = p.degree
    if k < 1:
        raise PreconditionError("companion matrix requires degree >= 1")
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k - 1):
        rows[i][i + 1] = Fraction(1)
    for j in range(k):
        rows[k - 1][j] = -p.coefficients[j]
    return RatMatrix(rows)


def nullspace(a: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Exact basis of the kernel of a square matrix.

    The matrix is made integer by scaling either each row by the LCM of its
    denominators, which leaves the kernel unchanged, or each column, as A C
    with C diagonal, whose kernel vectors v give C v for A.  Every entry of
    the elimination is a minor of the scaled matrix and carries the product
    of the scales, so the side with the smaller product is used (rows for
    A - I with A stochastic, columns for its transpose).

    Fraction-free Gauss-Jordan elimination then runs over ints:
    m[r] <- (p*m[r] - f*m[pivot row]) / prev, where p is the new pivot and
    prev the one before it, and the division is exact (Bareiss).  Pivots are
    the first nonzero entry per column, which keeps the output deterministic;
    at the end every pivot row holds the last pivot, so the basis is read off
    the reduced row echelon form exactly.  Returns an empty list when the
    matrix is nonsingular.
    """
    n = a.require_square()
    row_scale = [_lcm_denominator(row) for row in a.rows]
    col_scale = [_lcm_denominator(col) for col in zip(*a.rows)]
    if sum(map(int.bit_length, row_scale)) <= sum(map(int.bit_length, col_scale)):
        col_scale = [1] * n
    else:
        row_scale = [1] * n
    m = [
        [e.numerator * (r_i * c_j // e.denominator) for e, c_j in zip(row, col_scale)]
        for row, r_i in zip(a.rows, row_scale)
    ]
    pivot_cols: list[int] = []
    row = 0
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(row, n) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        top = m[row]
        p = top[col]
        for r in range(n):
            if r != row:
                f = m[r][col]
                m[r] = [(p * e - f * t) // prev for e, t in zip(m[r], top)]
        prev = p
        pivot_cols.append(col)
        row += 1
        if row == n:
            break
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, c in enumerate(pivot_cols):
            v[c] = Fraction(-m[r][free] * col_scale[c], prev * col_scale[free])
        basis.append(tuple(v))
    return basis


def similar_to_unit_sums(a: RatMatrix) -> bool:
    """Decide whether a matrix with eigenvalue 1 is similar to a matrix whose
    rows and columns all sum to 1.

    The criterion is that the left and right eigenspaces for the eigenvalue 1
    are not orthogonal: some pair of basis vectors has nonzero inner product.
    Requires 1 to be an eigenvalue (exactly); rescale beforehand otherwise.
    """
    n = a.require_square()
    ident = RatMatrix.identity(n)
    right = nullspace(a - ident)
    if not right:
        raise PreconditionError("1 must be an eigenvalue of the matrix")
    left = nullspace(a.transpose() - ident)
    return any(
        sum(x * y for x, y in zip(lv, rv)) != 0 for lv in left for rv in right
    )
