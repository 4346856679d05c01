"""Column balancing: nonnegative generalized doubly stochastic cospectral forms.

Adding a constant offset y_j to every entry of column j keeps all non-dominant
eigenvalues fixed while moving the row-sum eigenvalue by sum(y).  Equalizing
row and column sums pins the offsets to a one-parameter line; this module
exposes that line through the dominant-eigenvalue shift eps, its least
feasible value (the nonnegativity threshold), and the matrices it produces.

The internal parameter y_m (offset of the heaviest column) relates to eps by
eps = n*y_m + x_m - r; both thresholds are reported.

Everything here is exact.  The float diagonal scaling onto constant row sums,
``normalize_to_stochastic``, lives in :mod:`dstoch.orthogonal`.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    RatMatrix,
    _as_fraction,
    _Record,
    _require_constant_row_sums,
    column_stats,
    format_matrix,
)
from .errors import InfeasibleError, PreconditionError

__all__ = [
    "BalanceReport",
    "balance_offsets",
    "epsilon_threshold",
    "balance",
    "balance_minimal",
    "balance_nr",
]


def _columns(a: RatMatrix):
    """Check a once (square, nonnegative, constant row sums) and return
    n, r, column sums x, column minima, and the column bounds x_j - n*a_j
    whose maximum minus r is the threshold."""
    x, mins = column_stats(a)
    n = len(x)
    if min(mins) < 0:
        raise PreconditionError("matrix must be entrywise nonnegative")
    r = _require_constant_row_sums(a)
    return n, r, x, mins, [x[j] - n * mins[j] for j in range(n)]


def _balanced(a: RatMatrix, n, r, x, eps) -> RatMatrix:
    """Entries a_ij + (r + eps - x_j)/n.  Only :func:`balance` tests its
    shift against the threshold; no other caller's shift can lie below it."""
    offsets = [Fraction(r + eps - x_j, n) for x_j in x]
    return RatMatrix([[e + y for e, y in zip(row, offsets)] for row in a.rows])


def _heaviest_column(x: tuple[Fraction, ...]) -> int:
    # ties break to the smallest index; the balanced family does not depend
    # on this choice, only the reported y parameterization does
    return x.index(max(x))


def _thresholds(n, r, x, bounds) -> tuple[int, Fraction, Fraction]:
    """The heaviest column m (0-based), the least feasible shift eps_min, and
    the offset y_m = (eps_min + r - x_m)/n of column m at that shift."""
    m = _heaviest_column(x)
    eps_min = max(bounds) - r
    return m, eps_min, Fraction(eps_min + r - x[m], n)


class BalanceReport(_Record):
    """Full description of the balanced family of one matrix.

    Column indices (``m``, ``tight_columns``) are 1-based, matching the
    usual column numbering in hand calculations.  ``y_threshold`` is the
    least feasible offset of the heaviest column; ``epsilon_threshold`` the
    least feasible dominant-eigenvalue shift; ``b_min`` the matrix at the
    threshold, which is nonnegative with a zero entry in a tight column.
    """

    __slots__ = (
        "r", "x", "a", "m", "y_threshold", "epsilon_threshold", "b_min", "tight_columns"
    )

    def to_text(self) -> str:
        lines = [
            f"r = {self.r}",
            f"x = {' '.join(str(v) for v in self.x)}",
            f"a = {' '.join(str(v) for v in self.a)}",
            f"m = {self.m}",
            f"y_threshold = {self.y_threshold}",
            f"epsilon_threshold = {self.epsilon_threshold}",
            f"tight_columns = {' '.join(str(j) for j in sorted(self.tight_columns))}",
            "B_min =",
            format_matrix(self.b_min),
        ]
        return "\n".join(lines)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "r": str(self.r),
                "x": [str(v) for v in self.x],
                "a": [str(v) for v in self.a],
                "m": self.m,
                "y_threshold": str(self.y_threshold),
                "epsilon_threshold": str(self.epsilon_threshold),
                "B_min": [[str(e) for e in row] for row in self.b_min.rows],
                "tight_columns": sorted(self.tight_columns),
            }
        )


def balance_offsets(a: RatMatrix, y_m) -> tuple[Fraction, ...]:
    """Column offsets equalizing row and column sums, parameterized by the
    offset of the heaviest column: y_j = y_m + (x_m - x_j)/n."""
    n = a.require_square()
    _require_constant_row_sums(a)
    x = a.col_sums()
    m = _heaviest_column(x)
    y_m = _as_fraction(y_m)
    return tuple(y_m + Fraction(x[m] - x[j], n) for j in range(n))


def epsilon_threshold(a: RatMatrix) -> Fraction:
    """Least dominant-eigenvalue shift keeping the balanced matrix nonnegative.

    Equals max_j(x_j - n*a_j) - r over column sums x and column minima a;
    always at least -r.
    """
    _, r, _, _, bounds = _columns(a)
    return max(bounds) - r


def balance(a: RatMatrix, eps) -> RatMatrix:
    """The balanced matrix with dominant eigenvalue r + eps.

    Entries are a_ij + (r + eps - x_j)/n: nonnegative, all row and column
    sums r + eps, and cospectral to the input away from the dominant
    eigenvalue.  The threshold is tested here, where the shift comes from the
    caller: a shift below it raises :class:`InfeasibleError`.
    """
    n, r, x, _, bounds = _columns(a)
    eps = _as_fraction(eps)
    top = max(bounds)
    threshold = top - r
    if eps < threshold:
        worst = bounds.index(top) + 1
        raise InfeasibleError(
            f"shift {eps} is below the nonnegativity threshold {threshold} "
            f"(column {worst} is binding)",
            column=worst,
            threshold=threshold,
        )
    return _balanced(a, n, r, x, eps)


def balance_minimal(a: RatMatrix) -> BalanceReport:
    """The balanced family at its threshold, with both parameterizations."""
    n, r, x, mins, bounds = _columns(a)
    m, eps_min, y_min = _thresholds(n, r, x, bounds)
    top = eps_min + r
    tight = frozenset(j + 1 for j, bound in enumerate(bounds) if bound == top)
    b_min = _balanced(a, n, r, x, eps_min)
    return BalanceReport(r, x, mins, m + 1, y_min, eps_min, b_min, tight)


def balance_nr(a: RatMatrix) -> RatMatrix:
    """Balanced form with every row and column sum equal to n*r.

    The shift (n-1)r is always feasible: entries are bounded by the row sum,
    so every column sum is at most n*r.  The output's sums do not depend on
    the input's entries, only on its order and row sum.
    """
    n, r, x, _, _ = _columns(a)
    return _balanced(a, n, r, x, (n - 1) * r)
