"""Frobenius projection onto matrices with unit row and column sums.

The projection B* = (I-J)A(I-J) + J (J the uniform matrix) is the unique
closest matrix to A, in Frobenius distance, among all matrices whose rows and
columns sum to 1.  For a stochastic A it simplifies to A - JA + J, whose
entries are a_ij + (1 - x_j)/n; the per-column slack condition below decides
exactly when that projection is still entrywise nonnegative, i.e. doubly
stochastic, in which case it is also cospectral to A.
"""

from __future__ import annotations

from fractions import Fraction

from .balance import _balanced, _columns
from .core import RatMatrix, _Record, frobenius_distance_sq
from .errors import InfeasibleError, PreconditionError

__all__ = [
    "ColumnSlack",
    "DsConditionReport",
    "ds_condition",
    "cospectral_ds",
    "nearest_ds",
    "nearest_ds_distance_sq",
]


class ColumnSlack(_Record):
    """Slack record for one column (1-based index j): slack = 1 + n*a_j - x_j."""

    __slots__ = ("j", "x", "a", "slack")

    def __init__(self, j: int, x: Fraction, a: Fraction, slack: Fraction):
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "slack", slack)


class DsConditionReport(_Record):
    """Outcome of the per-column slack test on a stochastic matrix.

    ``holds`` iff every slack is nonnegative, which happens exactly when the
    Frobenius projection onto unit row/column sums stays entrywise
    nonnegative.  ``first_violation`` is the smallest offending column
    (1-based) or None.
    """

    __slots__ = ("holds", "per_column", "first_violation")

    def __init__(
        self, holds: bool, per_column: tuple[ColumnSlack, ...], first_violation: int | None
    ):
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "per_column", per_column)
        object.__setattr__(self, "first_violation", first_violation)

    def to_text(self) -> str:
        lines = [
            f"j={c.j} x={c.x} a={c.a} slack={c.slack}" for c in self.per_column
        ]
        lines.append(f"holds={'true' if self.holds else 'false'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "holds": self.holds,
                "per_column": [
                    {
                        "j": c.j,
                        "x_j": str(c.x),
                        "a_j": str(c.a),
                        "slack": str(c.slack),
                    }
                    for c in self.per_column
                ],
                "first_violation": self.first_violation,
            }
        )


def ds_condition(a: RatMatrix) -> DsConditionReport:
    """Evaluate the slack x_j <= 1 + n*a_j for every column of a stochastic matrix.

    This is balancing at eps = 0: slack_j = 1 - (x_j - n*a_j), so the
    condition holds iff ``epsilon_threshold(a) <= 0``.
    """
    return _slack_report(*_columns(a))


def _slack_report(n, r, x, mins, bounds) -> DsConditionReport:
    if r != 1:
        raise PreconditionError("matrix must be stochastic")
    records = tuple(ColumnSlack(j + 1, x[j], mins[j], 1 - bounds[j]) for j in range(n))
    violations = [c.j for c in records if c.slack < 0]
    return DsConditionReport(
        holds=not violations,
        per_column=records,
        first_violation=violations[0] if violations else None,
    )


def cospectral_ds(a: RatMatrix) -> RatMatrix:
    """Doubly stochastic matrix exactly cospectral to a stochastic one.

    Entries are a_ij + (1 - x_j)/n, i.e. ``balance(a, 0)``; the slacks come
    from the same column pass.  Refuses a negative slack, which would give
    negative entries; the raw projection is :func:`nearest_ds`.
    """
    n, r, x, mins, bounds = _columns(a)
    report = _slack_report(n, r, x, mins, bounds)
    if not report.holds:
        raise InfeasibleError(
            f"column {report.first_violation} has negative slack; "
            "no doubly stochastic cospectral form from this construction",
            column=report.first_violation,
            report=report,
        )
    return _balanced(a, n, r, x, bounds, 0)


def nearest_ds(a: RatMatrix) -> RatMatrix:
    """Frobenius-nearest matrix with all row and column sums 1.

    Defined for any square matrix as (I-J)A(I-J) + J, computed in one O(n^2)
    pass from the closed form b_ij = a_ij - r_i/n - x_j/n + (s/n + 1)/n, with
    r_i the row sums, x_j the column sums and s the total.  Entries of the
    output may be negative; classify() tells whether it is doubly stochastic.
    """
    n = a.require_square()
    r = a.row_sums()
    x = a.col_sums()
    c = (sum(r) / n + 1) / n
    u = [c - r_i / n for r_i in r]
    w = [x_j / n for x_j in x]
    return RatMatrix(
        [[e + u_i - w_j for e, w_j in zip(row, w)] for row, u_i in zip(a.rows, u)]
    )


def nearest_ds_distance_sq(a: RatMatrix) -> Fraction:
    """Exact squared Frobenius gap between a matrix and its projection."""
    return frobenius_distance_sq(a, nearest_ds(a))
