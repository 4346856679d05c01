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
from .core import RatMatrix, _Record
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


class DsConditionReport(_Record):
    """Outcome of the per-column slack test on a stochastic matrix.

    ``holds`` iff every slack is nonnegative, which happens exactly when the
    Frobenius projection onto unit row/column sums stays entrywise
    nonnegative.  ``first_violation`` is the smallest offending column
    (1-based) or None.
    """

    __slots__ = ("holds", "per_column", "first_violation")

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
    return DsConditionReport(not violations, records, violations[0] if violations else None)


def cospectral_ds(a: RatMatrix) -> RatMatrix:
    """Doubly stochastic matrix exactly cospectral to a stochastic one.

    Entries are a_ij + (1 - x_j)/n, i.e. ``balance(a, 0)``, built once the
    slacks from the same column pass show the shift 0 feasible.  Refuses a
    negative slack; the raw projection is :func:`nearest_ds`.
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
    return _balanced(a, n, r, x, 0)


def _gap(a: RatMatrix) -> tuple[list[Fraction], list[Fraction]]:
    """The gap A - B* to the projection B*, as p 1^T + 1 q^T.

    With r_i the row sums, x_j the column sums and s the total of a square
    matrix, p_i = (r_i - s/n)/n and q_j = (x_j - 1)/n; p sums to 0.
    """
    n = a.require_square()
    r = a.row_sums()
    mean = sum(r) / n
    return [(r_i - mean) / n for r_i in r], [(x_j - 1) / n for x_j in a.col_sums()]


def nearest_ds(a: RatMatrix) -> RatMatrix:
    """Frobenius-nearest matrix with all row and column sums 1.

    Defined for any square matrix as (I-J)A(I-J) + J, computed in one O(n^2)
    pass as b_ij = a_ij - p_i - q_j from the row and column terms of
    :func:`_gap`.  Entries of the output may be negative; classify() tells
    whether it is doubly stochastic.
    """
    p, q = _gap(a)
    return RatMatrix(
        [[e - p_i - q_j for e, q_j in zip(row, q)] for row, p_i in zip(a.rows, p)]
    )


def nearest_ds_distance_sq(a: RatMatrix) -> Fraction:
    """Exact squared Frobenius gap between a matrix and its projection.

    The gap is p 1^T + 1 q^T with p summing to 0 (:func:`_gap`), so its
    squared norm is n(|p|^2 + |q|^2), read without building the projection.
    """
    p, q = _gap(a)
    return len(p) * (sum(v * v for v in p) + sum(v * v for v in q))
