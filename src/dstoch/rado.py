"""Rado's rank-r spectrum perturbation and the uniform Perron shift.

``rado_update`` replaces r chosen eigenvalues of A by those of L + CX while
leaving the remaining spectrum untouched; ``shift`` is the rank-one special
case along the all-ones eigenvector, which moves only the common row-sum
eigenvalue.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import RatMatrix, _as_fraction, _common_row_sum
from .errors import DimensionError, PreconditionError

__all__ = ["RadoUpdate", "rado_update", "shift", "shift_nonneg_threshold"]


class RadoUpdate:
    """A validated perturbation A -> A + XC.

    ``x`` is n-by-r with eigenvector columns of ``a``, ``eigenvalues`` lists
    the corresponding r eigenvalues, and ``c`` is an arbitrary r-by-n matrix.
    Eigenvector equations are checked exactly on construction; approximate
    eigenvectors are rejected.
    """

    __slots__ = ("x", "c", "eigenvalues")

    def __init__(self, a: RatMatrix, x: RatMatrix, c: RatMatrix, eigenvalues: Sequence):
        self.x = x
        self.c = c
        self.eigenvalues = tuple(_as_fraction(v) for v in eigenvalues)
        self.validate(a)

    def validate(self, a: RatMatrix) -> None:
        n = a.require_square()
        r = self.x.n_cols
        if r > n or self.x.n_rows != n:
            raise DimensionError(f"eigenvector block must be {n}-by-(r<={n})")
        if self.c.shape != (r, n):
            raise DimensionError(f"update block must be {r}-by-{n}")
        if len(self.eigenvalues) != r:
            raise DimensionError(f"need {r} eigenvalues, got {len(self.eigenvalues)}")
        ax = a @ self.x
        for k in range(r):
            col = self.x.col(k)
            if all(e == 0 for e in col):
                raise PreconditionError(f"column {k + 1} is zero, not an eigenvector")
            lam = self.eigenvalues[k]
            if any(ax[i, k] != lam * col[i] for i in range(n)):
                raise PreconditionError(
                    f"column {k + 1} is not an eigenvector for eigenvalue {lam}"
                )


def rado_update(a: RatMatrix, update: RadoUpdate) -> RatMatrix:
    """Apply the perturbation: returns A + XC.

    The result's spectrum replaces the r supplied eigenvalues with those of
    L + CX (L the diagonal of the supplied eigenvalues), certified by the
    exact identity charpoly(A+XC) * charpoly(L) = charpoly(L+CX) * charpoly(A).
    """
    update.validate(a)
    return a + update.x @ update.c


def shift(a: RatMatrix, eps) -> RatMatrix:
    """Add eps times the uniform matrix, moving the row-sum eigenvalue by eps.

    Requires constant row sums; every other eigenvalue is preserved, and
    row/column-sum structure is preserved with r shifted to r + eps.
    """
    n = a.require_square()
    if _common_row_sum(a) is None:
        raise PreconditionError("shift requires constant row sums")
    e = _as_fraction(eps) / n
    return RatMatrix([[v + e for v in row] for row in a.rows])


def shift_nonneg_threshold(a: RatMatrix) -> Fraction:
    """Least eps making shift(a, eps) entrywise nonnegative.

    The uniform matrix has entries 1/n, so lifting the most negative entry m
    to zero takes eps = n * max(0, -m).
    """
    n = a.require_square()
    return n * max(Fraction(0), -a.min_entry())
