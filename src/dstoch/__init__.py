"""Exact rational constructions for stochastic and doubly stochastic spectra.

The exact half works over arbitrary-precision rationals: classification of
row/column-sum structure, characteristic polynomials, rank-r spectrum
perturbations, the column-balancing family with its nonnegativity threshold,
and the Frobenius projection onto unit row/column sums.  It uses the standard
library only.  The floating half, :mod:`dstoch.orthogonal`, realizes
conjugate-closed spectra through orthogonal embeddings of companion matrices
and normalizes nonnegative matrices to constant row sums.  It alone has a
third-party dependency, and its names load on first access.
"""

from .balance import (
    BalanceReport,
    balance,
    balance_minimal,
    balance_nr,
    balance_offsets,
    epsilon_threshold,
)
from .core import (
    RatMatrix,
    StochClass,
    Stochasticity,
    classify,
    column_stats,
    format_matrix,
    frobenius_distance_sq,
    parse_matrix,
    parse_scalar,
    uniform_matrix,
)
from .errors import (
    BasisError,
    ConjugacyError,
    DimensionError,
    DstochError,
    FormatError,
    InfeasibleError,
    MembershipError,
    NormalizationError,
    PerronWarning,
    PreconditionError,
)
from .nearness import (
    ColumnSlack,
    DsConditionReport,
    cospectral_ds,
    ds_condition,
    nearest_ds,
    nearest_ds_distance_sq,
)
from .rado import RadoUpdate, rado_update, shift, shift_nonneg_threshold
from .spectra import (
    Poly,
    SpectrumList,
    charpoly,
    companion,
    cospectral,
    format_poly,
    nullspace,
    parse_spectrum,
    poly_from_spectrum,
    similar_to_unit_sums,
)

__version__ = "0.1.0"

#: names re-exported from dstoch.orthogonal, imported on first access so
#: that the exact half never loads the float dependency
_FLOAT_NAMES = (
    "FloatMatrix",
    "parse_float_matrix",
    "format_float_matrix",
    "charpoly_float",
    "normalize_to_stochastic",
    "OrthoBasis",
    "canonical_basis",
    "random_basis",
    "embed",
    "extract",
    "realize_cospectral",
    "realize_nonneg",
)

__all__ = sorted(
    {name for name in dir() if not name.startswith("_")} | {"orthogonal", *_FLOAT_NAMES}
)


def __getattr__(name: str):
    if name == "orthogonal" or name in _FLOAT_NAMES:
        from importlib import import_module

        orthogonal = import_module(f"{__name__}.orthogonal")
        return orthogonal if name == "orthogonal" else getattr(orthogonal, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
