"""Exact rational constructions for stochastic and doubly stochastic spectra.

The exact half works over arbitrary-precision rationals: classification of
row/column-sum structure, characteristic polynomials, rank-r spectrum
perturbations, the column-balancing family with its nonnegativity threshold,
and the Frobenius projection onto unit row/column sums.  It uses the standard
library only.  The floating half, :mod:`dstoch.orthogonal`, realizes
conjugate-closed spectra by embedding their real normal block orthogonally,
and normalizes nonnegative matrices to constant row sums.  It alone has a
third-party dependency.

``core``, ``errors`` and ``balance`` load with the package; the names of
``nearness``, ``rado``, ``spectra`` and ``orthogonal`` load their module on
first access, so that a process imports only the modules it uses.
"""

from .balance import *
from .core import *
from .errors import *

__version__ = "0.1.0"

#: the lazily loaded submodules and the names each one exports here
_LAZY_MODULES = {
    "nearness": (
        "ColumnSlack",
        "DsConditionReport",
        "cospectral_ds",
        "ds_condition",
        "nearest_ds",
        "nearest_ds_distance_sq",
    ),
    "rado": ("RadoUpdate", "rado_update", "shift", "shift_nonneg_threshold"),
    "spectra": (
        "Poly",
        "SpectrumList",
        "charpoly",
        "companion",
        "cospectral",
        "format_poly",
        "nullspace",
        "parse_spectrum",
        "poly_from_spectrum",
        "similar_to_unit_sums",
    ),
    "orthogonal": (
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
    ),
}

#: name -> the submodule it comes from; a submodule's own name maps to itself
_LAZY = {
    name: module for module, names in _LAZY_MODULES.items() for name in (module, *names)
}

__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_LAZY))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)
