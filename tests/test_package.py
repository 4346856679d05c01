import importlib

import pytest

import dstoch
import dstoch.orthogonal

#: the package's public names; the float ones load lazily but stay listed
PUBLIC_NAMES = [
    "BalanceReport", "BasisError", "ColumnSlack", "ConjugacyError",
    "DimensionError", "DsConditionReport", "DstochError", "FloatMatrix", "FormatError",
    "InfeasibleError", "MembershipError", "NormalizationError", "OrthoBasis",
    "PerronWarning", "Poly", "PreconditionError", "RadoUpdate", "RatMatrix",
    "SpectrumList", "StochClass", "Stochasticity", "balance", "balance_minimal",
    "balance_nr", "balance_offsets", "canonical_basis", "charpoly", "charpoly_float",
    "classify", "column_stats", "companion", "core", "cospectral", "cospectral_ds",
    "ds_condition", "embed", "epsilon_threshold", "errors", "extract",
    "format_float_matrix", "format_matrix", "format_poly", "frobenius_distance_sq",
    "nearest_ds", "nearest_ds_distance_sq", "nearness", "normalize_to_stochastic",
    "nullspace", "orthogonal", "parse_float_matrix", "parse_matrix", "parse_scalar",
    "parse_spectrum", "poly_from_spectrum", "rado", "rado_update", "random_basis",
    "realize_cospectral", "realize_nonneg", "shift", "shift_nonneg_threshold",
    "similar_to_unit_sums", "spectra", "uniform_matrix",
]

FLOAT_NAMES = [
    "FloatMatrix", "parse_float_matrix", "format_float_matrix", "charpoly_float",
    "normalize_to_stochastic", "OrthoBasis", "canonical_basis", "random_basis",
    "embed", "extract", "realize_cospectral", "realize_nonneg",
]


def test_public_names_unchanged():
    assert sorted(dstoch.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in dstoch.__all__:
        assert getattr(dstoch, name) is not None


def test_float_names_come_from_orthogonal():
    for name in FLOAT_NAMES:
        assert getattr(dstoch, name) is getattr(dstoch.orthogonal, name), name


def test_lazy_name_table_matches_each_module():
    # a name added to a lazy module's __all__ must also enter the table
    for module, names in dstoch._LAZY_MODULES.items():
        loaded = importlib.import_module(f"dstoch.{module}")
        exported = {name for name in loaded.__all__ if not name.endswith("_TOL")}
        assert set(names) == exported, module


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        dstoch.no_such_name
