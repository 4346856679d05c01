import argparse
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dstoch
import dstoch.orthogonal
from dstoch import format_matrix, nearest_ds, parse_float_matrix, parse_matrix
from dstoch.cli import build_parser, run
from oracles import A_UNEVEN, A_ZEROCOL, B_PROJ, X_MIN


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, m in [("a", A_UNEVEN), ("z", A_ZEROCOL), ("b", B_PROJ)]:
        p = tmp_path / f"{name}.mat"
        p.write_text(format_matrix(m) + "\n", encoding="utf-8")
        paths[name] = str(p)
    spectrum = tmp_path / "s.spectrum"
    spectrum.write_text("1\n0\n1/4\n", encoding="utf-8")
    paths["spectrum"] = str(spectrum)
    # a rank-one update of diag(2, 1) along its eigenvector e_1, for rado
    for name, text in [("diag", "2 0\n0 1\n"), ("x", "1\n0\n"), ("c", "1/3 -1/5\n")]:
        p = tmp_path / f"{name}.mat"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def out_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


class TestBasics:
    def test_classify(self, files, capsys):
        assert run(["classify", files["b"]]) == 0
        assert out_lines(capsys) == ["DOUBLY_STOCHASTIC r=1"]

    def test_classify_json(self, files, capsys):
        assert run(["classify", files["a"], "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"tag": "STOCHASTIC", "r": "1"}

    def test_colstats(self, files, capsys):
        assert run(["colstats", files["a"]]) == 0
        assert out_lines(capsys) == ["x: 3/4 3/4 3/2", "a: 1/6 1/6 1/3"]

    def test_charpoly(self, files, capsys):
        assert run(["charpoly", files["a"]]) == 0
        assert out_lines(capsys) == ["0 1/4 -5/4 1"]

    def test_cospectral_exit_codes(self, files, capsys):
        assert run(["cospectral", files["z"], files["b"]]) == 0
        assert run(["cospectral", files["a"], files["b"]]) == 1

    def test_check41(self, files, capsys):
        assert run(["check41", files["z"]]) == 0
        assert out_lines(capsys) == ["true"]


class TestConstructions:
    def test_balance_prints_known_matrix(self, files, capsys):
        assert run(["balance", "--eps", "-1/2", files["a"]]) == 0
        assert capsys.readouterr().out.strip() == format_matrix(X_MIN)

    def test_threshold_prints_both(self, files, capsys):
        assert run(["threshold", files["a"]]) == 0
        assert out_lines(capsys) == ["epsilon_threshold = -1/2", "y_threshold = -1/3"]

    def test_threshold_does_not_build_b_min(self, files, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("threshold built the balanced matrix")

        # dstoch.balance is the function, so the module comes from importlib
        monkeypatch.setattr(importlib.import_module("dstoch.balance"), "_balanced", refuse)
        assert run(["threshold", files["a"]]) == 0
        assert out_lines(capsys) == ["epsilon_threshold = -1/2", "y_threshold = -1/3"]

    def test_balance_min_json(self, files, capsys):
        assert run(["balance-min", files["a"], "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["epsilon_threshold"] == "-1/2"
        assert data["B_min"] == [["1/4", "1/4", "0"], ["1/6", "1/6", "1/6"], ["1/12", "1/12", "1/3"]]

    def test_shift(self, files, capsys):
        assert run(["shift", "--eps", "1/2", files["a"]]) == 0
        got = parse_matrix(capsys.readouterr().out)
        assert got.row_sums() == (Fraction(3, 2),) * 3

    def test_t33(self, files, capsys):
        assert run(["t33", files["a"]]) == 0
        got = parse_matrix(capsys.readouterr().out)
        assert got.row_sums() == (3, 3, 3)
        assert got.col_sums() == (3, 3, 3)

    def test_check4_exit_codes(self, files, capsys, tmp_path):
        assert run(["check4", files["z"]]) == 0
        assert "holds=true" in capsys.readouterr().out
        bad = tmp_path / "bad.mat"
        bad.write_text("0 0 1\n0 0 1\n1 0 0\n", encoding="utf-8")
        assert run(["check4", str(bad)]) == 1

    def test_cospectral_ds(self, files, capsys):
        assert run(["cospectral-ds", files["z"]]) == 0
        assert capsys.readouterr().out.strip() == format_matrix(B_PROJ)

    def test_nearest_and_distance(self, files, capsys):
        assert run(["nearest", files["z"]]) == 0
        assert parse_matrix(capsys.readouterr().out) == B_PROJ
        assert run(["nearest", files["z"], "--distance"]) == 0
        assert capsys.readouterr().out.strip() == "1/2"

    def test_rado(self, files, capsys):
        assert run(["rado", files["diag"], files["x"], files["c"], "--eigenvalues", "2"]) == 0
        assert parse_matrix(capsys.readouterr().out) == parse_matrix("7/3 -1/5\n0 1")


class TestFloatCommands:
    def test_embed_extract_round_trip(self, files, capsys, tmp_path):
        x = tmp_path / "x.mat"
        x.write_text("1/5 3/10\n1/10 9/10\n", encoding="utf-8")
        assert run(["embed", str(x)]) == 0
        embedded = capsys.readouterr().out
        emb = tmp_path / "emb.mat"
        emb.write_text(embedded, encoding="utf-8")
        assert run(["extract", str(emb)]) == 0
        got = parse_float_matrix(capsys.readouterr().out)
        want = parse_float_matrix(x.read_text(encoding="utf-8"))
        assert got.allclose(want, 1e-9)

    def test_realize_report(self, files, capsys):
        assert run(["realize", files["spectrum"]]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        report = json.loads(out[-1].lstrip("# "))
        assert set(report) == {"k", "abs_min_entry", "row_sum", "charpoly_residual", "eig_err"}
        # the normal block diag(0, 1/4) embeds to a nonnegative matrix; the
        # companion block's 0.7075... is pinned in test_orthogonal
        assert report["k"] == 0.0
        assert abs(report["row_sum"] - (1 + report["k"])) < 1e-9
        assert report["charpoly_residual"] < 1e-9
        assert report["eig_err"] <= 1e-12
        # matrix plus trailing comment still parses as the matrix
        m = parse_float_matrix("\n".join(out))
        assert m.n_rows == 3

    def test_perron_warning_is_one_line(self, tmp_path, capsys):
        s = tmp_path / "w.spectrum"
        s.write_text("1\n1/2\n2\n", encoding="utf-8")
        assert run(["realize", str(s)]) == 0
        err = capsys.readouterr().err
        assert err == "warning: entry (2, 0) exceeds the designated dominant entry 1 in modulus\n"

    def test_realize_builds_its_realization_once(self, files, capsys, monkeypatch):
        # one realization is one realize_cospectral and one embed; embed is
        # counted too because it is reached however realize_cospectral is bound
        calls = {"realize_cospectral": 0, "embed": 0}
        for name in calls:
            real = getattr(dstoch.orthogonal, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(dstoch.orthogonal, name, counted)
        assert run(["realize", files["spectrum"]]) == 0
        assert calls == {"realize_cospectral": 1, "embed": 1}
        assert run(["realize", files["spectrum"], "--basis", "random", "--seed", "3"]) == 0
        assert calls == {"realize_cospectral": 2, "embed": 2}

    def test_realize_cospectral_random_basis_seeded(self, files, capsys):
        assert run(["realize-cospectral", files["spectrum"], "--basis", "random", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert run(["realize-cospectral", files["spectrum"], "--basis", "random", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_normalize(self, files, capsys, tmp_path):
        m = tmp_path / "m.mat"
        m.write_text("1 2\n3 6\n", encoding="utf-8")
        assert run(["normalize", str(m)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1].startswith("# r = ")
        assert abs(float(out[-1].split("=")[1]) - 7) < 1e-9


class TestRoundTripsAndModes:
    def test_printed_matrices_reparse_identically(self, files, capsys):
        for cmd in (["nearest", files["a"]], ["balance", "--eps", "-1/2", files["a"]]):
            assert run(cmd) == 0
            text = capsys.readouterr().out
            assert format_matrix(parse_matrix(text)) == text.strip()

    def test_nearest_is_observable_fixed_point(self, files, capsys, tmp_path):
        assert run(["nearest", files["a"]]) == 0
        once = capsys.readouterr().out
        again = tmp_path / "p.mat"
        again.write_text(once, encoding="utf-8")
        assert run(["nearest", str(again)]) == 0
        assert capsys.readouterr().out == once
        assert parse_matrix(once) == nearest_ds(A_UNEVEN)

    def test_output_to_file(self, files, tmp_path):
        target = tmp_path / "out.mat"
        assert run(["nearest", files["z"], "-o", str(target)]) == 0
        assert parse_matrix(target.read_text(encoding="utf-8")) == B_PROJ

    def test_mode_validation(self, files, capsys):
        assert run(["classify", files["a"], "--mode", "exact"]) == 0
        assert run(["realize", files["spectrum"], "--mode", "float"]) == 0
        capsys.readouterr()
        # every subcommand refuses the mode it does not run in
        commands = {argv[0]: argv for argv, *_ in _PINNED}
        assert list(commands) == list(_SURFACE)
        for name, argv in commands.items():
            runs_in = "float" if name in _FLOAT_COMMANDS else "exact"
            wrong = "exact" if runs_in == "float" else "float"
            assert run([files.get(tok, tok) for tok in argv] + ["--mode", wrong]) == 2, name
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {name} runs in {runs_in} mode\n"

    def test_json_is_built_only_under_json_flag(self, files, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("JSON built without --json")

        monkeypatch.setattr(json, "dumps", refuse)
        monkeypatch.setattr(dstoch.BalanceReport, "to_json", refuse)
        monkeypatch.setattr(dstoch.DsConditionReport, "to_json", refuse)
        a, z, b = files["a"], files["z"], files["b"]
        for argv in (
            ["classify", a],
            ["colstats", a],
            ["charpoly", a],
            ["cospectral", z, b],
            ["check41", z],
            ["threshold", a],
            ["balance-min", a],
            ["check4", z],
        ):
            assert run(argv) in (0, 1)
        assert "{" not in capsys.readouterr().out


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert run(["classify", "/nonexistent/never.mat"]) == 2

    def test_malformed_matrix(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("1 2\n3\n", encoding="utf-8")
        assert run(["classify", str(bad)]) == 2

    def test_precondition_failure(self, files, tmp_path, capsys):
        assert run(["balance", "--eps", "-1", files["a"]]) == 3
        err = capsys.readouterr().err
        assert "threshold -1/2" in err

    def test_shift_without_constant_row_sums(self, tmp_path, capsys):
        uneven = tmp_path / "uneven.mat"
        uneven.write_text("1 0\n1 1\n", encoding="utf-8")
        assert run(["shift", "--eps", "1", str(uneven)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix must have constant row sums\n"

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self, files, capsys):
        assert run(["balance", files["a"]]) == 2

    def test_conjugacy_error_is_numeric_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.spectrum"
        bad.write_text("1\n0+1 i\n", encoding="utf-8")
        assert run(["realize", str(bad)]) == 3
        # 1/3 and 1/3 + 1e-11: close, but not an exact conjugate pair
        bad.write_text("1\n1/2+1/3 i\n1/2-100000000003/300000000000 i\n", encoding="utf-8")
        assert run(["realize", str(bad)]) == 3

    def test_dominant_entry_must_be_exactly_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.spectrum"
        bad.write_text("1.0000000000001\n0\n", encoding="utf-8")
        assert run(["realize-cospectral", str(bad)]) == 3
        assert capsys.readouterr().out == ""

    def test_undecodable_file_is_a_format_error(self, tmp_path, capsys):
        # the UTF-16 text "1\n", read as a matrix file and as a spectrum file
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe1\x00\n\x00")
        for cmd in ("classify", "realize"):
            assert run([cmd, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {path} is not UTF-8 text\n"

    def test_utf8_byte_order_mark_is_accepted(self, tmp_path, capsys):
        for cmd, text in (
            ("classify", "1/2 1/2\n1/2 1/2\n"),
            ("realize-cospectral", "1\n1/2\n-1/2\n"),
            ("embed", "0.5 0.1\n0.2 0.3\n"),
        ):
            plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
            plain.write_bytes(text.encode())
            marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
            assert run([cmd, str(plain)]) == 0
            want = capsys.readouterr().out
            assert run([cmd, str(marked)]) == 0, cmd
            assert capsys.readouterr().out == want

    def test_float_entry_too_large_is_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "huge.mat"
        path.write_text("1" + "0" * 400 + "/1 0\n0 1\n", encoding="utf-8")
        for cmd in ("embed", "normalize"):
            assert run([cmd, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: bad float entry '1000")
            assert captured.err.count("\n") == 1

    def test_float_overflow_is_a_numeric_failure(self, tmp_path, capsys):
        path = tmp_path / "huge.spectrum"
        path.write_text("1\n1" + "0" * 400 + "\n", encoding="utf-8")
        for cmd in ("realize", "realize-cospectral"):
            assert run([cmd, str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
            assert errors == ["error: integer division result too large for a float"]
        # entries that fit a float, but whose nonnegative lift does not
        lift = tmp_path / "lift.spectrum"
        lift.write_text("1\n" + ("-17" + "0" * 307 + "\n") * 2, encoding="utf-8")
        assert run(["realize", str(lift)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == ["error: the nonnegative lift leaves the float range"]
        assert run(["realize-cospectral", str(lift)]) == 0

    def test_embedding_beyond_float_range_is_a_numeric_failure(self, tmp_path, capsys):
        block = tmp_path / "huge.mat"
        block.write_text("1.7e308 1.7e308\n1.7e308 1.7e308\n", encoding="utf-8")
        big = "17" + "0" * 307
        spectrum = tmp_path / "huge.spectrum"
        spectrum.write_text(f"1\n{big}+{big}i\n{big}-{big}i\n", encoding="utf-8")
        for argv in (["embed", str(block)], ["realize", str(spectrum)],
                     ["realize-cospectral", str(spectrum)]):
            assert run(argv) == 3, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
            assert errors == ["error: the embedding leaves the float range"], argv

    def test_over_long_integer_is_a_format_error(self, tmp_path, files, capsys):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("this interpreter has no integer string conversion limit")
        digits = "1" * (limit + 700)
        matrix = tmp_path / "long.mat"
        matrix.write_text(f"{digits}0 0\n0 1\n", encoding="utf-8")
        spectrum = tmp_path / "long.spectrum"
        spectrum.write_text(f"1\n0.{digits}\n", encoding="utf-8")
        for argv in (
            ["classify", str(matrix)],
            ["realize", str(spectrum)],
            ["shift", "--eps", digits, files["a"]],
        ):
            assert run(argv) == 2, argv[0]
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1

    def test_exact_result_over_the_digit_limit_is_a_numeric_failure(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("this interpreter has no integer string conversion limit")
        # each entry is within the limit; the determinant and the squared gap
        # (about the square of an entry) are not
        big = "1" + "0" * (limit // 2 + 1)
        path = tmp_path / "big.mat"
        path.write_text(f"{big} 0\n0 {big}\n", encoding="utf-8")
        for argv in (["charpoly", str(path)], ["nearest", "--distance", str(path)]):
            assert run(argv) == 3, argv[0]
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert f" {limit} digits " in captured.err
            assert captured.err.count("\n") == 1

    def test_negative_seed_is_an_argument_error(self, tmp_path, capsys):
        x = tmp_path / "x.mat"
        x.write_text("1/5 3/10\n1/10 9/10\n", encoding="utf-8")
        for seed in ("-1", "x"):
            assert run(["embed", str(x), "--basis", "random", "--seed", seed]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [line for line in captured.err.splitlines() if "error" in line]
            assert errors == [
                f"dstoch embed: error: argument --seed: expected a nonnegative integer, got '{seed}'"
            ]
            assert "Traceback" not in captured.err

    def test_double_dash_value_is_an_argument_error(self, files, capsys):
        # argparse strips a lone `--` from an `=` value on some Python
        # versions and keeps it on others; either way it is a bad argument
        rado = ["rado", files["diag"], files["x"], files["c"]]
        for argv in (
            ["shift", "--eps", "--", files["a"]],
            ["balance", "--eps=--", files["a"]],
            rado + ["--eigenvalues", "--"],
            rado + ["--eigenvalues=--"],
        ):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1
            assert "Traceback" not in captured.err


# (argv, exit code, stdout, stdout with --json) for every subcommand on the
# fixture files; a --json stdout of None means --json is ignored there, and
# a stdout of None marks float output, which is only checked to be the same
# with and without --json
_PINNED = [
    (["classify", "a"], 0, "STOCHASTIC r=1", '{"tag": "STOCHASTIC", "r": "1"}'),
    (
        ["colstats", "a"],
        0,
        "x: 3/4 3/4 3/2\na: 1/6 1/6 1/3",
        '{"x": ["3/4", "3/4", "3/2"], "a": ["1/6", "1/6", "1/3"]}',
    ),
    (["charpoly", "a"], 0, "0 1/4 -5/4 1", '{"coefficients": ["0", "1/4", "-5/4", "1"]}'),
    (["cospectral", "a", "b"], 1, "not cospectral", '{"cospectral": false}'),
    (["check41", "z"], 0, "true", '{"similar_to_unit_sums": true}'),
    (["shift", "--eps", "1/2", "a"], 0, "1/2 1/2 1/2\n5/12 5/12 2/3\n1/3 1/3 5/6", None),
    (["rado", "diag", "x", "c", "--eigenvalues", "2"], 0, "7/3 -1/5\n0 1", None),
    (
        ["threshold", "a"],
        0,
        "epsilon_threshold = -1/2\ny_threshold = -1/3",
        '{"epsilon_threshold": "-1/2", "y_threshold": "-1/3"}',
    ),
    (["balance", "--eps", "-1/2", "a"], 0, "1/4 1/4 0\n1/6 1/6 1/6\n1/12 1/12 1/3", None),
    (
        ["balance-min", "a"],
        0,
        "r = 1\nx = 3/4 3/4 3/2\na = 1/6 1/6 1/3\nm = 3\ny_threshold = -1/3\n"
        "epsilon_threshold = -1/2\ntight_columns = 3\nB_min =\n"
        "1/4 1/4 0\n1/6 1/6 1/6\n1/12 1/12 1/3",
        '{"r": "1", "x": ["3/4", "3/4", "3/2"], "a": ["1/6", "1/6", "1/3"], "m": 3, '
        '"y_threshold": "-1/3", "epsilon_threshold": "-1/2", "B_min": [["1/4", "1/4", "0"], '
        '["1/6", "1/6", "1/6"], ["1/12", "1/12", "1/3"]], "tight_columns": [3]}',
    ),
    (["t33", "a"], 0, "13/12 13/12 5/6\n1 1 1\n11/12 11/12 7/6", None),
    (
        ["check4", "a"],
        0,
        "j=1 x=3/4 a=1/6 slack=3/4\nj=2 x=3/4 a=1/6 slack=3/4\n"
        "j=3 x=3/2 a=1/3 slack=1/2\nholds=true",
        '{"holds": true, "per_column": [{"j": 1, "x_j": "3/4", "a_j": "1/6", "slack": "3/4"}, '
        '{"j": 2, "x_j": "3/4", "a_j": "1/6", "slack": "3/4"}, '
        '{"j": 3, "x_j": "3/2", "a_j": "1/3", "slack": "1/2"}], "first_violation": null}',
    ),
    (["cospectral-ds", "z"], 0, "1/2 1/6 1/3\n1/6 1/2 1/3\n1/3 1/3 1/3", None),
    (["nearest", "a"], 0, "5/12 5/12 1/6\n1/3 1/3 1/3\n1/4 1/4 1/2", None),
    (["nearest", "z", "--distance"], 0, "1/2", None),
    (["embed", "b"], 0, None, None),
    (["extract", "b"], 0, None, None),
    (["realize", "spectrum"], 0, None, None),
    (["realize-cospectral", "spectrum"], 0, None, None),
    (["normalize", "a"], 0, None, None),
]


@pytest.mark.parametrize(
    "argv, code, text, as_json", _PINNED, ids=[" ".join(case[0]) for case in _PINNED]
)
def test_output_with_and_without_json(files, capsys, argv, code, text, as_json):
    argv = [files.get(tok, tok) for tok in argv]
    assert run(argv) == code
    plain = capsys.readouterr().out
    assert run(argv + ["--json"]) == code
    with_json = capsys.readouterr().out
    if text is None:
        assert with_json == plain
    else:
        assert plain == text + "\n"
        assert with_json == (text if as_json is None else as_json) + "\n"


_FLOAT_COMMANDS = {"embed", "extract", "realize", "realize-cospectral", "normalize"}

# each subcommand's help line in `dstoch --help` and its argparse actions in
# order, as (option strings, dest, required, default, choices, help); unlike
# the --help text, this does not change with the Python version
_COMMON = [
    (("-h", "--help"), "help", False, "==SUPPRESS==", None, "show this help message and exit"),
    (("--output", "-o"), "output", False, None, None, "write the result to a file"),
    (("--json",), "json", False, False, None, "emit reports as JSON"),
    (
        ("--mode",),
        "mode",
        False,
        None,
        ("exact", "float"),
        "declare the arithmetic mode; must match the subcommand",
    ),
]
_MATRIX = ((), "matrix", True, None, None, "path to a matrix file")
_BARE_MATRIX = ((), "matrix", True, None, None, None)
_SPECTRUM = ((), "spectrum", True, None, None, "path to a spectrum file")
_EPS = (("--eps",), "eps", True, None, None, "rational shift, e.g. -1/2")
_BASIS = [
    (("--basis",), "basis", False, "canonical", ("canonical", "random"), None),
    (("--seed",), "seed", False, 0, None, "nonnegative seed for --basis random"),
]
_SURFACE = {
    "classify": ("row/column-sum structure tag", [_MATRIX]),
    "colstats": ("column sums and minima", [_MATRIX]),
    "charpoly": ("exact characteristic polynomial", [_MATRIX]),
    "cospectral": (
        "compare two characteristic polynomials",
        [_BARE_MATRIX, ((), "other", True, None, None, None)],
    ),
    "check41": ("is the matrix similar to one with unit row and column sums", [_MATRIX]),
    "shift": ("add eps times the uniform matrix", [_MATRIX, _EPS]),
    "rado": (
        "rank-r eigenvalue replacement A + XC",
        [
            _BARE_MATRIX,
            ((), "x", True, None, None, "matrix of eigenvector columns"),
            ((), "c", True, None, None, "update matrix"),
            (
                ("--eigenvalues",),
                "eigenvalues",
                True,
                None,
                None,
                "comma-separated eigenvalues of the columns",
            ),
        ],
    ),
    "threshold": ("least feasible shift, both parameterizations", [_MATRIX]),
    "balance": ("balanced matrix at a given dominant-eigenvalue shift", [_MATRIX, _EPS]),
    "balance-min": ("balanced family report", [_MATRIX]),
    "t33": ("balanced form with row/column sums n*r", [_MATRIX]),
    "check4": ("per-column slack condition", [_MATRIX]),
    "cospectral-ds": ("doubly stochastic matrix cospectral to a stochastic one", [_MATRIX]),
    "nearest": (
        "Frobenius projection onto unit row/column sums",
        [_MATRIX, (("--distance",), "distance", False, False, None, "print the squared gap")],
    ),
    "embed": ("embed an (n-1)-block into unit row/column sums", [_BARE_MATRIX, *_BASIS]),
    "extract": ("recover the embedded (n-1)-block", [_BARE_MATRIX, *_BASIS]),
    "realize": ("nonnegative realization with shifted dominant entry", [_SPECTRUM, *_BASIS]),
    "realize-cospectral": ("unit-sum realization of a spectrum", [_SPECTRUM, *_BASIS]),
    "normalize": ("diagonal similarity onto constant row sums", [_BARE_MATRIX]),
}


def test_argument_surface():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    listed = {a.dest: a.help for a in sub._choices_actions}
    surface = {
        name: (
            listed[name],
            [
                (
                    tuple(a.option_strings),
                    a.dest,
                    a.required,
                    a.default,
                    None if a.choices is None else tuple(a.choices),
                    a.help,
                )
                for a in parser._actions
            ],
        )
        for name, parser in sub.choices.items()
    }
    assert surface == {name: (text, _COMMON + args) for name, (text, args) in _SURFACE.items()}
    assert list(surface) == list(_SURFACE)


def _subparsers(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_named_subcommand_builds_only_its_parser():
    full = build_parser()
    every = _subparsers(full)
    for argv in (None, [], ["--help"], ["nosuch"]):
        assert list(_subparsers(build_parser(argv))) == list(_SURFACE)
    for name in _SURFACE:
        parser = build_parser([name])
        # the usage line an argument error prints still lists every name
        assert parser.format_usage() == full.format_usage()
        assert _subparsers(parser)[name].format_help() == every[name].format_help()
        assert list(_subparsers(parser)) == [name]


_NUMPY_FREE_SCRIPT = """
import contextlib, io, json, sys
import dstoch, dstoch.cli
assert "numpy" not in sys.modules, "importing dstoch.cli loaded numpy"
sys.modules["numpy"] = None  # any later `import numpy` raises ImportError
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        results.append([dstoch.cli.run(argv), out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _run_without_numpy(calls):
    """(exit code, stdout, stderr) of each CLI call, in one process that
    cannot import numpy."""
    env = dict(os.environ, PYTHONPATH=str(Path(dstoch.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_SCRIPT, json.dumps(calls)],
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LEAN_START_SCRIPT = """
import contextlib, io, sys
import dstoch.cli
unwanted = sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    assert dstoch.cli.run(["classify", sys.argv[1]]) == 0
    after_classify = [name for name in unwanted if name in sys.modules]
    assert dstoch.cli.run(["balance-min", sys.argv[1], "--json"]) == 0
print(after_classify, "json" in sys.modules)
"""

#: modules that `dstoch classify` has no use for
_NOT_LOADED_BY_CLASSIFY = [
    "dataclasses", "json", "typing", "pathlib", "numpy",
    "dstoch.spectra", "dstoch.nearness", "dstoch.rado", "dstoch.orthogonal",
]


def test_classify_loads_only_what_it_runs(files):
    # -S keeps site hooks from loading anything before dstoch does
    env = dict(os.environ, PYTHONPATH=str(Path(dstoch.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LEAN_START_SCRIPT, files["a"], *_NOT_LOADED_BY_CLASSIFY],
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # nothing unwanted after classify, and json once a report prints as JSON
    assert proc.stdout == "[] True\n"


def test_exact_subcommands_run_without_numpy(files):
    a, z, b = files["a"], files["z"], files["b"]
    calls = [
        ["classify", a],
        ["colstats", a],
        ["charpoly", a],
        ["cospectral", z, b],
        ["check41", z],
        ["shift", "--eps", "1/2", a],
        ["rado", files["diag"], files["x"], files["c"], "--eigenvalues", "2"],
        ["threshold", a],
        ["balance", "--eps", "-1/2", a],
        ["balance-min", a],
        ["t33", a],
        ["check4", z],
        ["cospectral-ds", z],
        ["nearest", z],
    ]
    assert [code for code, _, _ in _run_without_numpy(calls)] == [0] * len(calls)


def test_float_subcommands_without_numpy_exit_3(files):
    b, spectrum = files["b"], files["spectrum"]
    calls = [
        ["embed", b],
        ["extract", b],
        ["realize", spectrum],
        ["realize-cospectral", spectrum],
        ["normalize", b],
    ]
    for argv, (code, out, err) in zip(calls, _run_without_numpy(calls)):
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "numpy" in err, argv
        assert err == f"error: {argv[0]} needs numpy (pip install 'dstoch[float]')\n"
