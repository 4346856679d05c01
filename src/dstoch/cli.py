"""Command-line front end: one subcommand per library construction.

Exit codes: 0 success (or a check subcommand's predicate holds), 1 a check
subcommand's predicate is false, 2 argument/format errors, 3 numeric or
precondition failures.  All output is deterministic given the inputs and
--seed.  Warnings print to stderr as one ``warning: <message>`` line each.

Each handler returns its exit code, its text and its ``--json`` payload, a
callable that builds the JSON (None where the subcommand prints text either
way); only :func:`run` picks the rendering and writes it, to stdout or ``-o``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections.abc import Callable
from fractions import Fraction
from pathlib import Path

from .balance import balance, balance_minimal, balance_nr
from .core import classify, column_stats, format_matrix, parse_matrix, parse_scalar
from .errors import DstochError, FormatError
from .nearness import cospectral_ds, ds_condition, nearest_ds, nearest_ds_distance_sq
from .rado import RadoUpdate, rado_update, shift
from .spectra import (
    charpoly,
    cospectral,
    format_poly,
    parse_spectrum,
    poly_from_spectrum,
    similar_to_unit_sums,
)

#: subcommands that operate on floating matrices / spectra; their handlers
#: import the float half only when they run
_FLOAT_ONLY = {"embed", "extract", "realize", "realize-cospectral", "normalize"}

#: value-taking flags whose argument may begin with a minus sign
_NEGATIVE_VALUE_FLAGS = ("--eps", "--eigenvalues")

_Result = tuple[int, str, "Callable[[], str] | None"]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path} is not UTF-8 text") from None


def _load_matrix(path: str):
    return parse_matrix(_read(path))


def _emit(ns, text: str) -> None:
    if ns.output:
        Path(ns.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_classify(ns) -> _Result:
    cls = classify(_load_matrix(ns.matrix))
    r = None if cls.r is None else str(cls.r)
    return 0, str(cls), lambda: json.dumps({"tag": cls.tag.value, "r": r})


def _cmd_colstats(ns) -> _Result:
    x, a = column_stats(_load_matrix(ns.matrix))
    text = f"x: {' '.join(str(v) for v in x)}\na: {' '.join(str(v) for v in a)}"
    return 0, text, lambda: json.dumps({"x": [str(v) for v in x], "a": [str(v) for v in a]})


def _cmd_charpoly(ns) -> _Result:
    p = charpoly(_load_matrix(ns.matrix))
    return 0, format_poly(p), lambda: json.dumps(
        {"coefficients": [str(c) for c in p.coefficients]}
    )


def _cmd_cospectral(ns) -> _Result:
    verdict = cospectral(_load_matrix(ns.matrix), _load_matrix(ns.other))
    text = "cospectral" if verdict else "not cospectral"
    return 0 if verdict else 1, text, lambda: json.dumps({"cospectral": verdict})


def _cmd_check41(ns) -> _Result:
    verdict = similar_to_unit_sums(_load_matrix(ns.matrix))
    text = "true" if verdict else "false"
    return 0 if verdict else 1, text, lambda: json.dumps({"similar_to_unit_sums": verdict})


def _cmd_shift(ns) -> _Result:
    return 0, format_matrix(shift(_load_matrix(ns.matrix), parse_scalar(ns.eps))), None


def _cmd_rado(ns) -> _Result:
    a = _load_matrix(ns.matrix)
    update = RadoUpdate(
        a,
        _load_matrix(ns.x),
        _load_matrix(ns.c),
        [parse_scalar(tok) for tok in ns.eigenvalues.split(",")],
    )
    return 0, format_matrix(rado_update(a, update)), None


def _cmd_threshold(ns) -> _Result:
    report = balance_minimal(_load_matrix(ns.matrix))
    fields = {"epsilon_threshold": report.epsilon_threshold, "y_threshold": report.y_threshold}
    text = "\n".join(f"{k} = {v}" for k, v in fields.items())
    return 0, text, lambda: json.dumps({k: str(v) for k, v in fields.items()})


def _cmd_balance(ns) -> _Result:
    return 0, format_matrix(balance(_load_matrix(ns.matrix), parse_scalar(ns.eps))), None


def _cmd_balance_min(ns) -> _Result:
    report = balance_minimal(_load_matrix(ns.matrix))
    return 0, report.to_text(), report.to_json


def _cmd_t33(ns) -> _Result:
    return 0, format_matrix(balance_nr(_load_matrix(ns.matrix))), None


def _cmd_check4(ns) -> _Result:
    report = ds_condition(_load_matrix(ns.matrix))
    return 0 if report.holds else 1, report.to_text(), report.to_json


def _cmd_cospectral_ds(ns) -> _Result:
    return 0, format_matrix(cospectral_ds(_load_matrix(ns.matrix))), None


def _cmd_nearest(ns) -> _Result:
    a = _load_matrix(ns.matrix)
    if ns.distance:
        text = str(nearest_ds_distance_sq(a))
    else:
        text = format_matrix(nearest_ds(a))
    return 0, text, None


def _basis_for(ns, n: int):
    from .orthogonal import canonical_basis, random_basis

    if ns.basis == "random":
        return random_basis(n, ns.seed)
    return canonical_basis(n)


def _cmd_embed(ns) -> _Result:
    from .orthogonal import embed, format_float_matrix, parse_float_matrix

    x = parse_float_matrix(_read(ns.matrix))
    x.require_square()
    return 0, format_float_matrix(embed(_basis_for(ns, x.n_rows + 1), x)), None


def _cmd_extract(ns) -> _Result:
    from .orthogonal import extract, format_float_matrix, parse_float_matrix

    a = parse_float_matrix(_read(ns.matrix))
    a.require_square()
    return 0, format_float_matrix(extract(_basis_for(ns, a.n_rows), a)), None


def _cmd_realize_cospectral(ns) -> _Result:
    from .orthogonal import format_float_matrix, realize_cospectral

    s = parse_spectrum(_read(ns.spectrum))
    return 0, format_float_matrix(realize_cospectral(s, _basis_for(ns, s.size))), None


def _cmd_realize(ns) -> _Result:
    from .orthogonal import (
        _lift,
        _matched_eig_err,
        charpoly_float,
        format_float_matrix,
        realize_cospectral,
    )

    s = parse_spectrum(_read(ns.spectrum))
    b0 = realize_cospectral(s, _basis_for(ns, s.size))
    k, b = _lift(b0)
    target = [
        (Fraction(1 + k), Fraction(0)) if i == s.perron_index else e
        for i, e in enumerate(s.entries)
    ]
    want = [float(c) for c in poly_from_spectrum(target).coefficients]
    got = charpoly_float(b)
    report = {
        "k": k,
        "abs_min_entry": abs(min(b0.min_entry(), 0.0)),
        "row_sum": sum(b.row_sums()) / b.n_rows,
        "charpoly_residual": max(abs(p - q) for p, q in zip(got, want)),
        "eig_err": _matched_eig_err(b, target),
    }
    return 0, format_float_matrix(b) + "\n# " + json.dumps(report), None


def _cmd_normalize(ns) -> _Result:
    from .orthogonal import (
        format_float_matrix,
        normalize_to_stochastic,
        parse_float_matrix,
    )

    scaled, r = normalize_to_stochastic(parse_float_matrix(_read(ns.matrix)))
    return 0, format_float_matrix(scaled) + f"\n# r = {r:.17g}", None


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", "-o", help="write the result to a file")
    common.add_argument("--json", action="store_true", help="emit reports as JSON")
    common.add_argument(
        "--mode",
        choices=["exact", "float"],
        help="declare the arithmetic mode; must match the subcommand",
    )

    parser = argparse.ArgumentParser(
        prog="dstoch",
        description="Exact constructions relating stochastic and doubly "
        "stochastic matrix spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def matrix_cmd(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("matrix", help="path to a matrix file")
        p.set_defaults(handler=handler)
        return p

    matrix_cmd("classify", _cmd_classify, "row/column-sum structure tag")
    matrix_cmd("colstats", _cmd_colstats, "column sums and minima")
    matrix_cmd("charpoly", _cmd_charpoly, "exact characteristic polynomial")

    p = sub.add_parser(
        "cospectral", help="compare two characteristic polynomials", parents=[common]
    )
    p.add_argument("matrix")
    p.add_argument("other")
    p.set_defaults(handler=_cmd_cospectral)

    matrix_cmd(
        "check41",
        _cmd_check41,
        "is the matrix similar to one with unit row and column sums",
    )
    p = matrix_cmd("shift", _cmd_shift, "add eps times the uniform matrix")
    p.add_argument("--eps", required=True, help="rational shift, e.g. -1/2")

    p = sub.add_parser(
        "rado", help="rank-r eigenvalue replacement A + XC", parents=[common]
    )
    p.add_argument("matrix")
    p.add_argument("x", help="matrix of eigenvector columns")
    p.add_argument("c", help="update matrix")
    p.add_argument(
        "--eigenvalues",
        required=True,
        help="comma-separated eigenvalues of the columns",
    )
    p.set_defaults(handler=_cmd_rado)

    matrix_cmd(
        "threshold", _cmd_threshold, "least feasible shift, both parameterizations"
    )
    p = matrix_cmd(
        "balance", _cmd_balance, "balanced matrix at a given dominant-eigenvalue shift"
    )
    p.add_argument("--eps", required=True, help="rational shift, e.g. -1/2")
    matrix_cmd("balance-min", _cmd_balance_min, "balanced family report")
    matrix_cmd("t33", _cmd_t33, "balanced form with row/column sums n*r")
    matrix_cmd("check4", _cmd_check4, "per-column slack condition")
    matrix_cmd(
        "cospectral-ds",
        _cmd_cospectral_ds,
        "doubly stochastic matrix cospectral to a stochastic one",
    )
    p = matrix_cmd(
        "nearest", _cmd_nearest, "Frobenius projection onto unit row/column sums"
    )
    p.add_argument("--distance", action="store_true", help="print the squared gap")

    for name, positional, handler, help_text in [
        ("embed", "matrix", _cmd_embed, "embed an (n-1)-block into unit row/column sums"),
        ("extract", "matrix", _cmd_extract, "recover the embedded (n-1)-block"),
        (
            "realize",
            "spectrum",
            _cmd_realize,
            "nonnegative realization with shifted dominant entry",
        ),
        (
            "realize-cospectral",
            "spectrum",
            _cmd_realize_cospectral,
            "unit-sum realization of a spectrum",
        ),
    ]:
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument(
            positional,
            help="path to a spectrum file" if positional == "spectrum" else None,
        )
        p.add_argument("--basis", choices=["canonical", "random"], default="canonical")
        p.add_argument(
            "--seed", type=_seed, default=0, help="nonnegative seed for --basis random"
        )
        p.set_defaults(handler=handler)

    p = sub.add_parser(
        "normalize", help="diagonal similarity onto constant row sums", parents=[common]
    )
    p.add_argument("matrix")
    p.set_defaults(handler=_cmd_normalize)

    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes a leading minus for an option; fold `--eps -1/2`
    # into `--eps=-1/2` before parsing
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _NEGATIVE_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    return merged


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # one line per warning, without the source location Python adds
    print(f"warning: {message}", file=sys.stderr)


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        ns = parser.parse_args(_merge_negative_values(list(argv)))
        for flag in _NEGATIVE_VALUE_FLAGS:
            # argparse (Python 3.11, for one) strips the `--` out of
            # `--eps=--` and stores an empty list instead of a string
            if getattr(ns, flag[2:], None) == []:
                parser.error(f"argument {flag}: expected one argument")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    runs_in = "float" if ns.command in _FLOAT_ONLY else "exact"
    if ns.mode not in (None, runs_in):
        print(f"error: {ns.command} runs in {runs_in} mode", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            code, text, payload = ns.handler(ns)
            _emit(ns, payload() if ns.json and payload is not None else text)
            return code
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeroDivisionError as exc:
        print(f"error: division by zero: {exc}", file=sys.stderr)
        return 3
    except (DstochError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
