"""Command-line front end: one subcommand per library construction.

Exit codes: 0 success (or a check subcommand's predicate holds), 1 a check
subcommand's predicate is false, 2 argument/format errors, 3 numeric or
precondition failures.  All output is deterministic given the inputs and
--seed.  Warnings print to stderr as one ``warning: <message>`` line each.

Each handler returns its exit code, its text and its ``--json`` payload, a
callable that builds the JSON (None where the subcommand prints text either
way); only :func:`run` picks the rendering and writes it, to stdout or ``-o``.
Adding a subcommand means one handler plus one row of ``_COMMANDS``, which
gives its parser, its help text and the arithmetic mode it runs in.  A
handler imports what it needs beyond ``core`` and ``balance`` itself, so a
process loads only the modules its subcommand runs.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from collections.abc import Callable
from fractions import Fraction

from .balance import _columns, _thresholds, balance, balance_minimal, balance_nr
from .core import classify, column_stats, format_matrix, parse_matrix, parse_scalar
from .errors import DstochError, FormatError

#: value-taking flags whose argument may begin with a minus sign
_NEGATIVE_VALUE_FLAGS = ("--eps", "--eigenvalues")

_Result = tuple[int, str, "Callable[[], str] | None"]


def _read(path: str) -> str:
    try:
        # utf-8-sig also reads UTF-8 text that starts with a byte-order mark
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except UnicodeDecodeError:
        raise FormatError(f"{path} is not UTF-8 text") from None


def _load_matrix(path: str):
    return parse_matrix(_read(path))


def _emit(ns, text: str) -> None:
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)


def _json(value) -> str:
    # json loads only for the outputs that use it
    import json

    return json.dumps(value)


def _cmd_classify(ns) -> _Result:
    cls = classify(_load_matrix(ns.matrix))
    r = None if cls.r is None else str(cls.r)
    return 0, str(cls), lambda: _json({"tag": cls.tag.value, "r": r})


def _cmd_colstats(ns) -> _Result:
    x, a = column_stats(_load_matrix(ns.matrix))
    text = f"x: {' '.join(str(v) for v in x)}\na: {' '.join(str(v) for v in a)}"
    return 0, text, lambda: _json({"x": [str(v) for v in x], "a": [str(v) for v in a]})


def _cmd_charpoly(ns) -> _Result:
    from .spectra import charpoly, format_poly

    p = charpoly(_load_matrix(ns.matrix))
    return 0, format_poly(p), lambda: _json(
        {"coefficients": [str(c) for c in p.coefficients]}
    )


def _cmd_cospectral(ns) -> _Result:
    from .spectra import cospectral

    verdict = cospectral(_load_matrix(ns.matrix), _load_matrix(ns.other))
    text = "cospectral" if verdict else "not cospectral"
    return 0 if verdict else 1, text, lambda: _json({"cospectral": verdict})


def _cmd_check41(ns) -> _Result:
    from .spectra import similar_to_unit_sums

    verdict = similar_to_unit_sums(_load_matrix(ns.matrix))
    text = "true" if verdict else "false"
    return 0 if verdict else 1, text, lambda: _json({"similar_to_unit_sums": verdict})


def _cmd_shift(ns) -> _Result:
    from .rado import shift

    return 0, format_matrix(shift(_load_matrix(ns.matrix), parse_scalar(ns.eps))), None


def _cmd_rado(ns) -> _Result:
    from .rado import RadoUpdate, rado_update

    a = _load_matrix(ns.matrix)
    update = RadoUpdate(
        a,
        _load_matrix(ns.x),
        _load_matrix(ns.c),
        [parse_scalar(tok) for tok in ns.eigenvalues.split(",")],
    )
    return 0, format_matrix(rado_update(a, update)), None


def _cmd_threshold(ns) -> _Result:
    n, r, x, _, bounds = _columns(_load_matrix(ns.matrix))
    _, eps_min, y_min = _thresholds(n, r, x, bounds)
    fields = {"epsilon_threshold": eps_min, "y_threshold": y_min}
    text = "\n".join(f"{k} = {v}" for k, v in fields.items())
    return 0, text, lambda: _json({k: str(v) for k, v in fields.items()})


def _cmd_balance(ns) -> _Result:
    return 0, format_matrix(balance(_load_matrix(ns.matrix), parse_scalar(ns.eps))), None


def _cmd_balance_min(ns) -> _Result:
    report = balance_minimal(_load_matrix(ns.matrix))
    return 0, report.to_text(), report.to_json


def _cmd_t33(ns) -> _Result:
    return 0, format_matrix(balance_nr(_load_matrix(ns.matrix))), None


def _cmd_check4(ns) -> _Result:
    from .nearness import ds_condition

    report = ds_condition(_load_matrix(ns.matrix))
    return 0 if report.holds else 1, report.to_text(), report.to_json


def _cmd_cospectral_ds(ns) -> _Result:
    from .nearness import cospectral_ds

    return 0, format_matrix(cospectral_ds(_load_matrix(ns.matrix))), None


def _cmd_nearest(ns) -> _Result:
    from .nearness import nearest_ds, nearest_ds_distance_sq

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
    from .spectra import parse_spectrum

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
    from .spectra import parse_spectrum, poly_from_spectrum

    s = parse_spectrum(_read(ns.spectrum))
    b0 = realize_cospectral(s, _basis_for(ns, s.size))
    k, b = _lift(b0)
    target = [(Fraction(1 + k), Fraction(0)), *s.rest()]
    want = [float(c) for c in poly_from_spectrum(target).coefficients]
    got = charpoly_float(b)
    report = {
        "k": k,
        "abs_min_entry": abs(min(b0.min_entry(), 0.0)),
        "row_sum": sum(b.row_sums()) / b.n_rows,
        "charpoly_residual": max(abs(p - q) for p, q in zip(got, want)),
        "eig_err": _matched_eig_err(b, target),
    }
    return 0, format_float_matrix(b) + "\n# " + _json(report), None


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


_MATRIX = ("matrix", "path to a matrix file")
_BARE_MATRIX = ("matrix", None)
_SPECTRUM = ("spectrum", "path to a spectrum file")
_EPS = ("--eps", {"required": True, "help": "rational shift, e.g. -1/2"})
_BASIS = [
    ("--basis", {"choices": ["canonical", "random"], "default": "canonical"}),
    ("--seed", {"type": _seed, "default": 0, "help": "nonnegative seed for --basis random"}),
]

#: one row per subcommand, in --help order: name, handler, help text, the
#: arithmetic mode it runs in, positionals as (name, help) and options as
#: (flag, add_argument keywords)
_COMMANDS = [
    ("classify", _cmd_classify, "row/column-sum structure tag", "exact", [_MATRIX], []),
    ("colstats", _cmd_colstats, "column sums and minima", "exact", [_MATRIX], []),
    ("charpoly", _cmd_charpoly, "exact characteristic polynomial", "exact", [_MATRIX], []),
    ("cospectral", _cmd_cospectral, "compare two characteristic polynomials", "exact",
     [_BARE_MATRIX, ("other", None)], []),
    ("check41", _cmd_check41, "is the matrix similar to one with unit row and column sums",
     "exact", [_MATRIX], []),
    ("shift", _cmd_shift, "add eps times the uniform matrix", "exact", [_MATRIX], [_EPS]),
    ("rado", _cmd_rado, "rank-r eigenvalue replacement A + XC", "exact",
     [_BARE_MATRIX, ("x", "matrix of eigenvector columns"), ("c", "update matrix")],
     [("--eigenvalues",
       {"required": True, "help": "comma-separated eigenvalues of the columns"})]),
    ("threshold", _cmd_threshold, "least feasible shift, both parameterizations", "exact",
     [_MATRIX], []),
    ("balance", _cmd_balance, "balanced matrix at a given dominant-eigenvalue shift", "exact",
     [_MATRIX], [_EPS]),
    ("balance-min", _cmd_balance_min, "balanced family report", "exact", [_MATRIX], []),
    ("t33", _cmd_t33, "balanced form with row/column sums n*r", "exact", [_MATRIX], []),
    ("check4", _cmd_check4, "per-column slack condition", "exact", [_MATRIX], []),
    ("cospectral-ds", _cmd_cospectral_ds,
     "doubly stochastic matrix cospectral to a stochastic one", "exact", [_MATRIX], []),
    ("nearest", _cmd_nearest, "Frobenius projection onto unit row/column sums", "exact",
     [_MATRIX], [("--distance", {"action": "store_true", "help": "print the squared gap"})]),
    ("embed", _cmd_embed, "embed an (n-1)-block into unit row/column sums", "float",
     [_BARE_MATRIX], _BASIS),
    ("extract", _cmd_extract, "recover the embedded (n-1)-block", "float", [_BARE_MATRIX], _BASIS),
    ("realize", _cmd_realize, "nonnegative realization with shifted dominant entry", "float",
     [_SPECTRUM], _BASIS),
    ("realize-cospectral", _cmd_realize_cospectral, "unit-sum realization of a spectrum",
     "float", [_SPECTRUM], _BASIS),
    ("normalize", _cmd_normalize, "diagonal similarity onto constant row sums", "float",
     [_BARE_MATRIX], []),
]


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, built in full only where it will parse.

    Every ``_COMMANDS`` row registers its name and help line, so ``--help``
    and the usage lines list all subcommands.  When ``argv[0]`` names a
    subcommand, only that row also gets its arguments; otherwise every row
    does.
    """
    named = argv[0] if argv and argv[0] in {row[0] for row in _COMMANDS} else None
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
    for name, handler, help_text, mode, positionals, options in _COMMANDS:
        if named not in (None, name):
            sub.add_parser(name, help=help_text)
            continue
        p = sub.add_parser(name, help=help_text, parents=[common])
        for arg, arg_help in positionals:
            p.add_argument(arg, help=arg_help)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler, runs_in=mode)
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
    argv = _merge_negative_values(list(argv))
    parser = build_parser(argv)
    try:
        ns = parser.parse_args(argv)
        for flag in _NEGATIVE_VALUE_FLAGS:
            # argparse (Python 3.11, for one) strips the `--` out of
            # `--eps=--` and stores an empty list instead of a string
            if getattr(ns, flag[2:], None) == []:
                parser.error(f"argument {flag}: expected one argument")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if ns.mode not in (None, ns.runs_in):
        print(f"error: {ns.command} runs in {ns.runs_in} mode", file=sys.stderr)
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
    except ValueError as exc:
        # str() refuses an int longer than this interpreter's digit limit
        if "integer string conversion" not in str(exc):
            raise
        print(
            "error: the exact result has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits (sys.get_int_max_str_digits())",
            file=sys.stderr,
        )
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
