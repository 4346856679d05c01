"""The four workloads: their inputs, one task each, and the checks on its outputs.

A workload is a fixed list of inputs.  ``inputs(seed, workdir)`` materializes
them, and the closed loop runs them in order, pass after pass.  Every
call into a library function goes through ``call(name, fn, *args)``, which
applies the per-call time limit and, in a traced run, records a span named
``<module>.<function>``.

``check`` returns the reasons an output is wrong (empty when it is right),
``render`` spells an output out for the digest (exact values as text, float
arrays as their bytes), and ``observe`` adds the per-layer counters of one
output.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen
import oracle
from dstoch import (
    FloatMatrix,
    RadoUpdate,
    RatMatrix,
    SpectrumList,
    Stochasticity,
    balance,
    balance_minimal,
    balance_nr,
    canonical_basis,
    charpoly,
    charpoly_float,
    classify,
    column_stats,
    cospectral,
    cospectral_ds,
    ds_condition,
    embed,
    epsilon_threshold,
    extract,
    format_matrix,
    nearest_ds,
    nearest_ds_distance_sq,
    normalize_to_stochastic,
    parse_matrix,
    poly_from_spectrum,
    rado_update,
    random_basis,
    realize_cospectral,
    realize_nonneg,
    shift,
    similar_to_unit_sums,
)
from dstoch.orthogonal import EXTRACT_TOL, MEMBERSHIP_TOL, NONNEG_TOL, SPECTRAL_TOL

#: the companion realization loses its spectrum from n = 40 on (ROADMAP item
#: 3): its block's charpoly then misses the target by up to 1e-8 at n = 40 and
#: 1e-7 at n = 80, so the SPECTRAL_TOL certificate is applied up to this order
#: only, and the loss is reported instead as orthogonal.eig_err_max and
#: orthogonal.coeff_residual_max
SPECTRAL_CHECK_MAX_N = 20


def _rng(workload: str, seed: int, slot: int) -> random.Random:
    # one stream per slot, so a slot's input does not depend on the others
    return random.Random(f"{workload}/{seed}/{slot}")


def _fractions_text(values) -> str:
    return " ".join(str(v) for v in values)


def _grid_text(grid) -> str:
    return "\n".join(_fractions_text(row) for row in grid)


class Workload:
    name = ""

    def inputs(self, seed: int, workdir: Path) -> list:
        raise NotImplementedError

    def task(self, inp, call):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def render(self, inp, out) -> str:
        raise NotImplementedError

    def observe(self, inp, out, counters: dict) -> None:
        pass

    def side(self, inp, span) -> None:
        """Traced runs only: extra measurements outside the task's span,
        each as ``span(name, fn, *args)``."""


def _maximize(counters: dict, key: str, value) -> None:
    counters[key] = max(counters.get(key, value), value)


def _minimize(counters: dict, key: str, value) -> None:
    counters[key] = min(counters.get(key, value), value)


# ---------------------------------------------------------------------------
# exact_spectral


@dataclass(frozen=True)
class SpectralInput:
    grid: oracle.Grid
    r: Fraction
    a: RatMatrix
    unit: RatMatrix
    ones: RatMatrix
    crow: RatMatrix


@dataclass(frozen=True)
class SpectralOutput:
    poly: tuple
    eps: Fraction
    balanced: RatMatrix
    back: RatMatrix
    same: bool
    similar: bool
    updated: RatMatrix


class ExactSpectral(Workload):
    name = "exact_spectral"
    #: (order, denominator regime, kind); S = stochastic, R = constant row
    #: sums r != 1.  Each order cycles through both regimes and both kinds.
    #: Orders stop at 12, where a task takes about 0.4 s, so that a pass takes
    #: about 4 s and a 20 s run repeats every input at least four times.
    #: Sorted by cost, the median falls inside the twelve n = 8 inputs and the
    #: tail percentile (ten inputs beyond it) inside the eight n = 10 ones,
    #: away from any boundary between orders.
    slots = tuple(
        (n, *(("small", "S"), ("wide", "R"), ("small", "R"), ("wide", "S"))[k % 4])
        for n, count in ((6, 8), (8, 12), (10, 8), (12, 4))
        for k in range(count)
    )

    def inputs(self, seed, workdir):
        out = []
        for k, (n, regime, kind) in enumerate(self.slots):
            rng = _rng(self.name, seed, k)
            den = gen.SMALL_DENS if regime == "small" else gen.WIDE_DENS
            make = gen.stochastic_pairs if kind == "S" else gen.row_constant_pairs
            grid = gen.to_fractions(make(rng, n, den))
            r = sum(grid[0])
            crow = gen.small_row(rng, n)
            out.append(
                SpectralInput(
                    grid=grid,
                    r=r,
                    a=RatMatrix(grid),
                    unit=RatMatrix([[e / r for e in row] for row in grid]),
                    ones=RatMatrix([[1]] * n),
                    crow=RatMatrix([crow]),
                )
            )
        return out

    def task(self, inp, call):
        a = inp.a
        poly = call("spectra.charpoly", charpoly, a)
        eps = call("balance.epsilon_threshold", epsilon_threshold, a)
        balanced = call("balance.balance", balance, a, eps)
        back = call("rado.shift", shift, balanced, -eps)
        same = call("spectra.cospectral", cospectral, a, back)
        similar = call("spectra.similar_to_unit_sums", similar_to_unit_sums, inp.unit)
        update = call("rado.RadoUpdate", RadoUpdate, a, inp.ones, inp.crow, [inp.r])
        updated = call("rado.rado_update", rado_update, a, update)
        return SpectralOutput(
            poly.coefficients, eps, balanced, back, same, similar, updated
        )

    def check(self, inp, out):
        g, n = inp.grid, len(inp.grid)
        bad = oracle.charpoly_failures(g, out.poly)
        if oracle.horner(out.poly, inp.r) != 0:
            bad.append("the row sum r is not a root of the charpoly")
        bad += oracle.balance_failures(g, inp.r, out.eps, out.balanced.rows, True)
        want_back = tuple(
            tuple(e - out.eps / n for e in row) for row in out.balanced.rows
        )
        if out.back.rows != want_back:
            bad.append("shift is not B - eps J")
        if out.same is not True:
            bad.append("balanced-and-shifted-back matrix reported not cospectral")
        # a nonnegative matrix with unit row sums has a nonnegative left
        # eigenvector for 1, which is never orthogonal to the all-ones vector
        if out.similar is not True:
            bad.append("similar_to_unit_sums is false on a unit-row-sum matrix")
        bad += oracle.rado_failures(g, inp.r, inp.crow.rows[0], out.updated.rows)
        return bad

    def render(self, inp, out):
        return "\n".join(
            [
                _fractions_text(out.poly),
                str(out.eps),
                _grid_text(out.balanced.rows),
                _grid_text(out.back.rows),
                f"{out.same} {out.similar}",
                _grid_text(out.updated.rows),
            ]
        )

    def observe(self, inp, out, counters):
        _maximize(counters, "spectra.den_bits_max", oracle.den_bits(out.poly))


# ---------------------------------------------------------------------------
# exact_structural


@dataclass(frozen=True)
class StructuralInput:
    grid: oracle.Grid
    text: str


@dataclass(frozen=True)
class StructuralOutput:
    a: RatMatrix
    tag: object
    stats: tuple
    eps: Fraction
    report: object
    nr: RatMatrix
    condition: object
    projected: RatMatrix
    distance: Fraction | None
    back: RatMatrix
    text: str


class ExactStructural(Workload):
    name = "exact_structural"
    #: as in exact_spectral: passes of about 3 s, with the median inside
    #: the eleven n = 12 inputs and the tail percentile inside the seven
    #: n = 16 ones; orders stop at 32, where a task takes about 0.7 s
    slots = (8,) * 8 + (12,) * 11 + (16,) * 7 + (24,) * 4 + (32,) * 2

    def inputs(self, seed, workdir):
        out = []
        for k, n in enumerate(self.slots):
            pairs = gen.stochastic_pairs(_rng(self.name, seed, k), n, gen.SMALL_DENS)
            out.append(StructuralInput(gen.to_fractions(pairs), gen.to_text(pairs)))
        return out

    def task(self, inp, call):
        a = call("core.parse_matrix", parse_matrix, inp.text)
        tag = call("core.classify", classify, a)
        stats = call("core.column_stats", column_stats, a)
        eps = call("balance.epsilon_threshold", epsilon_threshold, a)
        report = call("balance.balance_minimal", balance_minimal, a)
        nr = call("balance.balance_nr", balance_nr, a)
        condition = call("nearness.ds_condition", ds_condition, a)
        if condition.holds:
            projected = call("nearness.cospectral_ds", cospectral_ds, a)
            distance = None
        else:
            projected = call("nearness.nearest_ds", nearest_ds, a)
            distance = call(
                "nearness.nearest_ds_distance_sq", nearest_ds_distance_sq, a
            )
        back = call("rado.shift", shift, nr, 1 - a.n_rows)
        text = call("core.format_matrix", format_matrix, projected)
        return StructuralOutput(
            a, tag, stats, eps, report, nr, condition, projected, distance, back, text
        )

    def check(self, inp, out):
        g, n = inp.grid, len(inp.grid)
        bad = []
        if out.a.rows != g:
            bad.append("parse_matrix does not reproduce the generated matrix")
        x, mins = oracle.col_sums(g), oracle.col_mins(g)
        doubly = all(s == 1 for s in x)
        want_tag = Stochasticity.DOUBLY_STOCHASTIC if doubly else Stochasticity.STOCHASTIC
        if out.tag.tag is not want_tag or out.tag.r != 1:
            bad.append(f"classify gave {out.tag}, expected {want_tag.value} r=1")
        if out.stats != (tuple(x), tuple(mins)):
            bad.append("column_stats disagrees with direct sums and minima")
        rep = out.report
        if rep.epsilon_threshold != out.eps:
            bad.append("balance_minimal and epsilon_threshold disagree")
        # n reaches 64 here: the charpoly identity at one point only, and none
        # for the n*r form, whose offsets and sums already fix every entry
        bad += oracle.balance_failures(g, Fraction(1), out.eps, rep.b_min.rows, True, (2,))
        m = x.index(max(x))
        if rep.m != m + 1 or n * rep.y_threshold + x[m] - 1 != out.eps:
            bad.append("balance_minimal's y parameterization is inconsistent")
        tight = {j + 1 for j, v in enumerate(oracle.col_mins(rep.b_min.rows)) if v == 0}
        if set(rep.tight_columns) != tight:
            bad.append("tight columns are not the columns with a zero entry")
        bad += oracle.balance_failures(
            g, Fraction(1), Fraction(n - 1), out.nr.rows, False, ()
        )
        slacks = [1 + n * mins[j] - x[j] for j in range(n)]
        cond = out.condition
        if [c.slack for c in cond.per_column] != slacks or cond.holds != all(
            s >= 0 for s in slacks
        ):
            bad.append("ds_condition slacks disagree with 1 + n a_j - x_j")
        want = oracle.nearest_closed_form(g)
        if out.projected.rows != want:
            bad.append("projection differs from the closed form")
        if out.distance is not None and out.distance != oracle.distance_sq(g, want):
            bad.append("nearest_ds_distance_sq differs from the closed-form gap")
        want_back = tuple(tuple(g[i][j] + (1 - x[j]) / n for j in range(n)) for i in range(n))
        if out.back.rows != want_back:
            bad.append("shift of the n*r balance is not balance(A, 0)")
        lines = out.text.split("\n")
        tokens = [line.split(" ") for line in lines]
        if (
            len(lines) != n
            or any(str(Fraction(t)) != t for row in tokens for t in row)
            or tuple(tuple(Fraction(t) for t in row) for row in tokens) != want
        ):
            bad.append("format_matrix text does not spell the projection in lowest terms")
        return bad

    def render(self, inp, out):
        rep = out.report
        return "\n".join(
            [
                str(out.tag),
                _fractions_text(out.stats[0]),
                _fractions_text(out.stats[1]),
                rep.to_text(),
                _grid_text(out.nr.rows),
                out.condition.to_text(),
                str(out.distance),
                _grid_text(out.back.rows),
                out.text,
            ]
        )

    def observe(self, inp, out, counters):
        _maximize(
            counters,
            "nearness.den_bits_max",
            oracle.den_bits(e for row in out.projected.rows for e in row),
        )


# ---------------------------------------------------------------------------
# float_realize


@dataclass(frozen=True)
class FloatInput:
    spectrum: SpectrumList
    target: tuple
    block: FloatMatrix
    positive: FloatMatrix
    basis_seed: int


@dataclass(frozen=True)
class FloatOutput:
    realized: FloatMatrix
    k: float
    lifted: FloatMatrix
    got: tuple
    want: tuple
    round_trips: tuple
    normalized: FloatMatrix
    r: float


class FloatRealize(Workload):
    name = "float_realize"
    #: about ten passes fit a run; the median falls inside the n = 20
    #: inputs and the tail percentile (ten inputs beyond it) inside the
    #: n = 40 ones
    slots = (10,) * 20 + (20,) * 50 + (40,) * 25 + (80,) * 5

    def inputs(self, seed, workdir):
        out = []
        for k, n in enumerate(self.slots):
            rng = _rng(self.name, seed, k)
            entries = gen.unit_disk_spectrum(rng, n)
            out.append(
                FloatInput(
                    spectrum=SpectrumList(entries),
                    target=tuple(complex(re, im) for re, im in entries),
                    block=FloatMatrix(gen.positive_array(rng, n - 1, n - 1)),
                    positive=FloatMatrix(gen.positive_array(rng, n, n)),
                    basis_seed=rng.randrange(2**31),
                )
            )
        return out

    def task(self, inp, call):
        s = inp.spectrum
        n = s.size
        realized = call("orthogonal.realize_cospectral", realize_cospectral, s)
        k, lifted = call("orthogonal.realize_nonneg", realize_nonneg, s)
        canon = call("orthogonal.canonical_basis", canonical_basis, n)
        block = call("orthogonal.extract", extract, canon, realized)
        got = call("spectra.charpoly_float", charpoly_float, block)
        want = call("spectra.poly_from_spectrum", poly_from_spectrum, s.rest())
        rand = call("orthogonal.random_basis", random_basis, n, inp.basis_seed)
        round_trips = []
        for basis in (canon, rand):
            embedded = call("orthogonal.embed", embed, basis, inp.block)
            round_trips.append((embedded, call("orthogonal.extract", extract, basis, embedded)))
        normalized, r = call(
            "balance.normalize_to_stochastic", normalize_to_stochastic, inp.positive
        )
        return FloatOutput(
            realized,
            k,
            lifted,
            got,
            tuple(float(c) for c in want.coefficients),
            tuple(round_trips),
            normalized,
            r,
        )

    def check(self, inp, out):
        n = inp.spectrum.size
        bad = []
        realized = out.realized.to_numpy()
        if oracle.sum_err(realized, 1.0) > MEMBERSHIP_TOL:
            bad.append("realization's row/column sums miss 1 by more than MEMBERSHIP_TOL")
        if len(out.got) != len(out.want) or (
            n <= SPECTRAL_CHECK_MAX_N and oracle.coeff_residual(out.got, out.want) > SPECTRAL_TOL
        ):
            bad.append("extracted block's charpoly misses the target by more than SPECTRAL_TOL")
        lifted = out.lifted.to_numpy()
        scale = 1.0 + out.k
        if out.k < 0 or lifted.min() < NONNEG_TOL:
            bad.append("nonnegative lift has k < 0 or an entry below NONNEG_TOL")
        if oracle.sum_err(lifted, scale) > MEMBERSHIP_TOL * scale:
            bad.append("lifted row/column sums miss 1 + k")
        if np.abs(lifted - realized - out.k / n).max() > MEMBERSHIP_TOL * scale:
            bad.append("nonnegative lift is not the realization plus (k/n) J")
        block = inp.block.to_numpy()
        for embedded, extracted in out.round_trips:
            if oracle.sum_err(embedded.to_numpy(), 1.0) > MEMBERSHIP_TOL:
                bad.append("embedding's row/column sums miss 1")
            if np.abs(extracted.to_numpy() - block).max() > EXTRACT_TOL:
                bad.append("extract(embed(X)) differs from X by more than EXTRACT_TOL")
        normalized, r = out.normalized.to_numpy(), out.r
        if normalized.min() < 0:
            bad.append("normalized matrix has a negative entry")
        if np.abs(normalized.sum(axis=1) - r).max() > MEMBERSHIP_TOL * max(1.0, r):
            bad.append("normalized row sums are not constant")
        top = max(np.linalg.eigvals(inp.positive.to_numpy()).real)
        if abs(top - r) > SPECTRAL_TOL * max(1.0, r):
            bad.append("normalization's r is not the dominant eigenvalue")
        return bad

    def render(self, inp, out):
        arrays = [out.realized, out.lifted, *(m for pair in out.round_trips for m in pair),
                  out.normalized]
        return "\n".join(
            [repr((out.k, out.r, out.got, out.want))]
            + [a.to_numpy().tobytes().hex() for a in arrays]
        )

    def observe(self, inp, out, counters):
        eig = oracle.matched_eig_err(np.linalg.eigvals(out.realized.to_numpy()), inp.target)
        _maximize(counters, "orthogonal.eig_err_max", eig)
        _maximize(
            counters, "orthogonal.coeff_residual_max", oracle.coeff_residual(out.got, out.want)
        )
        _maximize(counters, "orthogonal.k_max", out.k)
        _maximize(
            counters,
            "orthogonal.sum_err_max",
            max(
                oracle.sum_err(out.realized.to_numpy(), 1.0),
                oracle.sum_err(out.lifted.to_numpy(), 1.0 + out.k),
            ),
        )
        _minimize(counters, "orthogonal.min_entry", out.lifted.min_entry())


# ---------------------------------------------------------------------------
# cli_mix


@dataclass(frozen=True)
class CliInput:
    args: tuple
    expected_exit: int
    exact_output: bool
    #: why this case breaks the documented contract today, if it does
    known_defect: str = ""


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


def _float_text(arr: np.ndarray) -> str:
    return "\n".join(" ".join(format(float(v), ".17g") for v in row) for row in arr)


def run_in_process(args) -> tuple[int, str]:
    """The same argv through dstoch.cli.run, stdout captured; an uncaught
    exception reads as exit 1, as it would from the interpreter."""
    from dstoch.cli import run

    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            code = run(list(args))
        except Exception:  # the process would print a traceback and exit 1
            code = 1
    return code, buf.getvalue()


class CliMix(Workload):
    name = "cli_mix"

    def __init__(self):
        self._expected: dict = {}
        self._env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))

    def inputs(self, seed, workdir):
        rng = _rng(self.name, seed, 0)
        n = rng.randint(5, 8)
        a = gen.to_fractions(gen.stochastic_pairs(rng, n, gen.SMALL_DENS))
        ds = gen.doubly_stochastic(rng, n)
        x, mins = oracle.col_sums(a), oracle.col_mins(a)
        check4_exit = 0 if all(xj <= 1 + n * aj for xj, aj in zip(x, mins)) else 1
        files = {
            "a.mat": _grid_text(a),
            "pa.mat": _grid_text(gen.permuted(a, rng)),
            "ds.mat": _grid_text(ds),
            "x.mat": "\n".join(["1"] * n),
            "c.mat": _fractions_text(gen.small_row(rng, n)),
            "block.mat": _float_text(gen.positive_array(rng, n - 1, n - 1)),
            "unit.mat": _float_text(np.array(ds, dtype=float)),
            "pos.mat": _float_text(gen.positive_array(rng, n, n)),
            "s.spectrum": "\n".join(
                f"{re}" if im == 0 else f"{re}{'+' if im > 0 else '-'}{abs(im)}i"
                for re, im in gen.unit_disk_spectrum(rng, n)
            ),
            "bad-token.mat": "1/2 x 1/2\n1/3 1/3 1/3\n0 0 1",
            "ragged.mat": "1/2 1/2\n1/3 1/3 1/3",
            "non-square.mat": "1/2 1/2 0\n0 1/2 1/2",
            "non-finite.mat": "0.5 nan\n0.25 0.75",
        }
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (workdir / name).write_text(text + "\n", encoding="utf-8")
        p = {name: str(workdir / name) for name in files}
        seed_arg = str(rng.randrange(1000))
        return [
            CliInput(("classify", p["a.mat"]), 0, True),
            CliInput(("colstats", p["a.mat"]), 0, True),
            CliInput(("charpoly", p["a.mat"]), 0, True),
            CliInput(("cospectral", p["a.mat"], p["pa.mat"]), 0, True),
            CliInput(("check41", p["a.mat"]), 0, True),
            CliInput(("shift", "--eps", "-1/2", p["a.mat"]), 0, True),
            CliInput(
                ("rado", p["a.mat"], p["x.mat"], p["c.mat"], "--eigenvalues", "1"), 0, True
            ),
            CliInput(("threshold", p["a.mat"]), 0, True),
            CliInput(("balance", "--eps", str(n - 1), p["a.mat"]), 0, True),
            CliInput(("balance-min", p["a.mat"], "--json"), 0, True),
            CliInput(("t33", p["a.mat"]), 0, True),
            CliInput(("check4", p["a.mat"]), check4_exit, True),
            CliInput(("cospectral-ds", p["ds.mat"]), 0, True),
            CliInput(("nearest", p["a.mat"]), 0, True),
            CliInput(("embed", p["block.mat"], "--basis", "random", "--seed", seed_arg), 0, False),
            CliInput(("extract", p["unit.mat"]), 0, False),
            CliInput(("realize", p["s.spectrum"]), 0, False),
            CliInput(
                ("realize-cospectral", p["s.spectrum"], "--basis", "random", "--seed", seed_arg),
                0,
                False,
            ),
            CliInput(("normalize", p["pos.mat"]), 0, False),
            CliInput(("classify", p["bad-token.mat"]), 2, True),
            CliInput(("classify", p["ragged.mat"]), 2, True),
            CliInput(
                ("classify", p["non-square.mat"]), 2, True,
                known_defect="a non-square matrix exits 3, not 2 (ROADMAP item 5)",
            ),
            CliInput(
                ("normalize", p["non-finite.mat"]), 2, False,
                known_defect="a nan float file crashes normalize with exit 1 (ROADMAP item 5)",
            ),
        ]

    def _process(self, args) -> CliOutput:
        proc = subprocess.run(
            [sys.executable, "-m", "dstoch.cli", *args],
            env=self._env,
            capture_output=True,
            text=True,
        )
        return CliOutput(proc.returncode, proc.stdout, proc.stderr)

    def task(self, inp, call):
        return call("cli.process", self._process, inp.args)

    def check(self, inp, out):
        if out.code != inp.expected_exit:
            return [f"{inp.args[0]} exited {out.code}, expected {inp.expected_exit}"]
        if inp.expected_exit in (0, 1):
            if inp.args not in self._expected:
                self._expected[inp.args] = run_in_process(inp.args)
            if self._expected[inp.args] != (out.code, out.stdout):
                return [f"{inp.args[0]} output differs from dstoch.cli.run in process"]
        return []

    def render(self, inp, out):
        # float output stays out, so the recorded digest holds on any BLAS
        return f"{out.code}\n{out.stdout if inp.exact_output else ''}"

    def observe(self, inp, out, counters):
        if out.code != inp.expected_exit:
            counters["cli.exit_mismatch"] = counters.get("cli.exit_mismatch", 0) + 1

    def side(self, inp, span):
        span("cli.run", run_in_process, inp.args)


WORKLOADS = {w.name: w for w in (ExactSpectral, ExactStructural, FloatRealize, CliMix)}
