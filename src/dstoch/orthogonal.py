"""The floating-point half: float matrices, orthogonal embeddings, realizations.

Conjugating 1 (+) X by an orthogonal matrix whose first column is the
normalized all-ones vector produces a matrix with all row and column sums 1
and spectrum {1} union spectrum(X); the inverse direction recovers X.  Built
on that: realize any conjugate-closed spectrum with dominant entry 1 as such
a matrix via a companion block, and lift it to a nonnegative matrix by a
uniform shift.  Alongside: the float matrix type and its text format, the
Faddeev-LeVerrier recurrence over floats, and the diagonal similarity of a
nonnegative matrix onto constant row sums.

This is the only module that imports numpy; the exact modules never load it.
Tolerances are fixed module constants.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt

from .core import _Grid, _parse_rows, _Record
from .errors import (
    BasisError,
    DimensionError,
    FormatError,
    MembershipError,
    NormalizationError,
    PreconditionError,
)
from .spectra import SpectrumList, _poly_from_closed

# numpy loads after dstoch.spectra: without a bytecode cache, compiling spectra
# while numpy is in memory would add to a float subcommand's peak memory
import numpy as np

__all__ = [
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
    "ASSEMBLY_TOL",
    "MEMBERSHIP_TOL",
    "EXTRACT_TOL",
    "SPECTRAL_TOL",
]

#: orthogonality / first-column / symmetry checks at assembly time
ASSEMBLY_TOL = 1e-12
#: row/column sums of embedded matrices
MEMBERSHIP_TOL = 1e-10
#: acceptance window when pulling a matrix back through the embedding
EXTRACT_TOL = 1e-8
#: characteristic polynomial coefficient comparisons
SPECTRAL_TOL = 1e-9
#: entries above this count as nonnegative (float assembly noise)
NONNEG_TOL = -1e-10


class FloatMatrix(_Grid):
    """Dense matrix of finite 64-bit floats, immutable."""

    __slots__ = ("_a",)

    def __init__(self, rows):
        if isinstance(rows, np.ndarray):
            a = rows.astype(float, copy=True)
        else:
            a = np.array([[float(e) for e in row] for row in rows], dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise DimensionError("matrix must have at least one row and column")
        if not np.all(np.isfinite(a)):
            raise ValueError("float matrix entries must be finite")
        a.setflags(write=False)
        self._a = a

    @property
    def n_rows(self) -> int:
        return self._a.shape[0]

    @property
    def n_cols(self) -> int:
        return self._a.shape[1]

    def __getitem__(self, key: tuple[int, int]) -> float:
        i, j = key
        return float(self._a[i, j])

    def __eq__(self, other) -> bool:
        return isinstance(other, FloatMatrix) and np.array_equal(self._a, other._a)

    def __repr__(self) -> str:
        return f"FloatMatrix({self.n_rows}x{self.n_cols})"

    def row_sums(self) -> tuple[float, ...]:
        return tuple(float(s) for s in self._a.sum(axis=1))

    def col_sums(self) -> tuple[float, ...]:
        return tuple(float(s) for s in self._a.sum(axis=0))

    def min_entry(self) -> float:
        return float(self._a.min())

    def to_numpy(self) -> np.ndarray:
        return self._a.copy()

    def allclose(self, other: "FloatMatrix", tol: float) -> bool:
        return self.shape == other.shape and bool(
            np.all(np.abs(self._a - other._a) <= tol)
        )


def _float_entry(tok: str) -> float:
    try:
        return float(tok)
    except ValueError:
        try:
            return float(Fraction(tok))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise FormatError(f"bad float entry {tok!r}") from None


def parse_float_matrix(text: str) -> FloatMatrix:
    """Parse a matrix in floating mode; accepts float literals and p/q entries."""
    return FloatMatrix(_parse_rows(text, _float_entry))


def format_float_matrix(a: FloatMatrix) -> str:
    """Text form with 17 significant digits, enough to round-trip every float."""
    return "\n".join(
        " ".join(format(x, ".17g") for x in row) for row in a.to_numpy().tolist()
    )


def charpoly_float(a: FloatMatrix) -> tuple[float, ...]:
    """The Faddeev-LeVerrier recurrence of ``spectra.charpoly`` over floats;
    coefficients lowest degree first."""
    n = a.require_square()
    arr = a.to_numpy()
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    am = np.zeros((n, n))
    c = 1.0
    ident = np.eye(n)
    for k in range(1, n + 1):
        m = am + c * ident
        am = arr @ m
        c = -np.trace(am) / k
        coeffs[n - k] = c
    return tuple(float(x) for x in coeffs)


class OrthoBasis(_Record):
    """Orthogonal matrix whose first column is the normalized all-ones vector.

    ``OrthoBasis(u)`` validates a caller's basis on construction: U^T U = I
    and first column 1/sqrt(n) within ASSEMBLY_TOL.
    """

    __slots__ = ("u",)

    def __init__(self, u: FloatMatrix):
        n = u.require_square()
        arr = u.to_numpy()
        if np.abs(arr.T @ arr - np.eye(n)).max() > ASSEMBLY_TOL:
            raise BasisError("matrix is not orthogonal within tolerance")
        lead = 1.0 / sqrt(n)
        if np.abs(arr[:, 0] - lead).max() > ASSEMBLY_TOL:
            raise BasisError("first column is not the normalized all-ones vector")
        super().__init__(u)

    @property
    def n(self) -> int:
        return self.u.n_rows


def canonical_basis(n: int) -> OrthoBasis:
    """The symmetric orthogonal involution with leading all-ones column.

    Block form: top-left 1/sqrt(n), first row/column 1/sqrt(n) throughout,
    and lower-right block I - (1 + 1/sqrt(n)) times the uniform matrix of
    order n-1.  Besides the checks of :class:`OrthoBasis`, it checks its own
    symmetry and involution within ASSEMBLY_TOL.
    """
    if n < 1:
        raise DimensionError("order must be at least 1")
    arr = np.empty((n, n))
    lead = 1.0 / sqrt(n)
    arr[:, 0] = lead
    arr[0, :] = lead
    if n > 1:
        block = np.eye(n - 1) - (1.0 + lead) / (n - 1)
        arr[1:, 1:] = block
    basis = OrthoBasis(FloatMatrix(arr))
    if np.abs(arr - arr.T).max() > ASSEMBLY_TOL:
        raise BasisError("canonical basis must be symmetric")
    if np.abs(arr @ arr - np.eye(n)).max() > ASSEMBLY_TOL:
        raise BasisError("canonical basis must be an involution")
    return basis


def random_basis(n: int, seed: int) -> OrthoBasis:
    """Random orthogonal basis with leading all-ones column, reproducible by seed.

    One Householder QR of the n-by-n matrix [1/sqrt(n) * 1, G], with G an
    n-by-(n-1) standard-normal draw from ``np.random.default_rng(seed)``.
    Q's columns are multiplied by the signs of diag(R), which makes the
    factorization unique and the first column +1/sqrt(n) (Mezzadri, "How to
    generate random matrices from the classical compact groups", Notices AMS
    54, 2007).  |R_jj| is the norm of column j of the draw after its
    projection on the earlier columns is removed; a draw with some
    |R_jj| < 1e-8 (j >= 1) is degenerate and is redrawn from the same
    generator.  A negative seed raises :class:`PreconditionError`.
    """
    if n < 1:
        raise DimensionError("order must be at least 1")
    if seed < 0:
        raise PreconditionError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    a = np.empty((n, n))
    a[:, 0] = 1.0 / sqrt(n)
    while True:
        a[:, 1:] = rng.standard_normal((n, n - 1))
        q, r = np.linalg.qr(a)
        d = np.diagonal(r)
        if np.all(np.abs(d[1:]) >= 1e-8):
            break
    return OrthoBasis(FloatMatrix(q * np.sign(d)))


def embed(basis: OrthoBasis, x: FloatMatrix) -> FloatMatrix:
    """U (1 (+) X) U^T: a matrix with unit row/column sums and spectrum
    {1} union spectrum(X)."""
    n = basis.n
    if x.shape != (n - 1, n - 1):
        raise DimensionError(
            f"block must be {n - 1}-by-{n - 1} for a basis of order {n}"
        )
    u = basis.u.to_numpy()
    block = np.zeros((n, n))
    block[0, 0] = 1.0
    block[1:, 1:] = x.to_numpy()
    return FloatMatrix(u @ block @ u.T)


def extract(basis: OrthoBasis, a: FloatMatrix) -> FloatMatrix:
    """Inverse of :func:`embed`: recover X from a unit row/column sum matrix.

    Conjugates by the basis and checks that the first row and column of the
    result are (1, 0, ..., 0) within EXTRACT_TOL, which is equivalent to the
    input having unit row and column sums.
    """
    n = basis.n
    if n == 1:
        raise DimensionError("order-1 matrices have no block to extract")
    if a.shape != (n, n):
        raise DimensionError(f"matrix must be {n}-by-{n} for this basis")
    if any(abs(s - 1.0) > EXTRACT_TOL for s in a.row_sums() + a.col_sums()):
        raise MembershipError("row and column sums must equal 1 within tolerance")
    u = basis.u.to_numpy()
    m = u.T @ a.to_numpy() @ u
    first = np.concatenate([m[0, :], m[1:, 0]])
    target = np.concatenate([[1.0], np.zeros(2 * n - 2)])
    if np.abs(first - target).max() > EXTRACT_TOL:
        raise MembershipError(
            "conjugated matrix does not split off the unit eigenvalue"
        )
    return FloatMatrix(m[1:, 1:])


def realize_cospectral(s: SpectrumList, basis: OrthoBasis | None = None) -> FloatMatrix:
    """Matrix with unit row/column sums realizing a spectrum whose dominant
    entry is 1.

    The non-dominant entries go through the companion matrix of their
    polynomial, embedded via the canonical basis unless another is supplied.
    The polynomial comes from ``spectra._poly_from_closed`` without a second
    closure check: ``SpectrumList`` checked closure on construction, and the
    dominant entry taken out is exactly (1, 0).
    The float block is built from the polynomial's coefficients: ones on the
    superdiagonal and last row float(-c_j), the same floats as the entries
    of ``spectra.companion`` (float(-c), not -float(c), so that a zero
    coefficient stays +0.0).
    """
    if s.perron != (1, 0):
        raise PreconditionError("designated dominant entry must equal 1")
    n = s.size
    if basis is None:
        basis = canonical_basis(n)
    elif basis.n != n:
        raise DimensionError(f"basis order {basis.n} does not match spectrum size {n}")
    if n == 1:
        return FloatMatrix([[1.0]])
    k = n - 1
    block = np.eye(k, k, 1)
    block[-1] = [float(-c) for c in _poly_from_closed(s.rest()).coefficients[:k]]
    return embed(basis, FloatMatrix(block))


def realize_nonneg(
    s: SpectrumList, basis: OrthoBasis | None = None
) -> tuple[float, FloatMatrix]:
    """Nonnegative matrix with constant row/column sums 1 + k realizing the
    spectrum with its dominant entry moved from 1 to 1 + k.

    k is the least uniform shift making the embedded matrix entrywise
    nonnegative: n * max(0, -min entry), since the uniform matrix has entries
    1/n.  A min entry above NONNEG_TOL counts as nonnegative, so matrices
    that are nonnegative up to float roundoff keep k = 0.  Returns
    (k, shifted matrix); a shifted matrix beyond the float range raises
    OverflowError.
    """
    return _lift(realize_cospectral(s, basis))


def _lift(b0: FloatMatrix) -> tuple[float, FloatMatrix]:
    """The uniform shift of :func:`realize_nonneg`, applied to its unit-sum
    realization b0."""
    n = b0.n_rows
    low = b0.min_entry()
    if low >= NONNEG_TOL:
        return 0.0, b0
    k = n * -low
    lifted = b0.to_numpy() + k / n
    if not np.all(np.isfinite(lifted)):
        raise OverflowError("the nonnegative lift leaves the float range")
    return k, FloatMatrix(lifted)


def _matched_eig_err(a: FloatMatrix, target) -> float:
    """Largest distance between an entry of ``target`` ((re, im) pairs) and
    the eigenvalue of ``a`` matched to it.

    Greedy, since scipy's assignment solver is not a dependency: targets in
    ascending (re, im) order each take the nearest eigenvalue not yet
    taken, the lower index winning ties.
    """
    free = np.linalg.eigvals(a.to_numpy())
    worst = 0.0
    for re_k, im_k in sorted(target):
        dists = np.abs(free - complex(re_k, im_k))
        j = int(np.argmin(dists))
        worst = max(worst, float(dists[j]))
        free = np.delete(free, j)
    return worst


#: power-iteration controls for normalize_to_stochastic
_POWER_TOL = 1e-12
_POWER_MAX_ITER = 10_000
_MIN_COMPONENT = 1e-10


def normalize_to_stochastic(a: FloatMatrix) -> tuple[FloatMatrix, float]:
    """Diagonal similarity onto constant row sums, by the dominant eigenvector.

    For nonnegative A with strictly positive dominant eigenvector v, the
    matrix D^-1 A D with D = diag(v) has constant row sums equal to the
    dominant eigenvalue r, preserving the spectrum.  Power iteration runs on
    A + I so that nonnegative matrices with several eigenvalues on the
    spectral circle still converge; inputs whose dominant eigenvector has a
    near-zero component (reducible matrices) are rejected.
    """
    n = a.require_square()
    arr = a.to_numpy()
    if arr.min() < 0:
        raise PreconditionError("matrix must be entrywise nonnegative")
    shifted = arr + np.eye(n)
    v = np.ones(n)
    for _ in range(_POWER_MAX_ITER):
        w = shifted @ v
        lam = float(v @ w / (v @ v))
        residual = float(np.abs(w - lam * v).max())
        if residual <= _POWER_TOL * max(1.0, abs(lam)):
            break
        top = float(w.max())
        if top <= 0:
            raise NormalizationError("power iteration collapsed to zero")
        v = w / top
    else:
        raise NormalizationError(
            f"power iteration did not converge in {_POWER_MAX_ITER} iterations"
        )
    v = v / v.max()
    if v.min() < _MIN_COMPONENT:
        raise NormalizationError(
            "dominant eigenvector has a near-zero component (reducible input)"
        )
    r = lam - 1.0
    scaled = arr * v[np.newaxis, :] / v[:, np.newaxis]
    return FloatMatrix(scaled), r
