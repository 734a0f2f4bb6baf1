"""Dense complex linear-algebra kernels with explicit tolerance policy.

Everything downstream (indices, canonical forms, factorizations, graph
completions) is built from the operations in this module: Hermitian
eigendecomposition and its spectral split, inertia counting, PSD square
root, rank, null-space extraction, Moore-Penrose pseudo-inverse, and
SVD.  All of them share a single two-knob :class:`Tolerance`:

* ``rank_tol``     decides when a singular value or eigenvalue counts as
  zero, always relative to the spectral norm of the operand;
* ``residual_tol`` bounds matrix-equation residuals, again relative to
  operand norms.

Every relative ``rank_tol`` decision is made in one of two places:
eigenvalues are split into plus/minus/zero bands by :func:`band_split`
(behind :func:`spectral_split`), and singular values are cut by
:func:`count_above_cut` (behind :func:`rank`).  Both decide from values
alone (:func:`rank`, :meth:`HermSpectrum.counts`) unless a value lies within
1e-12 of the largest from its cut, where the spectrum with vectors decides;
a zero spectrum, whose values are all 0 on either pass, is decided from values.
A verdict that prints no number is first offered to a certificate that
proves it at 10^3 times its cut (:func:`_certified_level`), beyond LAPACK's
error: a Cholesky under Rump's a-priori bound (:func:`_certified_pd`), or
for a congruence the bound its verified inverse gives; what no certificate
proves goes to those two places.

Cheap first as well, a residual check ``||R||_2 <= t * scale(||S||_2)``
whose norm is not reported goes through :func:`norm_within`: the Frobenius
sandwich ``||X||_F / sqrt(min(m, n)) <= ||X||_2 <= ||X||_F`` (Golub & Van
Loan, 2.3), widened by a slack of 1e-12 far above its rounding, decides
unless it straddles the threshold, and only then are the 2-norms (a
scale's cached ``norm``) computed.  Norms that are reported, or that set a
band or a level, are exact and decide their own check.

Matrices are plain ``numpy`` complex arrays in row-major layout.  The
heavy lifting is delegated to LAPACK through numpy; this module owns the
tolerance discipline, the error taxonomy, and the deterministic ordering
conventions (eigenvalues ascending, singular values descending).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (IllConditioned, InputError, NoConvergence, NotHermitian,
                     NotInvertible, NotPSD, NumericalError)

__all__ = [
    "Tolerance",
    "HermEig",
    "SpectralSplit",
    "spectral_norm",
    "norm_within",
    "herm_eig",
    "spectral_split",
    "band_split",
    "inertia",
    "psd_sqrt",
    "rank",
    "count_above_cut",
    "null_basis",
    "range_basis",
    "pinv",
    "svd",
    "conditioned_svd",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy: rank cut and residual bound, both relative.

    Defaults leave at least five digits of headroom in double precision
    for dimensions up to 64.  Both knobs must be strictly positive and
    no larger than 1e-2; anything looser makes the zero band swallow
    genuine spectrum.
    """

    rank_tol: float = 1e-10
    residual_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_tol", "residual_tol"):
            value = getattr(self, name)
            if not (0.0 < value <= 1e-2):
                raise InputError(
                    f"{name} must lie in (0, 1e-2], got {value!r}")


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal columns, so ``M @ V = V @ diag(w)``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralSplit(HermEig):
    """Eigendecomposition with boolean masks over the eigenvalues (above
    ``band``, below ``-band``, inside ``[-band, band]``) and their
    ``counts`` (n_plus, n_minus, n_zero)."""

    band: float
    plus: np.ndarray
    minus: np.ndarray
    zero: np.ndarray
    counts: tuple[int, int, int]


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InputError("matrix contains NaN or Inf entries")
    return A


def spectral_norm(M) -> float:
    """Largest singular value; 0.0 for matrices with an empty axis.  The
    values-only SVD ``np.linalg.norm(A, 2)`` takes, without its wrapper."""
    A = _as_matrix(M)
    if min(A.shape) == 0:   # no value to read, so no SVD is taken for it
        return 0.0
    return float(_svd(A, compute_uv=False)[0])


# Relative slack of the cheap-first decisions: the widening of the Frobenius
# bounds in `norm_within`, and the margin from a cut, in units of the largest
# value, that lets a values-only spectrum decide (README, Numerical conventions).
_SLACK = 1e-12
# Below this the Frobenius sum may have lost entries to underflow.
_F_TINY = 1e-145
# A certificate's margin over the cut (README, Numerical conventions), the
# unit roundoff and the least subnormal.
_CERT_MARGIN, _U, _ETA = 1e3, 2.0 ** -53, 2.0 ** -1074


def _two_norm_bounds(A: np.ndarray):
    """(lo, hi) with lo <= ||A||_2 <= hi, or None when rounding of the
    Frobenius sum cannot be bounded (NaN/Inf entries, overflow, underflow)."""
    f = math.sqrt(np.vdot(A, A).real)
    if _F_TINY <= f < math.inf:
        return f / math.sqrt(min(A.shape)) * (1.0 - _SLACK), f * (1.0 + _SLACK)
    if f == 0.0 and not A.any():
        return 0.0, 0.0
    return None


def _frobenius(A: np.ndarray) -> float:   # bounds ||A||_F above, inf if unbounded
    return (_two_norm_bounds(A) or (0.0, math.inf))[1]


def _threshold(t: float, floor: float, scale: float, power: int) -> float:
    # t * s * s ... in the order the hand-written checks used
    return math.prod((t,) + (max(floor, scale),) * power)


def norm_within(R, t: float, S=None, floor: float = 0.0, power: int = 1) -> bool:
    """Decide ``||R||_2 <= t * max(floor, ||S||_2) ** power``.

    ``S`` is a matrix, an operator (its ``matrix``, whose exact 2-norm is its
    cached ``norm``), a tuple of these whose 2-norms multiply, or None, for
    a scale of 1.  Frobenius bounds settle the question whenever they clear
    the threshold; otherwise, and for any non-finite or under/overflowing
    Frobenius value, the exact 2-norms are compared, so NaN/Inf entries
    raise ``InputError`` from ``spectral_norm``; a scale past the largest
    double, against which any residual would pass, raises ``NumericalError``.
    """
    factors = () if S is None else S if isinstance(S, tuple) else (S,)
    ops = (R,) + factors
    mats = [np.asarray(getattr(A, "matrix", A), dtype=complex) for A in ops]
    bounds = [_two_norm_bounds(A) for A in mats]
    if None not in bounds:
        r_lo, r_hi = bounds[0]
        s_lo = math.prod(b[0] for b in bounds[1:])
        s_hi = math.prod(b[1] for b in bounds[1:])
        if r_hi <= _threshold(t, floor, s_lo, power):
            return True
        if r_lo > _threshold(t, floor, s_hi, power):
            return False
    norms = [A.norm if hasattr(A, "norm") else spectral_norm(M) for A, M in zip(ops, mats)]
    if not math.isfinite(scale := math.prod(norms[1:])):
        raise NumericalError("the scale of a residual check exceeds the largest double")
    return norms[0] <= _threshold(t, floor, scale, power)


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    """(A + A^H) / 2 as a complex array, exactly Hermitian.  The sum is
    halved in place, so a finite sum gives the bits of ``(A + A^H) * 0.5``;
    only a sum that overflows is formed again as ``A/2 + (A/2)^H``, so the
    part of a finite matrix is finite up to the largest double."""
    A = np.asarray(A, dtype=complex)
    with np.errstate(over="ignore"):
        H = A + A.conj().T
    if np.isfinite(H).all():
        H *= 0.5
        return H
    half = A * 0.5
    return half + half.conj().T


def _hermitian_input(A: np.ndarray) -> np.ndarray:
    """What :func:`_require_hermitian` hands LAPACK for ``_hermitian_part(A)``,
    bit for bit, without its check: the Hermitian part taken twice.  A second
    pass is not the identity on signed zeros, and LAPACK's output follows
    them, so it is formed even where it returns the first pass's bits."""
    return _hermitian_part(_hermitian_part(A))


def _hermitian_within(A: np.ndarray, t: float, S, floor: float = 0.0) -> bool:
    """The deviation test ``||A - A^H||_2 <= t * max(floor, ||S||_2)`` of
    :func:`norm_within`, ``S`` a matrix or an operator, safe from overflow:
    when a finite A - A^H overflows, both sides are halved and
    A/2 - (A/2)^H is held against the halved matrix of ``S`` and
    ``floor/2``, so a finite matrix near the largest double is decided
    instead of refused as non-finite.  Wherever A - A^H is finite the
    verdict is :func:`norm_within`'s on it."""
    try:
        with np.errstate(over="raise", invalid="ignore"):
            D = A - A.conj().T
    except FloatingPointError:
        half = A * 0.5
        S_half = np.asarray(getattr(S, "matrix", S)) * 0.5
        return norm_within(half - half.conj().T, t, S_half, floor * 0.5)
    return norm_within(D, t, S, floor)


def _require_hermitian(A: np.ndarray, tol: Tolerance) -> np.ndarray:
    if A.shape[0] != A.shape[1]:
        raise NotHermitian(f"matrix is not square: shape {A.shape}")
    if not _hermitian_within(A, tol.residual_tol, A):
        raise NotHermitian("matrix deviates from its conjugate transpose "
                           "beyond residual tolerance")
    # Work with the Hermitian part so LAPACK sees an exactly symmetric input.
    return _hermitian_part(A)


def _eigh(A: np.ndarray, vectors: bool = True) -> HermEig:
    """LAPACK's eigendecomposition of an exactly Hermitian matrix, or its
    eigenvalues alone without ``vectors``: the one kernel behind every
    Hermitian spectrum.  Only finiteness is checked; its callers,
    :func:`herm_eig` and :class:`HermSpectrum`, hand it exactly Hermitian
    matrices.  ``NoConvergence`` when the driver gives up, ``NumericalError``
    when an eigenvalue overflows (a band of ``inf`` swallows the spectrum)."""
    A = _as_matrix(A)
    try:
        w, V = np.linalg.eigh(A) if vectors else (np.linalg.eigvalsh(A), None)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    if not np.isfinite(w).all():
        raise NumericalError("an eigenvalue exceeds the largest double")
    return HermEig(eigenvalues=w, eigenvectors=V)


def herm_eig(M, tol: Tolerance = Tolerance()) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises ``NotHermitian`` when the symmetry check fails and
    ``NoConvergence`` when the LAPACK driver gives up.
    """
    return _eigh(_require_hermitian(_as_matrix(M), tol))


def spectral_split(M, tol: Tolerance = Tolerance(),
                   scale: float | None = None) -> SpectralSplit:
    """Eigendecomposition of a Hermitian matrix with its sign bands.

    The zero band is ``[-rank_tol * norm, rank_tol * norm]``; values
    exactly at the threshold count as zero, so classification is
    deterministic.  ``norm`` is the largest eigenvalue magnitude, or
    ``scale`` when that is larger; pass ``scale`` when M may cancel to
    round-off (a Gram matrix of a neutral subspace, say) so noise does
    not masquerade as signature.
    """
    return band_split(herm_eig(M, tol), tol, scale)


def band_split(eig: HermEig, tol: Tolerance = Tolerance(),
               scale: float | None = None, margin: bool = False) -> SpectralSplit | None:
    """The sign bands of :func:`spectral_split` over a known eigendecomposition;
    with ``margin``, None when some |eigenvalue| lies within the slack of the band."""
    w = eig.eigenvalues
    top = max(float(np.abs(w).max(initial=0.0)), scale or 0.0)
    band = tol.rank_tol * top
    if margin and top > 0 and (np.abs(np.abs(w) - band) <= _SLACK * top).any():
        return None
    plus, minus = w > band, w < -band
    n_plus, n_minus = int(np.count_nonzero(plus)), int(np.count_nonzero(minus))
    return SpectralSplit(w, eig.eigenvectors, band, plus, minus, ~(plus | minus),
                         (n_plus, n_minus, w.size - n_plus - n_minus))


def inertia(M, tol: Tolerance = Tolerance(),
            scale: float | None = None) -> tuple[int, int, int]:
    """Counts (n_plus, n_minus, n_zero) of the bands of :func:`spectral_split`
    at the number ``scale``, by the rule of :meth:`HermSpectrum.counts`."""
    H = _require_hermitian(_as_matrix(M), tol)
    return HermSpectrum(lambda: H).counts(tol, scale)


class HermSpectrum:
    """The two LAPACK passes over one exactly Hermitian matrix: ``values``,
    the eigenvalues alone, and ``eig``, the eigendecomposition.  ``form``
    returns the matrix and is called once per pass, so a cached spectrum
    need not keep it; each pass is taken at most once and is read-only."""

    def __init__(self, form):
        self._form = form

    @cached_property
    def values(self) -> np.ndarray:
        w = _eigh(self._form(), False).eigenvalues
        w.flags.writeable = False
        return w

    @cached_property
    def eig(self) -> HermEig:
        eig = _eigh(self._form())
        eig.eigenvalues.flags.writeable = False
        eig.eigenvectors.flags.writeable = False
        return eig

    def counts(self, tol: Tolerance, scale: float | None = None) -> tuple[int, int, int]:
        """The counts of :func:`band_split` at ``scale``: from ``eig`` once it
        is taken, else from ``values`` unless one lies within the slack of the
        band, else from ``eig``."""
        split = "eig" not in vars(self) and band_split(
            HermEig(self.values, None), tol, scale, margin=True)
        return (split or band_split(self.eig, tol, scale)).counts


def psd_sqrt(M, tol: Tolerance = Tolerance(), scale: float | None = None) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues below the zero band of :func:`spectral_split` raise
    ``NotPSD``; small negatives inside the band are clamped to zero
    before the root.  ``scale`` widens the band as there; pass the
    natural scale of the computation that produced M when M itself may
    cancel to round-off (a defect operator at its breakdown level, say).
    """
    split = spectral_split(M, tol, scale)
    w, V = split.eigenvalues, split.eigenvectors
    if w.size and float(w[0]) < -split.band:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below the PSD band")
    root = np.sqrt(np.clip(w, 0.0, None))
    return _hermitian_part((V * root) @ V.conj().T)


def count_above_cut(s: np.ndarray, tol: Tolerance, margin: bool = False) -> int | None:
    """The rank cut: how many of the nonincreasing singular values ``s``
    exceed ``rank_tol`` times the largest; with ``margin``, None when some
    value lies within the slack of the cut, unless every value is 0."""
    top = s[0] if s.size else 0.0   # an empty or zero spectrum has no slack to test
    if margin and top > 0 and np.any(np.abs(s - tol.rank_tol * top) <= _SLACK * top):
        return None
    return int(np.count_nonzero(s > tol.rank_tol * top))


def rank(M, tol: Tolerance = Tolerance()) -> int:
    """Numerical rank: singular values above ``rank_tol`` times the largest,
    cut from a values-only SVD unless one lies within the slack of the cut."""
    A = _as_matrix(M)
    r = count_above_cut(_svd(A, compute_uv=False), tol, margin=True)
    return count_above_cut(_svd(A)[1], tol) if r is None else r


def _svd(A: np.ndarray, full_matrices: bool = False, compute_uv: bool = True):
    """LAPACK's ``(U, s, Vh)``, or ``s`` alone without ``compute_uv``;
    ``NoConvergence`` when the driver gives up."""
    try:
        return np.linalg.svd(A, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def null_basis(M, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Orthonormal basis of the numerical null space, as columns.

    A direction counts as null when the rank cut of :func:`rank` drops
    it.  The result has zero columns for an injective matrix; for a
    matrix with zero rows every coordinate direction is returned.
    """
    _, s, Vh = _svd(_as_matrix(M), True)
    return Vh[count_above_cut(s, tol):].conj().T


def range_basis(M, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Orthonormal basis of the numerical range, as columns."""
    U, s, _ = svd(M)
    return U[:, :count_above_cut(s, tol)]


def pinv(M, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the shared relative rank cut."""
    A = _as_matrix(M)
    U, s, Vh = _svd(A, True)
    r = count_above_cut(s, tol)
    inv = 1.0 / s[:r]
    return (Vh[:r].conj().T * inv) @ U[:, :r].conj().T


def svd(M):
    """Thin SVD ``(U, s, V)`` with ``M = U @ diag(s) @ V.conj().T``.

    Singular values come back nonincreasing and nonnegative; no
    thresholding is applied here.
    """
    U, s, Vh = _svd(_as_matrix(M), False)
    return U, s, Vh.conj().T


def conditioned_svd(M, tol: Tolerance, cond_cap: float) -> np.ndarray:
    """Singular values of a square matrix that must be safely invertible:
    raises ``NotInvertible`` when the rank cut drops a direction,
    ``IllConditioned`` when ``s[0] / s[-1] > cond_cap``.  Values alone pass
    it by the slack, else the thin SVD with vectors decides and words it."""
    A = _as_matrix(M)
    s = _svd(A, compute_uv=False)
    # the guards on s.size keep s[0] and s[-1] from an empty spectrum
    if s.size and (count_above_cut(s, tol, margin=True) != s.size
                   or s[-1] - s[0] / cond_cap <= _SLACK * s[0]):
        s = _svd(A)[1]
    if count_above_cut(s, tol) < s.size:
        raise NotInvertible("matrix is numerically singular")
    if s.size and s[0] / s[-1] > cond_cap:
        raise IllConditioned(
            f"condition number {s[0] / s[-1]:.3e} exceeds cap {cond_cap:.0e}")
    return s


def _certified_level(cut: float, n: int) -> float:
    """``_CERT_MARGIN * cut``, or 0.0 (no certificate) where LAPACK's error at order
    n, 10 n eps of the scale (Users' Guide 4.7, 4.9), could reach half the margin."""
    return _CERT_MARGIN * cut if (_CERT_MARGIN - 2) * cut > 40 * n * _U else 0.0


def _certified_pd(G: np.ndarray, shift: float) -> bool:
    """True only when it proves G - shift I positive definite, G exactly Hermitian
    and shift >= 0: Rump's a-priori test in complex arithmetic, a Cholesky of
    fl(G - c I) that completes, c = (shift + 4(n + 1) u tr(G) + 4n(2(n + 2) +
    max g_ii) eta)(1 + 4u) (README, Numerical conventions, derives the constants)."""
    n, d = G.shape[0], G.diagonal().real
    c = (shift + (4 * (n + 1) * _U * d).sum()
         + _ETA * 4 * n * (2 * (n + 2) + d.max(initial=0.0))) * (1 + 4 * _U)
    try:   # a pivot <= 0 or NaN, overflow included, raises
        return bool(n) and math.isfinite(c) and np.linalg.cholesky(G - c * np.eye(n)) is not None
    except np.linalg.LinAlgError:
        return False
