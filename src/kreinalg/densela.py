"""Dense complex linear-algebra kernels with explicit tolerance policy.

Everything downstream (indices, canonical forms, factorizations, graph
completions) is built from the six operations in this module: Hermitian
eigendecomposition, inertia counting, PSD square root, null-space
extraction, Moore-Penrose pseudo-inverse, and SVD.  All of them share a
single two-knob :class:`Tolerance`:

* ``rank_tol``     decides when a singular value or eigenvalue counts as
  zero, always relative to the spectral norm of the operand;
* ``residual_tol`` bounds matrix-equation residuals, again relative to
  operand norms.

Every yes/no residual check ``||R||_2 <= t * scale(||S||_2)`` goes
through :func:`norm_within`, which decides it cheap-first from the
Frobenius sandwich ``||X||_F / sqrt(min(m, n)) <= ||X||_2 <= ||X||_F``
(Golub & Van Loan, *Matrix Computations*, 2.3).  The bounds are widened
by a relative slack of 1e-12, far above the rounding error of either
norm, so a cheap verdict is never within rounding of the threshold and
always agrees with the exact one; only when the widened bounds straddle
the threshold are the SVD-based 2-norms computed.  Norms that are
reported, or that set a band or a level, are always exact.

Matrices are plain ``numpy`` complex arrays in row-major layout.  The
heavy lifting is delegated to LAPACK through numpy; this module owns the
tolerance discipline, the error taxonomy, and the deterministic ordering
conventions (eigenvalues ascending, singular values descending).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NoConvergence, NotHermitian, NotPSD

__all__ = [
    "Tolerance",
    "HermEig",
    "spectral_norm",
    "norm_within",
    "herm_eig",
    "inertia",
    "psd_sqrt",
    "null_basis",
    "pinv",
    "svd",
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


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise InputError("matrix contains NaN or Inf entries")
    return A


def spectral_norm(M) -> float:
    """Largest singular value; 0.0 for matrices with an empty axis."""
    A = _as_matrix(M)
    if min(A.shape) == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


# Relative widening of the Frobenius bounds in `norm_within`.
_SLACK = 1e-12
# Below this the Frobenius sum may have lost entries to underflow.
_F_TINY = 1e-145


def _two_norm_bounds(A: np.ndarray):
    """(lo, hi) with lo <= ||A||_2 <= hi, or None when rounding of the
    Frobenius sum cannot be bounded (NaN/Inf entries, overflow, underflow)."""
    f = math.sqrt(np.vdot(A, A).real)
    if _F_TINY <= f < math.inf:
        return f / math.sqrt(min(A.shape)) * (1.0 - _SLACK), f * (1.0 + _SLACK)
    if f == 0.0 and not A.any():
        return 0.0, 0.0
    return None


def _threshold(t: float, floor: float, scale: float, power: int) -> float:
    # t * s * s ... in the order the hand-written checks used
    return math.prod((t,) + (max(floor, scale),) * power)


def norm_within(R, t: float, S=None, floor: float = 0.0, power: int = 1) -> bool:
    """Decide ``||R||_2 <= t * max(floor, ||S||_2) ** power``.

    ``S`` is a matrix, a tuple of matrices whose 2-norms multiply, or
    None, which stands for a scale of 1.  Frobenius bounds settle the
    question whenever they clear the threshold; otherwise, and for any
    non-finite or under/overflowing Frobenius value, the exact 2-norms
    are compared, so NaN/Inf entries raise ``InputError`` from
    ``spectral_norm``.
    """
    factors = () if S is None else S if isinstance(S, tuple) else (S,)
    mats = [np.asarray(A, dtype=complex) for A in (R,) + factors]
    bounds = [_two_norm_bounds(A) for A in mats]
    if None not in bounds:
        r_lo, r_hi = bounds[0]
        s_lo = math.prod(b[0] for b in bounds[1:])
        s_hi = math.prod(b[1] for b in bounds[1:])
        if r_hi <= _threshold(t, floor, s_lo, power):
            return True
        if r_lo > _threshold(t, floor, s_hi, power):
            return False
    norms = [spectral_norm(A) for A in mats]
    return norms[0] <= _threshold(t, floor, math.prod(norms[1:]), power)


def _require_hermitian(A: np.ndarray, tol: Tolerance) -> np.ndarray:
    if A.shape[0] != A.shape[1]:
        raise NotHermitian(f"matrix is not square: shape {A.shape}")
    if not norm_within(A - A.conj().T, tol.residual_tol, A):
        raise NotHermitian("matrix deviates from its conjugate transpose "
                           "beyond residual tolerance")
    # Work with the Hermitian part so LAPACK sees an exactly symmetric input.
    return 0.5 * (A + A.conj().T)


def herm_eig(M, tol: Tolerance = Tolerance()) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises ``NotHermitian`` when the symmetry check fails and
    ``NoConvergence`` when the LAPACK driver gives up.
    """
    A = _require_hermitian(_as_matrix(M), tol)
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return HermEig(eigenvalues=w, eigenvectors=V)


def inertia(M, tol: Tolerance = Tolerance(),
            scale: float | None = None) -> tuple[int, int, int]:
    """Counts (n_plus, n_minus, n_zero) of eigenvalues of a Hermitian matrix.

    The zero band is ``[-rank_tol * norm, rank_tol * norm]``; values
    exactly at the threshold count as zero, so classification is
    deterministic.  ``norm`` defaults to the largest eigenvalue magnitude;
    pass ``scale`` when M may cancel to round-off (a Gram matrix of a
    neutral subspace, say) so noise does not masquerade as signature.
    """
    eig = herm_eig(M, tol)
    w = eig.eigenvalues
    own = float(np.max(np.abs(w))) if w.size else 0.0
    band = tol.rank_tol * max(own, scale if scale is not None else 0.0)
    n_plus = int(np.count_nonzero(w > band))
    n_minus = int(np.count_nonzero(w < -band))
    return n_plus, n_minus, w.size - n_plus - n_minus


def psd_sqrt(M, tol: Tolerance = Tolerance(), scale: float | None = None) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues below ``-rank_tol * scale`` raise ``NotPSD``; small
    negatives inside the band are clamped to zero before the root.
    ``scale`` defaults to the matrix norm; pass the natural scale of the
    computation that produced M when M itself may cancel to round-off
    (a defect operator at its breakdown level, say).
    """
    eig = herm_eig(M, tol)
    w, V = eig.eigenvalues, eig.eigenvectors
    base = float(np.max(np.abs(w))) if w.size else 0.0
    if scale is not None:
        base = max(base, float(scale))
    if w.size and float(w[0]) < -tol.rank_tol * base:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below the PSD band")
    root = np.sqrt(np.clip(w, 0.0, None))
    R = (V * root) @ V.conj().T
    return 0.5 * (R + R.conj().T)


def _full_svd(A: np.ndarray):
    try:
        U, s, Vh = np.linalg.svd(A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return U, s, Vh


def null_basis(M, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Orthonormal basis of the numerical null space, as columns.

    A direction counts as null when its singular value is at most
    ``rank_tol`` times the largest one.  The result has zero columns for
    an injective matrix; for a matrix with zero rows every coordinate
    direction is returned.
    """
    A = _as_matrix(M)
    _, s, Vh = _full_svd(A)
    cut = tol.rank_tol * (float(s[0]) if s.size else 0.0)
    rank = int(np.count_nonzero(s > cut))
    return Vh[rank:].conj().T


def pinv(M, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the shared relative rank cut."""
    A = _as_matrix(M)
    U, s, Vh = _full_svd(A)
    cut = tol.rank_tol * (float(s[0]) if s.size else 0.0)
    rank = int(np.count_nonzero(s > cut))
    if rank == 0:
        return np.zeros((A.shape[1], A.shape[0]), dtype=complex)
    inv = 1.0 / s[:rank]
    return (Vh[:rank].conj().T * inv) @ U[:, :rank].conj().T


def svd(M, tol: Tolerance = Tolerance()):
    """Thin SVD ``(U, s, V)`` with ``M = U @ diag(s) @ V.conj().T``.

    Singular values come back nonincreasing and nonnegative.  ``tol`` is
    accepted for interface uniformity; no thresholding is applied here.
    """
    del tol
    A = _as_matrix(M)
    try:
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return U, s, Vh.conj().T
