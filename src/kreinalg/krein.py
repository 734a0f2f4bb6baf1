"""The Krein-space model.

A space is its fundamental symmetry J, with J = J* and J^2 = I; the
indefinite inner product in coordinates is

    <f, g> = g^H J f

so the associated Hilbert space is simply the Euclidean coordinate
space.  Operators are matrices tagged with their domain and codomain
spaces, which pins down the Krein adjoint A* = J_dom A^H J_cod.
Subspaces always carry Euclidean-orthonormal bases, which keeps
dimension counting and Gram-matrix conditioning trivial.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .densela import (HermEig, HermSpectrum, SpectralSplit, Tolerance, _as_matrix, _svd,
                      _certified_level, _certified_pd, _frobenius, _hermitian_input,
                      _hermitian_within, band_split, norm_within, range_basis, spectral_norm)
from .errors import DimensionMismatch, InputError, NotSelfadjoint, NotSymmetry, NumericalError

__all__ = [
    "KreinSpace",
    "KOperator",
    "Subspace",
    "IndexTriple",
    "SubspaceClass",
    "make_space",
    "hilbert_space",
    "space_indices",
    "same_space",
    "identity_op",
    "k_adjoint",
    "is_selfadjoint",
    "selfadjoint_split",
    "make_subspace",
    "classify_subspace",
    "c_orthogonal",
]


@dataclass(frozen=True, eq=False)
class KreinSpace:
    """A coordinate space with a validated fundamental symmetry."""

    J: np.ndarray

    @property
    def dim(self) -> int:
        return self.J.shape[0]

    @cached_property
    def spectrum(self) -> HermSpectrum:
        """The spectrum of J's Hermitian part, each pass taken once per space."""
        return HermSpectrum(partial(_hermitian_input, self.J))

    @cached_property
    def signature(self) -> SpectralSplit:
        """The fundamental decomposition: the split of J's Hermitian part into
        its +1 and -1 eigenspaces; a zero band raises ``NotSymmetry``.  No
        tolerance enters: a symmetry `make_space` accepts has every
        eigenvalue near +1 or -1, far outside any valid band."""
        split = band_split(self.spectrum.eig)
        if split.counts[2]:
            raise NotSymmetry("fundamental symmetry has a numerically zero eigenvalue")
        return split


@dataclass(frozen=True, eq=False)
class KOperator:
    """A matrix acting from ``domain`` to ``codomain``.

    Like a space's J, the matrix must not be mutated after construction:
    the cached properties below are read from it once.
    """

    domain: KreinSpace
    codomain: KreinSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.codomain.dim, self.domain.dim):
            raise DimensionMismatch(
                f"operator shape {mat.shape} does not match spaces "
                f"({self.codomain.dim}, {self.domain.dim})")
        object.__setattr__(self, "matrix", mat)

    @cached_property
    def jc(self) -> np.ndarray:
        """J C, C's Hilbert-space representative, formed once per operator
        and read-only: `spectrum`, `is_selfadjoint` and the C-Gram
        matrices all read it.  Raises ``DimensionMismatch`` unless C acts
        on a single space."""
        _require_endomorphism(self)
        JC = self.domain.J @ self.matrix
        JC.flags.writeable = False
        return JC

    @cached_property
    def spectrum(self) -> HermSpectrum:
        """The spectrum of the Hermitian part of J C, shared by every engine;
        every band cut of `selfadjoint_split` and `hermdex.hermitian_indices`
        reads it.  No tolerance enters: whether C is selfadjoint is the caller's."""
        return HermSpectrum(partial(_hermitian_input, self.jc))

    @cached_property
    def norm(self) -> float:
        """The spectral norm of the matrix, taken once per operator."""
        return spectral_norm(self.matrix)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """The values-only SVD of the matrix, taken once per operator."""
        return _svd(_as_matrix(self.matrix), compute_uv=False)

    @cached_property
    def _selfadjoint(self) -> dict:
        """`is_selfadjoint`'s verdict under each tolerance it was asked."""
        return {}


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace given by a Euclidean-orthonormal column basis."""

    space: KreinSpace
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


class IndexTriple(NamedTuple):
    """Hermitian indices (h_plus, h_minus) plus kernel dimension h_zero."""

    h_plus: int
    h_minus: int
    h_zero: int


class SubspaceClass(str, enum.Enum):
    STRICTLY_POSITIVE = "strictly_positive"
    STRICTLY_NEGATIVE = "strictly_negative"
    NONNEGATIVE = "nonnegative"
    NONPOSITIVE = "nonpositive"
    NEUTRAL = "neutral"
    INDEFINITE = "indefinite"


def make_space(J, tol: Tolerance = Tolerance()) -> KreinSpace:
    """Validate J = J* and J^2 = I and wrap it as a space."""
    J = np.asarray(J, dtype=complex)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise NotSymmetry(f"fundamental symmetry must be square, got {J.shape}")
    if not np.isfinite(J).all():
        raise InputError("fundamental symmetry contains NaN or Inf entries")
    n = J.shape[0]
    try:
        hermitian = _hermitian_within(J, tol.residual_tol, J, floor=1.0)
    except NumericalError:   # ||J||_2 overflows, where a symmetry's is 1
        raise NotSymmetry("candidate symmetry's 2-norm exceeds the largest double") from None
    if not hermitian:
        raise NotSymmetry("candidate symmetry is not Hermitian")
    with np.errstate(over="ignore", invalid="ignore"):
        D = J @ J - np.eye(n)
    # a Hermitian J whose square overflows has ||J||_2 >= 1e154, so J^2 - I is
    # far beyond any bound the check allows: refusing it is the check's verdict
    if not (np.isfinite(D).all() and norm_within(D, tol.residual_tol, J, floor=1.0, power=2)):
        raise NotSymmetry("candidate symmetry does not square to the identity")
    return KreinSpace(J)


def hilbert_space(n: int) -> KreinSpace:
    """The Euclidean space of dimension n (J = I).  Its spectrum is seeded
    with what ``eigh(I)`` returns, every eigenvalue 1 and eigenvectors I,
    so it is never eigendecomposed; J and the eigenvectors are one array."""
    eye = np.eye(n, dtype=complex)
    H = KreinSpace(eye)
    vars(H.spectrum)["eig"] = HermEig(np.ones(n), eye)
    return H


def space_indices(H: KreinSpace) -> tuple[int, int]:
    """(ind_plus, ind_minus): dimensions of the +1 and -1 eigenspaces of J,
    counted from J's spectrum; a zero count defers to ``signature``, which
    raises ``NotSymmetry``."""
    p, q, z = H.spectrum.counts(Tolerance())
    return H.signature.counts[:2] if z else (p, q)


def identity_op(H: KreinSpace) -> KOperator:
    """The identity on H, its 2-norm (1, or 0 on the zero space) and its
    J C (a read-only view of J, which is what ``J @ I`` gives) seeded."""
    op = KOperator(H, H, np.eye(H.dim, dtype=complex))
    vars(op)["norm"] = 1.0 if H.dim else 0.0
    JC = np.asarray(H.J, dtype=complex).view()
    JC.flags.writeable = False
    vars(op)["jc"] = JC
    return op


def k_adjoint(A: KOperator) -> KOperator:
    """Krein adjoint: J_dom A^H J_cod, with domain and codomain swapped."""
    adj = A.domain.J @ A.matrix.conj().T @ A.codomain.J
    return KOperator(domain=A.codomain, codomain=A.domain, matrix=adj)


def same_space(a: KreinSpace, b: KreinSpace) -> bool:
    """True iff a and b have the same symmetry, shape included."""
    return np.array_equal(a.J, b.J)


def _require_endomorphism(C: KOperator):
    if not same_space(C.domain, C.codomain):
        raise DimensionMismatch("operator must act on a single space")


def is_selfadjoint(C: KOperator, tol: Tolerance = Tolerance()) -> bool:
    """True iff C = C*, equivalently iff J C is Hermitian within tolerance;
    decided from C's cached J C and ``C.norm`` once per operator and tolerance."""
    verdicts = C._selfadjoint
    if tol not in verdicts:
        verdicts[tol] = _hermitian_within(C.jc, tol.residual_tol, C)
    return verdicts[tol]


def _require_selfadjoint(C: KOperator, tol: Tolerance, what: str):
    if not is_selfadjoint(C, tol):
        raise NotSelfadjoint(f"{what} requires a selfadjoint operator")


def selfadjoint_split(C: KOperator, tol: Tolerance, what: str) -> SpectralSplit:
    """Spectral split of J C; raises ``NotSelfadjoint`` naming ``what``
    unless C is selfadjoint under ``tol``.  The bands follow ``tol`` too;
    the eigendecomposition is C's cached one.  Every engine that reads
    eigenvectors reads its bands from here."""
    _require_selfadjoint(C, tol, what)
    return band_split(C.spectrum.eig, tol)


def make_subspace(H: KreinSpace, vectors, tol: Tolerance = Tolerance()) -> Subspace:
    """Span of the given columns, re-orthonormalized; dependent columns dropped."""
    V = np.asarray(vectors, dtype=complex)
    if V.ndim != 2 or V.shape[0] != H.dim:
        raise DimensionMismatch(
            f"spanning columns of shape {V.shape} in a {H.dim}-dimensional space")
    return Subspace(H, range_basis(V, tol))


def _gram(C: KOperator, M: Subspace, N: Subspace) -> np.ndarray:
    # Entries <m_j, n_i>_C on the two bases.
    return N.basis.conj().T @ C.jc @ M.basis


def classify_subspace(C: KOperator, M: Subspace,
                      tol: Tolerance = Tolerance()) -> SubspaceClass:
    """Sign class of the C-inner product restricted to M.

    Decided by the inertia of the C-Gram matrix of M's basis, banded by
    ``C.norm``; a strict class also requires the Gram to have no numerical
    kernel.  The strict class of the sign of G[0, 0] is certified first.
    """
    if M.space.dim != C.domain.dim:
        raise DimensionMismatch("subspace does not live in the operator's space")
    if not M.dim:   # the zero form is neutral at any scale: no pass decides it
        return SubspaceClass.NEUTRAL
    G = _hermitian_input(_gram(C, M, M))
    # a definite G shares that sign; max(||G||_F, ||C||_F) bounds the band's scale
    sign = -1.0 if G[0, 0].real < 0 else 1.0
    level = _certified_level(tol.rank_tol, M.dim)
    if level and _certified_pd(sign * G, level * max(_frobenius(G), _frobenius(C.matrix))):
        return SubspaceClass.STRICTLY_POSITIVE if sign > 0 else SubspaceClass.STRICTLY_NEGATIVE
    # band against the ambient operator norm: the Gram of a neutral
    # subspace cancels to round-off, its own norm is no yardstick
    p, q, z = HermSpectrum(lambda: G).counts(tol, C.norm)
    if p and q:
        return SubspaceClass.INDEFINITE
    if p:
        return SubspaceClass.STRICTLY_POSITIVE if z == 0 else SubspaceClass.NONNEGATIVE
    if q:
        return SubspaceClass.STRICTLY_NEGATIVE if z == 0 else SubspaceClass.NONPOSITIVE
    return SubspaceClass.NEUTRAL


def c_orthogonal(C: KOperator, M: Subspace, N: Subspace,
                 tol: Tolerance = Tolerance()) -> bool:
    """True iff <m, n>_C vanishes for all m in M, n in N, within tolerance."""
    if M.space.dim != C.domain.dim or N.space.dim != C.domain.dim:
        raise DimensionMismatch("subspaces do not live in the operator's space")
    return norm_within(_gram(C, M, N), tol.residual_tol, C)
