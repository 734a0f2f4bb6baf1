"""The Krein-space model.

A space is a pair (dimension, fundamental symmetry J) with J = J* and
J^2 = I; the indefinite inner product in coordinates is

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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .densela import (HermEig, SpectralSplit, Tolerance, band_split, herm_eig,
                      inertia, norm_within, range_basis, spectral_norm,
                      spectral_split)
from .errors import DimensionMismatch, InputError, NotSelfadjoint, NotSymmetry

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

    dim: int
    J: np.ndarray

    @cached_property
    def signature(self) -> SpectralSplit:
        """The fundamental decomposition: the split of J's Hermitian part into
        its +1 and -1 eigenspaces, taken once per space; a zero band raises
        ``NotSymmetry``.  No tolerance enters: a symmetry `make_space` accepts
        has every eigenvalue near +1 or -1, far outside any valid band."""
        split = spectral_split(0.5 * (self.J + self.J.conj().T))
        if split.counts[2]:
            raise NotSymmetry("fundamental symmetry has a numerically zero eigenvalue")
        return split

    @cached_property
    def _indices(self) -> tuple[int, int]:
        """The signature's (n_plus, n_minus), once per space from J's eigenvalues
        alone, unless ``signature`` is cached or a value is near or in the zero band."""
        if "signature" not in vars(self):
            eig = herm_eig(0.5 * (self.J + self.J.conj().T), Tolerance(), False)
            split = band_split(eig, margin=True)
            if split is not None and not split.counts[2]:
                return split.counts[:2]
        return self.signature.counts[:2]


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
        and read-only: `hermitian_eig`, `is_selfadjoint` and the C-Gram
        matrices all read it.  Raises ``DimensionMismatch`` unless C acts
        on a single space."""
        _require_endomorphism(self)
        JC = self.domain.J @ self.matrix
        JC.flags.writeable = False
        return JC

    @cached_property
    def hermitian_eig(self) -> HermEig:
        """Eigendecomposition of the Hermitian part of J C, taken once per
        operator; every band cut of `selfadjoint_split` reads it.  No
        tolerance enters: the Hermitian part is exactly Hermitian, and
        whether C is selfadjoint is decided by the caller.  Its arrays are
        read-only: every engine shares them."""
        herm = self.jc + self.jc.conj().T
        herm *= 0.5
        eig = herm_eig(herm)
        eig.eigenvalues.flags.writeable = False
        eig.eigenvectors.flags.writeable = False
        return eig

    @cached_property
    def norm(self) -> float:
        """The spectral norm of the matrix, taken once per operator."""
        return spectral_norm(self.matrix)


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
    if J.size and not np.isfinite(J).all():
        raise InputError("fundamental symmetry contains NaN or Inf entries")
    n = J.shape[0]
    if not norm_within(J - J.conj().T, tol.residual_tol, J, floor=1.0):
        raise NotSymmetry("candidate symmetry is not Hermitian")
    if not norm_within(J @ J - np.eye(n), tol.residual_tol, J, floor=1.0, power=2):
        raise NotSymmetry("candidate symmetry does not square to the identity")
    return KreinSpace(dim=n, J=J)


def hilbert_space(n: int) -> KreinSpace:
    """The Euclidean space of dimension n (J = I).  Its signature is seeded
    with what ``eigh(I)`` returns, every eigenvalue 1 and eigenvectors I,
    so it is never eigendecomposed; J and the eigenvectors are one array."""
    eye = np.eye(n, dtype=complex)
    H = KreinSpace(dim=n, J=eye)
    vars(H)["signature"] = band_split(HermEig(np.ones(n), eye))
    return H


def space_indices(H: KreinSpace) -> tuple[int, int]:
    """(ind_plus, ind_minus): dimensions of the +1 and -1 eigenspaces of J."""
    return H._indices


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
    """True iff a and b have the same dimension and the same symmetry."""
    return a.dim == b.dim and np.array_equal(a.J, b.J)


def _require_endomorphism(C: KOperator):
    if not same_space(C.domain, C.codomain):
        raise DimensionMismatch("operator must act on a single space")


def is_selfadjoint(C: KOperator, tol: Tolerance = Tolerance()) -> bool:
    """True iff C = C*, equivalently iff J C is Hermitian within tolerance;
    decided on every call, under ``tol``, from C's cached J C."""
    return norm_within(C.jc - C.jc.conj().T, tol.residual_tol, C.matrix)


def selfadjoint_split(C: KOperator, tol: Tolerance, what: str) -> SpectralSplit:
    """Spectral split of J C; raises ``NotSelfadjoint`` naming ``what``
    unless C is selfadjoint under ``tol``, checked on every call.  The bands
    follow ``tol`` too; the eigendecomposition is C's cached one.  Every
    engine reads its bands from here."""
    if not is_selfadjoint(C, tol):
        raise NotSelfadjoint(f"{what} requires a selfadjoint operator")
    return band_split(C.hermitian_eig, tol)


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

    Decided by the inertia of the C-Gram matrix of M's basis; a strict
    class additionally requires the Gram to have no numerical kernel.
    """
    if M.space.dim != C.domain.dim:
        raise DimensionMismatch("subspace does not live in the operator's space")
    G = _gram(C, M, M)
    G = 0.5 * (G + G.conj().T)
    # band against the ambient operator norm: the Gram of a neutral
    # subspace cancels to round-off, its own norm is no yardstick
    p, q, z = inertia(G, tol, scale=C.norm)
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
    return norm_within(_gram(C, M, N), tol.residual_tol, C.matrix)
