"""Hermitian indices and congruence.

For a selfadjoint operator C on a Krein space (J, coordinates) the
triple (h_plus, h_minus, h_zero) is the inertia of the Hermitian
representative J C; h_plus and h_minus are the largest dimensions of
C-strictly positive and negative subspaces, and h_zero = dim ker C.
The triple is a complete congruence invariant for selfadjoint operators
on spaces of equal finite dimension, and this module makes both halves
of that statement executable: a classifier (`is_congruent`) and an
explicit constructor (`build_congruence`) routed through the frames X
of the canonical forms C = X* D X with D a signed diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densela import Tolerance, conditioned_svd, norm_within
from .errors import (DimensionMismatch, NotCongruent, NotInvertible,
                     NotSelfadjoint)
from .krein import (IndexTriple, KOperator, hilbert_space, is_selfadjoint,
                    selfadjoint_split)

__all__ = [
    "COND_CAP",
    "Congruence",
    "CanonicalForm",
    "hermitian_indices",
    "transport",
    "canonical_form",
    "require_equal_dims",
    "is_congruent",
    "build_congruence",
]

# Congruences with condition number beyond this are rejected: index
# computation degrades once X*X spans eight orders of magnitude.
COND_CAP = 1e8


@dataclass(frozen=True, eq=False)
class Congruence:
    """An invertible map X between spaces, with its inverse cached.

    The cached inverse must satisfy ``||X X_inv - I|| <= residual_tol *
    max(1, ||X|| ||X_inv||)`` under ``tol``.
    """

    X: KOperator
    X_inv: KOperator
    tol: Tolerance = Tolerance()

    def __post_init__(self):
        n = self.X.codomain.dim
        X, X_inv = self.X.matrix, self.X_inv.matrix
        if not norm_within(X @ X_inv - np.eye(n), self.tol.residual_tol,
                           (X, X_inv), floor=1.0):
            raise NotInvertible("cached inverse does not invert the map")


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """C = X* D X with D = diag(+1 block, -1 block, 0 block)."""

    indices: IndexTriple
    D: KOperator
    X: Congruence


def hermitian_indices(C: KOperator, tol: Tolerance = Tolerance()) -> IndexTriple:
    """(h_plus, h_minus, h_zero) via the inertia of J C."""
    return IndexTriple(*selfadjoint_split(C, tol, "the hermitian index triple").counts)


def transport(B: KOperator, X: Congruence, tol: Tolerance = Tolerance()) -> KOperator:
    """Pull B back along X: returns A = X* B X on X's domain space."""
    if B.domain.dim != X.X.codomain.dim:
        raise DimensionMismatch("operator does not act on the congruence codomain")
    if not is_selfadjoint(B, tol):
        raise NotSelfadjoint("transport expects a selfadjoint operator")
    conditioned_svd(X.X.matrix, tol, COND_CAP)
    H, K = X.X.domain, X.X.codomain
    A = H.J @ X.X.matrix.conj().T @ K.J @ B.matrix @ X.X.matrix
    return KOperator(H, H, A)


def _frame(C: KOperator, tol: Tolerance):
    """C's index triple, canonical frame X = S W*, X_inv = W S^-1 and scales S:
    W the eigenvectors of J C in band order, S their |eigenvalue|^(1/2)
    (1 on the kernel, so X stays invertible)."""
    split = selfadjoint_split(C, tol, "canonical form")
    w = split.eigenvalues
    # positives descending, then negatives by ascending magnitude, ties in
    # index order; the kernel band last
    nz = np.flatnonzero(~split.zero)
    perm = np.concatenate([nz[np.argsort(-w[nz], kind="stable")],
                           np.flatnonzero(split.zero)])
    W = split.eigenvectors[:, perm]
    scale = np.where(split.zero[perm], 1.0, np.sqrt(np.abs(w[perm])))
    return (IndexTriple(*split.counts), scale[:, None] * W.conj().T,
            W * (1.0 / scale), scale)


def canonical_form(C: KOperator, tol: Tolerance = Tolerance()) -> CanonicalForm:
    """Signed-diagonal form C = X* D X, D = diag(I, -I, 0), from the
    eigendecomposition of J C (see :func:`_frame` for the order and scales)."""
    indices, X, X_inv, _ = _frame(C, tol)
    H, E = C.domain, hilbert_space(C.domain.dim)
    D = np.diag(np.repeat([1.0, -1.0, 0.0], indices).astype(complex))
    return CanonicalForm(indices, KOperator(E, E, D),
                         Congruence(KOperator(H, E, X), KOperator(E, H, X_inv), tol))


def require_equal_dims(A: KOperator, B: KOperator):
    """Raise ``DimensionMismatch`` unless A and B act on equal dimensions."""
    if A.domain.dim != B.domain.dim:
        raise DimensionMismatch(
            "congruence classification requires equal dimensions, got "
            f"{A.domain.dim} and {B.domain.dim}")


def is_congruent(A: KOperator, B: KOperator, tol: Tolerance = Tolerance()) -> bool:
    """True iff A and B share their index triple (equal finite dimensions)."""
    require_equal_dims(A, B)
    return hermitian_indices(A, tol) == hermitian_indices(B, tol)


def build_congruence(A: KOperator, B: KOperator,
                     tol: Tolerance = Tolerance()) -> Congruence:
    """Explicit X with A = X* B X, composed through the canonical frames.
    X's block from A's kernel onto B's is free: A's kernel rows are scaled by
    t = clip(1, min r, max r), r = s_A / s_B the frame scales' ratios on the
    nonzero bands, so cond(X) = max r / min r, the least any t reaches."""
    require_equal_dims(A, B)
    ia, Xa, Xa_inv, sa = _frame(A, tol)
    ib, Xb, Xb_inv, sb = _frame(B, tol)
    if ia != ib:
        raise NotCongruent(f"index triples differ: {tuple(ia)} vs {tuple(ib)}")
    k = ia[0] + ia[1]
    r = sa[:k] / sb[:k]
    t = np.clip(1.0, r.min(), r.max()) if k else 1.0
    Xa[k:] *= t
    Xa_inv[:, k:] /= t
    return Congruence(KOperator(A.domain, B.domain, Xb_inv @ Xa),
                      KOperator(B.domain, A.domain, Xa_inv @ Xb), tol)
