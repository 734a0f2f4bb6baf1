"""Factorization of a selfadjoint operator through an external Krein space.

The central construction: every selfadjoint C on (H, J) factors as
C = A A* with A acting from an auxiliary space into H and ker A = {0},
and the signature of the auxiliary space is forced: its indices equal
the hermitian indices of C.  `bk_factorize` builds one canonical such
factorization from the spectral bands of the Hilbert representative
J C; `bk_verify` checks an arbitrary candidate, which is exactly the
converse direction.  `keyth_verify` checks the signature variant
C = T^H J_A T on a Hilbert space, given as the factor A = T^H from
(K, J_A) into H, through `bk_verify`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densela import (Tolerance, _U, _certified_level, _certified_pd, _frobenius,
                      _hermitian_part, count_above_cut, norm_within, rank, spectral_norm, svd)
from .errors import DimensionMismatch, PreconditionFailed
from .hermdex import hermitian_indices
from .krein import (KOperator, KreinSpace, k_adjoint, is_selfadjoint, same_space,
                    selfadjoint_split, space_indices)

__all__ = [
    "BKFactorization",
    "bk_factorize",
    "bk_verify",
    "keyth_verify",
]

_UNIQUENESS_NOTE = ("factorizations of a fixed operator differ only by a "
                    "J-unitary change of the factor space; in finite "
                    "dimension every factorization is essentially unique")


@dataclass(frozen=True, eq=False)
class BKFactorization:
    """A factor with C = A A* and ker A = {0}; the factor space is A's domain."""

    A: KOperator

    @property
    def A_space(self) -> KreinSpace:
        return self.A.domain


def bk_factorize(C: KOperator, tol: Tolerance = Tolerance()) -> BKFactorization:
    """Canonical factorization C = A A* with ker A = {0}.

    Construction: D = J C is Hermitian; take its eigenvectors on the
    positive and negative bands, so the factor space is C^(p+q) with the
    symmetry diag(+1 block, -1 block), and map x to J |D|^(1/2) W x
    where W stacks the selected eigenvectors.  Kernel directions of C
    never enter the factor space, which is what keeps A injective.
    """
    split = selfadjoint_split(C, tol, "factorization")
    H = C.domain
    w, V = split.eigenvalues, split.eigenvectors
    plus, minus = split.plus, split.minus
    p, q, _ = split.counts
    W = np.hstack([V[:, plus], V[:, minus]])
    lam = np.concatenate([w[plus], w[minus]])
    A_mat = H.J @ (W * np.sqrt(np.abs(lam)))

    # J_A = diag(+1 x p, -1 x q), its spectrum seeded with the bits eigvalsh returns
    values = np.repeat([-1.0, 1.0], [q, p])
    values.flags.writeable = False
    A_space = KreinSpace(dim=p + q, J=np.diag(values[::-1]).astype(complex))
    vars(A_space.spectrum)["values"] = values
    return BKFactorization(KOperator(A_space, H, A_mat))


def _has_rank(A: KOperator, k: int, tol: Tolerance, within_slack) -> bool:
    """rank(A) == k: when k is A's column count, certified by a Cholesky of A^H A
    (README, Numerical conventions); else cut from A's cached singular values,
    and by ``within_slack()`` when one lies within their slack."""
    M, f = A.matrix, _frobenius(A.matrix)
    level = _certified_level(tol.rank_tol, max(M.shape))
    if k == M.shape[1] and level and f * f < np.inf and _certified_pd(
            _hermitian_part(M.conj().T @ M), (level * level + 4 * (M.shape[0] + 1) * _U) * f * f):
        return True
    r = count_above_cut(A.singular_values, tol, margin=True)
    return (within_slack() if r is None else r) == k


def bk_verify(C: KOperator, F: BKFactorization, tol: Tolerance = Tolerance()) -> dict:
    """Check a candidate factorization of C; failures are reported, not raised.

    The report carries the relative product residual, the injectivity
    verdict, both index pairs, and the equality verdict between them.
    """
    if not same_space(F.A.codomain, C.domain):
        raise DimensionMismatch("factor does not map into the operator's space")
    A_star = k_adjoint(F.A)
    diff = C.matrix - F.A.matrix @ A_star.matrix
    c_norm = C.norm
    residual = spectral_norm(diff) / c_norm if c_norm > 0 else spectral_norm(diff)
    injective = _has_rank(F.A, F.A.domain.dim, tol,
                          lambda: count_above_cut(svd(F.A.matrix)[1], tol))
    ind = space_indices(F.A_space)
    idx = hermitian_indices(C, tol)
    index_equality = (ind[0] == idx.h_plus and ind[1] == idx.h_minus
                      and F.A_space.dim == idx.h_plus + idx.h_minus)
    return {
        "product_residual": float(residual),
        "injective": bool(injective),
        "factor_space_indices": [ind[0], ind[1]],
        "operator_indices": list(idx),
        "index_equality": bool(index_equality),
        "passed": bool(residual <= tol.residual_tol and injective and index_equality),
        "note": _UNIQUENESS_NOTE,
    }


def keyth_verify(C: KOperator, F: BKFactorization,
                 tol: Tolerance = Tolerance()) -> dict:
    """Check a signature factorization C = T^H J_A T over a Hilbert space.

    ``F`` holds A = T^H from the factor space (K, J_A) into H, so that
    A* = J_A T and C = A A*.  Preconditions (raised as
    ``PreconditionFailed`` with the failing list): C lives on a Hilbert
    space and has trivial kernel.  `bk_verify` decides the residual, the
    index comparison and ker A = {0}, which is T's dense range; T's
    trivial kernel is the one hypothesis added here.
    """
    failures = []
    H = C.domain
    if not norm_within(H.J - np.eye(H.dim), tol.residual_tol):
        failures.append("operator space is not a Hilbert space")
    if not is_selfadjoint(C, tol):
        failures.append("operator is not selfadjoint")
    elif hermitian_indices(C, tol).h_zero != 0:
        failures.append("operator has a nontrivial kernel")
    if failures:
        raise PreconditionFailed(failures)

    rep = bk_verify(C, F, tol)
    # sigma(T) = sigma(A): A's rank decides T's, and rank(T) within the slack
    kernel_trivial = _has_rank(F.A, H.dim, tol, lambda: rank(F.A.matrix.conj().T, tol))
    return {
        "reconstruction_residual": rep["product_residual"],
        "kernel_trivial": bool(kernel_trivial),
        "range_dense": rep["injective"],
        "operator_indices": rep["operator_indices"],
        "signature_indices": rep["factor_space_indices"],
        "index_equality": rep["index_equality"],
        "passed": rep["passed"] and kernel_trivial,
    }
