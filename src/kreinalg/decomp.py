"""Three-part decomposition of a space along a selfadjoint operator.

`decompose` splits the coordinate space as M_plus + M_minus + M_zero
using the spectral bands of the Hermitian representative J C: positive
band, negative band, kernel.  The parts are pairwise C-orthogonal, the
signed parts are C-strictly definite, the kernel part spans ker C, and
the dimensions reproduce the hermitian indices.  `validate` re-checks
all of that for an arbitrary candidate decomposition (they are not
unique), and `projections` inverts the concatenated basis to produce
the associated orthogonal-sum projections Q.  Both read the singular
values of that basis from the decomposition, which takes them once.
A pair's singular values interlace the stack's (Horn & Johnson, *Topics
in Matrix Analysis*, Cor. 3.1.3), so `validate` takes the pairs' ranks
only when the stack does not clear the rank cut by its slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .densela import Tolerance, count_above_cut, norm_within, rank, spectral_norm, svd
from .errors import DimensionMismatch, NotDirect
from .hermdex import hermitian_indices
from .krein import (KOperator, Subspace, SubspaceClass, c_orthogonal,
                    classify_subspace, selfadjoint_split)

__all__ = [
    "Decomposition",
    "DecompositionProjections",
    "decompose",
    "validate",
    "projections",
]


@dataclass(frozen=True, eq=False)
class Decomposition:
    M_plus: Subspace
    M_minus: Subspace
    M_zero: Subspace

    def stacked(self) -> np.ndarray:
        """The three bases side by side, [M_plus M_minus M_zero]."""
        return np.hstack([self.M_plus.basis, self.M_minus.basis, self.M_zero.basis])

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of the stacked basis, nonincreasing, taken once
        per decomposition; like the bases, never to be mutated."""
        return svd(self.stacked())[1]


@dataclass(frozen=True, eq=False)
class DecompositionProjections:
    Q_plus: KOperator
    Q_minus: KOperator
    Q_zero: KOperator


def decompose(C: KOperator, tol: Tolerance = Tolerance()) -> Decomposition:
    """Spectral decomposition M_plus + M_minus + M_zero for selfadjoint C."""
    split = selfadjoint_split(C, tol, "decomposition")
    H = C.domain
    V = split.eigenvectors
    # eigenvalues ascend, so each band is a range of columns: the bases are
    # read-only views of C's cached eigenvectors, not copies
    _, q, z = split.counts
    return Decomposition(M_plus=Subspace(H, V[:, q + z:]),
                         M_minus=Subspace(H, V[:, :q]),
                         M_zero=Subspace(H, V[:, q:q + z]))


def validate(C: KOperator, dec: Decomposition, tol: Tolerance = Tolerance()) -> dict:
    """Full condition report for a candidate decomposition of C's space.

    Checks, one boolean each: sign conditions on the three parts (an empty
    signed part is not classified; M_zero = ker C), pairwise directness of
    the two-part sums, pairwise C-orthogonality, dimension match with the
    hermitian indices, and directness of the full three-part sum.  Failures
    are reported, not raised; a C that is not selfadjoint raises
    ``NotSelfadjoint`` from the index computation.
    """
    idx = hermitian_indices(C, tol)
    H = C.domain
    for part in (dec.M_plus, dec.M_minus, dec.M_zero):
        if part.space.dim != H.dim:
            raise DimensionMismatch("decomposition parts live in a different space")
    mp, mm, mz = dec.M_plus, dec.M_minus, dec.M_zero

    plus_ok = mp.dim == 0 or classify_subspace(C, mp, tol) == SubspaceClass.STRICTLY_POSITIVE
    minus_ok = mm.dim == 0 or classify_subspace(C, mm, tol) == SubspaceClass.STRICTLY_NEGATIVE
    R = C.matrix @ mz.basis
    kernel_residual = spectral_norm(R)
    kernel_ok = (mz.dim == idx.h_zero
                 and norm_within(R, tol.residual_tol, C, floor=1.0))
    sign_ok = plus_ok and minus_ok and kernel_ok

    k = mp.dim + mm.dim + mz.dim
    pair_direct = (count_above_cut(dec.singular_values, tol, margin=True) == k
                   or all(rank(np.hstack([a.basis, b.basis]), tol) == a.dim + b.dim
                          for a, b in ((mp, mm), (mp, mz), (mm, mz))))

    pair_orth = (c_orthogonal(C, mp, mm, tol)
                 and c_orthogonal(C, mp, mz, tol)
                 and c_orthogonal(C, mm, mz, tol))

    dims_ok = (mp.dim, mm.dim, mz.dim) == tuple(idx)

    if k == 0:   # no singular value: the empty sum is direct only in the zero space
        min_sv = 1.0 if H.dim == 0 else 0.0
    else:
        min_sv = float(dec.singular_values[-1]) if k <= H.dim else 0.0
    # the rank cut `projections` applies, so the two never disagree
    direct = k == H.dim and count_above_cut(dec.singular_values, tol) == H.dim

    report = {
        "sign_conditions": bool(sign_ok),
        "pairwise_sums_direct": bool(pair_direct),
        "pairwise_c_orthogonal": bool(pair_orth),
        "dimensions_match_indices": bool(dims_ok),
        "direct_sum": bool(direct),
        "dims": [mp.dim, mm.dim, mz.dim],
        "indices": list(idx),
        "kernel_residual": float(kernel_residual),
        "min_direct_singular_value": float(min_sv),
    }
    report["passed"] = bool(sign_ok and pair_direct and pair_orth and dims_ok and direct)
    return report


def projections(C: KOperator, dec: Decomposition,
                tol: Tolerance = Tolerance()) -> DecompositionProjections:
    """Projections Q_plus, Q_minus, Q_zero of the direct splitting.

    Each Q maps f to its component in one part along the other two;
    computed by inverting the concatenated basis.  Raises ``NotDirect``
    when the parts fail to span directly.
    """
    H = C.domain
    mp, mm, mz = dec.M_plus, dec.M_minus, dec.M_zero
    B = dec.stacked()
    if B.shape[1] != H.dim or count_above_cut(dec.singular_values, tol) != H.dim:
        raise NotDirect("decomposition parts do not span the space directly")
    try:
        E = np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise NotDirect(str(exc)) from exc
    p, q = mp.dim, mm.dim
    Q_plus = B[:, :p] @ E[:p]
    Q_minus = B[:, p:p + q] @ E[p:p + q]
    Q_zero = B[:, p + q:] @ E[p + q:]
    return DecompositionProjections(Q_plus=KOperator(H, H, Q_plus),
                                    Q_minus=KOperator(H, H, Q_minus),
                                    Q_zero=KOperator(H, H, Q_zero))
