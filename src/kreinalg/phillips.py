"""Graph representations of semidefinite subspaces and their completion.

Relative to a fundamental decomposition, a nonnegative subspace of a
Krein space is the graph {x + Gx} of a contraction G from its
projection onto the positive component into the modulus of the negative
one; nonpositive subspaces dualize.  Given an orthogonal pair of such
graphs, `phillips_extend` enlarges both at once to a maximal orthogonal
pair: it fills the unconstrained block of the joint contraction with
the central Parrott completion, which keeps the norm at the level
forced by the fixed row and column.

Every space is first rotated so its symmetry is diag(+1..., -1...);
the rotation is the space's cached signature split, read through the
canonical frames and undone whenever a subspace is handed back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densela import (Tolerance, _hermitian_part, norm_within, null_basis, pinv,
                      psd_sqrt, spectral_norm)
from .errors import (ContractionOverflow, DegenerateProjection, DimensionMismatch,
                     Incompatible, InputError, NotSemidefinite)
from .krein import (KreinSpace, Subspace, SubspaceClass, classify_subspace,
                    hilbert_space, identity_op, make_subspace, same_space)

__all__ = [
    "GraphRep",
    "MaximalPair",
    "canonical_frames",
    "graph_rep",
    "represented",
    "check_compatibility",
    "phillips_extend",
]


@dataclass(frozen=True, eq=False)
class GraphRep:
    """A semidefinite subspace as (domain part, angle contraction).

    ``M`` lives in the positive component (sign "plus") or in the
    modulus of the negative one (sign "minus"); ``angle`` maps M's basis
    vectors to their cross components, one column per basis vector.
    """

    sign: str
    M: Subspace
    angle: np.ndarray
    space: KreinSpace


@dataclass(frozen=True, eq=False)
class MaximalPair:
    """A joint contraction with its two maximal graph subspaces."""

    G: np.ndarray
    G_tilde_plus: Subspace
    G_tilde_minus: Subspace


def canonical_frames(H: KreinSpace):
    """Orthonormal eigenframes (U_plus, U_minus) of the symmetry J."""
    split = H.signature
    V = split.eigenvectors
    return V[:, split.plus], V[:, split.minus]


def graph_rep(S: Subspace, sign: str, tol: Tolerance = Tolerance()) -> GraphRep:
    """Graph representation of a semidefinite subspace.

    ``sign`` selects the claim: "plus" for nonnegative, "minus" for
    nonpositive.  Raises ``NotSemidefinite`` when the claim fails and
    ``DegenerateProjection`` when the coordinate projection loses rank,
    which cannot happen for a genuinely semidefinite subspace.
    """
    if sign not in ("plus", "minus"):
        raise InputError(f"sign must be 'plus' or 'minus', got {sign!r}")
    H = S.space
    cls = classify_subspace(identity_op(H), S, tol)
    allowed = {
        "plus": (SubspaceClass.STRICTLY_POSITIVE, SubspaceClass.NONNEGATIVE,
                 SubspaceClass.NEUTRAL),
        "minus": (SubspaceClass.STRICTLY_NEGATIVE, SubspaceClass.NONPOSITIVE,
                  SubspaceClass.NEUTRAL),
    }[sign]
    if cls not in allowed:
        raise NotSemidefinite(f"subspace classifies as {cls.value}, not {sign}-semidefinite")

    U_plus, U_minus = canonical_frames(H)
    own, other = (U_plus, U_minus) if sign == "plus" else (U_minus, U_plus)
    P = own.conj().T @ S.basis
    cross = other.conj().T @ S.basis
    M = make_subspace(hilbert_space(own.shape[1]), P, tol)
    if M.dim != S.dim:
        raise DegenerateProjection("coordinate projection of the subspace drops rank")
    angle = cross @ pinv(P, tol) @ M.basis
    return GraphRep(sign=sign, M=M, angle=angle, space=H)


def represented(rep: GraphRep, tol: Tolerance = Tolerance()) -> Subspace:
    """The subspace of the ambient space encoded by a graph representation."""
    U_plus, U_minus = canonical_frames(rep.space)
    own, other = (U_plus, U_minus) if rep.sign == "plus" else (U_minus, U_plus)
    return make_subspace(rep.space, own @ rep.M.basis + other @ rep.angle, tol)


def check_compatibility(Gp: GraphRep, Gm: GraphRep,
                        tol: Tolerance = Tolerance()) -> bool:
    """True iff the two represented subspaces are orthogonal in the space.

    On the graph data this is a single block identity: the adjoint of
    the minus angle restricted to M_plus must agree with the M_minus
    component of the plus angle.
    """
    if Gp.sign != "plus" or Gm.sign != "minus":
        raise InputError("expected a plus representation and a minus representation")
    if not same_space(Gp.space, Gm.space):
        raise DimensionMismatch("graph representations live in different spaces")
    block = Gm.angle.conj().T @ Gp.M.basis - Gm.M.basis.conj().T @ Gp.angle
    return norm_within(block, tol.residual_tol)


def phillips_extend(Gp: GraphRep, Gm: GraphRep,
                    tol: Tolerance = Tolerance()) -> MaximalPair:
    """Extend an orthogonal semidefinite pair to a maximal orthogonal pair.

    The joint contraction is assembled in block form over the splittings
    of the positive component along M_plus and of the negative modulus
    along M_minus: the first column is fixed by Gp, the first row by Gm,
    and the free corner takes the central Parrott completion
    X = -Z A^H Y, with Y and Z the contraction factors of the fixed row
    and column against defect square roots taken at the level forced by
    those norms.  Pseudo-inverse square roots keep neutral directions
    (exactly singular defects) from breaking the formula.
    """
    if not check_compatibility(Gp, Gm, tol):
        raise Incompatible("graph representations are not orthogonal in the space")
    H = Gp.space
    Bp, Bm = Gp.M.basis, Gm.M.basis
    Bp_perp = null_basis(Bp.conj().T, tol)
    Bm_perp = null_basis(Bm.conj().T, tol)

    A_blk = 0.5 * (Bm.conj().T @ Gp.angle + Gm.angle.conj().T @ Bp)
    C_blk = Bm_perp.conj().T @ Gp.angle
    B_blk = Gm.angle.conj().T @ Bp_perp

    col_norm = spectral_norm(np.vstack([A_blk, C_blk]))
    row_norm = spectral_norm(np.hstack([A_blk, B_blk]))
    level = max(col_norm, row_norm)

    mm, mp = A_blk.shape
    Dr2 = level ** 2 * np.eye(mm) - A_blk @ A_blk.conj().T
    Dc2 = level ** 2 * np.eye(mp) - A_blk.conj().T @ A_blk
    D_row = psd_sqrt(_hermitian_part(Dr2), tol, scale=level ** 2)
    D_col = psd_sqrt(_hermitian_part(Dc2), tol, scale=level ** 2)
    Y = pinv(D_row, tol) @ B_blk
    Z = C_blk @ pinv(D_col, tol)
    X = -Z @ A_blk.conj().T @ Y

    G = (Bm @ A_blk @ Bp.conj().T + Bm @ B_blk @ Bp_perp.conj().T
         + Bm_perp @ C_blk @ Bp.conj().T + Bm_perp @ X @ Bp_perp.conj().T)
    if not norm_within(G, 1.0 + 10.0 * tol.residual_tol):
        raise ContractionOverflow(
            f"assembled contraction has norm {spectral_norm(G):.12f}")
    U_plus, U_minus = canonical_frames(H)
    plus = make_subspace(H, U_plus + U_minus @ G, tol)
    minus = make_subspace(H, U_plus @ G.conj().T + U_minus, tol)
    return MaximalPair(G=G, G_tilde_plus=plus, G_tilde_minus=minus)
