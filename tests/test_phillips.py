import numpy as np
import pytest

from kreinalg.errors import Incompatible, InputError, NotSemidefinite, NotSymmetry
from kreinalg.genrand import gen_space_with_split
from kreinalg.krein import (KreinSpace, SubspaceClass, classify_subspace,
                            identity_op, make_space, make_subspace, space_indices)
from kreinalg.phillips import (canonical_frames, check_compatibility,
                               graph_rep, phillips_extend, represented)
from passes import record

J2 = np.diag([1.0, -1.0]).astype(complex)
J4 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def col(*entries):
    return np.array([[e] for e in entries], dtype=complex)


def test_canonical_frames_split():
    H = make_space(J2)
    Up, Um = canonical_frames(H)
    assert Up.shape == (2, 1) and Um.shape == (2, 1)
    assert np.allclose(H.J @ Up, Up, atol=1e-12)
    assert np.allclose(H.J @ Um, -Um, atol=1e-12)
    # the frame widths are the space's indices, read from the same split
    for seed, p, q in ((11, 3, 2), (12, 0, 4), (13, 5, 0)):
        S = gen_space_with_split(seed, p, q)
        Up, Um = canonical_frames(S)
        assert (Up.shape[1], Um.shape[1]) == space_indices(S) == (p, q)
    # both readers take the one split cached on the space
    assert S.signature is S.signature
    assert np.array_equal(Up, S.signature.eigenvectors[:, S.signature.plus])
    # a zero eigenvalue is no signature: both readers reject it, every time
    degenerate = KreinSpace(np.diag([1.0, 0.0]).astype(complex))
    for reader in (space_indices, canonical_frames, space_indices):
        with pytest.raises(NotSymmetry):
            reader(degenerate)


def test_symmetry_is_split_once_per_space(monkeypatch):
    H = make_space(J4)
    passes = record(monkeypatch)
    gp = graph_rep(make_subspace(H, col(1.0, 0.0, 0.5, 0.5)), "plus")
    gm = graph_rep(make_subspace(H, col(0.5, 0.5, 1.0, 0.0)), "minus")
    phillips_extend(gp, gm)
    represented(gp)
    represented(gm)
    assert canonical_frames(H)[0].shape[1] == 2 and space_indices(H) == (2, 2)
    assert len([p for p in passes if p.kernel.startswith("eig")
                and p.shape == H.J.shape and np.allclose(p.operand, H.J)]) == 1


def test_graph_rep_roundtrip():
    H = make_space(J2)
    S = make_subspace(H, col(1.0, 0.5))
    g = graph_rep(S, "plus")
    assert g.M.dim == 1
    assert np.abs(g.angle[0, 0]) == pytest.approx(0.5)
    back = represented(g)
    P = back.basis @ back.basis.conj().T
    assert np.allclose(P @ S.basis, S.basis, atol=1e-10)


def test_graph_rep_takes_one_thin_svd_of_the_projection(monkeypatch):
    # the range basis of the projection P (2 x 1 here) carries its rank, so
    # no second SVD of P decides it; pinv(P) takes its own full SVD: the
    # passes over P are the thin SVD, then the full one
    H = make_space(J4)
    S = make_subspace(H, col(1.0, 0.0, 0.5, 0.5))
    passes = record(monkeypatch)
    g = graph_rep(S, "plus")
    assert g.M.dim == 1
    assert [p.kernel for p in passes if p.shape == (2, 1)] == ["svd", "svd"]


def test_graph_rep_sign_validation():
    H = make_space(J2)
    S = make_subspace(H, col(1.0, 0.5))
    with pytest.raises(InputError):
        graph_rep(S, "positive")
    with pytest.raises(NotSemidefinite):
        graph_rep(S, "minus")              # strictly positive line
    with pytest.raises(NotSemidefinite):
        graph_rep(make_subspace(H, np.eye(2)), "plus")   # indefinite


def test_compatibility_requires_opposite_signs():
    H = make_space(J2)
    g = graph_rep(make_subspace(H, col(1.0, 0.5)), "plus")
    with pytest.raises(InputError):
        check_compatibility(g, g)


def test_extension_half_pair():
    # worked example: the span of (1, 1/2) against the span of (1/2, 1)
    H = make_space(J2)
    gp = graph_rep(make_subspace(H, col(1.0, 0.5)), "plus")
    gm = graph_rep(make_subspace(H, col(0.5, 1.0)), "minus")
    assert check_compatibility(gp, gm)
    ext = phillips_extend(gp, gm)
    assert np.allclose(ext.G, [[0.5]], atol=1e-12)
    assert ext.G_tilde_plus.dim == 1 and ext.G_tilde_minus.dim == 1
    C = identity_op(H)
    assert classify_subspace(C, ext.G_tilde_plus) == SubspaceClass.STRICTLY_POSITIVE
    assert classify_subspace(C, ext.G_tilde_minus) == SubspaceClass.STRICTLY_NEGATIVE


def test_extension_empty_inputs():
    H = make_space(J2)
    gp = graph_rep(make_subspace(H, np.zeros((2, 0))), "plus")
    gm = graph_rep(make_subspace(H, np.zeros((2, 0))), "minus")
    ext = phillips_extend(gp, gm)
    assert np.allclose(ext.G, np.zeros((1, 1)), atol=1e-12)
    assert ext.G_tilde_plus.dim == 1 and ext.G_tilde_minus.dim == 1


def test_extension_incompatible_raises():
    H = make_space(J2)
    gp = graph_rep(make_subspace(H, col(1.0, 0.0)), "plus")
    gm = graph_rep(make_subspace(H, col(0.9, 1.0)), "minus")
    assert not check_compatibility(gp, gm)
    with pytest.raises(Incompatible):
        phillips_extend(gp, gm)


def test_extension_neutral_boundary():
    # the same neutral line used on both sides sits at norm one exactly
    H = make_space(J2)
    line = col(1.0, 1.0)
    gp = graph_rep(make_subspace(H, line), "plus")
    gm = graph_rep(make_subspace(H, line), "minus")
    ext = phillips_extend(gp, gm)
    assert np.linalg.norm(ext.G, 2) == pytest.approx(1.0, abs=1e-10)
    gram = ext.G_tilde_minus.basis.conj().T @ H.J @ ext.G_tilde_plus.basis
    assert np.allclose(gram, 0.0, atol=1e-10)


def test_extension_corner_optimality():
    """Free-corner case in C^4 with prescribed data a = b = c = 1/2.

    The optimal completion level is sqrt(1/2) and the central corner is
    -1/2; a corner chosen against unit-level defects would land at -1/6
    and overshoot the level.
    """
    H = make_space(J4)
    plus = col(1.0, 0.0, 0.5, 0.5)          # M coordinate e1, cross (1/2, 1/2)
    minus = col(0.5, 0.5, 1.0, 0.0)
    gp = graph_rep(make_subspace(H, plus), "plus")
    gm = graph_rep(make_subspace(H, minus), "minus")
    ext = phillips_extend(gp, gm)
    assert np.allclose(ext.G, [[0.5, 0.5], [0.5, -0.5]], atol=1e-10)
    assert np.linalg.norm(ext.G, 2) == pytest.approx(np.sqrt(0.5), abs=1e-10)
    assert ext.G_tilde_plus.dim == 2 and ext.G_tilde_minus.dim == 2


def test_extension_restrictions_hold():
    H = make_space(J4)
    gp = graph_rep(make_subspace(H, col(1.0, 0.0, 0.3, 0.1)), "plus")
    gm = graph_rep(make_subspace(H, col(0.3, 0.1, 1.0, 0.0)), "minus")
    ext = phillips_extend(gp, gm)
    assert np.allclose(ext.G @ gp.M.basis, gp.angle, atol=1e-10)
    assert np.allclose(ext.G.conj().T @ gm.M.basis, gm.angle, atol=1e-10)

