import numpy as np
import pytest

from kreinalg.decomp import (Decomposition, decompose, projections, validate)
from kreinalg.errors import DimensionMismatch, NotDirect, NotSelfadjoint
from kreinalg.krein import (KOperator, Subspace, hilbert_space, make_space,
                            make_subspace)

J2 = np.diag([1.0, -1.0]).astype(complex)
INV_SQRT2 = 0.7071067811865476


def op(space, M):
    return KOperator(space, space, np.asarray(M, dtype=complex))


def span_matches(S, cols):
    """Same span test via the orthogonal projector onto S."""
    B = S.basis
    P = B @ B.conj().T
    cols = np.asarray(cols, dtype=complex)
    return np.allclose(P @ cols, cols, atol=1e-10)


def test_c2_example_bases():
    H = make_space(J2)
    C = op(H, [[0, 1], [-1, 0]])
    dec = decompose(C)
    assert (dec.M_plus.dim, dec.M_minus.dim, dec.M_zero.dim) == (1, 1, 0)
    # JC = [[0,1],[1,0]] has eigenvectors (1,1) and (1,-1)
    assert span_matches(dec.M_plus, [[INV_SQRT2], [INV_SQRT2]])
    assert span_matches(dec.M_minus, [[INV_SQRT2], [-INV_SQRT2]])
    assert validate(C, dec)["passed"]


def test_zero_operator_is_all_kernel():
    H = hilbert_space(3)
    dec = decompose(op(H, np.zeros((3, 3))))
    assert (dec.M_plus.dim, dec.M_minus.dim, dec.M_zero.dim) == (0, 0, 3)
    assert span_matches(dec.M_zero, np.eye(3))


def test_diagonal_hilbert_coordinate_bases():
    H = hilbert_space(3)
    C = op(H, np.diag([4.0, -9.0, 0.0]))
    dec = decompose(C)
    assert span_matches(dec.M_plus, [[1.0], [0.0], [0.0]])
    assert span_matches(dec.M_minus, [[0.0], [1.0], [0.0]])
    assert span_matches(dec.M_zero, [[0.0], [0.0], [1.0]])


def test_decompose_requires_selfadjoint():
    H = make_space(J2)
    with pytest.raises(NotSelfadjoint):
        decompose(op(H, [[0, 1], [1, 0]]))


def test_validate_flags_swapped_signs():
    H = hilbert_space(2)
    C = op(H, np.diag([1.0, -1.0]))
    e1 = make_subspace(H, np.array([[1.0], [0.0]]))
    e2 = make_subspace(H, np.array([[0.0], [1.0]]))
    none = make_subspace(H, np.zeros((2, 0)))
    wrong = Decomposition(M_plus=e2, M_minus=e1, M_zero=none)
    report = validate(C, wrong)
    assert not report["sign_conditions"]
    assert not report["passed"]
    # dimensions still match the index triple
    assert report["dimensions_match_indices"]


def test_validate_flags_overlap():
    H = hilbert_space(2)
    C = op(H, np.diag([1.0, -1.0]))
    e1 = make_subspace(H, np.array([[1.0], [0.0]]))
    none = make_subspace(H, np.zeros((2, 0)))
    overlapping = Decomposition(M_plus=e1, M_minus=e1, M_zero=none)
    report = validate(C, overlapping)
    assert not report["pairwise_sums_direct"]
    assert not report["direct_sum"]
    assert not report["passed"]


def test_validate_flags_non_orthogonal():
    H = hilbert_space(2)
    C = op(H, np.diag([2.0, -1.0]))
    tilted = make_subspace(H, np.array([[1.0], [0.5]]))
    e2 = make_subspace(H, np.array([[0.0], [1.0]]))
    none = make_subspace(H, np.zeros((2, 0)))
    report = validate(C, Decomposition(M_plus=tilted, M_minus=e2, M_zero=none))
    assert not report["pairwise_c_orthogonal"]
    assert not report["passed"]


def test_validate_rejects_foreign_space():
    H = hilbert_space(2)
    other = hilbert_space(3)
    C = op(H, np.diag([1.0, -1.0]))
    dec = decompose(C)
    foreign = Decomposition(M_plus=make_subspace(other, np.eye(3)[:, :1]),
                            M_minus=dec.M_minus, M_zero=dec.M_zero)
    with pytest.raises(DimensionMismatch):
        validate(C, foreign)


def test_projections_c2_oracle():
    H = make_space(J2)
    C = op(H, [[0, 1], [-1, 0]])
    P = projections(C, decompose(C))
    assert np.allclose(P.Q_plus.matrix, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-10)
    assert np.allclose(P.Q_minus.matrix, 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-10)
    assert np.allclose(P.Q_zero.matrix, np.zeros((2, 2)), atol=1e-10)


def test_projection_algebra():
    H = make_space(np.diag([1.0, 1.0, -1.0]))
    C = op(H, np.diag([2.0, 0.0, 3.0]))       # JC = diag(2, 0, -3)
    P = projections(C, decompose(C))
    total = np.zeros((3, 3), dtype=complex)
    for Q in (P.Q_plus.matrix, P.Q_minus.matrix, P.Q_zero.matrix):
        assert np.allclose(Q @ Q, Q, atol=1e-10)
        total += Q
    assert np.allclose(total, np.eye(3), atol=1e-10)


def test_projections_reject_deficient_parts():
    H = hilbert_space(2)
    C = op(H, np.diag([1.0, -1.0]))
    e1 = make_subspace(H, np.array([[1.0], [0.0]]))
    none = make_subspace(H, np.zeros((2, 0)))
    with pytest.raises(NotDirect):
        projections(C, Decomposition(M_plus=e1, M_minus=e1, M_zero=none))


def test_validate_and_projections_share_the_rank_cut():
    # the two lines meet at t = 1.7e-10: the smallest singular value of the
    # stacked basis, about 1.2e-10, clears rank_tol = 1e-10 in absolute
    # terms but not relative to the largest one, about sqrt(2)
    H = hilbert_space(2)
    C = op(H, np.diag([1.0, -1.0]))
    t = 1.7e-10
    line = Subspace(H, np.array([[1.0], [0.0]], dtype=complex))
    tilted = Subspace(H, np.array([[np.cos(t)], [np.sin(t)]], dtype=complex))
    none = Subspace(H, np.zeros((2, 0), dtype=complex))
    dec = Decomposition(M_plus=line, M_minus=tilted, M_zero=none)
    report = validate(C, dec)
    assert not report["pairwise_sums_direct"]
    assert not report["direct_sum"]
    assert 1e-10 < report["min_direct_singular_value"] < 1.5e-10
    with pytest.raises(NotDirect):
        projections(C, dec)


@pytest.mark.parametrize("factor, k", [(0.5, 5), (2.0, 1)])
def test_validate_kernel_verdict_at_planted_residual(factor, k):
    # C = diag(0 x 5, 4 x 5), so the kernel threshold is residual_tol * 4;
    # the kernel part's first k columns are tilted into the range so that
    # C @ basis has k singular values at factor * threshold.  Its Frobenius
    # bounds straddle the threshold in both cases, so no cheap bound decides
    # the verdict: it is the reported norm against the threshold
    z = 5
    H = hilbert_space(2 * z)
    C = op(H, np.diag([0.0] * z + [4.0] * z))
    threshold = 1e-8 * 4.0
    eps = np.zeros(z)
    eps[:k] = factor * threshold / 4.0
    B = np.vstack([np.eye(z), np.diag(eps)]) / np.sqrt(1.0 + eps ** 2)
    plus = Subspace(H, np.vstack([np.zeros((z, z)), np.eye(z)]).astype(complex))
    none = Subspace(H, np.zeros((2 * z, 0), dtype=complex))
    dec = Decomposition(M_plus=plus, M_minus=none, M_zero=Subspace(H, B.astype(complex)))
    report = validate(C, dec)
    assert report["kernel_residual"] == pytest.approx(factor * threshold, rel=1e-12)
    assert report["sign_conditions"] == (factor < 1.0)
    assert report["passed"] == (factor < 1.0)
