import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinalg.decomp import (Decomposition, decompose, projections, validate)
from kreinalg.densela import Tolerance, count_above_cut, svd
from kreinalg.errors import DimensionMismatch, NotDirect, NotSelfadjoint
from kreinalg.genrand import gen_selfadjoint, gen_space
from kreinalg.krein import (KOperator, Subspace, hilbert_space, make_space,
                            make_subspace)
from passes import calls, kinds, record

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


def test_projections_on_the_empty_space_are_empty():
    for H in (hilbert_space(0), make_space(np.zeros((0, 0)))):
        C = op(H, np.zeros((0, 0)))
        P = projections(C, decompose(C))
        for Q in (P.Q_plus, P.Q_minus, P.Q_zero):
            assert Q.matrix.shape == (0, 0) and Q.matrix.dtype == complex


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


def pairs_direct_with_vectors(dec, tol):
    """Pairwise directness as three rank cuts of thin SVDs with vectors."""
    parts = (dec.M_plus, dec.M_minus, dec.M_zero)
    return all(count_above_cut(svd(np.hstack([a.basis, b.basis]))[1], tol) == a.dim + b.dim
               for i, a in enumerate(parts) for b in parts[i + 1:])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 9),
       st.sampled_from([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0, 1.0 - 4e-3, 1.0 + 4e-3, None]),
       st.sampled_from([1e-10, 1e-6, 1e-3]))
def test_validate_decides_pairs_as_the_svd_with_vectors(seed, n, factor, rank_tol):
    # Orthonormal parts of a Haar frame W, two of them tilted toward each
    # other so the stack's smallest singular value over its largest is
    # ``factor`` times rank_tol; None plants a dependency of all three
    # parts that no pair shows (w1, w2 and their sum, one in each part)
    rng = np.random.default_rng(seed)
    tol = Tolerance(rank_tol=rank_tol)
    W = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    cols = [W[:, [j]] for j in range(n)]
    if factor is None:
        planted = [cols[0], cols[1], (cols[0] + cols[1]) / np.sqrt(2.0)]
    else:
        t = 2.0 * np.arctan(factor * rank_tol)
        planted = [cols[0], np.cos(t) * cols[0] + np.sin(t) * cols[1], cols[2]]
    order = rng.permutation(3)
    extra = rng.multinomial(n - 3, [1 / 3] * 3) if n > 3 else [0, 0, 0]
    spare, parts = iter(cols[3:]), []
    for i in range(3):
        more = [next(spare) for _ in range(extra[i])]
        parts.append(Subspace(hilbert_space(n) if i == 0 else parts[0].space,
                              np.hstack([planted[order[i]]] + more)))
    H = parts[0].space
    dec = Decomposition(*parts)
    C = op(H, np.diag(rng.uniform(-1.0, 1.0, n)))
    report = validate(C, dec, tol)
    pairs = pairs_direct_with_vectors(dec, tol)
    assert report["pairwise_sums_direct"] == pairs
    assert report["passed"] == (pairs and all(
        report[key] for key in ("sign_conditions", "pairwise_c_orthogonal",
                                "dimensions_match_indices", "direct_sum")))


def test_validate_takes_one_svd_on_decompose_output(monkeypatch):
    # decompose's parts are columns of one unitary matrix: their stack has
    # every singular value 1, so no pair of parts needs an SVD of its own
    H = gen_space(5, dim_range=(12, 12))
    C = gen_selfadjoint(5, H, kernel_prob=0.3)
    dec = decompose(C)
    passes = record(monkeypatch)
    assert validate(C, dec)["pairwise_sums_direct"]
    assert [p.shape for p in passes if p.kernel.startswith("svd")] == [dec.stacked().shape]


def test_validate_classifies_from_eigenvalues_alone(monkeypatch):
    # the two strict sign classes of validate are certified by a Cholesky of
    # the C-Gram matrices, with no eigenvalue pass; J C's eigendecomposition
    # is the one decompose cached
    H = gen_space(5, dim_range=(12, 12))
    C = gen_selfadjoint(5, H, kernel_prob=0.3)
    dec = decompose(C)
    passes = record(monkeypatch)
    assert validate(C, dec)["sign_conditions"]
    assert not kinds(passes, "eig")


def test_validate_of_a_definite_c_classifies_no_empty_part(monkeypatch):
    # h_minus = h_zero = 0: the empty parts are not classified, so no 0 x 0
    # eigvalsh is taken, and the certified M_plus reads no 2-norm of C
    H = gen_space(5, dim_range=(8, 8))
    B = np.random.default_rng(5).standard_normal((8, 8))
    C = op(H, H.J @ (B @ B.T + np.eye(8)))
    dec = decompose(C)
    passes = record(monkeypatch)
    report = validate(C, dec)
    assert report["passed"] and report["dims"] == [8, 0, 0]
    assert all(np.size(p.operand) for p in passes if p.kernel == "eigvalsh")
    assert not any(np.array_equal(p.operand, C.matrix) for p in passes
                   if p.kernel.startswith("svd"))
    assert "norm" not in vars(C)


@pytest.mark.parametrize("eps, exact", [(0.5e-8, False), (0.95e-8, True),
                                        (1.25e-8, True), (2e-8, False)])
def test_kernel_residual_takes_the_norm_only_between_the_thresholds(monkeypatch, eps, exact):
    # residual_tol * max(1, ||C||_2) is 4e-8; the Frobenius bounds put it in
    # [3.46e-8, 6.93e-8], and the kernel part's residual is about 4 * eps
    from kreinalg.densela import spectral_norm
    H = hilbert_space(4)
    C = op(H, np.diag([0.0, 4.0, 4.0, -4.0]))
    e = np.eye(4, dtype=complex)
    z = (e[:, :1] + eps * e[:, 1:2]) / np.hypot(1.0, eps)
    dec = Decomposition(Subspace(H, e[:, 1:3]), Subspace(H, e[:, 3:]), Subspace(H, z))
    norms = calls(monkeypatch, spectral_norm)
    report = validate(C, dec)
    # the orthogonality of M_plus and M_zero, about 4 * eps, straddles alike;
    # both exact comparisons read the one cached norm of C
    assert sum(np.array_equal(args[0], C.matrix) for args, _ in norms) == exact
    assert report["sign_conditions"] == (
        report["kernel_residual"] <= 1e-8 * max(1.0, np.linalg.norm(C.matrix, 2)))
    assert report["sign_conditions"] == (eps < 1e-8)

