import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinalg.errors import (DimensionMismatch, NotCongruent, NotInvertible,
                             NotSelfadjoint)
from kreinalg import hermdex, suite
from kreinalg.densela import Tolerance
from kreinalg.genrand import GenConfig, gen_invertible, gen_selfadjoint, gen_space
from kreinalg.hermdex import (Congruence, build_congruence, canonical_form,
                              hermitian_indices, is_congruent, transport)
from kreinalg.krein import (IndexTriple, KOperator, hilbert_space, identity_op,
                            k_adjoint, make_space)
from passes import kinds, record

J2 = np.diag([1.0, -1.0]).astype(complex)


def op(space, M):
    return KOperator(space, space, np.asarray(M, dtype=complex))


def test_indices_of_identity_match_space_signature():
    # h_pm(1) equals the signature of the space itself
    for diag in ([1.0, -1.0], [1.0, 1.0, -1.0], [-1.0]):
        H = make_space(np.diag(diag))
        idx = hermitian_indices(identity_op(H))
        pos = sum(1 for d in diag if d > 0)
        assert idx == IndexTriple(pos, len(diag) - pos, 0)


def test_indices_of_zero():
    H = make_space(J2)
    assert hermitian_indices(op(H, np.zeros((2, 2)))) == (0, 0, 2)


def test_indices_c2_example():
    H = make_space(J2)
    assert hermitian_indices(op(H, [[0, 1], [-1, 0]])) == (1, 1, 0)


def test_indices_require_selfadjoint():
    H = make_space(J2)
    with pytest.raises(NotSelfadjoint):
        hermitian_indices(op(H, [[0, 1], [1, 0]]))


def test_canonical_form_diagonal_oracle():
    H = hilbert_space(3)
    cf = canonical_form(op(H, np.diag([4.0, -9.0, 0.0])))
    assert cf.indices == (1, 1, 1)
    assert np.allclose(np.diag(cf.D.matrix), [1.0, -1.0, 0.0])
    # scales are sqrt of |eigenvalue|, kernel keeps unit scale
    assert np.allclose(np.abs(cf.X.X.matrix), np.diag([2.0, 3.0, 1.0]), atol=1e-12)
    X, Xi = cf.X.X.matrix, cf.X.X_inv.matrix
    assert np.allclose(X @ Xi, np.eye(3), atol=1e-12)


def test_canonical_form_ordering():
    # positives descending, negatives by ascending magnitude, kernel last
    H = hilbert_space(4)
    cf = canonical_form(op(H, np.diag([5.0, 2.0, -1.0, -4.0])))
    assert np.allclose(np.abs(cf.X.X.matrix),
                       np.diag([np.sqrt(5.0), np.sqrt(2.0), 1.0, 2.0]),
                       atol=1e-12)


def test_canonical_form_ordering_with_ties():
    # tied eigenvalues keep their index order within a band
    H = hilbert_space(6)
    cf = canonical_form(op(H, np.diag([2.0, 2.0, -3.0, -3.0, 0.0, 0.0])))
    assert np.allclose(np.abs(cf.X.X.matrix),
                       np.diag(np.sqrt([2.0, 2.0, 3.0, 3.0, 1.0, 1.0])),
                       atol=1e-12)


def test_canonical_form_reconstructs():
    H = make_space(J2)
    C = op(H, [[0, 1], [-1, 0]])
    cf = canonical_form(C)
    X = cf.X.X
    recon = H.J @ X.matrix.conj().T @ cf.D.matrix @ X.matrix
    assert np.allclose(recon, C.matrix, atol=1e-10)


def test_transport_preserves_indices():
    H = make_space(J2)
    C = op(H, [[0, 1], [-1, 0]])
    K = hilbert_space(2)
    M = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    X = Congruence(KOperator(K, H, M), KOperator(H, K, np.linalg.inv(M)))
    A = transport(C, X)
    assert hermitian_indices(A) == hermitian_indices(C)
    # and the pulled back operator is selfadjoint on the new space
    assert A.domain is K


def test_transport_identity_roundtrip():
    H = hilbert_space(2)
    C = op(H, [[2.0, 0], [0, -1.0]])
    X = Congruence(identity_op(H), identity_op(H))
    assert np.allclose(transport(C, X).matrix, C.matrix)


def test_is_congruent_hilbert_counterexample():
    H = hilbert_space(2)
    A = op(H, np.diag([1.0, 1.0]))
    B = op(H, np.diag([1.0, -1.0]))
    assert not is_congruent(A, B)
    with pytest.raises(NotCongruent):
        build_congruence(A, B)


def test_is_congruent_requires_equal_dims():
    with pytest.raises(DimensionMismatch):
        is_congruent(op(hilbert_space(2), np.eye(2)),
                     op(hilbert_space(3), np.eye(3)))


def test_build_congruence_across_spaces():
    # same index triple on different symmetries must be congruent
    Ha = make_space(J2)
    Hb = hilbert_space(2)
    A = op(Ha, [[0, 1], [-1, 0]])
    B = op(Hb, np.diag([3.0, -5.0]))
    assert is_congruent(A, B)
    X = build_congruence(A, B)
    resid = A.matrix - transport(B, X).matrix
    scale = max(np.linalg.norm(A.matrix, 2), np.linalg.norm(B.matrix, 2))
    assert np.linalg.norm(resid, 2) <= 1e-8 * scale
    # X carries its exact inverse
    assert np.allclose(X.X.matrix @ X.X_inv.matrix, np.eye(2), atol=1e-10)


def test_build_congruence_with_kernels():
    H = hilbert_space(3)
    A = op(H, np.diag([2.0, 0.0, -1.0]))
    B = op(H, np.diag([0.0, 5.0, -0.5]))
    X = build_congruence(A, B)
    assert np.allclose(transport(B, X).matrix, A.matrix, atol=1e-10)


def test_congruence_inverse_check_uses_caller_tolerance():
    # cached inverse off by a relative 1e-6: too far for the default
    # residual_tol = 1e-8, inside residual_tol = 1e-5
    H = hilbert_space(2)
    loose = Tolerance(residual_tol=1e-5)
    X = op(H, np.eye(2))
    X_inv = op(H, np.eye(2) + 1e-6 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotInvertible):
        Congruence(X, X_inv)
    assert Congruence(X, X_inv, loose).tol == loose


def test_congruence_builders_pass_tolerance():
    tol = Tolerance(rank_tol=1e-9, residual_tol=1e-6)
    H = make_space(J2)
    C = op(H, [[0, 1], [-1, 0]])
    assert canonical_form(C, tol).X.tol == tol
    assert build_congruence(C, C, tol).tol == tol


def _congruent_pairs():
    H6 = hilbert_space(6)
    yield (op(H6, np.diag([2.0, 2.0, -3.0, -3.0, 0.0, 0.0])),      # ties and a kernel
           op(H6, np.diag([-3.0, 0.0, 2.0, -3.0, 0.0, 2.0])))
    H0 = hilbert_space(0)
    yield op(H0, np.zeros((0, 0))), op(H0, np.zeros((0, 0)))
    yield op(make_space(J2), [[0, 1], [-1, 0]]), op(hilbert_space(2), np.diag([3.0, -5.0]))
    for seed in (5, 6, 7):
        Ha, Kb = gen_space(GenConfig(seed, (6, 6))), gen_space(GenConfig(seed + 10, (6, 6)))
        B = gen_selfadjoint(GenConfig(seed + 20, kernel_prob=1.0), Kb)
        X = gen_invertible(GenConfig(seed + 30), Ha, Kb)
        yield transport(B, X), B


def _band_ratios(A, B):
    """r = s_A / s_B, the ratios of the canonical frame scales on the nonzero bands."""
    ia, *_, sa = hermdex._frame(A, Tolerance())
    sb = hermdex._frame(B, Tolerance())[3]
    return (sa / sb)[:ia[0] + ia[1]]


@pytest.mark.parametrize("A, B", list(_congruent_pairs()))
def test_build_congruence_composes_the_canonical_forms(A, B):
    # bit for bit the composition X_B^-1 T X_A of the two canonical frames,
    # T scaling A's kernel rows by t = clip(1, min r, max r)
    ca, cb = canonical_form(A), canonical_form(B)
    r = _band_ratios(A, B)
    t = np.clip(1.0, r.min(), r.max()) if r.size else 1.0
    T = np.where(np.arange(A.domain.dim) < r.size, 1.0, t)
    X = build_congruence(A, B)
    assert np.array_equal(X.X.matrix, cb.X.X_inv.matrix @ (T[:, None] * ca.X.X.matrix))
    assert np.array_equal(X.X_inv.matrix, (ca.X.X_inv.matrix / T) @ cb.X.X.matrix)


def _scaled(C, a):
    return KOperator(C.domain, C.codomain, a * C.matrix)


def _verdict(A, B):
    """What ``krein congruent`` decides: not congruent, or congruent with a
    witness X that passes transport's rank cut and condition cap."""
    if not is_congruent(A, B):
        return False, None
    X = build_congruence(A, B)
    transport(B, X)
    return True, X


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.booleans(),
       st.floats(-30, 30), st.floats(-30, 30))
def test_congruence_is_scale_equivariant(seed, n, transported, log_a, log_b):
    H, K = gen_space(GenConfig(seed, (n, n))), gen_space(GenConfig(seed + 1, (n, n)))
    B = gen_selfadjoint(GenConfig(seed + 2, kernel_prob=0.5), K)
    A = (transport(B, gen_invertible(GenConfig(seed + 3), H, K)) if transported
         else gen_selfadjoint(GenConfig(seed + 4, kernel_prob=0.5), H))
    aA, bB = _scaled(A, 10.0 ** log_a), _scaled(B, 10.0 ** log_b)
    verdict, scaled = _verdict(A, B)[0], _verdict(aA, bB)
    assert scaled[0] == verdict
    if verdict:
        r = _band_ratios(aA, bB)
        spread = r.max() / r.min() if r.size else 1.0
        assert np.linalg.cond(scaled[1].X.matrix) == pytest.approx(spread, rel=1e-12)


def test_kernel_scale_never_raises_the_condition_number(monkeypatch):
    # every congruent pair of the sylvester battery, against the composition
    # with kernel scale 1
    conds = []

    def both(A, B, tol):
        X = build_congruence(A, B, tol)
        old = canonical_form(B, tol).X.X_inv.matrix @ canonical_form(A, tol).X.X.matrix
        conds.append((np.linalg.cond(X.X.matrix), np.linalg.cond(old)))
        return X

    monkeypatch.setattr(suite, "build_congruence", both)
    assert suite.sylvester_battery(20260822)["passed"]
    new, old = np.array(conds).T
    assert np.all(new <= old * (1.0 + 1e-12))
    assert np.any(new < 0.5 * old)          # some pairs had a kernel scale t != 1


def test_build_congruence_checks_one_inverse_and_no_canonical_form(monkeypatch):
    H = make_space(J2)
    A, B = op(H, [[0, 1], [-1, 0]]), op(hilbert_space(2), np.diag([3.0, -5.0]))
    calls = {"check": 0}
    check = Congruence.__post_init__

    def counted(self):
        calls["check"] += 1
        check(self)

    monkeypatch.setattr(Congruence, "__post_init__", counted)
    for name in ("hilbert_space", "canonical_form"):
        monkeypatch.setattr(hermdex, name,
                            lambda *a, name=name, **kw: pytest.fail(f"{name} was called"))
    build_congruence(A, B)
    assert calls["check"] == 1


def test_transport_computes_no_singular_vectors(monkeypatch):
    # the bound on cond(X) read from the verified inverse clears the rank cut
    # and the condition cap, so no SVD is taken
    cfg = GenConfig(8, dim_range=(6, 6))
    H = gen_space(cfg)
    B = gen_selfadjoint(cfg, H)
    X = gen_invertible(cfg, H, H)
    passes = record(monkeypatch)
    A = transport(B, X)
    assert not kinds(passes, "svd")
    assert hermitian_indices(A) == hermitian_indices(B)
