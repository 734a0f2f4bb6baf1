import numpy as np
import pytest

from kreinalg.bkfact import bk_factorize
from kreinalg.decomp import Decomposition, decompose, validate
from kreinalg.densela import Tolerance
from kreinalg.errors import DimensionMismatch, NotSelfadjoint, NotSymmetry
from kreinalg.hermdex import canonical_form, hermitian_indices
from kreinalg.krein import (IndexTriple, KOperator, Subspace, SubspaceClass,
                            c_orthogonal, classify_subspace,
                            hilbert_space, identity_op, is_selfadjoint,
                            k_adjoint, make_space, make_subspace,
                            space_indices)

J2 = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture
def k2():
    return make_space(J2)


def test_make_space_validates():
    make_space(np.eye(3))
    with pytest.raises(NotSymmetry):
        make_space(np.array([[0.0, 1.0], [0.0, 0.0]]))       # not hermitian
    with pytest.raises(NotSymmetry):
        make_space(np.diag([1.0, 2.0]))                      # not an involution
    with pytest.raises(NotSymmetry):
        make_space(np.diag([1.0, 0.0]))                      # singular


def test_hilbert_space():
    H = hilbert_space(3)
    assert H.dim == 3
    assert np.array_equal(H.J, np.eye(3))
    assert space_indices(H) == (3, 0)
    assert hilbert_space(0).dim == 0


@pytest.mark.parametrize("n", [0, 1, 5, 64])
def test_hilbert_space_signature_is_seeded(monkeypatch, n):
    import kreinalg.densela as densela
    from kreinalg.phillips import canonical_frames
    # the seed is exactly the split an eigendecomposition of I gives
    split = densela.spectral_split(np.eye(n, dtype=complex))
    calls = []
    herm_eig = densela.herm_eig

    def counted(M, *rest):
        calls.append(M)
        return herm_eig(M, *rest)

    monkeypatch.setattr(densela, "herm_eig", counted)
    assert space_indices(hilbert_space(n)) == (n, 0)
    U_plus, U_minus = canonical_frames(hilbert_space(n))
    assert calls == []
    seeded = hilbert_space(n).signature
    for field in ("eigenvalues", "eigenvectors", "plus", "minus", "zero"):
        got, want = getattr(seeded, field), getattr(split, field)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (seeded.band, seeded.counts) == (split.band, split.counts)
    assert np.array_equal(U_plus, np.eye(n)) and U_minus.shape == (n, 0)


def test_space_indices(k2):
    assert space_indices(k2) == (1, 1)
    assert space_indices(make_space(np.diag([1.0, 1.0, -1.0]))) == (2, 1)


def test_koperator_shape_check(k2):
    with pytest.raises(DimensionMismatch):
        KOperator(k2, k2, np.zeros((3, 2)))


def test_k_adjoint_oracle(k2):
    # J M^H J with J = diag(1,-1), worked by hand
    M = KOperator(k2, k2, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    A = k_adjoint(M)
    assert np.allclose(A.matrix, [[0.0, 0.0], [-1.0, 0.0]])


def test_k_adjoint_involution_and_products(k2):
    rng = np.random.default_rng(3)
    A = KOperator(k2, k2, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    B = KOperator(k2, k2, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    assert np.allclose(k_adjoint(k_adjoint(A)).matrix, A.matrix, atol=1e-12)
    AB = KOperator(k2, k2, A.matrix @ B.matrix)
    assert np.allclose(k_adjoint(AB).matrix,
                       k_adjoint(B).matrix @ k_adjoint(A).matrix, atol=1e-12)


def test_k_adjoint_on_hilbert_is_conjugate_transpose():
    H = hilbert_space(3)
    rng = np.random.default_rng(4)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(k_adjoint(KOperator(H, H, M)).matrix, M.conj().T)


def test_is_selfadjoint(k2):
    # J C hermitian iff selfadjoint; [[0,1],[-1,0]] passes, [[0,1],[1,0]] fails
    assert is_selfadjoint(KOperator(k2, k2, np.array([[0, 1], [-1, 0]], dtype=complex)))
    assert not is_selfadjoint(KOperator(k2, k2, np.array([[0, 1], [1, 0]], dtype=complex)))
    assert is_selfadjoint(identity_op(k2))


def _validate_coordinate_split(C, tol):
    H = C.domain
    e = np.eye(H.dim, dtype=complex)
    return validate(C, Decomposition(Subspace(H, e[:, :1]), Subspace(H, e[:, 1:]),
                                     Subspace(H, e[:, :0])), tol)


@pytest.mark.parametrize("engine", [hermitian_indices, canonical_form, decompose,
                                    _validate_coordinate_split, bk_factorize])
def test_engines_share_the_selfadjoint_check(k2, engine):
    # J C = [[0, 1], [-1, 0]] is not Hermitian
    C = KOperator(k2, k2, np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(NotSelfadjoint, match="requires a selfadjoint operator"):
        engine(C, Tolerance())


def test_make_subspace_orthonormalizes(k2):
    # dependent columns collapse to rank
    cols = np.array([[1.0, 2.0], [1.0, 2.0]])
    S = make_subspace(k2, cols)
    assert S.dim == 1
    assert np.allclose(S.basis.conj().T @ S.basis, np.eye(1), atol=1e-12)


def test_make_subspace_empty(k2):
    assert make_subspace(k2, np.zeros((2, 0))).dim == 0


def test_classify_subspace(k2):
    C = identity_op(k2)
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    neutral = np.array([[1.0], [1.0]])
    assert classify_subspace(C, make_subspace(k2, e1)) == SubspaceClass.STRICTLY_POSITIVE
    assert classify_subspace(C, make_subspace(k2, e2)) == SubspaceClass.STRICTLY_NEGATIVE
    assert classify_subspace(C, make_subspace(k2, neutral)) == SubspaceClass.NEUTRAL
    assert classify_subspace(C, make_subspace(k2, np.eye(2))) == SubspaceClass.INDEFINITE


def test_classify_semidefinite():
    H = hilbert_space(2)
    C = KOperator(H, H, np.diag([1.0, 0.0]).astype(complex))
    whole = make_subspace(H, np.eye(2))
    assert classify_subspace(C, whole) == SubspaceClass.NONNEGATIVE
    Cm = KOperator(H, H, np.diag([-1.0, 0.0]).astype(complex))
    assert classify_subspace(Cm, whole) == SubspaceClass.NONPOSITIVE


def test_c_orthogonal(k2):
    C = identity_op(k2)
    e1 = make_subspace(k2, np.array([[1.0], [0.0]]))
    e2 = make_subspace(k2, np.array([[0.0], [1.0]]))
    neutral = make_subspace(k2, np.array([[1.0], [1.0]]))
    assert c_orthogonal(C, e1, e2)
    assert not c_orthogonal(C, e1, neutral)
    # a neutral line is orthogonal to itself
    assert c_orthogonal(C, neutral, neutral)


def test_index_triple_is_a_tuple():
    t = IndexTriple(2, 1, 0)
    assert t == (2, 1, 0)
    assert t.h_plus == 2 and t.h_minus == 1 and t.h_zero == 0


def test_subspace_dim_property(k2):
    S = Subspace(k2, np.array([[1.0], [0.0]]))
    assert S.dim == 1
