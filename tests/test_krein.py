import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinalg.bkfact import bk_factorize
from kreinalg.decomp import Decomposition, decompose, validate
from kreinalg.densela import Tolerance
from kreinalg.errors import DimensionMismatch, NotSelfadjoint, NotSymmetry
from kreinalg.genrand import GenConfig, gen_space
from kreinalg.hermdex import canonical_form, hermitian_indices
from kreinalg.krein import (IndexTriple, KOperator, KreinSpace, Subspace, SubspaceClass,
                            c_orthogonal, classify_subspace,
                            hilbert_space, identity_op, is_selfadjoint,
                            k_adjoint, make_space, make_subspace,
                            space_indices)
from passes import kinds, record

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
    passes = record(monkeypatch)
    assert space_indices(hilbert_space(n)) == (n, 0)
    U_plus, U_minus = canonical_frames(hilbert_space(n))
    assert not kinds(passes, "eig")
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


def indices_with_vectors(J):
    """space_indices of a fresh space whose signature is split with vectors."""
    H = KreinSpace(J.shape[0], J)
    try:
        return H.signature.counts[:2]
    except NotSymmetry as exc:
        return NotSymmetry, str(exc)


def indices_values_only(J):
    try:
        return space_indices(KreinSpace(J.shape[0], J))
    except NotSymmetry as exc:
        return NotSymmetry, str(exc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 12))
def test_space_indices_of_generated_spaces(seed, n):
    J = gen_space(GenConfig(seed, dim_range=(n, n))).J
    assert indices_values_only(J) == indices_with_vectors(J)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(0, 4),
       st.sampled_from(["symmetry", "hermitian", "band"]),
       st.sampled_from([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0, 1.0 - 4e-3, 1.0 + 4e-3]))
def test_space_indices_near_the_bounds(seed, p, q, where, factor):
    # J's near make_space's bounds: eigenvalues +-(1 + d) with J^2 - I at
    # ``factor`` times its bound, or an anti-Hermitian part that takes
    # J - J^H and J^2 - I to about half of ``factor`` times theirs (so
    # make_space accepts both well below a factor of 1); and, built directly,
    # an eigenvalue at ``factor`` times the zero band, which has to be
    # counted or refused exactly as the split with vectors does
    rng = np.random.default_rng(seed)
    n = p + q + (where == "band")
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    lam = np.concatenate([np.ones(p), -np.ones(q)])
    if where == "symmetry":
        lam = lam * (1.0 + 0.5 * factor * Tolerance().residual_tol)
    if where == "band":
        lam = np.append(lam, rng.choice([-1.0, 1.0]) * factor * Tolerance().rank_tol)
    J = (U * lam) @ U.conj().T
    if where == "hermitian":
        E = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        E = 0.5 * (E - E.conj().T)
        J = J + 0.25 * factor * Tolerance().residual_tol * E / np.linalg.norm(E, 2)
    if where != "band" and factor == 0.5:
        make_space(J)
    assert indices_values_only(J) == indices_with_vectors(J)


def test_space_indices_refuse_a_zero_eigenvalue_every_time():
    degenerate = KreinSpace(2, np.diag([1.0, 0.0]).astype(complex))
    for _ in range(2):
        with pytest.raises(NotSymmetry,
                           match="^fundamental symmetry has a numerically zero eigenvalue$"):
            space_indices(degenerate)
    assert "signature" not in vars(degenerate)


@pytest.mark.parametrize("value, triple, fallback", [
    (1e-10 * (1.0 + 1e-13), (2, 1, 1), True),     # within the slack, above the band
    (1e-10, (1, 1, 2), True),                     # at the band: counted zero
    (1e-10 * (1.0 - 1e-13), (1, 1, 2), True),     # within the slack, inside the band
    (2e-10, (2, 1, 1), False),
    (0.5e-10, (1, 1, 2), False),
])
def test_index_triple_falls_back_to_the_eigendecomposition_near_the_band(
        monkeypatch, value, triple, fallback):
    # J C = diag(1, -0.5, value, 0), so the band is 1e-10 exactly
    J = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    C = KOperator(make_space(J), make_space(J), J @ np.diag([1.0, -0.5, value, 0.0]))
    passes = record(monkeypatch)
    assert hermitian_indices(C) == triple
    assert kinds(passes) == (["eigvalsh", "eigh"] if fallback else ["eigvalsh"])
    assert hermitian_indices(C) == triple == canonical_form(C).indices
    assert kinds(passes) == ["eigvalsh", "eigh"]


@pytest.mark.parametrize("g, cls", [
    (1.3e-10, SubspaceClass.STRICTLY_POSITIVE),
    (0.9e-10, SubspaceClass.NEUTRAL),
    (2e-10, SubspaceClass.STRICTLY_POSITIVE),
    (0.5e-10, SubspaceClass.NEUTRAL),
])
def test_classify_bands_an_uncertified_gram_by_the_norm(g, cls):
    # the certificate's shift, 1e-7 * ||C||_F, is far above g, so the Gram
    # [[g]] of e1 is counted against the band 1e-10 * ||C||_2 = 1e-10
    import kreinalg.densela as densela
    H = hilbert_space(4)
    C = KOperator(H, H, np.diag([g, 1.0, 1.0, -1.0]).astype(complex))
    e1 = make_subspace(H, np.eye(4)[:, :1])
    assert classify_subspace(C, e1) == cls
    assert "norm" in vars(C)
    # the class the exact norm gives
    p, _, _ = densela.inertia(np.array([[g]]), scale=densela.spectral_norm(C.matrix))
    assert (cls == SubspaceClass.STRICTLY_POSITIVE) == bool(p)


def test_an_empty_subspace_is_neutral_with_no_pass(monkeypatch):
    # the zero form is neutral at any scale: no norm of C and no 0 x 0 spectrum
    H = hilbert_space(64)
    C = KOperator(H, H, np.diag(np.arange(1.0, 65.0)).astype(complex))
    empty = Subspace(H, np.zeros((64, 0), dtype=complex))
    passes = record(monkeypatch)
    assert classify_subspace(C, empty) == SubspaceClass.NEUTRAL
    assert passes == [] and "norm" not in vars(C)


def test_uncertified_classifications_share_one_svd_of_c(monkeypatch):
    # [[1e-10]] and diag(1, -1) both fail the certificate; the two bands
    # read the one cached norm of C, a values-only SVD
    H = hilbert_space(4)
    C = KOperator(H, H, np.diag([1e-10, 1.0, 1.0, -1.0]).astype(complex))
    e = np.eye(4, dtype=complex)
    passes = record(monkeypatch)
    assert classify_subspace(C, Subspace(H, e[:, :1])) == SubspaceClass.NEUTRAL
    assert classify_subspace(C, Subspace(H, e[:, 2:])) == SubspaceClass.INDEFINITE
    assert [(p.shape, p.kernel) for p in passes if p.kernel.startswith("svd")] \
        == [((4, 4), "svdvals")]


def test_selfadjointness_is_decided_once_per_tolerance(monkeypatch):
    import kreinalg.krein as krein
    # a 1e-5 skew in J C passes residual_tol 1e-2 but not the default 1e-8
    H = make_space(np.diag([1.0, -1.0, 1.0]))
    M = np.diag([2.0, 1.0, -0.5]).astype(complex)
    M[0, 1] = 1e-5
    C = KOperator(H, H, M)
    checked, within = [], krein._hermitian_within

    def counted(A, *rest, **kw):
        checked.append(A)
        return within(A, *rest, **kw)

    monkeypatch.setattr(krein, "_hermitian_within", counted)
    for _ in range(2):
        assert is_selfadjoint(C, Tolerance(residual_tol=1e-2))
        assert not is_selfadjoint(C)
        assert not is_selfadjoint(C, Tolerance(rank_tol=1e-8))
    assert len(checked) == 3 and all(A is C.jc for A in checked)
