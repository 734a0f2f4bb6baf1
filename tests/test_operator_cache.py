"""Each operator forms J C once, is eigendecomposed once and its 2-norm
taken once.

`KOperator.jc`, `KOperator.spectrum` and `KOperator.norm` are
cached; these tests count the products and kernels behind them across
the engines and check that the caches never carry one call's tolerance
into another.  Eigendecompositions are LAPACK passes, seen by
`passes.record`.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import kreinalg.densela as densela
from kreinalg import bkfact, cli, decomp, krein, phillips, suite
from kreinalg.bkfact import bk_factorize, bk_verify
from kreinalg.decomp import decompose, projections, validate
from kreinalg.densela import Tolerance, spectral_norm
from kreinalg.errors import NotSelfadjoint
from kreinalg.genrand import (GenConfig, gen_invertible, gen_selfadjoint,
                              gen_space_with_split)
from kreinalg.hermdex import (build_congruence, canonical_form,
                              hermitian_indices, transport)
from kreinalg.krein import (KOperator, hilbert_space, identity_op, is_selfadjoint,
                            make_space, make_subspace, selfadjoint_split, space_indices)
from kreinalg.phillips import graph_rep
from passes import record


def _record_norms(monkeypatch) -> list:
    """The arguments of ``spectral_norm``, patched in every module that binds it."""
    seen, norm = [], densela.spectral_norm

    def recorded(M):
        return seen.append(np.asarray(M)) or norm(M)

    for mod in (densela, krein, bkfact, decomp, phillips, cli, suite):
        if hasattr(mod, "spectral_norm"):
            monkeypatch.setattr(mod, "spectral_norm", recorded)
    return seen


class _CountingMatrix(np.ndarray):
    """An operator matrix that counts the products ``J @ matrix`` formed
    from it, J being its operator's domain symmetry; every operation on it
    returns plain arrays."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if (ufunc is np.matmul and method == "__call__" and inputs[1] is self
                and inputs[0] is self.J):
            self.jc_products += 1
        inputs = [x.view(np.ndarray) if isinstance(x, _CountingMatrix) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def _count_jc(C: KOperator) -> _CountingMatrix:
    """Swap C's matrix for a counting view of it; returns that view."""
    M = C.matrix.view(_CountingMatrix)
    M.J, M.jc_products = C.domain.J, 0
    object.__setattr__(C, "matrix", M)
    return M


def _count_equal(seen, M) -> int:
    return sum(a.shape == M.shape and np.array_equal(a, M) for a in seen)


def _hermitian_part(C: KOperator) -> np.ndarray:
    JC = C.domain.J @ C.matrix
    return 0.5 * (JC + JC.conj().T)


def _congruent_pair():
    # C on a space of signature (4, 3) and B = X* C X on another such space
    H = gen_space_with_split(GenConfig(11), 4, 3)
    K = gen_space_with_split(GenConfig(12), 4, 3)
    C = gen_selfadjoint(GenConfig(13, kernel_prob=1.0), H)
    B = transport(C, gen_invertible(GenConfig(14), K, H))
    return C, B


def test_each_operator_is_eigendecomposed_once(monkeypatch):
    # one pass with eigenvectors per operator
    C, B = _congruent_pair()
    passes = record(monkeypatch)
    assert hermitian_indices(C) == canonical_form(C).indices
    dec = decompose(C)
    assert validate(C, dec)["passed"]
    assert bk_verify(C, bk_factorize(C))["passed"]
    assert hermitian_indices(B) == hermitian_indices(C)
    build_congruence(C, B)
    seen = [p.operand for p in passes if p.kernel == "eigh"]
    assert _count_equal(seen, _hermitian_part(C)) == 1
    assert _count_equal(seen, _hermitian_part(B)) == 1


def test_each_operator_forms_jc_once():
    # fresh operators: building the pair has read C's J C already
    C, B = (KOperator(op.domain, op.codomain, op.matrix) for op in _congruent_pair())
    counted = _count_jc(C), _count_jc(B)
    assert hermitian_indices(C) == canonical_form(C).indices
    dec = decompose(C)
    assert validate(C, dec)["passed"]
    projections(C, dec)
    assert bk_verify(C, bk_factorize(C))["passed"]
    assert hermitian_indices(B) == hermitian_indices(C)
    build_congruence(C, B)
    assert [M.jc_products for M in counted] == [1, 1]


def test_graph_rep_forms_no_jc_of_an_identity(monkeypatch):
    H = make_space(np.diag([1.0, 1.0, 1.0, -1.0, -1.0]))
    plus = make_subspace(H, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0],
                                      [0.5, 0.0], [0.0, 0.25]]))
    identities = []

    def counted_identity(space):
        op = identity_op(space)
        identities.append(_count_jc(op))
        return op

    monkeypatch.setattr(phillips, "identity_op", counted_identity)
    graph_rep(plus, "plus")
    assert identities and not any(M.jc_products for M in identities)


def test_jc_is_read_only():
    C, _ = _congruent_pair()
    for op in (C, identity_op(C.domain), identity_op(hilbert_space(3))):
        assert np.array_equal(op.jc, op.domain.J @ op.matrix)
        with pytest.raises(ValueError):
            op.jc[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.jc = np.zeros_like(op.matrix)


def test_operator_norm_is_taken_once(monkeypatch):
    C, _ = _congruent_pair()
    seen = _record_norms(monkeypatch)
    assert validate(C, decompose(C))["passed"]
    assert bk_verify(C, bk_factorize(C))["passed"]
    assert _count_equal(seen, C.matrix) == 1


@pytest.mark.parametrize("eps", [0.8e-8, 0.9e-8, 0.98e-8])
def test_operator_norm_is_taken_once_when_the_selfadjointness_test_straddles(
        monkeypatch, eps):
    # ||J C - (J C)^H||_2 = 4 eps against 1e-8 ||C||_2 = 4e-8: the Frobenius
    # bounds of both sides straddle the threshold, so the exact test decides
    # from the cached norm bk_verify reads too
    M = np.diag([0.0, 4.0, 4.0, -4.0]).astype(complex)
    M[0, 1] = 4 * eps
    H = hilbert_space(4)
    C = KOperator(H, H, M)
    seen = _record_norms(monkeypatch)
    assert bk_verify(C, bk_factorize(C))["passed"]
    assert _count_equal(seen, M) == 1


def test_stacked_basis_is_decomposed_once(monkeypatch):
    C, _ = _congruent_pair()
    dec = decompose(C)
    passes = record(monkeypatch)
    assert validate(C, dec)["direct_sum"]
    projections(C, dec)
    assert _count_equal([p.operand for p in passes if p.kernel.startswith("svd")],
                        dec.stacked()) == 1


def test_decomposition_bases_are_read_only_views_of_the_cache():
    C, _ = _congruent_pair()
    dec = decompose(C)
    split = selfadjoint_split(C, Tolerance(), "the test")
    V = C.spectrum.eig.eigenvectors
    for part, mask in ((dec.M_plus, split.plus), (dec.M_minus, split.minus),
                       (dec.M_zero, split.zero)):
        assert part.dim and np.shares_memory(part.basis, V)
        assert np.array_equal(part.basis, V[:, mask])
    with pytest.raises(ValueError):
        dec.M_plus.basis[0, 0] = 0.0


def test_graph_rep_takes_no_svd_of_an_identity(monkeypatch):
    H = make_space(np.diag([1.0, 1.0, 1.0, -1.0, -1.0]))
    plus = make_subspace(H, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0],
                                      [0.5, 0.0], [0.0, 0.25]]))
    minus = make_subspace(H, np.array([[0.0], [0.0], [0.5], [0.0], [1.0]]))
    norms, passes = _record_norms(monkeypatch), record(monkeypatch)
    graph_rep(plus, "plus")
    graph_rep(minus, "minus")
    seen = norms + [p.operand for p in passes if p.kernel.startswith("svd")]
    for n in range(H.dim + 1):
        assert _count_equal(seen, np.eye(n)) == 0


def test_cache_keeps_the_selfadjointness_check():
    # a 1e-5 skew in J C passes residual_tol 1e-2 but not the default 1e-8
    H = make_space(np.diag([1.0, -1.0, 1.0]))
    M = np.diag([2.0, 1.0, -0.5]).astype(complex)
    M[0, 1] = 1e-5
    C = KOperator(H, H, M)
    assert hermitian_indices(C, Tolerance(residual_tol=1e-2)) == (1, 2, 0)
    assert "jc" in vars(C) and "values" in vars(C.spectrum)
    assert not is_selfadjoint(C)
    with pytest.raises(NotSelfadjoint):
        hermitian_indices(C, Tolerance())
    with pytest.raises(NotSelfadjoint):
        decompose(C, Tolerance())


def test_bands_follow_each_calls_rank_tol():
    # 1e-6 lies inside the zero band at rank_tol 1e-4 and outside at 1e-8
    H = hilbert_space(3)
    C = KOperator(H, H, np.diag([1.0, 1e-6, -1.0]))
    loose, tight = Tolerance(rank_tol=1e-4), Tolerance(rank_tol=1e-8)
    for tol, want in ((loose, (1, 1, 1)), (tight, (2, 1, 0)), (loose, (1, 1, 1))):
        assert hermitian_indices(C, tol) == want
        assert canonical_form(C, tol).indices == want
        dec = decompose(C, tol)
        assert (dec.M_plus.dim, dec.M_minus.dim, dec.M_zero.dim) == want
        assert bk_factorize(C, tol).A_space.dim == want[0] + want[1]


def test_identity_norm_seed_is_the_svd_norm():
    for n in range(71):
        assert identity_op(hilbert_space(n)).norm == spectral_norm(np.eye(n))


@pytest.mark.parametrize("n", [0, 1, 5, 64])
def test_hilbert_space_holds_one_identity(n):
    H = hilbert_space(n)
    assert H.signature.eigenvectors is H.J
    assert n == 0 or np.shares_memory(H.J, H.signature.eigenvectors)


def test_a_read_spectrum_is_freed_with_its_owner_and_keeps_no_matrix():
    # a spectrum reaches the matrix it decomposes through its owner's arrays,
    # never back to the owner, so reference counting alone frees both; and
    # it forms the Hermitian matrix per pass without keeping it
    C = _congruent_pair()[0]
    H = C.domain
    assert space_indices(H) == (4, 3) and H.signature.counts == (4, 3, 0)
    assert hermitian_indices(C) == canonical_form(C).indices
    refs = [weakref.ref(x) for x in (C, H, C.spectrum, H.spectrum)]
    gc.disable()
    try:
        del C, H
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()
    n = 256
    rng = np.random.default_rng(0)
    E = hilbert_space(n)
    C = KOperator(E, E, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    C.jc
    tracemalloc.start()
    try:
        C.spectrum.values
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < n * n * np.dtype(complex).itemsize
