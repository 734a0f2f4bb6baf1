from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from kreinalg.bkfact import BKFactorization, bk_factorize, bk_verify, keyth_verify
from kreinalg.densela import Tolerance
from kreinalg.errors import (DimensionMismatch, NotSelfadjoint, NotSymmetry,
                             PreconditionFailed)
from kreinalg.krein import (KOperator, hilbert_space, k_adjoint, make_space,
                            space_indices)
from passes import calls, kinds, record

J2 = np.diag([1.0, -1.0]).astype(complex)
INV_SQRT2 = 0.7071067811865476


def op(space, M):
    return KOperator(space, space, np.asarray(M, dtype=complex))


def c2_example():
    H = make_space(J2)
    return H, op(H, [[0, 1], [-1, 0]])


def test_factorize_c2_example():
    H, C = c2_example()
    F = bk_factorize(C)
    assert [f.name for f in fields(F)] == ["A"] and F.A_space is F.A.domain
    assert F.A_space.dim == 2
    assert space_indices(F.A_space) == (1, 1)
    # every entry of the factor has modulus 1/sqrt(2)
    assert np.allclose(np.abs(F.A.matrix), INV_SQRT2, atol=1e-12)
    prod = F.A.matrix @ k_adjoint(F.A).matrix
    assert np.allclose(prod, C.matrix, atol=1e-10)
    rep = bk_verify(C, F)
    assert rep["passed"]
    assert rep["product_residual"] <= 1e-10
    assert rep["injective"]
    assert rep["index_equality"]


def test_factorize_zero_operator():
    H = make_space(J2)
    C = op(H, np.zeros((2, 2)))
    F = bk_factorize(C)
    assert F.A_space.dim == 0
    assert F.A.matrix.shape == (2, 0)
    assert bk_verify(C, F)["passed"]


def test_factorize_identity_on_hilbert():
    H = hilbert_space(3)
    F = bk_factorize(op(H, np.eye(3)))
    assert np.allclose(F.A.matrix, np.eye(3), atol=1e-12)
    assert space_indices(F.A_space) == (3, 0)


def test_factorize_with_kernel():
    H = hilbert_space(3)
    C = op(H, np.diag([4.0, -9.0, 0.0]))
    F = bk_factorize(C)
    # kernel directions stay out of the factor space
    assert F.A_space.dim == 2
    assert space_indices(F.A_space) == (1, 1)
    rep = bk_verify(C, F)
    assert rep["passed"]
    assert rep["operator_indices"] == [1, 1, 1]


def test_factorize_requires_selfadjoint():
    H = make_space(J2)
    with pytest.raises(NotSelfadjoint):
        bk_factorize(op(H, [[0, 1], [1, 0]]))


def test_verify_flags_scaled_factor():
    H, C = c2_example()
    F = bk_factorize(C)
    bad = BKFactorization(KOperator(F.A_space, H, 2.0 * F.A.matrix))
    rep = bk_verify(C, bad)
    assert not rep["passed"]
    assert rep["product_residual"] == pytest.approx(3.0, rel=1e-6)


def test_verify_flags_wrong_signature():
    # factor space with flipped signs cannot match the index triple
    H = hilbert_space(2)
    C = op(H, np.diag([1.0, 2.0]))
    A_space = make_space(J2)
    A = KOperator(A_space, H, np.diag([1.0, np.sqrt(2.0)]).astype(complex))
    rep = bk_verify(C, BKFactorization(A))
    assert not rep["index_equality"]
    assert not rep["passed"]


def test_verify_dimension_mismatch():
    H, C = c2_example()
    F = bk_factorize(op(hilbert_space(3), np.eye(3)))
    with pytest.raises(DimensionMismatch):
        bk_verify(C, F)


def test_verify_refuses_a_factor_into_another_space_of_its_dimension():
    # A* = J_A A^H J takes J from the factor's codomain, so a factor into
    # C^2 does not factor C on (C^2, diag(1, -1)) although the sizes agree
    _, C = c2_example()
    F = bk_factorize(C)
    moved = BKFactorization(KOperator(F.A_space, hilbert_space(2), F.A.matrix))
    with pytest.raises(DimensionMismatch):
        bk_verify(C, moved)


def sig_fact(E, J_A, T, tol=Tolerance()):
    """The factor A = T^H of C = T^H J_A T, from (K, J_A) into E."""
    T = np.asarray(T, dtype=complex)
    return BKFactorization(KOperator(make_space(J_A, tol), E, T.conj().T))


def test_keyth_verify_diagonal():
    E = hilbert_space(2)
    S = sig_fact(E, np.diag([1.0, -1.0]), np.diag([np.sqrt(2.0), np.sqrt(3.0)]))
    C = op(E, np.diag([2.0, -3.0]))
    rep = keyth_verify(C, S)
    assert rep["passed"]
    assert rep["reconstruction_residual"] <= 1e-12
    assert rep["kernel_trivial"] and rep["range_dense"]
    assert rep["operator_indices"] == [1, 1, 0]
    assert rep["signature_indices"] == [1, 1]


def test_keyth_verify_flags_wrong_signature():
    E = hilbert_space(2)
    S = sig_fact(E, np.eye(2), np.diag([np.sqrt(2.0), np.sqrt(3.0)]))
    C = op(E, np.diag([2.0, -3.0]))
    rep = keyth_verify(C, S)
    assert not rep["index_equality"]
    assert not rep["passed"]


def test_keyth_verify_reports_deficient_range():
    # T maps into a larger space without covering it
    E2 = hilbert_space(2)
    S = sig_fact(E2, np.eye(3), [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    C = op(E2, np.eye(2))
    rep = keyth_verify(C, S)
    assert rep["kernel_trivial"]
    assert not rep["range_dense"]
    assert not rep["passed"]


def test_keyth_verify_preconditions():
    K, C = c2_example()
    E = hilbert_space(2)
    S = sig_fact(E, J2, np.eye(2))
    with pytest.raises(PreconditionFailed, match="Hilbert"):
        keyth_verify(C, S)                       # operator space is indefinite
    singular = op(E, np.diag([1.0, 0.0]))
    with pytest.raises(PreconditionFailed, match="kernel"):
        keyth_verify(singular, S)


def test_kernel_counts_come_from_the_split_and_the_rank_cut(monkeypatch):
    # validate and keyth_verify read dim ker C as h_zero of the one split of
    # J C; bk_verify decides injectivity by rank; no verifier calls null_basis
    from kreinalg import decomp
    from kreinalg.densela import null_basis
    nulls = calls(monkeypatch, null_basis)
    H, C = c2_example()
    dec = decomp.decompose(C)
    assert decomp.validate(C, dec)["passed"] and not nulls
    F = bk_factorize(C)
    assert bk_verify(C, F)["passed"] and not nulls
    E = hilbert_space(2)
    S = sig_fact(E, J2, np.diag([np.sqrt(2.0), np.sqrt(3.0)]))
    space_indices(S.A_space)                     # the symmetry's own split
    passes = record(monkeypatch)
    assert keyth_verify(op(E, np.diag([2.0, -3.0])), S)["passed"]
    assert not nulls and kinds(passes, "eig") == ["eigvalsh"]


def test_factor_space_is_seeded_with_the_values_eigvalsh_returns():
    import kreinalg.densela as densela
    for p in range(9):
        for q in range(9):
            F = bk_factorize(op(hilbert_space(p + q + 1),
                                np.diag([2.0] * p + [-3.0] * q + [0.0])))
            J_A = np.zeros((p + q, p + q), dtype=complex)
            np.fill_diagonal(J_A, [1.0] * p + [-1.0] * q)
            assert F.A_space.J.dtype == complex and F.A_space.J.tobytes() == J_A.tobytes()
            seeded = vars(F.A_space.spectrum)["values"]
            taken = densela._eigh(densela._hermitian_input(J_A), False).eigenvalues
            assert seeded.dtype == taken.dtype and seeded.shape == taken.shape
            assert seeded.tobytes() == taken.tobytes() and not seeded.flags.writeable
            assert space_indices(F.A_space) == (p, q)


def test_factorize_takes_only_the_eigendecomposition_of_jc(monkeypatch, capsys):
    # the factor space's indices read its seeded values, so no values-only
    # pass follows the one eigendecomposition of J C
    import os
    from kreinalg.cli import main
    passes = record(monkeypatch)
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    assert main(["factorize", "-i", os.path.join(golden, "problem8.json"), "--machine"]) == 0
    with open(os.path.join(golden, "factorize.out")) as fh:
        assert capsys.readouterr().out == fh.read()
    assert [(p.kernel, p.shape) for p in passes if p.kernel.startswith("eig")] \
        == [("eigh", (8, 8))]


def test_factor_space_validates_its_symmetry():
    E = hilbert_space(2)
    with pytest.raises(NotSymmetry):
        sig_fact(E, np.diag([1.0, 2.0]), np.eye(2))
    with pytest.raises(DimensionMismatch):    # a symmetry of the wrong size
        sig_fact(E, np.eye(3), np.eye(2))


def test_factor_space_uses_caller_tolerance():
    # J_A off selfadjoint by 1e-6: rejected at the default residual_tol,
    # accepted at residual_tol = 1e-5
    E = hilbert_space(2)
    J_A = np.array([[1.0, 1e-6], [0.0, -1.0]])
    with pytest.raises(NotSymmetry):
        make_space(J_A)
    S = sig_fact(E, J_A, np.eye(2), Tolerance(residual_tol=1e-5))
    # J_A was validated once, when its space was made: checking the
    # factorization at the default tolerance reads that space and does
    # not re-check J_A
    rep = keyth_verify(op(E, np.diag([1.0, -1.0])), S)
    assert rep["signature_indices"] == [1, 1] and rep["index_equality"]
    assert not rep["passed"]                 # the 1e-6 shows in the residual


def _signature_case(i: int):
    """Case i of the keyth equivalence property: (C, T, J_A) with C = T^H J_A T
    over E = C^n, dim K = m apart from n in a quarter of the cases, T
    rank-deficient in a quarter, and then J_A's signature altered or C
    perturbed in a third each."""
    from kreinalg.genrand import complex_gaussian, haar_unitary
    rng = np.random.default_rng([20261020, i])
    n = int(rng.integers(1, 9))
    m = n if rng.random() < 0.75 else int(rng.choice([k for k in range(1, 9) if k != n]))
    signs = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    R = haar_unitary(rng, m)
    T = complex_gaussian(rng, m, n)
    if rng.random() < 0.25:
        k = int(rng.integers(0, min(m, n)))
        T = complex_gaussian(rng, m, k) @ complex_gaussian(rng, k, n)
    C = T.conj().T @ ((R * signs) @ R.conj().T) @ T
    kind = rng.integers(3)
    if kind == 1:                       # one sign of J_A flipped
        signs[rng.integers(m)] *= -1.0
    elif kind == 2:                     # C moved by 1e-12 to 1e-4 of its norm
        Z = complex_gaussian(rng, n, n)
        C = C + 10.0 ** rng.uniform(-12, -4) * np.linalg.norm(C, 2) * (Z + Z.conj().T)
    J_A = (R * signs) @ R.conj().T
    return op(hilbert_space(n), 0.5 * (C + C.conj().T)), T, 0.5 * (J_A + J_A.conj().T)


def _keyth_reference(C, T, J_A, tol):
    """keyth_verify's verdicts by its former formulas: the residual of
    (T^H J_A) T, one rank of T for both flags, and (h+, h-) = (p_J, q_J)."""
    from kreinalg.densela import rank, spectral_norm
    from kreinalg.hermdex import hermitian_indices
    residual = spectral_norm(C.matrix - T.conj().T @ J_A @ T) / C.norm
    r = rank(T, tol)
    h = hermitian_indices(C, tol)
    ref = {"kernel_trivial": r == C.domain.dim, "range_dense": r == len(J_A),
           "index_equality": (h.h_plus, h.h_minus) == space_indices(make_space(J_A, tol))}
    ref["passed"] = residual <= tol.residual_tol and all(ref.values())
    return residual, ref


def test_keyth_verify_decides_as_its_former_formulas():
    # keyth_verify reads bk_verify of A = T^H; over 1,500 seeded cases every
    # verdict is the one its own residual, rank and index formulas gave
    tol, seen = Tolerance(), Counter()
    for i in range(1500):
        C, T, J_A = _signature_case(i)
        S = sig_fact(C.domain, J_A, T)
        try:
            rep = keyth_verify(C, S, tol)
        except PreconditionFailed:
            seen["raised"] += 1
            continue
        residual, ref = _keyth_reference(C, T, J_A, tol)
        assert {key: rep[key] for key in ref} == ref, i
        assert abs(rep["reconstruction_residual"] - residual) <= 1e-13, i
        seen["passed" if ref["passed"] else "failed"] += 1
        seen["flags differ"] += ref["kernel_trivial"] != ref["range_dense"]
    assert min(seen.values()) >= 50, seen


def test_keyth_verify_adds_the_kernel_of_t_to_bk_verify(monkeypatch):
    # over a passing factorization trivial ker T follows from bk_verify's
    # verdicts (equal indices force dim K = dim H), so the property above
    # cannot tell `passed` without it; a bk_verify that passes everything
    # shows that keyth_verify still requires it
    from kreinalg import bkfact
    _, C2 = c2_example()
    passing = bk_verify(C2, bk_factorize(C2))
    monkeypatch.setattr(bkfact, "bk_verify", lambda *args: passing)
    E = hilbert_space(2)
    S = sig_fact(E, np.eye(2), np.diag([1.0, 0.0]))
    rep = keyth_verify(op(E, np.eye(2)), S)
    assert not rep["kernel_trivial"] and not rep["passed"]



def test_keyth_verify_takes_one_values_only_svd_of_t(monkeypatch):
    # sigma(T) = sigma(T^H): when the values bk_verify took of A = T^H clear
    # the slack of the cut, they decide the kernel of T too; T maps C^2 into
    # C^3, so the two flags differ and each reads its own dimension
    E = hilbert_space(2)
    T = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], dtype=complex)
    S = sig_fact(E, np.diag([1.0, 1.0, -1.0]), T)
    passes = record(monkeypatch)
    rep = keyth_verify(op(E, T.conj().T @ np.diag([1.0, 1.0, -1.0]) @ T), S)
    assert [p.shape for p in passes if p.kernel == "svdvals"
            and any(np.array_equal(p.operand, M) for M in (T, T.conj().T))] == [(2, 3)]
    assert rep["kernel_trivial"] and not rep["range_dense"]


def test_keyth_verify_ranks_t_when_a_value_lies_within_the_slack(monkeypatch):
    # s = (1, 1e-10) puts a value on the cut rank_tol * s[0]: the values of A
    # decide nothing, and rank(T) decides ker T as it did before
    from kreinalg import bkfact
    from kreinalg.densela import rank
    _, C2 = c2_example()
    passing = bk_verify(C2, bk_factorize(C2))
    monkeypatch.setattr(bkfact, "bk_verify", lambda *args: passing)
    ranked = calls(monkeypatch, rank)
    E, T = hilbert_space(2), np.diag([1.0, 1e-10])
    S = sig_fact(E, np.eye(2), T)
    rep = keyth_verify(op(E, np.eye(2)), S)
    assert [np.array_equal(args[0], T) for args, _ in ranked] == [True]
    assert not rep["kernel_trivial"] and not rep["passed"]
