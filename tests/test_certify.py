"""Certified verdicts: a Cholesky under Rump's a-priori bound, and the bound on
cond(X) a congruence's verified inverse gives, stand in for an SVD or an
eigenvalue pass only where they prove what LAPACK would decide.

`densela._certified_pd` is held against the exact inertia over the rationals
(`exact.inertia`): whenever it claims G - shift I > 0, that is true of the
stored G.  At each site (`classify_subspace`, `bk_verify`, `transport`) a
claim, a verdict reached with no LAPACK pass over the spectrum it stands in
for, is compared with the verdict of the same call with every certificate
switched off, on spectra planted around the cut.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kreinalg.bkfact as bkfact
import kreinalg.hermdex as hermdex
import kreinalg.krein as krein
from exact import inertia
from kreinalg.bkfact import BKFactorization, bk_verify
from kreinalg.densela import Tolerance, _certified_pd, _hermitian_part
from kreinalg.errors import KreinError
from kreinalg.genrand import haar_unitary
from kreinalg.hermdex import COND_CAP, Congruence, transport
from kreinalg.krein import (KOperator, Subspace, SubspaceClass, classify_subspace,
                            hilbert_space, make_space)
from passes import kinds, record

U = 2.0 ** -53
# planted least value over the cut; claims are allowed only from 10^3 on
FACTORS = (0.5, 0.99, 1.0, 1.01, 2.0, 10.0, 1e3, 1e4)


def op(space, M):
    return KOperator(space, space, np.asarray(M, dtype=complex))


# ---- the primitive against exact arithmetic --------------------------------

# least eigenvalue of G minus the shift, in units of n u tr(G): around the
# rounding of G itself, where only a sound shift keeps the Cholesky honest
OFFSETS = (-4.0, -1.0, -0.25, 0.0, 0.25, 1.0, 4.0, 16.0, 1e3, 1e6)


def _planted_gram(seed: int, n: int, offset: float, shift: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lam = rng.uniform(1.0, 2.0, n) + shift
    lam[0] = shift + offset * n * U * lam.sum()
    Q = haar_unitary(rng, n)
    return _hermitian_part((Q * lam) @ Q.conj().T)


def test_a_certified_gram_is_positive_definite_in_exact_arithmetic():
    seen = Counter()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.sampled_from(OFFSETS),
           st.sampled_from([0.0, 1e-9, 0.25, 1.0]))
    def check(seed, n, offset, shift):
        G = _planted_gram(seed, n, offset, shift)
        claimed = _certified_pd(G, shift)
        seen["claimed" if claimed else "declined"] += 1
        if claimed:
            assert inertia(G.tolist(), shift) == (n, 0, 0)

    check()
    assert seen["claimed"] >= 50 and seen["declined"] >= 50, seen


@pytest.mark.parametrize("G, shift", [
    (np.zeros((0, 0)), 0.0),                          # nothing to prove
    (np.diag([1.0, 0.0]), 0.0),                       # singular
    (np.diag([1.0, 1e-9]), 1e-9),                     # exactly at the shift
    (np.diag([1.0, -1.0]), 0.0),                      # indefinite
    (np.diag([1.0, 1.0]), float("inf")),
])
def test_the_certificate_declines(G, shift):
    assert not _certified_pd(np.asarray(G, dtype=complex), shift)


def test_the_certificate_proves_a_well_separated_gram():
    assert _certified_pd(np.diag([2.0, 1.0]).astype(complex), 0.5)
    assert _certified_pd(np.array([[2.0, 1j], [-1j, 2.0]]), 0.5)
    assert _certified_pd(np.diag([1e308, 1e308]).astype(complex), 0.0)  # tr G overflows


# ---- each decision site against its LAPACK verdict --------------------------

def _spread(rng, k: int, least: float) -> np.ndarray:
    """k values in [least, 1], the largest 1 and the least ``least``."""
    s = np.concatenate([[1.0], rng.uniform(0.5, 1.0, max(k - 2, 0)), [least]])[:k]
    return s if k > 1 else np.array([1.0])


def _classify_case(rng, n, factor, tol):
    k = int(rng.integers(1, n + 1))
    sign = rng.choice([1.0, -1.0])
    least = min(factor * tol.rank_tol, 1.0)
    w = np.concatenate([sign * _spread(rng, k, least), rng.uniform(-1.0, 1.0, n - k)])
    V = haar_unitary(rng, n)
    H = hilbert_space(n)
    C = op(H, _hermitian_part((V * w) @ V.conj().T))
    ratio = np.abs(w[:k]).min() / (tol.rank_tol * np.abs(w).max())
    return (ratio, lambda: classify_subspace(C, Subspace(H, V[:, :k]), tol),
            lambda p: p.kernel.startswith("eig"))


def _factor_case(rng, n, factor, tol):
    k = int(rng.integers(1, n + 1))
    s = _spread(rng, k, min(factor * tol.rank_tol, 1.0))
    A = haar_unitary(rng, n)[:, :k] * s @ haar_unitary(rng, k).conj().T
    H, K = hilbert_space(n), hilbert_space(k)
    F = BKFactorization(KOperator(K, H, A))
    C = op(H, _hermitian_part(A @ A.conj().T))
    return (s.min() / (tol.rank_tol * s.max()), lambda: bk_verify(C, F, tol)["injective"],
            lambda p: p.kernel.startswith("svd") and np.array_equal(p.operand, F.A.matrix))


def _congruence_case(rng, n, factor, tol):
    cut = max(1.0 / COND_CAP, tol.rank_tol)
    s = _spread(rng, n, min(factor * cut, 1.0))
    Uu, V = haar_unitary(rng, n), haar_unitary(rng, n)
    H = hilbert_space(n)
    B = op(H, _hermitian_part((V * rng.uniform(-1.0, 1.0, n)) @ V.conj().T))
    X = Congruence(op(H, (Uu * s) @ V.conj().T), op(H, (V / s) @ Uu.conj().T), tol)

    def run():
        try:
            return transport(B, X, tol).matrix.tobytes()
        except KreinError as exc:
            return type(exc), str(exc)
    return (s.min() / (cut * s.max()), run,
            lambda p: p.kernel.startswith("svd") and np.array_equal(p.operand, X.X.matrix))


# each case returns the ratio to the cut, the call, and which pass a
# declined certificate leaves the verdict to
SITES = {
    "classify_subspace": (_classify_case, krein),
    "bk_verify": (_factor_case, bkfact),
    "transport": (_congruence_case, hermdex),
}


def test_a_claim_is_the_lapack_verdict_and_is_made_only_past_the_margin(monkeypatch):
    seen, passes = Counter(), record(monkeypatch)

    @settings(derandomize=True, max_examples=360, deadline=None)
    @given(st.sampled_from(sorted(SITES)), st.integers(1, 16), st.sampled_from(FACTORS),
           st.integers(2, 15), st.integers(0, 2 ** 32 - 1))
    def check(site, n, factor, exponent, seed):
        make, module = SITES[site]
        tol = Tolerance(rank_tol=10.0 ** -exponent)
        ratio, decide, fallback = make(np.random.default_rng(seed), n, factor, tol)
        passes.clear()
        verdict = decide()
        claimed = not any(map(fallback, passes))
        with mock.patch.object(module, "_certified_level", lambda cut, n: 0.0):
            assert decide() == verdict
        seen[site, claimed] += 1
        if claimed:
            assert ratio >= 1e3, (site, ratio)

    check()
    for site in SITES:
        assert seen[site, True] >= 5 and seen[site, False] >= 5, seen


# ---- the paths a declined certificate leaves as they were -------------------

@pytest.mark.parametrize("least, raised", [(2e-8, None), (5e-9, "IllConditioned")])
def test_a_congruence_near_the_cap_takes_the_values_only_svd(monkeypatch, least, raised):
    # cond(X) = 5e7 and 2e8: the bound from the inverse cannot clear the cap
    # by the margin, so conditioned_svd decides, with values alone at 5e7
    H = hilbert_space(3)
    Q = haar_unitary(np.random.default_rng(3), 3)
    s = np.array([1.0, 0.5, least])
    X = Congruence(op(H, (Q * s) @ Q.conj().T), op(H, (Q / s) @ Q.conj().T))
    passes = record(monkeypatch)
    if raised:
        with pytest.raises(KreinError, match=r"condition number 2\.000e\+08 exceeds cap 1e\+08"):
            transport(op(H, np.eye(3)), X)
    else:
        transport(op(H, np.eye(3)), X)
    assert kinds(passes, "svd") == (["svdvals", "svd"] if raised else ["svdvals"])


def test_a_loose_inverse_check_takes_the_values_only_svd(monkeypatch):
    # residual_tol 1e-2 leaves delta = 1e-2 * n: at n = 128 no bound is read
    n = 128
    H = hilbert_space(n)
    Q = haar_unitary(np.random.default_rng(5), n)
    X = Congruence(op(H, 2.0 * Q), op(H, 0.5 * Q.conj().T), Tolerance(residual_tol=1e-2))
    passes = record(monkeypatch)
    transport(op(H, np.eye(n)), X)
    assert kinds([p for p in passes if p.shape == (n, n)], "svd") == ["svdvals"]


def test_a_nonnegative_gram_takes_one_eigenvalue_pass(monkeypatch):
    H = hilbert_space(3)
    C = op(H, np.diag([1.0, 0.0, -1.0]))
    M = Subspace(H, np.eye(3, dtype=complex)[:, :2])
    passes = record(monkeypatch)
    assert classify_subspace(C, M) == SubspaceClass.NONNEGATIVE
    assert kinds(passes, "eig") == ["eigvalsh"]


def test_a_strict_gram_takes_no_eigenvalue_pass(monkeypatch):
    H = make_space(np.diag([1.0, -1.0]))
    C = op(H, np.diag([2.0, -3.0]))
    passes = record(monkeypatch)
    assert classify_subspace(C, Subspace(H, np.eye(2, dtype=complex)[:, :1])) \
        == SubspaceClass.STRICTLY_POSITIVE
    assert classify_subspace(C, Subspace(H, np.eye(2, dtype=complex)[:, 1:])) \
        == SubspaceClass.STRICTLY_POSITIVE    # J C = diag(2, 3)
    assert not kinds(passes, "eig")


def test_a_factor_on_the_cut_takes_one_svd_of_each_kind(monkeypatch):
    # s = (1, 1e-10) puts a value on the cut: the cached values decide
    # nothing, and the SVD with vectors is cut directly
    H, K = hilbert_space(2), hilbert_space(2)
    A = np.diag([1.0, 1e-10]).astype(complex)
    F = BKFactorization(KOperator(K, H, A))
    passes = record(monkeypatch)
    rep = bk_verify(op(H, A @ A.conj().T), F)
    assert sorted(p.kernel for p in passes if p.kernel.startswith("svd")
                  and np.array_equal(p.operand, A)) == ["svd", "svdvals"]
    assert not rep["injective"]


def test_a_square_signature_factor_takes_no_svd_of_t(monkeypatch):
    from kreinalg.bkfact import keyth_verify
    E = hilbert_space(2)
    T = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    S = BKFactorization(KOperator(make_space(np.diag([1.0, -1.0])), E, T.conj().T))
    passes = record(monkeypatch)
    rep = keyth_verify(op(E, T.conj().T @ np.diag([1.0, -1.0]) @ T), S)
    assert rep["passed"] and rep["kernel_trivial"] and rep["range_dense"]
    assert not [p for p in passes if p.kernel.startswith("svd")
                and any(np.array_equal(p.operand, M) for M in (T, T.conj().T))]
