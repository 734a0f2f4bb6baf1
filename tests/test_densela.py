import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kreinalg.densela as densela
from kreinalg.densela import (Tolerance, conditioned_svd, herm_eig, inertia,
                              norm_within, null_basis, pinv, psd_sqrt, rank,
                              spectral_norm, spectral_split, svd)
from kreinalg.errors import (IllConditioned, InputError, NotHermitian,
                             NotInvertible, NotPSD)

# sqrt of [[2,1],[1,2]] by hand: eigenpairs (3, (1,1)/sqrt2), (1, (1,-1)/sqrt2)
SQRT3P1_HALF = 1.3660254037844386
SQRT3M1_HALF = 0.3660254037844386


def test_tolerance_defaults():
    t = Tolerance()
    assert t.rank_tol == 1e-10
    assert t.residual_tol == 1e-8


@pytest.mark.parametrize("kwargs", [
    {"rank_tol": 0.0},
    {"rank_tol": -1e-10},
    {"residual_tol": 0.1},          # above the 1e-2 ceiling
    {"residual_tol": 0.0},
])
def test_tolerance_rejects(kwargs):
    with pytest.raises(InputError):
        Tolerance(**kwargs)


def test_tolerance_ceiling_inclusive():
    Tolerance(rank_tol=1e-2, residual_tol=1e-2)


def test_spectral_norm():
    assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    assert spectral_norm(np.zeros((0, 3))) == 0.0
    assert spectral_norm(np.zeros((2, 2))) == 0.0


def test_herm_eig_sorted_ascending():
    eig = herm_eig(np.diag([5.0, -2.0, 1.0]))
    assert np.allclose(eig.eigenvalues, [-2.0, 1.0, 5.0])
    V = eig.eigenvectors
    assert np.allclose(V.conj().T @ V, np.eye(3), atol=1e-12)


def test_herm_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("diag,expected", [
    ([4.0, -9.0, 0.0], (1, 1, 1)),
    ([1.0, 1.0], (2, 0, 0)),
    ([0.0, 0.0], (0, 0, 2)),
    ([-2.0], (0, 1, 0)),
])
def test_inertia_diagonal(diag, expected):
    assert inertia(np.diag(diag)) == expected


def test_inertia_offdiagonal():
    # eigenvalues +1 and -1
    assert inertia(np.array([[0.0, 1.0], [1.0, 0.0]])) == (1, 1, 0)


def test_inertia_relative_band():
    # 1e-6 is far above rank_tol * norm, must count as nonzero
    assert inertia(np.diag([1.0, 1e-6])) == (2, 0, 0)
    # but 1e-12 relative to norm 1 sits inside the zero band
    assert inertia(np.diag([1.0, 1e-12])) == (1, 0, 1)


@settings(derandomize=True, max_examples=40)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6))
def test_inertia_negation_swaps(diag):
    M = np.diag(np.array(diag))
    p, m, z = inertia(M)
    assert inertia(-M) == (m, p, z)
    assert p + m + z == len(diag)


@pytest.mark.parametrize("diag,scale,expected", [
    ([4.0, -9.0, 0.0], None, (1, 1, 1)),
    ([1.0, 1e-10], None, (1, 0, 1)),            # exactly at the band: zero
    ([2.0, -2e-10, 3e-10], None, (2, 0, 1)),    # at -band zero, above it plus
    ([1.0, 1e-9], None, (2, 0, 0)),
    ([1.0, 1e-9], 100.0, (1, 0, 1)),            # scale widens the band
    ([1.0, 1e-9], 0.5, (2, 0, 0)),              # a smaller scale does not narrow it
    ([], None, (0, 0, 0)),
])
def test_spectral_split_bands(diag, scale, expected):
    M = np.diag(np.array(diag, dtype=float))
    split = spectral_split(M, scale=scale)
    w = split.eigenvalues
    own = float(np.max(np.abs(w))) if w.size else 0.0
    assert split.band == Tolerance().rank_tol * max(own, scale or 0.0)
    # the three masks partition the spectrum
    masks = np.stack([split.plus, split.minus, split.zero])
    assert masks.dtype == bool and (masks.sum(axis=0) == 1).all()
    assert (w[split.plus] > split.band).all() and (w[split.minus] < -split.band).all()
    assert split.counts == expected == inertia(M, scale=scale)
    assert split.counts == tuple(int(m.sum()) for m in masks)


@pytest.mark.parametrize("M,expected", [
    (np.zeros((3, 0)), 0),
    (np.zeros((0, 3)), 0),
    (np.zeros((0, 0)), 0),
    (np.zeros((2, 2)), 0),
    (np.eye(3), 3),
    (np.diag([1.0, 1e-6]), 2),
    (np.diag([1.0, 1e-10]), 1),                 # at the cut: dropped
    (np.ones((4, 3)), 1),
])
def test_rank(M, expected):
    assert rank(M) == expected
    assert null_basis(M).shape[1] == M.shape[1] - expected


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 7), st.integers(0, 7),
       st.integers(0, 7))
def test_rank_and_null_basis_share_the_cut(seed, m, n, r):
    # tall, wide and empty shapes; rank-deficient whenever r < min(m, n)
    rng = np.random.default_rng(seed)
    r = min(r, m, n)
    A = random_complex(rng, m, r) @ random_complex(rng, r, n)
    assert rank(A) == A.shape[1] - null_basis(A).shape[1]


def test_conditioned_svd_rejects_singular():
    with pytest.raises(NotInvertible):
        conditioned_svd(np.diag([1.0, 0.0]), Tolerance(), 1e8)


def test_conditioned_svd_rejects_ill_conditioned():
    with pytest.raises(IllConditioned):
        conditioned_svd(np.diag([1.0, 1e-9]), Tolerance(), 1e8)


def test_conditioned_svd_passes_identity():
    s = conditioned_svd(np.eye(3), Tolerance(), 1e8)
    assert np.array_equal(s, np.ones(3))


def test_psd_sqrt_oracle():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    R = psd_sqrt(M)
    expected = np.array([[SQRT3P1_HALF, SQRT3M1_HALF],
                         [SQRT3M1_HALF, SQRT3P1_HALF]])
    assert np.allclose(R, expected, atol=1e-12)
    assert np.allclose(R @ R, M, atol=1e-12)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_scale_hint():
    # a defect that cancelled to round-off: zero up to -1e-15
    M = np.diag([-1e-15])
    with pytest.raises(NotPSD):
        psd_sqrt(M)
    assert np.allclose(psd_sqrt(M, scale=1.0), [[0.0]])


def test_null_basis():
    N = null_basis(np.diag([1.0, 0.0]))
    assert N.shape == (2, 1)
    assert abs(N[1, 0]) == pytest.approx(1.0)
    assert np.allclose(np.diag([1.0, 0.0]) @ N, 0.0, atol=1e-12)


def test_null_basis_empty_shapes():
    assert null_basis(np.zeros((0, 3))).shape == (3, 3)
    assert null_basis(np.zeros((3, 0))).shape == (0, 0)
    assert null_basis(np.zeros((2, 2))).shape == (2, 2)
    assert null_basis(np.eye(4)).shape == (4, 0)


def test_pinv_oracle():
    P = pinv(np.diag([2.0, 0.0]))
    assert np.allclose(P, np.diag([0.5, 0.0]), atol=1e-12)


def test_pinv_moore_penrose():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    P = pinv(A)
    assert np.allclose(A @ P @ A, A, atol=1e-10)
    assert np.allclose(P @ A @ P, P, atol=1e-10)
    assert np.allclose((A @ P).conj().T, A @ P, atol=1e-10)
    assert np.allclose((P @ A).conj().T, P @ A, atol=1e-10)


def test_svd_reconstructs():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    U, s, V = svd(A)
    assert np.allclose(U @ np.diag(s) @ V.conj().T, A, atol=1e-10)
    assert np.all(np.diff(s) <= 0)


def exact_within(R, t, S=None, floor=0.0, power=1):
    """The comparison norm_within stands for, written out with 2-norms."""
    scale = 1.0 if S is None else max(floor, spectral_norm(S))
    bound = t
    for _ in range(power):
        bound *= scale
    return spectral_norm(R) <= bound


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


@pytest.fixture
def exact_calls(monkeypatch):
    """Count the SVD-based norms norm_within falls back to."""
    calls = []

    def counting(M):
        calls.append(np.shape(M))
        return spectral_norm(M)

    monkeypatch.setattr(densela, "spectral_norm", counting)
    return calls


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 6), st.floats(-2.0, 2.0), st.sampled_from([0.0, 1.0]),
       st.sampled_from([1, 2]), st.floats(-10.0, 0.0))
def test_norm_within_matches_exact(seed, m, n, k, log_ratio, floor, power, log_scale):
    # R sized so its 2-norm sits within two decades of the threshold
    rng = np.random.default_rng(seed)
    t = 1e-8
    S = random_complex(rng, k, k) * 10.0 ** log_scale
    R = random_complex(rng, m, n)
    bound = t * max(floor, spectral_norm(S)) ** power
    R *= 10.0 ** log_ratio * bound / spectral_norm(R)
    assert norm_within(R, t, S, floor, power) == exact_within(R, t, S, floor, power)
    assert norm_within(R, t) == exact_within(R, t)


@pytest.mark.parametrize("rel", [-1e-13, 1e-13])
def test_norm_within_at_threshold(rel):
    rng = np.random.default_rng(5)
    t = 1e-8
    S = random_complex(rng, 4, 4)
    R = random_complex(rng, 4, 3)
    R *= t * spectral_norm(S) * (1.0 + rel) / spectral_norm(R)
    assert norm_within(R, t, S) == exact_within(R, t, S)
    assert norm_within(R, t, S) == (rel < 0)


@pytest.mark.parametrize("rel", [-1e-13, 1e-13])
def test_norm_within_tight_rank_one(rel, exact_calls):
    # rank-1 R has ||R||_F = ||R||_2 and S = I has ||S||_F / sqrt(n) = ||S||_2:
    # both bounds are attained, so only the slack keeps the cheap verdict
    # away from the threshold and the exact norms must decide
    n, t = 5, 1e-8
    u = np.arange(1.0, n + 1.0)
    R = np.outer(u, u[::-1] + 1j)
    R *= t * (1.0 + rel) / spectral_norm(R)
    S = np.eye(n)
    assert norm_within(R, t, S) == exact_within(R, t, S) == (rel < 0)
    assert exact_calls


def test_norm_within_clear_cases_skip_the_svd(exact_calls):
    rng = np.random.default_rng(3)
    S = random_complex(rng, 6, 6)
    R = random_complex(rng, 6, 6)
    assert norm_within(1e-12 * R, 1e-8, S)
    assert not norm_within(R, 1e-8, S)
    assert norm_within(1e-12 * R, 1e-8, (S, S), floor=1.0)
    assert not norm_within(R, 1e-8, S, floor=1.0, power=2)
    assert exact_calls == []


def test_norm_within_empty_operands():
    empty_r, empty_c = np.zeros((0, 3)), np.zeros((3, 0))
    assert norm_within(empty_r, 1e-8)
    assert norm_within(empty_r, 1e-8, empty_c)
    assert norm_within(np.zeros((2, 2)), 1e-8, empty_c)
    # a nonzero R against an empty scale: threshold 0, unless floored
    assert not norm_within(np.eye(2), 1e-8, empty_c)
    assert norm_within(1e-9 * np.eye(2), 1e-8, empty_c, floor=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_norm_within_non_finite_raises(bad):
    M = np.eye(3, dtype=complex)
    M[1, 2] = bad
    with pytest.raises(InputError):
        norm_within(M, 1e-8, np.eye(3))
    with pytest.raises(InputError):
        norm_within(np.eye(3), 1e-8, M)


def test_norm_within_frobenius_overflow_takes_exact_path(exact_calls):
    # entries near 1e200 are finite, but their squares overflow the
    # Frobenius sum; the exact 2-norms must decide
    big = np.full((3, 3), 1e200, dtype=complex)
    assert not norm_within(big, 1e-8, np.eye(3))
    assert exact_calls
    exact_calls.clear()
    assert norm_within(np.eye(3), 1e-8, big)
    assert exact_calls
    assert norm_within(1e-9 * big, 1e-8, big) == exact_within(1e-9 * big, 1e-8, big)


def test_norm_within_frobenius_underflow_takes_exact_path(exact_calls):
    # squares of 1e-170 underflow to zero; a Frobenius norm of 0 must not
    # pass R against a scale that is tiny as well
    tiny = np.full((2, 2), 1e-170, dtype=complex)
    S = 1e-165 * np.eye(2)
    assert not norm_within(tiny, 1e-8, S)
    assert exact_calls


# Multiples of the rank cut at which a singular value is planted: clear of
# it (0.5, 2) and near it (1 +- 1e-9, 1 +- 4e-3); at the default cut of
# 1e-10 the near ones lie inside the slack of 1e-12 of the largest value,
# where the spectrum with vectors must decide.
CUT_FACTORS = [0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0, 1.0 - 4e-3, 1.0 + 4e-3]


def planted(rng, m, n, tail):
    """An m x n matrix whose singular values are 1, ``tail`` and values
    spread over [0.1, 1] in between, with Haar singular vectors."""
    k = min(m, n)
    s = np.sort(np.concatenate([[1.0], rng.uniform(0.1, 1.0, max(k - 2, 0)),
                                [tail] if k > 1 else []]))[::-1]
    U = np.linalg.qr(random_complex(rng, m, k))[0]
    V = np.linalg.qr(random_complex(rng, n, k))[0]
    return (U * s) @ V.conj().T


def outcome(f, *args):
    """``f``'s return value, or its error class and message."""
    try:
        return f(*args)
    except (NotInvertible, IllConditioned) as exc:
        return type(exc), str(exc)


def conditioned_with_vectors(M, tol, cap):
    """conditioned_svd's checks, on the thin SVD with vectors."""
    s = svd(M)[1]
    if densela.count_above_cut(s, tol) < s.size:
        raise NotInvertible("matrix is numerically singular")
    if s.size and s[0] / s[-1] > cap:
        raise IllConditioned(f"condition number {s[0] / s[-1]:.3e} exceeds cap {cap:.0e}")
    return s


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9), st.integers(2, 9),
       st.sampled_from(CUT_FACTORS), st.sampled_from([1e-10, 1e-6, 1e-3]))
def test_rank_decides_as_the_svd_with_vectors(seed, m, n, factor, rank_tol):
    tol = Tolerance(rank_tol=rank_tol)
    M = planted(np.random.default_rng(seed), m, n, factor * rank_tol)
    assert rank(M, tol) == densela.count_above_cut(svd(M)[1], tol)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9),
       st.sampled_from([("cut", f) for f in CUT_FACTORS]
                       + [("cap", f) for f in (0.5, 1.0 - 1e-13, 1.0 + 1e-13, 2.0)]),
       st.sampled_from([1e-10, 1e-3]))
def test_conditioned_svd_decides_as_the_svd_with_vectors(seed, n, plant, rank_tol):
    # the smallest singular value sits at a multiple of the rank cut, or
    # where s[0] / s[-1] is that multiple of the cap
    where, factor = plant
    tol, cap = Tolerance(rank_tol=rank_tol), 1e8
    tail = factor * tol.rank_tol if where == "cut" else 1.0 / (factor * cap)
    M = planted(np.random.default_rng(seed), n, n, tail)
    got = outcome(conditioned_svd, M, tol, cap)
    want = outcome(conditioned_with_vectors, M, tol, cap)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_values_only_spectra_defer_inside_the_slack(monkeypatch):
    # a value inside the slack of the cut, or a condition number inside the
    # slack of the cap, sends each check to the thin SVD with vectors
    calls = []
    svd_ = np.linalg.svd

    def counted(A, full_matrices=True, compute_uv=True, **kw):
        calls.append(compute_uv)
        return svd_(A, full_matrices=full_matrices, compute_uv=compute_uv, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    # (a cut of 1e-3 keeps a value near it clear of the cap of 1e8)
    loose = Tolerance(rank_tol=1e-3)
    near_cut = np.diag([1.0, 0.5, 1e-3 * (1.0 + 1e-13)])
    near_cap = np.diag([1.0, 1e-8 * (1.0 - 1e-13)])
    clear = np.diag([1.0, 2e-3, 0.5e-3])
    for check, M, fallback in ((rank, near_cut, True), (rank, clear, False)):
        calls.clear()
        check(M, loose)
        assert calls == ([False, True] if fallback else [False])
    # a failure is worded from the values with vectors, however clear
    for M, cap, fallback in ((near_cut, 1e8, True), (near_cap, 1e8, True),
                             (clear[:2, :2], 1e3, False), (clear[:2, :2], 1e2, True),
                             (clear, 1e8, True)):
        calls.clear()
        outcome(conditioned_svd, M, loose, cap)
        assert calls == ([False, True] if fallback else [False])
