import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kreinalg.densela as densela
from kreinalg.densela import (Tolerance, conditioned_svd, herm_eig, inertia,
                              norm_within, null_basis, pinv, psd_sqrt, rank,
                              spectral_norm, spectral_split, svd)
from kreinalg.errors import (IllConditioned, InputError, NotHermitian,
                             NotInvertible, NotPSD, NumericalError)
from kreinalg.hermdex import hermitian_indices
from kreinalg.krein import KOperator, hilbert_space, is_selfadjoint
from passes import kinds, record

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


@pytest.mark.parametrize("seed", range(6))
def test_hermitian_part_is_the_halved_sum(seed):
    # magnitudes from subnormal to 1e300, and signed zeros: the part has the
    # bits of (A + A^H) * 0.5 wherever that sum is finite
    rng = np.random.default_rng(seed)
    n = 1 + seed
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A *= 10.0 ** rng.choice([-318, -312, -200, 0, 200, 299], (n, n))
    A[rng.random((n, n)) < 0.2] = rng.choice([0.0, -0.0, complex(-0.0, -0.0)])
    expected = (A + A.conj().T) * 0.5
    assert np.array_equal(densela._hermitian_part(A).view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(densela._hermitian_part(np.diag([1, -1])), np.diag([1, -1]))


_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 3e-310, 1.0, -1.0, 0.5, -2.5,
                          1e300, 2.0 ** 1023, -1.7e308, 1.7976931348623157e308]) | st.floats(
    allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.builds(complex, _PARTS, _PARTS), min_size=n * n, max_size=n * n)))
# the first pass halves first and leaves a part of one ulp, which the
# second pass, halving first again, rounds to zero
@example([1.0, 1e-323 + 1j, 3j, 1.7e308])
def test_hermitian_input_is_the_part_taken_twice(entries):
    # the bits LAPACK saw behind _require_hermitian's check: signed zeros,
    # subnormals and parts near the largest double included
    n = int(round(len(entries) ** 0.5))
    A = np.array(entries, dtype=complex).reshape(n, n)
    twice = densela._hermitian_part(densela._hermitian_part(A))
    assert np.array_equal(densela._hermitian_input(A).view(np.uint64), twice.view(np.uint64))
    assert np.array_equal(densela._hermitian_input(A.T).view(np.uint64),
                          densela._hermitian_part(densela._hermitian_part(A.T)).view(np.uint64))


def test_hermitian_part_near_the_largest_double():
    # the sum overflows, the part is formed from the halves
    big = 1.7e308
    A = np.array([[big, big + 1j * big], [-big, -big]])
    H = densela._hermitian_part(A)
    assert np.isfinite(H).all()
    assert np.array_equal(H, H.conj().T)
    assert np.array_equal(H, np.array([[big, 0.5j * big], [-0.5j * big, -big]]))


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


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (1, 1), (0, 3), (3, 0), (0, 0)])
def test_pinv_of_zero_and_empty_matrices_is_zeros(shape):
    # rank 0: the product over no singular value has the bits of +0 zeros
    P = pinv(np.zeros(shape))
    want = np.zeros(shape[::-1], dtype=complex)
    assert P.shape == want.shape and P.dtype == complex
    assert P.tobytes() == want.tobytes()


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


def outcome(f, *args, errors=(NotInvertible, IllConditioned)):
    """``f``'s return value, or its error class and message."""
    try:
        return f(*args)
    except errors as exc:
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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9), st.sampled_from(CUT_FACTORS),
       st.sampled_from([1e-10, 1e-6, 1e-3]), st.sampled_from([None, 4.0]),
       st.sampled_from([None] * 4 + ["asymmetric", "nan"]))
def test_inertia_decides_as_the_split_with_vectors(seed, n, factor, rank_tol, scale,
                                                   defect):
    # a Hermitian matrix with largest |eigenvalue| 1 and one eigenvalue of
    # either sign at ``factor`` times the zero band; ``scale`` None bands it
    # by 1, 4.0 by a scale above that top; a defect makes both checks refuse
    rng = np.random.default_rng(seed)
    tol = Tolerance(rank_tol=rank_tol)
    signs = rng.choice([-1.0, 1.0], n)
    lam = signs * np.concatenate([[1.0], rng.uniform(0.1, 1.0, n - 2),
                                  [factor * rank_tol * max(1.0, scale or 0.0)]])
    U = np.linalg.qr(random_complex(rng, n, n))[0]
    M = (U * lam) @ U.conj().T
    if defect == "asymmetric":
        M[0, 1] += 1e-3
    if defect == "nan":
        M[1, 0] = np.nan
    errors = (InputError, NotHermitian)
    assert (outcome(inertia, M, tol, scale, errors=errors)
            == outcome(lambda: spectral_split(M, tol, scale).counts, errors=errors))


def test_values_only_spectra_defer_inside_the_slack(monkeypatch):
    # a value inside the slack of the cut, or a condition number inside the
    # slack of the cap, sends each check to the thin SVD with vectors
    passes = record(monkeypatch)
    # (a cut of 1e-3 keeps a value near it clear of the cap of 1e8)
    loose = Tolerance(rank_tol=1e-3)
    near_cut = np.diag([1.0, 0.5, 1e-3 * (1.0 + 1e-13)])
    near_cap = np.diag([1.0, 1e-8 * (1.0 - 1e-13)])
    clear = np.diag([1.0, 2e-3, 0.5e-3])
    for check, M, fallback in ((rank, near_cut, True), (rank, clear, False)):
        passes.clear()
        check(M, loose)
        assert kinds(passes, "svd") == (["svdvals", "svd"] if fallback else ["svdvals"])
    # a failure is worded from the values with vectors, however clear
    for M, cap, fallback in ((near_cut, 1e8, True), (near_cap, 1e8, True),
                             (clear[:2, :2], 1e3, False), (clear[:2, :2], 1e2, True),
                             (clear, 1e8, True)):
        passes.clear()
        outcome(conditioned_svd, M, loose, cap)
        assert kinds(passes, "svd") == (["svdvals", "svd"] if fallback else ["svdvals"])
    # inertia counts from eigvalsh alone, and takes one eigh inside the slack
    for M, counts, fallback in ((near_cut, (3, 0, 0), True), (clear, (2, 0, 1), False)):
        passes.clear()
        assert inertia(M, loose) == counts
        assert kinds(passes, "eig") == (["eigvalsh", "eigh"] if fallback else ["eigvalsh"])


def test_hermitian_indices_of_a_zero_spectrum_take_one_eigvalsh(monkeypatch):
    # a zero top leaves no slack to test: every value is 0 on either pass
    passes = record(monkeypatch)
    H = hilbert_space(3)
    C = KOperator(H, H, np.zeros((3, 3), dtype=complex))
    assert tuple(hermitian_indices(C)) == (0, 0, 3)
    assert kinds(passes, "eig") == ["eigvalsh"]


def test_rank_of_a_zero_spectrum_takes_one_values_only_svd(monkeypatch):
    passes = record(monkeypatch)
    assert rank(np.zeros((3, 2))) == 0
    assert kinds(passes, "svd") == ["svdvals"]


@pytest.mark.parametrize("value, counts", [(5e-324, (1, 0, 0)), (-5e-324, (0, 1, 0))])
def test_zero_spectrum_rule_leaves_the_least_subnormal_nonzero(value, counts):
    # the top is positive, so the margin is tested, and the value clears a band of 0
    assert inertia([[value]]) == counts


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (70, 5), (5, 70),
                                   *((n, n) for n in (2, 7, 33, 70))])
def test_spectral_norm_is_numpys_two_norm_bit_for_bit(shape):
    # the matrix is complex, as spectral_norm takes every operand
    rng = np.random.default_rng(sum(shape))
    for A in (rng.standard_normal(shape) + 0j, random_complex(rng, *shape)):
        got, want = spectral_norm(A), float(np.linalg.norm(A, 2))
        assert type(got) is float and got.hex() == want.hex()


def test_hermitian_deviation_test_is_norm_within_while_the_difference_is_finite():
    rng = np.random.default_rng(8)
    for n in (1, 3, 8):
        H = random_complex(rng, n, n)
        H = H + H.conj().T
        for skew in (0.0, 1e-12, 1e-9, 1e-8, 1e-7):
            A = H + skew * random_complex(rng, n, n)
            for S, floor in ((A, 0.0), (A, 1.0), (rng.standard_normal((n, 2)), 0.0)):
                assert (densela._hermitian_within(A, 1e-8, S, floor)
                        == norm_within(A - A.conj().T, 1e-8, S, floor))


def test_hermitian_deviation_test_halves_an_overflowing_difference():
    # A - A^H overflows here; A/2 - (A/2)^H against ||A/2|| decides instead
    A = np.array([[1e308, 1e308], [-1e308, 1.0]], dtype=complex)
    assert not densela._hermitian_within(A, 1e-2, A)
    with pytest.raises(NotHermitian):
        herm_eig(A)
    # a finite difference is never halved: the verdict stays norm_within's
    B = np.array([[1e308, 1e308], [1e308, 1.0]], dtype=complex)
    assert densela._hermitian_within(B, 1e-8, B) and herm_eig(B).eigenvalues.size == 2
    with pytest.raises(InputError, match="NaN or Inf"):
        densela._hermitian_within(np.array([[np.inf, 0.0], [1.0, 0.0]]), 1e-8, np.eye(2))
    # an operator scale is halved as its matrix, never read as its cached
    # norm: ||C||_2 overflows for the first two, ||C/2||_2 for none
    H = hilbert_space(3)
    S = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
    for k in (1e308, 0.9e308, 6e307):
        assert not is_selfadjoint(KOperator(H, H, k * S))


def test_a_scale_or_spectrum_beyond_the_largest_double_raises():
    # finite entries whose 2-norm and top eigenvalue overflow: against t * inf
    # every residual passes, and a band of inf swallows every eigenvalue
    A = np.full((2, 2), 1e308, dtype=complex)
    with pytest.raises(NumericalError, match="largest double"):
        norm_within(np.zeros((2, 2)), 1e-8, A)
    with pytest.raises(NumericalError, match="largest double"):
        norm_within(np.eye(2), 1e-8, (np.eye(2), A))
    for vectors in (True, False):
        with pytest.raises(NumericalError, match="largest double"):
            densela._eigh(A, vectors)
    # a residual of inf is a verdict, not a failure
    assert not norm_within(A, 1e-8, np.eye(2))
