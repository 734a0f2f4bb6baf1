import numpy as np
import pytest

from kreinalg.errors import DimensionMismatch, InputError
from kreinalg.genrand import (GenConfig, complex_gaussian,
                              gen_injective_factor, gen_invertible,
                              gen_selfadjoint, gen_space,
                              gen_space_with_split, haar_unitary, j_unitary,
                              _expm)
from kreinalg.hermdex import hermitian_indices
from kreinalg.krein import is_selfadjoint, space_indices


@pytest.mark.parametrize("kwargs", [
    {"seed": -1},
    {"seed": 2 ** 64},
    {"seed": 1, "dim_range": (5, 3)},
    {"seed": 1, "dim_range": (0, 65)},
    {"seed": 1, "kernel_prob": -0.5},
    {"seed": 1, "kernel_prob": 1.5},
])
def test_config_rejects(kwargs):
    with pytest.raises(InputError):
        GenConfig(**kwargs)


def test_streams_are_deterministic():
    a = gen_space(GenConfig(99, (4, 4)))
    b = gen_space(GenConfig(99, (4, 4)))
    assert np.array_equal(a.J, b.J)
    c = gen_space(GenConfig(100, (4, 4)))
    assert not np.array_equal(a.J, c.J)


def test_generators_are_stateless():
    cfg = GenConfig(5, (3, 3))
    H = gen_space(cfg)
    C1 = gen_selfadjoint(cfg, H)
    C2 = gen_selfadjoint(cfg, H)
    assert np.array_equal(C1.matrix, C2.matrix)


def test_haar_unitary():
    rng = np.random.default_rng(0)
    U = haar_unitary(rng, 5)
    assert np.allclose(U.conj().T @ U, np.eye(5), atol=1e-12)
    assert haar_unitary(rng, 0).shape == (0, 0)


def test_j_unitary_preserves_symmetry():
    rng = np.random.default_rng(1)
    J = np.diag([1.0, 1.0, -1.0]).astype(complex)
    U = j_unitary(rng, J)
    assert np.allclose(U.conj().T @ J @ U, J, atol=1e-10)
    # bounded generator keeps the conditioning in check
    s = np.linalg.svd(U, compute_uv=False)
    assert s[0] / s[-1] <= np.exp(4.0) * (1 + 1e-10)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 16, 64])
@pytest.mark.parametrize("clamp", [0.0, 1e-3, 0.1, 0.5, None, 50.0])
def test_j_unitary_matches_scipy_expm(n, clamp):
    # scipy is the reference here only; the generator's 1-norm passes 1 at
    # the default clamp for n >= 2 and at a clamp of 0.5 for n >= 16, so the
    # scaling and squaring runs with s from 1 to 6
    scipy_linalg = pytest.importorskip("scipy.linalg")
    J = gen_space_with_split(GenConfig(23), n // 2, n - n // 2).J
    kwargs = {} if clamp is None else {"clamp": clamp}
    U = j_unitary(np.random.default_rng(n), J, **kwargs)
    # the generator j_unitary draws, rebuilt from the same stream
    Z = complex_gaussian(np.random.default_rng(n), n, n)
    S = J @ (0.5 * (Z - Z.conj().T))
    norm = np.linalg.norm(S, 2) if n else 0.0
    limit = 2.0 if clamp is None else clamp
    if norm > limit:
        S *= limit / norm
    if n == 0 or clamp == 0.0:
        assert np.array_equal(U, np.eye(n))
        return
    E = scipy_linalg.expm(S)
    assert np.linalg.norm(U - E, 2) <= 1e-13 * np.linalg.norm(E, 2)
    # U^H J U rounds at the scale of ||U||^2 <= exp(2 * clamp): absolute up to
    # the default clamp, relative to ||U||^2 at a clamp of 50
    bound = 1e-12 if limit <= 2.0 else 1e-12 * np.linalg.norm(U, 2) ** 2
    assert np.linalg.norm(U.conj().T @ J @ U - J, 2) <= bound


@pytest.mark.parametrize("norm", [20.0, 40.0])
def test_expm_scales_past_the_generators_of_j_unitary(norm):
    # j_unitary's generators reach a 2-norm of about 12 at n = 64; the
    # scaling must hold past that, where the Taylor polynomial unscaled is
    # off by 0.09 at a 2-norm of 20 and by 8.5 at 40
    scipy_linalg = pytest.importorskip("scipy.linalg")
    J = gen_space_with_split(GenConfig(23), 8, 8).J
    Z = complex_gaussian(np.random.default_rng(16), 16, 16)
    S = J @ (0.5 * (Z - Z.conj().T))
    S *= norm / np.linalg.norm(S, 2)
    E = scipy_linalg.expm(S)
    assert np.linalg.norm(_expm(S) - E, 2) <= 1e-13 * np.linalg.norm(E, 2)


@pytest.mark.parametrize("t", [1 - 1e-9, 1 + 1e-9, 2 * (1 - 1e-9), 40.0])
def test_expm_is_exact_at_its_scaling_boundary(t):
    # diag(t e^{i phi_k}) has 1-norm t and an exact exponential; just under a
    # power of two the scaled matrix sits at 1-norm 1 and the polynomial's
    # remainder is largest: a lower degree, a looser scaling threshold or one
    # squaring fewer each misses 1e-14 at one of these t
    z = t * np.exp(2j * np.pi * np.arange(8) / 8)
    E = np.diag(np.exp(z))
    assert np.linalg.norm(_expm(np.diag(z)) - E, 2) <= 1e-14 * np.linalg.norm(E, 2)


def test_gen_space_properties():
    for seed in range(5):
        H = gen_space(GenConfig(seed, (1, 6)))
        assert 1 <= H.dim <= 6
        assert np.allclose(H.J, H.J.conj().T, atol=1e-12)
        assert np.allclose(H.J @ H.J, np.eye(H.dim), atol=1e-10)


def test_gen_space_with_split():
    H = gen_space_with_split(GenConfig(7), 3, 2)
    assert H.dim == 5
    assert space_indices(H) == (3, 2)
    with pytest.raises(InputError):
        gen_space_with_split(GenConfig(7), 40, 30)


def test_gen_selfadjoint_spectrum():
    cfg = GenConfig(11, (6, 6))
    H = gen_space(cfg)
    C = gen_selfadjoint(cfg, H)
    assert is_selfadjoint(C)
    w = np.linalg.eigvalsh(0.5 * (H.J @ C.matrix + (H.J @ C.matrix).conj().T))
    nz = np.abs(w) > 1e-8
    assert np.all(np.abs(w[nz]) >= 0.1 - 1e-9)
    assert np.all(np.abs(w[nz]) <= 3.0 + 1e-9)


def test_gen_selfadjoint_forced_kernel():
    for seed in range(8):
        cfg = GenConfig(seed, (4, 4), kernel_prob=1.0)
        H = gen_space(cfg)
        C = gen_selfadjoint(cfg, H)
        assert hermitian_indices(C).h_zero >= 1


def test_gen_selfadjoint_no_kernel_by_default():
    for seed in range(8):
        cfg = GenConfig(seed, (4, 4))
        H = gen_space(cfg)
        assert hermitian_indices(gen_selfadjoint(cfg, H)).h_zero == 0


def test_gen_invertible():
    cfg = GenConfig(13, (5, 5))
    H = gen_space(cfg)
    K = gen_space(GenConfig(14, (5, 5)))
    X = gen_invertible(cfg, H, K)
    assert np.allclose(X.X.matrix @ X.X_inv.matrix, np.eye(5), atol=1e-10)
    s = np.linalg.svd(X.X.matrix, compute_uv=False)
    assert s[0] / s[-1] <= 1e3 * (1 + 1e-10)
    with pytest.raises(DimensionMismatch):
        gen_invertible(cfg, H, gen_space(GenConfig(15, (4, 4))))


def test_gen_injective_factor():
    A_space = gen_space_with_split(GenConfig(21), 2, 1)
    H = gen_space(GenConfig(22, (5, 5)))
    A = gen_injective_factor(GenConfig(23), A_space, H)
    assert A.matrix.shape == (5, 3)
    s = np.linalg.svd(A.matrix, compute_uv=False)
    assert s[-1] > 1e-4                      # full column rank by construction
    with pytest.raises(DimensionMismatch):
        gen_injective_factor(GenConfig(23), gen_space_with_split(GenConfig(24), 4, 3),
                             gen_space(GenConfig(25, (5, 5))))


def test_empty_haar_unitary_takes_no_randomness():
    # a size-0 draw leaves the stream where it was, so a stream shared with
    # later draws (the phillips battery's) reads on as if it were not made
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    U = haar_unitary(rng, 0)
    assert U.shape == (0, 0) and U.dtype == complex
    assert rng.random() == twin.random()


def test_empty_spaces_get_empty_complex_maps():
    cfg = GenConfig(17)
    E = gen_space_with_split(cfg, 0, 0)
    X = gen_invertible(cfg, E, E)
    for M in (X.X.matrix, X.X_inv.matrix):
        assert M.shape == (0, 0) and M.dtype == complex
    for H, shape in ((E, (0, 0)), (gen_space(GenConfig(18, (5, 5))), (5, 0))):
        A = gen_injective_factor(cfg, E, H).matrix
        assert A.shape == shape and A.dtype == complex


def test_complex_gaussian_shape():
    rng = np.random.default_rng(2)
    Z = complex_gaussian(rng, 3, 2)
    assert Z.shape == (3, 2)
    assert Z.dtype == complex
