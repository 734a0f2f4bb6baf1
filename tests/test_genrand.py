import numpy as np
import pytest

from kreinalg.errors import DimensionMismatch, InputError
from kreinalg.genrand import (GenConfig, complex_gaussian,
                              gen_injective_factor, gen_invertible,
                              gen_selfadjoint, gen_space,
                              gen_space_with_split, haar_unitary, j_unitary)
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
def test_j_unitary_is_a_bounded_j_unitary_from_one_draw(n):
    # the Cayley transform of a J-skew S with ||S||_2 <= tanh(1): U^H J U = J
    # up to rounding at the scale of ||U||_2^2, and cond(U) <= e^4; the
    # stream reads on like a twin advanced by one n x n Gaussian draw, since
    # the keyth battery draws R from the stream after W
    J = gen_space_with_split(GenConfig(23), n // 2, n - n // 2).J
    for seed in range(20):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        U = j_unitary(rng, J)
        complex_gaussian(twin, n, n)
        assert rng.random() == twin.random()
        assert U.shape == (n, n) and U.dtype == complex
        if n == 0:
            continue
        s = np.linalg.svd(U, compute_uv=False)
        assert np.linalg.norm(U.conj().T @ J @ U - J, 2) <= 1e-13 * s[0] ** 2
        assert s[0] / s[-1] <= np.exp(4.0) * (1 + 1e-10)


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
