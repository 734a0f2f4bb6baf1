"""Seeded random instances for property testing.

All generators are pure functions of a `GenConfig`: the same config
yields bit-identical output on every call, because each draw kind owns
a private PCG64 stream spawned from the seed with a fixed key.  Raw
entries are complex Gaussians, then projected onto the required
structure (Hermitian, unitary via QR with phase fix, bounded condition
number via singular-value resampling), so distributions are rotation
invariant and never axis-aligned.

Spectra are kept away from the rank band on purpose: nonzero
eigenvalue magnitudes live in [0.1, 3] and condition numbers are
capped, which is what makes integer index comparisons in the property
suites exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densela import _hermitian_part
from .errors import DimensionMismatch, InputError
from .hermdex import Congruence
from .krein import KOperator, KreinSpace, make_space

__all__ = [
    "GenConfig",
    "gen_space",
    "gen_space_with_split",
    "gen_selfadjoint",
    "gen_invertible",
    "gen_injective_factor",
    "haar_unitary",
    "complex_gaussian",
    "j_unitary",
]

_KIND_SPACE = 1
_KIND_SELFADJOINT = 2
_KIND_INVERTIBLE = 3
_KIND_FACTOR = 4

# Nonzero eigenvalue magnitudes of generated Hermitian representatives.
_EIG_LO, _EIG_HI = 0.1, 3.0
# Condition-number cap of generated invertible maps and injective factors.
_COND_CAP = 1e3


@dataclass(frozen=True)
class GenConfig:
    """Seed and shape policy for the generators."""

    seed: int
    dim_range: tuple[int, int] = (1, 8)
    kernel_prob: float = 0.0

    def __post_init__(self):
        if not (0 <= self.seed < 2 ** 64):
            raise InputError("seed must be an unsigned 64-bit integer")
        lo, hi = self.dim_range
        if not (0 <= lo <= hi <= 64):
            raise InputError(f"dim_range must sit inside [0, 64], got {self.dim_range}")
        if not (0.0 <= self.kernel_prob <= 1.0):
            raise InputError("kernel_prob must lie in [0, 1]")


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 stream spawned from ``seed`` with spawn key ``key``."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the R-diagonal phase fix."""
    Q, R = np.linalg.qr(complex_gaussian(rng, n, n))
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d)).conj()


def j_unitary(rng: np.random.Generator, J: np.ndarray) -> np.ndarray:
    """A J-unitary matrix: U^H J U = J, the Cayley transform of a J-skew generator.

    S = J K, K skew-Hermitian, has S^H J = -J S, so U = (I - S)^-1 (I + S)
    has U^H J U = J (Gohberg, Lancaster & Rodman, *Indefinite Linear Algebra
    and Applications*, 2005).  With S scaled to ||S||_2 <= c = tanh(1), U and
    U^-1 have 2-norm at most (1 + c) / (1 - c) = e^2, so cond(U) <= e^4.
    One n x n `complex_gaussian` is drawn.
    """
    n = J.shape[0]
    if n == 0:   # np.linalg.norm(S, 2) of a 0 x 0 S is unchecked on older numpy
        return np.zeros((0, 0), dtype=complex)
    Z = complex_gaussian(rng, n, n)
    S = J @ (0.5 * (Z - Z.conj().T))
    norm, c = np.linalg.norm(S, 2), math.tanh(1.0)
    if norm > c:
        S *= c / norm
    return np.linalg.solve(np.eye(n) - S, np.eye(n) + S)


def gen_space(cfg: GenConfig) -> KreinSpace:
    """Random space: dimension from dim_range, random signature split,
    and a Haar-rotated diagonal symmetry."""
    rng = _stream(cfg.seed, _KIND_SPACE)
    return _rotated_space(rng, *_draw_split(rng, *cfg.dim_range))


def gen_space_with_split(cfg: GenConfig, ind_plus: int, ind_minus: int) -> KreinSpace:
    """Random space with the exact signature (ind_plus, ind_minus)."""
    if ind_plus < 0 or ind_minus < 0 or ind_plus + ind_minus > 64:
        raise InputError("signature split out of range")
    rng = _stream(cfg.seed, _KIND_SPACE)
    return _rotated_space(rng, ind_plus, ind_minus)


def _draw_split(rng: np.random.Generator, lo: int, hi: int) -> tuple[int, int]:
    """A signature (p, q): n uniform in [lo, hi], then p uniform in [0, n]."""
    n = int(rng.integers(lo, hi + 1))
    p = int(rng.integers(0, n + 1))
    return p, n - p


def _rotated_space(rng: np.random.Generator, p: int, q: int) -> KreinSpace:
    n = p + q
    signs = np.concatenate([np.ones(p), -np.ones(q)])
    U = haar_unitary(rng, n)
    return make_space(_hermitian_part(U.conj().T @ (signs[:, None] * U)))


def gen_selfadjoint(cfg: GenConfig, H: KreinSpace) -> KOperator:
    """Random selfadjoint operator on H with controlled spectrum.

    The Hermitian representative J C gets Haar eigenvectors and nonzero
    eigenvalues with magnitudes in [0.1, 3]; with probability
    kernel_prob a nonempty random subset of them is zeroed out, so the
    kernel dimension is exact by construction.
    """
    rng = _stream(cfg.seed, _KIND_SELFADJOINT)
    n = H.dim
    lam = rng.uniform(_EIG_LO, _EIG_HI, n)
    lam *= np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if n > 0 and rng.random() < cfg.kernel_prob:
        k = int(rng.integers(1, n + 1))
        lam[rng.choice(n, size=k, replace=False)] = 0.0
    Q = haar_unitary(rng, n)
    M = _hermitian_part((Q * lam) @ Q.conj().T)
    return KOperator(H, H, H.J @ M)


def gen_invertible(cfg: GenConfig, H: KreinSpace, K: KreinSpace) -> Congruence:
    """Random invertible map H -> K with condition number at most _COND_CAP."""
    if H.dim != K.dim:
        raise DimensionMismatch(
            f"invertible maps need equal dimensions, got {H.dim} and {K.dim}")
    rng = _stream(cfg.seed, _KIND_INVERTIBLE)
    n = H.dim
    U, _, Vh = np.linalg.svd(complex_gaussian(rng, n, n))
    root = np.sqrt(_COND_CAP)
    s = np.sort(rng.uniform(1.0 / root, root, n))[::-1]
    X = (U * s) @ Vh
    X_inv = (Vh.conj().T / s) @ U.conj().T
    return Congruence(KOperator(H, K, X), KOperator(K, H, X_inv))


def gen_injective_factor(cfg: GenConfig, A_space: KreinSpace, H: KreinSpace) -> KOperator:
    """Random full-column-rank factor from A_space into H.

    Smallest singular value stays at or above 1/_COND_CAP, so injectivity
    is numerically unambiguous.
    """
    if A_space.dim > H.dim:
        raise DimensionMismatch(
            f"factor space dimension {A_space.dim} exceeds target dimension {H.dim}")
    rng = _stream(cfg.seed, _KIND_FACTOR)
    n, r = H.dim, A_space.dim
    U, _, Vh = np.linalg.svd(complex_gaussian(rng, n, r), full_matrices=False)
    s = np.sort(rng.uniform(1.0 / _COND_CAP, 1.5, r))[::-1]
    A = (U * s) @ Vh
    return KOperator(A_space, H, A)
