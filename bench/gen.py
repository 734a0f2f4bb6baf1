"""Seeded inputs for the benchmark at sizes above the ``GenConfig`` cap.

``GenConfig`` accepts dimensions up to 64, so the operators here are
built directly from the public ``genrand.haar_unitary`` and
``genrand.complex_gaussian`` draws.  Every construction returns the
integers it was built to have, which the benchmark checks the program's
answers against.
"""

from __future__ import annotations

import json

import numpy as np

from kreinalg import genrand

_EIG_LO, _EIG_HI = 0.1, 3.0


def rng_for(seed: int, *key: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def symmetry(rng: np.random.Generator, p: int, q: int) -> np.ndarray:
    """Haar-rotated J with signature (p, q)."""
    U = genrand.haar_unitary(rng, p + q)
    J = U.conj().T @ (np.concatenate([np.ones(p), -np.ones(q)])[:, None] * U)
    return 0.5 * (J + J.conj().T)


def selfadjoint(rng: np.random.Generator, J: np.ndarray,
                kernel: int) -> tuple[np.ndarray, tuple[int, int, int]]:
    """C with J C Hermitian, Haar eigenvectors and exactly ``kernel`` zero
    eigenvalues; nonzero magnitudes lie in [0.1, 3] with random signs."""
    n = J.shape[0]
    lam = rng.uniform(_EIG_LO, _EIG_HI, n)
    lam *= np.where(rng.random(n) < 0.5, 1.0, -1.0)
    lam[rng.choice(n, size=kernel, replace=False)] = 0.0
    Q = genrand.haar_unitary(rng, n)
    M = (Q * lam) @ Q.conj().T
    M = 0.5 * (M + M.conj().T)
    triple = (int(np.count_nonzero(lam > 0)), int(np.count_nonzero(lam < 0)),
              kernel)
    return J @ M, triple


def invertible(rng: np.random.Generator, n: int, cond: float) -> np.ndarray:
    """X with singular values spread over [1/sqrt(cond), sqrt(cond)]."""
    U, _, Vh = np.linalg.svd(genrand.complex_gaussian(rng, n, n))
    root = np.sqrt(cond)
    s = np.sort(rng.uniform(1.0 / root, root, n))[::-1]
    return (U * s) @ Vh


def problem(rng: np.random.Generator, n: int):
    """(J, C, triple): half/half signature, kernel of dimension n // 5."""
    J = symmetry(rng, n // 2, n - n // 2)
    C, triple = selfadjoint(rng, J, n // 5)
    return J, C, triple


def transported(rng: np.random.Generator, J_a: np.ndarray, A: np.ndarray,
                cond: float = 1e2):
    """(J_b, B) with B = X* A X for a fresh space J_b and a random X."""
    n = J_a.shape[0]
    J_b = symmetry(rng, n - n // 2, n // 2)
    X = invertible(rng, n, cond)
    return J_b, J_b @ X.conj().T @ J_a @ A @ X


def semidefinite_pair(rng: np.random.Generator, n: int):
    """An orthogonal pair of semidefinite subspaces, as in the phillips battery.

    Returns (J, plus columns, minus columns, (p, q), (m_plus, m_minus)):
    the columns span part of the graphs of a strict contraction G0 and of
    its adjoint over the eigenframes of a J with signature (p, q), so the
    maximal extension has dimensions (p, q) and the graph domains have
    dimensions (m_plus, m_minus).
    """
    p = n // 2
    q = n - p
    J = symmetry(rng, p, q)
    w, V = np.linalg.eigh(J)
    U_plus, U_minus = V[:, w > 0], V[:, w < 0]
    U, _, Vh = np.linalg.svd(genrand.complex_gaussian(rng, q, p), full_matrices=False)
    G0 = (U * rng.uniform(0.0, 0.95, min(p, q))) @ Vh
    mp, mm = p // 2, q // 2
    Kp = genrand.haar_unitary(rng, p)[:, :mp]
    Km = genrand.haar_unitary(rng, q)[:, :mm]
    plus = (U_plus + U_minus @ G0) @ Kp
    minus = (U_plus @ G0.conj().T + U_minus) @ Km
    return J, plus, minus, (p, q), (mp, mm)


def matrix_obj(M: np.ndarray) -> dict:
    pairs = np.stack([M.real, M.imag], axis=-1).reshape(-1, 2)
    return {"rows": M.shape[0], "cols": M.shape[1], "data": pairs.tolist()}


def write_problem(path: str, J: np.ndarray, C: np.ndarray) -> None:
    """Write a problem file with operator C on the space with symmetry J."""
    text = json.dumps({"operator": matrix_obj(C), "space": {"J": matrix_obj(J)}})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
