"""Property batteries shared by the CLI suite command and the test suite.

Each battery runs `count` seeded cases and returns a JSON-safe dict with
a failure count and worst-case numbers.  Case seeds are derived from the
master seed through SeedSequence spawn keys (battery id, case index), so
reports are bit-for-bit reproducible at a fixed seed.
"""

from __future__ import annotations

import inspect
import os

import numpy as np

from .bkfact import BKFactorization, bk_factorize, bk_verify, keyth_verify
from .decomp import decompose, projections, validate
from .densela import (Tolerance, _hermitian_part, norm_within, psd_sqrt, rank,
                      spectral_norm, spectral_split)
from .errors import InputError, KreinError
from .genrand import (_EIG_HI, _EIG_LO, GenConfig, _draw_split, _stream,
                      complex_gaussian, gen_injective_factor, gen_invertible,
                      gen_selfadjoint, gen_space, gen_space_with_split,
                      haar_unitary, j_unitary)
from .hermdex import _frame, build_congruence, hermitian_indices, \
    is_congruent, transport
from .krein import (KOperator, c_orthogonal, hilbert_space, identity_op,
                    k_adjoint, make_space, make_subspace, space_indices)
from .phillips import canonical_frames, graph_rep, phillips_extend, represented

__all__ = [
    "congruence_invariance_battery",
    "sylvester_battery",
    "decomposition_battery",
    "bk_roundtrip_battery",
    "bk_converse_battery",
    "keyth_battery",
    "phillips_battery",
    "identities_battery",
    "run_property_suite",
    "DEFAULT_COUNTS",
]

_NEG_SEARCH_TOL = 1e-6          # residual floor for the non-congruence search
_NEG_RESTARTS = 20
_REFACTORIZATIONS = 50          # J-unitary twists of bk_converse's fixed operator


def _seeds(master: int, battery: int, case: int, k: int) -> list[int]:
    seq = np.random.SeedSequence(entropy=master, spawn_key=(battery, case))
    return [int(x) for x in seq.generate_state(k, np.uint64)]


def _tally(name: str, count: int, case, worst: tuple[str, ...] = ()) -> dict:
    """Run ``case(i)`` for each ``i < count`` and build the battery's report.

    Each case returns ``(ok, values)``, one value per name in ``worst``.
    The report's keys are ``name``, ``cases`` (= ``count``), ``failures``
    (the cases not ok), each name in ``worst`` (the largest of its values
    as a float, 0.0 when no case ran) and ``passed`` (no failures).
    """
    failures = 0
    top = [0.0] * len(worst)
    for i in range(count):
        ok, values = case(i)
        failures += not ok
        top = [max(t, v) for t, v in zip(top, values)]
    return {"name": name, "cases": count, "failures": failures,
            **{w: float(t) for w, t in zip(worst, top)}, "passed": failures == 0}


def congruence_invariance_battery(seed: int, count: int = 1000, dim_max: int = 8,
                                  tol: Tolerance = Tolerance()) -> dict:
    """Index triples are congruence invariants, checked as exact integers."""
    def case(i):
        s1, s2, s3, s4 = _seeds(seed, 1, i, 4)
        K = gen_space(GenConfig(s1, (1, dim_max)))
        C = gen_selfadjoint(GenConfig(s2, kernel_prob=0.3), K)
        H = gen_space(GenConfig(s3, (K.dim, K.dim)))
        X = gen_invertible(GenConfig(s4), H, K)
        return hermitian_indices(transport(C, X, tol), tol) == hermitian_indices(C, tol), ()
    return _tally("congruence_invariance", count, case)


def sylvester_battery(seed: int, count: int = 500, dim_max: int = 8,
                      tol: Tolerance = Tolerance()) -> dict:
    """Classifier verdict against the constructive oracle, both directions."""
    margins = []

    def case(i):
        s1, s2, s3, s4, s5, s6 = _seeds(seed, 2, i, 6)
        Ha = gen_space(GenConfig(s1, (1, dim_max)))
        n = Ha.dim
        mode = i % 3
        if mode == 0:
            A = gen_selfadjoint(GenConfig(s2, kernel_prob=0.3), Ha)
            B, Kb = A, Ha
        else:
            Kb = gen_space(GenConfig(s3, (n, n)))
            B = gen_selfadjoint(GenConfig(s4, kernel_prob=0.3), Kb)
            if mode == 1:
                X = gen_invertible(GenConfig(s5), Ha, Kb)
                A = transport(B, X, tol)
            else:
                A = gen_selfadjoint(GenConfig(s2, kernel_prob=0.3), Ha)
        scale = max(A.norm, B.norm, 1e-300)
        # either branch eigendecomposes A and B; taken first, those spectra
        # give the verdict its counts, and no values-only pass is made
        frames = _frame(A, tol), _frame(B, tol)
        if is_congruent(A, B, tol):
            X2 = build_congruence(A, B, tol)
            resid = spectral_norm(A.matrix - transport(B, X2, tol).matrix) / scale
            return not resid > tol.residual_tol, (resid,)
        best = _best_alignment_residual(A, B, s6, frames)
        margins.append(best / scale)
        return not best <= _NEG_SEARCH_TOL * scale, (0.0,)
    report = _tally("sylvester_classification", count, case, ("worst_congruent_residual",))
    report["best_noncongruent_residual"] = float(min(margins)) if margins else None
    return report


def _best_alignment_residual(A, B, sub_seed: int, frames) -> float:
    """Smallest ||A - X* B X|| over random X and X aligned by A's and B's ``frames``."""
    Ha, Kb = A.domain, B.domain
    n = Ha.dim
    Xa, Xb_inv = frames[0][1], frames[1][2]
    rng = _stream(sub_seed)
    best = float("inf")
    for k in range(_NEG_RESTARTS):
        if k % 2 == 0:
            X = gen_invertible(GenConfig(_seeds(sub_seed, 99, k, 1)[0]), Ha, Kb).X.matrix
        else:
            X = Xb_inv @ haar_unitary(rng, n) @ Xa
        cand = k_adjoint(KOperator(Ha, Kb, X)).matrix @ B.matrix @ X
        best = min(best, spectral_norm(A.matrix - cand))
    return best


def decomposition_battery(seed: int, count: int = 1000, dim_max: int = 8,
                          tol: Tolerance = Tolerance()) -> dict:
    """decompose + validate + projection algebra on random operators."""
    def case(i):
        s1, s2 = _seeds(seed, 3, i, 2)
        H = gen_space(GenConfig(s1, (1, dim_max)))
        C = gen_selfadjoint(GenConfig(s2, kernel_prob=0.3), H)
        dec = decompose(C, tol)
        report = validate(C, dec, tol)
        P = projections(C, dec, tol)
        eye = np.eye(H.dim)
        resid = 0.0
        total = np.zeros((H.dim, H.dim), dtype=complex)
        for Q in (P.Q_plus, P.Q_minus, P.Q_zero):
            scaleq = max(1.0, Q.norm ** 2)
            resid = max(resid, spectral_norm(Q.matrix @ Q.matrix - Q.matrix) / scaleq)
            total += Q.matrix
        resid = max(resid, spectral_norm(total - eye))
        return report["passed"] and not resid > tol.residual_tol, (resid,)
    return _tally("decomposition", count, case, ("worst_projection_residual",))


def bk_roundtrip_battery(seed: int, count: int = 1000, dim_max: int = 8,
                         tol: Tolerance = Tolerance()) -> dict:
    """Factor then verify; a fifth of the cases must carry a kernel."""
    kernels = []

    def case(i):
        s1, s2 = _seeds(seed, 4, i, 2)
        H = gen_space(GenConfig(s1, (1, dim_max)))
        # two of every five cases force a kernel so the coverage quota
        # below holds at any count, not just in expectation
        kp = 1.0 if i % 5 < 2 else 0.15
        C = gen_selfadjoint(GenConfig(s2, kernel_prob=kp), H)
        report = bk_verify(C, bk_factorize(C, tol), tol)
        kernels.append(report["operator_indices"][2] > 0)
        return report["passed"], (report["product_residual"],)
    report = _tally("bk_roundtrip", count, case, ("worst_product_residual",))
    kernel_cases, need_kernel = sum(kernels), count // 5
    return {**report, "kernel_cases": kernel_cases, "kernel_cases_required": need_kernel,
            "passed": report["passed"] and kernel_cases >= need_kernel}


def bk_converse_battery(seed: int, count: int = 1000, dim_max: int = 8,
                        tol: Tolerance = Tolerance()) -> dict:
    """C := A A* forces the factor-space signature; all splits, plus
    invariance under J-unitary refactorizations of one fixed operator."""
    combos = [(n, p, q)
              for n in range(1, dim_max + 1)
              for p in range(0, n + 1)
              for q in range(0, n - p + 1)]

    def case(i):
        n, p, q = combos[i % len(combos)]
        _, C = _forced_product(seed, i, p, q, n)
        return tuple(hermitian_indices(C, tol)) == (p, q, n - p - q), ()
    report = _tally("bk_converse", count, case)

    refactor_failures = 0
    if count > 0:
        A, C = _forced_product(seed, count + 1, 2, 2, 6)
        A_space, H = A.domain, A.codomain
        for k in range(_REFACTORIZATIONS):
            U = j_unitary(_stream(seed, 5, 10 ** 6 + k), A_space.J)
            Fk = BKFactorization(KOperator(A_space, H, A.matrix @ U))
            refactor_failures += not bk_verify(C, Fk, tol)["passed"]
    return {**report, "refactorizations": _REFACTORIZATIONS,
            "refactorization_failures": refactor_failures,
            "passed": report["passed"] and refactor_failures == 0}


def _forced_product(seed: int, case: int, p: int, q: int, n: int):
    """Case `case`'s injective A from signature (p, q) into dim n, and C = A A*."""
    s1, s2, s3 = _seeds(seed, 5, case, 3)
    A_space = gen_space_with_split(GenConfig(s1), p, q)
    H = gen_space(GenConfig(s2, (n, n)))
    A = gen_injective_factor(GenConfig(s3), A_space, H)
    return A, KOperator(H, H, A.matrix @ k_adjoint(A).matrix)


def keyth_battery(seed: int, count: int = 300, dim_max: int = 8,
                  tol: Tolerance = Tolerance()) -> dict:
    """Signature factorizations: index identity plus the graph pipeline.

    Each case builds C = T^H J_A T on a Hilbert space with invertible T,
    runs the verifier, then walks the proof machinery: images of the
    spectral parts of C are semidefinite in (K, J_A), their graph
    domains obey the dimension bounds, the pair is orthogonal, and the
    defect operators of the extension have full rank on the graph
    domains.
    """
    def case(i):
        rng = _stream(seed, 6, i)
        p, q = _draw_split(rng, 1, dim_max)
        n = p + q
        signs = np.concatenate([np.ones(p), -np.ones(q)])
        lam = rng.uniform(_EIG_LO, _EIG_HI, n) * signs
        Q = haar_unitary(rng, n)
        C_mat = _hermitian_part((Q * lam) @ Q.conj().T)
        T0 = np.sqrt(np.abs(lam))[:, None] * Q.conj().T
        S_diag = np.diag(signs.astype(complex))
        W = j_unitary(rng, S_diag)
        R = haar_unitary(rng, n)
        J_A = _hermitian_part(R @ S_diag @ R.conj().T)
        T_mat = R @ W @ T0

        E = hilbert_space(n)
        C = KOperator(E, E, C_mat)
        A_kre = make_space(J_A, tol)
        F = BKFactorization(KOperator(A_kre, E, T_mat.conj().T))
        ok = keyth_verify(C, F, tol)["passed"]

        pA, qA = space_indices(A_kre)
        dec = decompose(C, tol)
        Sp = make_subspace(A_kre, T_mat @ dec.M_plus.basis, tol)
        Sm = make_subspace(A_kre, T_mat @ dec.M_minus.basis, tol)
        gp = graph_rep(Sp, "plus", tol)
        gm = graph_rep(Sm, "minus", tol)
        ok = ok and gp.M.dim <= pA and gm.M.dim <= qA
        ext = phillips_extend(gp, gm, tol)
        G = ext.G
        dens_p = rank(gp.M.basis - G.conj().T @ (G @ gp.M.basis), tol)
        dens_m = rank(gm.M.basis - G @ (G.conj().T @ gm.M.basis), tol)
        return ok and dens_p == pA and dens_m == qA, ()
    return _tally("keyth_pipeline", count, case)


def phillips_battery(seed: int, count: int = 300, dim_max: int = 8,
                     tol: Tolerance = Tolerance()) -> dict:
    """Random compatible semidefinite pairs through the full completion."""
    def case(i):
        rng = _stream(seed, 7, i)
        p, q = _draw_split(rng, 1, dim_max)
        s1 = _seeds(seed, 7, 10 ** 6 + i, 1)[0]
        A_kre = gen_space_with_split(GenConfig(s1), p, q)
        U_plus, U_minus = canonical_frames(A_kre)
        G0 = _random_contraction(rng, q, p, 0.95)
        mp = int(rng.integers(0, p + 1))
        mm = int(rng.integers(0, q + 1))
        Kp = haar_unitary(rng, p)[:, :mp]
        Km = haar_unitary(rng, q)[:, :mm]
        Sp = make_subspace(A_kre, (U_plus + U_minus @ G0) @ Kp, tol)
        Sm = make_subspace(A_kre, (U_plus @ G0.conj().T + U_minus) @ Km, tol)
        gp = graph_rep(Sp, "plus", tol)
        gm = graph_rep(Sm, "minus", tol)
        ext = phillips_extend(gp, gm, tol)
        G = ext.G

        norm = spectral_norm(G)
        level = max(spectral_norm(gp.angle), spectral_norm(gm.angle))
        r1 = spectral_norm(G @ gp.M.basis - gp.angle)
        r2 = spectral_norm(G.conj().T @ gm.M.basis - gm.angle)
        ok = norm <= 1.0 + tol.residual_tol
        ok = ok and norm <= level + tol.residual_tol
        ok = ok and r1 <= tol.residual_tol and r2 <= tol.residual_tol
        ok = ok and _contained(represented(gp, tol), ext.G_tilde_plus, tol)
        ok = ok and _contained(represented(gm, tol), ext.G_tilde_minus, tol)
        ok = ok and c_orthogonal(identity_op(A_kre), ext.G_tilde_plus,
                                 ext.G_tilde_minus, tol)
        ok = ok and ext.G_tilde_plus.dim == p and ext.G_tilde_minus.dim == q
        return ok, (norm, max(r1, r2))
    return _tally("phillips_extension", count, case,
                  ("worst_contraction_norm", "worst_restriction_residual"))


def _random_contraction(rng: np.random.Generator, rows: int, cols: int,
                        cap: float) -> np.ndarray:
    U, _, Vh = np.linalg.svd(complex_gaussian(rng, rows, cols), full_matrices=False)
    s = rng.uniform(0.0, cap, min(rows, cols))
    return (U * s) @ Vh


def _contained(small, big, tol: Tolerance) -> bool:
    proj = big.basis @ (big.basis.conj().T @ small.basis)
    return norm_within(proj - small.basis, tol.residual_tol)


def identities_battery(seed: int, count: int = 500, dim_max: int = 8,
                       tol: Tolerance = Tolerance()) -> dict:
    """Modulus-root identities of the Hilbert representative.

    |D|^(1/2) J_D |D|^(1/2) rebuilds D (J_D the signature on the
    orthocomplement of the kernel), and |D|^(1/2) leaves both spectral
    bands invariant.
    """
    def case(i):
        s2 = _seeds(seed, 8, i, 2)[1]
        rng = _stream(seed, 8, i)
        n = int(rng.integers(1, dim_max + 1))
        H = hilbert_space(n)
        D = gen_selfadjoint(GenConfig(s2, kernel_prob=0.3), H)
        split = spectral_split(D.matrix, tol)
        w, V = split.eigenvalues, split.eigenvectors
        nz = split.plus | split.minus
        J_D = (V[:, nz] * np.sign(w[nz])) @ V[:, nz].conj().T
        root = psd_sqrt((V * np.abs(w)) @ V.conj().T, tol)
        scale = max(1.0, D.norm)
        r1 = spectral_norm(root @ J_D @ root - D.matrix) / scale
        B_plus, B_minus = V[:, split.plus], V[:, split.minus]
        P_plus = B_plus @ B_plus.conj().T
        P_minus = B_minus @ B_minus.conj().T
        rscale = max(1.0, spectral_norm(root))
        r2 = spectral_norm(root @ B_plus - P_plus @ (root @ B_plus)) / rscale
        r3 = spectral_norm(root @ B_minus - P_minus @ (root @ B_minus)) / rscale
        resid = max(r1, r2, r3)
        return not resid > tol.residual_tol, (resid,)
    return _tally("keyfact_identities", count, case, ("worst_residual",))


# each battery's `count=` default is its size in a default suite run
_BATTERIES = [
    ("congruence_invariance", congruence_invariance_battery),
    ("sylvester_classification", sylvester_battery),
    ("decomposition", decomposition_battery),
    ("bk_roundtrip", bk_roundtrip_battery),
    ("bk_converse", bk_converse_battery),
    ("keyth_pipeline", keyth_battery),
    ("phillips_extension", phillips_battery),
    ("keyfact_identities", identities_battery),
]

DEFAULT_COUNTS = {name: inspect.signature(fn).parameters["count"].default
                  for name, fn in _BATTERIES}


def _run_battery(task: tuple) -> dict:
    """Run `task` = (k, (seed, cases, dim_max, tol)) with battery `k`.

    Workers receive the index, not the function, and look it up here.
    """
    k, args = task
    return _BATTERIES[k][1](*args)


def run_property_suite(seed: int, count: int | None = None, dim_max: int = 8,
                       tol: Tolerance = Tolerance()) -> dict:
    """Run every battery; `count` overrides each battery's default size.

    Batteries run in forked worker processes, one per CPU in this
    process's affinity mask and at most one per battery.  Each battery
    draws only from its own seeds, and the reports are collected in
    battery order, so the result does not depend on the worker count.
    A failing battery re-raises here and a dead worker raises ``KreinError``;
    either way pending batteries are cancelled and no worker outlives the call.
    """
    if not 0 <= seed < 2 ** 64:
        raise InputError("seed must be an unsigned 64-bit integer")
    if count is not None and count < 0:
        raise InputError(f"count must be nonnegative, got {count}")
    if not 1 <= dim_max <= 64:
        raise InputError(f"dim_max must lie in [1, 64], got {dim_max}")
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    tasks = [(k, (seed, DEFAULT_COUNTS[name] if count is None else count,
                  dim_max, tol))
             for k, (name, _) in enumerate(_BATTERIES)]
    # forked workers see the current _BATTERIES
    pool = ProcessPoolExecutor(min(len(tasks), len(os.sched_getaffinity(0))),
                               mp_context=multiprocessing.get_context("fork"))
    try:
        reports = list(pool.map(_run_battery, tasks))
    except BrokenProcessPool:
        raise KreinError("a worker process died before its task finished") from None
    finally:
        pool.shutdown(cancel_futures=True)
    return {
        "schema_version": 1,
        "seed": int(seed),
        "dim_max": int(dim_max),
        "batteries": reports,
        "passed": all(r["passed"] for r in reports),
    }
