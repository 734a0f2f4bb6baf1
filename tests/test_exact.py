"""Exact ground truth for every integer the CLI prints.

Inputs are built with exact structure: J is an exact involution, a signed
permutation similarity of diag(+-1) plus swap blocks [[0, 1], [1, 0]], and
J C = Y D Y^H with a Gaussian-integer Y and an integer diagonal D whose
zeros are planted.  Every entry is a small integer, so the stored J C is the
exact product, and `exact.inertia` gives its true triple with no tolerance.
Against it and J's exact signature run `hermitian_indices` and
`krein indices`, `space_indices`, `decompose`'s `dims`, `factorize`'s
signature and the exact inertia of the `J_A` it prints, and `congruent`'s
verdict (Sylvester: congruent iff the exact triples agree).

Where the two may differ is stated in advance: a Gaussian-integer Y can
still make a nonzero eigenvalue tiny, so a case counts only while the
smallest nonzero |eigenvalue| of each J C, by `eigvalsh`, is at least 10^3
times its zero band rank_tol * max|eigenvalue|.  Every case outside that
window is counted, and the test fails if more than 5 % are.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from exact import inertia
from kreinalg.cli import main
from kreinalg.densela import Tolerance
from kreinalg.hermdex import hermitian_indices
from kreinalg.krein import KOperator, make_space, space_indices
from kreinalg.serial import dump_json, matrix_from_obj, matrix_to_obj

EXAMPLES = 300
WINDOW = 1e3


def involution(rng, n: int):
    """An exact involution of size n and its planted signature: a random
    signed permutation similarity of swap blocks plus diag(+-1)."""
    swaps = int(rng.integers(0, n // 2 + 1))
    signs = rng.choice([1.0, -1.0], n - 2 * swaps)
    J0 = np.diag(np.concatenate([np.zeros(2 * swaps), signs]))
    for b in range(swaps):
        J0[2 * b, 2 * b + 1] = J0[2 * b + 1, 2 * b] = 1.0
    Q = np.eye(n)[:, rng.permutation(n)] * rng.choice([1.0, -1.0], n)
    return Q @ J0 @ Q.T, (swaps + int((signs > 0).sum()), swaps + int((signs < 0).sum()))


def problem(rng, D):
    """(J, C, J's planted signature) with J C = Y D Y^H, Y Gaussian-integer."""
    n = len(D)
    J, signature = involution(rng, n)
    Y = rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))
    return J, J @ ((Y * D) @ Y.conj().T), signature


def planted(rng, n: int):
    """An integer diagonal of length n with a uniform number of zeros: all n
    of them, so C = 0, one time in n + 1."""
    D = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], n)
    D[rng.permutation(n)[:rng.integers(0, n + 1)]] = 0.0
    return D


@st.composite
def pairs(draw):
    """Two problems of one size n, uniform in [0, 12]; B's D is A's
    reordered, or drawn afresh."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(rng.integers(0, 13))
    D = planted(rng, n)
    D_b = rng.permutation(D) if draw(st.booleans()) else planted(rng, n)
    return problem(rng, D), problem(rng, D_b)


def in_window(JC, rank: int, tol: Tolerance) -> bool:
    w = np.sort(np.abs(np.linalg.eigvalsh(JC)))[::-1]
    return rank == 0 or w[rank - 1] >= WINDOW * tol.rank_tol * w[0]


def run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--machine"]) == 0
    return json.loads(out.getvalue())


def test_every_printed_integer_is_the_exact_one():
    _every_printed_integer_is_the_exact_one()


def test_every_printed_integer_is_the_exact_one_without_certificates(monkeypatch):
    # every verdict a certificate settles above is taken by its LAPACK pass
    import kreinalg.bkfact as bkfact
    import kreinalg.hermdex as hermdex
    import kreinalg.krein as krein
    for module in (bkfact, hermdex, krein):
        monkeypatch.setattr(module, "_certified_level", lambda cut, n: 0.0)
    _every_printed_integer_is_the_exact_one()


def _every_printed_integer_is_the_exact_one():
    tol = Tolerance()
    tally = {"cases": 0, "outside": 0}

    @settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
    @given(pairs())
    def check(pair):
        tally["cases"] += 1
        exact = [inertia((J @ C).tolist()) for J, C, _ in pair]
        if not all(in_window(J @ C, p + q, tol)
                   for (J, C, _), (p, q, _) in zip(pair, exact)):
            tally["outside"] += 1
            return
        J, C, signature = pair[0]
        triple = exact[0]
        assert inertia(J.tolist()) == (*signature, 0)
        H = make_space(J)
        assert space_indices(H) == signature
        assert tuple(hermitian_indices(KOperator(H, H, C))) == triple
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for k, (J_k, C_k, _) in enumerate(pair):
                paths.append(os.path.join(tmp, f"{k}.json"))
                with open(paths[-1], "w") as fh:
                    fh.write(dump_json({"space": {"J": matrix_to_obj(J_k)},
                                        "operator": matrix_to_obj(C_k)}))
            rep = run(["indices", "-i", paths[0]])
            assert tuple(rep["indices"]) == triple
            assert (rep["space"]["ind_plus"], rep["space"]["ind_minus"]) == signature
            rep = run(["decompose", "-i", paths[0]])
            assert tuple(rep["validation"]["dims"]) == triple
            rep = run(["factorize", "-i", paths[0]])
            space = rep["factor_space"]
            assert (space["ind_plus"], space["ind_minus"]) == triple[:2]
            J_A = matrix_from_obj(space["J"])
            assert inertia(J_A.tolist()) == (*triple[:2], 0)
            rep = run(["congruent", *paths])
            assert rep["congruent"] == (exact[0] == exact[1])

    check()
    assert tally["cases"] >= EXAMPLES
    assert tally["outside"] <= 0.05 * tally["cases"], tally
