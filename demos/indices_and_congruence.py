#!/usr/bin/env python3
"""Index triples and the congruence test, end to end.

Two selfadjoint operators on indefinite inner product spaces are
congruent exactly when their index triples agree.  This script computes
triples, moves an operator to a different space with an invertible map,
watches the triple survive, then builds an explicit congruence between
two operators that only look different.
"""

import numpy as np

from kreinalg import (KOperator, build_congruence, gen_invertible, gen_space,
                      hermitian_indices, hilbert_space, is_congruent,
                      make_space, spectral_norm, transport)


def show(label, M):
    print(f"{label}:")
    for row in np.asarray(M).real.round(4):
        print("   ", row)


def main():
    J = np.diag([1.0, 1.0, -1.0]).astype(complex)
    H = make_space(J)
    C = KOperator(H, H, np.array([[2.0, 0.0, 1.0],
                                  [0.0, 0.5, 0.0],
                                  [-1.0, 0.0, 1.0]], dtype=complex))
    idx = hermitian_indices(C)
    print(f"space signature (2, 1), operator indices h+ = {idx[0]}, "
          f"h- = {idx[1]}, h0 = {idx[2]}")

    # transport to a random 3-dimensional space; indices must not move
    K = gen_space(7, (3, 3))
    X = gen_invertible(8, K, H)
    B = transport(C, X)
    print("after transport:", tuple(hermitian_indices(B)))
    assert tuple(hermitian_indices(B)) == tuple(idx)

    # same indices on the same space means congruent, and the witness
    # map can be built explicitly
    E = hilbert_space(2)
    A1 = KOperator(E, E, np.diag([3.0, -5.0]).astype(complex))
    A2 = KOperator(E, E, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    print("\ndiag(3, -5) vs the flip matrix:",
          "congruent" if is_congruent(A1, A2) else "not congruent")
    W = build_congruence(A1, A2)
    resid = spectral_norm(A1.matrix - transport(A2, W).matrix)
    show("witness X with A1 = X* A2 X", W.X.matrix)
    print(f"residual {resid:.2e}")
    assert resid <= 1e-8 * spectral_norm(A1.matrix)

    # a definite operator can never be congruent to an indefinite one
    A3 = KOperator(E, E, np.eye(2, dtype=complex))
    print("identity vs the flip matrix:",
          "congruent" if is_congruent(A3, A2) else "not congruent")
    assert not is_congruent(A3, A2)
    print("\nok")


if __name__ == "__main__":
    main()
