#!/usr/bin/env python3
"""Factor a selfadjoint operator as C = A A* and read off its indices.

The factor A maps a smaller space into the original one.  The point of
the construction is rigidity: whatever injective A reproduces C, the
signature of A's domain is forced to be exactly (h+, h-), and the
domain dimension is forced to be dim H - h0.  The demo factors one
operator, verifies the product, then refactors with a J-unitary twist
and checks nothing observable changes.
"""

import numpy as np

from kreinalg import (BKFactorization, GenConfig, KOperator, bk_factorize,
                      bk_verify, gen_selfadjoint, gen_space, hermitian_indices,
                      j_unitary, k_adjoint, space_indices, spectral_norm)


def main():
    H = gen_space(GenConfig(21, (6, 6)))
    C = gen_selfadjoint(GenConfig(22, kernel_prob=1.0), H)
    hp, hm, h0 = hermitian_indices(C)
    print(f"operator on a 6-dimensional space, indices ({hp}, {hm}, {h0})")

    F = bk_factorize(C)
    ip, im = space_indices(F.A_space)
    print(f"factor space: dimension {F.A_space.dim}, signature ({ip}, {im})")
    assert (ip, im, F.A_space.dim) == (hp, hm, 6 - h0)

    report = bk_verify(C, F)
    print(f"product residual {report['product_residual']:.2e}, "
          f"injective: {report['injective']}, passed: {report['passed']}")
    assert report["passed"]

    # twist the factor by a map preserving the factor space's geometry;
    # the product and every verdict are unchanged
    rng = np.random.default_rng(23)
    U = j_unitary(rng, F.A_space.J)
    twisted = BKFactorization(KOperator(F.A_space, H, F.A.matrix @ U))
    report2 = bk_verify(C, twisted)
    drift = spectral_norm(
        twisted.A.matrix @ k_adjoint(twisted.A).matrix - C.matrix)
    print(f"after a J-unitary refactorization: residual {drift:.2e}, "
          f"passed: {report2['passed']}")
    assert report2["passed"]
    print("ok")


if __name__ == "__main__":
    main()
