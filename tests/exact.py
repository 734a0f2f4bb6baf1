"""Exact inertia over the rationals: a reference for every integer the CLI
prints that shares no arithmetic with LAPACK.

A double is a dyadic rational, so the inertia of a stored Hermitian matrix
H = A + iB is computable exactly.  The real symmetric embedding
S = [[A, -B], [B, A]] holds each eigenvalue of H twice.  Scaled by a power
of two to integers, S is reduced by symmetric elimination with 1 x 1
pivots, fraction-free: after each step the matrix is the Schur complement
times the determinant d of the block eliminated so far, and each division
by the previous d is exact (Bareiss, Math. Comp. 22, 1968), so the pivots'
signs are those of d_k / d_(k-1) (Sylvester's law of inertia).  Where the
remaining diagonal is zero but an entry (i, j) is not, the unimodular
congruence that adds row and column j to row and column i first puts
2 S[i][j] on the diagonal (the 2 x 2 step of Bunch & Parlett, SIAM J.
Numer. Anal. 8, 1971).  The rank is the number of pivots.
"""

from fractions import Fraction


def inertia(H, shift: float = 0.0) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of the Hermitian matrix ``H - shift I``, ``H``
    a sequence of rows of numbers whose real and imaginary parts are floats or
    integers; the shift is subtracted exactly."""
    n = len(H)
    A = [[Fraction(complex(z).real) - (Fraction(shift) if i == j else 0)
          for j, z in enumerate(row)] for i, row in enumerate(H)]
    B = [[Fraction(complex(z).imag) for z in row] for row in H]
    rows = [A[i] + [-b for b in B[i]] for i in range(n)] + [B[i] + A[i] for i in range(n)]
    scale = max((x.denominator for row in rows for x in row), default=1)
    S = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    d, signs = 1, [0, 0]
    while S:
        m = len(S)
        k = next((i for i in range(m) if S[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in range(m) for j in range(i + 1, m)
                         if S[i][j]), None)
            if pair is None:   # what is left is the zero matrix
                break
            k, j = pair
            for row in S:
                row[k] += row[j]
            S[k] = [a + b for a, b in zip(S[k], S[j])]
        pivot, top = S[k][k], S[k]
        signs[(pivot < 0) != (d < 0)] += 1
        S = [[(pivot * x - row[k] * t) // d for c, (x, t) in enumerate(zip(row, top)) if c != k]
             for r, row in enumerate(S) if r != k]
        d = pivot
    p, q = signs
    return p // 2, q // 2, n - (p + q) // 2
