"""Fraction-free (Bareiss 1968) elimination kernels on integer matrices.

Both kernels work on integer matrices (lists of lists of Python ints) and
keep every intermediate value an exact integer: each elimination step
divides by the previous pivot, and that division is exact (the entries are
minors of the input matrix). Entry growth is therefore bounded by minor
size instead of exploding exponentially.
"""

# Kept as a constant: ``perfbench/run.py`` stamps every result with it.
KERNEL_LANE = "python"


def det_int(rows):
    """Determinant of a square integer matrix.

    Returns (det, ops) where ops counts pivot-update multiplications.
    Forward elimination only; rows are copied, the input is not mutated.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    ops = 0
    for k in range(n - 1):
        piv = -1
        for i in range(k, n):
            if a[i][k]:
                piv = i
                break
        if piv < 0:
            return 0, ops
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        rk = a[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pk * ri[j] - aik * rk[j]) // prev
                ops += 1
            ri[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1], ops


def jordan_int(aug, n, m):
    """Fraction-free Gauss-Jordan on an n x (n+m) integer matrix [M | R].

    Returns (det, num, ops) where num is the n x m integer matrix with
    M @ (num / det) == R exactly. Raises ZeroDivisionError when M is
    singular. The input is not mutated.
    """
    w = n + m
    a = [list(r) for r in aug]
    sign = 1
    prev = 1
    ops = 0
    for k in range(n):
        piv = -1
        for i in range(k, n):
            if a[i][k]:
                piv = i
                break
        if piv < 0:
            raise ZeroDivisionError("matrix is singular")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        rk = a[k]
        for i in range(n):
            if i == k:
                continue
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, w):
                ri[j] = (pk * ri[j] - aik * rk[j]) // prev
                ops += 1
            ri[k] = 0
        prev = pk
    det = sign * a[n - 1][n - 1]
    num = [[sign * a[i][j] for j in range(n, w)] for i in range(n)]
    return det, num, ops
