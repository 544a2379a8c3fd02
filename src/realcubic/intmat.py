"""Exact integer matrix algebra: Smith normal form and determinants.

Everything here works on plain Python ints (no overflow) and is shared by the
lattice invariants and the framed-link surgery homology.
"""

from __future__ import annotations


Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    assert all(len(r) == inner for r in a)
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    oi[j] += x * bk[j]
    return out


def det(m: Matrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: Matrix) -> bool:
    return abs(det(m)) == 1


def smith_normal_form(m: Matrix) -> tuple[list[int], Matrix, Matrix]:
    """Return (factors, U, V) with U*m*V diagonal, U and V unimodular.

    ``factors`` is the full diagonal of length min(rows, cols), nonnegative
    and in a divisibility chain (trailing zeros for rank deficit).
    """
    a = [[int(x) for x in row] for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = identity(nr)
    v = identity(nc)

    def row_add(i: int, j: int, c: int) -> None:
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_add(i: int, j: int, c: int) -> None:
        for r in range(nr):
            a[r][i] += c * a[r][j]
        for r in range(nc):
            v[r][i] += c * v[r][j]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for r in range(nr):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(nc):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def row_neg(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # smallest-magnitude pivot; re-selected after every reduction pass so
        # the pivot strictly shrinks and the loop terminates
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (piv is None
                                or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(piv[0], t)
        if piv[1] != t:
            col_swap(piv[1], t)

        p = a[t][t]
        clean = True
        for i in range(t + 1, nr):
            if a[i][t]:
                row_add(i, t, -(a[i][t] // p))
                if a[i][t]:
                    clean = False
        for j in range(t + 1, nc):
            if a[t][j]:
                col_add(j, t, -(a[t][j] // p))
                if a[t][j]:
                    clean = False
        if not clean:
            continue  # leftover remainders are smaller than the pivot

        # divisibility: a[t][t] must divide the remaining block
        bad = None
        for i in range(t + 1, nr):
            if any(a[i][j] % p for j in range(t + 1, nc)):
                bad = i
                break
        if bad is not None:
            row_add(t, bad, 1)
            continue
        if p < 0:
            row_neg(t)
        t += 1

    factors = [a[i][i] for i in range(min(nr, nc))]
    return factors, u, v


def cokernel(m: Matrix) -> tuple[list[int], int]:
    """Invariant factors (> 1) and free rank of Z^rows / im(m)."""
    nr = len(m)
    factors, _, _ = smith_normal_form(m)
    torsion = [f for f in factors if f > 1]
    rank = sum(1 for f in factors if f != 0)
    return torsion, nr - rank
