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


def smith_normal_form(m: Matrix, *, u: bool = True, v: bool = True
                      ) -> tuple[list[int], Matrix | None, Matrix | None]:
    """Return (factors, U, V) with U*m*V diagonal, U and V unimodular.

    ``factors`` is the full diagonal of length min(rows, cols), nonnegative
    and in a divisibility chain (trailing zeros for rank deficit).

    ``u=False`` or ``v=False`` skips that transform: it is returned as None
    and never built. The operations on m are the same either way, so the
    factors and the transform that is built do not depend on the switches.
    """
    a = [[int(x) for x in row] for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    left = identity(nr) if u else None
    right = identity(nc) if v else None

    t = 0
    while t < min(nr, nc):
        # smallest-magnitude pivot, the first in row-major order; re-selected
        # after every reduction pass so the pivot strictly shrinks and the
        # loop terminates. No entry is smaller than 1, so the scan stops there.
        piv, best = None, 0
        for i in range(t, nr):
            ai = a[i]
            for j in range(t, nc):
                x = abs(ai[j])
                if x and (piv is None or x < best):
                    piv, best = (i, j), x
                    if x == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            a[pi], a[t] = a[t], a[pi]
            if u:
                left[pi], left[t] = left[t], left[pi]
        if pj != t:
            for row in a:
                row[pj], row[t] = row[t], row[pj]
            if v:
                for row in right:
                    row[pj], row[t] = row[t], row[pj]

        at = a[t]
        p = at[t]
        clean = True
        for i in range(t + 1, nr):
            if a[i][t]:
                c = -(a[i][t] // p)
                a[i] = [x + c * y for x, y in zip(a[i], at)]
                if u:
                    left[i] = [x + c * y for x, y in zip(left[i], left[t])]
                if a[i][t]:
                    clean = False
        # column t stays fixed while the other columns are reduced against
        # it, so only the rows where it is nonzero change
        rows = [row for row in a if row[t]]
        vrows = [row for row in right if row[t]] if v else ()
        for j in range(t + 1, nc):
            if at[j]:
                c = -(at[j] // p)
                for row in rows:
                    row[j] += c * row[t]
                for row in vrows:
                    row[j] += c * row[t]
                if at[j]:
                    clean = False
        if not clean:
            continue  # leftover remainders are smaller than the pivot

        # divisibility: a[t][t] must divide the remaining block (a unit does)
        if p not in (1, -1):
            bad = next((i for i in range(t + 1, nr)
                        if any(x % p for x in a[i][t + 1:])), None)
            if bad is not None:
                a[t] = [x + y for x, y in zip(at, a[bad])]
                if u:
                    left[t] = [x + y for x, y in zip(left[t], left[bad])]
                continue
        if p < 0:
            a[t] = [-x for x in at]
            if u:
                left[t] = [-x for x in left[t]]
        t += 1

    factors = [a[i][i] for i in range(min(nr, nc))]
    return factors, left, right


def cokernel(m: Matrix) -> tuple[list[int], int]:
    """Invariant factors (> 1) and free rank of Z^rows / im(m).

    The factors alone decide the group, so the Smith form builds neither
    transform.
    """
    nr = len(m)
    factors, _, _ = smith_normal_form(m, u=False, v=False)
    torsion = [f for f in factors if f > 1]
    rank = sum(1 for f in factors if f != 0)
    return torsion, nr - rank
