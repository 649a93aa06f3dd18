"""Dense exact linear algebra over a coefficient field.

Matrices are lists of row lists of FieldElement.  Everything is Gaussian
elimination with first-invertible pivoting, so results are deterministic.
"""

from __future__ import annotations

from .coeffield import ZeroDivisor


def _find_pivot(field, rows, r0, c):
    for r in range(r0, len(rows)):
        entry = rows[r][c]
        if not entry.is_zero():
            return r
    return None


def rref(field, rows):
    """Reduced row echelon form (in place on a copy) and the pivot columns."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r0 = 0
    for c in range(ncols):
        if r0 >= len(rows):
            break
        p = _find_pivot(field, rows, r0, c)
        if p is None:
            continue
        rows[r0], rows[p] = rows[p], rows[r0]
        inv = rows[r0][c].inv()
        rows[r0] = [inv * x for x in rows[r0]]
        for r in range(len(rows)):
            if r != r0 and not rows[r][c].is_zero():
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[r0])]
        pivots.append(c)
        r0 += 1
    return rows, pivots


def rank(field, rows) -> int:
    _, pivots = rref(field, rows)
    return len(pivots)


def nullspace(field, rows, ncols=None):
    """Basis of the right kernel, one vector per free column, deterministic."""
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty row list")
        ncols = len(rows[0])
    if not rows:
        red, pivots = [], []
    else:
        red, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis


def solve(field, rows, rhs):
    """One solution of rows * x = rhs, or None when inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(field, aug)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return tuple(x)


def determinant(field, rows):
    """Determinant by elimination; falls back to cofactors if a pivot is not
    invertible (possible over a non-field etale coefficient algebra)."""
    n = len(rows)
    if n == 0:
        return field.one
    try:
        return _det_gauss(field, rows)
    except ZeroDivisor:
        return _det_cofactor(field, rows)


def _det_gauss(field, rows):
    m = [list(r) for r in rows]
    n = len(m)
    det = field.one
    for c in range(n):
        p = _find_pivot(field, m, c, c)
        if p is None:
            return field.zero
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det = det * m[c][c]
        inv = m[c][c].inv()
        for r in range(c + 1, n):
            if m[r][c].is_zero():
                continue
            f = m[r][c] * inv
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _det_cofactor(field, rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = field.zero
    sign = field.one
    for j in range(n):
        a = rows[0][j]
        if not a.is_zero():
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total = total + sign * a * _det_cofactor(field, minor)
        sign = -sign
    return total


def mat_mul(field, a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = [[field.zero] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            f = ai[k]
            if f.is_zero():
                continue
            bk = b[k]
            row = out[i]
            for j in range(cols):
                row[j] = row[j] + f * bk[j]
    return out


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]

