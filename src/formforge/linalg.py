"""Exact linear algebra over a coefficient field.

Matrices are lists of row lists of FieldElement.  `rref`, `nullspace` and
`solve` also take sparse rows: {column: FieldElement} dicts that hold no
zero entries.  All three run one Gauss-Jordan elimination on such dicts; it
stores no zeros, and a pivot step updates only the rows that hold the pivot
column.  The pivot for a column is the first remaining row holding it, in
the order a dense elimination that swaps rows would leave them, so results
are deterministic and a non-invertible pivot over an etale algebra raises
ZeroDivisor at the same step as the dense routine would.  Determinants are
dense; products skip zero entries.
"""

from __future__ import annotations

from .coeffield import ZeroDivisor


def _find_pivot(field, rows, r0, c):
    for r in range(r0, len(rows)):
        entry = rows[r][c]
        if not entry.is_zero():
            return r
    return None


def _row_dict(row):
    """A new dict row: a copy of a dict row, or the nonzero entries of a
    dense row."""
    if isinstance(row, dict):
        return dict(row)
    return {c: x for c, x in enumerate(row) if not x.is_zero()}


def _gauss_jordan(rows):
    """The nonzero rows of the reduced row echelon form, as dicts in pivot
    order, and the pivot columns."""
    rows = [_row_dict(r) for r in rows]
    order = list(range(len(rows)))  # position -> row; positions below len(pivots) are pivots
    where = list(range(len(rows)))  # row -> position
    holders = {}  # column -> the rows with a nonzero there
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    pivots = []
    # Fill-in only lands in columns the pivot row holds, so no new column appears.
    for c in sorted(holders):
        r0 = len(pivots)
        if r0 == len(rows):
            break
        hold = holders[c]
        p = min((i for i in hold if where[i] >= r0), key=where.__getitem__, default=None)
        if p is None:
            continue
        q, at = order[r0], where[p]
        order[r0], order[at] = p, q
        where[p], where[q] = r0, at
        inv = rows[p][c].inv()
        prow = rows[p] = {k: inv * x for k, x in rows[p].items()}
        for i in hold:
            if i == p:
                continue
            row = rows[i]
            f = row.pop(c)
            for k, b in prow.items():
                if k == c:
                    continue
                a = row.get(k)
                if a is None:
                    v = -(f * b)
                    if not v.is_zero():
                        row[k] = v
                        holders[k].add(i)
                else:
                    v = a - f * b
                    if v.is_zero():
                        del row[k]
                        holders[k].discard(i)
                    else:
                        row[k] = v
        holders[c] = {p}
        pivots.append(c)
    return [rows[i] for i in order[: len(pivots)]], pivots


def rref(field, rows):
    """Reduced row echelon form and the pivot columns.

    The reduced rows come back in the form the rows were given (dense lists
    or dicts), as many as were given: the pivot rows in pivot order, then
    zero rows.
    """
    red, pivots = _gauss_jordan(rows)
    red += [{} for _ in range(len(rows) - len(red))]
    if rows and not isinstance(rows[0], dict):
        red = [[row.get(c, field.zero) for c in range(len(rows[0]))] for row in red]
    return red, pivots


def rank(field, rows) -> int:
    _, pivots = rref(field, rows)
    return len(pivots)


def nullspace(field, rows, ncols=None):
    """Basis of the right kernel, one vector per free column, deterministic.
    `ncols` is needed for an empty row list and for dict rows."""
    if ncols is None:
        if not rows or isinstance(rows[0], dict):
            raise ValueError("need ncols for an empty or sparse row list")
        ncols = len(rows[0])
    if rows:
        red, pivots = rref(field, [_row_dict(r) for r in rows])
    else:
        red, pivots = [], []
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, pc in zip(red, pivots):
            x = row.get(fc)
            if x is not None:
                v[pc] = -x
        basis.append(tuple(v))
    return basis


def solve(field, rows, rhs, ncols=None):
    """One solution of rows * x = rhs, or None when inconsistent.
    `ncols` is needed for dict rows."""
    if ncols is None:
        if rows and isinstance(rows[0], dict):
            raise ValueError("need ncols for a sparse row list")
        ncols = len(rows[0]) if rows else 0
    aug = []
    for r, b in zip(rows, rhs):
        row = _row_dict(r)
        if not b.is_zero():
            row[ncols] = b
        aug.append(row)
    red, pivots = rref(field, aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [field.zero] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row.get(ncols, field.zero)
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
    """Product of dense matrices; zero entries of either factor cost no
    arithmetic, and a row of b is scanned only when a uses it."""
    cols = len(b[0]) if b else 0
    b_rows = {}  # k -> the nonzero (j, b[k][j])
    out = []
    for ai in a:
        acc = {}
        for k in range(len(b)):
            f = ai[k]
            if f.is_zero():
                continue
            bk = b_rows.get(k)
            if bk is None:
                bk = b_rows[k] = [(j, x) for j, x in enumerate(b[k]) if not x.is_zero()]
            for j, x in bk:
                y = f * x
                acc[j] = acc[j] + y if j in acc else y
        row = [field.zero] * cols
        for j, v in acc.items():
            row[j] = v
        out.append(row)
    return out


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]

