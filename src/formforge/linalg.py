"""Exact linear algebra over a coefficient field.

Matrices are lists of row lists of FieldElement.  `rref`, `nullspace` and
`solve` also take sparse rows: {column: FieldElement} dicts that hold no
zero entries, and raise TypeError for an entry over another field; all but
`solve` also take integer dict rows.  Over Q a dict row may hold nonzero
ints: `rref` then returns each reduced row as the primitive integer row
with a positive pivot, and `nullspace` divides by that pivot.  Over an
etale algebra a dict row may hold the nonzero flat int vectors of its
entries, the rows `restrict_scalars` takes; the reduced rows come back as
field elements.  All of them run one Gauss-Jordan elimination, on integer
dict rows for every field.  Each row is its flat coordinates times their
lcm denominator, over the gcd of the results.  The rows are taken one at a
time against a basis of reduced rows, each primitive with a positive pivot
and zero at the other pivots.  A new row is reduced at each pivot column it
holds by the fraction-free update row <- (a/g) row - (f/g) pivot_row (a
the pivot, f the row's entry, g = gcd(a, f); Bareiss, Math. Comp. 22,
1968).  One pass does, as the update touches no other pivot column.  A row
that reduces to zero is dropped: a redundant row costs one update per pivot
it holds and changes no basis row.  A row that does not is made primitive,
its first column, which is no pivot, becomes its pivot, and that column is
cleared from the basis rows holding it by the same update.  The new pivot
lies right of the leading column of every basis row it clears, and the
update adds only columns of the new row, none left of its pivot, so each
basis row keeps its pivot as its leading column.  The basis thus ends in reduced row echelon
form, primitive with positive pivots.  That form is unique, so it does not
depend on the order of the rows; scaling a row by a nonzero rational keeps
its zero pattern and the reduced rows, and only those become field
elements; `int_rref` keeps them as int rows over a denominator each.

Over an etale algebra K of absolute degree m the rows are the restriction
of scalars R(A) (`coeffield.restrict_scalars`): entry (r, c) becomes an
m x m int block at rows r m, ..., r m + m - 1 and columns c m, ...,
c m + m - 1.  R is a ring map with R(1) = I.  When the reduced form
E = P A over K exists (every pivot a unit, as over a field),
R(E) = R(P) R(A) is in reduced form with identity blocks at the pivots, so
it is the reduced form of R(A), and E is read back from the rows of each
block at the columns c m (column 0 of R(x) holds the flat coordinates of
x).  Over a product of fields pivot columns that do not come in whole
aligned blocks show a zero-divisor pivot, and raise ZeroDivisor.  When they
do come in blocks, every block off the pivots commutes with R(K), so it is
R(y) for the y read back: the result is a reduced form with unit pivots
whose restriction has the row space of R(A), also where a dense elimination
meets a zero-divisor pivot and raises.

`bareiss` is the one determinant routine, for scalar and polynomial matrices
alike; `mat_mul` multiplies dict rows, of ints too, and skips zero entries.
Products by structure constants live in `coeffield.StructureTensor`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .coeffield import (
    FieldElement,
    RationalField,
    ZeroDivisor,
    integral_coordinates,
    restrict_scalars,
)


def _row_dict(row):
    """A new dict row: a copy of a dict row, or the nonzero entries of a
    dense row."""
    if isinstance(row, dict):
        return dict(row)
    return {c: x for c, x in enumerate(row) if not x.is_zero()}


def _integer_rows(field, rows):
    """The rows as new primitive rows (`_integer_row`), and whether they are
    dict rows of ints.  A row list holds only ints, only flat int vectors or
    only field elements, so that is decided once; rows of ints or vectors
    are only divided by their content."""
    first = next((next(iter(r.values())) for r in rows if isinstance(r, dict) and r), None)
    if isinstance(first, int):
        return [{k: v // g for k, v in r.items()} if (g := gcd(*r.values())) > 1 else dict(r)
                for r in rows], True
    if isinstance(first, list):
        return [{k: [x // g for x in v] for k, v in r.items()}
                if (g := gcd(*(x for v in r.values() for x in v))) > 1 else dict(r)
                for r in rows], False
    return [_integer_row(field, r) for r in rows], False


def _integer_row(field, row):
    """A dense or dict row of field elements as a new primitive row: its
    flat coordinates times their lcm denominator, over the gcd of the
    results, as {column: int} over Q and {column: flat int vector} over an
    etale algebra."""
    rational = isinstance(field, RationalField)
    cols, fracs = [], []
    for c, x in row.items() if isinstance(row, dict) else enumerate(row):
        if x.field is not field and x.field != field:
            raise TypeError("mixed-field arithmetic: entry %r is not over %r" % (x, field))
        if rational:
            q = x.coeffs[0]
            if q:
                cols.append(c)
                fracs.append(q)
        elif x:
            cols.append(c)
            fracs.extend(field.flat(x))
    if not fracs:
        return {}
    ints, _ = integral_coordinates(fracs)
    g = gcd(*ints)
    if g != 1:
        ints = [v // g for v in ints]
    if rational:
        return dict(zip(cols, ints))
    m = field.absolute_degree
    return {c: ints[i * m : i * m + m] for i, c in enumerate(cols)}


def _reduce(row, prow, c):
    """row <- (a/g) row - (f/g) prow, which clears column c (a = prow[c] > 0,
    f = row[c], g = gcd(a, f)), as a dict row; row may be changed."""
    a, f = prow[c], row.pop(c)
    g = gcd(a, f)
    s, t = a // g, f // g
    if s != 1:
        row = {k: s * v for k, v in row.items()}
    for k, b in prow.items():
        if k != c:
            v = row.get(k, 0) - t * b
            if v:
                row[k] = v
            else:
                row.pop(k, None)
    return row


def _primitive(row, c):
    """The row over the gcd of its entries, with a positive entry at c."""
    g = gcd(*row.values())
    if row[c] < 0:
        g = -g
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _eliminate(rows):
    """Gauss-Jordan on int dict rows (which may change), one row at a
    time: the reduced rows, primitive with a positive pivot, in pivot
    order, and the pivot columns.  A basis row holds its pivot and no other
    pivot column."""
    basis = {}  # pivot column -> basis row
    for row in rows:
        for c in [c for c in row if c in basis]:
            row = _reduce(row, basis[c], c)
        if not row:
            continue
        p = min(row)
        row = basis[p] = _primitive(row, p)
        for q, b in basis.items():
            if p in b and q != p:
                basis[q] = _primitive(_reduce(b, row, p), q)
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def _gauss_jordan(field, rows):
    """The nonzero rows of the reduced row echelon form in pivot order, and
    the pivot columns.  The rows are dicts of field elements, or over Q, for
    rows of ints, primitive integer rows with a positive pivot."""
    int_rows, ints = _integer_rows(field, rows)
    red, pivots = _read_back(field, *_eliminate(restrict_scalars(field, int_rows)))
    if ints:
        return [row for row, _ in red], pivots
    if isinstance(field, RationalField):
        return [{j: FieldElement(field, (Fraction(v, den),)) for j, v in row.items()}
                for row, den in red], pivots
    return [{j: field.from_flat([Fraction(x, den) for x in v]) for j, v in row.items()}
            for row, den in red], pivots


def _read_back(field, red, pivots):
    """The reduced rows over K from the reduced rows of the restriction,
    each as (nums, den): the dict row of its nonzero numerators, ints over
    Q and flat int vectors over K, over the positive int den.  Over Q that
    is the primitive row over its pivot.  Over K row k of a block of m, of
    pivot c + k, holds coordinate k of entry j at column j m, over its
    pivot, and den is the lcm of the block's pivots."""
    if isinstance(field, RationalField):
        return [(row, row[c]) for row, c in zip(red, pivots)], pivots
    m, out = field.absolute_degree, []
    for s in range(0, len(pivots), m):
        c = pivots[s]
        if pivots[s : s + m] != list(range(c, c + m)) or c % m:
            raise ZeroDivisor("zero divisor in %r" % (field,))
        block = red[s : s + m]
        den = lcm(*(row[c + k] for k, row in enumerate(block)))
        nums = {}
        for k, row in enumerate(block):
            f = den // row[c + k]
            for j, v in row.items():
                if j % m == 0:
                    nums.setdefault(j // m, [0] * m)[k] = f * v
        out.append((nums, den))
    return out, [c // m for c in pivots[::m]]


def int_rref(field, rows):
    """The nonzero rows of the reduced row echelon form in pivot order, as
    int rows (nums, den) (`_read_back`), and the pivot columns; the rows
    are given as to `rref`."""
    return _read_back(field, *_eliminate(restrict_scalars(field, _integer_rows(field, rows)[0])))


def rref(field, rows):
    """Reduced row echelon form and the pivot columns.

    The reduced rows come back in the form the rows were given (dense lists
    or dicts), as many as were given: the pivot rows in pivot order, then
    zero rows.
    """
    red, pivots = _gauss_jordan(field, rows)
    red += [{} for _ in range(len(rows) - len(red))]
    if rows and not isinstance(rows[0], dict):
        red = [[row.get(c, field.zero) for c in range(len(rows[0]))] for row in red]
    return red, pivots


def rank(field, rows) -> int:
    _, pivots = rref(field, rows)
    return len(pivots)


def is_invertible(field, rows) -> bool:
    """Whether the square matrix is invertible: whether its restriction of
    scalars has rank n m over Q, m the absolute degree.  det R(A) is the
    norm of det A, so over a product of fields such as Q[t]/(t^2 - 1) this
    tells a unit determinant from a nonzero zero divisor, and it never meets
    a zero-divisor pivot."""
    _, pivots = _eliminate(restrict_scalars(field, _integer_rows(field, rows)[0]))
    return len(pivots) == len(rows) * field.absolute_degree


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
                v[pc] = field.from_rational(Fraction(-x, row[pc])) if isinstance(x, int) else -x
        basis.append(tuple(v))
    return basis


def solve(field, rows, rhs, ncols=None):
    """One solution of rows * x = rhs, or None when inconsistent.  The rows
    and rhs hold field elements; `ncols` is needed for dict rows."""
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
    """Determinant of a square matrix over a coefficient field (`bareiss`)."""
    return bareiss(rows, field.zero, field.one, _field_divider)


def _field_divider(b):
    inv = b.inv()
    return lambda a: a * inv


def bareiss(rows, zero, one, divider):
    """Determinant of a square matrix over a commutative ring by fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968).

    Step k swaps a row with a nonzero entry into pivot position k and
    replaces each entry m[i][j], i, j > k, by
    (m[k][k] m[i][j] - m[i][k] m[k][j]) / p, where p is the previous pivot
    (one at the first step).  By Sylvester's identity the quotient is a minor
    of the matrix, so the exact division stays in the ring.  divider(p)
    returns the map a -> a / p, or raises ZeroDivisor when p may be a zero
    divisor (possible over a non-field etale coefficient algebra); the
    determinant then comes from cofactor expansion.  A zero column or a zero
    row in the remaining block makes the determinant times a power of the
    last pivot zero, so once that pivot passes divider the determinant is
    zero; a matrix of rank r thus costs at most r steps.
    """
    try:
        return _bareiss([list(r) for r in rows], zero, one, divider)
    except ZeroDivisor:
        return _cofactor([list(r) for r in rows], zero, one)


def _bareiss(m, zero, one, divider):
    n = len(m)
    if n == 0:
        return one
    negate = False
    pivots, divs = [one], [None]  # the pivot before step t, and division by it
    # A step would only scale a row with a zero in the pivot column, by the
    # new pivot over the previous one, so it leaves the row alone: age[i]
    # counts the steps row i is up to date with, and `current` scales it by
    # pivots[k] / pivots[age[i]] when it is next used.  Every pivot has
    # passed divider, so the scaling keeps zero entries zero and nonzero
    # ones nonzero, and the zero tests and last[i] (the last nonzero column
    # of row i) hold for stale rows too.  Sparse matrices thus cost about
    # what Gaussian elimination costs.
    age = [0] * n
    last = [max((j for j, x in enumerate(r) if not x.is_zero()), default=-1) for r in m]

    def current(i, k):
        row, t = m[i], age[i]
        if t < k:
            f, d = pivots[k], divs[t]
            for j in range(k, n):
                if not row[j].is_zero():
                    row[j] = f * row[j] if d is None else d(f * row[j])
            age[i] = k
        return row

    for k in range(n - 1):
        p = next((i for i in range(k, n) if not m[i][k].is_zero()), None)
        if p is None:
            return zero
        if p != k:
            for v in (m, age, last):
                v[k], v[p] = v[p], v[k]
            negate = not negate
        top = current(k, k)
        pivot, div = top[k], divs[k]
        pivots.append(pivot)
        divs.append(divider(pivot))
        for i in range(k + 1, n):
            if m[i][k].is_zero():
                if last[i] <= k:
                    return zero
                continue
            row = current(i, k)
            a = row[k]
            end = -1
            for j in range(k + 1, n):
                b, c = row[j], top[j]
                if c.is_zero():
                    if b.is_zero():
                        continue
                    x = pivot * b
                elif b.is_zero():
                    x = -(a * c)
                else:
                    x = pivot * b - a * c
                if div is not None:
                    x = div(x)
                row[j] = x
                if not x.is_zero():
                    end = j
            if end < 0:
                return zero
            age[i], last[i] = k + 1, end
    det = current(n - 1, n - 1)[-1]
    return -det if negate else det


def _cofactor(rows, zero, one):
    n = len(rows)
    if n == 0:
        return one
    if n == 1:
        return rows[0][0]
    total = zero
    for j, a in enumerate(rows[0]):
        if not a.is_zero():
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = a * _cofactor(minor, zero, one)
            total = total + term if j % 2 == 0 else total - term
    return total


def mat_mul(a, b):
    """Product of matrices given as dict rows {column: entry}, as dict rows;
    the entries may be ints.  Zero entries of either factor cost no
    arithmetic, and a row of b is scanned only when a uses it."""
    b_rows = {}  # k -> the nonzero (j, b[k][j])
    out = []
    for ai in a:
        acc = {}
        for k, f in ai.items():
            if not f:
                continue
            bk = b_rows.get(k)
            if bk is None:
                bk = b_rows[k] = [(j, x) for j, x in b[k].items() if x]
            for j, x in bk:
                y = f * x
                acc[j] = acc[j] + y if j in acc else y
        out.append({j: v for j, v in acc.items() if v})
    return out

