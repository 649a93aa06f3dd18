"""Property test of the sparse elimination behind `rref`, `nullspace` and
`solve` against a dense Gauss-Jordan reference.  Needs hypothesis (the
`test` extra)."""

import math
import operator
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formforge import QQ, ZeroDivisor, field_extend  # noqa: E402
from formforge.coeffield import EtaleAlgebra, integral_coordinates  # noqa: E402
from formforge import linalg  # noqa: E402
from formforge.linalg import nullspace, rank, rref, solve  # noqa: E402

Q_SQRT2 = field_extend(QQ, [-2, 0, 1])
Q_CBRT2 = field_extend(QQ, [-2, 0, 0, 1])
Q_HALF = field_extend(QQ, [Fraction(-1, 2), 0, 1])  # Q(sqrt(1/2)): the tensor's den is 2
_OMEGA = field_extend(QQ, [1, 1, 1])
TOWER = field_extend(_OMEGA, [_OMEGA.from_rational(-2), _OMEGA.zero, _OMEGA.zero, _OMEGA.one])
# products of fields
Q_TIMES_Q = field_extend(QQ, [-1, 0, 1])  # Q[t]/(t^2 - 1): t - 1 has no inverse
SQRT2_SQUARED = field_extend(Q_SQRT2, [Q_SQRT2.from_rational(-2), Q_SQRT2.zero, Q_SQRT2.one])
# each product with the zero divisors t - r and t + r, r its root
PRODUCTS = {
    Q_TIMES_Q: (Q_TIMES_Q.gen - Q_TIMES_Q.one, Q_TIMES_Q.gen + Q_TIMES_Q.one),
    SQRT2_SQUARED: tuple(SQRT2_SQUARED.gen + SQRT2_SQUARED.element([Q_SQRT2.element([0, s]), 0])
                         for s in (-1, 1)),
}


def dense_rref(field, rows):
    """Dense Gauss-Jordan with first-nonzero pivoting and row swaps."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    pivots = []
    r0 = 0
    for c in range(len(rows[0])):
        if r0 >= len(rows):
            break
        p = next((r for r in range(r0, len(rows)) if not rows[r][c].is_zero()), None)
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


def dense_nullspace(field, rows, ncols):
    red, pivots = dense_rref(field, rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis


def dense_solve(field, rows, rhs):
    ncols = len(rows[0]) if rows else 0
    red, pivots = dense_rref(field, [list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return tuple(x)


def as_dicts(rows):
    return [{c: x for c, x in enumerate(r) if not x.is_zero()} for r in rows]


def outcome(fn, *args):
    """The result, or the exception type a non-invertible pivot raises."""
    try:
        return fn(*args)
    except ZeroDivisor:
        return ZeroDivisor


def restricted(field, rows):
    """The restriction of scalars R(rows) as dense rows over Q, by field
    arithmetic: entry x becomes the block whose column l holds the flat
    coordinates of x kappa_l."""
    m = field.absolute_degree
    basis = [field.from_flat([Fraction(int(i == l)) for i in range(m)]) for l in range(m)]
    out = []
    for row in rows:
        blocks = [[field.flat(x * b) for b in basis] for x in row]
        for k in range(m):
            out.append([QQ.from_rational(col[k]) for block in blocks for col in block])
    return out


def q_rank(rows):
    return len(dense_rref(QQ, rows)[1])


def is_unit_pivot_rref(field, red, pivots):
    """Reduced row echelon form with pivot entries one, zero rows last."""
    if pivots != sorted(set(pivots)):
        return False
    for i, row in enumerate(red):
        if i >= len(pivots):
            if any(not x.is_zero() for x in row):
                return False
            continue
        pc = pivots[i]
        if row[pc] != field.one or any(not x.is_zero() for x in row[:pc]):
            return False
        if any(not red[j][pc].is_zero() for j in range(len(red)) if j != i):
            return False
    return True


def times(field, rows, x):
    return [sum((a * b for a, b in zip(r, x)), field.zero) for r in rows]


# Over a product of fields the elimination may go on where the dense
# reference meets a zero-divisor pivot and raises.  Each answer it then gives
# must still be right, which these two check.


def check_reduced(field, rows, ncols, red, kernel):
    """ZeroDivisor from both, or a unit-pivot reduced form whose restriction
    to Q has the row space of R(rows), and a kernel basis, A v = 0, of one
    vector per free column."""
    assert (red is ZeroDivisor) == (kernel is ZeroDivisor)
    if red is ZeroDivisor:
        return
    red, pivots = red
    assert is_unit_pivot_rref(field, red, pivots)
    ra, re = restricted(field, rows), restricted(field, red)
    assert q_rank(ra) == q_rank(re) == q_rank(ra + re)
    assert len(kernel) == ncols - len(pivots)
    for v in kernel:
        assert all(y.is_zero() for y in times(field, rows, v))


def check_solution(field, rows, rhs, x):
    """ZeroDivisor, a solution of A x = b, or None when R(A) y = flat(b) has
    no rational solution."""
    if x is None:
        m, ra = field.absolute_degree, restricted(field, rows)
        rb = [ra[i * m + k] + [QQ.from_rational(q)]
              for i, b in enumerate(rhs) for k, q in enumerate(field.flat(b))]
        assert q_rank(rb) > q_rank(ra)
    elif x is not ZeroDivisor:
        assert times(field, rows, x) == list(rhs)


_small = st.integers(-2, 2)
# Rationals with small denominators, and numerators and denominators built
# from large pairwise coprime values, so the integer rows over Q clear
# denominators and remove contents that do not fit a machine word.
_LARGE = (2**61 - 1, 10**18 + 9)
_rational = st.one_of(
    _small,
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(Fraction, st.sampled_from(_LARGE), st.sampled_from(_LARGE)),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.sampled_from(_LARGE)),
)


def _entry(field, coord):
    if field is QQ:
        return coord.map(field.from_rational)
    m = field.absolute_degree
    entry = st.lists(coord, min_size=m, max_size=m).map(
        lambda v: field.from_flat([Fraction(c) for c in v]))
    if field in PRODUCTS:
        entry = st.one_of(entry, st.builds(operator.mul, entry, st.sampled_from(PRODUCTS[field])))
    return entry


@st.composite
def _system(draw, field, coord, max_size):
    """A matrix with zero and repeated rows mixed in, and a right-hand side
    that is either random or in the column span."""
    entry = _entry(field, coord)
    ncols = draw(st.integers(1, max_size))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=max_size))
    for kind in draw(st.lists(st.sampled_from(["zero", "copy", "sum"]), max_size=2)):
        if kind == "zero":
            rows.append([field.zero] * ncols)
        elif rows and kind == "copy":
            rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
        elif len(rows) >= 2:
            rows.append([a + b for a, b in zip(rows[0], rows[-1])])
    if rows:
        order = draw(st.permutations(range(len(rows))))
        rows = [rows[i] for i in order]
    if draw(st.booleans()):
        x = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rhs = [sum((a * b for a, b in zip(r, x)), field.zero) for r in rows]
    else:
        rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return rows, ncols, rhs


@pytest.mark.parametrize(
    "field, coord, max_size",
    [
        pytest.param(QQ, _small, 5, id="Q"),
        pytest.param(QQ, _rational, 8, id="Q-rational"),
        pytest.param(Q_SQRT2, _small, 5, id="Q(sqrt2)"),
        pytest.param(Q_CBRT2, _small, 4, id="Q(cbrt2)"),
        pytest.param(Q_HALF, _small, 4, id="Q(sqrt(1/2))"),
        pytest.param(TOWER, _small, 3, id="Q(w)(cbrt2)"),
        pytest.param(Q_TIMES_Q, _small, 5, id="QxQ"),
        pytest.param(SQRT2_SQUARED, _small, 4, id="Q(sqrt2)xQ(sqrt2)"),
    ],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_elimination_matches_dense(field, coord, max_size, data):
    check_system(field, *data.draw(_system(field, coord, max_size)))


def check_system(field, rows, ncols, rhs):
    """Equal results over a field.  Over a product of fields equal results
    where the dense reference succeeds, and `check_reduced` and
    `check_solution` where it raises."""
    expect = outcome(dense_rref, field, rows)
    expect_kernel = outcome(dense_nullspace, field, rows, ncols)
    expect_x = outcome(dense_solve, field, rows, rhs)
    if field not in PRODUCTS:
        assert ZeroDivisor not in (expect, expect_kernel, expect_x)
    got = outcome(rref, field, rows)
    red = outcome(rref, field, as_dicts(rows))
    assert red == (got if got is ZeroDivisor else (as_dicts(got[0]), got[1]))
    kernel = outcome(nullspace, field, rows, ncols)
    assert outcome(nullspace, field, as_dicts(rows), ncols) == kernel
    x = outcome(solve, field, rows, rhs)
    if rows:
        assert outcome(solve, field, as_dicts(rows), rhs, ncols) == x
    if expect is ZeroDivisor:
        check_reduced(field, rows, ncols, got, kernel)
    else:
        assert (got, kernel) == (expect, expect_kernel)
    if expect_x is ZeroDivisor:
        check_solution(field, rows, rhs, x)
    else:
        assert x == expect_x
    # the same rows in ints, scaled by +-(i + 1) so that some are not
    # primitive and some lead negative: an int over Q, a flat int vector
    # over K; their kernel is that of the rows of field elements
    ints, m = [], field.absolute_degree
    for i, row in enumerate(as_dicts(rows)):
        a, _ = integral_coordinates([q for x in row.values() for q in field.flat(x)])
        a = [v * (i + 1) * (-1) ** i for v in a]
        ints.append({c: a[k] if field is QQ else a[k * m:k * m + m] for k, c in enumerate(row)})
    assert outcome(nullspace, field, ints, ncols) == kernel
    if field is QQ:
        # primitive rows with a positive pivot come back, each a positive
        # multiple of the reduced row
        red, pivots = rref(QQ, ints)
        assert pivots == expect[1]
        for row, c, want in zip(red, pivots, as_dicts(expect[0])):
            assert row[c] > 0 and math.gcd(*row.values()) == 1
            assert {k: QQ.from_rational(Fraction(v, row[c])) for k, v in row.items()} == want
        assert red[len(pivots):] == [{}] * (len(rows) - len(pivots))


@st.composite
def _slot_system(draw, field, coord):
    """The shape of the slot-sliding equations: several times more rows than
    columns, of rank below the column count.  Independent rows leading at
    distinct columns come in any order, so a later row may lead left of an
    earlier basis row's pivot (and be reduced there) or right of one that
    holds its column (and that basis row is cleared).  Anywhere among them come
    copies, sign-flipped sums of two rows, multiples and zero rows, so a
    row in the span may come before the rows it is a sum of."""
    entry = _entry(field, coord)
    nonzero = entry.filter(lambda x: not x.is_zero())
    ncols = draw(st.integers(2, 6))
    leads = draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=ncols - 1, unique=True))
    rows = [[field.zero] * c + [draw(nonzero)] + draw(st.lists(entry, min_size=ncols - c - 1,
                                                               max_size=ncols - c - 1))
            for c in leads]
    for _ in range(draw(st.integers(2 * len(rows), 3 * len(rows) + 2))):
        kind = draw(st.sampled_from(["copy", "negsum", "multiple", "zero"]))
        a, b = (rows[draw(st.integers(0, len(rows) - 1))] for _ in range(2))
        if kind == "copy":
            new = list(a)
        elif kind == "negsum":
            new = [-(x + y) for x, y in zip(a, b)]
        elif kind == "multiple":
            f = draw(nonzero)
            new = [f * x for x in b]
        else:
            new = [field.zero] * ncols
        rows.insert(draw(st.integers(0, len(rows))), new)
    if draw(st.booleans()):
        x = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rhs = [sum((a * b for a, b in zip(r, x)), field.zero) for r in rows]
    else:
        rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return rows, ncols, rhs


@pytest.mark.parametrize(
    "field, coord",
    [
        pytest.param(QQ, _rational, id="Q-rational"),
        pytest.param(Q_SQRT2, _small, id="Q(sqrt2)"),
        pytest.param(Q_TIMES_Q, _small, id="QxQ"),
    ],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_overdetermined_rank_deficient_systems_match_dense(field, coord, data):
    """Systems shaped like the slot-sliding equations, as `check_system`
    checks them."""
    check_system(field, *data.draw(_slot_system(field, coord)))


def test_rows_in_the_span_cost_one_reduction_per_pivot_they_hold(monkeypatch):
    """Appending k rows in the span of a rank-r system of int rows costs at
    most k r reductions, each by a basis row of the system, so no basis row
    changes; the reduced rows are the system's."""
    rng = random.Random(11)
    r, k = 5, 30
    base = [{c: v for c in range(12) if (v := rng.randint(-9, 9))} for _ in range(r)]
    span = []
    for _ in range(k):
        xs = [rng.randint(-4, 4) for _ in base]
        span.append({c: v for c in range(12)
                     if (v := sum(x * row.get(c, 0) for x, row in zip(xs, base)))})
    calls = []
    reduce = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce",
                        lambda row, prow, c: calls.append(dict(prow)) or reduce(row, prow, c))
    red, pivots = rref(QQ, base)
    assert len(pivots) == r
    first = list(calls)
    got = rref(QQ, base + span)
    assert got == (red + [{}] * k, pivots)
    added = calls[2 * len(first):]
    assert calls[len(first):2 * len(first)] == first
    assert 0 < len(added) <= k * r
    assert all(prow in red for prow in added)


def test_edge_cases():
    one, zero = QQ.one, QQ.zero
    assert nullspace(QQ, [], 3) == [
        tuple(one if i == j else zero for j in range(3)) for i in range(3)
    ]
    assert rref(QQ, []) == ([], [])
    assert solve(QQ, [], []) == ()
    # x + y = 1 and x + y = 2 have no common solution
    assert solve(QQ, [[one, one], [one, one]], [one, one + one]) is None
    assert solve(QQ, [{0: one, 1: one}, {}], [one, one], 2) is None
    with pytest.raises(ValueError):
        nullspace(QQ, [])
    with pytest.raises(ValueError):
        nullspace(QQ, [{0: one}])
    with pytest.raises(ValueError):
        solve(QQ, [{0: one}], [one])
    # int rows: the kernel vector of 2 x + y = 0 is (-1/2, 1), not the
    # reduced row's ints
    assert nullspace(QQ, [{0: 2, 1: 1}], 2) == [(QQ.from_rational(Fraction(-1, 2)), one)]


def test_non_invertible_pivot_raises():
    t = Q_TIMES_Q.element([0, 1])
    pivot = t - Q_TIMES_Q.one  # a zero divisor: (t - 1)(t + 1) = 0
    with pytest.raises(ZeroDivisor):
        rref(Q_TIMES_Q, [[pivot, Q_TIMES_Q.one]])


def test_entries_over_another_field_raise():
    """Over Q the elimination reads an entry's rational coordinate, so an
    entry over Q(sqrt2) must be refused, not cut down to its rational part."""
    r2 = Q_SQRT2.element([0, 1])
    one = QQ.one
    calls = [
        lambda: rref(QQ, [[r2]]),
        lambda: rref(QQ, [[one], [r2]]),
        lambda: rref(QQ, [{0: one}, {0: r2 + Q_SQRT2.one}]),
        lambda: nullspace(QQ, [[one, r2]], 2),
        lambda: solve(QQ, [[one]], [r2]),
        lambda: rref(Q_SQRT2, [[one]]),
        lambda: solve(Q_SQRT2, [[Q_SQRT2.one]], [one]),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="mixed-field arithmetic"):
            call()


@pytest.mark.parametrize("field", [Q_SQRT2, TOWER], ids=["Q(sqrt2)", "Q(w)(cbrt2)"])
def test_elimination_over_a_field_multiplies_no_field_elements(monkeypatch, field):
    """`rref`, `rank` and `nullspace` over K eliminate on the restriction of
    scalars in ints: no `EtaleAlgebra._mul` or `_inv` call once the field's
    tensor is built, and the dense reference's results."""
    rng = random.Random(7)
    m = field.absolute_degree

    def element():
        return field.from_flat([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)])

    rows = [[element() for _ in range(5)] for _ in range(3)]
    rows.append([a + b for a, b in zip(rows[0], rows[1])])
    rows.append([field.gen * a for a in rows[2]])
    expect = (dense_rref(field, rows), 3, dense_nullspace(field, rows, 5))
    field.tensor()
    calls = []

    def counted(name):
        fn = getattr(EtaleAlgebra, name)
        return lambda self, *args: calls.append(name) or fn(self, *args)

    for name in ("_mul", "_inv"):
        monkeypatch.setattr(EtaleAlgebra, name, counted(name))
    got = (rref(field, rows), rank(field, rows), nullspace(field, rows, 5))
    monkeypatch.undo()
    assert calls == [] and got == expect
