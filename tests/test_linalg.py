"""Property test of the sparse elimination behind `rref`, `nullspace` and
`solve` against a dense Gauss-Jordan reference.  Needs hypothesis (the
`test` extra)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formforge import QQ, ZeroDivisor, field_extend  # noqa: E402
from formforge.linalg import nullspace, rref, solve  # noqa: E402

Q_SQRT2 = field_extend(QQ, [-2, 0, 1])
Q_TIMES_Q = field_extend(QQ, [-1, 0, 1])  # Q[t]/(t^2 - 1): t - 1 has no inverse


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


_small = st.integers(-2, 2)


def _entry(field):
    if field is QQ:
        return _small.map(field.from_rational)
    return st.lists(_small, min_size=2, max_size=2).map(field.element)


@st.composite
def _system(draw, field):
    """A matrix with zero and repeated rows mixed in, and a right-hand side
    that is either random or in the column span."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(_entry(field), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
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
        x = draw(st.lists(_entry(field), min_size=ncols, max_size=ncols))
        rhs = [sum((a * b for a, b in zip(r, x)), field.zero) for r in rows]
    else:
        rhs = draw(st.lists(_entry(field), min_size=len(rows), max_size=len(rows)))
    return rows, ncols, rhs


@pytest.mark.parametrize("field", [QQ, Q_SQRT2, Q_TIMES_Q], ids=["Q", "Q(sqrt2)", "QxQ"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_elimination_matches_dense(field, data):
    rows, ncols, rhs = data.draw(_system(field))
    expect = outcome(dense_rref, field, rows)
    assert outcome(rref, field, rows) == expect
    red = outcome(rref, field, as_dicts(rows))
    if expect is ZeroDivisor:
        assert red is ZeroDivisor
    else:
        assert red == (as_dicts(expect[0]), expect[1])
    expect_kernel = outcome(dense_nullspace, field, rows, ncols)
    assert outcome(nullspace, field, rows, ncols) == expect_kernel
    assert outcome(nullspace, field, as_dicts(rows), ncols) == expect_kernel
    expect_x = outcome(dense_solve, field, rows, rhs)
    assert outcome(solve, field, rows, rhs) == expect_x
    if rows:
        assert outcome(solve, field, as_dicts(rows), rhs, ncols) == expect_x


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


def test_non_invertible_pivot_raises():
    t = Q_TIMES_Q.element([0, 1])
    pivot = t - Q_TIMES_Q.one  # a zero divisor: (t - 1)(t + 1) = 0
    with pytest.raises(ZeroDivisor):
        rref(Q_TIMES_Q, [[pivot, Q_TIMES_Q.one]])
