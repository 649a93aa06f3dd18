"""Property tests of the one determinant routine, `linalg.bareiss` behind
`linalg.determinant` and `poly.ring_matrix_determinant`, against the
permutation sum, and of the heap `Polynomial.exact_div` against long
division.  Needs hypothesis (the `test` extra)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formforge import NotDivisible, Polynomial, QQ, ZeroDivisor, field_extend, linalg  # noqa: E402
from formforge.poly import ring_matrix_determinant  # noqa: E402
from oracles import leibniz_determinant, long_division  # noqa: E402

Q_SQRT2 = field_extend(QQ, [-2, 0, 1])
Q_TIMES_Q = field_extend(QQ, [-1, 0, 1])  # Q[t]/(t^2 - 1): t - 1 has no inverse

_small = st.integers(-2, 2)


def _scalar(field):
    if field is QQ:
        return _small.map(field.from_rational)
    pairs = st.lists(_small, min_size=2, max_size=2)
    if field is Q_TIMES_Q:
        # a(1 + t) and a(1 - t) are zero divisors: their product is zero
        signs = st.sampled_from([1, -1])
        pairs = st.one_of(pairs, st.tuples(_small, signs).map(lambda a: [a[0], a[0] * a[1]]))
    return pairs.map(field.element)


def _poly(field, nvars, max_terms, max_deg):
    exps = st.tuples(*[st.integers(0, max_deg)] * nvars)
    pairs = st.lists(st.tuples(exps, _scalar(field)), max_size=max_terms)
    return pairs.map(lambda p: Polynomial.from_pairs(field, nvars, p))


@st.composite
def _matrix(draw, entry, zero, max_n):
    """A square matrix, sparse or dense.  When the drawn rank r is below n,
    the rows past the first r are combinations of those, with coefficients
    drawn like entries, and they sit first, in the middle or last."""
    if draw(st.booleans()):
        entry = st.one_of(st.just(zero), entry)
    n = draw(st.integers(0, max_n))
    r = draw(st.integers(0, n))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(r)]
    dependent = []
    for _ in range(n - r):
        row = [zero] * n
        for base in rows:
            c = draw(entry)
            row = [a + c * x for a, x in zip(row, base)]
        dependent.append(row)
    where = draw(st.sampled_from([0, r // 2, r]))
    return rows[:where] + dependent + rows[where:], r < n


@pytest.mark.parametrize("field", [QQ, Q_SQRT2, Q_TIMES_Q], ids=["Q", "Q(sqrt2)", "QxQ"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scalar_determinant_matches_permutation_sum(field, data):
    rows, singular = data.draw(_matrix(_scalar(field), field.zero, 5))
    det = linalg.determinant(field, rows)
    assert det == leibniz_determinant(rows, field.zero, field.one)
    if singular:
        assert det.is_zero()


@pytest.mark.parametrize(
    "field, nvars, max_n", [(QQ, 3, 5), (Q_TIMES_Q, 2, 3)], ids=["Q[x,y,z]", "QxQ[x,y]"]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_polynomial_determinant_matches_permutation_sum(field, nvars, max_n, data):
    zero = Polynomial.zero(field, nvars)
    one = Polynomial.const(field, nvars, field.one)
    rows, singular = data.draw(_matrix(_poly(field, nvars, 3, 2), zero, max_n))
    det = ring_matrix_determinant(rows, zero)
    assert det == leibniz_determinant(rows, zero, one)
    if singular:
        assert det.is_zero()


def test_empty_matrix_has_determinant_one():
    assert linalg.determinant(QQ, []) == QQ.one
    assert ring_matrix_determinant([], Polynomial.zero(QQ, 2)) == Polynomial.const(QQ, 2, 1)


def test_swap_keeps_each_stale_row_scaling():
    """Step 0 updates rows 1 and 3 and leaves row 2 alone (a zero in column
    0); step 1 swaps rows 1 and 2, whose entries are then up to date with
    different steps.  Mixing up their scalings breaks an exact division."""
    x = Polynomial.variable(QQ, 1, 0)
    one, zero = Polynomial.const(QQ, 1, 1), Polynomial.zero(QQ, 1)
    rows = [
        [x + one, zero, zero, x],
        [x + one, zero, x + x, x + one],
        [zero, x + x, x + x, x],
        [one, zero, one, x + x],
    ]
    assert ring_matrix_determinant(rows, zero) == leibniz_determinant(rows, zero, one)


def test_zero_divisor_pivot_falls_back_to_cofactors(monkeypatch):
    """Over Q[t]/(t^2 - 1) the idempotent e = (1 + t)/2 is a nonzero pivot
    that is not invertible.  After the first step the second row is zero,
    yet the determinant is 1 - e: the zero shortcut must not fire, and the
    cofactor expansion gives the value."""
    e = Q_TIMES_Q.element([Fraction(1, 2), Fraction(1, 2)])
    one, zero = Q_TIMES_Q.one, Q_TIMES_Q.zero
    rows = [[e, one - e, zero], [e, zero, one - e], [one, one + one, one]]
    calls = []
    cofactor = linalg._cofactor
    monkeypatch.setattr(linalg, "_cofactor", lambda *a: calls.append(1) or cofactor(*a))
    det = linalg.determinant(Q_TIMES_Q, rows)
    assert calls
    assert det == one - e == leibniz_determinant(rows, zero, one)
    x = Polynomial.variable(Q_TIMES_Q, 1, 0)
    c = lambda v: Polynomial.const(Q_TIMES_Q, 1, v)  # noqa: E731
    poly_rows = [[c(v) * x for v in row] for row in rows]
    calls.clear()
    det = ring_matrix_determinant(poly_rows, c(zero))
    assert calls
    assert det == c(one - e) * x * x * x


@pytest.mark.parametrize("field", [QQ, Q_SQRT2, Q_TIMES_Q], ids=["Q", "Q(sqrt2)", "QxQ"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_div_inverts_multiplication(field, data):
    """Over Q[t]/(t^2 - 1) a product of two nonzero coefficients can be zero,
    so the remainder meets cancellations that leave no term."""
    nvars = data.draw(st.integers(1, 3))
    p = data.draw(_poly(field, nvars, 5, 3))
    q = data.draw(_poly(field, nvars, 4, 2))
    if q.is_zero():
        q = Polynomial.const(field, nvars, field.one)
    e, c = q.leading_term()
    try:
        c.inv()
    except ZeroDivisor:
        # exact_div needs an invertible leading coefficient: make it one
        q = q + Polynomial(field, nvars, {e: field.one - c})
    assert (p * q).exact_div(q) == p == long_division(p * q, q)
    if q.total_degree() >= 1:
        # a nonzero r of lower degree than q leaves a remainder
        r = data.draw(_poly(field, nvars, 3, q.total_degree() - 1))
        r = Polynomial(field, nvars, {e: c for e, c in r.terms.items() if sum(e) < q.total_degree()})
        if r.is_zero():
            r = Polynomial.const(field, nvars, field.one)
        with pytest.raises(NotDivisible):
            (p * q + r).exact_div(q)
