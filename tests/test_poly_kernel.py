"""Property tests of the integer evaluation kernels of Polynomial.eval: over Q
against a term-by-term Fraction sum, and over etale algebras against
`oracles.generic_eval`, which multiplies field elements one at a time.  Needs
hypothesis (the `test` extra)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formforge import Polynomial, QQ, ZeroDivisor, field_extend  # noqa: E402
from formforge.coeffield import poly_divmod, poly_mul  # noqa: E402
from oracles import generic_eval  # noqa: E402

_coeff = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
_coord = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9)),
)


@st.composite
def _poly_and_point(draw):
    n = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    pairs = draw(st.lists(st.tuples(exps, _coeff), max_size=6))
    point = draw(st.lists(_coord, min_size=n, max_size=n))
    return n, pairs, point


def _fraction_sum(pairs, point):
    """Term-by-term value; repeated exponents add up as in from_pairs."""
    total = Fraction(0)
    for e, c in pairs:
        v = c
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        total += v
    return total


@settings(max_examples=300, deadline=None)
@given(_poly_and_point())
def test_eval_over_q_matches_fraction_sum(case):
    n, pairs, point = case
    p = Polynomial.from_pairs(QQ, n, pairs)
    expected = _fraction_sum(pairs, point)
    assert p.eval([QQ.from_rational(x) for x in point]) == QQ.from_rational(expected)
    if all(isinstance(x, int) for x in point):
        assert p.eval_int(point) == QQ.from_rational(expected)
    # a second call reuses the compiled form
    assert p.eval([QQ.from_rational(x) for x in point]).coeffs[0] == expected


# ---------------------------------------------------------------------------
# etale algebras: the flat basis and its multiplication tensor

_SQRT2 = field_extend(QQ, [-2, 0, 1])
FIELDS = {
    "sqrt2": _SQRT2,
    "cbrt2": field_extend(QQ, [-2, 0, 0, 1]),
    "sqrt2-cbrt2": field_extend(_SQRT2, [-2, 0, 0, 1]),  # a tower of degree 6
    "t2-half": field_extend(QQ, [Fraction(-1, 2), 0, 1]),  # tensor denominator 2
    "split": field_extend(QQ, [-1, 0, 1]),  # Q x Q, not a field
}
_field = st.sampled_from(sorted(FIELDS))


def _element(draw, field):
    """A rational, an element with integer flat coordinates or one with
    rational flat coordinates, some of them zero."""
    kind = draw(st.sampled_from(("rational", "int", "fraction")))
    if kind == "rational":
        return field.from_rational(draw(_coord))
    entry = st.integers(-9, 9) if kind == "int" else _coeff
    m = field.absolute_degree
    return field.from_flat([Fraction(q) for q in draw(st.lists(entry, min_size=m, max_size=m))])


@st.composite
def _etale_poly_and_point(draw):
    field = FIELDS[draw(_field)]
    n = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    pairs = [(draw(exps), _element(draw, field)) for _ in range(draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        point = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    else:
        point = [_element(draw, field) for _ in range(n)]
    return field, Polynomial.from_pairs(field, n, pairs), point


@settings(max_examples=150, deadline=None)
@given(_etale_poly_and_point())
def test_eval_over_etale_matches_generic_eval(case):
    field, p, point = case
    if point and isinstance(point[0], int):
        expected = generic_eval(p, [field.from_rational(x) for x in point])
        assert p.eval_int(point) == expected
    else:
        expected = generic_eval(p, point)
    elements = [x if not isinstance(x, int) else field.from_rational(x) for x in point]
    assert p.eval(elements) == expected
    # a second call reuses the compiled form
    assert p.eval(elements) == expected


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_eval_over_etale_zero_polynomial_and_no_variables(name):
    field = FIELDS[name]
    c = field.from_flat([Fraction(k + 1, 3) for k in range(field.absolute_degree)])
    assert Polynomial.zero(field, 2).eval_int((3, -4)) == field.zero
    assert Polynomial.zero(field, 2).eval([c, c]) == field.zero
    assert Polynomial.zero(field, 0).eval([]) == field.zero
    assert Polynomial.const(field, 0, c).eval_int(()) == c
    assert Polynomial.const(field, 0, c).eval([]) == c


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tensor_product_matches_polynomial_remainder(data):
    field = FIELDS[data.draw(_field)]
    x, y = _element(data.draw, field), _element(data.draw, field)
    prod = poly_mul(field.base, list(x.coeffs), list(y.coeffs))
    _, rem = poly_divmod(field.base, prod, list(field.minpoly))
    rem += [field.base.zero] * (field.degree - len(rem))
    assert x * y == field.element(rem)
    assert field.from_flat(field.flat(x)) == x


def test_tensor_denominators():
    assert [FIELDS[name].tensor()[1] for name in sorted(FIELDS)] == [1, 1, 1, 1, 2]
    odd = field_extend(QQ, [Fraction(1, 3), Fraction(-5, 7), Fraction(2, 9), 1])
    assert odd.tensor()[1] == 567


def test_split_quadratic_idempotents():
    """In Q[t]/(t^2 - 1) the idempotents (1 + t)/2 and (1 - t)/2 multiply to
    zero, and inverting either exposes the factor t + 1 or t - 1."""
    A = FIELDS["split"]
    half = Fraction(1, 2)
    e1, e2 = A.element([half, half]), A.element([half, -half])
    assert e1 * e2 == A.zero
    assert e1 * e1 == e1 and e2 * e2 == e2
    assert e1 + e2 == A.one
    for e, hint in ((e1, (1, 1)), (e2, (-1, 1))):
        with pytest.raises(ZeroDivisor, match="zero divisor") as exc:
            e.inv()
        assert exc.value.hint == tuple(QQ.from_rational(c) for c in hint)
