"""Property tests of the packed kernels of Polynomial: arithmetic over Q and
over etale algebras, on packed exponents, against the dict arithmetic of
`oracles` (one field-element operation per pair of terms), evaluation over Q
against a term-by-term Fraction sum, and evaluation over etale algebras and
compiled evaluation programs against `oracles.generic_eval`, which
multiplies field elements one at a time.
Products through a `StructureTensor` are checked against the dense
`oracles.structure_product`.  Needs hypothesis (the `test` extra)."""

import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formforge import NotDivisible, Polynomial, QQ, ZeroDivisor, field_extend  # noqa: E402
from formforge.coeffield import (  # noqa: E402
    EtaleAlgebra,
    StructureTensor,
    from_coordinates,
    to_coordinates,
)
from formforge.constructions import det_norm  # noqa: E402
from formforge.poly import SAMPLE_BATCH, EvalProgram, linear_forms  # noqa: E402
from oracles import (  # noqa: E402
    dict_add,
    dict_compose,
    dict_mul,
    generic_eval,
    heap_exact_div,
    int_columns,
    linear_forms_from_terms,
    poly_divmod,
    poly_mul,
    poly_scale,
    poly_xgcd,
    structure_product,
    vector_columns,
)

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
# arithmetic over Q: packed exponents, integer numerators, one denominator

# large denominators, pairwise coprime and coprime to the small ones
_LARGE_DENS = (2**61 - 1, 10**18 + 9, 3**40, 7**25)
_q_coeff = st.one_of(
    _coeff,
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.sampled_from(_LARGE_DENS)),
)
# small exponents and powers of two, on both sides of 2^k
_edge_exp = st.sampled_from((0, 1, 2, 3, 4, 7, 8, 15, 16))


def _q_poly(draw, n, exp, max_terms):
    exps = st.tuples(*[exp] * n)
    return Polynomial.from_pairs(
        QQ, n, draw(st.lists(st.tuples(exps, _q_coeff), max_size=max_terms))
    )


def _outcome(divide):
    try:
        return divide()
    except (NotDivisible, ZeroDivisor) as exc:
        return type(exc)


def _same(kernel, oracle):
    """Equal as values and as term views."""
    assert kernel == oracle
    assert kernel.terms == oracle.terms


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_q_arithmetic_matches_dict_oracles(data):
    n = data.draw(st.integers(0, 3))
    p = _q_poly(data.draw, n, _edge_exp, 4)
    q = _q_poly(data.draw, n, _edge_exp, 4)
    _same(p + q, dict_add(p, q))
    _same(p - q, dict_add(p, q, subtract=True))
    assert (p - p).is_zero() and (p + -p).terms == {} and (p - p).total_degree() == -1
    pq = p * q
    _same(pq, dict_mul(p, q))
    k = data.draw(st.integers(0, 3))
    power = Polynomial.const(QQ, n, 1)
    for _ in range(k):
        power = dict_mul(power, p)
    _same(p**k, power)
    c = data.draw(_q_coeff)
    _same(p.scale(c), dict_mul(p, Polynomial.const(QQ, n, c)))
    if not q.is_zero():
        _same(pq.exact_div(q), p)
        _same(pq.exact_div(q), heap_exact_div(pq, q))
        e = data.draw(st.tuples(*[_edge_exp] * n))
        r = pq + Polynomial.from_pairs(QQ, n, [(e, data.draw(_q_coeff))])
        kernel, oracle = _outcome(lambda: r.exact_div(q)), _outcome(lambda: heap_exact_div(r, q))
        if oracle is NotDivisible:
            assert kernel is NotDivisible
        else:
            _same(kernel, oracle)
    # the integer form read back through the views and the evaluation kernel
    assert Polynomial(QQ, n, pq.terms) == pq
    point = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    assert pq.eval_int(point) == p.eval_int(point) * q.eval_int(point)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_q_compose_matches_dict_oracle(data):
    n = data.draw(st.integers(0, 3))
    m = data.draw(st.integers(0, 4))  # the ambient ring of the arguments
    p = _q_poly(data.draw, n, st.integers(0, 3), 4)
    args = [_q_poly(data.draw, m, st.integers(0, 2), 3) for _ in range(n)]
    _same(p.compose(args), dict_compose(p, args))


def test_q_products_across_packing_widths():
    """A running product x^k, for k across the old per-degree widths (x^3
    filled a 2-bit field, x^15 a 4-bit one), and x^1000: products,
    quotients and embeddings give the expected monomials at every step, and
    a composition matches the oracle."""
    x, y = Polynomial.variable(QQ, 2, 0), Polynomial.variable(QQ, 2, 1)
    one = Polynomial.const(QQ, 2, 1)
    p = one
    for k in range(1, 41):
        p = p * x
        assert p.terms == {(k, 0): QQ.one}
        py = p * y
        assert py.terms == {(k, 1): QQ.one}
        _same(py.exact_div(y), p)
        _same(py.exact_div(p), y)
        assert _outcome(lambda: p.exact_div(py)) is NotDivisible
        assert _outcome(lambda: y.exact_div(x)) is NotDivisible
        assert py.embed(3, 1).terms == {(0, k, 1): QQ.one}
    assert (x**1000).terms == {(1000, 0): QQ.one}
    s = x + y.scale(Fraction(1, 10**18 + 9))
    _same(s.compose([p, p]), dict_compose(s, [p, p]))


def test_q_edge_cases():
    zero0, one0 = Polynomial.zero(QQ, 0), Polynomial.const(QQ, 0, Fraction(3, 7))
    assert (zero0 + one0) == one0
    assert (one0 * one0).terms == {(): QQ.from_rational(Fraction(9, 49))}
    assert one0.compose([]) == one0 and one0.exact_div(one0) == Polynomial.const(QQ, 0, 1)
    with pytest.raises(ZeroDivisionError):
        one0.exact_div(zero0)
    x = Polynomial.variable(QQ, 1, 0)
    half = Polynomial.const(QQ, 1, Fraction(1, 2))
    # (x + 1/2) - (x - 1/2) - 1 cancels to zero, with its denominator
    assert ((x + half) - (x - half) - Polynomial.const(QQ, 1, 1)).is_zero()
    assert (x.scale(Fraction(2, 3)) * x.scale(Fraction(3, 2))).terms == {(2,): QQ.one}
    # the quotient of an integer polynomial by 2x is not integral, yet exact
    assert (x * x + x).exact_div(x.scale(2)) == (x + Polynomial.const(QQ, 1, 1)).scale(
        Fraction(1, 2)
    )
    three = Polynomial.const(QQ, 1, 3)
    # the constant term of a composition lies over the arguments' denominators too
    assert (x + three).compose([x.scale(Fraction(1, 2))]) == x.scale(Fraction(1, 2)) + three
    for a, b in (
        (x * x + Polynomial.const(QQ, 1, 1), x.scale(2) + Polynomial.const(QQ, 1, 1)),
        # 3x + 3 - 1 * (2x + 3) leaves x, though the tail cancels the 3
        (x.scale(3) + three, x.scale(2) + three),
    ):
        assert _outcome(lambda: heap_exact_div(a, b)) is NotDivisible
        with pytest.raises(NotDivisible):
            a.exact_div(b)
    # y^2 / x: the exponent of x would borrow from the field of y
    u, v = Polynomial.variable(QQ, 2, 0), Polynomial.variable(QQ, 2, 1)
    with pytest.raises(NotDivisible):
        (v * v).exact_div(u)
    with pytest.raises(NotDivisible):
        (v * v * v + v).exact_div(u * v)


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


_OMEGA = field_extend(QQ, [1, 1, 1])
INVERSE_FIELDS = dict(
    FIELDS,
    tower=field_extend(_OMEGA, [_OMEGA.from_rational(-2), _OMEGA.zero, _OMEGA.zero, _OMEGA.one]),
    sqrt2_sqrt3=field_extend(_SQRT2, [-3, 0, 1]),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inverse_matches_extended_gcd(data):
    """x.inv(), one elimination over Q, is the inverse the extended gcd of x
    and f gives, and raises ZeroDivisor exactly when that gcd is not a
    unit (x zero, or a zero divisor of Q[t]/(t^2 - 1))."""
    field = INVERSE_FIELDS[data.draw(st.sampled_from(sorted(INVERSE_FIELDS)))]
    x = _element(data.draw, field)
    base = field.base
    g, u, _ = poly_xgcd(base, list(x.coeffs), list(field.minpoly))
    if len(g) != 1:
        with pytest.raises(ZeroDivisor):
            x.inv()
        return
    _, rem = poly_divmod(base, poly_scale(base, u, g[0].inv()), list(field.minpoly))
    expect = field.element(rem + [base.zero] * (field.degree - len(rem)))
    assert x.inv() == expect
    assert x * expect == field.one


def test_tensor_denominators():
    assert [FIELDS[name].tensor().den for name in sorted(FIELDS)] == [1, 1, 1, 1, 2]
    odd = field_extend(QQ, [Fraction(1, 3), Fraction(-5, 7), Fraction(2, 9), 1])
    assert odd.tensor().den == 567


def test_split_quadratic_idempotents():
    """In Q[t]/(t^2 - 1) the idempotents (1 + t)/2 and (1 - t)/2 multiply to
    zero, and inverting either raises ZeroDivisor."""
    A = FIELDS["split"]
    half = Fraction(1, 2)
    e1, e2 = A.element([half, half]), A.element([half, -half])
    assert e1 * e2 == A.zero
    assert e1 * e1 == e1 and e2 * e2 == e2
    assert e1 + e2 == A.one
    for e in (e1, e2):
        with pytest.raises(ZeroDivisor, match="zero divisor"):
            e.inv()


# ---------------------------------------------------------------------------
# arithmetic over etale algebras


def _etale_poly(draw, field, n, exp, max_terms):
    exps = st.tuples(*[exp] * n)
    pairs = [(draw(exps), _element(draw, field)) for _ in range(draw(st.integers(0, max_terms)))]
    return Polynomial.from_pairs(field, n, pairs)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_etale_arithmetic_matches_dict_oracles(data):
    """Sums, products, powers, scaling, exact division, embedding and
    composition over Q(sqrt 2), Q(cbrt 2), the tower and the two quadratic
    algebras against the dict oracles.  Division gives the oracle's quotient,
    or the same NotDivisible or ZeroDivisor (a zero-divisor leading
    coefficient over Q[t]/(t^2 - 1))."""
    field = FIELDS[data.draw(_field)]
    n = data.draw(st.integers(0, 3))
    p = _etale_poly(data.draw, field, n, st.integers(0, 3), 4)
    q = _etale_poly(data.draw, field, n, st.integers(0, 3), 4)
    _same(p + q, dict_add(p, q))
    _same(p - q, dict_add(p, q, subtract=True))
    assert (p - p).is_zero() and (p - p).total_degree() == -1
    pq = p * q
    _same(pq, dict_mul(p, q))
    k = data.draw(st.integers(0, 3))
    power = Polynomial.const(field, n, field.one)
    for _ in range(k):
        power = dict_mul(power, p)
    _same(p**k, power)
    c = _element(data.draw, field)
    _same(p.scale(c), dict_mul(p, Polynomial.const(field, n, c)))
    if not q.is_zero():
        e = data.draw(st.tuples(*[st.integers(0, 3)] * n))
        r = pq + Polynomial.from_pairs(field, n, [(e, _element(data.draw, field))])
        for a in (pq, r):
            kernel, oracle = _outcome(lambda: a.exact_div(q)), _outcome(lambda: heap_exact_div(a, q))
            if oracle in (NotDivisible, ZeroDivisor):
                assert kernel is oracle
            else:
                _same(kernel, oracle)
        if _outcome(lambda: pq.exact_div(q)) is not ZeroDivisor:
            _same(pq.exact_div(q), p)
    nv = n + data.draw(st.integers(0, 2))
    offset = data.draw(st.integers(0, nv - n))
    pad_lo, pad_hi = (0,) * offset, (0,) * (nv - n - offset)
    assert p.embed(nv, offset).terms == {pad_lo + e + pad_hi: v for e, v in p.terms.items()}
    m = data.draw(st.integers(0, 3))
    args = [_etale_poly(data.draw, field, m, st.integers(0, 2), 3) for _ in range(n)]
    _same(p.compose(args), dict_compose(p, args))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_etale_linear_forms_match_terms_oracle(data):
    field = FIELDS[data.draw(_field)]
    n, nx = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    N = [[_etale_poly(data.draw, field, nx, st.integers(0, 3), 3) for _ in range(n)]
         for _ in range(n)]
    for got, want in zip(linear_forms(N), linear_forms_from_terms(N)):
        _same(got, want)


def test_split_algebra_products_cancel():
    """Over Q[t]/(t^2 - 1), (1 + t) x * (1 - t) y = 0: a product of nonzero
    coefficients that is zero leaves no term in a product, a scaling or a
    composition, and a divisor whose leading coefficient is a zero divisor
    raises ZeroDivisor."""
    A = FIELDS["split"]
    t = A.element([0, 1])
    x, y = Polynomial.variable(A, 2, 0), Polynomial.variable(A, 2, 1)
    a, b = x.scale(A.one + t), y.scale(A.one - t)
    assert (a * b).is_zero() and (a * b).terms == {} and (a * b).total_degree() == -1
    assert (a * (b + x)).terms == {(2, 0): A.one + t}
    assert a.scale(A.one - t).is_zero()
    assert (a + y).compose([x.scale(A.one - t), y]) == y
    assert _outcome(lambda: (a * y).exact_div(a + y)) is ZeroDivisor
    assert _outcome(lambda: heap_exact_div(a * y, a + y)) is ZeroDivisor


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_products_at_the_reduction_boundary(name):
    """The last flat basis element g has every generator at m_i - 1, so the
    key of g * g carries 2(m_i - 1), the most a generator field holds, in
    every field before `_reduce`.  Products, a scaling, a composition and a
    division through it agree with field-element arithmetic, every key
    comes back reduced, and the readers of the key groups see the
    coefficients."""
    field = FIELDS[name]
    m = field.absolute_degree
    g = field.from_flat([Fraction(int(k == m - 1)) for k in range(m)])
    h = g + field.from_rational(Fraction(1, 3))
    x, y = Polynomial.variable(field, 2, 0), Polynomial.variable(field, 2, 1)
    p = x.scale(g) + y.scale(h)
    sq = p * p
    _same(sq, dict_mul(p, p))
    assert sq.terms == {(2, 0): g * g, (1, 1): g * h + g * h, (0, 2): h * h}
    composed = p.compose([p, y])
    _same(composed, dict_compose(p, [p, y]))
    _same(sq.scale(g), dict_mul(sq, Polynomial.const(field, 2, g)))
    _same(sq.exact_div(p), p)
    keys = field.generator_keys()
    for q in (sq, composed, sq.scale(g)):
        assert all((k & keys.mask) in keys.index for k in q._nums)
    assert sq.leading_term() == ((2, 0), g * g)
    assert (sq + Polynomial.const(field, 2, h)).constant_coeff() == h
    assert sq.constant_coeff() == field.zero
    assert sq.term_count() == 3 and sorted(sq.exponents()) == [(0, 2), (1, 1), (2, 0)]
    assert sq.total_degree() == 2 and sq.is_homogeneous(2)
    assert sq.is_monic() == (g * g == field.one) and sq.scale((g * g).inv()).is_monic()
    assert x.is_monic() and not x.scale(g).is_monic() and (x + y.scale(g)).is_monic()


def test_etale_products_make_no_field_element_products(monkeypatch):
    """det-3 composed with x_i + (i + 1) y_i and squared over Q(sqrt 2) runs
    in ints on the packed form: no coefficient product goes through
    `EtaleAlgebra._mul`, and the result is the one over Q."""
    calls = []
    mul = EtaleAlgebra._mul
    monkeypatch.setattr(EtaleAlgebra, "_mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    body = det_norm(3).form.body
    n = body.nvars

    def composed_and_squared(field):
        p = Polynomial(field, n, {e: field.from_rational(c.as_rational())
                                  for e, c in body.terms.items()})
        args = [Polynomial.variable(field, 2 * n, i)
                + Polynomial.variable(field, 2 * n, n + i).scale(i + 1) for i in range(n)]
        q = p.compose(args)
        return q * q

    over_k = composed_and_squared(_SQRT2)
    assert calls == []
    over_q = composed_and_squared(QQ)
    assert over_k.term_count() == over_q.term_count() == 978
    assert {e: c.as_rational() for e, c in over_k.terms.items()} == {
        e: c.as_rational() for e, c in over_q.terms.items()}


# ---------------------------------------------------------------------------
# structure tensors of algebras


def _sparse_element(draw, field):
    """Zero about half the time, else a rational (with a denominator up to
    12) over Q, or an element of the field."""
    if draw(st.booleans()):
        return field.zero
    return field.from_rational(draw(_coeff)) if field == QQ else _element(draw, field)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_structure_tensor_product_matches_dense_constants(data):
    """Random sparse tables of structure constants over Q, over Q(sqrt 2) and
    over the tower Q(sqrt 2)(cbrt 2), each stored as its restriction of
    scalars to Q in ints: the tensor's product of two vectors, and its dense
    constants read back, against the dense oracle."""
    field = data.draw(st.sampled_from((QQ, _SQRT2, FIELDS["sqrt2-cbrt2"])))
    n = data.draw(st.integers(1, 5))
    planes = tuple(
        tuple(tuple(_sparse_element(data.draw, field) for _ in range(n)) for _ in range(n))
        for _ in range(n)
    )
    x = [_sparse_element(data.draw, field) for _ in range(n)]
    y = [_sparse_element(data.draw, field) for _ in range(n)]
    t = StructureTensor.from_elements(field, planes)
    assert t.elements() == planes
    a, da = to_coordinates(field, x)
    b, db = to_coordinates(field, y)
    got = from_coordinates(field, t.mul(a, b), da * db * t.den)
    assert got == structure_product(field, planes, x, y)


# ---------------------------------------------------------------------------
# compiled evaluation programs

_PROGRAM_FIELDS = dict(FIELDS, q=QQ)


@st.composite
def _program_case(draw):
    """Up to four polynomials of one ring, zero and constant ones among them;
    a batch of int points and a batch of points of field elements, whose
    coordinates marked in `rational` are rational at every point; and a
    factor for their common denominator.  The batches come from a generator
    seeded by hypothesis, which draws the polynomials: drawing up to 64
    points coordinate by coordinate took most of the test's time."""
    field = _PROGRAM_FIELDS[draw(st.sampled_from(sorted(_PROGRAM_FIELDS)))]
    n = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("zero", "constant", "general")))
        if kind == "zero":
            polys.append(Polynomial.zero(field, n))
        elif kind == "constant":
            polys.append(Polynomial.const(field, n, _element(draw, field)))
        else:
            pairs = [(draw(exps), _element(draw, field)) for _ in range(draw(st.integers(1, 5)))]
            polys.append(Polynomial.from_pairs(field, n, pairs))
    size = draw(st.sampled_from(_BATCH_SIZES))
    rational = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ints = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(size)]
    points = [[_random_element(rng, field, r) for r in rational] for _ in range(size)]
    return field, polys, ints, points, rational, draw(st.sampled_from((1, 2, 6)))


def _random_element(rng, field, rational: bool):
    """`_element` drawn from a seeded generator, in its value ranges: a
    rational (always, when `rational`), or an element with integer or
    rational flat coordinates."""
    kind = "rational" if rational else rng.choice(("rational", "int", "fraction"))
    if kind == "rational":
        num = rng.randint(-50, 50)
        return field.from_rational(num if rng.random() < 0.5 else Fraction(num, rng.randint(1, 9)))
    m = field.absolute_degree
    if kind == "int":
        return field.from_flat([Fraction(rng.randint(-9, 9)) for _ in range(m)])
    return field.from_flat([Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(m)])


_BATCH_SIZES = (1, 2, 49, SAMPLE_BATCH)


@settings(max_examples=250, deadline=None)
@given(_program_case())
def test_program_matches_eval_of_each_polynomial(case):
    """One program over several polynomials gives, point by point over a
    batch, each polynomial's value over the program's one denominator: at
    int points as eval_int and the field-element oracle, and at points of
    flat vectors over a common denominator B as eval and the oracle, with
    each rational coordinate given as m columns (zero-padded) and as its one
    column.  B is the lcm of the batch's denominators times 1, 2 or 6."""
    field, polys, ints, points, rational, scale = case
    prog, size, m = EvalProgram(polys), len(ints), field.absolute_degree
    values = prog.at(int_columns(ints), size)
    assert [[len(c) for c in v] for v in values] == [[size] * m] * len(polys)
    want = [[generic_eval(p, [field.from_rational(x) for x in pt]) for pt in ints] for p in polys]
    got = [prog.elements(v) for v in values]
    assert got == [[p.eval_int(pt) for pt in ints] for p in polys] == want
    flats = [[field.flat(x) for x in pt] for pt in points]
    B = scale * math.lcm(*(q.denominator for pt in flats for v in pt for q in v))
    nums = [[[q.numerator * (B // q.denominator) for q in v] for v in pt] for pt in flats]
    padded = vector_columns(nums)
    want = [[generic_eval(p, pt) for pt in points] for p in polys]
    for coords in (padded, [c[:1] if r else c for c, r in zip(padded, rational)]):
        assert [prog.elements(v, B) for v in prog.at(coords, size, B)] == want
    assert [[p.eval(pt) for pt in points] for p in polys] == want
