import random
from fractions import Fraction

import pytest

from formforge import (
    NotSquarefree,
    QQ,
    ZeroDivisor,
    etale_norm,
    etale_trace,
    field_extend,
    regular_representation,
)
from oracles import poly_derivative, poly_gcd


def test_quadratic_extension_square_of_generator():
    A = field_extend(QQ, [-5, 0, 1])
    assert A.gen * A.gen == A.from_rational(5)


def test_cubic_extension_accepted():
    A = field_extend(QQ, [-2, 0, 0, 1])
    assert A.degree == 3
    assert A.gen ** 3 == A.from_rational(2)


@pytest.mark.parametrize("field", [QQ, field_extend(QQ, [-2, 0, 1])], ids=["q", "sqrt2"])
def test_field_elements_do_not_mix_with_ints(field):
    """Packed polynomials keep ints and field elements apart; a product or
    sum of the two raises instead of coercing."""
    with pytest.raises(TypeError):
        field.one * 2
    with pytest.raises(TypeError):
        0 + field.one


def test_repeated_root_rejected():
    # t^2 - 2t + 1 = (t - 1)^2 would carry nilpotents
    with pytest.raises(NotSquarefree):
        field_extend(QQ, [1, -2, 1])


@pytest.mark.parametrize("c,u,v", [(5, 3, 2), (2, 1, 1), (-1, 4, 7)])
def test_quadratic_norm_closed_form(c, u, v):
    A = field_extend(QQ, [-c, 0, 1])
    got = etale_norm(A, A.element([u, v]))
    assert got == QQ.from_rational(u * u - c * v * v)


def test_cubic_norm_closed_form():
    # N(u + v t + w t^2) = u^3 + a v^3 + a^2 w^3 - 3 a u v w over t^3 = a
    a = 2
    A = field_extend(QQ, [-a, 0, 0, 1])
    for u, v, w in [(1, 0, 0), (0, 1, 0), (1, 2, 3), (-2, 5, 1)]:
        expect = u**3 + a * v**3 + a * a * w**3 - 3 * a * u * v * w
        assert etale_norm(A, A.element([u, v, w])) == QQ.from_rational(expect)


def test_cubic_trace_of_power_basis():
    A = field_extend(QQ, [-2, 0, 0, 1])
    assert etale_trace(A, A.element([1, 2, 3])) == QQ.from_rational(3)


def test_norm_of_one():
    for mp in [[-2, 0, 1], [-2, 0, 0, 1], [1, 1, 1], [-1, 0, 1]]:
        A = field_extend(QQ, mp)
        assert etale_norm(A, A.one) == QQ.from_rational(1)
        assert etale_trace(A, A.one) == QQ.from_rational(A.degree)


def test_sqrt2_products_and_inverse():
    A = field_extend(QQ, [-2, 0, 1])
    one, t = A.one, A.gen
    assert (one + t) * (one - t) == A.from_rational(-1)
    assert t.inv() == A.element([0, Fraction(1, 2)])
    assert t * t.inv() == one


def test_split_quadratic_has_zero_divisors():
    # t^2 - 1 is squarefree, so the quotient is etale but not a field
    A = field_extend(QQ, [-1, 0, 1])
    x = A.element([1, 1])
    with pytest.raises(ZeroDivisor):
        x.inv()


_SQRT2 = field_extend(QQ, [-2, 0, 1])
_R2 = _SQRT2.gen


@pytest.mark.parametrize("field, pairs", [
    (field_extend(QQ, [-1, 0, 1]), [([1, 1], [1, -1]), ([-3, 3], [1, 1])]),
    (field_extend(_SQRT2, [-2, 0, 1]),
     [([-_R2, 1], [_R2, 1]), ([4, _SQRT2.element([0, 2])], [-_R2, 1])]),
], ids=["q-split", "sqrt2-split"])
def test_zero_divisors_raise(field, pairs):
    """Q[t]/(t^2 - 1) and Q(sqrt 2)[t]/(t^2 - 2) are etale but not fields:
    x y = 0 for nonzero x, y, and inverting x raises ZeroDivisor."""
    for x, y in pairs:
        x, y = field.element(x), field.element(y)
        assert (x * y).is_zero() and not x.is_zero() and not y.is_zero()
        with pytest.raises(ZeroDivisor, match="zero divisor in"):
            x.inv()


@pytest.mark.parametrize("base, f", [
    (QQ, [QQ.from_rational(c) for c in (4, 4, -4, -4, 1, 1)]),  # (t^2 - 2)^2 (t + 1)
    # (t - sqrt 2)^2 (t + 1)
    (_SQRT2, [_SQRT2.element(c) for c in ([2, 0], [2, -2], [1, -2], [1, 0])]),
], ids=["q", "sqrt2"])
def test_not_squarefree_reports_the_degree_of_gcd_with_the_derivative(base, f):
    """The repeated factor's degree in the NotSquarefree message, read off
    the rank of the trace form, is deg gcd(f, f') by Euclid's algorithm."""
    degree = len(poly_gcd(base, f, poly_derivative(base, f))) - 1
    assert degree == (2 if base == QQ else 1)
    with pytest.raises(NotSquarefree, match="repeated factor of degree %d$" % degree):
        field_extend(base, f)


def test_division_by_zero():
    A = field_extend(QQ, [-2, 0, 1])
    with pytest.raises(ZeroDivisor):
        A.zero.inv()


SQUAREFREE_MINPOLYS = [
    [-2, 0, 1],
    [-1, -1, 1],
    [1, 0, 1],
    [-2, 0, 0, 1],
    [0, -1, 0, 1],
    [1, 0, -10, 0, 1],
]


@pytest.mark.parametrize("mp", SQUAREFREE_MINPOLYS)
def test_norm_multiplicative_trace_linear(mp):
    A = field_extend(QQ, mp)
    rng = random.Random(11 + len(mp))
    for _ in range(8):
        x = A.element([rng.randint(-5, 5) for _ in range(A.degree)])
        y = A.element([rng.randint(-5, 5) for _ in range(A.degree)])
        c = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        assert etale_norm(A, x * y) == etale_norm(A, x) * etale_norm(A, y)
        assert etale_trace(A, x + y) == etale_trace(A, x) + etale_trace(A, y)
        assert etale_trace(A, x * A.from_rational(c)) == etale_trace(A, x) * QQ.from_rational(c)


def test_norm_is_product_of_embeddings_when_split():
    # t^3 - t = t (t - 1) (t + 1); the three embeddings send t to 0, 1, -1
    A = field_extend(QQ, [0, -1, 0, 1])
    rng = random.Random(3)
    for _ in range(10):
        u, v, w = (rng.randint(-6, 6) for _ in range(3))
        ev = [
            Fraction(u + v * r + w * r * r)
            for r in (0, 1, -1)
        ]
        assert etale_norm(A, A.element([u, v, w])) == QQ.from_rational(ev[0] * ev[1] * ev[2])


def test_regular_representation_columns():
    A = field_extend(QQ, [-5, 0, 1])
    x = A.element([3, 2])
    cols = regular_representation(A, x)
    for j in range(A.degree):
        assert tuple(cols[j]) == (x * A.gen ** j).coeffs


def test_tower_extension_over_extension():
    B = field_extend(QQ, [1, 1, 1])
    A = field_extend(B, [B.from_rational(-2), B.zero, B.zero, B.one])
    assert A.degree == 3
    assert A.base is B
    s = A.gen
    assert s ** 3 == A.from_rational(2)
    # norm down to B of the generator of s^3 = 2
    assert etale_norm(A, s) == B.from_rational(2)


def test_nonmonic_rejected():
    with pytest.raises(ValueError):
        field_extend(QQ, [-2, 0, 2])
