"""Property test of the integer evaluation kernel of Polynomial.eval over Q
against a term-by-term Fraction sum.  Needs hypothesis (the `test` extra)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formforge import Polynomial, QQ  # noqa: E402

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
