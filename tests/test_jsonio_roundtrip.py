"""Round trips of the sparse witness and structure-constant payloads over Q
and Q(sqrt 2), and the dense spellings of the same values decoding equal.
Needs hypothesis (the `test` extra)."""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from formforge import Polynomial, QQ, RationalFunction, ScaledWitness, field_extend  # noqa: E402
from formforge.jsonio import (  # noqa: E402
    decode_scaled_witness,
    decode_structure_matrices,
    dumps,
    encode_scaled_witness,
    encode_structure_matrices,
)
from oracles import dense_scaled_witness, dense_structure_matrices  # noqa: E402

FIELDS = [QQ, field_extend(QQ, [-2, 0, 1])]
_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _element(draw, field, nonzero=False):
    x = field.element([draw(_small) for _ in range(field.degree)])
    if nonzero and x.is_zero():
        return field.one
    return x


@st.composite
def _polynomial(draw, field, nvars, nonzero=False):
    pairs = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), _element(field)), max_size=3))
    p = Polynomial.from_pairs(field, nvars, pairs)
    if nonzero and p.is_zero():
        return Polynomial.const(field, nvars, draw(_element(field, nonzero=True)))
    return p


@st.composite
def _witness(draw):
    field = draw(st.sampled_from(FIELDS))
    n, nvars = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    shared = RationalFunction(Polynomial.const(field, nvars, field.one),
                              draw(_polynomial(field, nvars, nonzero=True)))
    own_dens = draw(st.booleans())

    def entry():
        num = draw(_polynomial(field, nvars))
        if draw(st.booleans()):  # most entries of a witness are zero
            return RationalFunction.from_poly(Polynomial.zero(field, nvars))
        den = draw(_polynomial(field, nvars, nonzero=True)) if own_dens else shared.den
        return RationalFunction(num, den)

    matrix = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
    scalar = RationalFunction(draw(_polynomial(field, nvars)),
                              draw(_polynomial(field, nvars, nonzero=True)))
    return field, ScaledWitness(scalar=scalar, matrix=matrix)


@st.composite
def _constants(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    zero = field.zero
    return field, tuple(
        tuple(tuple(draw(_element(field)) if draw(st.booleans()) else zero for _ in range(n))
              for _ in range(n))
        for _ in range(n))


def _parsed(obj):
    return json.loads(dumps(obj))


def _value(w: ScaledWitness):
    return w.scalar, w.matrix


@settings(max_examples=80, deadline=None)
@given(_witness())
def test_scaled_witness_round_trip(case):
    field, w = case
    sparse = _parsed(encode_scaled_witness(w))
    assert _value(decode_scaled_witness(sparse, field, n=w.dim)) == _value(w)
    assert _value(decode_scaled_witness(_parsed(dense_scaled_witness(w)), field, n=w.dim)) == _value(w)


@settings(max_examples=80, deadline=None)
@given(_constants())
def test_structure_matrices_round_trip(case):
    field, matrices = case
    sparse = _parsed(encode_structure_matrices(matrices))
    got = decode_structure_matrices(sparse, field, n=len(matrices))
    assert got == matrices
    assert decode_structure_matrices(_parsed(dense_structure_matrices(matrices)), field,
                                     n=len(matrices)) == got
    assert all(c is field.zero for plane in got for row in plane for c in row if c.is_zero())
