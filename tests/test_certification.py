"""Certification of irreducible minimal polynomials over Q without sympy: a
squarefree quadratic or cubic with no rational root is irreducible.  Needs
hypothesis (the `test` extra)."""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from formforge import decompose  # noqa: E402


def _factor_list(f):
    """sympy's irreducible factors of f, as primitive integer lists, with
    their multiplicities."""
    t = sympy.Symbol("t")
    poly = sympy.Poly(sum(sympy.Integer(c) * t**i for i, c in enumerate(f)), t, domain="ZZ")
    _, factors = poly.factor_list()
    return [(decompose._primitive([int(c) for c in g.all_coeffs()[::-1]]), k)
            for g, k in factors]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda d: st.lists(st.integers(-12, 12), min_size=d + 1, max_size=d + 1)))
def test_small_degrees_without_a_rational_root_are_certified_without_sympy(coeffs):
    assume(coeffs[-1] != 0)
    f = decompose._primitive(coeffs)
    factors = _factor_list(f)
    assume(all(k == 1 and len(g) > 2 for g, k in factors))  # squarefree, no rational root
    assert factors == [(f, 1)]
    with mock.patch.object(sympy.Poly, "factor_list", side_effect=AssertionError("sympy used")):
        assert decompose._factor(f) == [f]
