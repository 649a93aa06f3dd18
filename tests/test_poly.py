import math
import random
from fractions import Fraction

import pytest

from formforge import (
    DegreeLimitExceeded,
    NotDivisible,
    Polynomial,
    QQ,
    RationalFunction,
    field_extend,
    is_dth_power,
    substitute_linear,
    verify_identity,
)
from formforge.coeffield import EtaleAlgebra
from formforge.constructions import catalog
from formforge.jsonio import decode_field, decode_polynomial
from formforge import poly
from formforge.poly import (
    MAX_DEGREE,
    W,
    EvalProgram,
    clear_denominators,
    linear_forms,
    ring_matrix_determinant,
    sample_identity,
)
from oracles import (generic_eval, int_columns, linear_forms_from_terms, long_division,
                     vector_columns)


def var(n, i):
    return Polynomial.variable(QQ, n, i)


def const(n, c):
    return Polynomial.const(QQ, n, c)


def test_product_difference_of_squares():
    x, y = var(2, 0), var(2, 1)
    assert (x + y) * (x - y) == x * x - y * y


def test_exact_division():
    x, y = var(2, 0), var(2, 1)
    assert (x * x - y * y).exact_div(x - y) == x + y


def test_exact_division_failure():
    x, y = var(2, 0), var(2, 1)
    with pytest.raises(NotDivisible):
        (x * x + y * y).exact_div(x - y)


def test_clear_denominators_on_catalog_witnesses():
    """N and D as long division gives them, for every catalog witness and for
    the same witness with row i divided by 1 + x_(i mod 3), so that D has up
    to three factors and each entry its own cofactor D / den."""
    checked = 0
    for _, cf in catalog():
        if cf.witness is None:
            continue
        m = cf.witness.matrix
        nx = m[0][0].num.nvars
        one = RationalFunction.const(QQ, nx, 1)
        dens = [one + RationalFunction.from_poly(var(nx, i % min(3, nx))) for i in range(len(m))]
        divided = tuple(tuple(e * d.inv() for e in row) for row, d in zip(m, dens))
        for M in (m, divided):
            N, D = clear_denominators(M)
            assert N == tuple(
                tuple(
                    Polynomial.zero(QQ, nx) if e.is_zero() else e.num * long_division(D, e.den)
                    for e in row
                )
                for row in M
            )
            # rows over different denominators, with N's entries as they come
            scaled = [[e.scale(Fraction(1, 2 + i + 3 * j)) for j, e in enumerate(row)]
                      for i, row in enumerate(N)]
            for rows in (N, scaled):
                assert linear_forms(rows) == linear_forms_from_terms(rows)
            checked += 1
    assert checked >= 20


# Over Q[t]/(t^2 - 1), (1 + t)(1 - t) = 0: exact division meets a product of
# nonzero coefficients that is zero, and must not keep it as a term.
QxQ = field_extend(QQ, [-1, 0, 1])
T = QxQ.element([0, 1])


def qxq(c):
    return Polynomial.const(QxQ, 2, c)


def test_exact_division_drops_zero_coefficient_products():
    x, y = Polynomial.variable(QxQ, 2, 0), Polynomial.variable(QxQ, 2, 1)
    one = QxQ.one
    assert (qxq(one + T) * x * y).exact_div(x + qxq(one - T)) == qxq(one + T) * y


def test_ring_determinant_with_zero_coefficient_products():
    x, y = Polynomial.variable(QxQ, 2, 0), Polynomial.variable(QxQ, 2, 1)
    one, zero = qxq(QxQ.one), qxq(QxQ.zero)
    rows = [
        [x + qxq(QxQ.one - T), zero, zero],
        [zero, one, zero],
        [zero, one, qxq(QxQ.one + T) * y],
    ]
    # (x + 1 - t)(1 + t) y = (1 + t) x y
    assert ring_matrix_determinant(rows, zero) == qxq(QxQ.one + T) * x * y


def test_clear_denominators_with_zero_coefficient_products():
    x = Polynomial.variable(QxQ, 2, 0)
    one = RationalFunction.const(QxQ, 2, 1)
    plus, minus = x + qxq(QxQ.one + T), x + qxq(QxQ.one - T)
    M = [
        [RationalFunction.from_poly(plus).inv(), one],
        [one, RationalFunction.from_poly(minus).inv()],
    ]
    N, D = clear_denominators(M)
    assert D == plus * minus == x * x + x + x  # 1 - t^2 = 0
    assert N == ((minus, D), (D, plus))


def test_substitute_linear_swap_matrix():
    y1, y2 = var(2, 0), var(2, 1)
    p = y1 * y1 - y2 * y2
    x1, x2 = var(2, 0), var(2, 1)
    M = [
        [RationalFunction.from_poly(x1), RationalFunction.from_poly(x2)],
        [RationalFunction.from_poly(x2), RationalFunction.from_poly(x1)],
    ]
    q, D = substitute_linear(p, M)
    X1, X2, Y1, Y2 = (var(4, i) for i in range(4))
    assert q == (X1 * Y1 + X2 * Y2) ** 2 - (X1 * Y2 + X2 * Y1) ** 2
    assert q == (X1 * X1 - X2 * X2) * (Y1 * Y1 - Y2 * Y2)
    assert D == const(2, 1)


def test_substitute_linear_clears_denominator():
    p = var(1, 0) ** 3
    entry = RationalFunction(const(1, 1), var(1, 0))
    q, D = substitute_linear(p, [[entry]])
    assert D == var(1, 0)
    assert q == var(2, 1) ** 3


def test_substitute_linear_identity_matrix():
    x, y = var(2, 0), var(2, 1)
    p = x * x * y + y ** 3
    eye = [
        [RationalFunction.const(QQ, 0, 1 if i == j else 0) for j in range(2)]
        for i in range(2)
    ]
    q, D = substitute_linear(p, eye)
    assert D == const(0, 1)
    assert q == p


def test_substitute_linear_functorial():
    """Substituting M1*M2 agrees with substituting M2 after M1."""
    rng = random.Random(7)
    x0, x1, x2 = (var(3, i) for i in range(3))
    p = x0 ** 3 - x0 * x1 * x2 + const(3, 2) * x2 ** 3 + x1 * x1 * x2

    def draw():
        while True:
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            det = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
            if det:
                return rows

    def lift(rows):
        return [[RationalFunction.const(QQ, 0, c) for c in row] for row in rows]

    for _ in range(5):
        m1, m2 = draw(), draw()
        m12 = [
            [sum(m1[i][k] * m2[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        step1, _ = substitute_linear(p, lift(m1))
        step2, _ = substitute_linear(step1, lift(m2))
        direct, _ = substitute_linear(p, lift(m12))
        assert step2 == direct


def test_cube_root_recovered():
    x, y = var(2, 0), var(2, 1)
    c, g = is_dth_power((x + const(2, 2) * y) ** 3, 3)
    assert c == QQ.from_rational(1)
    assert g == x + const(2, 2) * y


def test_cube_root_absent():
    # a root would force x^3 + 2 to have the rational root -c with c^3 = 2
    x, y = var(2, 0), var(2, 1)
    assert is_dth_power(x ** 3 + const(2, 2) * y ** 3, 3) is None


def test_square_root_with_unit():
    x, y = var(2, 0), var(2, 1)
    c, g = is_dth_power(const(2, 4) * x ** 2 * y ** 4, 2)
    assert c == QQ.from_rational(4)
    assert g == x * y ** 2


def test_dth_power_random_recovery():
    rng = random.Random(19)
    for _ in range(6):
        n = rng.randint(1, 3)
        d = rng.randint(2, 3)
        g = Polynomial.zero(QQ, n)
        while g.is_zero():
            g = Polynomial.from_pairs(
                QQ,
                n,
                [
                    (tuple(e), rng.randint(-3, 3))
                    for e in _exponents(n, rng.randint(0, 3))
                ],
            )
        scale = Fraction(rng.choice([1, 2, -3, 5]))
        p = (g ** d).scale(QQ.from_rational(scale))
        out = is_dth_power(p, d)
        assert out is not None
        c, root = out
        assert (root ** d).scale(c) == p
        assert root.leading_term()[1] == QQ.from_rational(1)


def _exponents(n, bound):
    if n == 0:
        return [()]
    return [
        (i,) + rest for i in range(bound + 1) for rest in _exponents(n - 1, bound - i)
    ]


def test_verify_identity_symbolic_proof():
    x, y = var(2, 0), var(2, 1)
    report = verify_identity((x + y) ** 2, x * x + const(2, 2) * x * y + y * y)
    assert report.verdict == "proved"
    assert report.mode == "symbolic"
    assert report.holds()


def test_verify_identity_symbolic_refutation():
    x = var(1, 0)
    report = verify_identity(x * x, x * x + const(1, 1))
    assert report.verdict == "refuted"
    assert report.counterexample is not None
    pt = report.counterexample
    assert (x * x).eval_int(pt) != (x * x + const(1, 1)).eval_int(pt)


def test_verify_identity_random_evidence_bound():
    x, y, t = var(2, 0), var(2, 1), var(1, 0)
    cases = [
        (
            (x + y) ** 3,
            x ** 3 + const(2, 3) * x * x * y + const(2, 3) * x * y * y + y ** 3,
            3, 20, 5, {},
        ),
        # degree 4 on a box of 3 points: the per-sample bound is capped at 1
        (t ** 4, t ** 4, 4, 3, 1, {"box_halfwidth": 1}),
    ]
    for lhs, rhs, degree, samples, seed, box in cases:
        report = verify_identity(lhs, rhs, mode="random", samples=samples, seed=seed, **box)
        assert report.verdict == "evidence"
        assert report.holds()
        size = 2 * report.box_halfwidth + 1
        per = min(Fraction(degree, size), Fraction(1))
        assert report.per_sample_bound == per <= 1
        assert report.overall_bound == per ** samples


def test_verify_identity_random_refutation_carries_point():
    x = var(1, 0)
    report = verify_identity(x, x + const(1, 1), mode="random", samples=3, seed=0)
    assert report.verdict == "refuted"
    assert report.counterexample is not None


def test_random_mode_needs_a_positive_sample_count():
    """No draws prove nothing, and a negative count made min(d / box, 1)^s a
    huge number rather than a bound."""
    x = var(1, 0)
    for samples in (0, -2):
        with pytest.raises(ValueError, match="samples must be positive"):
            verify_identity(x, x, mode="random", samples=samples, seed=1)
        with pytest.raises(ValueError, match="samples must be positive"):
            sample_identity(lambda pts: [True] * len(pts), 1, 1, samples, 1, 10)


def test_compose_and_mul_reject_arguments_from_other_rings():
    x, y = var(2, 0), var(2, 1)
    r2 = field_extend(QQ, [-2, 0, 1])
    s = Polynomial.variable(r2, 2, 0)
    with pytest.raises(ValueError, match="need 2 substitution arguments"):
        x.compose([x])
    with pytest.raises(ValueError, match="need 2 substitution arguments"):
        s.compose([s, s, s])
    with pytest.raises(TypeError, match="polynomials from different rings"):
        x.compose([y, var(3, 0)])
    with pytest.raises(TypeError, match="polynomials from different rings"):
        s.compose([s, Polynomial.variable(r2, 3, 0)])
    with pytest.raises(TypeError, match="polynomials from different rings"):
        x * var(3, 0)
    with pytest.raises(TypeError, match="polynomials from different rings"):
        x * s
    with pytest.raises(TypeError, match="polynomials from different rings"):
        s * x
    # coefficients over Q, arguments over Q(sqrt 2), and the reverse; also
    # for a constant, which multiplies no coefficient
    with pytest.raises(TypeError, match="mixed-field arithmetic"):
        x.compose([s, s])
    with pytest.raises(TypeError, match="mixed-field arithmetic"):
        s.compose([x, y])
    with pytest.raises(TypeError, match="mixed-field arithmetic"):
        const(2, 5).compose([s, s])


def test_verify_identity_random_needs_seed():
    x = var(1, 0)
    with pytest.raises(ValueError):
        verify_identity(x, x, mode="random")


def test_random_never_contradicts_symbolic():
    x, y = var(2, 0), var(2, 1)
    pairs = [
        ((x + y) * (x - y), x * x - y * y),
        ((x + y) ** 2, x * x + y * y),
        (x ** 3 - y ** 3, (x - y) * (x * x + x * y + y * y)),
    ]
    for lhs, rhs in pairs:
        symbolic = verify_identity(lhs, rhs)
        for seed in range(3):
            sampled = verify_identity(lhs, rhs, mode="random", samples=30, seed=seed)
            if symbolic.verdict == "proved":
                assert sampled.verdict == "evidence"
            else:
                # equal sides can never be reported unequal; the converse may
                # miss, so only the direction above is forced
                assert sampled.verdict in ("refuted", "evidence")


# ---------------------------------------------------------------------------
# the integer evaluation kernel over Q (property test: test_poly_kernel.py)


def test_eval_over_q_edge_cases():
    assert Polynomial.zero(QQ, 2).eval_int((3, -4)) == QQ.zero
    assert Polynomial.zero(QQ, 0).eval([]) == QQ.zero
    assert const(0, Fraction(-7, 3)).eval_int(()) == QQ.from_rational(Fraction(-7, 3))
    p = Polynomial.from_pairs(
        QQ, 2, [((2, 0), Fraction(1, 2)), ((0, 1), Fraction(2, 3)), ((0, 0), 5)]
    )
    assert p.eval_int((0, 0)) == QQ.from_rational(5)
    half = QQ.from_rational(Fraction(-1, 2))
    third = QQ.from_rational(Fraction(1, 3))
    assert p.eval([half, third]) == QQ.from_rational(Fraction(1, 8) + Fraction(2, 9) + 5)
    with pytest.raises(ValueError):
        p.eval_int((1,))


def test_eval_over_etale_checks_the_point():
    """A coordinate from Q or from another extension is refused, as is a point
    of the wrong length; a separately built copy of the same field is the
    same field (decoding interns fields, so the copy is built directly)."""
    field_json = {"base": "rational", "minpoly": ["-2", "0", "1"]}
    K = decode_field(field_json)
    p = Polynomial.from_pairs(K, 2, [((1, 1), K.gen), ((0, 2), 3)])
    for stranger in (QQ.from_rational(2), field_extend(QQ, [-3, 0, 1]).gen):
        with pytest.raises(TypeError):
            p.eval([K.gen, stranger])
        with pytest.raises(TypeError):
            p.eval([stranger, K.gen])
    for bad in ([K.gen], [K.gen] * 3):
        with pytest.raises(ValueError):
            p.eval(bad)
        with pytest.raises(ValueError):
            p.eval_int([1] * len(bad))
    copy = EtaleAlgebra(QQ, K.minpoly)
    assert decode_field(field_json) is K and copy is not K and copy == K
    # sqrt2 * sqrt2 * (1 + sqrt2) + 3 * (1 + sqrt2)^2 = 11 + 8 sqrt2
    assert p.eval([copy.gen, copy.element([1, 1])]) == K.element([11, 8])


# ---------------------------------------------------------------------------
# compiled evaluation programs, built on packed keys


_PROGRAM_EDGE_FIELDS = {
    "q": QQ,
    "cbrt2": field_extend(QQ, [-2, 0, 0, 1]),
    "split": field_extend(QQ, [-1, 0, 1]),  # Q[t]/(t^2 - 1), not a field
}

# (nvars, each polynomial's exponent tuples); coefficients are filled in
_PROGRAM_EDGE_CASES = {
    # zero fields between nonzero ones, and the last variable (shift 0)
    "gaps": (5, [[(3, 0, 0, 0, 2), (1, 0, 2, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 0, 4)],
                 [(0, 2, 0, 0, 0), (2, 0, 0, 0, 0), (0, 0, 0, 1, 1)]]),
    "no-variables": (0, [[()], [], [()]]),
    "zero-and-constants": (3, [[], [(0, 0, 0)], [(1, 0, 1), (0, 0, 0)], []]),
    # monomials of high degree whose parents are no term's monomial
    "high-degree": (3, [[(40, 0, 0), (13, 20, 7), (0, 0, 39)], [(0, 1, 38), (0, 0, 0)]]),
}


def _program_polys(field, n, shapes):
    rng = random.Random(7)
    m = field.absolute_degree

    def coeff():
        flat = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for _ in range(m)]
        return flat[0] if field == QQ else field.from_flat(flat)

    return [Polynomial.from_pairs(field, n, [(e, coeff()) for e in es]) for es in shapes]


def _program_values(prog, ints, points):
    """The program's values at int points and at points of field elements,
    as field elements, polynomial by polynomial."""
    field = prog.field
    got = [prog.elements(v) for v in prog.at(int_columns(ints), len(ints))]
    flats = [[field.flat(x) for x in pt] for pt in points]
    B = math.lcm(*(q.denominator for pt in flats for v in pt for q in v))
    nums = [[[q.numerator * (B // q.denominator) for q in v] for v in pt] for pt in flats]
    values = prog.at(vector_columns(nums), len(points), B)
    return got, [prog.elements(v, B) for v in values]


@pytest.mark.parametrize("case", sorted(_PROGRAM_EDGE_CASES))
@pytest.mark.parametrize("name", sorted(_PROGRAM_EDGE_FIELDS))
def test_program_edge_cases_match_the_oracle(name, case):
    """A program compiled on packed keys gives generic_eval's values at int
    points and at points of field elements, one point alone and in a batch."""
    field = _PROGRAM_EDGE_FIELDS[name]
    n, shapes = _PROGRAM_EDGE_CASES[case]
    polys = _program_polys(field, n, shapes)
    rng = random.Random(3)
    m = field.absolute_degree
    for size in (1, 3):
        ints = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(size)]
        points = [[field.from_flat([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                    for _ in range(m)]) for _ in range(n)]
                  for _ in range(size)]
        want_ints = [[generic_eval(p, [field.from_rational(x) for x in pt]) for pt in ints]
                     for p in polys]
        want_points = [[generic_eval(p, pt) for pt in points] for p in polys]
        assert _program_values(EvalProgram(polys), ints, points) == (
            want_ints, want_points)


def test_program_prefers_a_parent_that_is_a_term():
    """x0 x1 comes from the term x0 (along x1), not from x1 (along x0, the
    first variable), so x1 is no monomial of the program."""
    x0, x1 = var(2, 0), var(2, 1)
    prog = EvalProgram([x0 * x1 + x0])
    assert prog._first == [0]
    assert prog._levels == [([1], [1], range(1, 2))]


@pytest.mark.parametrize("field", [QQ, field_extend(QQ, [-2, 0, 1])], ids=["q", "sqrt2"])
def test_programs_compile_without_unpacking_keys(monkeypatch, field):
    """Compiling reads the packed keys: with `_unpack` refusing every call,
    a program over several polynomials, and `eval`, still give the oracle's
    values."""
    n, shapes = _PROGRAM_EDGE_CASES["gaps"]
    polys = _program_polys(field, n, shapes + [[(0,) * n], []])
    point = [field.from_flat([Fraction(k + 1, 2)] + [1] * (field.absolute_degree - 1))
             for k in range(5)]
    want = [generic_eval(p, point) for p in polys]
    ints = [[2, -1, 0, 3, 1]]
    want_ints = [generic_eval(p, [field.from_rational(x) for x in ints[0]]) for p in polys]

    def refuse(*args):
        raise AssertionError("_unpack called")

    monkeypatch.setattr(poly, "_unpack", refuse)
    got_ints, got = _program_values(EvalProgram(polys), ints, [point])
    assert got_ints == [[v] for v in want_ints] and got == [[v] for v in want]
    assert [p.eval(point) for p in polys] == want


@pytest.mark.parametrize("field", [QQ, field_extend(QQ, [-2, 0, 1])], ids=["q", "sqrt2"])
def test_rational_function_keeps_a_monic_denominator(field):
    """The denominator is scaled to leading coefficient 1, and a zero
    numerator takes the denominator 1 (the one given, when it is 1)."""
    x, y = (Polynomial.variable(field, 2, i) for i in range(2))
    three = field.from_rational(3)
    r = RationalFunction(x.scale(three), x.scale(three) * y + x)
    assert r.den.leading_term()[1] == field.one and r.den.is_monic()
    assert r.num == x
    assert r.den == x * y + x.scale(field.from_rational(Fraction(1, 3)))
    one = Polynomial.const(field, 2, field.one)
    zero = Polynomial.zero(field, 2)
    assert RationalFunction(zero, one).den is one
    for den in (x + y, Polynomial.const(field, 2, three), Polynomial.const(field, 1, field.one)):
        assert RationalFunction(zero, den).den == one
    assert not zero.is_monic() and not (x.scale(three) + y).is_monic() and (x + y).is_monic()


# ---------------------------------------------------------------------------
# one packing width: the degree limit and operands left as they are


def _limit_raised(build, degree):
    with pytest.raises(DegreeLimitExceeded) as exc:
        build()
    assert str(exc.value) == "total degree %d is above the limit of %d" % (degree, MAX_DEGREE)


@pytest.mark.parametrize("field", [QQ, field_extend(QQ, [-2, 0, 1])], ids=["q", "sqrt2"])
def test_degree_limit_at_its_boundary(field):
    """x^(2^W - 1) builds and x^(2^W) raises, built from pairs, by a
    product, by a power and by a composition; single terms only."""
    assert issubclass(DegreeLimitExceeded, ValueError)
    top, over = 2**W - 1, 2**W
    assert MAX_DEGREE == top
    one = field.one
    x = Polynomial.variable(field, 2, 0)
    y = Polynomial.variable(field, 2, 1)
    p = Polynomial.from_pairs(field, 2, [((top, 0), one)])
    assert p.terms == {(top, 0): one} and p.total_degree() == top
    _limit_raised(lambda: Polynomial.from_pairs(field, 2, [((over, 0), one)]), over)
    _limit_raised(lambda: Polynomial.from_pairs(field, 2, [((1, top), one)]), over)
    half = x ** (2 ** (W - 1))
    assert (half * x ** (2 ** (W - 1) - 1)) == p
    _limit_raised(lambda: half * half, over)
    _limit_raised(lambda: p * y, over)
    assert x**top == p
    _limit_raised(lambda: x**over, over)
    _limit_raised(lambda: (x * y) ** (2 ** (W - 1)), over)
    # every exponent field full at once, and a quotient that borrows nothing
    q = Polynomial.from_pairs(field, 2, [((top, 0), one), ((0, top), one)])
    assert q.leading_term() == ((top, 0), one)
    assert q.exact_div(q) == Polynomial.const(field, 2, one)
    assert p.exact_div(x ** (top - 1)) == x
    with pytest.raises(NotDivisible):
        p.exact_div(y)
    # compose: t^(2^W - 1) substituted by x, and t^(2^(W-1)) by x y
    assert Polynomial.from_pairs(field, 1, [((top,), one)]).compose([x]) == p
    t = Polynomial.from_pairs(field, 1, [((2 ** (W - 1),), one)])
    assert t.compose([x]) == half
    _limit_raised(lambda: t.compose([x * y]), over)
    # linear_forms adds one degree for the y variables
    _limit_raised(lambda: linear_forms([[p]]), over)
    assert linear_forms([[half]])[0].total_degree() == 2 ** (W - 1) + 1


@pytest.mark.parametrize("field", [QQ, field_extend(QQ, [-2, 0, 1])], ids=["q", "sqrt2"])
@pytest.mark.parametrize("exponent, message", [
    ((-1, 2), r"exponent tuple \(-1, 2\) has a negative entry"),
    ((1, 2, 3), r"exponent tuple \(1, 2, 3\) has 3 entries, expected 2"),
    ((1,), r"exponent tuple \(1,\) has 1 entries, expected 2"),
], ids=["negative", "too-long", "too-short"])
def test_malformed_exponent_tuples_are_refused(field, exponent, message):
    """An exponent tuple with a negative entry or the wrong length is
    refused by from_pairs and the constructor, with a zero coefficient too:
    packed, (-1, 2) read back as total degree -1, (1, 2, 3) as degree
    393,217 and (1,) as degree 0."""
    for c in (1, 0):
        with pytest.raises(ValueError, match=message):
            Polynomial.from_pairs(field, 2, [((0, 1), 1), (exponent, c)])
        with pytest.raises(ValueError, match=message):
            Polynomial(field, 2, {exponent: field.from_rational(c)})


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_variable_index_outside_the_ring_is_refused(i):
    """A variable index is one of 0, ..., n - 1: -1 is not read from the
    end, and 5 is refused with a ValueError, not an IndexError."""
    with pytest.raises(ValueError, match="variable %d is not one of the 2 variables" % i):
        Polynomial.variable(QQ, 2, i)
    with pytest.raises(ValueError, match="is not one of the 0 variables"):
        Polynomial.variable(QQ, 0, 0)


def test_degree_limit_in_json_decoding():
    top = MAX_DEGREE
    got = decode_polynomial({"vars": 2, "terms": [{"e": [top, 0], "c": "3"}]}, QQ)
    assert got == Polynomial.from_pairs(QQ, 2, [((top, 0), 3)])
    for e in ([top + 1, 0], [1, top], [2**70, 0]):
        _limit_raised(lambda: decode_polynomial({"vars": 2, "terms": [{"e": e, "c": "1"}]}, QQ),
                      sum(e))


def test_arithmetic_does_not_repack_operands():
    """Sums, products, comparisons, composition and division of
    polynomials of different degrees leave each operand's packed keys as
    they were: every polynomial of a ring packs with the same width."""
    x5 = Polynomial.from_pairs(QQ, 2, [((5, 0), 1)])
    y = var(2, 1)
    u = Polynomial.from_pairs(QQ, 1, [((3,), 1)])
    operands = (x5, y, u)
    before = [dict(p._nums) for p in operands]
    assert x5 != y
    x5 + y
    x5 - y
    y * x5
    x5 * y * y
    y**3
    u.compose([y])
    u.compose([x5])
    (x5 * y).exact_div(y)
    (x5 * y).exact_div(x5)
    assert [p._nums for p in operands] == before
