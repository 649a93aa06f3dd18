import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from formforge import (
    AdjointIdentityFailure,
    AdmissibleTriple,
    AlgebraPresentation,
    DegeneratePairing,
    HomogeneousForm,
    MissingWitness,
    Polynomial,
    QQ,
    cayley_dickson_quartic,
    composition_algebra_norm,
    det_norm,
    diagonal_form,
    field_extend,
    hyperbolic_plane,
    is_nondegenerate,
    jordan_triple_from_degree3,
    matrix_algebra,
    monomial_form,
    norm_compose,
    power_form,
    product_form,
    radical,
    scaled_block_sum,
    split_albert_norm,
    split_etale_presentation,
    split_jordan_q4,
    structurable_quartic,
    tits_cubic,
    transfer_form,
    verify_composition,
    verify_scaled_witness,
)
from formforge.coeffield import RationalField
from formforge.constructions import cd_theta_matrix, norm_via_regular, product_polys
from formforge.forms import coordinates_over_base
from formforge.jsonio import decode_form
from oracles import (
    cross_by_solves,
    norm_via_resultant,
    phi0_coordinates,
    structurable_quartic_via_skew,
)


GOLDEN = Path(__file__).parent / "golden"


def var(n, i):
    return Polynomial.variable(QQ, n, i)


def const(n, c):
    return Polynomial.const(QQ, n, c)


def test_diagonal_form_body_and_witness():
    cf = diagonal_form([1, 2], 3)
    assert cf.form.body == var(2, 0) ** 3 + const(2, 2) * var(2, 1) ** 3
    assert cf.witness is None
    one = diagonal_form([1], 3)
    assert one.witness is not None
    assert verify_scaled_witness(one.form, one.witness).verdict == "proved"
    assert diagonal_form([2], 3).witness is None


def test_monomial_form():
    cf = monomial_form([1, 2])
    assert cf.form.body == var(2, 0) * var(2, 1) ** 2
    assert cf.form.degree == 3
    assert verify_scaled_witness(cf.form, cf.witness).verdict == "proved"
    with pytest.raises(ValueError):
        monomial_form([1, 0])


def test_product_of_quadratic_and_linear():
    cf = product_form([(hyperbolic_plane(), 1), (monomial_form([1]), 1)])
    assert cf.form.body == (var(3, 0) ** 2 - var(3, 1) ** 2) * var(3, 2)
    assert cf.witness is not None
    assert verify_scaled_witness(cf.form, cf.witness).verdict == "proved"


def test_product_with_two_blocks_is_isotropic():
    # zeroing one block kills the product at a nonzero vector
    cf = product_form([(hyperbolic_plane(), 1), (monomial_form([1]), 1)])
    assert cf.form.body.eval_int((1, 0, 0)).is_zero()


def test_product_square_keeps_strong_witness():
    cf = product_form([(hyperbolic_plane(), 2)])
    q = var(2, 0) ** 2 - var(2, 1) ** 2
    assert cf.form.body == q * q
    assert cf.witness is not None
    assert verify_scaled_witness(cf.form, cf.witness).verdict == "proved"


def test_product_of_powers_of_lines_is_monomial():
    cf = product_form([(monomial_form([1]), 3), (monomial_form([1]), 2)])
    assert cf.form.body == monomial_form([3, 2]).form.body


def test_power_form_without_strong_witness_gets_jordan_one():
    base = diagonal_form([1, -1], 2)
    assert base.witness is None
    cf = power_form(base, 2)
    q = var(2, 0) ** 2 - var(2, 1) ** 2
    assert cf.form.body == q * q
    assert cf.witness is not None
    # the attached scalar is phi(X)^2, the Jordan shape
    assert cf.witness.scalar.num == (q * q) ** 2
    assert verify_scaled_witness(cf.form, cf.witness).verdict == "proved"


def test_power_form_cube_of_line():
    cf = power_form(monomial_form([1]), 3)
    assert cf.form.body == var(1, 0) ** 3
    assert verify_scaled_witness(cf.form, cf.witness).verdict == "proved"


def test_det_norm_bodies():
    d2 = det_norm(2)
    assert d2.form.body == var(4, 0) * var(4, 3) - var(4, 1) * var(4, 2)
    d3 = det_norm(3)
    assert len(d3.form.body.terms) == 6
    assert d3.form.degree == 3 and d3.form.nvars == 9


def test_det_norm_composition_proved():
    for d in (2, 3):
        cf = det_norm(d)
        assert verify_composition(cf.form, cf.composition).verdict == "proved"


def test_block_sum_det3():
    cf = scaled_block_sum(det_norm(3), [1, 2])
    assert cf.form.nvars == 18
    assert cf.form.degree == 3
    assert verify_scaled_witness(cf.form, cf.witness).verdict == "proved"


def test_block_sum_needs_similarity_family():
    with pytest.raises(MissingWitness):
        scaled_block_sum(diagonal_form([1], 3), [1, 2])


def test_composition_algebra_norms():
    binary = composition_algebra_norm("binary", [-1])
    assert binary.form.body == var(2, 0) ** 2 + var(2, 1) ** 2
    quat = composition_algebra_norm("quaternion", [-1, -1])
    assert quat.form.body == sum(
        (var(4, i) ** 2 for i in range(1, 4)), var(4, 0) ** 2
    )
    octo = composition_algebra_norm("octonion", [-1, -1, -1])
    assert octo.form.body == sum(
        (var(8, i) ** 2 for i in range(1, 8)), var(8, 0) ** 2
    )
    for cf in (binary, quat, octo):
        assert verify_composition(cf.form, cf.composition).verdict == "proved"


@pytest.mark.parametrize("kind, params", [
    ("quaternion", [Fraction(1, 2), -3]),
    ("octonion", [Fraction(-2, 3), 5, Fraction(7, 4)]),
])
def test_composition_algebra_with_rational_parameters(kind, params):
    """Doubling with gamma = g / dg puts the constants over a denominator;
    the norm is the diagonal form <1, -g1, -g2, g1 g2, ...> and the product
    composes it."""
    cf = composition_algebra_norm(kind, params)
    n = cf.form.nvars
    coeffs = [Fraction(1)]
    for g in params:
        coeffs += [-Fraction(g) * c for c in coeffs]
    assert cf.form.body == sum((const(n, c) * var(n, i) ** 2 for i, c in enumerate(coeffs)),
                               Polynomial.zero(QQ, n))
    assert verify_composition(cf.form, cf.composition).verdict == "proved"
    assert verify_scaled_witness(cf.form, cf.witness).verdict == "proved"


def test_composition_algebra_parameter_checks():
    with pytest.raises(ValueError):
        composition_algebra_norm("quaternion", [-1])
    with pytest.raises(ValueError):
        composition_algebra_norm("binary", [0])
    with pytest.raises(ValueError):
        composition_algebra_norm("sedenion", [1, 1, 1, 1])


def _presented(alg, **changes):
    """alg rebuilt from its structure constants, with some inputs replaced."""
    kw = dict(unit=alg.unit, associative=alg.associative, involution=alg.involution,
              norm=alg.norm, trace=alg.trace)
    kw.update(changes)
    return AlgebraPresentation(alg.field, alg.structure, **kw)


def _scaled_identity(field, n, c):
    return [[field.from_rational(c if i == j else 0) for j in range(n)] for i in range(n)]


def _swap_algebra():
    """Q x Q on the basis f1 = (1, 0), f2 = (0, 2), whose swap involution has
    the rational matrix [[0, 2], [1/2, 0]]."""
    zero, one, two = QQ.zero, QQ.one, QQ.from_rational(2)
    structure = [[[one, zero], [zero, zero]], [[zero, zero], [zero, two]]]
    swap = [[zero, two], [QQ.from_rational(Fraction(1, 2)), zero]]
    return AlgebraPresentation(QQ, structure, [one, QQ.from_rational(Fraction(1, 2))],
                               associative=True, involution=swap)


def _presentation_failures():
    quat = composition_algebra_norm("quaternion", [-1, -1]).algebra
    octo = composition_algebra_norm("octonion", [-1, -1, -1]).algebra
    k2 = field_extend(QQ, [-2, 0, 1])
    tits_k2 = tits_cubic(k2.element([1, 1])).algebra
    return [
        ("unit-quaternion-i", lambda: _presented(quat, unit=quat.basis_vector(1)),
         "unit does not act as identity on basis element 0"),
        ("unit-split-etale", lambda: _presented(
            split_etale_presentation(3), unit=[QQ.one, QQ.zero, QQ.one]),
         "unit does not act as identity on basis element 1"),
        ("unit-over-sqrt2", lambda: _presented(
            tits_k2, unit=[k2.one, k2.one, k2.zero]),
         "unit does not act as identity on basis element 0"),
        ("left-unit-only", lambda: AlgebraPresentation(
            QQ, [[[QQ.from_rational(int(l == j)) for l in range(2)] for j in range(2)]
                 for _ in range(2)], [QQ.one, QQ.zero], associative=True),
         "unit does not act as identity on basis element 1"),
        ("involution-twice-conjugation", lambda: _presented(
            quat, involution=[[c + c for c in row] for row in quat.involution]),
         "involution is not of period 2"),
        ("involution-rational-not-period-2", lambda: _presented(
            _swap_algebra(), involution=[[QQ.zero, QQ.from_rational(2)],
                                         [QQ.from_rational(Fraction(1, 3)), QQ.zero]]),
         "involution is not of period 2"),
        ("involution-over-sqrt2", lambda: _presented(
            tits_k2, involution=_scaled_identity(k2, 3, 2)),
         "involution is not of period 2"),
        ("automorphism-identity-on-M2", lambda: _presented(
            matrix_algebra(2), involution=_scaled_identity(QQ, 4, 1)),
         "involution is not an anti-automorphism"),
        ("octonions-declared-associative", lambda: _presented(octo, associative=True),
         "product is not associative"),
        ("norm-of-det-3-on-quaternions", lambda: _presented(quat, norm=det_norm(3).form),
         "norm is not a form on the algebra: 9 variables over QQ"),
        ("norm-over-q-on-algebra-over-sqrt2", lambda: _presented(
            tits_k2, norm=tits_cubic(1).form),
         "norm is not a form on the algebra: 3 variables over QQ"),
    ]


@pytest.mark.parametrize("build, message",
                         [case[1:] for case in _presentation_failures()],
                         ids=[case[0] for case in _presentation_failures()])
def test_presentation_checks_reject_bad_data(build, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        build()


def test_presentation_checks_accept_good_data():
    k2 = field_extend(QQ, [-2, 0, 1])
    tits_k2 = tits_cubic(k2.element([1, 1])).algebra
    quat = composition_algebra_norm("quaternion", [-1, -1]).algebra
    for alg in (quat, matrix_algebra(2), tits_k2, _swap_algebra()):
        assert _presented(alg).structure == alg.structure
    # the commutative Tits algebra: the identity is an involution over Q(sqrt 2)
    _presented(tits_k2, involution=_scaled_identity(k2, 3, 1))


def test_hyperbolic_plane_is_split_binary():
    cf = hyperbolic_plane()
    assert cf.form.body == var(2, 0) ** 2 - var(2, 1) ** 2


def test_tits_cubic_instances():
    t2 = tits_cubic(2)
    expected = (
        var(3, 0) ** 3
        + const(3, 2) * var(3, 1) ** 3
        + const(3, 4) * var(3, 2) ** 3
        - const(3, 6) * var(3, 0) * var(3, 1) * var(3, 2)
    )
    assert t2.form.body == expected
    assert t2.form.body.eval_int((1, 0, 0)) == QQ.from_rational(1)
    t1 = tits_cubic(1)
    assert verify_scaled_witness(t1.form, t1.witness).verdict == "proved"
    assert verify_composition(t1.form, t1.composition).verdict == "proved"
    with pytest.raises(ValueError):
        tits_cubic(0)


def test_albert_norm_unit_and_diagonal():
    cf = split_albert_norm()
    assert cf.form.nvars == 27
    assert cf.form.eval(list(cf.unit)) == QQ.from_rational(1)
    pt = [2, 3, 5] + [0] * 24
    assert cf.form.body.eval_int(tuple(pt)) == QQ.from_rational(30)


def test_albert_adjoint_identity():
    from formforge import albert_sharp

    n = 27
    vec = [var(n, i) for i in range(n)]
    double = albert_sharp(albert_sharp(vec))
    norm_body = split_albert_norm().form.body
    for i in range(n):
        assert double[i] == norm_body * vec[i]


def test_split_cubic_sharp_is_coordinatewise_adjugate():
    triple = jordan_triple_from_degree3(split_etale_presentation(3), 1)
    vec = [var(3, i) for i in range(3)]
    sharp = triple.sharp_j(vec)
    assert sharp == [vec[1] * vec[2], vec[0] * vec[2], vec[0] * vec[1]]


def test_matrix_triple_adjoint_holds_for_rescaled_zeta():
    for zeta in (1, 2):
        triple = jordan_triple_from_degree3(matrix_algebra(3), zeta)
        triple.check_adjoint()


def test_degenerate_pairing_rejected():
    alg = split_etale_presentation(3)
    broken = AlgebraPresentation(
        QQ,
        alg.structure,
        alg.unit,
        associative=True,
        norm=alg.norm,
        trace=[QQ.zero, QQ.zero, QQ.zero],
    )
    with pytest.raises(DegeneratePairing):
        jordan_triple_from_degree3(broken, 1)


def test_adjoint_identity_failure_detected():
    # a fake triple whose sharp does not satisfy (j#)# = N(j) j
    N = HomogeneousForm.from_body(3, var(1, 0) ** 3)
    with pytest.raises(AdjointIdentityFailure):
        AdmissibleTriple(QQ, N, N, [[QQ.from_rational(1)]]).check_adjoint()


def test_structurable_quartic_collapses_and_unit():
    cf = structurable_quartic(jordan_triple_from_degree3(matrix_algebra(3), 1))
    assert cf.form.nvars == 20
    assert cf.form.degree == 4
    assert cf.form.eval(list(cf.unit)) == QQ.from_rational(1)
    pt = [3, 5] + [0] * 18
    assert cf.form.body.eval_int(tuple(pt)) == QQ.from_rational(225)


def test_structurable_quartic_nondegenerate():
    cf = structurable_quartic(jordan_triple_from_degree3(matrix_algebra(3), 1))
    assert is_nondegenerate(cf.form)


def test_structurable_quartic_agrees_with_skew_route():
    triple = jordan_triple_from_degree3(matrix_algebra(3), 1)
    assert structurable_quartic_via_skew(triple) == structurable_quartic(triple).form


def test_cayley_dickson_quartic_collapses():
    B = split_jordan_q4()
    cf = cayley_dickson_quartic(B, 1)
    assert cf.form.nvars == 8
    assert cf.form.eval(list(cf.unit)) == QQ.from_rational(1)
    assert cf.form.body.eval_int((2, 3, 4, 5, 0, 0, 0, 0)) == QQ.from_rational(120)
    assert cf.form.body.eval_int((0, 0, 0, 0, 2, 3, 4, 5)) == QQ.from_rational(120)
    scaled = cayley_dickson_quartic(B, 3)
    assert scaled.form.body.eval_int((0, 0, 0, 0, 2, 3, 4, 5)) == QQ.from_rational(9 * 120)
    with pytest.raises(ValueError):
        cayley_dickson_quartic(B, 0)


def test_cayley_dickson_quartic_nondegenerate():
    cf = cayley_dickson_quartic(split_jordan_q4(), 1)
    assert is_nondegenerate(cf.form)


def _promote_diag(A, coeffs):
    n = len(coeffs)
    pairs = [
        (tuple(2 if j == i else 0 for j in range(n)), A.from_rational(c))
        for i, c in enumerate(coeffs)
    ]
    return HomogeneousForm(A, 2, n, Polynomial.from_pairs(A, n, pairs))


def test_norm_compose_matches_conjugate_expansion():
    A = field_extend(QQ, [-5, 0, 1])
    cf = norm_compose(A, _promote_diag(A, [1, 2]))
    assert cf.form.degree == 4 and cf.form.nvars == 4
    y = [var(4, i) for i in range(4)]
    p0 = y[0] ** 2 + const(4, 5) * y[1] ** 2 + const(4, 2) * y[2] ** 2 + const(4, 10) * y[3] ** 2
    p1 = const(4, 2) * y[0] * y[1] + const(4, 4) * y[2] * y[3]
    assert cf.form.body == p0 * p0 - const(4, 5) * p1 * p1


def test_norm_compose_over_base_is_identity():
    phi = diagonal_form([1, 2], 2).form
    cf = norm_compose(QQ, phi)
    assert cf.form is phi
    assert cf.provenance["extension_degree"] == 1


def test_norm_compose_radical_containment():
    # phi0 ignores its second variable; the transfer must ignore both lifts
    A = field_extend(QQ, [-5, 0, 1])
    body = Polynomial.from_pairs(A, 2, [((2, 0), A.one)])
    cf = norm_compose(A, HomogeneousForm(A, 2, 2, body))
    basis = radical(cf.form)
    assert len(basis) == 2
    for vec in basis:
        assert vec[0].is_zero() and vec[1].is_zero()


def test_norm_compose_maps_isotropic_vectors():
    # an isotropic vector of phi0 lifts to an isotropic vector of the transfer
    A = field_extend(QQ, [-1, 0, 1])  # t^2 = 1, so (1, t)(1, -t) style zeros exist
    phi0 = _promote_diag(A, [1, -1])
    cf = norm_compose(A, phi0)
    # phi0(1, 1) = 0 lifts to y = (1, 0, 1, 0)
    assert cf.form.body.eval_int((1, 0, 1, 0)).is_zero()


def test_norm_compose_tower_degree_six():
    B = field_extend(QQ, [1, 1, 1])
    A = field_extend(B, [B.from_rational(-2), B.zero, B.zero, B.one])
    pairs = [((2, 0), A.one), ((0, 2), A.from_rational(2))]
    phi0 = HomogeneousForm(A, 2, 2, Polynomial.from_pairs(A, 2, pairs))
    cf = norm_compose(A, phi0)
    assert cf.form.field is B
    assert cf.form.degree == 6
    assert cf.form.nvars == 6
    assert is_nondegenerate(cf.form)


def test_catalog_names_and_provenance():
    from formforge import catalog

    entries = catalog()
    names = [name for name, _ in entries]
    assert names == [
        "hyperbolic-plane",
        "binary-gauss",
        "quaternion-hamilton",
        "octonion-degen",
        "octonion-split",
        "det-2",
        "det-3",
        "tits-cubic-1",
        "tits-cubic-2",
        "monomial-x2y2",
        "product-hyperbolic-linear",
        "power-hyperbolic-square",
        "block-sum-det3",
        "norm-compose-sqrt5",
        "albert",
        "structurable-mat3",
        "cayley-dickson-q4",
    ]
    for _, cf in entries:
        assert "kind" in cf.provenance


def test_cross_products_match_one_solve_per_pair():
    """One elimination of the pairing matrix with all m^2 right-hand sides
    gives the solution each system alone gives, free variables 0 included:
    the pairing of the matrix triple over Q and over Q(sqrt 2), and a
    singular pairing whose systems are all consistent (N = x_0^3 on a
    rank-one gram matrix)."""
    cube = HomogeneousForm.from_body(3, var(2, 0) ** 3)
    one, zero = QQ.from_rational(1), QQ.zero
    K = field_extend(QQ, [-2, 0, 1])
    triples = [jordan_triple_from_degree3(matrix_algebra(3), zeta) for zeta in (1, 2)]
    triples.append(jordan_triple_from_degree3(matrix_algebra(3, field=K), K.one + K.gen))
    triples.append(AdmissibleTriple(QQ, cube, cube, [[one, zero], [zero, zero]]))
    for triple in triples:
        assert triple.cross_j.elements() == cross_by_solves(triple, triple.N, transpose=False)
        assert triple.cross_jp.elements() == cross_by_solves(triple, triple.Np, transpose=True)
    assert triples[-1].cross_j.elements()[0][0] == (QQ.from_rational(6), zero)
    # with N = x_0^2 x_1 the second equation reads 0 = 6 theta(0, 0, 1) = 2
    mixed = HomogeneousForm.from_body(3, var(2, 0) ** 2 * var(2, 1))
    with pytest.raises(DegeneratePairing, match="does not determine"):
        AdmissibleTriple(QQ, mixed, cube, [[one, zero], [zero, zero]])


def test_jordan_triple_makes_no_rational_field_product(monkeypatch):
    """The pairing, the cross products and the adjoint check of the matrix
    triple run on ints: no product of two field elements over Q."""
    calls = []
    mul = RationalField._mul
    monkeypatch.setattr(RationalField, "_mul",
                        lambda self, x, y: calls.append(1) or mul(self, x, y))
    jordan_triple_from_degree3(matrix_algebra(3), 2)
    assert calls == []


def test_sharp_forms_each_product_of_a_vector_with_itself_once(monkeypatch):
    """When x is y, `product_polys` forms x_i x_j for i <= j only, under the
    constants of b_i b_j and b_j b_i together: the matrix triple and its
    structurable quartic make 6 sharp calls of 18 products (36 each when
    every pair was formed), and the product equals the one of two distinct
    vectors, for the noncommutative M_2 over Q and over Q(sqrt 2)."""
    calls = []
    mul = Polynomial.__mul__

    def counted(a, b):
        if sys._getframe(1).f_code.co_name == "product_polys":
            calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    structurable_quartic(jordan_triple_from_degree3(matrix_algebra(3), 2))
    assert len(calls) == 108
    for field in (QQ, SQRT2):
        A = matrix_algebra(2, field=field)
        x = [Polynomial.variable(field, 4, i).scale(field.from_rational(i + 1)) for i in range(4)]
        assert product_polys(A.tensor, x, x) == product_polys(A.tensor, x, list(x))


SQRT2 = field_extend(QQ, [-2, 0, 1])
_QXQ = field_extend(QQ, [-1, 0, 1])


def _with_trace(B, trace):
    return AlgebraPresentation(B.field, B.tensor, B.unit, associative=True, norm=B.norm,
                               trace=trace)


@pytest.mark.parametrize("build, period_two", [
    (lambda: split_jordan_q4(), True),
    (lambda: _with_trace(split_jordan_q4(), [1, 1, 1, 2]), False),
    (lambda: _with_trace(split_jordan_q4(), [0, 0, 0, 0]), True),
    (lambda: _with_trace(split_etale_presentation(2, field=SQRT2),
                         [SQRT2.element([2, 1]), SQRT2.element([2, -1])]), True),
    # over Q[t]/(t^2 - 1): t^T u / 4 - 1 = -(1 + t)/2 is a nonzero zero
    # divisor that kills the trace (1 - t, 1 - t), and not (1 - t, 0)
    (lambda: _with_trace(split_etale_presentation(2, field=_QXQ),
                         [_QXQ.one - _QXQ.gen] * 2), True),
    (lambda: _with_trace(split_etale_presentation(2, field=_QXQ),
                         [_QXQ.one - _QXQ.gen, _QXQ.zero]), False),
], ids=["q4", "trace-sum-5", "zero-trace", "sqrt2", "zero-divisor-kills", "zero-divisor"])
def test_theta_period_two_agrees_with_the_dense_square(build, period_two):
    """`cd_theta_matrix` checks theta^2 = I from t^T u alone; the verdict
    is the dense square's, computed here."""
    B = build()
    field, u, t = B.field, B.unit, B.trace
    n = len(u)
    half = field.from_rational(Fraction(1, 2))
    theta = tuple(tuple(half * a * b - (field.one if i == j else field.zero)
                        for j, b in enumerate(t)) for i, a in enumerate(u))
    eye = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    square = [[sum((theta[i][k] * theta[k][j] for k in range(n)), field.zero)
               for j in range(n)] for i in range(n)]
    assert (square == eye) is period_two
    if period_two:
        assert cd_theta_matrix(B) == theta
    else:
        with pytest.raises(ValueError, match="theta is not of period 2"):
            cd_theta_matrix(B)


def test_admissible_triple_needs_cubics_on_spaces_of_one_dimension():
    one, zero = QQ.from_rational(1), QQ.zero
    line = HomogeneousForm.from_body(3, var(1, 0) ** 3)
    plane = HomogeneousForm.from_body(3, var(2, 0) ** 3)
    with pytest.raises(ValueError, match="shape mismatch"):
        AdmissibleTriple(QQ, line, plane, [[one, zero]])
    square = HomogeneousForm.from_body(2, var(1, 0) ** 2)
    with pytest.raises(ValueError, match="must be cubic"):
        AdmissibleTriple(QQ, square, square, [[one]])


def test_base_coordinates_match_products_over_the_extension():
    """`coordinates_over_base` composes once over the extension; the oracle
    multiplies coordinate vectors and reduces them by the minimal
    polynomial.  Their coordinates, the transfers weighted from them and the
    two routes to the norm agree on <1, 2> over Q(sqrt 5), the tower
    Q(omega)(cbrt 2)/Q(omega), <1, t> over Q(cbrt 2) = Q(t) and a Tits cubic
    over Q(sqrt 2)."""
    sqrt5 = field_extend(QQ, [-5, 0, 1])
    omega = field_extend(QQ, [1, 1, 1])
    tower = field_extend(omega, [omega.from_rational(-2), omega.zero, omega.zero, omega.one])
    cbrt2 = field_extend(QQ, [-2, 0, 0, 1])
    tits = decode_form(json.loads((GOLDEN / "tits-sqrt2.witnessed.json").read_text())["form"])
    inputs = [
        (sqrt5, _promote_diag(sqrt5, [1, 2])),
        (tower, _promote_diag(tower, [1, 2])),
        (cbrt2, HomogeneousForm(cbrt2, 3, 2, Polynomial.from_pairs(
            cbrt2, 2, [((3, 0), cbrt2.one), ((0, 3), cbrt2.gen)]))),
        (tits.field, tits),
    ]
    for A, phi0 in inputs:
        coords = phi0_coordinates(A, phi0)
        assert coordinates_over_base(A, phi0)[0] == coords
        s = [A.base.from_rational(k + 1) for k in range(A.degree)]
        weighted = Polynomial.zero(A.base, A.degree * phi0.nvars)
        for p, sk in zip(coords, s):
            weighted = weighted + p.scale(sk)
        assert transfer_form(A, s, phi0).body == weighted
        assert norm_via_regular(A, phi0) == norm_via_resultant(A, phi0)
