import ast
import random
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from formforge import (
    DimensionMismatch,
    HomogeneousForm,
    Polynomial,
    QQ,
    RationalFunction,
    ScaledWitness,
    SingularWitness,
    TermBudgetExceeded,
    UnitMismatch,
    absorb_twist,
    catalog,
    composition_algebra_norm,
    det_norm,
    diagonal_form,
    diagonal_jordan_cubic_decision,
    diagonal_strong_mult_decision,
    exponent_chain,
    exponent_implies_strong,
    krull_schmidt_obstruction,
    matrix_algebra,
    odd_degree_strengthen,
    orthogonal_sum,
    reduce_exponent,
    root_of_unity_ratio,
    scaled_block_sum,
    split_etale_presentation,
    tits_cubic,
    twist_witness,
    verify_composition,
    verify_exponent,
    verify_jordan_composition,
    verify_scaled_witness,
    verify_similarity,
    verify_strong_jordan_multiplicativity,
    verify_strong_multiplicativity,
)
from formforge import linalg, poly
from formforge import witness as W
from formforge.coeffield import EtaleAlgebra, RationalField, StructureTensor, field_extend
from formforge.constructions import _det_form, product_polys
from oracles import (
    brute_force_exponent_closure,
    composition_identity,
    generic_eval,
    jordan_identity,
    jordan_triple_polys,
    rf_mat_mul_all_products,
    sample_one_at_a_time,
    scaled_witness_identity,
)


def var(n, i):
    return Polynomial.variable(QQ, n, i)


def const(n, c):
    return Polynomial.const(QQ, n, c)


def rf(p):
    return RationalFunction.from_poly(p)


def diag(coeffs, d):
    n = len(coeffs)
    pairs = [
        (tuple(d if j == i else 0 for j in range(n)), c)
        for i, c in enumerate(coeffs)
    ]
    return HomogeneousForm.from_body(d, Polynomial.from_pairs(QQ, n, pairs))


def two_squares_matrix():
    x1, x2 = var(2, 0), var(2, 1)
    return ((rf(x1), rf(-x2)), (rf(x2), rf(x1)))


def hyperbolic_matrix():
    # (x1^2 - x2^2)(y1^2 - y2^2) = (x1 y1 + x2 y2)^2 - (x1 y2 + x2 y1)^2
    x1, x2 = var(2, 0), var(2, 1)
    return ((rf(x1), rf(x2)), (rf(x2), rf(x1)))


def test_two_squares_witness_proved():
    phi = diag([1, 1], 2)
    report = verify_strong_multiplicativity(phi, two_squares_matrix())
    assert report.verdict == "proved"
    assert report.mode == "symbolic"


def test_power_form_jordan_witness_proved():
    # phi = q^2 with M = q I carries the scalar phi(X)^2
    q = var(2, 0) ** 2 - var(2, 1) ** 2
    phi = HomogeneousForm.from_body(4, q * q)
    m = ((rf(q), rf(const(2, 0))), (rf(const(2, 0)), rf(q)))
    report = verify_strong_jordan_multiplicativity(phi, m)
    assert report.verdict == "proved"


def test_identity_matrix_refuted_with_counterexample():
    phi = diag([1, 1], 3)
    eye = ((rf(const(2, 1)), rf(const(2, 0))), (rf(const(2, 0)), rf(const(2, 1))))
    report = verify_strong_multiplicativity(phi, eye)
    assert report.verdict == "refuted"
    assert report.counterexample is not None
    assert not report.holds()


def test_composition_with_reversed_matrix_product():
    # det(AB) = det(BA), so z(x, y) = y * x also composes det2
    phi = det_norm(2).form
    structure = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for r in range(2):
        for c in range(2):
            for k in range(2):
                # C = B A: C[r][c] = sum_k B[r][k] A[k][c]
                structure[2 * r + c][2 * k + c][2 * r + k] = 1
    report = verify_composition(phi, structure)
    assert report.verdict == "proved"


def test_jordan_composition_split_cubic():
    phi = HomogeneousForm.from_body(3, var(3, 0) * var(3, 1) * var(3, 2))
    report = verify_jordan_composition(phi, split_etale_presentation(3))
    assert report.verdict == "proved"


def test_jordan_composition_det2_and_det3():
    for d in (2, 3):
        report = verify_jordan_composition(det_norm(d).form, matrix_algebra(d))
        assert report.verdict == "proved"


def test_jordan_needs_unit_value_one():
    body = (var(3, 0) * var(3, 1) * var(3, 2)).scale(QQ.from_rational(2))
    phi = HomogeneousForm.from_body(3, body)
    with pytest.raises(UnitMismatch):
        verify_jordan_composition(phi, split_etale_presentation(3))


def test_singular_witness_rejected():
    phi = diag([1, 1], 2)
    x1 = var(2, 0)
    m = ((rf(x1), rf(x1)), (rf(x1), rf(x1)))
    with pytest.raises(SingularWitness):
        verify_strong_multiplicativity(phi, m)


def test_rank_deficient_12x12_witness_rejected_in_polynomial_time(monkeypatch):
    """Eleven independent rows of entries a + b*x and a last row 2 * row 0 -
    row 10: every sampled point gives determinant zero, so the symbolic
    determinant decides.  Cofactor expansion would need 12! products; the
    elimination stops after eleven steps, at most 2 * 11^2 products each."""
    n = 12
    phi = diag([1] * n, 2)
    rng = random.Random(12)
    one, x = Polynomial.const(QQ, 1, 1), var(1, 0)
    rows = [
        [one.scale(rng.randint(-3, 3)) + x.scale(rng.randint(-3, 3)) for _ in range(n)]
        for _ in range(n - 1)
    ]
    at_one = [[p.eval_int((1,)) for p in row] for row in rows]
    assert linalg.rank(QQ, at_one) == n - 1  # the dependency is in the last row only
    rows.append([a.scale(2) - b for a, b in zip(rows[0], rows[-1])])
    w = ScaledWitness(rf(one), tuple(tuple(rf(p) for p in row) for row in rows))
    products = 0
    mul = Polynomial.__mul__

    def counted(a, b):
        nonlocal products
        products += 1
        # fail at once rather than run a factorial expansion to its end
        assert products <= 2 * n**3, "more than 2 n^3 polynomial products"
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    t0 = time.process_time()
    with pytest.raises(SingularWitness, match="identically zero determinant"):
        verify_scaled_witness(phi, w)
    assert time.process_time() - t0 < 10.0  # about 0.5 s; the count is the bound
    assert products >= n  # the elimination multiplies through Polynomial.__mul__


def test_symbolic_det3_proof_makes_no_rational_products_in_polynomial_arithmetic(monkeypatch):
    """Over Q, Polynomial arithmetic runs on integer numerators: a symbolic
    strong-multiplicativity proof for det-3 multiplies no `Fraction` field
    elements inside it, where the term-by-term dict arithmetic made one
    `RationalField._mul` call per pair of terms."""
    cf = det_norm(3)
    depth = products = calls = 0
    rational_mul = RationalField._mul

    def inside(fn):
        def wrapper(*args, **kwargs):
            nonlocal depth
            depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth -= 1
        return wrapper

    def counted(self, x, y):
        nonlocal calls
        calls += depth > 0
        return rational_mul(self, x, y)

    polynomial_mul = Polynomial.__mul__

    def multiplied(a, b):
        nonlocal products
        products += 1
        return polynomial_mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", multiplied)
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale", "compose",
                 "embed", "exact_div"):
        monkeypatch.setattr(Polynomial, name, inside(getattr(Polynomial, name)))
    monkeypatch.setattr(RationalField, "_mul", counted)
    report = verify_strong_multiplicativity(cf.form, cf.witness, mode="symbolic")
    assert report.verdict == "proved" and report.mode == "symbolic"
    assert products > 0
    assert calls == 0


def test_symbolic_budget_overflow_raises():
    phi = diag([1, 1], 2)
    with pytest.raises(TermBudgetExceeded):
        verify_strong_multiplicativity(phi, two_squares_matrix(), mode="symbolic", budget=1)


def test_random_mode_needs_seed():
    phi = diag([1, 1], 2)
    with pytest.raises(ValueError):
        verify_strong_multiplicativity(phi, two_squares_matrix(), mode="random")


def test_auto_falls_back_to_random_under_budget():
    phi = diag([1, 1], 2)
    report = verify_strong_multiplicativity(
        phi, two_squares_matrix(), mode="auto", budget=1, samples=12
    )
    assert report.mode == "random"
    assert report.verdict == "evidence"
    assert report.seed == 0
    assert "budget" in report.notes
    assert report.overall_bound == report.per_sample_bound ** 12


def test_random_mode_gives_up_when_every_point_is_a_pole():
    # box_halfwidth=0 draws only x = 0, a pole of c = 1/x0
    phi = diag([1, 1], 2)
    w = ScaledWitness(
        scalar=RationalFunction(const(2, 1), var(2, 0)), matrix=two_squares_matrix()
    )
    with pytest.raises(RuntimeError, match="could not avoid witness poles while sampling"):
        verify_scaled_witness(phi, w, mode="random", samples=4, seed=1, box_halfwidth=0)


def test_random_agrees_with_symbolic_proof():
    phi = diag([1, 1], 2)
    for seed in range(3):
        report = verify_strong_multiplicativity(
            phi, two_squares_matrix(), mode="random", samples=50, seed=seed
        )
        assert report.verdict == "evidence"


def test_diagonal_decision_positive_cases():
    one = diagonal_strong_mult_decision([1], 3)
    assert one.strongly_multiplicative
    assert one.eta == QQ.from_rational(1)
    eight = diagonal_strong_mult_decision([8], 3)
    assert eight.strongly_multiplicative
    assert eight.eta == QQ.from_rational(2)


def test_diagonal_decision_negative_cases():
    assert not diagonal_strong_mult_decision([2], 3).strongly_multiplicative
    two_vars = diagonal_strong_mult_decision([1, 1], 3)
    assert not two_vars.strongly_multiplicative
    assert two_vars.reason


def test_diagonal_decision_rejects_quadratics():
    with pytest.raises(ValueError):
        diagonal_strong_mult_decision([1, 1], 2)


def test_diagonal_jordan_decision():
    assert diagonal_jordan_cubic_decision([27]).strongly_multiplicative
    assert not diagonal_jordan_cubic_decision([2]).strongly_multiplicative
    assert not diagonal_jordan_cubic_decision([1, 1]).strongly_multiplicative


def test_obstruction_unique_one_dim_component():
    phi = orthogonal_sum(diag([1], 3), HomogeneousForm.from_body(3, var(2, 0) * var(2, 1) ** 2))
    report = krull_schmidt_obstruction(phi)
    assert report.verdict == "obstructed"
    assert report.clause == "one_dim_power"
    assert report.dims == (1, 2)


def test_obstruction_split_pair():
    report = krull_schmidt_obstruction(diag([1, 1], 3))
    assert report.verdict == "obstructed"
    assert report.dims == (1, 1)


@pytest.mark.parametrize("make, dims", [
    (lambda: diag([1, 8], 3), (1, 1)),
    (lambda: diag([2, -3, 5], 4), (1, 1, 1)),
    (lambda: diag([1, 1, 1, 1, 1, 1, 1], 3), (1,) * 7),
    (lambda: orthogonal_sum(diag([1, 2, 3, 4, 5, 6, 7], 3), tits_cubic(2).form),
     (1,) * 7 + (3,)),
], ids=["two-cubes", "three-quartic", "seven-ones", "seven-ones-and-tits"])
def test_obstruction_with_one_dimensional_components_stops_at_the_power_test(make, dims):
    """With a one-dimensional component and at least two components, phi is
    never c l^d (that has a radical), so the power test decides, however
    many one-dimensional components there are."""
    report = krull_schmidt_obstruction(make())
    assert (report.verdict, report.clause, report.dims) == ("obstructed", "one_dim_power", dims)


def test_obstruction_silent_on_single_component():
    report = krull_schmidt_obstruction(tits_cubic(2).form)
    assert report.verdict == "consistent_unknown"
    assert report.dims == (3,)


def test_root_of_unity_ratio():
    f = var(2, 0) + var(2, 1)
    assert root_of_unity_ratio(f, -f, 2) == QQ.from_rational(-1)
    assert root_of_unity_ratio(f, f, 3) == QQ.from_rational(1)
    assert root_of_unity_ratio(var(2, 0), var(2, 1), 2) is None


def test_twist_by_one_is_identity():
    phi0 = diag([1, -1], 2)
    w = ScaledWitness(scalar=rf(phi0.body), matrix=hyperbolic_matrix())
    phi, tw = twist_witness(phi0, w, 1)
    assert phi == phi0
    assert tw.matrix == w.matrix
    assert tw.scalar == w.scalar


def test_twist_binary_quadratic_by_minus_one():
    phi0 = diag([1, -1], 2)
    w = ScaledWitness(scalar=rf(phi0.body), matrix=hyperbolic_matrix())
    phi, tw = twist_witness(phi0, w, -1)
    assert phi.body == phi0.body.scale(QQ.from_rational(-1))
    assert verify_scaled_witness(phi, tw).verdict == "proved"


def test_odd_degree_twist_absorbs():
    phi0 = diag([1], 3)
    w = ScaledWitness(scalar=rf(phi0.body), matrix=((rf(var(1, 0)),),))
    phi, tw = twist_witness(phi0, w, -1)
    assert phi == phi0  # mu^(d-1) = 1 for odd d and mu = -1
    plain = absorb_twist(phi, tw, -1)
    assert plain.scalar == rf(phi.body)
    assert verify_scaled_witness(phi, plain).verdict == "proved"


def _adjugate3(xs):
    # left multiplication by adj([[x0,x1,x2],[x3,x4,x5],[x6,x7,x8]]) on the
    # 9-dim space of 3x3 matrices, row-major basis e_{il} -> 3i+l
    m = [[xs[3 * i + j] for j in range(3)] for i in range(3)]

    def cof(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        minor = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
        return minor if (i + j) % 2 == 0 else -minor

    adj = [[cof(j, i) for j in range(3)] for i in range(3)]
    zero = Polynomial.const(QQ, 9, 0)
    rows = []
    for i in range(3):
        for l in range(3):
            row = []
            for k in range(3):
                for lp in range(3):
                    row.append(rf(adj[i][k] if lp == l else zero))
            rows.append(tuple(row))
    return tuple(rows)


def test_adjugate_is_exponent_two_witness_for_det3():
    phi = det_norm(3).form
    xs = [var(9, i) for i in range(9)]
    adj = _adjugate3(xs)
    report = verify_exponent(phi, adj, 2)
    assert report.verdict == "proved"


def test_odd_degree_strengthen_det3():
    phi = det_norm(3).form
    adj = _adjugate3([var(9, i) for i in range(9)])
    w = ScaledWitness(scalar=rf(phi.body) ** 2, matrix=adj)
    strong = odd_degree_strengthen(phi, w)
    # the term estimate is conservative here; the true expansion is small
    report = verify_scaled_witness(phi, strong, mode="symbolic", budget=10**9)
    assert report.verdict == "proved"
    assert strong.scalar == rf(phi.body)


def test_exponent_reduction_facts():
    assert reduce_exponent(6, 4) == 2
    assert not exponent_implies_strong(6, 4)
    for s in (2, 3, 4):
        assert exponent_implies_strong(5, s)
    assert reduce_exponent(3, 2) == 1


def test_exponent_chain_certificate():
    assert exponent_chain(6, 4) == [(2, 2)]
    for d in (4, 6, 9, 10):
        for s in range(1, d):
            chain = exponent_chain(d, s)
            cur = s
            for r, value in chain:
                assert value == r * cur - d
                assert value >= 1
                cur = value
            assert cur == reduce_exponent(d, s)


def test_brute_force_closure_matches_gcd():
    for d in (3, 5, 6, 8, 12):
        for s in range(1, d):
            assert brute_force_exponent_closure(d, s) == reduce_exponent(d, s)


def _witness_cases(field):
    """Genuine, tampered and denominator-carrying strong-mult witnesses for
    det-3 over `field`."""
    phi = _det_form(3, field)
    m = matrix_algebra(3, field=field).left_mult_witness_matrix()
    x0 = RationalFunction.from_poly(Polynomial.variable(field, 9, 0))
    tampered = tuple(
        tuple(e + x0 if (i, j) == (1, 2) else e for j, e in enumerate(row))
        for i, row in enumerate(m)
    )
    inv_x0 = x0.inv()
    scaled = tuple(tuple(inv_x0 * e for e in row) for row in m)
    c = RationalFunction.from_poly(phi.body)
    return phi, [
        ScaledWitness(scalar=c, matrix=m),
        ScaledWitness(scalar=c, matrix=tampered),
        ScaledWitness(scalar=c * inv_x0 ** 3, matrix=scaled),
    ]


def test_random_mode_same_over_q_and_a_degree_one_extension():
    # Q[t]/(t) is Q again, but its polynomials are evaluated on flat
    # coordinates and a 1 x 1 multiplication tensor instead of the scalar
    # kernel over Q; the sample loop is shared.
    K = field_extend(QQ, [0, 1])
    phi_q, cases_q = _witness_cases(QQ)
    phi_k, cases_k = _witness_cases(K)
    verdicts = []
    for wq, wk in zip(cases_q, cases_k):
        for seed, box in ((5, 10**6), (11, 2)):
            kw = dict(mode="random", samples=25, seed=seed, box_halfwidth=box)
            rq = verify_scaled_witness(phi_q, wq, **kw)
            rk = verify_scaled_witness(phi_k, wk, **kw)
            assert (rq.verdict, rq.counterexample, rq.per_sample_bound, rq.samples) == (
                rk.verdict, rk.counterexample, rk.per_sample_bound, rk.samples
            )
            verdicts.append(rq.verdict)
    assert verdicts == ["evidence"] * 2 + ["refuted"] * 2 + ["evidence"] * 2


def test_jordan_composition_split_octonions():
    cf = composition_algebra_norm("octonion", [1, 1, 1])
    assert not cf.algebra.associative
    assert verify_jordan_composition(cf.form, cf.algebra, mode="symbolic").verdict == "proved"
    report = verify_jordan_composition(cf.form, cf.algebra, mode="random", seed=3, samples=30)
    assert report.verdict == "evidence"


# ---------------------------------------------------------------------------
# random mode over etale fields: the integer kernel against generic evaluation


def _tits_over(minpoly, a):
    K = field_extend(QQ, minpoly)
    return K, tits_cubic(K.element(a))


def _etale_random_case(label):
    """The random-mode run named by label: a tampered Tits(cbrt 2)
    strong-mult witness, the Tits(sqrt 2) Jordan check, or a similarity
    witness over Q(sqrt 2) with diagonal entries x0/x0 (kept unreduced, so
    D = x0) on a box of three points, where a third of the draws are poles
    and are drawn again."""
    _, t3 = _tits_over([-2, 0, 0, 1], [1, 0, 2])
    m = [list(row) for row in t3.witness.matrix]
    m[1][1] = m[1][1] + rf(Polynomial.variable(t3.form.field, 3, 2).scale(2))
    tampered = tuple(tuple(row) for row in m)
    K2, t2 = _tits_over([-2, 0, 1], [1, 1])
    x0 = Polynomial.variable(K2, 1, 0)
    poled = tuple(
        tuple(RationalFunction(x0, x0) if i == j else RationalFunction.const(K2, 1, 0)
              for j in range(3))
        for i in range(3)
    )
    return {
        "tampered-tits-cbrt2": lambda: verify_strong_multiplicativity(
            t3.form, tampered, mode="random", samples=20, seed=4),
        "jordan-tits-sqrt2": lambda: verify_jordan_composition(
            t2.form, t2.algebra, mode="random", samples=30, seed=9),
        "poles-sqrt2": lambda: verify_similarity(
            t2.form, poled, 1, mode="random", samples=30, seed=2, box_halfwidth=1),
    }[label]


@pytest.mark.parametrize("label", ["tampered-tits-cbrt2", "jordan-tits-sqrt2", "poles-sqrt2"])
def test_random_mode_over_etale_matches_generic_eval(label, monkeypatch):
    run = _etale_random_case(label)

    def report_fields(rep):
        return {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "elapsed_s"}

    kernel = report_fields(run())
    monkeypatch.setattr(Polynomial, "eval", generic_eval)
    monkeypatch.setattr(
        Polynomial, "eval_int",
        lambda p, pt: generic_eval(p, [p.field.from_rational(x) for x in pt]),
    )
    assert report_fields(run()) == kernel
    assert kernel["verdict"] == ("refuted" if label.startswith("tampered") else "evidence")
    if label == "poles-sqrt2":
        rng = random.Random(2)
        draws = [tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(30)]
        assert any(pt[0] == 0 for pt in draws)  # x0 = 0 is a pole of x0/x0


def test_random_jordan_check_over_cbrt2_multiplies_few_field_elements(monkeypatch):
    """Evaluation over Q(cbrt 2) runs on the field's integer multiplication
    tensor, not on field-element products: 100 samples of the Tits(cbrt 2)
    Jordan check made 12,187 `EtaleAlgebra._mul` calls when every evaluation
    multiplied elements one at a time; the bound is a tenth of that."""
    _, t3 = _tits_over([-2, 0, 0, 1], [1, 0, 2])
    calls = 0
    mul = EtaleAlgebra._mul

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return mul(self, x, y)

    monkeypatch.setattr(EtaleAlgebra, "_mul", counted)
    report = verify_jordan_composition(t3.form, t3.algebra, mode="random", samples=100, seed=1)
    assert report.verdict == "evidence"
    assert calls <= 1218


# ---------------------------------------------------------------------------
# random mode against the identities evaluated one polynomial at a time

_SQRT2 = field_extend(QQ, [-2, 0, 1])
_HALF = field_extend(QQ, [Fraction(-1, 2), 0, 1])  # multiplication tensor over 2
_ENGINE_FIELDS = pytest.mark.parametrize("field", [QQ, _SQRT2, _HALF],
                                         ids=["q", "sqrt2", "sqrt-half"])
_REPORT_FIELDS = ("verdict", "mode", "samples", "seed", "box_halfwidth", "counterexample",
                  "per_sample_bound", "overall_bound")


def _tits(field):
    return tits_cubic(3 if field == QQ else field.element([1, 2]))


def _bumped(m, field):
    """One diagonal entry of M plus -2 x_2: the identity breaks."""
    rows = [list(r) for r in m]
    rows[1][1] = rows[1][1] + rf(Polynomial.variable(field, 3, 2).scale(field.from_rational(-2)))
    return tuple(tuple(r) for r in rows)


def _same_reports(report, identity, samples, seed, box_halfwidth):
    agree, nvars, degree = identity
    expected = sample_one_at_a_time(agree, nvars, degree, samples, seed, box_halfwidth)
    assert {f: getattr(report, f) for f in _REPORT_FIELDS} == {
        f: getattr(expected, f) for f in _REPORT_FIELDS}


@_ENGINE_FIELDS
def test_random_scaled_witness_matches_per_entry_identity(field):
    cf = _tits(field)
    phi, one = cf.form, RationalFunction.const(field, 3, field.one)
    x = [Polynomial.variable(field, 3, i) for i in range(3)]
    # den(c) = x_1 and D = x_0: with a box of halfwidth 2 about a third of the
    # drawn points are poles and are drawn again
    pole = ScaledWitness(
        scalar=RationalFunction(x[1], x[1]),
        matrix=tuple(tuple(RationalFunction(x[0], x[0]) if i == j else
                           RationalFunction.from_poly(Polynomial.zero(field, 3))
                           for j in range(3)) for i in range(3)),
    )
    cases = [
        (ScaledWitness(scalar=rf(phi.body), matrix=cf.witness.matrix), 100, "evidence"),
        (ScaledWitness(scalar=rf(phi.body), matrix=_bumped(cf.witness.matrix, field)), 100,
         "refuted"),
        (odd_degree_strengthen(phi, ScaledWitness(
            scalar=rf(phi.body**2), matrix=W._rf_mat_mul(cf.witness.matrix, cf.witness.matrix))),
         100, "evidence"),
        (pole, 2, "evidence"),
        (ScaledWitness(scalar=one, matrix=_bumped(pole.matrix, field)), 2, "refuted"),
    ]
    for w, box, verdict in cases:
        for seed in (1, 2):
            rep = verify_scaled_witness(phi, w, mode="random", samples=25, seed=seed,
                                        box_halfwidth=box)
            assert rep.verdict == verdict
            _same_reports(rep, scaled_witness_identity(phi, w), 25, seed, box)


@pytest.mark.parametrize("field", [QQ, _SQRT2], ids=["q", "sqrt2"])
def test_constant_witness_in_random_mode(field):
    """A constant witness has an X ring with no variables, so a batch has no
    X columns and its size comes from `sample_identity`: on <1, 2> of
    degree 3, M = 2I is a similarity of 8 and not of 7, refuted at the
    first point drawn with seed 1, as in symbolic mode."""
    phi = diagonal_form([1, 2], 3, field).form
    two, zero = RationalFunction.const(field, 0, 2), RationalFunction.const(field, 0, 0)
    m = ((two, zero), (zero, two))
    rep = verify_similarity(phi, m, 8, mode="random", seed=1)
    assert (rep.verdict, rep.samples, rep.per_sample_bound) == ("evidence", 100,
                                                                Fraction(1, 666667))
    rep = verify_similarity(phi, m, 7, mode="random", seed=1)
    assert (rep.verdict, rep.counterexample) == ("refuted", (-718218, 193707))
    assert verify_similarity(phi, m, 7, mode="symbolic").verdict == "refuted"


@_ENGINE_FIELDS
def test_random_composition_matches_per_entry_identity(field):
    cf = _tits(field)
    bad = [[list(row) for row in plane] for plane in cf.composition]
    bad[0][1][2] = bad[0][1][2] + field.one
    for structure, verdict in ((cf.composition, "evidence"), (bad, "refuted")):
        for seed in (3, 4):
            rep = verify_composition(cf.form, structure, mode="random", samples=25, seed=seed,
                                     box_halfwidth=50)
            assert rep.verdict == verdict
            _same_reports(rep, composition_identity(cf.form, structure), 25, seed, 50)


@_ENGINE_FIELDS
def test_composition_with_a_zero_plane_is_refuted(field):
    """A structure plane of zeros makes z_l = 0 and gives L_x a zero row: the
    identity is refuted in both modes, at the per-entry check's
    counterexample in random mode, and not refused or crashed on."""
    for cf in (_tits(field),) + ((det_norm(2),) if field == QQ else ()):
        planes = [[list(row) for row in plane] for plane in cf.composition]
        planes[1] = [[field.zero] * len(row) for row in planes[1]]
        assert verify_composition(cf.form, planes, mode="symbolic").verdict == "refuted"
        rep = verify_composition(cf.form, planes, mode="random", samples=25, seed=5,
                                 box_halfwidth=50)
        assert rep.verdict == "refuted"
        _same_reports(rep, composition_identity(cf.form, planes), 25, 5, 50)


@_ENGINE_FIELDS
def test_random_jordan_matches_per_entry_identity(field):
    cf = _tits(field)
    phi = cf.form
    # x_1^3 vanishes at the unit (1, 0, 0), so phi(1) = 1 still holds
    bent = HomogeneousForm(field, 3, 3, phi.body + Polynomial.variable(field, 3, 1) ** 3)
    for form, verdict in ((phi, "evidence"), (bent, "refuted")):
        for seed in (5, 6):
            rep = verify_jordan_composition(form, cf.algebra, mode="random", samples=25,
                                            seed=seed, box_halfwidth=50)
            assert rep.verdict == verdict
            _same_reports(rep, jordan_identity(form, cf.algebra), 25, seed, 50)


def _left_mult_of_planes(field, planes):
    """M[l][j] = sum_i planes[l][i][j] x_i, one term at a time."""
    n = len(planes)
    return tuple(tuple(rf(Polynomial.from_pairs(
        field, n, [(tuple(int(k == i) for k in range(n)), planes[l][i][j]) for i in range(n)]))
        for j in range(n)) for l in range(n))


@pytest.mark.parametrize("field", [QQ, _SQRT2], ids=["q", "sqrt2"])
@pytest.mark.parametrize("mode", ["symbolic", "random"])
def test_composition_reports_as_strong_multiplicativity_of_left_multiplication(field, mode):
    """phi(x) phi(y) = phi(z(x, y)) is the scaled identity with scalar phi(x)
    and N = L_x: `verify_composition` gives the report that
    `verify_strong_multiplicativity` gives on L_x, in its verdict, samples,
    counterexample and both bounds, for the algebra's constants and for one
    constant shifted by 1."""
    cf = _tits(field)
    bad = [[list(row) for row in plane] for plane in cf.composition]
    bad[0][1][2] = bad[0][1][2] + field.one
    cases = ((cf.composition, cf.algebra.left_mult_witness_matrix(), "proved"),
             (bad, _left_mult_of_planes(field, bad), "refuted"))
    assert cases[0][1] == _left_mult_of_planes(field, cf.composition)
    kw = dict(mode=mode, samples=25, seed=7, box_halfwidth=50)
    for structure, witness, verdict in cases:
        a = verify_composition(cf.form, structure, **kw)
        b = verify_strong_multiplicativity(cf.form, witness, **kw)
        assert a.verdict == (verdict if mode == "symbolic" or verdict == "refuted" else "evidence")
        assert a.identity != b.identity
        same = [f.name for f in fields(a) if f.name not in ("identity", "elapsed_s")]
        assert [getattr(a, f) for f in same] == [getattr(b, f) for f in same]


@pytest.mark.parametrize("make", [
    lambda: det_norm(3).algebra,
    lambda: composition_algebra_norm("quaternion", [-1, 3]).algebra,
    lambda: composition_algebra_norm("octonion", [1, 1, 1]).algebra,
    lambda: composition_algebra_norm("octonion", [-1, 2, -3]).algebra,
    lambda: _tits(_SQRT2).algebra,
    lambda: _tits(_HALF).algebra,
], ids=["det3", "quaternion", "octonion-split", "octonion", "tits-sqrt2", "tits-sqrt-half"])
def test_left_multiplication_and_u_operator_are_the_products(make):
    """L_x y and U_v w, as polynomials in x then y (v then w), are exactly
    the products xy and {v w v} that `product_polys` forms on variable
    vectors, for associative presentations and for octonions, where U_v is
    read off the Jordan product's constants."""
    alg = make()
    n, field = alg.dim, alg.field
    x = [Polynomial.variable(field, 2 * n, i) for i in range(n)]
    y = [Polynomial.variable(field, 2 * n, n + i) for i in range(n)]
    z = product_polys(alg.tensor, x, y)
    assert poly.linear_forms(poly.left_multiplication(alg.tensor)) == z
    assert list(poly.linear_forms(poly.u_operator(alg.tensor, alg.associative))) == \
        jordan_triple_polys(alg)
    assert alg.left_mult_witness_matrix() == tuple(
        tuple(rf(p) for p in row) for row in poly.left_multiplication(alg.tensor))


def test_malformed_structure_planes_raise_dimension_mismatch():
    """A structure matrix that is not n x n is refused with
    DimensionMismatch, as a witness matrix of the wrong shape is; a plane of
    4 x 3 on det-2 used to raise IndexError."""
    cf = det_norm(2)
    planes = [[list(row) for row in plane] for plane in cf.composition]
    planes[1] = [row[:3] for row in planes[1]]
    with pytest.raises(DimensionMismatch):
        verify_composition(cf.form, planes)
    planes = [[list(row) for row in plane] for plane in cf.composition]
    planes[2] = planes[2][:3]
    with pytest.raises(DimensionMismatch):
        verify_composition(cf.form, planes)
    with pytest.raises(DimensionMismatch):
        verify_composition(cf.form, cf.composition[:3])
    with pytest.raises(DimensionMismatch):
        verify_composition(cf.form, det_norm(3).algebra.tensor)
    tensor = StructureTensor.from_elements(QQ, cf.algebra.structure)
    assert verify_composition(cf.form, tensor).verdict == "proved"


def test_one_driver_samples_and_proves():
    """`sample_identity` and `verify_identity` are called from one place in
    the library: the one identity check `witness._verify_scaled` (and
    `sample_identity` also from `poly.verify_identity`'s own random mode)."""
    src = Path(W.__file__).parent
    sites = {"sample_identity": [], "verify_identity": []}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in sites:
                        sites[name].append((path.stem, fn.name))
    assert sites == {
        "sample_identity": [("poly", "verify_identity"), ("witness", "_verify_scaled")],
        "verify_identity": [("witness", "_verify_scaled")],
    }


def test_random_det3_check_builds_no_fraction_per_sample(monkeypatch):
    """Over Q the random-mode identity is compared in ints: a det-3
    strong-multiplicativity check builds as many `Fraction`s, and makes as
    many rational products, with 40 samples as with 4."""
    cf = det_norm(3)
    counts = {"fractions": 0, "products": 0}
    new, rational_mul = Fraction.__new__, RationalField._mul

    def counted_new(cls, *args, **kwargs):
        counts["fractions"] += 1
        return new(cls, *args, **kwargs)

    def counted_mul(self, x, y):
        counts["products"] += 1
        return rational_mul(self, x, y)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(RationalField, "_mul", counted_mul)
    seen = []
    for samples in (4, 40):
        counts.update(fractions=0, products=0)
        rep = verify_strong_multiplicativity(cf.form, cf.witness, mode="random",
                                             samples=samples, seed=9)
        assert rep.verdict == "evidence" and rep.samples == samples
        seen.append(dict(counts))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("shared", [True, False])
def test_rf_mat_mul_matches_all_products(shared):
    """`_rf_mat_mul` skips zero entries and, when each matrix has one
    denominator, sums numerator products; the entries are the very
    numerators and denominators that adding up every product gives.  With
    `shared` false the entries of a have two denominators."""
    rng = random.Random(7)
    field = field_extend(QQ, [-2, 0, 1])
    x = [Polynomial.variable(field, 2, i) for i in range(2)]
    one = Polynomial.const(field, 2, field.one)
    dens = [x[0] * x[0] + x[1] + one, x[0] - x[1].scale(3)]

    def matrix(den_of):
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                if rng.random() < 0.4:
                    row.append(rf(Polynomial.zero(field, 2)))
                else:
                    num = x[rng.randrange(2)].scale(field.element([rng.randint(-3, 3), 1]))
                    row.append(RationalFunction(num + one, den_of(i, j)))
            rows.append(tuple(row))
        return tuple(rows)

    a = matrix((lambda i, j: dens[0]) if shared else (lambda i, j: dens[(i + j) % 2]))
    b = matrix(lambda i, j: dens[1])
    for got_row, want_row in zip(W._rf_mat_mul(a, b), rf_mat_mul_all_products(a, b)):
        for got, want in zip(got_row, want_row):
            assert got.num == want.num and got.den == want.den


def test_random_mode_compiles_only_the_nonzero_entries(monkeypatch):
    """Random mode on M^2 of the block sum of two det-3 norms, 306 of whose
    324 entries are zero, compiles one program over X: D, num(c), den(c)
    and the 18 nonzero entries of N."""
    cf = scaled_block_sum(det_norm(3), [2, -3])
    m2 = W._rf_mat_mul(cf.witness.matrix, cf.witness.matrix)
    assert sum(not e.is_zero() for row in m2 for e in row) == 18
    sizes = []

    class Recording(W.EvalProgram):
        def __init__(self, polys):
            sizes.append(len(polys))
            super().__init__(polys)

    monkeypatch.setattr(W, "EvalProgram", Recording)
    rep = verify_strong_jordan_multiplicativity(cf.form, m2, mode="random", seed=1, samples=5)
    assert rep.verdict == "evidence"
    assert sizes == [1 + 2 + 18]


@pytest.mark.parametrize("mode", ["symbolic", "random"])
def test_scaled_check_compiles_one_program_over_x(monkeypatch, mode):
    """A scaled check compiles one program over X, for the invertibility
    check and the samples alike; random mode adds only phi's own program."""
    cf = tits_cubic(field_extend(QQ, [-2, 0, 1]).element([1, 2]))
    phi = cf.form
    compiled = []

    class Recording(poly.EvalProgram):
        def __init__(self, polys):
            compiled.append(list(polys))
            super().__init__(polys)

    monkeypatch.setattr(poly, "EvalProgram", Recording)
    monkeypatch.setattr(W, "EvalProgram", Recording)
    rep = verify_scaled_witness(phi, cf.witness, mode=mode, seed=1, samples=3)
    assert rep.verdict == ("proved" if mode == "symbolic" else "evidence")
    over_x = [polys for polys in compiled if polys != [phi.body]]
    assert len(over_x) == 1 and len(compiled) <= 2
    N, D = poly.clear_denominators(cf.witness.matrix)
    entries = [e for row in N for e in row if not e.is_zero()]
    c = cf.witness.scalar
    assert over_x[0] == [D, c.num, c.den] + entries


def test_symbolic_scaled_check_clears_denominators_once(monkeypatch):
    calls = []
    clear = poly.clear_denominators

    def counting(m):
        calls.append(m)
        return clear(m)

    monkeypatch.setattr(poly, "clear_denominators", counting)
    monkeypatch.setattr(W, "clear_denominators", counting)
    x = [var(2, i) for i in range(2)]
    phi = HomogeneousForm(QQ, 2, 2, x[0] * x[1])
    # diag(x_0 / x_1, x_1 / x_0): phi(M Y) = phi(Y), so c = 1
    w = ScaledWitness(RationalFunction.const(QQ, 2, 1),
                      ((RationalFunction(x[0], x[1]), RationalFunction.const(QQ, 2, 0)),
                       (RationalFunction.const(QQ, 2, 0), RationalFunction(x[1], x[0]))))
    assert verify_scaled_witness(phi, w, mode="symbolic").verdict == "proved"
    assert len(calls) == 1


_SQRT2 = field_extend(QQ, [-2, 0, 1])
_CBRT2 = field_extend(QQ, [-2, 0, 0, 1])
_HALF = field_extend(QQ, [Fraction(-1, 2), 0, 1])  # t^2 = 1/2: the tensor's den is 2
_OMEGA = field_extend(QQ, [1, 1, 1])
_TOWER = field_extend(_OMEGA, [_OMEGA.from_rational(-2), _OMEGA.zero, _OMEGA.zero, _OMEGA.one])


def test_rational_powers_over_an_extension_are_not_refuted():
    """2 = (cbrt 2)^3 and 4 = (sqrt 2)^4 have no rational root, but their
    norms are powers: undecided, where the test over Q answered False."""
    assert W.scalar_is_dth_power(_CBRT2.from_rational(2), 3) == (None, None)
    with pytest.raises(NotImplementedError):
        diagonal_jordan_cubic_decision([2], field=_CBRT2)
    with pytest.raises(NotImplementedError):
        diagonal_strong_mult_decision([4], 4, field=_SQRT2)


@pytest.mark.parametrize("field, d", [(_SQRT2, 3), (_SQRT2, 5), (_CBRT2, 2), (_CBRT2, 4),
                                      (_TOWER, 4), (_TOWER, 5), (_HALF, 3)],
                         ids=["sqrt2-3", "sqrt2-5", "cbrt2-2", "cbrt2-4", "tower-4", "tower-5",
                              "half-3"])
def test_dth_powers_over_etale_fields(field, d):
    """r^d never comes back False, and a rational root is returned as one;
    2 r^d has the norm 2^m N(r)^d, which is not a d-th power when d does
    not divide m = [k:Q], so it comes back False."""
    rng = random.Random(d * field.absolute_degree)
    m = field.absolute_degree
    for _ in range(6):
        r = field.from_flat([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)])
        if r.is_zero():
            r = field.one
        verdict, root = W.scalar_is_dth_power(r**d, d)
        assert verdict is not False
        if verdict:
            assert root**d == r**d
        assert W.scalar_is_dth_power(field.from_rational(2) * r**d, d) == (False, None)
    q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    assert W.scalar_is_dth_power(field.from_rational(q**d), d) == (True, field.from_rational(q))


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


@pytest.mark.parametrize("cf", [
    composition_algebra_norm("octonion", [1, 1, 1]),
    tits_cubic(field_extend(QQ, [-2, 0, 1]).element([1, 2])),
], ids=["split-octonion", "tits-sqrt2"])
def test_singular_witness_takes_at_most_three_sampled_ranks(monkeypatch, cf):
    """Row 1 of a witness replaced by 3 times row 0: the first two sampled
    points give the same rank below n, and the symbolic determinant, which
    still decides, comes after at most three rank computations."""
    m = cf.witness.matrix
    three = RationalFunction.const(cf.form.field, m[0][0].num.nvars, 3)
    rows = (m[0], tuple(three * e for e in m[0])) + m[2:]
    ranks = _count_calls(monkeypatch, linalg, "rank")
    dets = _count_calls(monkeypatch, W, "ring_matrix_determinant")
    with pytest.raises(SingularWitness, match="identically zero determinant"):
        verify_strong_multiplicativity(cf.form, rows)
    assert 2 <= len(ranks) <= 3 and len(dets) == 1


def test_catalog_witnesses_prove_invertibility_at_a_sampled_point(monkeypatch):
    """No witness of the catalog, nor the Tits cubic's over Q(sqrt 2), needs
    the symbolic determinant: a sampled point of full rank proves it."""
    forms = [cf for _, cf in catalog()]
    forms.append(tits_cubic(field_extend(QQ, [-2, 0, 1]).element([1, 2])))
    dets = _count_calls(monkeypatch, W, "ring_matrix_determinant")
    witnessed = [cf for cf in forms if cf.witness is not None]
    for cf in witnessed:
        rep = verify_scaled_witness(cf.form, cf.witness, mode="random", seed=1, samples=1)
        assert rep.verdict == "evidence"
    assert len(witnessed) == 14 and dets == []


def test_all_ones_point_does_not_count_toward_the_stop(monkeypatch):
    """M(X) = [[x0, x1], [x1, x0]] is a similarity of x0^2 - x1^2 whose
    det (x0 - x1)(x0 + x1) vanishes on x0 = x1.  Rank 1 at the all-ones
    point and at (2, 2) is one deficient random point, not two: the next
    point proves invertibility and no symbolic determinant is taken."""
    x0, x1 = var(2, 0), var(2, 1)
    phi = HomogeneousForm(QQ, 2, 2, x0 * x0 - x1 * x1)
    R = RationalFunction.from_poly
    w = ScaledWitness(scalar=R(phi.body), matrix=((R(x0), R(x1)), (R(x1), R(x0))))
    monkeypatch.setattr(W, "_invertibility_points", lambda nx: iter([(1, 1), (2, 2), (1, 2)]))
    ranks = _count_calls(monkeypatch, linalg, "rank")
    dets = _count_calls(monkeypatch, W, "ring_matrix_determinant")
    assert verify_scaled_witness(phi, w, mode="symbolic").verdict == "proved"
    assert len(ranks) == 3 and dets == []


@pytest.mark.parametrize("mode", ["random", "symbolic"])
def test_zero_divisor_pivot_over_a_product_of_fields(monkeypatch, mode):
    """Over Q[t]/(t^2 - 1), the form x0 x1 in the basis of P = [[1, t], [0, 1]]
    is u0 x1 with u0 = x0 + t x1, and P^-1 diag(u0, x1) P is its witness.
    At the all-ones point its first pivot is 1 + t, a zero divisor: the
    rank cannot go on there, and the nonzero det 1 + t proves invertibility
    with no symbolic determinant."""
    k = field_extend(QQ, [-1, 0, 1])
    t = k.gen
    x0, x1 = (Polynomial.variable(k, 2, i) for i in range(2))
    c = lambda a: Polynomial.const(k, 2, a)
    u0 = x0 + c(t) * x1
    phi = HomogeneousForm(k, 2, 2, u0 * x1)
    R = RationalFunction.from_poly
    zero = R(Polynomial.zero(k, 2))
    w = ScaledWitness(scalar=R(phi.body),
                      matrix=((R(u0), R(c(t) * x0 + c(k.one - t) * x1)), (zero, R(x1))))
    dets = _count_calls(monkeypatch, W, "ring_matrix_determinant")
    rep = verify_scaled_witness(phi, w, mode=mode, seed=1)
    assert rep.verdict == ("evidence" if mode == "random" else "proved") and dets == []


def test_singular_witness_over_sqrt2_with_a_row_t_times_another(monkeypatch):
    """Row 1 of the Tits witness over Q(sqrt 2) replaced by t times row 0:
    the restriction of N(x) to Q has rank at most (n - 1) m everywhere, so the
    symbolic determinant decides after at most three rank computations."""
    k = field_extend(QQ, [-2, 0, 1])
    cf = tits_cubic(k.element([1, 2]))
    m = cf.witness.matrix
    t = RationalFunction.const(k, m[0][0].num.nvars, k.gen)
    rows = (m[0], tuple(t * e for e in m[0])) + m[2:]
    ranks = _count_calls(monkeypatch, linalg, "rank")
    dets = _count_calls(monkeypatch, W, "ring_matrix_determinant")
    with pytest.raises(SingularWitness, match="identically zero determinant"):
        verify_strong_multiplicativity(cf.form, rows)
    assert 2 <= len(ranks) <= 3 and len(dets) == 1


def test_invertibility_over_sqrt2_multiplies_no_field_elements(monkeypatch):
    """The Tits witness over Q(sqrt 2) is proved invertible by the rank over
    Q of the restricted N(x), read from the program's int vectors: no
    `EtaleAlgebra._mul` or `_inv` call inside `_matrix_invertible`."""
    cf = tits_cubic(field_extend(QQ, [-2, 0, 1]).element([1, 2]))
    inside, calls = [], []
    check = W._matrix_invertible

    def checked(*args):
        inside.append(True)
        try:
            return check(*args)
        finally:
            inside.pop()

    def counted(name):
        fn = getattr(EtaleAlgebra, name)

        def wrapper(self, *args):
            if inside:
                calls.append(name)
            return fn(self, *args)
        return wrapper

    for name in ("_mul", "_inv"):
        monkeypatch.setattr(EtaleAlgebra, name, counted(name))
    monkeypatch.setattr(W, "_matrix_invertible", checked)
    ranks = _count_calls(monkeypatch, linalg, "rank")
    rep = verify_scaled_witness(cf.form, cf.witness, mode="random", seed=1, samples=1)
    assert rep.verdict == "evidence" and len(ranks) == 1 and calls == []
