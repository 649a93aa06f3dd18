"""Acceptance gate: one test per shipped guarantee, one PASS line each.

Everything here is exact rational arithmetic; "proved" means a symbolic
polynomial identity, never a numerical tolerance.
"""

import itertools
import random

from formforge import (
    HomogeneousForm,
    Polynomial,
    QQ,
    cayley_dickson_quartic,
    composition_algebra_norm,
    depolarize,
    det_norm,
    diagonal_strong_mult_decision,
    exponent_chain,
    exponent_implies_strong,
    field_extend,
    hyperbolic_plane,
    is_absolutely_indecomposable,
    is_nondegenerate,
    jordan_triple_from_degree3,
    krull_schmidt_decompose,
    krull_schmidt_obstruction,
    matrix_algebra,
    norm_compose,
    orthogonal_sum,
    polarize,
    radical,
    reduce_exponent,
    split_albert_norm,
    split_jordan_q4,
    structurable_quartic,
    tits_cubic,
    verify_composition,
    verify_jordan_composition,
    verify_scaled_witness,
)
from formforge.constructions import albert_sharp, catalog, norm_via_regular
from formforge.forms import apply_change_of_basis
from formforge.poly import verify_identity
from oracles import brute_force_exponent_closure, norm_via_resultant, polarize_inclusion_exclusion


def var(n, i):
    return Polynomial.variable(QQ, n, i)


def const(n, c):
    return Polynomial.const(QQ, n, c)


def diag(coeffs, d):
    n = len(coeffs)
    pairs = [
        (tuple(d if j == i else 0 for j in range(n)), c)
        for i, c in enumerate(coeffs)
    ]
    return HomogeneousForm.from_body(d, Polynomial.from_pairs(QQ, n, pairs))


def _pass(num, label):
    print("ACCEPTANCE %02d %s: PASS" % (num, label))


def _random_form(rng, n, d):
    while True:
        pairs = []
        for e in itertools.combinations_with_replacement(range(n), d):
            exp = [0] * n
            for i in e:
                exp[i] += 1
            c = rng.randint(-9, 9)
            if c:
                pairs.append((tuple(exp), c))
        if pairs:
            return HomogeneousForm.from_body(d, Polynomial.from_pairs(QQ, n, pairs))


def test_criterion_01_polarization_round_trip():
    rng = random.Random(20260814)
    for _ in range(50):
        phi = _random_form(rng, rng.randint(1, 4), rng.randint(2, 5))
        assert depolarize(polarize(phi)) == phi
        assert polarize(phi) == polarize_inclusion_exclusion(phi)
    _pass(1, "polarization round-trip on 50 random forms")


def test_criterion_02_composition_identities():
    cases = [
        ("det2", det_norm(2)),
        ("det3", det_norm(3)),
        ("binary", composition_algebra_norm("binary", [-1])),
        ("quaternion", composition_algebra_norm("quaternion", [-1, -1])),
        ("octonion", composition_algebra_norm("octonion", [-1, -1, -1])),
        ("hyperbolic", hyperbolic_plane()),
    ]
    for name, cf in cases:
        rep = verify_composition(cf.form, cf.composition, mode="symbolic")
        assert rep.verdict == "proved", name
        assert rep.elapsed_s < 60, name
    _pass(2, "composition identities proved symbolically")


def test_criterion_03_jordan_composition():
    rep = verify_jordan_composition(det_norm(2).form, matrix_algebra(2), mode="symbolic")
    assert rep.verdict == "proved"

    rep = verify_jordan_composition(det_norm(3).form, matrix_algebra(3), mode="auto")
    if rep.mode == "symbolic":
        assert rep.verdict == "proved"
    else:
        rep = verify_jordan_composition(
            det_norm(3).form, matrix_algebra(3), mode="random", samples=200, seed=0
        )
        assert rep.verdict == "evidence"
        assert rep.counterexample is None
    _pass(3, "Jordan composition for det2 and det3")


def test_criterion_04_tits_cubic_with_symbolic_parameter():
    # seven variables: x = (u, v, w), y = (u', v', w'), and the scalar a
    u, v, w, up, vp, wp, a = [var(7, i) for i in range(7)]

    def norm(p, q, r):
        return p ** 3 + a * q ** 3 + a * a * r ** 3 - const(7, 3) * a * p * q * r

    z0 = u * up + a * (v * wp + w * vp)
    z1 = u * vp + v * up + a * w * wp
    z2 = u * wp + v * vp + w * up
    rep = verify_identity(norm(z0, z1, z2), norm(u, v, w) * norm(up, vp, wp),
                          mode="symbolic")
    assert rep.verdict == "proved"

    phi = tits_cubic(2).form
    assert len(krull_schmidt_decompose(phi).components) == 1
    assert krull_schmidt_obstruction(phi).verdict == "consistent_unknown"
    _pass(4, "parametric Tits norm identity, indecomposable, unobstructed")


def _integer_dth_power(c, d):
    r = 0
    while r ** d < c:
        r += 1
    return r ** d == c


def test_criterion_05_diagonal_decision_grid():
    grid = (1, 2, 3, 4, 8)
    for d in (3, 4):
        for n in (1, 2, 3):
            for coeffs in itertools.product(grid, repeat=n):
                decision = diagonal_strong_mult_decision(list(coeffs), d)
                expected = n == 1 and _integer_dth_power(coeffs[0], d)
                assert decision.strongly_multiplicative == expected, (coeffs, d)
    for a in grid:
        assert not diagonal_strong_mult_decision([1, a], 3).strongly_multiplicative
        assert not diagonal_strong_mult_decision([1, a, a * a], 3).strongly_multiplicative
    _pass(5, "diagonal decisions across the full grid")


def _xy2():
    return HomogeneousForm.from_body(3, var(2, 0) * var(2, 1) ** 2)


def test_criterion_06_krull_schmidt():
    dec = krull_schmidt_decompose(diag([1, 2, 3], 3))
    assert [c.dim for c in dec.components] == [1, 1, 1]

    assert len(krull_schmidt_decompose(_xy2()).components) == 1
    assert is_absolutely_indecomposable(_xy2())

    for phi in [diag([1, 2, 3], 3), orthogonal_sum(diag([1, 2], 3), _xy2())]:
        dec = krull_schmidt_decompose(phi)
        recon = apply_change_of_basis(phi, dec.change_of_basis)
        total = None
        for c in dec.components:
            total = c.form if total is None else orthogonal_sum(total, c.form)
        assert recon == total

        runs = [krull_schmidt_decompose(phi) for _ in range(5)]
        for again in runs:
            assert again.change_of_basis == dec.change_of_basis
            assert [c.form.body for c in again.components] == [
                c.form.body for c in dec.components
            ]
    _pass(6, "Krull-Schmidt decomposition, reconstruction, determinism")


def _promote_diag(A, coeffs):
    n = len(coeffs)
    pairs = [
        (tuple(2 if j == i else 0 for j in range(n)), A.from_rational(c))
        for i, c in enumerate(coeffs)
    ]
    return HomogeneousForm(A, 2, n, Polynomial.from_pairs(A, n, pairs))


def _in_radical(phi, vec):
    """Membership via the defining contractions of the polarization."""
    theta = polarize(phi)
    n, d = phi.nvars, phi.degree
    coords = [QQ.from_rational(c) for c in vec]
    for rest in itertools.combinations_with_replacement(range(n), d - 1):
        total = QQ.zero
        for i in range(n):
            total = total + coords[i] * theta.entry(tuple(sorted((i,) + rest)))
        if not total.is_zero():
            return False
    return True


def test_criterion_07_norm_composition():
    A = field_extend(QQ, [-5, 0, 1])
    sqrt5 = _promote_diag(A, [1, 2])  # phi0 of the norm-compose-sqrt5 catalog entry
    cf = norm_compose(A, sqrt5)
    assert cf.form.degree == 4 and cf.form.nvars == 4
    y = [var(4, i) for i in range(4)]
    p0 = y[0] ** 2 + const(4, 5) * y[1] ** 2 + const(4, 2) * y[2] ** 2 \
        + const(4, 10) * y[3] ** 2
    p1 = const(4, 2) * y[0] * y[1] + const(4, 4) * y[2] * y[3]
    assert cf.form.body == p0 * p0 - const(4, 5) * p1 * p1

    # pad: phi0 ignores its second slot, so both of its lifts must die in phi
    degenerate = HomogeneousForm(A, 2, 2, Polynomial.from_pairs(A, 2, [((2, 0), A.one)]))
    padded = norm_compose(A, degenerate)
    for lift in [(0, 0, 1, 0), (0, 0, 0, 1)]:
        assert _in_radical(padded.form, lift)

    B = field_extend(QQ, [1, 1, 1])
    A6 = field_extend(B, [B.from_rational(-2), B.zero, B.zero, B.one])
    pairs = [((2, 0), A6.one), ((0, 2), A6.from_rational(2))]
    phi0 = HomogeneousForm(A6, 2, 2, Polynomial.from_pairs(A6, 2, pairs))
    for K, form0 in [(A, sqrt5), (A, degenerate), (A6, phi0)]:
        assert norm_via_regular(K, form0) == norm_via_resultant(K, form0)
    tower = norm_compose(A6, phi0)
    assert tower.form.degree == 6 and tower.form.nvars == 6
    assert tower.form.field is B
    assert is_nondegenerate(tower.form)
    _pass(7, "norm composition: sqrt(5) expansion, radicals, cube-root tower")


def test_criterion_08_structurable_and_albert():
    triple = jordan_triple_from_degree3(matrix_algebra(3), 1)
    triple.check_adjoint()
    cf = structurable_quartic(triple)
    assert cf.form.nvars == 20
    assert cf.form.eval(list(cf.unit)) == QQ.from_rational(1)
    assert radical(cf.form) == []

    albert = split_albert_norm()
    assert albert.form.eval(list(albert.unit)) == QQ.from_rational(1)
    vec = [var(27, i) for i in range(27)]
    double = albert_sharp(albert_sharp(vec))
    for i in range(27):
        assert double[i] == albert.form.body * vec[i]
    _pass(8, "structurable adjoint identity and Albert sharp-of-sharp")


def test_criterion_09_cayley_dickson_quartic():
    B = split_jordan_q4()
    point = (2, 3, 4, 5)
    base_value = QQ.from_rational(2 * 3 * 4 * 5)
    zeros = (0, 0, 0, 0)
    for mu in (1, 3):
        cf = cayley_dickson_quartic(B, mu)
        assert cf.form.body.eval_int(point + zeros) == base_value
        assert cf.form.body.eval_int(zeros + point) == QQ.from_rational(mu * mu) * base_value
        assert is_nondegenerate(cf.form)
    _pass(9, "Cayley-Dickson quartic collapses and nondegeneracy")


def test_criterion_10_exponent_calculus():
    for d in range(2, 13):
        for s in range(1, d):
            assert reduce_exponent(d, s) == brute_force_exponent_closure(d, s)
            cur = s
            for r, value in exponent_chain(d, s):
                assert value == r * cur - d and value >= 1
                cur = value
            assert cur == reduce_exponent(d, s)

    assert reduce_exponent(3, 2) == 1
    for d in (5, 7):
        assert all(exponent_implies_strong(d, s) for s in range(1, d))
    assert reduce_exponent(6, 4) == 2
    assert not exponent_implies_strong(6, 4)
    _pass(10, "exponent reduction matches subgroup closure through degree 12")


def test_criterion_11_witness_soundness_regression():
    for name, cf in catalog():
        symbolic = []
        if cf.witness is not None:
            rep = verify_scaled_witness(cf.form, cf.witness, mode="auto")
            if rep.mode == "symbolic":
                assert rep.verdict == "proved", name
                symbolic.append(("scaled", rep.verdict))
            else:
                assert rep.holds(), name
        if cf.composition is not None:
            rep = verify_composition(cf.form, cf.composition, mode="auto")
            if rep.mode == "symbolic":
                assert rep.verdict == "proved", name
                symbolic.append(("composition", rep.verdict))
            else:
                assert rep.holds(), name

        for kind, verdict in symbolic:
            for seed in (1, 2, 3):
                if kind == "scaled":
                    again = verify_scaled_witness(
                        cf.form, cf.witness, mode="random", samples=100, seed=seed
                    )
                else:
                    again = verify_composition(
                        cf.form, cf.composition, mode="random", samples=100, seed=seed
                    )
                assert again.verdict != "refuted", (name, kind, seed)
                assert (verdict == "proved") == (again.counterexample is None)
    _pass(11, "catalog witnesses sound, random checks never contradict")
