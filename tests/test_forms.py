import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from formforge import (
    HomogeneousForm,
    LinearMap,
    Polynomial,
    QQ,
    SymmetricTensor,
    apply_change_of_basis,
    depolarize,
    field_extend,
    is_nondegenerate,
    linalg,
    orthogonal_sum,
    polarize,
    radical,
    tensor_product,
    transfer,
    transfer_form,
)
from formforge.coeffield import EtaleAlgebra, FieldElement, ZeroDivisor, etale_norm
from formforge.decompose import CenterNotClosed, center_algebra
from formforge.forms import (
    DegreeMismatch,
    Singular,
    ZeroFunctional,
    radical_of_tensor,
    substitute_vectors,
)
from oracles import (
    depolarize_by_elements,
    polarize_inclusion_exclusion,
    tensor_product_by_elements,
)


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


def q(c):
    return QQ.from_rational(c)


def test_polarize_cube():
    theta = polarize(HomogeneousForm.from_body(3, var(1, 0) ** 3))
    assert theta.entry((0, 0, 0)) == q(1)
    assert len(theta.entries) == 1


def test_polarize_mixed_cubic():
    body = const(2, 3) * var(2, 0) ** 2 * var(2, 1)
    theta = polarize(HomogeneousForm.from_body(3, body))
    assert theta.entry((0, 0, 1)) == q(1)
    assert theta.entry((0, 0, 0)).is_zero()
    assert theta.entry((0, 1, 1)).is_zero()


def test_polarize_quadratic():
    phi = diag([1, -1], 2)
    theta = polarize(phi)
    assert theta.entry((0, 0)) == q(1)
    assert theta.entry((1, 1)) == q(-1)
    assert theta.entry((0, 1)).is_zero()


def _random_form(rng, n, d):
    exps = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
    pairs = [(e, rng.randint(-9, 9)) for e in exps]
    body = Polynomial.from_pairs(QQ, n, pairs)
    if body.is_zero():
        body = var(n, 0) ** d
    return HomogeneousForm.from_body(d, body)


def test_polarize_routes_agree():
    rng = random.Random(2)
    for _ in range(12):
        phi = _random_form(rng, rng.randint(1, 3), rng.randint(2, 4))
        assert polarize(phi) == polarize_inclusion_exclusion(phi)


Q_SQRT2 = field_extend(QQ, [-2, 0, 1])
Q_TIMES_Q = field_extend(QQ, [-1, 0, 1])  # a product of fields


def _random_over(rng, k, n, d):
    """A form of degree d in n variables over k, with small fractions as the
    flat coordinates of its coefficients: every pure power x_i^d and about
    half of the other monomials, or, half the time, such a form in n - 1
    variables at n random vectors, which has a nonzero radical."""
    def coeff():
        return k.from_flat([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                            for _ in range(k.absolute_degree)])

    r = n - 1 if n > 1 and rng.random() < 0.5 else n
    exps = [e for e in itertools.product(range(d + 1), repeat=r) if sum(e) == d]
    pairs = [(e, coeff()) for e in exps if max(e) == d or rng.random() < 0.5]
    phi = HomogeneousForm(k, d, r, Polynomial.from_pairs(k, r, pairs))
    return phi if r == n else substitute_vectors(phi, [[coeff() for _ in range(r)]
                                                       for _ in range(n)])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroDivisor, CenterNotClosed) as exc:
        return type(exc)


def _center_parts(theta):
    c = _outcome(center_algebra, theta)
    return c if isinstance(c, type) else (c.tensor.rows, c.tensor.den, c.unit, c.matrices)


def _radical_of_entries(theta):
    """The radical from the field-element entries, as `nullspace` takes them."""
    rows = {}
    for idx, val in theta.entries.items():
        for drop in range(theta.degree):
            rows.setdefault(idx[:drop] + idx[drop + 1:], {})[idx[drop]] = val
    return linalg.nullspace(theta.field, [rows[rest] for rest in sorted(rows)], theta.dim)


@pytest.mark.parametrize("k", [QQ, Q_SQRT2, Q_TIMES_Q], ids=["q", "sqrt2", "qxq"])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_polarize_on_integers_matches_inclusion_exclusion(k, d):
    """`polarize`, read off the form's packed integers, against the
    alternating sum over subsets of slots, which builds its tensor from
    field elements: equal tensors and `entries`, the form back from
    `depolarize`, and, from the tensor built of the same entries, an equal
    center (tensor, unit and matrices) and radical, also against the
    radical of the field-element rows."""
    rng = random.Random(d)
    for _ in range(4):
        phi = _random_over(rng, k, rng.randint(1, 3), d)
        theta = polarize(phi)
        expect = polarize_inclusion_exclusion(phi)
        assert theta == expect and hash(theta) == hash(expect)
        assert theta.entries == expect.entries
        assert depolarize(theta) == phi
        rebuilt = SymmetricTensor(k, d, phi.nvars, theta.entries)
        assert _center_parts(rebuilt) == _center_parts(theta)
        kernel = _outcome(radical_of_tensor, theta)
        assert kernel == _outcome(radical_of_tensor, rebuilt)
        assert kernel == _outcome(_radical_of_entries, theta)


def test_tensor_entries_are_checked():
    """The constructor refuses a malformed index and an entry over another
    field, which the integer storage would misread."""
    for idx, message in (((0,), "arity"), ((0, 2), "out of range"), ((1, 0), "not sorted")):
        with pytest.raises(ValueError, match=message):
            SymmetricTensor(QQ, 2, 2, {idx: q(1)})
    for k, x in ((QQ, Q_SQRT2.gen), (Q_SQRT2, q(1))):
        with pytest.raises(TypeError, match="mixed-field arithmetic"):
            SymmetricTensor(k, 1, 1, {(0,): x})


def test_depolarize_inverts_polarize():
    rng = random.Random(4)
    for _ in range(12):
        phi = _random_form(rng, rng.randint(1, 3), rng.randint(2, 5))
        assert depolarize(polarize(phi)) == phi


def test_polarize_inverts_depolarize():
    theta = SymmetricTensor(QQ, 2, 2, {(0, 1): q(Fraction(1, 2))})
    phi = depolarize(theta)
    assert phi.body == var(2, 0) * var(2, 1)
    assert polarize(phi) == theta


@pytest.mark.parametrize("k", [QQ, Q_SQRT2, Q_TIMES_Q], ids=["q", "sqrt2", "qxq"])
def test_depolarize_and_tensor_product_on_integers_match_field_elements(k):
    """`depolarize` and `tensor_product`, on the tensors' ints, against the
    same steps on field elements (`oracles`), for random forms of degree 2
    to 4, some with a radical."""
    rng = random.Random(7)
    for _ in range(5):
        d = rng.randint(2, 4)
        phi1, phi2 = (_random_over(rng, k, rng.randint(1, 2), d) for _ in range(2))
        theta = polarize(phi1)
        assert depolarize(theta) == depolarize_by_elements(theta) == phi1
        assert tensor_product(phi1, phi2) == tensor_product_by_elements(phi1, phi2)


@pytest.mark.parametrize("k", [QQ, Q_SQRT2], ids=["q", "sqrt2"])
def test_depolarize_and_tensor_product_make_no_field_element_arithmetic(monkeypatch, k):
    """On <1, 2, 3> (<1, t, 3> over Q(sqrt 2) = Q(t)) neither `depolarize`
    nor `tensor_product` makes a FieldElement sum, difference, negation,
    product, inverse, quotient or power, or a product or inverse of the
    field, and neither reads a tensor's `entries` view."""
    coeffs = [k.one, k.from_rational(2) if k is QQ else k.gen, k.from_rational(3)]
    phi = HomogeneousForm(k, 3, 3, Polynomial.from_pairs(
        k, 3, [(tuple(3 * (j == i) for j in range(3)), c) for i, c in enumerate(coeffs)]))
    theta = polarize(phi)
    calls = Counter()
    for cls, name in ((FieldElement, "__add__"), (FieldElement, "__sub__"),
                      (FieldElement, "__neg__"), (FieldElement, "__mul__"),
                      (FieldElement, "inv"), (FieldElement, "__truediv__"),
                      (FieldElement, "__pow__"), (type(QQ), "_mul"), (type(QQ), "_inv"),
                      (EtaleAlgebra, "_mul"), (EtaleAlgebra, "_inv")):
        def counted(*args, _original=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cls, name, counted)
    monkeypatch.setattr(SymmetricTensor, "entries",
                        property(lambda theta: calls.update(["entries"])))
    back, square = depolarize(theta), tensor_product(phi, phi)
    monkeypatch.undo()
    assert not calls
    assert back == phi and square == tensor_product_by_elements(phi, phi)
    assert square.nvars == 9 and len(square.body.terms) == 9


def test_substitute_vectors_takes_int_columns():
    """A column given as its numerators over a denominator, {i: int} over Q
    and {i: flat int vector} over Q(sqrt 2), gives the form the
    field-element column gives; a column over another field is refused."""
    rng = random.Random(3)
    for k in (QQ, Q_SQRT2):
        m = k.absolute_degree
        phi = _random_over(rng, k, 3, 3)
        for r in (1, 2, 3):
            cols, ints = [], []
            for _ in range(r):
                den = rng.choice((1, 2, 6))
                nums = {i: rng.randint(-3, 3) if m == 1 else [rng.randint(-3, 3) for _ in range(m)]
                        for i in range(3) if rng.random() < 0.7}
                nums = {i: v for i, v in nums.items() if (v if m == 1 else any(v))}
                ints.append((nums, den))
                cols.append([k.from_flat([Fraction(x, den) for x in
                                          ((nums[i],) if m == 1 else nums[i])])
                             if i in nums else k.zero for i in range(3)])
            assert substitute_vectors(phi, ints) == substitute_vectors(phi, cols)
    with pytest.raises(TypeError, match="mixed-field arithmetic"):
        substitute_vectors(diag([1, 2], 3), [[Q_SQRT2.one, Q_SQRT2.gen]])


def test_radical_of_degenerate_cubic():
    phi = HomogeneousForm(QQ, 3, 2, var(2, 0) ** 3)
    basis = radical(phi)
    assert len(basis) == 1
    v = basis[0]
    assert v[0].is_zero() and not v[1].is_zero()
    assert not is_nondegenerate(phi)


def test_radical_trivial_for_diagonal():
    assert radical(diag([1, 1], 3)) == []
    assert is_nondegenerate(diag([1, 2, 3], 3))


def test_orthogonal_sum():
    phi = orthogonal_sum(diag([1], 3), diag([2], 3))
    assert phi.body == var(2, 0) ** 3 + const(2, 2) * var(2, 1) ** 3


def test_tensor_with_scalar_form():
    phi = tensor_product(diag([2], 3), diag([1, 1], 3))
    assert phi.body == const(2, 2) * var(2, 0) ** 3 + const(2, 2) * var(2, 1) ** 3


def test_tensor_square_of_binary_quadratic():
    phi = tensor_product(diag([1, -1], 2), diag([1, -1], 2))
    z = [var(4, i) for i in range(4)]
    assert phi.body == z[0] ** 2 - z[1] ** 2 - z[2] ** 2 + z[3] ** 2


def _promote(phi, A):
    pairs = [(e, A.from_rational(c.as_rational())) for e, c in phi.body.terms.items()]
    body = Polynomial.from_pairs(A, phi.nvars, pairs)
    return HomogeneousForm(A, phi.degree, phi.nvars, body)


def test_transfer_square_along_trace():
    # s(u + v t) = 2u over Q[t]/(t^2 - 2); s(x^2) = 2u^2 + 4v^2
    A = field_extend(QQ, [-2, 0, 1])
    phi = _promote(diag([1], 2), A)
    down = transfer_form(A, [2, 0], phi)
    assert down.body == const(2, 2) * var(2, 0) ** 2 + const(2, 4) * var(2, 1) ** 2


def test_transfer_degree_one_algebra_is_identity():
    A = field_extend(QQ, [-1, 1])
    phi = _promote(diag([1, 2], 3), A)
    down = transfer_form(A, [1], phi)
    assert down == diag([1, 2], 3)


def test_transfer_commutes_with_tensor():
    """Pushing down theta_A (x) Gamma equals theta (x) pushed-down Gamma."""
    A = field_extend(QQ, [-2, 0, 1])
    theta = diag([1, -1], 2)
    gamma = _promote(diag([1], 2), A)
    lhs = transfer_form(A, [2, 0], tensor_product(_promote(theta, A), gamma))
    rhs = tensor_product(theta, transfer_form(A, [2, 0], gamma))
    assert lhs == rhs


def test_transfer_tensor_level_matches_form_level():
    A = field_extend(QQ, [-2, 0, 1])
    phi = _promote(diag([1, 3], 2), A)
    assert transfer(A, [2, 0], polarize(phi)) == polarize(transfer_form(A, [2, 0], phi))


def test_transfer_preserves_nondegeneracy():
    A = field_extend(QQ, [-2, 0, 1])
    phi = _promote(diag([1, 3], 2), A)
    assert is_nondegenerate(transfer_form(A, [2, 0], phi))


def test_change_of_basis_identity():
    phi = diag([1, 5], 4)
    eye = LinearMap.from_rationals(QQ, [[1, 0], [0, 1]])
    assert apply_change_of_basis(phi, eye) == phi


def test_change_of_basis_diagonalizes_product():
    phi = HomogeneousForm.from_body(2, var(2, 0) * var(2, 1))
    f = LinearMap.from_rationals(QQ, [[1, 1], [1, -1]])
    assert apply_change_of_basis(phi, f) == diag([1, -1], 2)


def test_change_of_basis_scales_cubic():
    phi = diag([1, 1], 3)
    f = LinearMap.from_rationals(QQ, [[2, 0], [0, 1]])
    assert apply_change_of_basis(phi, f) == diag([8, 1], 3)


def test_change_of_basis_is_right_action():
    rng = random.Random(31)
    phi = _random_form(rng, 3, 3)

    def draw():
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            d = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
            if d:
                return rows

    for _ in range(4):
        fr, gr = draw(), draw()
        prod = [
            [sum(fr[i][k] * gr[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        f = LinearMap.from_rationals(QQ, fr)
        g = LinearMap.from_rationals(QQ, gr)
        fg = LinearMap.from_rationals(QQ, prod)
        assert apply_change_of_basis(apply_change_of_basis(phi, f), g) == apply_change_of_basis(phi, fg)


def test_radical_dimension_additive():
    degen = HomogeneousForm(QQ, 3, 2, var(2, 0) ** 3)
    for left, right in [(degen, diag([1, 1], 3)), (degen, degen)]:
        total = orthogonal_sum(left, right)
        assert len(radical(total)) == len(radical(left)) + len(radical(right))


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatch):
        orthogonal_sum(diag([1], 2), diag([1], 3))
    with pytest.raises(DegreeMismatch):
        tensor_product(diag([1], 2), diag([1], 3))


def test_zero_functional_rejected():
    A = field_extend(QQ, [-2, 0, 1])
    phi = _promote(diag([1], 2), A)
    with pytest.raises(ZeroFunctional):
        transfer_form(A, [0, 0], phi)


def test_singular_change_of_basis_rejected():
    phi = diag([1, 1], 2)
    with pytest.raises(Singular):
        apply_change_of_basis(phi, LinearMap.from_rationals(QQ, [[1, 1], [1, 1]]))


def test_zero_divisor_determinant_is_not_invertible():
    """Over Q[t]/(t^2 - 1), diag(1 + t, 1) has the nonzero determinant
    1 + t, a zero divisor ((1 + t)(1 - t) = 0), so it is no change of basis;
    diag(1 + 2t, 1) has the unit determinant 1 + 2t and is one."""
    k = field_extend(QQ, [-1, 0, 1])
    phi = _promote(diag([1, 1], 3), k)
    with pytest.raises(Singular):
        apply_change_of_basis(phi, LinearMap(k, [[k.one + k.gen, k.zero], [k.zero, k.one]]))
    c = k.one + k.from_rational(2) * k.gen
    body = Polynomial(k, 2, {(3, 0): c * c * c, (0, 3): k.one})
    assert apply_change_of_basis(phi, LinearMap(k, [[c, k.zero], [k.zero, k.one]])).body == body


@pytest.mark.parametrize("k", [QQ, field_extend(QQ, [-2, 0, 1]), field_extend(QQ, [-1, 0, 1])],
                         ids=["q", "sqrt2", "t2-minus-1"])
@pytest.mark.parametrize("seed", range(10))
def test_invertible_exactly_when_the_determinant_is_a_unit(k, seed):
    """A matrix is invertible when its determinant is a unit: nonzero over
    Q, of nonzero norm over an etale algebra."""
    rng = random.Random(seed)
    t = QQ.from_rational(Fraction(1, 2)) if k == QQ else k.gen
    pool = [k.zero, k.zero, k.one, -k.one, k.from_rational(Fraction(1, 3)), t, k.one + t, k.one - t]
    n = rng.randint(1, 4)
    rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        rows[-1] = [a * t + b for a, b in zip(rows[0], rows[-1])]
    det = linalg.determinant(k, rows)
    unit = not (det if k == QQ else etale_norm(k, det)).is_zero()
    assert linalg.is_invertible(k, rows) == unit
